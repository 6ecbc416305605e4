// pmbench — the repository benchmark's driver (perfbench/README.md).
//
//   pmbench --workload ckpt_write|restart_read|small_kv --seed N
//           --seconds S --trace 0|1 [--scale X] [--ranks N] [--corrupt 0|1]
//
// Rank threads (two by default) live for the whole run inside one
// par::Runtime::run.  Steps are closed-loop and delimited by the benchmark's
// own barriers; input generation and verification happen between steps.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is the JSON result.
#include "bench.hpp"
#include "replay.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

namespace pb {
namespace {

namespace trace = pmemcpy::trace;
using pmemcpy::par::Comm;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = kMiB * 1024.0;
constexpr int kSetups = 5;       ///< set-ups per untraced run (median)
constexpr int kWarmupSteps = 2;  ///< untimed steps before measuring
constexpr int kSoloSteps = 2;    ///< traced run: rank 0 alone (scaling)

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  /// Two of the reference machine's four vCPUs: with every vCPU busy,
  /// hypervisor steal on any one of them stalls the barrier-fenced step
  /// (FINDINGS.md §2).
  int ranks = 2;
  bool corrupt = false;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// What one rank saw in one step.
struct StepLocal {
  double host_s = 0;       ///< start barrier exit .. end-of-step collective
  double wait_s = 0;       ///< end-of-step collective wait (skew + barrier)
  double sim_start = 0;    ///< this rank's simulated clock at body start
  double sim_elapsed = 0;  ///< this rank's simulated body time
  double mmap_s = 0, munmap_s = 0;
  std::array<double, pmemcpy::trace::kNumChargeKinds> charges{};
};

/// Per-rank accumulators, written only by their own rank thread.
struct RankOut {
  std::vector<double> store_s, load_s, remove_s;  ///< per public call
  std::vector<double> step_call_s;  ///< per step: sum of this rank's calls
  std::vector<double> step_ops, step_bytes;
  std::vector<double> wait_s, mmap_s, munmap_s;
  double solo_ops = 0, solo_call_s = 0;  ///< last solo step
  double recorded_ops = 0;  ///< public calls of the recorded traced step
  StepLocal last;
  double gen_s = 0, verify_s = 0;
  std::size_t attempted = 0, failed = 0, mismatches = 0;
  ReplayOut replay;
};

/// Counters read from the program's trace registry after a traced step.
struct TracedStep {
  std::map<std::string, double> sim_self;  ///< span name -> self seconds
  std::uint64_t counters[static_cast<int>(trace::Counter::kNumCounters)] = {};
  std::array<double, trace::kNumChargeKinds> charges{};  ///< critical rank
};

struct Shared {
  Args args;
  Params p;
  std::unique_ptr<pmemcpy::PmemNode> node;
  ReplayShared replay;
  std::vector<RankOut> ranks;
  // Written by rank 0 only.
  std::vector<double> setup_s, step_host_s, step_sim_s, traced_host_s;
  std::vector<TracedStep> traced;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  bool correct = true;
  std::size_t attempted = 0, failed = 0;
};

/// One closed-loop step of @p ops (collective).
void run_step(Comm& comm, Shared& sh, RankOut& ro, std::vector<CoreOp>& ops,
              std::vector<double>& call_s) {
  StepLocal st;
  comm.barrier();  // start line
  const auto t0 = Clock::now();
  Clock::time_point body_end;
  std::array<double, trace::kNumChargeKinds> c0{};
  const double sim = comm.timed_max([&] {
    auto& ctx = pmemcpy::sim::ctx();
    st.sim_start = ctx.now();
    for (int c = 0; c < trace::kNumChargeKinds; ++c) {
      c0[static_cast<std::size_t>(c)] =
          ctx.charged(static_cast<pmemcpy::sim::Charge>(c));
    }
    pmemcpy::PMEM pm(pmem_config(*sh.node));
    auto a = Clock::now();
    pm.mmap(kRegion, comm);
    st.mmap_s = seconds_since(a);
    ro.failed += issue_all(pm, comm, ops, &call_s);
    a = Clock::now();
    pm.munmap();
    st.munmap_s = seconds_since(a);
    st.sim_elapsed = ctx.now() - st.sim_start;
    for (int c = 0; c < trace::kNumChargeKinds; ++c) {
      st.charges[static_cast<std::size_t>(c)] =
          ctx.charged(static_cast<pmemcpy::sim::Charge>(c)) -
          c0[static_cast<std::size_t>(c)];
    }
    body_end = Clock::now();
  });
  const auto t1 = Clock::now();
  st.host_s = std::chrono::duration<double>(t1 - t0).count();
  st.wait_s = std::chrono::duration<double>(t1 - body_end).count();
  ro.last = st;
  if (comm.rank() == 0) {
    sh.step_host_s.push_back(st.host_s);
    sh.step_sim_s.push_back(sim);
  }
}

/// Fold one finished step's op list into @p ro's per-call statistics.
void record_calls(RankOut& ro, const std::vector<CoreOp>& ops,
                  const std::vector<double>& call_s) {
  double sum = 0, n = 0, bytes = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const CoreOp& op = ops[i];
    if (op.kind == OpKind::kBarrier) continue;
    sum += call_s[i];
    n += 1;
    bytes += static_cast<double>(payload_bytes(op));
    switch (op.kind) {
      case OpKind::kStorePiece:
      case OpKind::kStoreValue:
      case OpKind::kStoreAttr:
        ro.store_s.push_back(call_s[i]);
        break;
      case OpKind::kLoadPiece:
      case OpKind::kLoadValue:
        ro.load_s.push_back(call_s[i]);
        break;
      case OpKind::kRemove:
        ro.remove_s.push_back(call_s[i]);
        break;
      default:
        break;
    }
  }
  ro.attempted += static_cast<std::size_t>(n);
  ro.step_call_s.push_back(sum);
  ro.step_ops.push_back(n);
  ro.step_bytes.push_back(bytes);
  ro.wait_s.push_back(ro.last.wait_s);
  ro.mmap_s.push_back(ro.last.mmap_s);
  ro.munmap_s.push_back(ro.last.munmap_s);
}

/// Rank 0, after a traced step: self simulated time per span name (only
/// spans that opened inside the step body) and the counters.
void collect_traced(Shared& sh) {
  TracedStep ts;
  const auto spans = trace::snapshot();
  std::vector<std::int64_t> child(spans.size() + 1, 0);
  for (const auto& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      child[s.parent] += s.duration_ns();
    }
  }
  for (const auto& s : spans) {
    const auto& st = sh.ranks[static_cast<std::size_t>(s.rank)].last;
    if (s.start_ns < std::llround(st.sim_start * 1e9)) continue;
    ts.sim_self[s.name] +=
        static_cast<double>(s.duration_ns() - child[s.id]) * 1e-9;
  }
  for (int c = 0; c < static_cast<int>(trace::Counter::kNumCounters); ++c) {
    ts.counters[c] = trace::counter(static_cast<trace::Counter>(c));
  }
  // Charges of the critical-path rank (the one sim_step_s reports).
  const RankOut* crit = &sh.ranks[0];
  for (const auto& r : sh.ranks) {
    if (r.last.sim_elapsed > crit->last.sim_elapsed) crit = &r;
  }
  ts.charges = crit->last.charges;
  sh.traced.push_back(std::move(ts));
}

enum class Mode { kPlain, kSolo, kTraced };

/// Closed-loop steps for @p seconds (at least @p min_steps).  With @p record
/// the first step's ops (and the model it started from) are kept.
void phase(Comm& comm, Shared& sh, RankWork& work, RankOut& ro,
           std::uint64_t& step, double seconds, int min_steps, Mode mode,
           bool measure, std::vector<CoreOp>* record = nullptr,
           KvModel* record_before = nullptr) {
  const auto start = Clock::now();
  for (int n = 0;; ++n) {
    // Rank 0 decides; a rank-local copy, since rank 0 may already decide
    // the next phase while a peer still reads this answer.
    int go = comm.rank() == 0 && (n < min_steps || seconds_since(start) < seconds);
    comm.bcast(&go, sizeof(go), 0);
    if (go == 0) break;
    const bool keep = record != nullptr && n == 0;
    auto t = Clock::now();
    if (keep) *record_before = work.model();
    auto ops = work.step_ops(step, mode == Mode::kSolo);
    ro.gen_s += seconds_since(t);
    if (mode == Mode::kTraced && comm.rank() == 0) {
      trace::set_enabled(true);
      trace::reset();
    }
    std::vector<double> call_s;
    run_step(comm, sh, ro, ops, call_s);
    if (mode == Mode::kTraced && comm.rank() == 0) {
      // Every rank has left the step body (run_step ends in a collective),
      // and none can start the next one before rank 0 does.
      trace::set_enabled(false);
      collect_traced(sh);
      sh.traced_host_s.push_back(sh.step_host_s.back());
    }
    t = Clock::now();
    ro.mismatches += work.verify(ops);
    ro.verify_s += seconds_since(t);
    if (mode == Mode::kSolo) {
      ro.solo_ops = 0;
      ro.solo_call_s = 0;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].kind == OpKind::kBarrier) continue;
        ro.solo_ops += 1;
        ro.solo_call_s += call_s[i];
      }
      ro.attempted += static_cast<std::size_t>(ro.solo_ops);
    } else if (measure) {
      record_calls(ro, ops, call_s);
    } else {
      for (const auto& op : ops) ro.attempted += op.kind != OpKind::kBarrier;
    }
    if (keep) *record = std::move(ops);
    ++step;
  }
}

/// Set-up: a fresh node, then the workload's population (collective).
void setup(Comm& comm, Shared& sh, RankWork& work, RankOut& ro) {
  auto ops = work.setup_ops();
  comm.barrier();
  const auto t0 = Clock::now();
  if (comm.rank() == 0) {
    sh.node.reset();
    sh.node = make_node(sh.p.device_bytes);
  }
  comm.barrier();
  {
    pmemcpy::PMEM pm(pmem_config(*sh.node));
    pm.mmap(kRegion, comm);
    ro.failed += issue_all(pm, comm, ops, nullptr);
    for (const auto& op : ops) ro.attempted += op.kind != OpKind::kBarrier;
    pm.munmap();
  }
  comm.barrier();
  if (comm.rank() == 0) sh.setup_s.push_back(seconds_since(t0));
}

/// Read the final state back and verify it; with --corrupt, rank 0 first
/// flips one byte of a blob the verification reads.
void final_check(Comm& comm, Shared& sh, RankWork& work, RankOut& ro,
                 std::uint64_t last_step) {
  const auto t0 = Clock::now();
  auto ops = work.final_ops(last_step);
  pmemcpy::PMEM pm(pmem_config(*sh.node));
  pm.mmap(kRegion, comm);
  if (sh.args.corrupt && comm.rank() == 0) {
    const std::string target = work.corrupt_target(last_step);
    auto& dev = sh.node->device();
    pm.for_each_raw([&](const std::string& key,
                        std::span<const std::byte> blob, std::uint64_t) {
      if (key != target || blob.empty()) return;
      const auto off = static_cast<std::size_t>(blob.data() - dev.raw(0));
      dev.raw(off + blob.size() - 1)[0] ^= std::byte{0x5A};
    });
  }
  comm.barrier();
  for (auto& op : ops) {
    std::vector<CoreOp> one(1);
    one[0] = std::move(op);
    ro.failed += issue_all(pm, comm, one, nullptr);
    ro.attempted += 1;
    ro.mismatches += work.verify(one);
  }
  pm.munmap();
  ro.verify_s += seconds_since(t0);
}

void add(Shared& sh, const std::string& name, double value,
         const std::string& unit) {
  sh.metrics.push_back({name, {value, unit}});
}

std::vector<double> gather(const Shared& sh,
                           std::vector<double> RankOut::*field) {
  std::vector<double> all;
  for (const auto& r : sh.ranks) {
    all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  }
  return all;
}

/// Per-step sums over ranks of a per-rank per-step series.
std::vector<double> per_step_sum(const Shared& sh,
                                 std::vector<double> RankOut::*field) {
  std::vector<double> out((sh.ranks[0].*field).size(), 0.0);
  for (const auto& r : sh.ranks) {
    for (std::size_t i = 0; i < out.size() && i < (r.*field).size(); ++i) {
      out[i] += (r.*field)[i];
    }
  }
  return out;
}

/// Host seconds of every public store/load/remove call, all ranks.
std::vector<double> all_calls(const Shared& sh) {
  std::vector<double> calls = gather(sh, &RankOut::store_s);
  for (auto f : {&RankOut::load_s, &RankOut::remove_s}) {
    const auto more = gather(sh, f);
    calls.insert(calls.end(), more.begin(), more.end());
  }
  return calls;
}

void end_to_end_metrics(Shared& sh) {
  // Throughputs are medians of the per-step rates, like the step time: a
  // burst of hypervisor steal stretches a few steps, which a ratio of sums
  // over the run would fold in.
  const auto ops = per_step_sum(sh, &RankOut::step_ops);
  const auto bytes = per_step_sum(sh, &RankOut::step_bytes);
  std::vector<double> ops_rate, mib_rate;
  for (std::size_t i = 0; i < sh.step_host_s.size() && i < ops.size(); ++i) {
    ops_rate.push_back(ops[i] / sh.step_host_s[i]);
    mib_rate.push_back(bytes[i] / kMiB / sh.step_host_s[i]);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  add(sh, "setup_s", median(sh.setup_s), "s");
  add(sh, "step_p50_s", median(sh.step_host_s), "s");
  add(sh, "call_p50_us", median(all_calls(sh)) * 1e6, "us");
  add(sh, "host_MiBps", median(mib_rate), "MiB/s");
  add(sh, "ops_per_s", median(ops_rate), "1/s");
  add(sh, "sim_step_s", median(sh.step_sim_s), "s");
  add(sh, "peak_rss_MiB", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
}

std::uint64_t total_counter(const TracedStep& t, trace::Counter c) {
  return t.counters[static_cast<int>(c)];
}

/// The replays must have issued exactly the work the recorded step did.
void check_fidelity(const Shared& sh, const ReplayOut& r,
                    const TracedStep& live, double live_ops) {
  const auto puts = total_counter(live, trace::Counter::kEnginePuts);
  const auto gets = total_counter(live, trace::Counter::kEngineGets);
  const auto wr = total_counter(live, trace::Counter::kCopyDirectBytes);
  const auto rd = total_counter(live, trace::Counter::kCopyReadDirectBytes);
  std::string bad;
  auto expect = [&](const char* what, double got, double want) {
    if (got != want) {
      bad += std::string(" ") + what + "=" + std::to_string(got) +
             " (step: " + std::to_string(want) + ")";
    }
  };
  expect("core.ops", static_cast<double>(r.core_ops), live_ops);
  expect("core.failed_or_mismatched", static_cast<double>(r.core_bad), 0);
  expect("engine.puts", static_cast<double>(r.eng_puts), static_cast<double>(puts));
  expect("engine.gets", static_cast<double>(r.eng_gets), static_cast<double>(gets));
  expect("engine.bytes_written", static_cast<double>(r.eng_put_bytes),
         static_cast<double>(wr));
  expect("engine.bytes_read", static_cast<double>(r.eng_read_bytes),
         static_cast<double>(rd));
  expect("obj.reserves", static_cast<double>(r.obj_reserves), static_cast<double>(puts));
  expect("obj.finds", static_cast<double>(r.obj_finds), static_cast<double>(gets));
  expect("serial.crc_put_bytes", static_cast<double>(r.crc_put_bytes),
         static_cast<double>(wr));
  expect("dev.bytes_written", static_cast<double>(r.dev_written), static_cast<double>(wr));
  expect("dev.bytes_read", static_cast<double>(r.dev_read), static_cast<double>(rd));
  if (!bad.empty()) {
    throw std::runtime_error(
        "perfbench: replay does not match the recorded " + sh.p.name +
        " step:" + bad);
  }
}

void per_layer_metrics(Shared& sh, double untraced_step_s,
                       const TracedStep& recorded) {
  // Sum the replays over ranks (thread-seconds).
  ReplayOut r;
  for (const auto& ro : sh.ranks) {
    const auto& x = ro.replay;
    r.core_s += x.core_s, r.engine_s += x.engine_s, r.obj_s += x.obj_s;
    r.enc_s += x.enc_s, r.crc_s += x.crc_s;
    r.dev_copy_s += x.dev_copy_s, r.dev_persist_s += x.dev_persist_s;
    r.engine_put_s += x.engine_put_s, r.engine_commit_s += x.engine_commit_s;
    r.engine_get_s += x.engine_get_s;
    r.obj_publish_group_s += x.obj_publish_group_s;
    r.dev_write_s += x.dev_write_s, r.dev_read_s += x.dev_read_s;
    r.obj_find_us.insert(r.obj_find_us.end(), x.obj_find_us.begin(),
                         x.obj_find_us.end());
    r.obj_alloc_us.insert(r.obj_alloc_us.end(), x.obj_alloc_us.begin(),
                          x.obj_alloc_us.end());
    r.obj_free_us.insert(r.obj_free_us.end(), x.obj_free_us.begin(),
                         x.obj_free_us.end());
    r.core_ops += x.core_ops, r.core_bad += x.core_bad;
    r.eng_puts += x.eng_puts, r.eng_gets += x.eng_gets;
    r.eng_put_bytes += x.eng_put_bytes, r.eng_read_bytes += x.eng_read_bytes;
    r.obj_reserves += x.obj_reserves, r.obj_finds += x.obj_finds;
    r.crc_put_bytes += x.crc_put_bytes, r.crc_bytes += x.crc_bytes;
    r.dev_written += x.dev_written, r.dev_read += x.dev_read;
  }
  r.small_solo_ns = sh.ranks[0].replay.small_solo_ns;
  for (const auto& ro : sh.ranks) r.small_conc_ns += ro.replay.small_conc_ns;
  r.small_conc_ns /= static_cast<double>(sh.ranks.size());

  double recorded_ops = 0;
  for (const auto& ro : sh.ranks) recorded_ops += ro.recorded_ops;
  check_fidelity(sh, r, recorded, recorded_ops);

  // core: per-call host latency and the measured core call time per step.
  add(sh, "core.store.host_p50_us", median(gather(sh, &RankOut::store_s)) * 1e6, "us");
  add(sh, "core.load.host_p50_us", median(gather(sh, &RankOut::load_s)) * 1e6, "us");
  add(sh, "core.remove.host_p50_us", median(gather(sh, &RankOut::remove_s)) * 1e6, "us");
  add(sh, "core.call.host_p99_us", quantile(all_calls(sh), 0.99) * 1e6, "us");
  add(sh, "core.mmap.host_p50_ms", median(gather(sh, &RankOut::mmap_s)) * 1e3, "ms");
  add(sh, "core.munmap.host_p50_ms", median(gather(sh, &RankOut::munmap_s)) * 1e3, "ms");
  const double call_s = median(per_step_sum(sh, &RankOut::step_call_s));
  const double core_self = r.core_s - r.engine_s - r.enc_s;
  const double engine_self = r.engine_s - r.obj_s - r.crc_s - r.dev_copy_s;
  const double obj_self = r.obj_s - r.dev_persist_s;
  const double serial_self = r.enc_s + r.crc_s;
  const double dev_self = r.dev_copy_s + r.dev_persist_s;
  const double unattributed =
      call_s - (core_self + engine_self + obj_self + serial_self + dev_self);
  add(sh, "core.call.host_s", call_s, "s");
  add(sh, "core.replay.host_s", r.core_s, "s");
  add(sh, "core.self.host_s", core_self, "s");
  add(sh, "core.unattributed.host_s", unattributed, "s");
  add(sh, "core.unattributed.share", ratio(unattributed, call_s), "ratio");
  double conc = 0;
  for (const auto& ro : sh.ranks) {
    conc += ratio(median(ro.step_ops), median(ro.step_call_s));
  }
  conc /= static_cast<double>(sh.ranks.size());
  const double solo = ratio(sh.ranks[0].solo_ops, sh.ranks[0].solo_call_s);
  add(sh, "core.kv_scaling_eff", ratio(conc, solo), "ratio");

  add(sh, "engine.put.host_s", r.engine_put_s, "s");
  add(sh, "engine.batch_commit.host_s", r.engine_commit_s, "s");
  add(sh, "engine.get.host_s", r.engine_get_s, "s");
  add(sh, "engine.replay.host_s", r.engine_s, "s");
  add(sh, "engine.self.host_s", engine_self, "s");

  const auto& c = recorded;
  const auto cnt = [&](trace::Counter k) {
    return static_cast<double>(total_counter(c, k));
  };
  add(sh, "obj.alloc.host_p50_us", median(r.obj_alloc_us), "us");
  add(sh, "obj.free.host_p50_us", median(r.obj_free_us), "us");
  add(sh, "obj.publish_group.host_s", r.obj_publish_group_s, "s");
  add(sh, "obj.find.host_p50_us", median(r.obj_find_us), "us");
  add(sh, "obj.replay.host_s", r.obj_s, "s");
  add(sh, "obj.self.host_s", obj_self, "s");
  add(sh, "alloc.lane_acq_per_put",
      ratio(cnt(trace::Counter::kAllocLaneAcquisitions),
            cnt(trace::Counter::kEnginePuts)), "ratio");
  add(sh, "alloc.magazine_hit_ratio",
      ratio(cnt(trace::Counter::kAllocMagazineHits),
            cnt(trace::Counter::kAllocOps)), "ratio");

  add(sh, "serial.crc32c.GiBps",
      ratio(static_cast<double>(r.crc_bytes) / kGiB, r.crc_s), "GiB/s");
  add(sh, "serial.encode.host_s", r.enc_s, "s");
  add(sh, "serial.self.host_s", serial_self, "s");

  add(sh, "dev.write.GiBps",
      ratio(static_cast<double>(r.dev_written) / kGiB, r.dev_write_s), "GiB/s");
  add(sh, "dev.read.GiBps",
      ratio(static_cast<double>(r.dev_read) / kGiB, r.dev_read_s), "GiB/s");
  add(sh, "dev.persist.host_s", r.dev_persist_s, "s");
  add(sh, "dev.self.host_s", dev_self, "s");
  add(sh, "dev.small_op.contention_x", ratio(r.small_conc_ns, r.small_solo_ns),
      "ratio");

  add(sh, "par.barrier.host_us", median(gather(sh, &RankOut::wait_s)) * 1e6, "us");

  // Counts and simulated self time: means over the traced steps.
  std::map<std::string, double> self;
  std::array<double, trace::kNumChargeKinds> charges{};
  std::vector<double> sums(static_cast<int>(trace::Counter::kNumCounters), 0.0);
  for (const auto& t : sh.traced) {
    for (const auto& [name, s] : t.sim_self) self[name] += s;
    for (std::size_t k = 0; k < charges.size(); ++k) charges[k] += t.charges[k];
    for (std::size_t k = 0; k < sums.size(); ++k) {
      sums[k] += static_cast<double>(t.counters[k]);
    }
  }
  const auto n = static_cast<double>(sh.traced.size());
  const auto sum = [&](trace::Counter k) {
    return sums[static_cast<std::size_t>(k)];
  };
  add(sh, "dev.write_amp",
      ratio(sum(trace::Counter::kBytesWritten),
            sum(trace::Counter::kCopyDirectBytes)), "ratio");
  add(sh, "dev.read_amp",
      ratio(sum(trace::Counter::kBytesRead),
            sum(trace::Counter::kCopyReadDirectBytes)), "ratio");
  add(sh, "dev.lines_flushed_per_MiB",
      ratio(sum(trace::Counter::kLinesFlushed),
            (sum(trace::Counter::kCopyDirectBytes)) / kMiB), "count/MiB");
  add(sh, "dev.fences_per_put",
      ratio(sum(trace::Counter::kFenceOps), sum(trace::Counter::kEnginePuts)),
      "ratio");
  add(sh, "copy.staged_bytes", sum(trace::Counter::kCopyStagedBytes) / n, "bytes");
  for (const char* span : {"core.put", "engine.put", "pool.alloc",
                           "ht.publish_group", "par.barrier"}) {
    add(sh, std::string(span) + ".sim_self_s", self[span] / n, "s");
  }
  const std::pair<const char*, pmemcpy::sim::Charge> kinds[] = {
      {"charge.pmem_write_s", pmemcpy::sim::Charge::kPmemWrite},
      {"charge.pmem_read_s", pmemcpy::sim::Charge::kPmemRead},
      {"charge.pmem_persist_s", pmemcpy::sim::Charge::kPmemPersist},
      {"charge.page_fault_s", pmemcpy::sim::Charge::kPageFault},
      {"charge.cpu_copy_s", pmemcpy::sim::Charge::kCpuCopy}};
  for (const auto& [name, k] : kinds) {
    add(sh, name, charges[static_cast<std::size_t>(k)] / n, "s");
  }
  add(sh, "trace.overhead_ratio",
      ratio(median(sh.traced_host_s), untraced_step_s), "ratio");
  add(sh, "bench.gen.host_s", sh.ranks[0].gen_s, "s");
  add(sh, "bench.verify.host_s", sh.ranks[0].verify_s, "s");
}

void rank_main(Comm& comm, Shared& sh) {
  RankOut& ro = sh.ranks[static_cast<std::size_t>(comm.rank())];
  RankWork work(sh.p, comm.rank());
  auto t = Clock::now();
  work.generate_inputs();
  ro.gen_s += seconds_since(t);

  const bool traced = sh.args.trace;
  for (int i = 0; i < (traced ? 1 : kSetups); ++i) setup(comm, sh, work, ro);

  std::uint64_t step = 0;
  const double secs = sh.args.seconds;
  if (!traced) {
    phase(comm, sh, work, ro, step, 0, kWarmupSteps, Mode::kPlain, false);
    if (comm.rank() == 0) sh.step_host_s.clear(), sh.step_sim_s.clear();
    phase(comm, sh, work, ro, step, secs, 3, Mode::kPlain, true);
    comm.barrier();
    if (comm.rank() == 0) end_to_end_metrics(sh);
  } else {
    phase(comm, sh, work, ro, step, 0, kSoloSteps, Mode::kSolo, false);
    if (comm.rank() == 0) sh.step_host_s.clear(), sh.step_sim_s.clear();
    phase(comm, sh, work, ro, step, secs / 3, 3, Mode::kPlain, true);
    comm.barrier();
    const double untraced_step_s = comm.rank() == 0 ? median(sh.step_host_s) : 0;
    std::vector<CoreOp> recorded;
    KvModel before;
    const std::uint64_t recorded_step = step;
    phase(comm, sh, work, ro, step, secs / 6, 2, Mode::kTraced, false,
          &recorded, &before);
    for (const auto& op : recorded) ro.recorded_ops += op.kind != OpKind::kBarrier;
    auto prepop = work.prepop_ops(recorded_step, before);
    run_replays(comm, sh.replay, sh.p, work, recorded, prepop, ro.replay);
    comm.barrier();
    if (comm.rank() == 0) {
      per_layer_metrics(sh, untraced_step_s, sh.traced.front());
    }
  }
  final_check(comm, sh, work, ro, step - 1);
  comm.barrier();
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v) != 0;
    } else if (k == "--scale") {
      a.scale = std::stod(v);
    } else if (k == "--ranks") {
      a.ranks = std::stoi(v);
    } else if (k == "--corrupt") {
      a.corrupt = std::stoi(v) != 0;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if ((argc - 1) % 2 != 0) throw std::invalid_argument("missing value");
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0) || !(a.scale > 0) || a.ranks < 1) {
    throw std::invalid_argument("--seconds, --scale and --ranks must be positive");
  }
  return a;
}

void print_result(const Shared& sh) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              sh.correct ? "true" : "false", sh.attempted, sh.failed);
  bool first = true;
  for (const auto& [name, vu] : sh.metrics) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  try {
    Shared sh;
    sh.args = parse(argc, argv);
    sh.p = make_params(sh.args.workload, sh.args.seed, sh.args.scale,
                       sh.args.ranks);
    sh.ranks.resize(static_cast<std::size_t>(sh.p.nranks));
    pmemcpy::par::Runtime::run(sh.p.nranks,
                               [&](Comm& comm) { rank_main(comm, sh); });
    std::size_t mismatches = 0;
    for (const auto& r : sh.ranks) {
      sh.attempted += r.attempted;
      sh.failed += r.failed;
      mismatches += r.mismatches;
    }
    sh.correct = sh.failed == 0 && mismatches == 0;
    std::fprintf(stderr, "pmbench %s seed=%llu: %zu ops, %zu failed, %zu mismatched\n",
                 sh.p.name.c_str(), static_cast<unsigned long long>(sh.p.seed),
                 sh.attempted, sh.failed, mismatches);
    print_result(sh);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmbench: %s\n", e.what());
    return 1;
  }
}
