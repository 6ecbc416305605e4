// Deterministic flush/fence-efficiency audit.
//
// Runs a fixed-size workload through each storage layer with the
// persistency-order checker attached and prints, per phase, the CLWB/SFENCE
// traffic the layer generated (trace counters, with tracing enabled) plus
// any efficiency lints (the checker report).  Unlike the
// micro_* benches (whose google-benchmark loops adapt iteration counts to
// wall-clock), every count here is exact and reproducible, so two builds
// can be diffed flush-for-flush.  EXPERIMENTS.md §"Persistency-order
// checker" uses this binary for its before/after numbers.
//
// Usage: flush_audit [--json PATH] [--baseline PATH]
//   --json      write the per-phase counters as JSON (one object per line)
//   --baseline  compare against a previously written JSON file and fail
//               (exit 1) if any phase's flush_ops or fence_ops grew —
//               ci.sh uses this as a flush-traffic regression gate.
#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/fs/filesystem.hpp>
#include <pmemcpy/obj/hashtable.hpp>
#include <pmemcpy/obj/plist.hpp>
#include <pmemcpy/trace/trace.hpp>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace {

using pmemcpy::check::Report;
using pmemcpy::fs::FileSystem;
using pmemcpy::fs::OpenMode;
using pmemcpy::obj::HashTable;
using pmemcpy::obj::PList;
using pmemcpy::obj::Pool;
using pmemcpy::obj::Transaction;
using pmemcpy::pmem::Device;
using pmemcpy::trace::Counter;

/// A trace-schema counter row.  Only the first eight counters are filled:
/// device traffic from the trace registry, lint tallies from the checker.
struct Row {
  std::uint64_t v[static_cast<int>(Counter::kNumCounters)] = {};
  [[nodiscard]] std::uint64_t operator[](Counter c) const {
    return v[static_cast<int>(c)];
  }
};

struct Phase {
  std::string name;
  Row delta;
};

std::vector<Phase> phases;

Row snapshot(const Device& dev) {
  Row r;
  for (Counter c : {Counter::kStoreOps, Counter::kFlushOps,
                    Counter::kLinesFlushed, Counter::kFenceOps}) {
    r.v[static_cast<int>(c)] = pmemcpy::trace::counter(c);
  }
  const Report rep = dev.checker_report();
  r.v[static_cast<int>(Counter::kCleanFlushes)] = rep.clean_flushes;
  r.v[static_cast<int>(Counter::kDuplicateFlushes)] = rep.duplicate_flushes;
  r.v[static_cast<int>(Counter::kEmptyFences)] = rep.empty_fences;
  r.v[static_cast<int>(Counter::kCorrectnessViolations)] =
      rep.correctness_violations;
  return r;
}

/// Per-phase deltas.  The lint tallies must be deltas too: the ht-batch
/// phases share one device, so without them a stage-phase lint would leak
/// into the commit-phase row.
Row delta(const Row& before, Row after) {
  for (std::size_t i = 0; i < std::size(after.v); ++i) {
    after.v[i] -= before.v[i];
  }
  return after;
}

/// Runs @p fn on a fresh checked device and records the traffic delta.
template <typename Fn>
void audit(const std::string& name, std::size_t dev_bytes, Fn&& fn) {
  Device dev(dev_bytes);
  dev.enable_checker();
  const Row before = snapshot(dev);
  fn(dev);
  phases.push_back({name, delta(before, snapshot(dev))});
}

bool write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "flush_audit: cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    // Serialise through the shared trace counter schema: the first four
    // fields stay in the exact layout check_baseline()'s sscanf expects,
    // and lint tallies ride along as nonzero-only extras.
    std::fprintf(f, "{\"phase\": \"%s\", %s}%s\n", phases[i].name.c_str(),
                 pmemcpy::trace::schema_fields(phases[i].delta.v).c_str(),
                 i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  return true;
}

struct BaselineRow {
  unsigned long long flush_ops = 0;
  unsigned long long fence_ops = 0;
};

/// Parses the one-object-per-line JSON write_json() emits.  Phases present
/// only on one side are skipped (new phases must not fail old baselines).
bool check_baseline(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "flush_audit: cannot read baseline %s\n", path);
    return false;
  }
  std::map<std::string, BaselineRow> base;
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    char name[128];
    unsigned long long store = 0, flush = 0, lines = 0, fence = 0;
    if (std::sscanf(line,
                    "{\"phase\": \"%127[^\"]\", \"store_ops\": %llu, "
                    "\"flush_ops\": %llu, \"lines_flushed\": %llu, "
                    "\"fence_ops\": %llu}",
                    name, &store, &flush, &lines, &fence) == 5) {
      base[name] = {flush, fence};
    }
  }
  std::fclose(f);

  bool ok = true;
  for (const auto& p : phases) {
    auto it = base.find(p.name);
    if (it == base.end()) continue;
    const auto flushes =
        static_cast<unsigned long long>(p.delta[Counter::kFlushOps]);
    const auto fences =
        static_cast<unsigned long long>(p.delta[Counter::kFenceOps]);
    if (flushes > it->second.flush_ops) {
      std::fprintf(stderr,
                   "flush_audit: REGRESSION %s flush_ops %llu > baseline "
                   "%llu\n",
                   p.name.c_str(), flushes, it->second.flush_ops);
      ok = false;
    }
    if (fences > it->second.fence_ops) {
      std::fprintf(stderr,
                   "flush_audit: REGRESSION %s fence_ops %llu > baseline "
                   "%llu\n",
                   p.name.c_str(), fences, it->second.fence_ops);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: flush_audit [--json PATH] [--baseline PATH]\n");
      return 2;
    }
  }
  pmemcpy::trace::set_enabled(true);  // the traffic counters

  // Object store: snapshot transactions.  Two snapshots land on the same
  // cacheline so range coalescing in Transaction::commit is exercised.
  audit("tx-commit", 64ull << 20, [](Device& dev) {
    Pool pool = Pool::create(dev, 0, 64ull << 20);
    const auto off = pool.alloc(256);
    std::vector<std::byte> buf(256, std::byte{1});
    for (int i = 0; i < 10000; ++i) {
      Transaction tx(pool);
      tx.snapshot(off, 16);
      tx.snapshot(off + 16, 240);
      pool.write(off, buf.data(), buf.size());
      tx.commit();
    }
  });

  // Hashtable puts, sized to trigger several rehash doublings from 1k
  // buckets (reserve/publish staging + rehash node copies + header tx).
  audit("ht-put", 512ull << 20, [](Device& dev) {
    Pool pool = Pool::create(dev, 0, 512ull << 20);
    HashTable table = HashTable::create(pool, 1024);
    const std::string value(256, 'v');
    for (int i = 0; i < 20000; ++i) {
      table.put("key" + std::to_string(i), value.data(), value.size());
    }
  });

  // Group commit: stage 100 reserves, then publish them all under one
  // publish_group().  Recorded as two phases so the commit's fence cost is
  // visible on its own: the whole batch must cost at most 2 fences
  // (durability drain + visibility drain), not O(N).
  {
    Device dev(512ull << 20);
    dev.enable_checker();
    Pool pool = Pool::create(dev, 0, 512ull << 20);
    HashTable table = HashTable::create(pool, 1024);
    table.set_auto_grow(false);
    const std::string value(256, 'v');
    const Row before_stage = snapshot(dev);
    std::vector<HashTable::Inserter> staged;
    staged.reserve(100);
    for (int i = 0; i < 100; ++i) {
      auto ins = table.reserve("bk" + std::to_string(i), value.size());
      auto span = ins.value();
      std::memcpy(span.data(), value.data(), value.size());
      ins.close_checker_scope();
      staged.push_back(std::move(ins));
    }
    const Row before_commit = snapshot(dev);
    std::vector<HashTable::GroupPut> puts;
    puts.reserve(staged.size());
    for (auto& ins : staged) puts.push_back({&ins, false, false});
    table.publish_group(puts);
    const Row after = snapshot(dev);
    phases.push_back({"ht-batch-stage", delta(before_stage, before_commit)});
    phases.push_back({"ht-batch-commit", delta(before_commit, after)});
    if (phases.back().delta[Counter::kFenceOps] > 2) {
      std::fprintf(stderr,
                   "flush_audit: ht-batch-commit used %llu fences for a "
                   "100-put group commit (want <= 2)\n",
                   static_cast<unsigned long long>(
                       phases.back().delta[Counter::kFenceOps]));
      return 1;
    }
  }

  // Persistent list push/pop (node persist + link-in discipline).
  audit("plist", 64ull << 20, [](Device& dev) {
    Pool pool = Pool::create(dev, 0, 64ull << 20);
    PList list = PList::create(pool, 64);
    std::vector<std::byte> rec(64, std::byte{2});
    for (int i = 0; i < 10000; ++i) list.push(rec.data());
    while (list.pop(rec.data())) {
    }
  });

  // Filesystem format (bitmap + inode-table persist).
  audit("fs-format", 64ull << 20, [](Device& dev) {
    (void)FileSystem::format(dev, 0, 64ull << 20);
  });

  // POSIX path: sequential pwrite with periodic fsync — fsync must flush
  // exactly the dirtied lines and pay one fence.
  audit("fs-fsync", 64ull << 20, [](Device& dev) {
    FileSystem fs = FileSystem::format(dev, 0, 64ull << 20);
    auto f = fs.open("/data", OpenMode::kTruncate);
    std::vector<std::byte> buf(1024, std::byte{3});
    for (int i = 0; i < 1000; ++i) {
      fs.pwrite(f, buf.data(), buf.size(), std::uint64_t(i) * buf.size());
      if (i % 10 == 9) fs.fsync(f);
    }
  });

  // DAX path: store through a mapping, then Mapping::persist (one CLWB pass
  // over every extent run, one fence).
  audit("map-persist", 64ull << 20, [](Device& dev) {
    FileSystem fs = FileSystem::format(dev, 0, 64ull << 20);
    auto m = fs.create_mapped("/m", 1 << 20);
    std::vector<std::byte> buf(4096, std::byte{4});
    for (int i = 0; i < 256; ++i) {
      m.store(std::uint64_t(i) * buf.size(), buf.data(), buf.size());
      m.persist(std::uint64_t(i) * buf.size(), buf.size());
    }
  });

  std::printf("%-16s %12s %10s %14s %10s %8s %8s %8s\n", "phase",
              "store_ops", "flush_ops", "lines_flushed", "fence_ops", "clean",
              "dup", "empty");
  for (const auto& p : phases) {
    const auto n = [&p](Counter c) {
      return static_cast<unsigned long long>(p.delta[c]);
    };
    std::printf("%-16s %12llu %10llu %14llu %10llu %8llu %8llu %8llu\n",
                p.name.c_str(), n(Counter::kStoreOps), n(Counter::kFlushOps),
                n(Counter::kLinesFlushed), n(Counter::kFenceOps),
                n(Counter::kCleanFlushes), n(Counter::kDuplicateFlushes),
                n(Counter::kEmptyFences));
  }

  if (json_path != nullptr && !write_json(json_path)) return 1;
  if (baseline_path != nullptr && !check_baseline(baseline_path)) return 1;
  return 0;
}
