#include <pmemcpy/pmem/device.hpp>

#include "checker.hpp"

#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

namespace pmemcpy::pmem {

namespace {
constexpr std::size_t kPage = 4096;

std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

bool env_truthy(const char* value) {
  return !(value[0] == '\0' || value[0] == '0' || value[0] == 'n' ||
           value[0] == 'N' || value[0] == 'f' || value[0] == 'F');
}

/// PMEMCPY_PERSIST_CHECK env var wins; otherwise the CMake option
/// (-DPMEMCPY_PERSIST_CHECK=ON compiles the default to "attached").
bool checker_default_on() {
  if (const char* e = std::getenv("PMEMCPY_PERSIST_CHECK")) {
    return env_truthy(e);
  }
#ifdef PMEMCPY_PERSIST_CHECK_DEFAULT
  return true;
#else
  return false;
#endif
}

/// With PMEMCPY_PERSIST_CHECK_FATAL set, a device destructed with
/// unconsumed violations aborts the process — the CI enforcement gate.
bool checker_fatal_on() {
  const char* e = std::getenv("PMEMCPY_PERSIST_CHECK_FATAL");
  return e != nullptr && env_truthy(e);
}

/// splitmix64 finalizer — a cheap, well-mixed hash for torn-line selection
/// and the transient-fault coins.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Map a mixed 64-bit coin onto [0, 1).
double unit_interval(std::uint64_t coin) {
  return static_cast<double>(coin >> 11) * 0x1.0p-53;
}

double env_double(const char* name, double fallback) {
  const char* e = std::getenv(name);
  return e != nullptr ? std::atof(e) : fallback;
}

std::string range_str(std::size_t off, std::size_t len) {
  return "[" + std::to_string(off) + ", +" + std::to_string(len) + ")";
}
}  // namespace

Device::Device(std::size_t capacity, bool crash_shadow)
    : capacity_(round_up(capacity, kPage)),
      data_(std::make_unique<std::byte[]>(capacity_)),
      crash_shadow_(crash_shadow),
      touched_(capacity_ / kPage, false) {
  if (checker_default_on()) {
    enable_checker();
  }
  // Env-driven transient-fault arming (the fault-matrix CI config).  A
  // programmatic set_fault_plan() later overrides these.
  const double rate = env_double("PMEMCPY_FAULT_RATE", 0.0);
  if (rate > 0.0) {
    t_read_rate_ = t_write_rate_ = t_persist_rate_ = rate;
    sticky_rate_ = env_double("PMEMCPY_FAULT_STICKY", 0.0);
    fault_seed_ = FaultPlan{}.fault_seed;
    if (const char* e = std::getenv("PMEMCPY_FAULT_SEED")) {
      fault_seed_ = std::strtoull(e, nullptr, 0);
    }
    if (const char* e = std::getenv("PMEMCPY_FAULT_RETRIES")) {
      const int n = std::atoi(e);
      if (n > 0) retry_.max_attempts = n;
    }
    transient_armed_.store(true, std::memory_order_relaxed);
  } else {
    fault_seed_ = FaultPlan{}.fault_seed;
  }
}

Device::~Device() {
  if (!checker_) return;
  const check::Report& rep = checker_->report();
  // Lint tallies only exist as report fields (the traffic counters are
  // counted live); fold them into the trace registry, the one counter
  // source, as the checker retires.
  trace::count(trace::Counter::kCleanFlushes, rep.clean_flushes);
  trace::count(trace::Counter::kDuplicateFlushes, rep.duplicate_flushes);
  trace::count(trace::Counter::kEmptyFences, rep.empty_fences);
  trace::count(trace::Counter::kCorrectnessViolations,
               rep.correctness_violations);
  if (!rep.ok()) {
    std::fprintf(stderr, "pmem::Device: unconsumed persistency violations:\n%s",
                 rep.to_string().c_str());
    if (checker_fatal_on() && std::uncaught_exceptions() == 0) {
      std::fprintf(stderr,
                   "pmem::Device: aborting (PMEMCPY_PERSIST_CHECK_FATAL)\n");
      std::abort();
    }
  }
}

void Device::enable_checker() {
  std::lock_guard lk(mu_);
  if (checker_) return;
  checker_ = std::make_unique<check::PersistChecker>();
  // The checker has seen none of the traffic so far: to it, every line
  // already in the table (pre-imaged by the crash shadow) is clean.
  for (auto& [line, ln] : lines_) ln.state = Line::kClean;
}

check::Report Device::checker_report() const {
  if (!checker_) return {};
  std::lock_guard lk(mu_);
  return checker_->report();
}

check::Report Device::take_checker_report() {
  if (!checker_) return {};
  std::lock_guard lk(mu_);
  return checker_->take_report();
}

void Device::check_tx_begin(std::string_view name) {
  if (!checker_ || frozen()) return;
  std::lock_guard lk(mu_);
  checker_->tx_begin(name);
}

void Device::check_tx_commit() {
  if (!checker_ || frozen()) return;
  std::lock_guard lk(mu_);
  checker_->tx_commit(lines_, persist_ops());
}

void Device::check_tx_abort() {
  if (!checker_ || frozen()) return;
  std::lock_guard lk(mu_);
  checker_->tx_abort();
}

void Device::check_publish(std::size_t off, std::size_t len) {
  if (!checker_ || frozen() || len == 0) return;  // nothing becomes visible
  std::lock_guard lk(mu_);
  checker_->on_publish(lines_, line_span(off, len), persist_ops());
}

void Device::check_range(std::size_t off, std::size_t len) const {
  if (off > capacity_ || len > capacity_ - off) {
    throw std::out_of_range("pmem::Device: access [" + std::to_string(off) +
                            ", +" + std::to_string(len) + ") beyond capacity " +
                            std::to_string(capacity_));
  }
}

void Device::write(std::size_t off, const void* src, std::size_t len) {
  check_range(off, len);
  if (frozen()) return;  // powered off: stores vanish
  note_write(off, len);
  std::memcpy(data_.get() + off, src, len);
  auto& c = sim::ctx();
  const auto& pm = c.model().pmem;
  c.advance(pm.write_latency + static_cast<double>(len) /
                                   c.shared_bw(pm.write_stream_bw,
                                               pm.write_total_bw),
            sim::Charge::kPmemWrite);
  trace::count(trace::Counter::kBytesWritten, len);
}

void Device::read(std::size_t off, void* dst, std::size_t len) const {
  check_range(off, len);
  check_media(off, len);
  if (transient_armed_.load(std::memory_order_relaxed)) {
    run_retries(FaultOp::kRead, off, len);
  }
  std::memcpy(dst, data_.get() + off, len);
  auto& c = sim::ctx();
  const auto& pm = c.model().pmem;
  c.advance(pm.read_latency + static_cast<double>(len) /
                                  c.shared_bw(pm.read_stream_bw,
                                              pm.read_total_bw),
            sim::Charge::kPmemRead);
  trace::count(trace::Counter::kBytesRead, len);
}

void Device::fill(std::size_t off, std::size_t len, std::byte value) {
  check_range(off, len);
  if (frozen()) return;
  note_write(off, len);
  std::memset(data_.get() + off, std::to_integer<int>(value), len);
  auto& c = sim::ctx();
  const auto& pm = c.model().pmem;
  c.advance(pm.write_latency + static_cast<double>(len) /
                                   c.shared_bw(pm.write_stream_bw,
                                               pm.write_total_bw),
            sim::Charge::kPmemWrite);
  trace::count(trace::Counter::kBytesWritten, len);
}

void Device::writeback_faults(std::size_t off, std::size_t len) {
  if (!transient_armed_.load(std::memory_order_relaxed)) return;
  try {
    check_sticky(off, len);
    run_retries(FaultOp::kPersist, off, len);
  } catch (const DeviceError&) {
    // The writeback never reached media: in-flight stores to these lines
    // are lost, exactly as on a crash.  Revert them to their last durable
    // image so the media state the caller recovers against matches what
    // the hardware would actually hold, then settle any earlier unfenced
    // flushes of the batch so the healing retry starts from a clean
    // ordering state.
    revert_unpersisted(off, len);
    settle_unwind();
    throw;
  }
}

void Device::crash_now(std::uint64_t op) {
  // Power fails *before* op takes effect: the lines it covers stay
  // unpersisted and are subject to the revert policy like any other
  // in-flight store (no fence ever ordered them to media).
  {
    std::lock_guard lk(mu_);
    apply_crash_locked();
    frozen_.store(true, std::memory_order_relaxed);
  }
  throw CrashError(op);
}

void Device::persist(std::size_t off, std::size_t len) {
  check_range(off, len);
  if (frozen()) return;  // powered off: nothing to make durable
  writeback_faults(off, len);
  const LineSpan s = line_span(off, len);
  auto& c = sim::ctx();
  const auto& pm = c.model().pmem;
  c.advance(static_cast<double>(s.last - s.first) * pm.persist_line_cost +
                pm.drain_cost,
            sim::Charge::kPmemPersist);
  const std::uint64_t op =
      persist_ops_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (op == crash_at_.load(std::memory_order_relaxed)) crash_now(op);
  if (tracking()) {
    // The implicit fence also drains any earlier unfenced flush() calls.
    std::lock_guard lk(mu_);
    flush_locked(s, op);
    fence_locked(op);
  }
  trace::count(trace::Counter::kPersistOps);
  trace::count(trace::Counter::kFlushOps);
  trace::count(trace::Counter::kLinesFlushed, s.last - s.first);
  trace::count(trace::Counter::kFenceOps);
}

void Device::flush(std::size_t off, std::size_t len) {
  check_range(off, len);
  if (frozen()) return;  // powered off: nothing writes back
  writeback_faults(off, len);
  const LineSpan s = line_span(off, len);
  auto& c = sim::ctx();
  c.advance(static_cast<double>(s.last - s.first) *
                c.model().pmem.persist_line_cost,
            sim::Charge::kPmemPersist);
  const std::uint64_t op =
      persist_ops_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (op == crash_at_.load(std::memory_order_relaxed)) crash_now(op);
  if (tracking()) {
    std::lock_guard lk(mu_);
    flush_locked(s, op);
  }
  trace::count(trace::Counter::kPersistOps);
  trace::count(trace::Counter::kFlushOps);
  trace::count(trace::Counter::kLinesFlushed, s.last - s.first);
}

void Device::drain() {
  if (frozen()) return;
  auto& c = sim::ctx();
  c.advance(c.model().pmem.drain_cost, sim::Charge::kPmemPersist);
  const std::uint64_t op =
      persist_ops_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (op == crash_at_.load(std::memory_order_relaxed)) crash_now(op);
  if (tracking()) {
    std::lock_guard lk(mu_);
    fence_locked(op);
  }
  trace::count(trace::Counter::kPersistOps);
  trace::count(trace::Counter::kFenceOps);
}

Device::Line* Device::flush_entry_locked(std::size_t line) {
  if (checker_) return &lines_[line];
  const auto it = lines_.find(line);
  return it == lines_.end() ? nullptr : &it->second;
}

void Device::flush_locked(LineSpan s, std::uint64_t op) {
  auto* t = checker_ ? &checker_->self() : nullptr;
  for (std::size_t line = s.first; line < s.last; ++line) {
    Line* ln = flush_entry_locked(line);
    if (ln == nullptr) continue;  // already durable
    if (t != nullptr) checker_->flush(*t, line, *ln, op);
    if (ln->state != Line::kFlushPending) pending_.push_back(line);
    ln->state = Line::kFlushPending;
    if (ln->img) {
      // Capture the line image the CLWB writes back: that image (not any
      // later store) is what the next fence makes durable.
      std::memcpy(ln->img->flushed.data(), data_.get() + line * kCacheLine,
                  kCacheLine);
      ln->img->has_flushed = true;
    }
  }
}

void Device::fence_locked(std::uint64_t op) {
  if (checker_) checker_->fence(checker_->self(), !pending_.empty(), op);
  for (std::size_t line : pending_) {
    const auto it = lines_.find(line);
    if (it == lines_.end()) continue;
    Line& ln = it->second;
    // The writeback is durable now, even under a store that re-dirtied the
    // line after its flush.
    ln.in_flight.clear();
    if (ln.state == Line::kFlushPending) ln.state = Line::kClean;
    if (ln.img && ln.img->has_flushed) {
      // The fence made the flush-time image durable.  If the line was
      // stored to again after the flush, a crash now reverts to that image
      // (the later store is still cache-resident); otherwise the line is
      // simply persisted and needs no pre-image at all.
      if (std::memcmp(data_.get() + line * kCacheLine,
                      ln.img->flushed.data(), kCacheLine) == 0) {
        ln.img.reset();
      } else {
        ln.img->pre = ln.img->flushed;
        ln.img->has_flushed = false;
      }
    }
    if (!checker_ && !ln.img) lines_.erase(it);
  }
  pending_.clear();
}

void Device::settle_unwind() {
  if (!tracking()) return;
  bool pending;
  {
    std::lock_guard lk(mu_);
    pending = !pending_.empty();
  }
  if (!pending) return;
  // A real sfence: earlier CLWBs in the aborted batch become durable, which
  // is exactly what hardware would eventually do anyway.  drain() performs
  // no fault injection, so this cannot recurse.
  drain();
}

void Device::revert_unpersisted(std::size_t off, std::size_t len) {
  if (!crash_shadow_) return;
  const LineSpan s = line_span(off, len);
  std::lock_guard lk(mu_);
  for (std::size_t line = s.first; line < s.last; ++line) {
    const auto it = lines_.find(line);
    if (it == lines_.end() || !it->second.img) continue;  // already durable
    Line& ln = it->second;
    std::memcpy(data_.get() + line * kCacheLine, ln.img->pre.data(),
                kCacheLine);
    ln.img.reset();
    if (checker_) {
      // The line holds its durable image again: clean, with no stores of
      // anyone's left to flush.  It stays on the pending list, so the
      // settling fence still orders the batch's earlier CLWBs.
      ln.state = Line::kClean;
      ln.writers.clear();
    } else {
      lines_.erase(it);
      std::erase(pending_, line);
    }
  }
}

void Device::note_write(std::size_t off, std::size_t len) {
  if (len == 0 || frozen()) return;
  check_range(off, len);
  // Every store path (checked writes, DAX spans, pool metadata) announces
  // itself here before mutating, so this is the one store-side fault point:
  // a throw below means the store never happened.
  if (transient_armed_.load(std::memory_order_relaxed)) {
    try {
      check_sticky(off, len);
      run_retries(FaultOp::kWrite, off, len);
    } catch (const DeviceError&) {
      // The store never happened, but earlier flushes of the aborted batch
      // may still sit unfenced — settle them before the retry stores again.
      settle_unwind();
      throw;
    }
  }
  trace::count(trace::Counter::kStoreOps);
  if (!tracking()) return;
  const LineSpan s = line_span(off, len);
  std::lock_guard lk(mu_);
  auto* t = checker_ ? &checker_->self() : nullptr;
  for (std::size_t line = s.first; line < s.last; ++line) {
    Line& ln = lines_[line];
    if (t != nullptr) checker_->store(*t, line, ln);
    ln.state = Line::kDirty;
    if (crash_shadow_ && !ln.img) {
      ln.img = std::make_unique<Line::Images>();
      std::memcpy(ln.img->pre.data(), data_.get() + line * kCacheLine,
                  kCacheLine);
    }
  }
}

std::size_t Device::claim_new_pages(std::size_t off, std::size_t len) {
  if (len == 0) return 0;
  const std::size_t first = off / kPage;
  const std::size_t last = (off + len + kPage - 1) / kPage;
  std::size_t fresh = 0;
  std::lock_guard lk(mu_);
  for (std::size_t p = first; p < last; ++p) {
    if (!touched_[p]) {
      touched_[p] = true;
      ++fresh;
    }
  }
  return fresh;
}

void Device::charge_dax_write(std::size_t off, std::size_t len,
                              bool map_sync) {
  check_range(off, len);
  if (frozen()) return;
  const std::size_t fresh = claim_new_pages(off, len);
  auto& c = sim::ctx();
  const auto& m = c.model();
  if (fresh > 0) {
    const double per_page = map_sync ? m.pmem.map_sync_page_cost
                                     : m.cpu.minor_fault_cost;
    c.advance(static_cast<double>(fresh) * per_page, sim::Charge::kPageFault);
  }
  double bw = c.shared_bw(m.pmem.write_stream_bw, m.pmem.write_total_bw);
  if (map_sync) bw *= m.pmem.map_sync_write_bw_factor;
  c.advance(m.pmem.write_latency + static_cast<double>(len) / bw,
            sim::Charge::kPmemWrite);
  trace::count(trace::Counter::kBytesWritten, len);
}

void Device::charge_dax_read(std::size_t len, bool map_sync) const {
  auto& c = sim::ctx();
  const auto& pm = c.model().pmem;
  double bw = c.shared_bw(pm.read_stream_bw, pm.read_total_bw);
  if (map_sync) bw *= pm.map_sync_read_bw_factor;
  c.advance(pm.read_latency + static_cast<double>(len) / bw,
            sim::Charge::kPmemRead);
  trace::count(trace::Counter::kBytesRead, len);
}

void Device::reset_page_touches() {
  std::lock_guard lk(mu_);
  touched_.assign(touched_.size(), false);
}

bool Device::torn_reverts(std::size_t line) const noexcept {
  // Deterministic coin flip per (seed, line): about half the in-flight
  // lines reach media before the power dies, the rest are lost.
  return (mix64(torn_seed_ ^ static_cast<std::uint64_t>(line)) & 1u) != 0;
}

void Device::apply_crash_locked() {
  // Flushed-but-unfenced lines were never ordered to media: they revert to
  // their pre-images like any other unpersisted line.
  for (const auto& [line, ln] : lines_) {
    if (!ln.img) continue;
    if (torn_writes_ && !torn_reverts(line)) continue;  // line made it out
    std::memcpy(data_.get() + line * kCacheLine, ln.img->pre.data(),
                kCacheLine);
  }
  // Caches are gone, so every line is (whatever the revert policy made it)
  // clean on media.
  lines_.clear();
  pending_.clear();
  if (checker_) checker_->crash();
  trace::on_crash();
}

void Device::simulate_crash() {
  if (!crash_shadow_) {
    throw std::logic_error(
        "pmem::Device::simulate_crash requires crash_shadow mode");
  }
  std::lock_guard lk(mu_);
  apply_crash_locked();
}

std::size_t Device::unpersisted_lines() const {
  std::lock_guard lk(mu_);
  return static_cast<std::size_t>(std::count_if(
      lines_.begin(), lines_.end(),
      [](const auto& entry) { return entry.second.img != nullptr; }));
}

void Device::set_fault_plan(const FaultPlan& plan) {
  if (plan.crash_at_persist != 0 && !crash_shadow_) {
    throw std::logic_error(
        "pmem::Device: scheduling a crash point requires crash_shadow mode");
  }
  std::lock_guard lk(mu_);
  torn_writes_ = plan.torn_writes;
  torn_seed_ = plan.torn_seed;
  crash_at_.store(plan.crash_at_persist, std::memory_order_relaxed);
  // Programmatic transient plans override the env arming (a plan with all
  // rates zero disables injection).  The coin sequence restarts so the same
  // plan replays the same fault schedule.
  t_read_rate_ = plan.transient_read_rate;
  t_write_rate_ = plan.transient_write_rate;
  t_persist_rate_ = plan.transient_persist_rate;
  sticky_rate_ = plan.sticky_rate;
  fault_seed_ = plan.fault_seed;
  fault_seq_ = 0;
  transient_armed_.store(plan.transient_armed(), std::memory_order_relaxed);
}

void Device::revive() {
  std::lock_guard lk(mu_);
  crash_at_.store(0, std::memory_order_relaxed);
  frozen_.store(false, std::memory_order_relaxed);
  torn_writes_ = false;
  // Nothing in flight survives a power cycle (a crash has already emptied
  // the table); the checker keeps its view of lines it saw.
  if (!checker_) {
    lines_.clear();
    pending_.clear();
  }
  for (auto& [line, ln] : lines_) ln.img.reset();
}

void Device::inject_read_error(std::size_t off, std::size_t len) {
  check_range(off, len);
  std::lock_guard lk(mu_);
  bad_media_.emplace_back(off, len);
  bad_media_any_.store(true, std::memory_order_release);
}

void Device::clear_read_errors() {
  std::lock_guard lk(mu_);
  bad_media_.clear();
  bad_media_any_.store(false, std::memory_order_release);
}

void Device::check_media(std::size_t off, std::size_t len) const {
  if (!bad_media_any_.load(std::memory_order_acquire)) return;
  std::lock_guard lk(mu_);
  for (const auto& [boff, blen] : bad_media_) {
    if (off < boff + blen && boff < off + len) {
      throw DeviceError(DeviceError::Kind::kMediaRead, off, len,
                        "pmem::Device: media read error in " +
                            range_str(boff, blen));
    }
  }
}

// ---------------------------------------------------------------------------
// Transient faults, sticky media and retries
// ---------------------------------------------------------------------------

void Device::set_retry_policy(const ft::RetryPolicy& policy) noexcept {
  std::lock_guard lk(mu_);
  retry_ = policy;
}

ft::RetryPolicy Device::retry_policy() const noexcept {
  std::lock_guard lk(mu_);
  return retry_;
}

void Device::inject_sticky_range(std::size_t off, std::size_t len) {
  check_range(off, len);
  const LineSpan s = line_span(off, len);
  {
    std::lock_guard lk(mu_);
    sticky_bad_.emplace_back(s.first * kCacheLine,
                             (s.last - s.first) * kCacheLine);
    sticky_any_.store(true, std::memory_order_release);
  }
  trace::count(trace::Counter::kFtStickyRanges);
  // Sticky checks only run while injection is armed; an explicit injection
  // must bite even without a transient plan.
  transient_armed_.store(true, std::memory_order_relaxed);
}

void Device::clear_sticky_ranges() {
  std::lock_guard lk(mu_);
  sticky_bad_.clear();
  sticky_any_.store(false, std::memory_order_release);
}

std::vector<std::pair<std::size_t, std::size_t>> Device::sticky_ranges()
    const {
  std::lock_guard lk(mu_);
  return sticky_bad_;
}

bool Device::media_failing(std::size_t off, std::size_t len) const {
  if (!sticky_any_.load(std::memory_order_acquire)) return false;
  std::lock_guard lk(mu_);
  for (const auto& [soff, slen] : sticky_bad_) {
    if (off < soff + slen && soff < off + len) return true;
  }
  return false;
}

void Device::check_sticky(std::size_t off, std::size_t len) const {
  std::lock_guard lk(mu_);
  if (sticky_bad_.empty()) return;
  for (const auto& [soff, slen] : sticky_bad_) {
    if (off < soff + slen && soff < off + len) {
      // Report the *bad range*, not the op range: that is what a caller
      // should quarantine before relocating.
      throw DeviceError(DeviceError::Kind::kMediaWrite, soff, slen,
                        "pmem::Device: store to sticky-bad media " +
                            range_str(soff, slen));
    }
  }
}

Device::Attempt Device::fault_attempt(
    FaultOp op, std::size_t off, std::size_t len,
    std::pair<std::size_t, std::size_t>* sticky) const {
  std::lock_guard lk(mu_);
  double rate = 0.0;
  switch (op) {
    case FaultOp::kRead: rate = t_read_rate_; break;
    case FaultOp::kWrite: rate = t_write_rate_; break;
    case FaultOp::kPersist: rate = t_persist_rate_; break;
  }
  if (rate <= 0.0) return Attempt::kOk;
  if (unit_interval(mix64(fault_seed_ ^ ++fault_seq_)) >= rate) {
    return Attempt::kOk;
  }
  if (op != FaultOp::kRead && sticky_rate_ > 0.0 &&
      unit_interval(mix64(fault_seed_ ^ ++fault_seq_)) < sticky_rate_) {
    // Escalation: the media under this op is now failing for good.  Mark
    // whole cachelines so relocation and allocator avoidance reason in the
    // same units as flushes.
    const LineSpan s = line_span(off, len);
    *sticky = sticky_bad_.emplace_back(s.first * kCacheLine,
                                       (s.last - s.first) * kCacheLine);
    sticky_any_.store(true, std::memory_order_release);
    return Attempt::kSticky;
  }
  return Attempt::kTransient;
}

void Device::run_retries(FaultOp op, std::size_t off, std::size_t len) const {
  int attempt = 1;
  double backoff_spent = 0.0;
  for (;;) {
    std::pair<std::size_t, std::size_t> sticky{0, 0};
    const Attempt a = fault_attempt(op, off, len, &sticky);
    if (a == Attempt::kOk) return;
    trace::count(trace::Counter::kFtTransientFaults);
    if (a == Attempt::kSticky) {
      trace::count(trace::Counter::kFtStickyRanges);
      throw DeviceError(DeviceError::Kind::kMediaWrite, sticky.first,
                        sticky.second,
                        "pmem::Device: media failed (sticky) at " +
                            range_str(sticky.first, sticky.second));
    }
    const double wait = retry_.backoff_for(attempt);
    if (attempt >= retry_.max_attempts ||
        (retry_.deadline > 0.0 && backoff_spent + wait > retry_.deadline)) {
      throw DeviceError(DeviceError::Kind::kTransient, off, len,
                        "pmem::Device: transient fault at " +
                            range_str(off, len) + " persisted past " +
                            std::to_string(attempt) + " attempts");
    }
    // The wait between attempts is simulated time like any other cost, so
    // retries show up in span charge breakdowns and bench numbers.
    sim::ctx().advance(wait, sim::Charge::kRetryBackoff);
    backoff_spent += wait;
    trace::count(trace::Counter::kFtRetries);
    ++attempt;
  }
}

}  // namespace pmemcpy::pmem
