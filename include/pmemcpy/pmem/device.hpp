// Emulated persistent-memory device.
//
// The device is a DRAM-backed byte store (the paper's evaluation also
// emulated PMEM from DRAM).  Every access path charges the simulated clock
// of the calling rank:
//
//   * read()/write()  — explicit, bounds-checked, charged transfers; used by
//     the POSIX path of the filesystem and by the object store.
//   * raw() + charge_dax_*() — the DAX path: callers get a pointer straight
//     into device memory (zero copy) and charge bandwidth/fault costs
//     explicitly, including the MAP_SYNC first-touch penalty.
//
// Two optional trackers share one per-cacheline table that the device owns
// (DESIGN.md §6): each entry holds the line's state (clean, dirty,
// flush-pending).  With crash_shadow on, an entry also holds the line's
// pre-image and flush-time image, so simulate_crash() can drop the stores
// still in CPU caches.  With the persistency-order checker attached
// (enable_checker(), DESIGN.md §7), an entry also holds the checker's
// per-line slots, and every store/flush/fence is judged against the
// checker's rules before the line moves on.  With neither on, the byte
// path takes no lock and does no lookup.
//
// On top of that sits a Jaaru-style fault plan for systematic crash-point
// exploration: every persist()/drain() bumps a monotonic persist-op counter,
// and a plan can schedule a crash at the Nth such op.  When the crash fires
// the device reverts unpersisted cachelines (all of them, or — in torn-write
// mode — a deterministic pseudo-random subset, emulating lines that happened
// to be evicted to media before power was lost), freezes itself like a
// powered-off DIMM (subsequent stores and persists are ignored, so stack
// unwinding through destructors cannot retroactively mutate the post-crash
// image), and throws CrashError for the harness to catch.  Injected media
// read errors surface as a typed DeviceError from every checked read path.
#pragma once

#include <pmemcpy/ft/ft.hpp>
#include <pmemcpy/sim/context.hpp>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pmemcpy::check {
class PersistChecker;
struct Report;
}  // namespace pmemcpy::check

namespace pmemcpy::pmem {

inline constexpr std::size_t kCacheLine = 64;

/// The cachelines [first, last) that an access of [off, off+len) covers.  A
/// zero-length range at an unaligned offset still covers the line holding
/// @p off: a flush charges, counts and tracks exactly these lines.
struct LineSpan {
  std::size_t first;
  std::size_t last;
};
[[nodiscard]] inline LineSpan line_span(std::size_t off,
                                        std::size_t len) noexcept {
  return {off / kCacheLine, (off + len + kCacheLine - 1) / kCacheLine};
}

/// Typed device-level failure (media errors).  Callers can degrade
/// gracefully — report the bad range — instead of consuming garbage.
struct DeviceError : std::runtime_error {
  enum class Kind {
    kMediaRead,   ///< uncorrectable: reads of the range are lost for good
    kTransient,   ///< a transient fault persisted past the retry budget
    kMediaWrite,  ///< sticky-bad media: stores/persists keep failing, reads
                  ///< still succeed (the range is relocatable)
  };

  DeviceError(Kind k, std::size_t off_, std::size_t len_,
              const std::string& what)
      : std::runtime_error(what), kind(k), off(off_), len(len_) {}

  Kind kind;
  std::size_t off;
  std::size_t len;
};

/// Thrown when a scheduled fault-plan crash point fires.  By the time the
/// harness catches it the device has already reverted unpersisted lines and
/// frozen itself; call revive() before re-mounting.
struct CrashError : std::runtime_error {
  explicit CrashError(std::uint64_t op)
      : std::runtime_error("pmem::Device: scheduled crash at persist op " +
                           std::to_string(op)),
        persist_op(op) {}

  std::uint64_t persist_op;
};

/// Schedule of injected faults for one run.
struct FaultPlan {
  /// Crash when the persist-op counter reaches this 1-based value (the op
  /// itself never completes).  0 disables crash scheduling.
  std::uint64_t crash_at_persist = 0;
  /// Torn-write mode: on crash, revert only a deterministic pseudo-random
  /// subset of the unpersisted cachelines instead of all of them.
  bool torn_writes = false;
  /// Seed selecting the torn subset (same seed → same subset).
  std::uint64_t torn_seed = 0x9E3779B97F4A7C15ull;

  // --- transient faults (self-healing data path, DESIGN.md §10) ------------
  // Each checked access flips one seed-deterministic coin per attempt: a
  // faulted attempt throws (or is retried under the device retry policy);
  // the retry is a fresh attempt with a fresh coin, so transient faults
  // succeed on retry with probability 1 - rate.  The same knobs are armed
  // from the PMEMCPY_FAULT_RATE/_SEED/_STICKY env at construction.

  /// Per-attempt fault probability for checked reads.
  double transient_read_rate = 0.0;
  /// Per-attempt fault probability for stores (note_write boundary).
  double transient_write_rate = 0.0;
  /// Per-attempt fault probability for flush/persist ops.
  double transient_persist_rate = 0.0;
  /// Probability that a faulted store/persist escalates: the op's cacheline
  /// range becomes sticky-bad media (writes keep failing, reads survive).
  double sticky_rate = 0.0;
  /// Seed for the per-attempt fault coins (same seed → same fault schedule
  /// for a deterministic workload).
  std::uint64_t fault_seed = 0x5EEDF00DD00Full;

  [[nodiscard]] bool transient_armed() const noexcept {
    return transient_read_rate > 0.0 || transient_write_rate > 0.0 ||
           transient_persist_rate > 0.0;
  }
};

class Device {
 public:
  /// @param capacity      device size in bytes (rounded up to a page)
  /// @param crash_shadow  keep pre-images of unpersisted cachelines so that
  ///                      simulate_crash() can drop in-flight stores.  Costs
  ///                      DRAM, a lock and a table lookup per store, flush
  ///                      and fence; enable in tests only.
  explicit Device(std::size_t capacity, bool crash_shadow = false);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool crash_shadow_enabled() const noexcept {
    return crash_shadow_;
  }

  // --- charged, bounds-checked transfer path -------------------------------

  /// Store @p len bytes at @p off; charges write latency + bandwidth.
  void write(std::size_t off, const void* src, std::size_t len);
  /// Load @p len bytes from @p off; charges read latency + bandwidth.
  /// Throws DeviceError if the range intersects an injected media error.
  void read(std::size_t off, void* dst, std::size_t len) const;
  /// Set @p len bytes at @p off to @p value; charged like a write.
  void fill(std::size_t off, std::size_t len, std::byte value);

  /// Flush the cachelines covering [off, off+len) and drain: after this the
  /// range survives simulate_crash().  Charges per-line flush + fence cost.
  /// Counts one persist op; throws CrashError when the fault plan fires.
  void persist(std::size_t off, std::size_t len);
  /// Flush only (CLWB, no fence): the cachelines covering [off, off+len)
  /// start writing back but are durable only after the next drain().  Batch
  /// several flush() calls under one drain() to pay a single fence.  Charges
  /// per-line flush cost; counts one persist op (a crash point).
  void flush(std::size_t off, std::size_t len);
  /// Fence only (SFENCE); charges drain cost.  Counts one persist op.
  void drain();

  // --- DAX path -------------------------------------------------------------

  /// Pointer into device memory.  Mutations through this pointer are
  /// invisible to crash tracking unless note_write() is called; production
  /// code uses the typed helpers in pmemobj which do so.
  [[nodiscard]] std::byte* raw(std::size_t off = 0) noexcept {
    return data_.get() + off;
  }
  [[nodiscard]] const std::byte* raw(std::size_t off = 0) const noexcept {
    return data_.get() + off;
  }

  /// Charge a zero-copy store of @p len bytes at @p off performed through a
  /// DAX mapping.  Newly touched pages cost a fault (a synchronous
  /// block-allocation fault when @p map_sync, a minor fault otherwise) and
  /// MAP_SYNC derates write bandwidth.
  void charge_dax_write(std::size_t off, std::size_t len, bool map_sync);
  /// Charge a zero-copy load of @p len bytes through a DAX mapping.  With
  /// @p map_sync the mapping's synchronous-fault semantics derate read
  /// bandwidth as well.
  void charge_dax_read(std::size_t len, bool map_sync = false) const;

  /// Record [off, off+len) as dirty for crash tracking (pre-imaging the
  /// affected cachelines in shadow mode).  Call *before* mutating via raw().
  void note_write(std::size_t off, std::size_t len);

  /// Forget page-touch state (a fresh mmap of the device file).
  void reset_page_touches();

  // --- crash simulation ------------------------------------------------------

  /// Revert cachelines written since they were last persisted (requires
  /// crash_shadow).  Emulates power loss with stores still in CPU caches.
  /// Honors the fault plan's torn-write mode: with it, only a deterministic
  /// pseudo-random subset of the unpersisted lines is reverted.
  void simulate_crash();
  /// Number of cachelines holding stores a crash would revert.
  [[nodiscard]] std::size_t unpersisted_lines() const;

  // --- fault plan -------------------------------------------------------------

  /// Arm a fault plan for the current run (requires crash_shadow when a
  /// crash point is scheduled).
  void set_fault_plan(const FaultPlan& plan);
  /// Monotonic count of persist()/drain() ops since construction.
  [[nodiscard]] std::uint64_t persist_ops() const noexcept {
    return persist_ops_.load(std::memory_order_relaxed);
  }
  /// True after a scheduled crash fired: the device ignores stores and
  /// persists like powered-off hardware until revive() is called.
  [[nodiscard]] bool frozen() const noexcept {
    return frozen_.load(std::memory_order_relaxed);
  }
  /// Clear the frozen state and the fault plan ("power the device back on"
  /// before re-mounting and recovering).
  void revive();

  /// Mark [off, off+len) as failing media: checked reads of any overlapping
  /// range throw DeviceError{kMediaRead}.
  void inject_read_error(std::size_t off, std::size_t len);
  void clear_read_errors();
  /// Throw DeviceError if [off, off+len) intersects an injected bad range.
  /// DAX-path consumers (which bypass read()) call this before trusting a
  /// raw() view.
  void check_media(std::size_t off, std::size_t len) const;

  // --- transient faults, sticky media and retries -----------------------------

  /// Retry/backoff schedule for transient faults (also armed from the
  /// PMEMCPY_FAULT_RETRIES env).  Backoff is charged to the simulated clock.
  void set_retry_policy(const ft::RetryPolicy& policy) noexcept;
  [[nodiscard]] ft::RetryPolicy retry_policy() const noexcept;

  /// Mark the cachelines covering [off, off+len) as sticky-bad media:
  /// stores and persists touching them throw DeviceError{kMediaWrite};
  /// reads still succeed (the data is recoverable, so callers can
  /// quarantine + relocate).  Survives revive(), like real media damage.
  void inject_sticky_range(std::size_t off, std::size_t len);
  void clear_sticky_ranges();
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  sticky_ranges() const;
  /// True when [off, off+len) intersects a sticky-bad range (no throw).
  [[nodiscard]] bool media_failing(std::size_t off, std::size_t len) const;

  // --- persistency-order checker ---------------------------------------------

  /// Attach the persistency-order checker (idempotent).  Also attached at
  /// construction when the PMEMCPY_PERSIST_CHECK env var (or the CMake
  /// default) says so.  A pure observer: charges nothing and never mutates
  /// device contents.  Its view starts at attach: lines stored before it
  /// look clean to it.
  void enable_checker();
  [[nodiscard]] bool checker_enabled() const noexcept {
    return checker_ != nullptr;
  }
  /// Machine-readable snapshot of the checker state (empty Report when no
  /// checker is attached).
  [[nodiscard]] check::Report checker_report() const;
  /// Snapshot and reset the findings and violation tallies.  Mutation tests
  /// use it to consume planted violations.
  check::Report take_checker_report();

  // Annotation hooks (no-ops when the checker is absent or the device is
  // frozen).  Library code brackets its logically-atomic operations with
  // these so the checker can attribute stores to scopes and verify
  // durability at commit/publish points.
  void check_tx_begin(std::string_view name);
  void check_tx_commit();
  void check_tx_abort();
  /// Declare [off, off+len) reachable/visible to readers: every line in it
  /// must have been flushed *and* fenced by now.
  void check_publish(std::size_t off, std::size_t len);

 private:
  friend class check::PersistChecker;

  /// One tracked cacheline (DESIGN.md §6).  Without the checker the table
  /// holds exactly the lines with a pre-image; with it, every line the
  /// checker has seen since the last crash.
  struct Line {
    enum State : std::uint8_t { kClean = 0, kDirty, kFlushPending };
    struct Images {
      std::array<std::byte, kCacheLine> pre;      ///< what a crash restores
      std::array<std::byte, kCacheLine> flushed;  ///< what the fence persists
      bool has_flushed = false;
    };
    State state = kClean;
    /// Crash shadow only; set while the line holds stores a crash reverts.
    std::unique_ptr<Images> img;
    // Checker slots (DESIGN.md §7).
    bool store_after_flush_reported = false;
    std::uint64_t last_flush_epoch = 0;
    std::vector<std::uint32_t> writers;    ///< stored since the last flush
    std::vector<std::uint32_t> satisfied;  ///< covered by another's flush
    std::vector<std::uint32_t> in_flight;  ///< ride in the unfenced CLWB
  };
  using LineTable = std::unordered_map<std::size_t, Line>;

  /// Either tracker is on: stores, flushes and fences update the table.
  [[nodiscard]] bool tracking() const noexcept {
    return crash_shadow_ || checker_ != nullptr;
  }
  void check_range(std::size_t off, std::size_t len) const;
  /// Pages of [off,len) not yet touched since the last reset; marks them.
  std::size_t claim_new_pages(std::size_t off, std::size_t len);
  /// The table entry a flush of @p line updates: created when the checker
  /// watches every line, nullptr for a line with nothing to revert.
  Line* flush_entry_locked(std::size_t line);
  /// A flush of @p s: lines become flush-pending and capture their
  /// flush-time images.
  void flush_locked(LineSpan s, std::uint64_t op);
  /// A fence: flush-pending lines become clean and their flush-time images
  /// durable.
  void fence_locked(std::uint64_t op);
  /// The scheduled crash point @p op fired: revert, freeze, throw.
  [[noreturn]] void crash_now(std::uint64_t op);
  /// Revert unpersisted lines per the torn-write policy; empties the table.
  void apply_crash_locked();
  /// Fault point of a flush/persist of [off, off+len): on a fault the
  /// writeback never reached media, so the lines are reverted and any
  /// earlier unfenced flushes settled before the DeviceError propagates.
  void writeback_faults(std::size_t off, std::size_t len);
  /// A flush/persist of [off, off+len) failed for good: in-flight stores to
  /// those lines are lost exactly as on a crash.  Restore their pre-images
  /// and mark them clean (no-op without crash_shadow).
  void revert_unpersisted(std::size_t off, std::size_t len);
  /// A faulted op is unwinding mid-batch.  If earlier flushes in the batch
  /// left lines flushed-but-unfenced, issue one settling fence so the
  /// caller's healing retry does not store onto an open CLWB window (a
  /// store-after-flush hazard the retry could not otherwise avoid).  No-op
  /// when nothing is pending, so it never lints as an empty fence.
  void settle_unwind();
  /// Deterministically decide whether a torn crash reverts @p line.
  [[nodiscard]] bool torn_reverts(std::size_t line) const noexcept;

  // Transient-fault plumbing (all const: the fault state is mutable so the
  // checked-read path can fault too).
  enum class FaultOp { kRead, kWrite, kPersist };
  enum class Attempt { kOk, kTransient, kSticky };
  /// One seed-deterministic coin flip for an attempt of @p op; may escalate
  /// a faulted store/persist to a sticky-bad range (out param).
  Attempt fault_attempt(FaultOp op, std::size_t off, std::size_t len,
                        std::pair<std::size_t, std::size_t>* sticky) const;
  /// Throw DeviceError{kMediaWrite} when the range hits sticky-bad media.
  void check_sticky(std::size_t off, std::size_t len) const;
  /// Run the per-attempt fault coin under the retry policy, charging each
  /// backoff to the sim clock; throws kTransient when the budget runs out
  /// and kMediaWrite when an attempt escalates to a sticky range.
  void run_retries(FaultOp op, std::size_t off, std::size_t len) const;

  std::size_t capacity_;
  std::unique_ptr<std::byte[]> data_;
  bool crash_shadow_;

  // Fault-plan state.  The counter and trigger are atomics so the hot
  // persist path stays lock-free when no shadow/plan is active.
  std::atomic<std::uint64_t> persist_ops_{0};
  std::atomic<std::uint64_t> crash_at_{0};
  std::atomic<bool> frozen_{false};
  bool torn_writes_ = false;
  std::uint64_t torn_seed_ = 0;

  // Transient-fault state.  The armed flag is the disabled fast path: one
  // relaxed load per access, no rate math, no lock — the ft layer is free
  // when off.
  std::atomic<bool> transient_armed_{false};
  double t_read_rate_ = 0.0;
  double t_write_rate_ = 0.0;
  double t_persist_rate_ = 0.0;
  double sticky_rate_ = 0.0;
  std::uint64_t fault_seed_ = 0;
  mutable std::uint64_t fault_seq_ = 0;  // per-attempt coin index, under mu_
  ft::RetryPolicy retry_;
  /// Sticky-bad ranges (off, len).  Mutable: a faulted attempt on the const
  /// read path can escalate a range just like a store can.
  mutable std::vector<std::pair<std::size_t, std::size_t>> sticky_bad_;
  /// sticky_bad_ / bad_media_ non-empty, written under mu_: media_failing()
  /// and check_media() skip the lock when nothing is injected.
  mutable std::atomic<bool> sticky_any_{false};
  std::atomic<bool> bad_media_any_{false};

  // Guards the line table and the checker, touched_, bad/sticky media and
  // the fault coins (byte traffic is counted lock-free in trace::Counter).
  mutable std::mutex mu_;
  LineTable lines_;
  /// Lines flushed since the last fence: the fence's work list.
  std::vector<std::size_t> pending_;
  std::unique_ptr<check::PersistChecker> checker_;
  std::vector<std::pair<std::size_t, std::size_t>> bad_media_;  // off, len
  std::vector<bool> touched_;  // one bit per 4 KiB page
};

}  // namespace pmemcpy::pmem
