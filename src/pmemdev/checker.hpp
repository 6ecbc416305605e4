// The persistency-order rules (DESIGN.md §7) over pmem::Device's line table.
//
// The device owns every cacheline's state and calls these rules under its
// lock, before it moves the line to the op's new state: the checker judges,
// the device transitions.  The checker's own state is the per-thread scope
// stacks and epochs and the findings; its per-line slots live in the
// device's table entries.
#pragma once

#include <pmemcpy/check/persist_checker.hpp>
#include <pmemcpy/pmem/device.hpp>

#include <string_view>
#include <thread>
#include <unordered_map>

namespace pmemcpy::check {

class PersistChecker {
 public:
  using Line = pmem::Device::Line;
  using LineTable = pmem::Device::LineTable;

  struct Scope {
    std::string name;
    std::uint64_t epoch;
    std::vector<std::size_t> dirtied;  ///< lines stored while innermost
  };
  struct Thread {
    std::uint32_t slot = 0;
    std::vector<Scope> scopes;
    /// Lines this thread flushed since its last fence.  The empty-fence
    /// lint requires BOTH this and the device's pending list to be empty,
    /// so a concurrent thread's fence consuming our flushed lines cannot
    /// make our own (justified) fence look empty.
    std::uint64_t flushed_since_fence = 0;
  };

  /// The calling thread's state (created on first use).
  Thread& self();

  /// A store by @p t to @p ln (still in its pre-store state).
  void store(Thread& t, std::size_t line, Line& ln);
  /// A flush by @p t of @p ln (still in its pre-flush state).
  void flush(Thread& t, std::size_t line, Line& ln, std::uint64_t persist_op);
  /// A fence by @p t; @p pending says whether any line awaits it.
  void fence(Thread& t, bool pending, std::uint64_t persist_op);
  /// Power loss: open scopes die with the process image.
  void crash();

  void tx_begin(std::string_view name);
  void tx_commit(const LineTable& lines, std::uint64_t persist_op);
  void tx_abort();
  void on_publish(const LineTable& lines, pmem::LineSpan span,
                  std::uint64_t persist_op);

  [[nodiscard]] const Report& report() const noexcept { return rep_; }
  /// Snapshot and reset findings + violation tallies (scope and publish
  /// totals keep accumulating).  Used by mutation tests that plant
  /// violations on purpose.
  Report take_report();

 private:
  [[nodiscard]] std::uint64_t epoch_of(const Thread& t) const noexcept;
  void record(Violation v, std::size_t line, std::uint64_t op,
              const std::string& scope, const char* detail);

  std::unordered_map<std::thread::id, Thread> threads_;
  std::uint32_t next_slot_ = 0;
  std::uint64_t next_epoch_ = 2;  // 1 is the initial fence epoch
  std::uint64_t fence_epoch_ = 1;
  Report rep_;
};

}  // namespace pmemcpy::check
