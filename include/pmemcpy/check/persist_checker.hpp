// Persistency-order checker: findings and reports.
//
// pmem::Device owns one table of cacheline states (DESIGN.md §6):
//
//     clean  --store-->  dirty  --flush-->  flush-pending  --fence-->  clean
//
// When the checker is attached (Device::enable_checker), each table entry
// also carries the checker's writer, satisfied and in-flight slots and its
// last flush epoch, and the device hands every store, flush and fence to the
// checker's rules before it moves the line on.  The checker itself keeps
// only those rules, the per-thread annotation scopes and epochs fed by
// tx_begin/tx_commit/publish (called from the object store and core
// layers), and the findings below.  It is a pure observer: it never charges
// simulated time and never mutates device contents, so enabling it cannot
// change behavior — only report it.  (In the spirit of pmemcheck/Jaaru,
// applied to the emulator.)  Traffic totals (stores, flushes, lines, fences)
// live in the trace counters, the one counter source.
//
// Violation taxonomy:
//   correctness
//     kDirtyAtCommit      — a line stored inside an annotation scope is still
//                           dirty (or flushed-but-unfenced) when the scope
//                           commits: the "transaction" is not durable.
//     kUnpersistedPublish — publish(off,len) covers a line that has not been
//                           flushed+fenced: readers can see the range while a
//                           crash would still tear it.
//     kStoreAfterFlush    — a store lands on a line that was flushed but not
//                           yet fenced: the store races the writeback, so its
//                           durability is undefined (classic CLWB/SFENCE
//                           reordering window).
//   efficiency lints
//     kCleanFlush         — flush of a line with no stores since it was last
//                           made durable (in an earlier epoch): wasted CLWB.
//     kDuplicateFlush     — flush of a line already flushed in the *same*
//                           epoch with no intervening store: the second CLWB
//                           (and its fence) bought nothing.
//     kEmptyFence         — a fence with no flushed lines pending: ordering
//                           point that orders nothing.
//
// Epochs: inside a tx_begin..tx_commit scope the scope itself is the epoch
// (one per scope instance, per thread).  Outside any scope, epochs are
// fence-delimited.  Flushes of *dirty* lines are never flagged — a line that
// was re-stored legitimately needs another flush, and ordering-required
// re-flushes (e.g. consecutive undo-log entries sharing a tail line) must not
// false-positive.
//
// Multi-thread soundness: each line remembers which threads stored to it
// since its last flush.  When thread A's flush covers thread B's store, B is
// marked "satisfied" for that line and B's next flush of the (now clean)
// line is suppressed once instead of flagged — two threads persisting their
// own stores to a shared metadata line is not a redundancy bug.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pmemcpy::check {

enum class Violation : std::uint8_t {
  // correctness
  kDirtyAtCommit,
  kUnpersistedPublish,
  kStoreAfterFlush,
  // efficiency lints
  kCleanFlush,
  kDuplicateFlush,
  kEmptyFence,
};

[[nodiscard]] const char* violation_name(Violation v) noexcept;
[[nodiscard]] bool violation_is_correctness(Violation v) noexcept;

/// One detected violation, with backtrace-free provenance: the device
/// persist-op number at detection and the innermost annotation scope.
struct Finding {
  Violation kind;
  std::size_t line;        ///< cacheline index (byte offset = line * 64)
  std::uint64_t persist_op;///< device persist-op counter at detection (0 = store path)
  std::string scope;       ///< owning annotation scope, "" when outside any
  std::string detail;
};

/// Machine-readable snapshot of the checker state.
struct Report {
  std::vector<Finding> findings;  ///< capped; see dropped_findings
  std::uint64_t dropped_findings = 0;

  std::uint64_t scopes_committed = 0;
  std::uint64_t publishes = 0;

  // Violation tallies (also counted past the findings cap).
  std::uint64_t correctness_violations = 0;
  std::uint64_t efficiency_violations = 0;
  std::uint64_t clean_flushes = 0;
  std::uint64_t duplicate_flushes = 0;
  std::uint64_t empty_fences = 0;

  [[nodiscard]] bool ok() const noexcept {
    return correctness_violations == 0 && efficiency_violations == 0;
  }
  [[nodiscard]] std::uint64_t count(Violation v) const noexcept;
  /// One-object JSON rendering (machine-readable CI artifact).
  [[nodiscard]] std::string to_json() const;
  /// Human-readable multi-line summary.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace pmemcpy::check
