#include "checker.hpp"

#include <algorithm>
#include <sstream>

namespace pmemcpy::check {

namespace {
constexpr std::size_t kMaxFindings = 256;

using pmem::kCacheLine;

const std::string& innermost(const PersistChecker::Thread& t) {
  static const std::string none;
  return t.scopes.empty() ? none : t.scopes.back().name;
}

bool contains(const std::vector<std::uint32_t>& slots, std::uint32_t s) {
  return std::find(slots.begin(), slots.end(), s) != slots.end();
}

void add(std::vector<std::uint32_t>& slots, std::uint32_t s) {
  if (!contains(slots, s)) slots.push_back(s);
}
}  // namespace

const char* violation_name(Violation v) noexcept {
  switch (v) {
    case Violation::kDirtyAtCommit: return "dirty-at-commit";
    case Violation::kUnpersistedPublish: return "unpersisted-publish";
    case Violation::kStoreAfterFlush: return "store-after-flush";
    case Violation::kCleanFlush: return "clean-flush";
    case Violation::kDuplicateFlush: return "duplicate-flush";
    case Violation::kEmptyFence: return "empty-fence";
  }
  return "unknown";
}

bool violation_is_correctness(Violation v) noexcept {
  switch (v) {
    case Violation::kDirtyAtCommit:
    case Violation::kUnpersistedPublish:
    case Violation::kStoreAfterFlush:
      return true;
    default:
      return false;
  }
}

std::uint64_t Report::count(Violation v) const noexcept {
  std::uint64_t n = 0;
  for (const auto& f : findings) {
    if (f.kind == v) ++n;
  }
  return n;
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"ok\":" << (ok() ? "true" : "false")
     << ",\"scopes_committed\":" << scopes_committed
     << ",\"publishes\":" << publishes
     << ",\"correctness_violations\":" << correctness_violations
     << ",\"efficiency_violations\":" << efficiency_violations
     << ",\"clean_flushes\":" << clean_flushes
     << ",\"duplicate_flushes\":" << duplicate_flushes
     << ",\"empty_fences\":" << empty_fences
     << ",\"dropped_findings\":" << dropped_findings << ",\"findings\":[";
  bool first = true;
  for (const auto& f : findings) {
    if (!first) os << ',';
    first = false;
    os << "{\"kind\":\"" << violation_name(f.kind) << "\",\"line\":" << f.line
       << ",\"offset\":" << f.line * kCacheLine
       << ",\"persist_op\":" << f.persist_op << ",\"scope\":\"" << f.scope
       << "\",\"detail\":\"" << f.detail << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string Report::to_string() const {
  std::ostringstream os;
  os << "persist-check: " << (ok() ? "OK" : "VIOLATIONS") << " — "
     << correctness_violations << " correctness, " << efficiency_violations
     << " efficiency\n";
  for (const auto& f : findings) {
    os << "  [" << (violation_is_correctness(f.kind) ? "BUG " : "LINT")
       << "] " << violation_name(f.kind) << " line=" << f.line << " (off="
       << f.line * kCacheLine << ") persist_op=" << f.persist_op;
    if (!f.scope.empty()) os << " scope=" << f.scope;
    if (!f.detail.empty()) os << " — " << f.detail;
    os << '\n';
  }
  if (dropped_findings > 0) {
    os << "  ... " << dropped_findings << " further findings dropped\n";
  }
  return os.str();
}

PersistChecker::Thread& PersistChecker::self() {
  auto [it, inserted] = threads_.try_emplace(std::this_thread::get_id());
  if (inserted) it->second.slot = next_slot_++;
  return it->second;
}

std::uint64_t PersistChecker::epoch_of(const Thread& t) const noexcept {
  return t.scopes.empty() ? fence_epoch_ : t.scopes.back().epoch;
}

void PersistChecker::record(Violation v, std::size_t line, std::uint64_t op,
                            const std::string& scope, const char* detail) {
  if (violation_is_correctness(v)) {
    ++rep_.correctness_violations;
  } else {
    ++rep_.efficiency_violations;
    switch (v) {
      case Violation::kCleanFlush: ++rep_.clean_flushes; break;
      case Violation::kDuplicateFlush: ++rep_.duplicate_flushes; break;
      case Violation::kEmptyFence: ++rep_.empty_fences; break;
      default: break;
    }
  }
  if (rep_.findings.size() >= kMaxFindings) {
    ++rep_.dropped_findings;
    return;
  }
  rep_.findings.push_back(Finding{v, line, op, scope, detail});
}

void PersistChecker::store(Thread& t, std::size_t line, Line& ln) {
  if (ln.state == Line::kFlushPending && !ln.store_after_flush_reported) {
    ln.store_after_flush_reported = true;
    record(Violation::kStoreAfterFlush, line, 0, innermost(t),
           "store to a flushed-but-unfenced line (durability of the store is "
           "undefined until the next flush)");
  }
  // This store needs a flush of its own, so a past cross-thread write-back
  // no longer covers the storer.  Other threads' earlier stores were
  // written back and stay covered: their upcoming flush is not redundant
  // by anything they could have known.
  const auto sat = std::find(ln.satisfied.begin(), ln.satisfied.end(), t.slot);
  if (sat != ln.satisfied.end()) ln.satisfied.erase(sat);
  add(ln.writers, t.slot);
  if (!t.scopes.empty()) t.scopes.back().dirtied.push_back(line);
}

void PersistChecker::flush(Thread& t, std::size_t line, Line& ln,
                           std::uint64_t persist_op) {
  ++t.flushed_since_fence;
  const std::uint64_t ep = epoch_of(t);
  if (ln.state == Line::kDirty) {
    // Legitimate flush of new stores.  Other threads whose stores ride
    // along are "satisfied": their own upcoming flush of this (then clean)
    // line is not a redundancy bug.
    for (std::uint32_t w : ln.writers) {
      add(ln.in_flight, w);
      if (w != t.slot) add(ln.satisfied, w);
    }
    ln.writers.clear();
  } else {
    // Clean or flush-pending: this CLWB writes back nothing new.
    auto sat = std::find(ln.satisfied.begin(), ln.satisfied.end(), t.slot);
    if (sat != ln.satisfied.end()) {
      ln.satisfied.erase(sat);  // cross-thread coverage: suppress once
    } else if (ln.last_flush_epoch == ep) {
      record(Violation::kDuplicateFlush, line, persist_op, innermost(t),
             "line already flushed in this epoch with no store in between");
    } else {
      record(Violation::kCleanFlush, line, persist_op, innermost(t),
             "flush of a line with no unflushed stores");
    }
  }
  ln.store_after_flush_reported = false;
  ln.last_flush_epoch = ep;
}

void PersistChecker::fence(Thread& t, bool pending, std::uint64_t persist_op) {
  // Lint only when this thread also flushed nothing since its own last
  // fence: a concurrent fence may have consumed our pending lines, but our
  // fence was still justified when issued.
  if (!pending && t.flushed_since_fence == 0) {
    record(Violation::kEmptyFence, 0, persist_op, innermost(t),
           "fence with no flushed lines pending: orders nothing");
  }
  t.flushed_since_fence = 0;
  fence_epoch_ = next_epoch_++;
}

void PersistChecker::crash() {
  for (auto& [tid, t] : threads_) {
    t.scopes.clear();
    t.flushed_since_fence = 0;
  }
  fence_epoch_ = next_epoch_++;
}

void PersistChecker::tx_begin(std::string_view name) {
  self().scopes.push_back(Scope{std::string(name), next_epoch_++, {}});
}

void PersistChecker::tx_commit(const LineTable& lines,
                               std::uint64_t persist_op) {
  Thread& t = self();
  if (t.scopes.empty()) return;  // unbalanced annotation; ignore
  Scope scope = std::move(t.scopes.back());
  t.scopes.pop_back();
  ++rep_.scopes_committed;
  std::sort(scope.dirtied.begin(), scope.dirtied.end());
  scope.dirtied.erase(std::unique(scope.dirtied.begin(), scope.dirtied.end()),
                      scope.dirtied.end());
  for (std::size_t line : scope.dirtied) {
    auto it = lines.find(line);
    if (it == lines.end()) continue;
    const Line& ln = it->second;
    if (ln.state == Line::kDirty) {
      // Only flag the committer's own stores: another thread may have
      // legitimately re-dirtied a shared metadata line since we persisted it.
      if (contains(ln.writers, t.slot)) {
        record(Violation::kDirtyAtCommit, line, persist_op, scope.name,
               "line stored in this scope is still dirty at commit");
      }
    } else if (ln.state == Line::kFlushPending &&
               contains(ln.in_flight, t.slot)) {
      // Likewise only when the unfenced writeback carries the committer's
      // stores, not just another thread's flush of a line it fenced earlier.
      record(Violation::kDirtyAtCommit, line, persist_op, scope.name,
             "line flushed but not fenced at commit");
    }
  }
  // Lines this scope dirtied bubble up to the enclosing scope (an outer
  // commit must still find them persisted).
  if (!t.scopes.empty()) {
    auto& outer = t.scopes.back().dirtied;
    outer.insert(outer.end(), scope.dirtied.begin(), scope.dirtied.end());
  }
}

void PersistChecker::tx_abort() {
  Thread& t = self();
  if (!t.scopes.empty()) t.scopes.pop_back();
}

void PersistChecker::on_publish(const LineTable& lines, pmem::LineSpan span,
                                std::uint64_t persist_op) {
  ++rep_.publishes;
  const Thread& t = self();
  for (std::size_t line = span.first; line < span.last; ++line) {
    auto it = lines.find(line);
    if (it == lines.end()) continue;  // never stored: trivially durable
    const Line& ln = it->second;
    if (ln.state == Line::kFlushPending) {
      record(Violation::kUnpersistedPublish, line, persist_op, innermost(t),
             "published line flushed but not fenced");
    } else if (ln.state == Line::kDirty && contains(ln.writers, t.slot)) {
      record(Violation::kUnpersistedPublish, line, persist_op, innermost(t),
             "published line has unflushed stores");
    }
  }
}

Report PersistChecker::take_report() {
  Report out = std::move(rep_);
  rep_ = Report{};
  // Scope and publish totals keep accumulating across take_report().
  rep_.scopes_committed = out.scopes_committed;
  rep_.publishes = out.publishes;
  return out;
}

}  // namespace pmemcpy::check
