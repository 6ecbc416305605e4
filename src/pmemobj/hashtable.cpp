#include <pmemcpy/obj/hashtable.hpp>

#include <pmemcpy/trace/trace.hpp>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace pmemcpy::obj {

namespace {

struct TableHeader {
  std::uint64_t nbuckets;
  std::uint64_t buckets_off;
  std::uint64_t count;
};

// Persistent node layout (key bytes appended).
constexpr std::uint64_t kNodeNext = 0;
constexpr std::uint64_t kNodeValOff = 8;
constexpr std::uint64_t kNodeValSize = 16;
constexpr std::uint64_t kNodeMeta = 24;
constexpr std::uint64_t kNodeKeyLen = 32;
constexpr std::uint64_t kNodeKey = 40;

/// Staging image of the fixed node header (kNodeNext..kNodeKeyLen): written
/// with one store and persisted together with the key by publish(), instead
/// of one flush+fence per field (the persist checker flagged the old
/// per-field set() chain as a duplicate flush at publish time).
struct NodeHeaderImage {
  std::uint64_t next;
  std::uint64_t val_off;
  std::uint64_t val_size;
  std::uint64_t meta;
  std::uint32_t key_len;
  std::uint32_t pad;
};
static_assert(sizeof(NodeHeaderImage) == kNodeKey);

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Zero a pool range in bounded chunks.
void zero_range(Pool& pool, std::uint64_t off, std::size_t len) {
  static constexpr std::size_t kChunk = 64 * 1024;
  std::vector<std::byte> zeros(std::min(len, kChunk), std::byte{0});
  std::size_t done = 0;
  while (done < len) {
    const std::size_t n = std::min(len - done, kChunk);
    pool.write(off + done, zeros.data(), n);
    done += n;
  }
  pool.persist(off, len);
}

}  // namespace

HashTable::HashTable(Pool& pool, std::uint64_t hoff)
    : pool_(&pool), hoff_(hoff) {}

HashTable HashTable::create(Pool& pool, std::size_t nbuckets) {
  if (nbuckets == 0) nbuckets = 1;
  const std::uint64_t buckets = pool.alloc(nbuckets * 8);
  zero_range(pool, buckets, nbuckets * 8);
  const std::uint64_t hoff = pool.alloc(sizeof(TableHeader));
  TableHeader hdr{nbuckets, buckets, 0};
  pool.set(hoff, hdr);
  return HashTable(pool, hoff);
}

HashTable HashTable::open(Pool& pool, std::uint64_t header_off) {
  const auto hdr = pool.get<TableHeader>(header_off);
  if (hdr.nbuckets == 0 || hdr.buckets_off == 0) {
    throw PoolError("HashTable::open: invalid header");
  }
  return HashTable(pool, header_off);
}

std::uint64_t HashTable::bucket_slot(std::string_view key) const {
  const auto hdr = pool_->get<TableHeader>(hoff_);
  const std::uint64_t b = fnv1a(key) % hdr.nbuckets;
  return hdr.buckets_off + b * 8;
}

std::string HashTable::read_key(std::uint64_t node_off) const {
  const auto len = pool_->get<std::uint32_t>(node_off + kNodeKeyLen);
  std::string key(len, '\0');
  pool_->read(node_off + kNodeKey, key.data(), len);
  return key;
}

std::optional<ValueRef> HashTable::find(std::string_view key) const {
  std::lock_guard lk((*stripes_)[fnv1a(key) % kStripes]);
  std::uint64_t node = pool_->get<std::uint64_t>(bucket_slot(key));
  while (node != 0) {
    if (read_key(node) == key) {
      ValueRef ref;
      ref.node_off = node;
      ref.val_off = pool_->get<std::uint64_t>(node + kNodeValOff);
      ref.val_size = pool_->get<std::uint64_t>(node + kNodeValSize);
      ref.meta = pool_->get<std::uint64_t>(node + kNodeMeta);
      return ref;
    }
    node = pool_->get<std::uint64_t>(node + kNodeNext);
  }
  return std::nullopt;
}

HashTable::Inserter HashTable::reserve(std::string_view key,
                                       std::size_t val_size,
                                       std::uint64_t meta) {
  pool_->device().check_tx_begin("ht.put");
  const std::uint64_t val = val_size > 0 ? pool_->alloc(val_size) : 0;
  const std::uint64_t node = pool_->alloc(kNodeKey + key.size());
  // Stage header + key with plain stores; publish() makes the whole node
  // durable with one flush pass and a single fence.
  const NodeHeaderImage nh{0, val, val_size, meta,
                           static_cast<std::uint32_t>(key.size()), 0};
  pool_->write(node, &nh, sizeof(nh));
  if (!key.empty()) {
    pool_->write(node + kNodeKey, key.data(), key.size());
  }
  return Inserter(*this, key, node, val, val_size);
}

void HashTable::put(std::string_view key, const void* data, std::size_t len,
                    std::uint64_t meta) {
  auto ins = reserve(key, len, meta);
  if (len > 0) {
    auto span = ins.value();
    std::memcpy(span.data(), data, len);
  }
  (void)ins.publish();  // replace mode: always links
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> HashTable::find_chain(
    std::uint64_t slot, std::string_view key) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> matches;
  std::uint64_t prev = 0;
  std::uint64_t node = pool_->get<std::uint64_t>(slot);
  while (node != 0) {
    const std::uint64_t next = pool_->get<std::uint64_t>(node + kNodeNext);
    if (read_key(node) == key) matches.emplace_back(prev, node);
    prev = node;
    node = next;
  }
  return matches;
}

void HashTable::unlink_free(std::uint64_t slot, std::uint64_t prev,
                            std::uint64_t node) {
  const std::uint64_t next = pool_->get<std::uint64_t>(node + kNodeNext);
  if (prev == 0) {
    pool_->set<std::uint64_t>(slot, next);
  } else {
    pool_->set<std::uint64_t>(prev + kNodeNext, next);
  }
  const auto val = pool_->get<std::uint64_t>(node + kNodeValOff);
  pool_->free(node);
  if (val != 0) pool_->free(val);
}

bool HashTable::link_replace(std::string_view key, std::uint64_t node_off,
                             bool keep_existing, bool* linked_out) {
  std::lock_guard lk((*stripes_)[fnv1a(key) % kStripes]);
  const std::uint64_t slot = bucket_slot(key);
  auto matches = find_chain(slot, key);

  if (!matches.empty() && keep_existing) {
    // First writer won: discard this reservation.
    const auto val = pool_->get<std::uint64_t>(node_off + kNodeValOff);
    pool_->free(node_off);
    if (val != 0) pool_->free(val);
    return false;
  }

  // Crash leftovers first: an overwrite interrupted between its head
  // publish and its unlink leaves a stale duplicate shadowed behind the
  // live (first) match.  Readers never see those, so sweeping them
  // deepest-first is invisible at every intermediate crash point.
  while (matches.size() > 1) {
    unlink_free(slot, matches.back().first, matches.back().second);
    matches.pop_back();
  }

  const std::uint64_t head = pool_->get<std::uint64_t>(slot);
  if (matches.empty()) {
    // Fresh key: the head store is the atomic publish.
    pool_->set<std::uint64_t>(node_off + kNodeNext, head);
    pool_->set<std::uint64_t>(slot, node_off);
    if (linked_out != nullptr) *linked_out = true;
    bump_count(+1);
    return true;
  }

  const auto [prev, old] = matches.front();
  if (prev == 0) {
    // The superseded entry IS the head: point the new node past it first,
    // so the single head store atomically swaps old for new.  No crash
    // point can see both versions chained.
    pool_->set<std::uint64_t>(node_off + kNodeNext,
                              pool_->get<std::uint64_t>(old + kNodeNext));
    pool_->set<std::uint64_t>(slot, node_off);
    if (linked_out != nullptr) *linked_out = true;
  } else {
    // Mid-chain: publish the new head first (the stale entry is shadowed
    // behind it for every reader), then unlink it.  A crash in between
    // leaves exactly the shadowed duplicate the sweeps collect.
    pool_->set<std::uint64_t>(node_off + kNodeNext, head);
    pool_->set<std::uint64_t>(slot, node_off);
    if (linked_out != nullptr) *linked_out = true;
    pool_->set<std::uint64_t>(prev + kNodeNext,
                              pool_->get<std::uint64_t>(old + kNodeNext));
  }
  const auto old_val = pool_->get<std::uint64_t>(old + kNodeValOff);
  pool_->free(old);
  if (old_val != 0) pool_->free(old_val);
  return true;
}

bool HashTable::erase(std::string_view key) {
  std::lock_guard lk((*stripes_)[fnv1a(key) % kStripes]);
  const std::uint64_t slot = bucket_slot(key);
  auto matches = find_chain(slot, key);
  if (matches.empty()) return false;
  // Deepest-first: shadowed crash-leftover duplicates go before the live
  // head entry, so every intermediate crash point still reads exactly the
  // live value; the final unlink completes the erase.  The old head-first
  // single unlink was the resurrection bug the property fuzzer caught — it
  // re-exposed a stale duplicate as the live value.
  while (!matches.empty()) {
    unlink_free(slot, matches.back().first, matches.back().second);
    matches.pop_back();
  }
  bump_count(-1);
  return true;
}

void HashTable::read_value(const ValueRef& ref, void* dst) const {
  pool_->read(ref.val_off, dst, ref.val_size);
}

const std::byte* HashTable::value_direct(const ValueRef& ref) const {
  pool_->charge_read(ref.val_size);
  return pool_->direct(ref.val_off);
}

std::size_t HashTable::count() const {
  return pool_->get<TableHeader>(hoff_).count;
}

std::size_t HashTable::nbuckets() const {
  return pool_->get<TableHeader>(hoff_).nbuckets;
}

void HashTable::bump_count(std::int64_t delta) {
  std::lock_guard lk(*count_mu_);
  auto hdr = pool_->get<TableHeader>(hoff_);
  hdr.count = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(hdr.count) + delta);
  pool_->set<std::uint64_t>(hoff_ + offsetof(TableHeader, count), hdr.count);
}

void HashTable::for_each(
    const std::function<void(std::string_view, const ValueRef&)>& fn) const {
  // Hold every stripe so the view is consistent.
  for (auto& m : *stripes_) m.lock();
  const auto hdr = pool_->get<TableHeader>(hoff_);
  // Scan the bucket array with one bulk read (a sequential-streaming
  // access), not one charged random read per slot.
  std::vector<std::uint64_t> heads(hdr.nbuckets);
  pool_->read(hdr.buckets_off, heads.data(), hdr.nbuckets * 8);
  for (std::uint64_t b = 0; b < hdr.nbuckets; ++b) {
    std::uint64_t node = heads[b];
    while (node != 0) {
      const std::string key = read_key(node);
      ValueRef ref;
      ref.node_off = node;
      ref.val_off = pool_->get<std::uint64_t>(node + kNodeValOff);
      ref.val_size = pool_->get<std::uint64_t>(node + kNodeValSize);
      ref.meta = pool_->get<std::uint64_t>(node + kNodeMeta);
      fn(key, ref);
      node = pool_->get<std::uint64_t>(node + kNodeNext);
    }
  }
  for (auto it = stripes_->rbegin(); it != stripes_->rend(); ++it) it->unlock();
}

void HashTable::for_each_prefix(
    std::string_view prefix,
    const std::function<void(std::string_view, const ValueRef&)>& fn) const {
  for_each([&](std::string_view key, const ValueRef& ref) {
    if (key.size() >= prefix.size() &&
        key.compare(0, prefix.size(), prefix) == 0) {
      fn(key, ref);
    }
  });
}

void HashTable::rehash(std::size_t new_nbuckets) {
  trace::Span span("ht.rehash");
  if (new_nbuckets == 0) new_nbuckets = 1;
  for (auto& m : *stripes_) m.lock();
  const auto hdr = pool_->get<TableHeader>(hoff_);

  // Build a complete replacement: new array + copied nodes sharing the old
  // value blobs.  Nothing existing is mutated until the header swap.
  const std::uint64_t nbuckets_off = pool_->alloc(new_nbuckets * 8);
  zero_range(*pool_, nbuckets_off, new_nbuckets * 8);

  std::vector<std::uint64_t> old_nodes;
  std::vector<std::uint64_t> dup_vals;
  for (std::uint64_t b = 0; b < hdr.nbuckets; ++b) {
    std::uint64_t node = pool_->get<std::uint64_t>(hdr.buckets_off + b * 8);
    std::set<std::string> seen;  // keys copied from this chain
    while (node != 0) {
      old_nodes.push_back(node);
      const std::string key = read_key(node);
      if (!seen.insert(key).second) {
        // Shadowed crash-leftover duplicate (see link_replace): copying it
        // would RE-ORDER it above the live entry, because this loop
        // prepends while walking head-to-tail.  Drop it instead; its value
        // blob is freed with the other retired storage after the swap.
        dup_vals.push_back(pool_->get<std::uint64_t>(node + kNodeValOff));
        node = pool_->get<std::uint64_t>(node + kNodeNext);
        continue;
      }
      const std::uint64_t copy = pool_->alloc(kNodeKey + key.size());
      const std::uint64_t nslot =
          nbuckets_off + (fnv1a(key) % new_nbuckets) * 8;
      // Stage the copy, persist it as one unit, then link it.
      const NodeHeaderImage nh{pool_->get<std::uint64_t>(nslot),
                               pool_->get<std::uint64_t>(node + kNodeValOff),
                               pool_->get<std::uint64_t>(node + kNodeValSize),
                               pool_->get<std::uint64_t>(node + kNodeMeta),
                               static_cast<std::uint32_t>(key.size()), 0};
      pool_->write(copy, &nh, sizeof(nh));
      if (!key.empty()) {
        pool_->write(copy + kNodeKey, key.data(), key.size());
      }
      pool_->persist(copy, kNodeKey + key.size());
      pool_->set<std::uint64_t>(nslot, copy);
      node = pool_->get<std::uint64_t>(node + kNodeNext);
    }
  }

  {
    Transaction tx(*pool_);
    tx.snapshot(hoff_, sizeof(TableHeader));
    // Plain stores inside the transaction: commit() flushes the snapshotted
    // range once (a per-field set() here paid an extra flush+fence each and
    // made commit's own flush a checker-flagged duplicate).
    const std::uint64_t nb = new_nbuckets;
    pool_->write(hoff_ + offsetof(TableHeader, nbuckets), &nb, sizeof(nb));
    pool_->write(hoff_ + offsetof(TableHeader, buckets_off), &nbuckets_off,
                 sizeof(nbuckets_off));
    tx.commit();
  }

  for (std::uint64_t node : old_nodes) pool_->free(node);
  for (std::uint64_t val : dup_vals) {
    if (val != 0) pool_->free(val);
  }
  pool_->free(hdr.buckets_off);
  for (auto it = stripes_->rbegin(); it != stripes_->rend(); ++it) it->unlock();
}

// ---------------------------------------------------------------------------
// Inserter
// ---------------------------------------------------------------------------

HashTable::Inserter::Inserter(HashTable& t, std::string_view key,
                              std::uint64_t node_off, std::uint64_t val_off,
                              std::uint64_t val_size)
    : table_(&t),
      key_(key),
      node_off_(node_off),
      val_off_(val_off),
      val_size_(val_size) {}

HashTable::Inserter::Inserter(Inserter&& o) noexcept
    : table_(o.table_),
      key_(std::move(o.key_)),
      node_off_(o.node_off_),
      val_off_(o.val_off_),
      val_size_(o.val_size_),
      published_(o.published_),
      scope_open_(o.scope_open_) {
  o.published_ = true;  // the moved-from shell owns nothing
  o.scope_open_ = false;
  o.node_off_ = 0;
}

HashTable::Inserter::~Inserter() {
  if (published_ || node_off_ == 0) {
    if (scope_open_) table_->pool_->device().check_tx_abort();
    return;
  }
  try {
    table_->pool_->free(node_off_);
    if (val_off_ != 0) table_->pool_->free(val_off_);
  } catch (...) {
    // Reached during exception unwind (e.g. a scheduled crash fired before
    // publish).  Crash-point exceptions must not escape a destructor; the
    // allocator undo log reconciles interrupted frees on reopen.
  }
  if (scope_open_) {
    scope_open_ = false;
    table_->pool_->device().check_tx_abort();  // abandoned reservation
  }
}

void HashTable::Inserter::close_checker_scope() {
  if (!scope_open_) return;
  scope_open_ = false;
  table_->pool_->device().check_tx_abort();
}

void HashTable::Inserter::set_meta_high(std::uint32_t hi) {
  auto meta = table_->pool_->get<std::uint64_t>(node_off_ + kNodeMeta);
  meta = (meta & 0xFFFFFFFFull) | (static_cast<std::uint64_t>(hi) << 32);
  if (published_) {
    table_->pool_->set<std::uint64_t>(node_off_ + kNodeMeta, meta);
  } else {
    // Still staged: publish() persists the whole header in one flush.
    table_->pool_->write(node_off_ + kNodeMeta, &meta, sizeof(meta));
  }
}

std::span<std::byte> HashTable::Inserter::value() {
  return table_->pool_->direct_write_span(val_off_, val_size_);
}

bool HashTable::Inserter::publish(bool keep_existing) {
  if (published_) return false;
  trace::Span span("ht.publish");
  // Make the entry durable before it becomes reachable: one CLWB pass over
  // the value blob and the node (header + key), then a single fence.
  if (val_size_ > 0) table_->pool_->flush(val_off_, val_size_);
  table_->pool_->flush(node_off_, kNodeKey + key_.size());
  table_->pool_->drain();
  if (val_size_ > 0) table_->pool_->check_publish(val_off_, val_size_);
  table_->pool_->check_publish(node_off_, kNodeKey + key_.size());
  bool head_linked = false;
  bool linked;
  try {
    linked = table_->link_replace(key_, node_off_, keep_existing, &head_linked);
  } catch (...) {
    // A fault in the post-publish tail (count bump, stale-entry unlink or
    // free) unwinds through here with the entry already durably reachable.
    // Marking it published keeps the destructor from freeing live storage —
    // the healing retry then supersedes the entry as a normal overwrite.
    if (head_linked) {
      published_ = true;
      if (scope_open_) {
        // Abort (not commit) the checker scope: the faulted tail may have
        // left a stored-but-reverted line the checker still sees as dirty,
        // and tx_commit would flag that as a violation of ours.
        scope_open_ = false;
        table_->pool_->device().check_tx_abort();
      }
    }
    throw;
  }
  published_ = true;  // either linked or already freed by link_replace
  if (scope_open_) {
    scope_open_ = false;
    table_->pool_->device().check_tx_commit();
  }
  if (linked) table_->maybe_grow();
  return linked;
}

void HashTable::maybe_grow() {
  if (!auto_grow_) return;
  const auto hdr = pool_->get<TableHeader>(hoff_);
  if (hdr.count > hdr.nbuckets * 4) rehash(hdr.nbuckets * 4);
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

void HashTable::publish_group(std::span<GroupPut> puts) {
  trace::Span span("ht.publish_group");
  // Live = staged reservations this call actually owns (skip moved-from
  // shells and anything already published).
  std::vector<GroupPut*> live;
  for (auto& p : puts) {
    if (p.ins == nullptr || p.ins->published_ || p.ins->node_off_ == 0) {
      continue;
    }
    if (p.ins->table_ != this) {
      throw PoolError("publish_group: Inserter from another table");
    }
    p.linked = false;
    live.push_back(&p);
  }
  if (live.empty()) return;

  // A batch stager closes each reservation's checker scope at stage time
  // (close_checker_scope()), because the scope stack is strictly LIFO and
  // this function publishes in an order unrelated to staging.  Direct
  // callers that skipped that get a fallback here: pop the still-open
  // scopes innermost-first (reverse staging order) before any publishing
  // work.  The staged lines stay dirty on purpose; check_publish() after
  // fence #1 verifies their durability instead.
  for (auto it = live.rbegin(); it != live.rend(); ++it) {
    (*it)->ins->close_checker_scope();
  }

  // Resolve duplicate keys within the batch before touching any chain:
  // replace-mode the last staged entry wins, keep_existing the first.
  // Losers are discarded without ever being linked — linking both copies
  // would leave which one a later erase/replace removes undefined.
  std::unordered_map<std::string_view, std::size_t> winner;
  std::vector<bool> discard(live.size(), false);
  for (std::size_t i = 0; i < live.size(); ++i) {
    auto [it, first] = winner.try_emplace(live[i]->ins->key_, i);
    if (!first) {
      if (live[i]->keep_existing) {
        discard[i] = true;
      } else {
        discard[it->second] = true;
        it->second = i;
      }
    }
  }

  // Lock the stripes of every winning key in ascending order (the order
  // rehash/for_each use), so the persistent chains are stable below us.
  std::vector<std::size_t> stripe_ids;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!discard[i]) stripe_ids.push_back(fnv1a(live[i]->ins->key_) % kStripes);
  }
  std::sort(stripe_ids.begin(), stripe_ids.end());
  stripe_ids.erase(std::unique(stripe_ids.begin(), stripe_ids.end()),
                   stripe_ids.end());
  // RAII so a crash-point exception thrown below cannot leak the locks;
  // released explicitly before maybe_grow(), which takes every stripe.
  struct StripeGuard {
    std::array<std::mutex, kStripes>* stripes;
    const std::vector<std::size_t>* ids;
    bool held = true;
    void release() {
      if (!held) return;
      held = false;
      for (auto it = ids->rbegin(); it != ids->rend(); ++it) {
        (*stripes)[*it].unlock();
      }
    }
    ~StripeGuard() { release(); }
  } stripe_guard{stripes_.get(), &stripe_ids};
  for (auto id : stripe_ids) (*stripes_)[id].lock();

  // Wire the winners into per-bucket shadow chains: each new node's next
  // pointer is a plain store that rides along in the phase-A flush of the
  // node itself.  keep_existing winners defer to an entry already in the
  // persistent chain and are discarded instead.
  struct Replace {
    std::uint64_t slot;
    std::uint64_t old_node;
  };
  std::map<std::uint64_t, std::uint64_t> orig_head;    // slot -> old head
  std::map<std::uint64_t, std::uint64_t> shadow_head;  // slot -> new head
  std::vector<Replace> replaces;
  std::vector<std::pair<std::uint64_t, std::size_t>> durable;
  std::int64_t fresh_links = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (discard[i]) continue;
    Inserter& ins = *live[i]->ins;
    const std::uint64_t slot = bucket_slot(ins.key_);
    auto oh = orig_head.find(slot);
    if (oh == orig_head.end()) {
      const auto head = pool_->get<std::uint64_t>(slot);
      oh = orig_head.emplace(slot, head).first;
      shadow_head.emplace(slot, head);
    }
    std::uint64_t old = oh->second;
    while (old != 0 && read_key(old) != ins.key_) {
      old = pool_->get<std::uint64_t>(old + kNodeNext);
    }
    if (old != 0 && live[i]->keep_existing) {
      discard[i] = true;
      continue;
    }
    std::uint64_t& head = shadow_head[slot];
    pool_->write(ins.node_off_ + kNodeNext, &head, sizeof(head));
    head = ins.node_off_;
    live[i]->linked = true;
    if (ins.val_size_ > 0) durable.emplace_back(ins.val_off_, ins.val_size_);
    durable.emplace_back(ins.node_off_, kNodeKey + ins.key_.size());
    if (old != 0) {
      replaces.push_back({slot, old});
    } else {
      ++fresh_links;
    }
  }

  if (!durable.empty()) {
    // Fence #1 — durability: every staged blob + node (including the next
    // pointers just written) becomes persistent under one coalesced CLWB
    // pass and a single drain.  Nothing is reachable yet, so a crash here
    // publishes nothing; the orphan chunks are mere leaks.
    {
      Transaction tx(*pool_);
      for (const auto& [off, len] : durable) tx.reserve(off, len);
      tx.commit();
    }
    for (auto* p : live) {
      if (!p->linked) continue;
      if (p->ins->val_size_ > 0) {
        pool_->check_publish(p->ins->val_off_, p->ins->val_size_);
      }
      pool_->check_publish(p->ins->node_off_,
                           kNodeKey + p->ins->key_.size());
    }

    // Fence #2 — visibility: one 8-byte head store per touched bucket plus
    // the count bump, all flushed together under a second single drain.
    std::vector<Pool::Range> vis;
    for (const auto& [slot, head] : shadow_head) {
      if (head == orig_head.find(slot)->second) continue;  // all discarded
      pool_->write(slot, &head, sizeof(head));
      vis.push_back({slot, sizeof(head)});
    }
    if (fresh_links != 0) {
      std::lock_guard clk(*count_mu_);
      auto hdr = pool_->get<TableHeader>(hoff_);
      const std::uint64_t count = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(hdr.count) + fresh_links);
      pool_->write(hoff_ + offsetof(TableHeader, count), &count,
                   sizeof(count));
      vis.push_back({hoff_ + offsetof(TableHeader, count), sizeof(count)});
    }
    pool_->flush_coalesced(vis);
    pool_->drain();

    // The new chains are durable and visible; unlink the superseded
    // duplicates they shadow (same discipline as single publish(): a crash
    // in between leaves a benign shadowed duplicate the head entry wins).
    for (const auto& r : replaces) {
      std::uint64_t prev = 0;
      std::uint64_t cur = pool_->get<std::uint64_t>(r.slot);
      while (cur != 0 && cur != r.old_node) {
        prev = cur;
        cur = pool_->get<std::uint64_t>(cur + kNodeNext);
      }
      if (cur == 0) continue;
      const std::uint64_t old_next =
          pool_->get<std::uint64_t>(r.old_node + kNodeNext);
      if (prev == 0) {
        pool_->set<std::uint64_t>(r.slot, old_next);
      } else {
        pool_->set<std::uint64_t>(prev + kNodeNext, old_next);
      }
      const auto old_val = pool_->get<std::uint64_t>(r.old_node + kNodeValOff);
      pool_->free(r.old_node);
      if (old_val != 0) pool_->free(old_val);
    }
  }

  // Discarded reservations were never linked: plain frees suffice.
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!discard[i]) continue;
    Inserter& ins = *live[i]->ins;
    pool_->free(ins.node_off_);
    if (ins.val_off_ != 0) pool_->free(ins.val_off_);
  }

  stripe_guard.release();

  // Checker scopes were already closed (at stage time or by the fallback
  // above); only mark the reservations consumed so their destructors
  // neither free nor pop anything.
  for (auto* p : live) p->ins->published_ = true;

  if (fresh_links > 0) maybe_grow();
}

}  // namespace pmemcpy::obj
