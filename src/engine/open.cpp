// Collective engine-open paths: rank 0 creates the persistent containers
// (the pool + its table, or the tree root directory), a barrier makes them
// visible, then every rank binds to the shared process-local instances.
#include <pmemcpy/core/node.hpp>
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/par/comm.hpp>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace pmemcpy::engine {

std::unique_ptr<Engine> open_pool_engine(PmemNode& node,
                                         const PoolEngineOptions& opts,
                                         par::Comm* comm) {
  // Checked before any collective step: every rank holds the same options,
  // so all of them throw and none waits at the barrier.
  if (opts.shards > 1) {
    throw std::invalid_argument(
        "open_pool_engine: shards=" + std::to_string(opts.shards) +
        " is not supported (sharding is retired; a flat-layout region is "
        "one pool)");
  }
  const int nranks = comm ? comm->size() : 1;
  const bool leader = comm == nullptr || comm->rank() == 0;
  obj::PoolOptions popts;
  popts.map_sync = opts.map_sync;

  if (leader) {
    auto pool = node.open_or_create_pool(opts.name, opts.pool_size, popts);
    pool->set_map_sync(opts.map_sync);
    if (pool->root() == 0) {
      const std::size_t nbuckets = std::max<std::size_t>(64, opts.nbuckets);
      auto table = obj::HashTable::create(*pool, nbuckets);
      pool->set_root(table.header_off());
    }
    // The knobs are plain fields of the shared pool and table: set them
    // here, once, before the barrier releases the peers that use them.
    // Allocator hot-path defaults (DESIGN.md §14): engines arm magazines of
    // 8 over 8 metadata stripes unless the options say otherwise.  Raw Pool
    // users keep the classic fully-serialized semantics (K=0, S=1).
    pool->set_expected_contenders(nranks);
    pool->set_magazine_size(opts.magazine_size < 0 ? 8 : opts.magazine_size);
    pool->set_alloc_stripes(opts.alloc_stripes < 0 ? 8 : opts.alloc_stripes);
    node.table_for(pool, pool->root())->set_auto_grow(opts.auto_grow);
  }
  if (comm) comm->barrier();

  auto pool = node.open_pool(opts.name, popts);
  auto table = node.table_for(pool, pool->root());
  return make_table_engine(std::move(pool), std::move(table));
}

std::unique_ptr<Engine> open_tree_engine(PmemNode& node,
                                         const std::string& root,
                                         bool map_sync, par::Comm* comm) {
  const bool leader = comm == nullptr || comm->rank() == 0;
  if (leader && !node.fs().exists(root)) {
    node.fs().mkdirs(root);
  }
  if (comm) comm->barrier();
  return make_tree_engine(node.fs(), root, map_sync);
}

}  // namespace pmemcpy::engine
