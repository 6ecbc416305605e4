// Collective engine-open paths: rank 0 creates the persistent containers
// (shard pools + tables, or the tree root directory), a barrier makes them
// visible, then every rank binds to the shared process-local instances.
#include <pmemcpy/core/node.hpp>
#include <pmemcpy/engine/engine.hpp>
#include <pmemcpy/par/comm.hpp>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace pmemcpy::engine {

namespace {

std::string shard_pool_name(const PoolEngineOptions& opts, std::size_t k,
                            std::size_t nshards) {
  if (nshards == 1) return opts.name;
  return opts.name + ".s" + std::to_string(k);
}

/// Option field if set (>= 0), else the env var if parseable, else @p fallback.
int knob_or_env(int opt, const char* env, int fallback) {
  if (opt >= 0) return opt;
  if (const char* v = std::getenv(env); v != nullptr && *v != '\0') {
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end != v && *end == '\0' && parsed >= 0 && parsed <= 1024) {
      return static_cast<int>(parsed);
    }
  }
  return fallback;
}

}  // namespace

std::unique_ptr<Engine> open_pool_engine(PmemNode& node,
                                         const PoolEngineOptions& opts,
                                         par::Comm* comm) {
  const std::size_t nshards = opts.shards == 0 ? 1 : opts.shards;
  const int nranks = comm ? comm->size() : 1;
  const bool leader = comm == nullptr || comm->rank() == 0;
  const int contenders = static_cast<int>(
      (static_cast<std::size_t>(nranks) + nshards - 1) / nshards);
  const std::size_t shard_buckets =
      std::max<std::size_t>(64, opts.nbuckets / nshards);
  obj::PoolOptions popts;
  popts.map_sync = opts.map_sync;
  // Allocator hot-path defaults (DESIGN.md §14): engines arm magazines and
  // metadata stripes unless the caller or environment says otherwise.  Raw
  // Pool users keep the classic fully-serialized semantics (K=0, S=1).
  const int mag = knob_or_env(opts.magazine_size, "PMEMCPY_MAGAZINE_SIZE", 8);
  const int stripes = knob_or_env(opts.alloc_stripes, "PMEMCPY_ALLOC_STRIPES",
                                  8);

  if (leader) {
    // "The rest of the pool area" must be split up front: create_pool
    // interprets size 0 as everything remaining, which would starve shards
    // 1..S-1.
    std::size_t per_shard = opts.pool_size;
    if (per_shard == 0 && nshards > 1) {
      per_shard = node.pool_area_available() / nshards / 4096 * 4096;
    }
    for (std::size_t k = 0; k < nshards; ++k) {
      auto pool = node.open_or_create_pool(shard_pool_name(opts, k, nshards),
                                           per_shard, popts);
      pool->set_map_sync(opts.map_sync);
      if (pool->root() == 0) {
        auto table = obj::HashTable::create(*pool, shard_buckets);
        pool->set_root(table.header_off());
      }
      // The knobs are plain fields of the shared pool and table: set them
      // here, once, before the barrier releases the peers that use them.
      pool->set_expected_contenders(contenders);
      pool->set_magazine_size(mag);
      pool->set_alloc_stripes(std::max(1, stripes));
      node.table_for(pool, pool->root())->set_auto_grow(opts.auto_grow);
    }
  }
  if (comm) comm->barrier();

  std::vector<std::unique_ptr<Engine>> shards;
  shards.reserve(nshards);
  for (std::size_t k = 0; k < nshards; ++k) {
    auto pool = node.open_pool(shard_pool_name(opts, k, nshards), popts);
    auto table = node.table_for(pool, pool->root());
    shards.push_back(make_table_engine(std::move(pool), std::move(table)));
  }
  return make_sharded_engine(std::move(shards));
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
