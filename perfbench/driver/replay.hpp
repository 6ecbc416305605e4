// Layer replays of the traced run (perfbench/README.md, "Per-layer
// metrics").  One recorded step's op log is lowered to the engine-level
// calls the core makes for it, and replayed from the same rank threads on a
// fresh node against each layer's public API: PMEM (core), engine::Engine,
// obj::HashTable / obj::Pool, serial (encode + crc32c) and pmem::Device.
// All times are host seconds summed over the rank threads.
#pragma once

#include "bench.hpp"

namespace pb {

struct ReplayOut {
  // Thread-seconds each replay spent inside its layer's calls.
  double core_s = 0, engine_s = 0, obj_s = 0;
  double enc_s = 0, crc_s = 0, dev_copy_s = 0, dev_persist_s = 0;
  double engine_put_s = 0, engine_commit_s = 0, engine_get_s = 0;
  double obj_publish_group_s = 0;
  double dev_write_s = 0, dev_read_s = 0;
  std::vector<double> obj_find_us, obj_alloc_us, obj_free_us;
  // Work replayed, for the fidelity check against the live step's counters.
  std::uint64_t core_ops = 0, core_bad = 0;
  std::uint64_t eng_puts = 0, eng_gets = 0, eng_put_bytes = 0,
                eng_read_bytes = 0;
  std::uint64_t obj_reserves = 0, obj_finds = 0;
  std::uint64_t crc_put_bytes = 0, crc_bytes = 0;
  std::uint64_t dev_written = 0, dev_read = 0;
  // pmem::Device::write of 64 B, rank 0 alone vs all ranks at once.
  double small_solo_ns = 0, small_conc_ns = 0;
  /// Folded replayed checksums: keeps the CRC work observable.
  std::uint32_t crc_fold = 0;
};

/// State the ranks share during the replays (the fresh node / device).
struct ReplayShared {
  std::unique_ptr<pmemcpy::PmemNode> node;
  std::unique_ptr<pmemcpy::pmem::Device> dev;
};

/// Collective: every rank calls it with its own recorded step (@p step) and
/// the ops recreating the state that step started from (@p prepop).
void run_replays(pmemcpy::par::Comm& comm, ReplayShared& sh, const Params& p,
                 RankWork& work, std::vector<CoreOp>& step,
                 std::vector<CoreOp>& prepop, ReplayOut& out);

}  // namespace pb
