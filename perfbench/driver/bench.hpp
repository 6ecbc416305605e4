// Shared vocabulary of the repository benchmark (perfbench/README.md).
//
// A workload is a per-rank generator of CoreOps: one op is one public PMEM
// call (or one of the benchmark's own barriers).  The same op list drives
// the timed step, the DRAM-side correctness check after it, and the layer
// replays of the traced run, so every layer sees exactly the work the step
// issued.
#pragma once

#include <pmemcpy/pmemcpy.hpp>
#include <pmemcpy/workload/domain3d.hpp>

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the benchmark's only source of randomness, keyed by seed.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(mix(seed)) {}
  std::uint64_t next() { return s_ = mix(s_); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// The struct value type of small_kv (a `serialize()` participant).
struct Rec {
  std::uint64_t id = 0;
  double x = 0, y = 0, z = 0;
  std::vector<double> attrs;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(id, x, y, z, attrs);
  }
  friend bool operator==(const Rec&, const Rec&) = default;
};

using Value = std::variant<double, std::string, std::vector<float>, Rec>;

enum class OpKind : std::uint8_t {
  kAlloc,       ///< PMEM::alloc<double> of a 3-D variable
  kStorePiece,  ///< PMEM::store of this rank's subarray
  kLoadPiece,   ///< PMEM::load of a subarray (own piece or a cross-rank plane)
  kRemove,      ///< PMEM::remove
  kStoreValue,  ///< PMEM::store of a scalar/string/vector/struct
  kLoadValue,   ///< PMEM::load of the same
  kStoreAttr,   ///< PMEM::store_attribute
  kBarrier,     ///< the benchmark's own par::Comm::barrier (not a PMEM call)
};

struct CoreOp {
  OpKind kind = OpKind::kBarrier;
  std::string id;
  std::string attr;                      ///< kStoreAttr name
  pmemcpy::Box box;                      ///< pieces
  const std::vector<double>* src = nullptr;  ///< kStorePiece data
  std::vector<double>* dst = nullptr;    ///< kLoadPiece buffer
  int var = 0;                           ///< wk generator variable of a piece
  bool plane = false;                    ///< kLoadPiece crossing every piece
  Value value;                           ///< stored value / expected on load
  Value out;                             ///< value a kLoadValue returned
  std::vector<std::string> attrs;        ///< kRemove: attributes the key has
  bool ok = true;                        ///< false when the call threw
};

/// Payload bytes a public call moves (what host_MiBps counts).
std::size_t payload_bytes(const CoreOp& op);

enum class Workload { kCkptWrite, kRestartRead, kSmallKv };

struct Params {
  Workload wl = Workload::kCkptWrite;
  std::string name;
  std::uint64_t seed = 1;
  double scale = 1.0;  ///< size multiplier (the self-test runs tiny sizes)
  int nranks = 2;
  int nvars = 10;
  pmemcpy::wk::Decomposition dec;  ///< ckpt_write / restart_read domain
  int var_base = 0;                ///< generator variable of var 0
  std::size_t keys_per_rank = 0;   ///< small_kv
  std::size_t ops_per_step = 0;    ///< small_kv ops per rank per step
  std::size_t device_bytes = 0;
  std::size_t replay_device_bytes = 0;  ///< node of one layer replay
};

Params make_params(const std::string& workload, std::uint64_t seed,
                   double scale, int nranks);

/// Node of @p bytes a run (or a replay) works on.  Default PmemNode options
/// apart from capacity and the pool share of it.
std::unique_ptr<pmemcpy::PmemNode> make_node(std::size_t bytes);

/// pMEMCPY handle configuration: the default Config (PMCPY-A) on @p node.
pmemcpy::Config pmem_config(pmemcpy::PmemNode& node);

inline constexpr const char* kRegion = "perfbench";

/// small_kv's per-rank DRAM model of its keys.
struct KvModel {
  std::vector<Value> vals;
  std::vector<std::vector<std::pair<std::string, Value>>> attrs;
};

/// One rank's share of a workload: inputs, op generators and the checks.
class RankWork {
 public:
  RankWork(const Params& p, int rank);

  /// Build the rank's input buffers / initial model (harness time).
  void generate_inputs();
  /// Ops that populate the region during set-up.
  std::vector<CoreOp> setup_ops();
  /// Ops of step @p step.  With @p solo only rank 0 issues PMEM calls (the
  /// others take part in barriers only).  Advances small_kv's model.
  std::vector<CoreOp> step_ops(std::uint64_t step, bool solo);
  /// Ops that recreate, on a fresh node, the state step @p step starts
  /// from (small_kv: from @p before, the model snapshot taken before it).
  std::vector<CoreOp> prepop_ops(std::uint64_t step, const KvModel& before);
  /// Loads that read back the region's final state for verification.
  std::vector<CoreOp> final_ops(std::uint64_t last_step);
  /// Mismatching results of a finished op list (loads compared against the
  /// wk generator or the model).
  std::size_t verify(const std::vector<CoreOp>& ops) const;

  [[nodiscard]] const KvModel& model() const { return model_; }
  /// Key whose blob the --corrupt self-test flips (one of this workload's
  /// final-verification reads).
  [[nodiscard]] std::string corrupt_target(std::uint64_t last_step) const;

 private:
  std::vector<CoreOp> ckpt_store_ops(std::uint64_t step, bool solo);
  Value random_value(std::size_t key, Rng& rng) const;
  std::size_t zipf_key(Rng& rng) const;

  const Params& p_;
  int rank_;
  pmemcpy::Box box_;
  std::vector<std::vector<double>> data_;  ///< ckpt_write inputs / loads
  std::vector<double> plane_;
  KvModel model_;
  std::vector<double> zipf_cdf_;
};

/// Run every op of @p ops against @p pm; returns the number that threw.
/// Per-call host seconds are appended to @p call_s (barriers excluded).
std::size_t issue_all(pmemcpy::PMEM& pm, pmemcpy::par::Comm& comm,
                      std::vector<CoreOp>& ops, std::vector<double>* call_s);

}  // namespace pb
