// The three workloads: op generators, DRAM-side checks and the op issuer.
#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pb {

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;
/// Checkpoint bytes per step at scale 1 (10 variables over all ranks).
constexpr double kCkptBytes = 256.0 * 1024 * 1024;
constexpr std::size_t kKvKeysPerRank = 20000;
/// Ops per rank per step.  PMEM::remove scans the whole table for the
/// id's pieces and attributes (~0.2 s at 80,000 keys), so the one remove
/// of a 20-op step dominates its time; a fixed mix keeps steps comparable.
constexpr std::size_t kKvOpsPerStep = 20;
constexpr double kZipfTheta = 0.99;

std::string ckpt_id(std::uint64_t step, int v) {
  return "c" + std::to_string(step) + "/v" + std::to_string(v);
}
std::string restart_id(int v) { return "ckpt/v" + std::to_string(v); }
std::string kv_id(int rank, std::size_t k) {
  return "r" + std::to_string(rank) + "/k" + std::to_string(k);
}

}  // namespace

std::size_t payload_bytes(const CoreOp& op) {
  switch (op.kind) {
    case OpKind::kStorePiece:
    case OpKind::kLoadPiece:
      return op.box.elements() * sizeof(double);
    case OpKind::kStoreValue:
    case OpKind::kLoadValue:
    case OpKind::kStoreAttr:
      return std::visit(
          [](const auto& v) { return pmemcpy::serial::binary_serialized_size(v); },
          op.value);
    default:
      return 0;
  }
}

Params make_params(const std::string& workload, std::uint64_t seed,
                   double scale, int nranks) {
  Params p;
  p.name = workload;
  p.seed = seed;
  p.scale = scale;
  p.nranks = nranks;
  if (workload == "ckpt_write") {
    p.wl = Workload::kCkptWrite;
  } else if (workload == "restart_read") {
    p.wl = Workload::kRestartRead;
  } else if (workload == "small_kv") {
    p.wl = Workload::kSmallKv;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  if (p.wl == Workload::kSmallKv) {
    p.keys_per_rank = std::max<std::size_t>(
        64, static_cast<std::size_t>(std::llround(kKvKeysPerRank * scale)));
    p.ops_per_step = std::max<std::size_t>(
        20, static_cast<std::size_t>(std::llround(kKvOpsPerStep * scale)));
    p.device_bytes = std::max<std::size_t>(
        64 * kMiB, static_cast<std::size_t>(256.0 * kMiB * scale));
    p.replay_device_bytes = p.device_bytes;
    return p;
  }
  // The seed draws the domain's size within +0..2%, so checkpoints of
  // different seeds differ slightly in shape and simulated time.
  const double jitter = static_cast<double>(mix(seed) % 21) / 1000.0;
  const auto elems = static_cast<std::size_t>(
      kCkptBytes * scale * (1.0 + jitter) / sizeof(double) / p.nvars);
  p.dec = pmemcpy::wk::decompose(std::max<std::size_t>(elems, 64), p.nranks);
  p.var_base = static_cast<int>(seed % 1000) * p.nvars + 1;
  const double ckpt = static_cast<double>(p.dec.total_elements()) *
                      sizeof(double) * p.nvars;
  // ckpt_write keeps up to three checkpoints live (k-2 is removed after k
  // is stored), and a replay of one of its steps two; restart_read holds
  // one.
  const bool ckpt_write = p.wl == Workload::kCkptWrite;
  p.device_bytes = static_cast<std::size_t>(ckpt * (ckpt_write ? 3.4 : 1.4)) + 64 * kMiB;
  p.replay_device_bytes =
      static_cast<std::size_t>(ckpt * (ckpt_write ? 2.3 : 1.4)) + 64 * kMiB;
  return p;
}

std::unique_ptr<pmemcpy::PmemNode> make_node(std::size_t bytes) {
  pmemcpy::PmemNode::Options o;
  o.capacity = bytes;
  o.pool_fraction = 0.95;
  return std::make_unique<pmemcpy::PmemNode>(o);
}

pmemcpy::Config pmem_config(pmemcpy::PmemNode& node) {
  pmemcpy::Config cfg;
  cfg.node = &node;
  return cfg;
}

RankWork::RankWork(const Params& p, int rank) : p_(p), rank_(rank) {
  if (p.wl != Workload::kSmallKv) {
    box_ = p.dec.rank_boxes.at(static_cast<std::size_t>(rank));
  }
}

void RankWork::generate_inputs() {
  if (p_.wl == Workload::kSmallKv) {
    const std::size_t n = p_.keys_per_rank;
    zipf_cdf_.resize(n);
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipfTheta);
      zipf_cdf_[i] = acc;
    }
    for (auto& c : zipf_cdf_) c /= acc;
    Rng rng(p_.seed * 1000003 + static_cast<std::uint64_t>(rank_));
    model_.vals.clear();
    model_.vals.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      model_.vals.push_back(random_value(k, rng));
    }
    model_.attrs.assign(n, {});
    return;
  }
  data_.resize(static_cast<std::size_t>(p_.nvars));
  for (int v = 0; v < p_.nvars; ++v) {
    pmemcpy::wk::fill_box(data_[static_cast<std::size_t>(v)], p_.var_base + v,
                          p_.dec.global, box_);
  }
  const auto& g = p_.dec.global;
  plane_.assign(g[0] * g[1], 0.0);
}

Value RankWork::random_value(std::size_t key, Rng& rng) const {
  // A key's type and size are fixed (its schema), spread log-uniformly
  // over 8 B .. 4 KiB by a seed-independent sequence, so the hot keys of
  // every seed have the same sizes; the seed draws contents and op order.
  const double u = std::fmod(static_cast<double>(key) * 0.6180339887498949, 1.0);
  const double lg = std::log(8.0) + u * (std::log(4096.0) - std::log(8.0));
  const auto len = static_cast<std::size_t>(std::exp(lg));
  switch (key % 4) {
    case 0:
      return rng.unit() * 1e6;
    case 1: {
      std::string s(len, 'a');
      for (std::size_t i = 0; i < len; i += 8) {
        std::uint64_t r = rng.next();
        for (std::size_t j = i; j < std::min(len, i + 8); ++j, r >>= 8) {
          s[j] = static_cast<char>('a' + (r & 0xFF) % 26);
        }
      }
      return s;
    }
    case 2: {
      std::vector<float> f(std::max<std::size_t>(1, len / 4));
      for (auto& x : f) x = static_cast<float>(rng.unit());
      return f;
    }
    default: {
      Rec r;
      r.id = rng.next();
      r.x = rng.unit();
      r.y = rng.unit();
      r.z = rng.unit();
      r.attrs.resize(len / 8);
      for (auto& x : r.attrs) x = rng.unit();
      return r;
    }
  }
}

std::size_t RankWork::zipf_key(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - zipf_cdf_.begin()), zipf_cdf_.size() - 1);
}

std::vector<CoreOp> RankWork::ckpt_store_ops(std::uint64_t step, bool solo) {
  std::vector<CoreOp> ops;
  if (rank_ == 0) {
    // Rank 0 declares the variables; the barrier orders every rank's
    // stores after the declaration.
    for (int v = 0; v < p_.nvars; ++v) {
      CoreOp op;
      op.kind = OpKind::kAlloc;
      op.id = ckpt_id(step, v);
      op.box.count = p_.dec.global;
      ops.push_back(std::move(op));
    }
  }
  ops.push_back(CoreOp{});  // kBarrier
  if (solo && rank_ != 0) return ops;
  for (int v = 0; v < p_.nvars; ++v) {
    CoreOp op;
    op.kind = OpKind::kStorePiece;
    op.id = ckpt_id(step, v);
    op.box = box_;
    op.src = &data_[static_cast<std::size_t>(v)];
    op.var = p_.var_base + v;
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<CoreOp> RankWork::setup_ops() {
  std::vector<CoreOp> ops;
  if (p_.wl == Workload::kRestartRead) {
    ops = ckpt_store_ops(0, false);
    for (auto& op : ops) {
      if (op.kind != OpKind::kBarrier) {
        op.id = restart_id(std::stoi(op.id.substr(op.id.find("/v") + 2)));
      }
    }
  } else if (p_.wl == Workload::kSmallKv) {
    for (std::size_t k = 0; k < model_.vals.size(); ++k) {
      CoreOp op;
      op.kind = OpKind::kStoreValue;
      op.id = kv_id(rank_, k);
      op.value = model_.vals[k];
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

std::vector<CoreOp> RankWork::step_ops(std::uint64_t step, bool solo) {
  std::vector<CoreOp> ops;
  switch (p_.wl) {
    case Workload::kCkptWrite: {
      ops = ckpt_store_ops(step, solo);
      // Checkpoint k is complete on every rank before k-2 is dropped.
      ops.push_back(CoreOp{});  // kBarrier
      if (step >= 2 && (!solo || rank_ == 0)) {
        for (int v = rank_; v < p_.nvars; v += p_.nranks) {
          CoreOp op;
          op.kind = OpKind::kRemove;
          op.id = ckpt_id(step - 2, v);
          ops.push_back(std::move(op));
        }
      }
      return ops;
    }
    case Workload::kRestartRead: {
      if (solo && rank_ != 0) return ops;
      for (int v = 0; v < p_.nvars; ++v) {
        auto& buf = data_[static_cast<std::size_t>(v)];
        std::fill(buf.begin(), buf.end(), -1.0);  // loads must overwrite
        CoreOp op;
        op.kind = OpKind::kLoadPiece;
        op.id = restart_id(v);
        op.box = box_;
        op.dst = &buf;
        op.var = p_.var_base + v;
        ops.push_back(std::move(op));
      }
      // One plane z = const crosses every rank's piece: the general
      // (assembling) read path.
      Rng rng(p_.seed ^ mix(step * 64 + static_cast<std::uint64_t>(rank_)));
      const auto& g = p_.dec.global;
      const int v = static_cast<int>(rng.below(static_cast<std::uint64_t>(p_.nvars)));
      CoreOp op;
      op.kind = OpKind::kLoadPiece;
      op.id = restart_id(v);
      op.box = pmemcpy::Box({0, 0, rng.below(g[2])}, {g[0], g[1], 1});
      std::fill(plane_.begin(), plane_.end(), -1.0);
      op.dst = &plane_;
      op.var = p_.var_base + v;
      op.plane = true;
      ops.push_back(std::move(op));
      return ops;
    }
    case Workload::kSmallKv: {
      if (solo && rank_ != 0) return {CoreOp{}};  // the removes' barrier
      Rng rng(p_.seed ^ mix((step << 8) + static_cast<std::uint64_t>(rank_)));
      // Exactly 60% loads, 30% overwrites and 5% attributes in a seeded
      // order, then, after a barrier, 5% remove-then-store.  Every remove
      // scans the whole table under all of its stripe locks; starting them
      // together keeps the small ops from queueing behind a scan at random
      // and the scans' queueing the same in every step.
      const std::size_t n = p_.ops_per_step;
      const std::size_t loads = n * 60 / 100, stores = n * 30 / 100,
                        attrs = n * 5 / 100;
      const std::size_t mixed = loads + stores + attrs;
      std::vector<int> kinds(n, 3);
      std::fill_n(kinds.begin(), loads, 0);
      std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(loads), stores, 1);
      std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(loads + stores),
                  attrs, 2);
      for (std::size_t i = mixed; i > 1; --i) {
        std::swap(kinds[i - 1], kinds[rng.below(i)]);
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (i == mixed) ops.push_back(CoreOp{});  // kBarrier
        const std::size_t k = zipf_key(rng);
        CoreOp op;
        op.id = kv_id(rank_, k);
        if (kinds[i] == 0) {
          op.kind = OpKind::kLoadValue;
          op.value = model_.vals[k];
        } else if (kinds[i] == 1) {
          op.kind = OpKind::kStoreValue;
          model_.vals[k] = random_value(k, rng);
          op.value = model_.vals[k];
        } else if (kinds[i] == 2) {
          op.kind = OpKind::kStoreAttr;
          op.attr = "a" + std::to_string(rng.below(3));
          op.value = (rng.below(2) == 0)
                         ? Value(rng.unit())
                         : Value(std::string(8 + rng.below(56), 'u'));
          auto& attrs = model_.attrs[k];
          const auto it = std::find_if(
              attrs.begin(), attrs.end(),
              [&](const auto& a) { return a.first == op.attr; });
          if (it != attrs.end()) {
            it->second = op.value;
          } else {
            attrs.emplace_back(op.attr, op.value);
          }
        } else {
          op.kind = OpKind::kRemove;
          for (const auto& a : model_.attrs[k]) op.attrs.push_back(a.first);
          model_.attrs[k].clear();
          ops.push_back(std::move(op));
          CoreOp again;
          again.kind = OpKind::kStoreValue;
          again.id = kv_id(rank_, k);
          model_.vals[k] = random_value(k, rng);
          again.value = model_.vals[k];
          ops.push_back(std::move(again));
          continue;
        }
        ops.push_back(std::move(op));
      }
      return ops;
    }
  }
  return ops;
}

std::vector<CoreOp> RankWork::prepop_ops(std::uint64_t step,
                                         const KvModel& before) {
  switch (p_.wl) {
    case Workload::kCkptWrite:
      return step >= 2 ? ckpt_store_ops(step - 2, false)
                       : std::vector<CoreOp>{};
    case Workload::kRestartRead:
      return setup_ops();
    case Workload::kSmallKv: {
      std::vector<CoreOp> ops;
      for (std::size_t k = 0; k < before.vals.size(); ++k) {
        CoreOp op;
        op.kind = OpKind::kStoreValue;
        op.id = kv_id(rank_, k);
        op.value = before.vals[k];
        ops.push_back(std::move(op));
        for (const auto& [name, v] : before.attrs[k]) {
          CoreOp a;
          a.kind = OpKind::kStoreAttr;
          a.id = kv_id(rank_, k);
          a.attr = name;
          a.value = v;
          ops.push_back(std::move(a));
        }
      }
      return ops;
    }
  }
  return {};
}

std::vector<CoreOp> RankWork::final_ops(std::uint64_t last_step) {
  std::vector<CoreOp> ops;
  if (p_.wl == Workload::kSmallKv) {
    for (std::size_t k = 0; k < model_.vals.size(); ++k) {
      CoreOp op;
      op.kind = OpKind::kLoadValue;
      op.id = kv_id(rank_, k);
      op.value = model_.vals[k];
      ops.push_back(std::move(op));
      for (const auto& [name, v] : model_.attrs[k]) {
        CoreOp a;
        a.kind = OpKind::kLoadValue;
        a.id = pmemcpy::detail::attr_key(kv_id(rank_, k), name);
        a.value = v;
        ops.push_back(std::move(a));
      }
    }
    return ops;
  }
  // Checkpoints: every rank reads its own pieces of the newest checkpoint
  // (restart_read: the one checkpoint) back into one scratch buffer; the
  // caller verifies each load before issuing the next.
  plane_.assign(box_.elements(), -1.0);
  for (int v = 0; v < p_.nvars; ++v) {
    CoreOp op;
    op.kind = OpKind::kLoadPiece;
    op.id = p_.wl == Workload::kCkptWrite ? ckpt_id(last_step, v)
                                          : restart_id(v);
    op.box = box_;
    op.dst = &plane_;
    op.var = p_.var_base + v;
    ops.push_back(std::move(op));
  }
  return ops;
}

std::string RankWork::corrupt_target(std::uint64_t last_step) const {
  switch (p_.wl) {
    case Workload::kCkptWrite:
      return pmemcpy::detail::piece_key(ckpt_id(last_step, 0), box_);
    case Workload::kRestartRead:
      return pmemcpy::detail::piece_key(restart_id(0), box_);
    case Workload::kSmallKv:
      return kv_id(rank_, 0);
  }
  return {};
}

std::size_t RankWork::verify(const std::vector<CoreOp>& ops) const {
  std::size_t bad = 0;
  for (const auto& op : ops) {
    if (!op.ok) continue;  // counted as a failed op
    if (op.kind == OpKind::kLoadPiece) {
      if (pmemcpy::wk::verify_box(*op.dst, op.var, p_.dec.global, op.box) != 0) {
        ++bad;
      }
    } else if (op.kind == OpKind::kLoadValue && !(op.out == op.value)) {
      ++bad;
    }
  }
  return bad;
}

namespace {

/// Issue one op; throws what the PMEM call throws.
void issue(pmemcpy::PMEM& pm, pmemcpy::par::Comm& comm, CoreOp& op) {
  switch (op.kind) {
    case OpKind::kAlloc:
      pm.alloc<double>(op.id, op.box.count);
      return;
    case OpKind::kStorePiece:
      pm.store<double>(op.id, op.src->data(), 3, op.box.offset.data(),
                       op.box.count.data());
      return;
    case OpKind::kLoadPiece:
      pm.load<double>(op.id, op.dst->data(), 3, op.box.offset.data(),
                      op.box.count.data());
      return;
    case OpKind::kRemove:
      pm.remove(op.id);
      return;
    case OpKind::kStoreValue:
      std::visit([&](const auto& v) { pm.store(op.id, v); }, op.value);
      return;
    case OpKind::kLoadValue:
      std::visit(
          [&](const auto& expect) {
            std::decay_t<decltype(expect)> v{};
            pm.load(op.id, v);
            op.out = std::move(v);
          },
          op.value);
      return;
    case OpKind::kStoreAttr:
      std::visit([&](const auto& v) { pm.store_attribute(op.id, op.attr, v); },
                 op.value);
      return;
    case OpKind::kBarrier:
      comm.barrier();
      return;
  }
}

}  // namespace

std::size_t issue_all(pmemcpy::PMEM& pm, pmemcpy::par::Comm& comm,
                      std::vector<CoreOp>& ops, std::vector<double>* call_s) {
  std::size_t failed = 0;
  if (call_s != nullptr) call_s->assign(ops.size(), 0.0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    CoreOp& op = ops[i];
    if (op.kind == OpKind::kBarrier) {
      comm.barrier();
      continue;
    }
    const auto t0 = Clock::now();
    try {
      issue(pm, comm, op);
    } catch (const std::exception&) {
      op.ok = false;
      ++failed;
    }
    if (call_s != nullptr) (*call_s)[i] = seconds_since(t0);
  }
  return failed;
}

}  // namespace pb
