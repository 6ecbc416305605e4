// Layer replays: lower the recorded step to engine-level calls, then time
// each layer's public API on a fresh node (see replay.hpp).
#include "replay.hpp"

#include <pmemcpy/engine/engine.hpp>

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace pb {

namespace {

namespace d = pmemcpy::detail;
namespace serial = pmemcpy::serial;
using pmemcpy::Box;
using pmemcpy::Dimensions;

/// Serializer of the default Config (PMCPY-A).
constexpr auto kSer = serial::SerializerId::kBp4;

class VecSink final : public serial::Sink {
 public:
  void write(const void* data, std::size_t len) override {
    const auto* b = static_cast<const std::byte*>(data);
    out.insert(out.end(), b, b + len);
  }
  [[nodiscard]] std::size_t tell() const override { return out.size(); }
  std::vector<std::byte> out;
};

/// One engine-level call the core makes for a public PMEM call.
struct EngOp {
  enum Kind : std::uint8_t {
    kGet, kPut, kBatchBegin, kBatchPut, kBatchCommit, kErase, kScan, kBarrier
  };
  enum Head : std::uint8_t { kRawHead, kPieceHead, kDimsHead, kScalarHead };
  Kind kind = kBarrier;
  std::string key;
  std::uint64_t meta = 0;
  bool keep = false;
  /// Put: blob header (scalars: the whole archive).  Get: the blob's header
  /// bytes (scalars/dims: the whole blob), for the serial replay.
  std::vector<std::byte> head;
  /// Put: array payload.  Get: payload-sized bytes for the serial replay.
  std::span<const std::byte> body;
  std::uint32_t crc = 0;  ///< put: CRC32C of head || body
  bool hit = false;       ///< get: the key exists
  bool range = false;     ///< get: Entry::read of header + payload (fast path)
  std::size_t charge = 0;   ///< whole-blob get: bytes charged
  std::size_t consume = 0;  ///< get: bytes the core counts as read
  Head head_kind = kRawHead;
  Box box;                    ///< kPieceHead: piece; kDimsHead: dims in count
  const CoreOp* src = nullptr;  ///< kScalarHead: the value
  [[nodiscard]] std::size_t size() const { return head.size() + body.size(); }
};

std::span<const std::byte> bytes_of(const std::vector<double>& v,
                                    std::size_t n) {
  return {reinterpret_cast<const std::byte*>(v.data()), n};
}

std::vector<std::byte> piece_head(const Params& p, const Box& box) {
  VecSink s;
  d::write_blob_header(s, kSer, serial::DType::kF64,
                       box.elements() * sizeof(double), p.dec.global, box);
  return std::move(s.out);
}

void write_dims(serial::Sink& s, const Dimensions& dims) {
  std::vector<std::uint64_t> d64(dims.begin(), dims.end());
  serial::BinaryWriter w(s);
  w(static_cast<std::uint8_t>(serial::DType::kF64), d64);
}

std::vector<std::byte> dims_blob(const Dimensions& dims) {
  VecSink s;
  write_dims(s, dims);
  return std::move(s.out);
}

void write_scalar(serial::Sink& s, const Value& value) {
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        d::write_blob_header(s, kSer, serial::dtype_of_v<T>,
                             serial::binary_serialized_size(v), {}, {});
        serial::BinaryWriter w(s);
        w(v);
      },
      value);
}

std::uint64_t scalar_meta(const Value& value) {
  return std::visit(
      [](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        return d::pack_meta(d::EntryKind::kScalar, serial::dtype_of_v<T>, kSer);
      },
      value);
}

std::uint32_t crc_of(const EngOp& op) {
  return pmemcpy::crc32c(op.body.data(), op.body.size(),
                         pmemcpy::crc32c(op.head.data(), op.head.size()));
}

/// The engine calls PMEM makes for @p ops (default Config, hashtable
/// layout, no read cache).  @p filler supplies payload-sized bytes for gets
/// of other ranks' pieces (the serial replay only needs their length).
std::vector<EngOp> lower(const Params& p, const std::vector<CoreOp>& ops,
                         std::span<const std::byte> filler) {
  std::vector<EngOp> out;
  const std::size_t hdr0 = d::blob_header_size(kSer, 0);
  auto get = [&](std::string key, bool hit) {
    EngOp e;
    e.kind = EngOp::kGet;
    e.key = std::move(key);
    e.hit = hit;
    return e;
  };
  auto simple = [&](EngOp::Kind k, std::string key = {}) {
    EngOp e;
    e.kind = k;
    e.key = std::move(key);
    out.push_back(std::move(e));
  };
  for (const CoreOp& op : ops) {
    switch (op.kind) {
      case OpKind::kBarrier:
        simple(EngOp::kBarrier);
        break;
      case OpKind::kAlloc: {
        // put_dims: get_dims misses, then a first-writer-wins put.
        out.push_back(get(d::dims_key(op.id), false));
        EngOp e;
        e.kind = EngOp::kPut;
        e.key = d::dims_key(op.id);
        e.head = dims_blob(op.box.count);
        e.meta = d::pack_meta(d::EntryKind::kDims, serial::DType::kF64,
                              serial::SerializerId::kBinary);
        e.keep = true;
        e.head_kind = EngOp::kDimsHead;
        e.box.count = op.box.count;
        e.crc = crc_of(e);
        out.push_back(std::move(e));
        break;
      }
      case OpKind::kStorePiece: {
        // AutoBatch: get_dims hits, the piece stages, the batch publishes.
        simple(EngOp::kBatchBegin);
        EngOp g = get(d::dims_key(op.id), true);
        g.head = dims_blob(p.dec.global);
        g.charge = g.consume = g.head.size();
        g.head_kind = EngOp::kDimsHead;
        g.box.count = p.dec.global;
        out.push_back(std::move(g));
        EngOp e;
        e.kind = EngOp::kBatchPut;
        e.key = d::piece_key(op.id, op.box);
        e.head = piece_head(p, op.box);
        e.body = bytes_of(*op.src, op.box.elements() * sizeof(double));
        e.meta = d::pack_meta(d::EntryKind::kPiece, serial::DType::kF64, kSer);
        e.head_kind = EngOp::kPieceHead;
        e.box = op.box;
        e.crc = crc_of(e);
        out.push_back(std::move(e));
        simple(EngOp::kBatchCommit);
        break;
      }
      case OpKind::kLoadPiece: {
        const std::size_t payload = op.box.elements() * sizeof(double);
        if (!op.plane) {
          // Symmetric fast path: header + payload read, chained CRC.
          EngOp g = get(d::piece_key(op.id, op.box), true);
          g.range = true;
          g.head = piece_head(p, op.box);
          g.body = bytes_of(*op.dst, payload);
          g.consume = payload;
          out.push_back(std::move(g));
          break;
        }
        // General path: miss on the exact key, scan the pieces, and read the
        // intersecting slice of every overlapping piece (whole-blob CRC).
        out.push_back(get(d::piece_key(op.id, op.box), false));
        simple(EngOp::kScan, d::piece_prefix(op.id));
        for (const Box& b : p.dec.rank_boxes) {
          const Box region = pmemcpy::intersect(op.box, b);
          if (region.empty()) continue;
          EngOp g = get(d::piece_key(op.id, b), true);
          g.head = piece_head(p, b);
          g.body = filler.first(b.elements() * sizeof(double));
          g.charge = g.consume = region.elements() * sizeof(double);
          out.push_back(std::move(g));
        }
        break;
      }
      case OpKind::kRemove: {
        simple(EngOp::kErase, op.id);
        simple(EngOp::kErase, d::dims_key(op.id));
        simple(EngOp::kScan, d::piece_prefix(op.id));
        if (p.wl == Workload::kCkptWrite) {
          for (const Box& b : p.dec.rank_boxes) {
            simple(EngOp::kErase, d::piece_key(op.id, b));
          }
        }
        simple(EngOp::kScan, d::attr_prefix(op.id));
        for (const auto& a : op.attrs) {
          simple(EngOp::kErase, d::attr_key(op.id, a));
        }
        break;
      }
      case OpKind::kStoreValue:
      case OpKind::kStoreAttr: {
        EngOp e;
        e.kind = EngOp::kPut;
        e.key = op.kind == OpKind::kStoreAttr ? d::attr_key(op.id, op.attr)
                                              : op.id;
        VecSink s;
        write_scalar(s, op.value);
        e.head = std::move(s.out);
        e.meta = scalar_meta(op.value);
        e.head_kind = EngOp::kScalarHead;
        e.src = &op;
        e.crc = crc_of(e);
        out.push_back(std::move(e));
        break;
      }
      case OpKind::kLoadValue: {
        EngOp g = get(op.id, true);
        VecSink s;
        write_scalar(s, op.value);
        g.head = std::move(s.out);
        g.charge = g.head.size();
        g.consume = g.head.size() - hdr0;
        g.head_kind = EngOp::kScalarHead;
        g.src = &op;
        out.push_back(std::move(g));
        break;
      }
    }
  }
  return out;
}

constexpr int kReplayReps = 3;

[[noreturn]] void fidelity_fail(const std::string& what) {
  throw std::runtime_error("perfbench replay fidelity: " + what);
}

/// Collective fresh node / device for one replay; dropped by release().
pmemcpy::PmemNode& fresh_node(pmemcpy::par::Comm& comm, ReplayShared& sh,
                              const Params& p) {
  comm.barrier();
  if (comm.rank() == 0) sh.node = make_node(p.replay_device_bytes);
  comm.barrier();
  return *sh.node;
}

void release(pmemcpy::par::Comm& comm, ReplayShared& sh) {
  comm.barrier();
  if (comm.rank() == 0) {
    sh.node.reset();
    sh.dev.reset();
  }
  comm.barrier();
}

pmemcpy::engine::PoolEngineOptions engine_options(const std::string& name) {
  // Mirrors PMEM::mmap's translation of the default Config.
  const pmemcpy::Config cfg;
  pmemcpy::engine::PoolEngineOptions o;
  o.name = name;
  o.pool_size = cfg.pool_size;
  o.nbuckets = cfg.nbuckets;
  o.auto_grow = cfg.auto_grow_table;
  o.map_sync = cfg.map_sync;
  o.shards = cfg.shards;
  o.magazine_size = cfg.magazine_size;
  o.alloc_stripes = cfg.alloc_stripes;
  return o;
}

// --- core ------------------------------------------------------------------

void replay_core(pmemcpy::par::Comm& comm, ReplayShared& sh, const Params& p,
                 RankWork& work, std::vector<CoreOp>& step,
                 std::vector<CoreOp>& prepop, ReplayOut& out) {
  auto& node = fresh_node(comm, sh, p);
  {
    pmemcpy::PMEM pm(pmem_config(node));
    pm.mmap(kRegion, comm);
    if (issue_all(pm, comm, prepop, nullptr) != 0) {
      fidelity_fail("core replay could not recreate the step's start state");
    }
    comm.barrier();
    std::vector<double> call_s;
    out.core_bad += issue_all(pm, comm, step, &call_s);
    out.core_bad += work.verify(step);
    for (std::size_t i = 0; i < step.size(); ++i) {
      if (step[i].kind == OpKind::kBarrier) continue;
      out.core_s += call_s[i];
      ++out.core_ops;
    }
    pm.munmap();
  }
  release(comm, sh);
}

// --- engine ----------------------------------------------------------------

struct EngineRun {
  pmemcpy::engine::Engine& eng;
  pmemcpy::par::Comm& comm;
  std::vector<std::byte> scratch;
  std::unique_ptr<pmemcpy::engine::Engine::Batch> batch;

  void put(const EngOp& op, ReplayOut* out) {
    const auto t0 = Clock::now();
    auto h = op.kind == EngOp::kPut ? eng.put(op.key, op.size(), op.meta, op.keep)
                                    : batch->put(op.key, op.size(), op.meta,
                                                 op.keep);
    const double t_put = seconds_since(t0);
    serial::ChecksumSink cs(h->sink());
    cs.write(op.head.data(), op.head.size());
    if (!op.body.empty()) cs.write(op.body.data(), op.body.size());
    h->commit(cs.crc());
    if (out != nullptr) {
      out->engine_put_s += t_put;
      out->engine_s += seconds_since(t0);
      ++out->eng_puts;
      out->eng_put_bytes += op.size();
    }
  }

  void get(const EngOp& op, ReplayOut* out) {
    const auto t0 = Clock::now();
    auto e = eng.find(op.key);
    if ((e != nullptr) != op.hit) fidelity_fail("engine lookup of " + op.key);
    if (e) {
      if (scratch.size() < op.consume) scratch.resize(op.consume);
      std::uint32_t crc = 0;
      if (op.range) {
        const std::size_t hdr = op.head.size();
        e->read(hdr, scratch.data(), op.consume);
        std::vector<std::byte> hb(hdr);
        e->read(0, hb.data(), hdr);
        crc = pmemcpy::crc32c(scratch.data(), op.consume,
                              pmemcpy::crc32c(hb.data(), hdr));
      } else {
        const auto span = e->stored_span(op.charge);
        crc = pmemcpy::crc32c(span.data(), span.size());
        std::memcpy(scratch.data(), span.data() + span.size() - op.consume,
                    op.consume);
      }
      if (crc != d::meta_crc(e->info().meta)) {
        fidelity_fail("engine replay read a corrupt blob: " + op.key);
      }
    }
    if (out != nullptr) {
      const double dt = seconds_since(t0);
      out->engine_get_s += dt;
      out->engine_s += dt;
      ++out->eng_gets;
      out->eng_read_bytes += e ? op.consume : 0;
    }
  }

  void run(const std::vector<EngOp>& ops, ReplayOut* out) {
    for (const EngOp& op : ops) {
      const auto t0 = Clock::now();
      switch (op.kind) {
        case EngOp::kBarrier:
          comm.barrier();
          continue;
        case EngOp::kGet:
          get(op, out);
          continue;
        case EngOp::kPut:
        case EngOp::kBatchPut:
          put(op, out);
          continue;
        case EngOp::kBatchBegin:
          batch = eng.begin_batch();
          break;
        case EngOp::kBatchCommit:
          batch->commit();
          batch.reset();
          if (out != nullptr) out->engine_commit_s += seconds_since(t0);
          break;
        case EngOp::kErase:
          (void)eng.erase(op.key);
          break;
        case EngOp::kScan:
          eng.for_each_prefix(op.key, [](const std::string&,
                                         const pmemcpy::engine::EntryInfo&) {});
          break;
      }
      if (out != nullptr) out->engine_s += seconds_since(t0);
    }
  }
};

void replay_engine(pmemcpy::par::Comm& comm, ReplayShared& sh, const Params& p,
                   const std::vector<EngOp>& step,
                   const std::vector<EngOp>& prepop, ReplayOut& out) {
  auto& node = fresh_node(comm, sh, p);
  {
    auto eng = pmemcpy::engine::open_pool_engine(node, engine_options(kRegion),
                                                 &comm);
    EngineRun run{*eng, comm, {}, nullptr};
    run.run(prepop, nullptr);
    comm.barrier();
    run.run(step, &out);
    comm.barrier();
  }
  release(comm, sh);
}

// --- pmemobj -----------------------------------------------------------------

void run_obj(pmemcpy::obj::HashTable& ht, pmemcpy::par::Comm& comm,
             const std::vector<EngOp>& ops, ReplayOut* out) {
  std::vector<pmemcpy::obj::HashTable::Inserter> staged;
  for (const EngOp& op : ops) {
    if (op.kind == EngOp::kBarrier) {
      comm.barrier();
      continue;
    }
    const auto t0 = Clock::now();
    switch (op.kind) {
      case EngOp::kGet: {
        const auto ref = ht.find(op.key);
        if (out != nullptr) {
          out->obj_find_us.push_back(seconds_since(t0) * 1e6);
          ++out->obj_finds;
        }
        if (ref.has_value() != op.hit) fidelity_fail("table lookup of " + op.key);
        if (ref) (void)ht.value_direct(*ref);
        break;
      }
      case EngOp::kPut: {
        auto ins = ht.reserve(op.key, op.size(), op.meta);
        (void)ins.value();
        ins.set_meta_high(op.crc);
        (void)ins.publish(op.keep);
        if (out != nullptr) ++out->obj_reserves;
        break;
      }
      case EngOp::kBatchPut: {
        staged.push_back(ht.reserve(op.key, op.size(), op.meta));
        (void)staged.back().value();
        staged.back().set_meta_high(op.crc);
        staged.back().close_checker_scope();
        if (out != nullptr) ++out->obj_reserves;
        break;
      }
      case EngOp::kBatchCommit: {
        std::vector<pmemcpy::obj::HashTable::GroupPut> group;
        for (auto& ins : staged) group.push_back({&ins, false, false});
        ht.publish_group(group);
        staged.clear();
        if (out != nullptr) out->obj_publish_group_s += seconds_since(t0);
        break;
      }
      case EngOp::kErase:
        (void)ht.erase(op.key);
        break;
      case EngOp::kScan:
        ht.for_each_prefix(op.key, [](std::string_view,
                                      const pmemcpy::obj::ValueRef&) {});
        break;
      case EngOp::kBatchBegin:
      case EngOp::kBarrier:
        break;
    }
    if (out != nullptr) out->obj_s += seconds_since(t0);
  }
}

void replay_obj(pmemcpy::par::Comm& comm, ReplayShared& sh, const Params& p,
                const std::vector<EngOp>& step,
                const std::vector<EngOp>& prepop, ReplayOut& out) {
  {
    auto& node = fresh_node(comm, sh, p);
    // The engine open creates and tunes the pool exactly as PMEM::mmap
    // does; the replay then drives the shared pool/table instances.
    auto eng = pmemcpy::engine::open_pool_engine(node, engine_options(kRegion),
                                                 &comm);
    auto pool = node.open_pool(kRegion);
    auto ht = node.table_for(pool, pool->root());
    run_obj(*ht, comm, prepop, nullptr);
    comm.barrier();
    run_obj(*ht, comm, step, &out);
    comm.barrier();
  }
  release(comm, sh);
  {
    // Allocator alone: every blob the step puts, then every free.
    auto& node = fresh_node(comm, sh, p);
    auto eng = pmemcpy::engine::open_pool_engine(
        node, engine_options("alloc-probe"), &comm);
    auto pool = node.open_pool("alloc-probe");
    std::vector<std::uint64_t> offs;
    comm.barrier();
    for (const EngOp& op : step) {
      if (op.kind != EngOp::kPut && op.kind != EngOp::kBatchPut) continue;
      const auto t0 = Clock::now();
      offs.push_back(pool->alloc(op.size()));
      out.obj_alloc_us.push_back(seconds_since(t0) * 1e6);
    }
    for (const auto off : offs) {
      const auto t0 = Clock::now();
      pool->free(off);
      out.obj_free_us.push_back(seconds_since(t0) * 1e6);
    }
    comm.barrier();
  }
  release(comm, sh);
}

// --- serial ----------------------------------------------------------------

void encode(const Params& p, const EngOp& op) {
  serial::SizingSink s;
  switch (op.head_kind) {
    case EngOp::kPieceHead:
      d::write_blob_header(s, kSer, serial::DType::kF64,
                           op.box.elements() * sizeof(double), p.dec.global,
                           op.box);
      break;
    case EngOp::kDimsHead:
      write_dims(s, op.box.count);
      break;
    case EngOp::kScalarHead:
      write_scalar(s, op.src->value);
      break;
    case EngOp::kRawHead:
      break;
  }
  if (s.tell() != op.head.size()) fidelity_fail("encode size of " + op.key);
}

void decode(const EngOp& op) {
  const std::size_t hdr0 = d::blob_header_size(kSer, 0);
  if (op.head_kind == EngOp::kDimsHead) {
    serial::SpanSource src(op.head);
    serial::BinaryReader r(src);
    std::uint8_t dt = 0;
    std::vector<std::uint64_t> d64;
    r(dt, d64);
  } else if (op.head_kind == EngOp::kScalarHead) {
    serial::SpanSource src(std::span<const std::byte>(op.head).subspan(hdr0));
    serial::BinaryReader r(src);
    std::visit(
        [&](const auto& expect) {
          std::decay_t<decltype(expect)> v{};
          r(v);
        },
        op.src->value);
  }
}

void replay_serial(const Params& p, const std::vector<EngOp>& step,
                   ReplayOut& out) {
  for (const EngOp& op : step) {
    const bool put = op.kind == EngOp::kPut || op.kind == EngOp::kBatchPut;
    if (!put && !(op.kind == EngOp::kGet && op.hit)) continue;
    auto t0 = Clock::now();
    const std::size_t body = op.range ? op.consume : op.body.size();
    out.crc_fold ^= pmemcpy::crc32c(op.body.data(), body,
                            pmemcpy::crc32c(op.head.data(), op.head.size()));
    out.crc_s += seconds_since(t0);
    out.crc_bytes += op.head.size() + body;
    if (put) out.crc_put_bytes += op.size();
    t0 = Clock::now();
    if (put) {
      encode(p, op);
    } else {
      decode(op);
    }
    out.enc_s += seconds_since(t0);
  }
}

// --- pmemdev ---------------------------------------------------------------

void replay_dev(pmemcpy::par::Comm& comm, ReplayShared& sh, const Params& p,
                const std::vector<EngOp>& step, ReplayOut& out) {
  comm.barrier();
  if (comm.rank() == 0) {
    sh.dev = std::make_unique<pmemcpy::pmem::Device>(p.replay_device_bytes);
  }
  comm.barrier();
  auto& dev = *sh.dev;
  const std::size_t region =
      p.replay_device_bytes / static_cast<std::size_t>(comm.size()) / 4096 * 4096;
  const std::size_t base = region * static_cast<std::size_t>(comm.rank());
  std::size_t cursor = 0;
  auto place = [&](std::size_t len) {
    if (cursor + len > region) cursor = 0;
    const std::size_t off = base + cursor;
    cursor += (len + 63) / 64 * 64;
    return off;
  };
  std::vector<std::byte> scratch;
  std::vector<std::pair<std::size_t, std::size_t>> pending;
  auto persist = [&] {
    const auto t0 = Clock::now();
    for (const auto& [off, len] : pending) dev.flush(off, len);
    dev.drain();
    out.dev_persist_s += seconds_since(t0);
    pending.clear();
  };
  for (const EngOp& op : step) {
    if (op.kind == EngOp::kPut || op.kind == EngOp::kBatchPut) {
      const std::size_t off = place(op.size());
      const auto t0 = Clock::now();
      dev.write(off, op.head.data(), op.head.size());
      if (!op.body.empty()) {
        dev.write(off + op.head.size(), op.body.data(), op.body.size());
      }
      out.dev_write_s += seconds_since(t0);
      out.dev_written += op.size();
      pending.emplace_back(off, op.size());
      if (op.kind == EngOp::kPut) persist();
    } else if (op.kind == EngOp::kBatchCommit) {
      persist();
    } else if (op.kind == EngOp::kGet && op.hit) {
      const std::size_t hdr = op.range ? op.head.size() : 0;
      const std::size_t off = place(hdr + op.consume);
      if (scratch.size() < hdr + op.consume) scratch.resize(hdr + op.consume);
      const auto t0 = Clock::now();
      if (hdr > 0) dev.read(off, scratch.data(), hdr);
      dev.read(off + hdr, scratch.data() + hdr, op.consume);
      out.dev_read_s += seconds_since(t0);
      out.dev_read += op.consume;
    }
  }
  out.dev_copy_s = out.dev_write_s + out.dev_read_s;

  // Small-op contention: 64 B checked stores, rank 0 alone, then all ranks.
  constexpr std::size_t kSmallOps = 20000;
  const std::byte line[64] = {};
  auto small_run = [&] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kSmallOps; ++i) {
      dev.write(base + (i * 64) % region, line, sizeof(line));
    }
    return seconds_since(t0) * 1e9 / kSmallOps;
  };
  comm.barrier();
  if (comm.rank() == 0) out.small_solo_ns = small_run();
  comm.barrier();
  out.small_conc_ns = small_run();
  comm.barrier();
  release(comm, sh);
}

}  // namespace

void run_replays(pmemcpy::par::Comm& comm, ReplayShared& sh, const Params& p,
                 RankWork& work, std::vector<CoreOp>& step,
                 std::vector<CoreOp>& prepop, ReplayOut& out) {
  // Payload-sized filler for gets of other ranks' pieces: any of this
  // rank's piece-sized buffers.
  std::span<const std::byte> filler;
  for (const auto* ops : {&step, &prepop}) {
    for (const CoreOp& op : *ops) {
      const auto* buf = op.src != nullptr ? op.src : op.dst;
      if (buf != nullptr && !op.plane) {
        filler = bytes_of(*buf, buf->size() * sizeof(double));
      }
    }
  }
  const auto low_step = lower(p, step, filler);
  const auto low_prepop = lower(p, prepop, filler);

  // Each replay is repeated; times are the median over the repetitions,
  // the replayed work must be identical in every one.
  std::vector<ReplayOut> reps(kReplayReps);
  for (auto& r : reps) {
    replay_core(comm, sh, p, work, step, prepop, r);
    replay_engine(comm, sh, p, low_step, low_prepop, r);
    replay_obj(comm, sh, p, low_step, low_prepop, r);
    replay_serial(p, low_step, r);
    replay_dev(comm, sh, p, low_step, r);
  }
  out = reps[0];
  for (double ReplayOut::*f :
       {&ReplayOut::core_s, &ReplayOut::engine_s, &ReplayOut::obj_s,
        &ReplayOut::enc_s, &ReplayOut::crc_s, &ReplayOut::dev_copy_s,
        &ReplayOut::dev_persist_s, &ReplayOut::engine_put_s,
        &ReplayOut::engine_commit_s, &ReplayOut::engine_get_s,
        &ReplayOut::obj_publish_group_s, &ReplayOut::dev_write_s,
        &ReplayOut::dev_read_s, &ReplayOut::small_solo_ns,
        &ReplayOut::small_conc_ns}) {
    std::vector<double> v;
    for (const auto& r : reps) v.push_back(r.*f);
    std::sort(v.begin(), v.end());
    out.*f = v[v.size() / 2];
  }
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const auto& r = reps[i];
    for (std::vector<double> ReplayOut::*list :
         {&ReplayOut::obj_find_us, &ReplayOut::obj_alloc_us,
                       &ReplayOut::obj_free_us}) {
      (out.*list).insert((out.*list).end(), (r.*list).begin(), (r.*list).end());
    }
    for (std::uint64_t ReplayOut::*f :
         {&ReplayOut::core_ops, &ReplayOut::eng_puts, &ReplayOut::eng_gets,
          &ReplayOut::eng_put_bytes, &ReplayOut::eng_read_bytes,
          &ReplayOut::obj_reserves, &ReplayOut::obj_finds,
          &ReplayOut::crc_put_bytes, &ReplayOut::crc_bytes,
          &ReplayOut::dev_written, &ReplayOut::dev_read}) {
      if (r.*f != out.*f) fidelity_fail("repetitions replayed different work");
    }
    out.core_bad += r.core_bad;
  }
}

}  // namespace pb
