// ABL-FILTER: transparent compression on the Figure-6 workload at 24 procs.
// Filters trade an extra DRAM encode/decode pass for fewer bytes through
// the 8 GB/s PMEM write channel, so the win depends entirely on the data:
//   zeros   — fully compressible (RLE collapses it)
//   smooth  — monotone field (delta-varint shrinks it well)
//   random  — incompressible (filters are pure overhead)
#include "figures_common.hpp"

#include <random>

namespace {

using namespace figbench;
using pmemcpy::serial::FilterId;

enum class DataKind { kZeros, kSmooth, kRandom };

const char* kind_name(DataKind k) {
  switch (k) {
    case DataKind::kZeros: return "zeros";
    case DataKind::kSmooth: return "smooth";
    case DataKind::kRandom: return "random";
  }
  return "?";
}

void fill(DataKind kind, std::vector<double>& buf, std::size_t elems,
          unsigned seed) {
  buf.resize(elems);
  switch (kind) {
    case DataKind::kZeros:
      std::fill(buf.begin(), buf.end(), 0.0);
      break;
    case DataKind::kSmooth:
      for (std::size_t i = 0; i < elems; ++i) {
        buf[i] = 1e6 + static_cast<double>(i);
      }
      break;
    case DataKind::kRandom: {
      std::mt19937_64 rng(seed);
      for (auto& v : buf) {
        v = static_cast<double>(rng()) / 1e6;
      }
      break;
    }
  }
}

/// Device bytes stored so far (the trace counter; tracing is on in main()).
std::uint64_t device_bytes() {
  return pmemcpy::trace::counter(pmemcpy::trace::Counter::kBytesWritten);
}

struct Result {
  double write_s = 0, read_s = 0;
  std::uint64_t device_bytes = 0;
};

Result run(FilterId filter, DataKind kind, const wk::Decomposition& dec,
           int nvars, int nranks) {
  const std::size_t bytes = dec.total_elements() * sizeof(double) *
                            static_cast<std::size_t>(nvars);
  // Worst case: RLE on incompressible data doubles the payload.
  auto node = make_node(IoLib::kPmcpyA, bytes * 2 + (64ull << 20));
  Result out;
  const auto before = device_bytes();
  auto wr = pmemcpy::par::Runtime::run(nranks, [&](pmemcpy::par::Comm& comm) {
    const Box& mine = dec.rank_boxes[static_cast<std::size_t>(comm.rank())];
    pmemcpy::Config cfg;
    cfg.node = node.get();
    cfg.filter = filter;
    pmemcpy::PMEM pmem{cfg};
    pmem.mmap("/flt.pmem", comm);
    std::vector<double> buf;
    for (int v = 0; v < nvars; ++v) {
      fill(kind, buf, mine.elements(),
           static_cast<unsigned>(v * 1000 + comm.rank()));
      pmem.alloc<double>(var_name(v), dec.global);
      pmem.store(var_name(v), buf.data(), 3, mine.offset.data(),
                 mine.count.data());
    }
    pmem.munmap();
  });
  out.write_s = wr.max_time;
  out.device_bytes = device_bytes() - before;
  auto rd = pmemcpy::par::Runtime::run(nranks, [&](pmemcpy::par::Comm& comm) {
    const Box& mine = dec.rank_boxes[static_cast<std::size_t>(comm.rank())];
    pmemcpy::Config cfg;
    cfg.node = node.get();
    pmemcpy::PMEM pmem{cfg};
    pmem.mmap("/flt.pmem", comm);
    std::vector<double> buf(mine.elements());
    for (int v = 0; v < nvars; ++v) {
      pmem.load(var_name(v), buf.data(), 3, mine.offset.data(),
                mine.count.data());
    }
    pmem.munmap();
  });
  out.read_s = rd.max_time;
  return out;
}

}  // namespace

int main() {
  pmemcpy::trace::set_enabled(true);
  Params p = params_from_env();
  constexpr int kProcs = 24;
  const auto dec = wk::decompose(p.elems_per_var(), kProcs);
  std::printf("ablation_filters: %.3f GiB at %d procs\n", p.gib, kProcs);
  std::printf("%-8s %-8s %12s %12s %14s\n", "data", "filter", "write(s)",
              "read(s)", "device MiB");

  for (const DataKind kind :
       {DataKind::kZeros, DataKind::kSmooth, DataKind::kRandom}) {
    for (const FilterId f :
         {FilterId::kNone, FilterId::kRle, FilterId::kDelta}) {
      const Result r = run(f, kind, dec, p.nvars, kProcs);
      std::printf("%-8s %-8s %12.4f %12.4f %14.1f\n", kind_name(kind),
                  pmemcpy::serial::filter_name(f), r.write_s, r.read_s,
                  static_cast<double>(r.device_bytes) / (1 << 20));
      std::fflush(stdout);
    }
  }
  std::printf("\nExpected shape: filters win when the data compresses (fewer "
              "bytes through the 8 GB/s device than the encode pass costs) "
              "and lose on random data (pure overhead) — the classic "
              "compression trade the HCompress line studies.\n");
  return 0;
}
