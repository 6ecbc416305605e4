// Equivalence proof for the CRC32C kernels (the dispatched crc32c(), the
// portable slicing-by-8 kernel and, on x86-64 CPUs with SSE4.2 + PCLMULQDQ,
// the three-stream hardware kernel): bit-identical to the byte-at-a-time
// reference on arbitrary buffers, alignments, chain splits, and the standard
// check vectors.
#include <pmemcpy/crc32c.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace {

using pmemcpy::crc32c;
using pmemcpy::crc32c_reference;

/// splitmix64 — deterministic buffer filler, no <random> state to drag in.
std::uint64_t mix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t x = s;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<unsigned char> v(n);
  std::uint64_t s = seed;
  for (auto& b : v) b = static_cast<unsigned char>(mix(s));
  return v;
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 §B.4: CRC32C("123456789") = 0xE3069283.
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(crc32c_reference(digits, 9), 0xE3069283u);
  // 32 zero bytes = 0x8A9136AA; 32 0xFF bytes = 0x62A8AB43 (same appendix).
  std::vector<unsigned char> zeros(32, 0x00), ones(32, 0xFF);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, MatchesReferenceOnArbitraryLengths) {
  // Every length 0..257 crosses the head-alignment loop, the 8-byte main
  // loop, and the tail in all combinations at least once.
  for (std::size_t len = 0; len <= 257; ++len) {
    const auto buf = random_bytes(len, 0xC0FFEEull + len);
    ASSERT_EQ(crc32c(buf.data(), len), crc32c_reference(buf.data(), len))
        << "len=" << len;
  }
}

TEST(Crc32c, MatchesReferenceOnEveryAlignment) {
  // Same bytes viewed at each offset within a 16-byte window: the sliced
  // kernel's alignment prologue must not change the answer.
  const auto backing = random_bytes(4096 + 16, 0xA11CEull);
  for (std::size_t off = 0; off < 16; ++off) {
    const unsigned char* p = backing.data() + off;
    ASSERT_EQ(crc32c(p, 4096), crc32c_reference(p, 4096)) << "off=" << off;
  }
}

TEST(Crc32c, ChainingSplitsAreSeamless) {
  // crc32c(whole) == crc32c(tail, crc32c(head)) for every split point of a
  // buffer that exercises both kernels, against both implementations.
  const auto buf = random_bytes(300, 0xDEADull);
  const std::uint32_t whole = crc32c_reference(buf.data(), buf.size());
  EXPECT_EQ(crc32c(buf.data(), buf.size()), whole);
  for (std::size_t cut = 0; cut <= buf.size(); cut += 7) {
    const std::uint32_t head = crc32c(buf.data(), cut);
    ASSERT_EQ(crc32c(buf.data() + cut, buf.size() - cut, head), whole)
        << "cut=" << cut;
    const std::uint32_t rhead = crc32c_reference(buf.data(), cut);
    ASSERT_EQ(
        crc32c_reference(buf.data() + cut, buf.size() - cut, rhead), whole)
        << "cut=" << cut;
  }
}

TEST(Crc32c, LargeBufferFuzz) {
  // A few big buffers with different seeds; any table-derivation bug that
  // somehow survived the short-length sweep shows up here.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto buf = random_bytes(1 << 16, seed);
    ASSERT_EQ(crc32c(buf.data(), buf.size()),
              crc32c_reference(buf.data(), buf.size()))
        << "seed=" << seed;
  }
}

TEST(Crc32c, SensitivityToSingleBitFlips) {
  // Sanity on the error-detection story the integrity layer leans on: any
  // single-bit flip in a small record changes the checksum.
  auto buf = random_bytes(64, 0xBEEFull);
  const std::uint32_t base = crc32c(buf.data(), buf.size());
  for (std::size_t bit = 0; bit < 64 * 8; ++bit) {
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    ASSERT_NE(crc32c(buf.data(), buf.size()), base) << "bit=" << bit;
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
}

/// One kernel under test, called directly (not through the dispatcher).
struct Kernel {
  const char* name;
  std::uint32_t (*fn)(const void*, std::size_t, std::uint32_t);
};

class Crc32cKernel : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
#if defined(PMEMCPY_CRC32C_HW)
    if (GetParam().fn == &pmemcpy::detail_crc::crc32c_hw &&
        !pmemcpy::detail_crc::hw_supported()) {
      GTEST_SKIP() << "CPU lacks SSE4.2/PCLMULQDQ";
    }
#endif
  }
  std::uint32_t crc(const void* p, std::size_t n, std::uint32_t c = 0) const {
    return GetParam().fn(p, n, c);
  }
};

/// Bytes per block of the hardware kernel: three interleaved 4 KiB streams.
constexpr std::size_t kBlock = 3 * 4096;

TEST_P(Crc32cKernel, KnownVectors) {
  // RFC 3720 §B.4.
  const char digits[] = "123456789";
  EXPECT_EQ(crc(digits, 9), 0xE3069283u);
  std::vector<unsigned char> zeros(32, 0x00), ones(32, 0xFF), inc(32), dec(32);
  for (std::size_t i = 0; i < 32; ++i) {
    inc[i] = static_cast<unsigned char>(i);
    dec[i] = static_cast<unsigned char>(31 - i);
  }
  EXPECT_EQ(crc(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(crc(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(crc(inc.data(), inc.size()), 0x46DD794Eu);
  EXPECT_EQ(crc(dec.data(), dec.size()), 0x113FDB5Cu);
  EXPECT_EQ(crc(nullptr, 0), 0u);
}

TEST_P(Crc32cKernel, LengthsAroundTheBlockEdge) {
  // One byte short of, exactly at and one past one, two and three blocks,
  // plus one 12.5 MiB put-sized buffer, at an odd start so the alignment
  // prologue runs too.
  const auto buf = random_bytes(13107213 + 1, 0xB10Cull);
  const unsigned char* p = buf.data() + 1;
  for (std::size_t blocks = 1; blocks <= 3; ++blocks) {
    for (std::size_t len : {blocks * kBlock - 1, blocks * kBlock,
                            blocks * kBlock + 1}) {
      ASSERT_EQ(crc(p, len, 0x5EEDu), crc32c_reference(p, len, 0x5EEDu))
          << "len=" << len;
    }
  }
  ASSERT_EQ(crc(p, 13107213), crc32c_reference(p, 13107213));
}

TEST_P(Crc32cKernel, MatchesReferenceOnEveryAlignment) {
  const auto backing = random_bytes((64 << 10) + 16, 0xA11C3ull);
  for (std::size_t off = 0; off < 16; ++off) {
    const unsigned char* p = backing.data() + off;
    ASSERT_EQ(crc(p, 64 << 10), crc32c_reference(p, 64 << 10))
        << "off=" << off;
  }
}

TEST_P(Crc32cKernel, ChainSplitsAcrossBlockBoundaries) {
  // Split points on, next to and between block edges: the second piece
  // starts mid-stream, so the chained state feeds a fresh block loop.
  const auto buf = random_bytes(3 * kBlock + 100, 0xC4A1Eull);
  const std::uint32_t whole = crc32c_reference(buf.data(), buf.size());
  ASSERT_EQ(crc(buf.data(), buf.size()), whole);
  for (std::size_t cut : {std::size_t{1}, std::size_t{4095}, std::size_t{4096},
                          kBlock - 1, kBlock, kBlock + 1, kBlock + 4097,
                          2 * kBlock - 7, 2 * kBlock, 3 * kBlock,
                          buf.size() - 1}) {
    const std::uint32_t head = crc(buf.data(), cut);
    ASSERT_EQ(crc(buf.data() + cut, buf.size() - cut, head), whole)
        << "cut=" << cut;
  }
}

TEST_P(Crc32cKernel, ShortLengths) {
  for (std::size_t len = 0; len <= 257; ++len) {
    const auto buf = random_bytes(len, 0x5107ull + len);
    ASSERT_EQ(crc(buf.data(), len), crc32c_reference(buf.data(), len))
        << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32cKernel,
    ::testing::Values(
#if defined(PMEMCPY_CRC32C_HW)
        Kernel{"Hardware", &pmemcpy::detail_crc::crc32c_hw},
#endif
        Kernel{"Portable", &pmemcpy::detail_crc::crc32c_portable}),
    [](const ::testing::TestParamInfo<Kernel>& info) {
      return std::string(info.param.name);
    });

}  // namespace
