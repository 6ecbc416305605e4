// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// The integrity layer checksums pool headers, chunk headers and dataset
// payloads with CRC32C — the same polynomial PMDK and most storage stacks
// use, chosen for its error-detection properties on small metadata records.
// Two kernels, picked once per process at run time:
//  * x86-64 with SSE4.2 and PCLMULQDQ: the CRC32 instruction on three
//    interleaved 4 KiB streams (it has a three-cycle latency and a one-cycle
//    issue rate, so three independent chains keep it busy), the partial CRCs
//    of each 12 KiB block joined by carry-less multiplies;
//  * everywhere else: portable slicing-by-8 (eight derived tables, one 64-bit
//    load per iteration).
// Both are bit-identical to the byte-at-a-time reference.  The real cost of
// a checksum pass is charged on the simulated clock by the callers that move
// the bytes, so the kernel choice changes host time only, never a simulated
// number.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PMEMCPY_CRC32C_HW 1
#include <immintrin.h>
#endif

namespace pmemcpy {

namespace detail_crc {

/// The reflected polynomial: x^32 mod P in the CRC's bit order.
inline constexpr std::uint32_t kPoly = 0x82F63B78u;

inline constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

inline constexpr auto kCrc32cTable = make_crc32c_table();

/// Slicing-by-8 tables: table[j][b] is the CRC contribution of byte b seen
/// j+1 positions before the end of an 8-byte group.  Table 0 is the classic
/// byte-at-a-time table; each further table shifts the previous one through
/// eight more zero bits of the message.
inline constexpr std::array<std::array<std::uint32_t, 256>, 8>
make_crc32c_slices() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  t[0] = make_crc32c_table();
  for (std::size_t j = 1; j < 8; ++j) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[j][i] = t[0][t[j - 1][i] & 0xFFu] ^ (t[j - 1][i] >> 8);
    }
  }
  return t;
}

inline constexpr auto kCrc32cSlices = make_crc32c_slices();

/// Reference byte-at-a-time kernel, kept for the equivalence test and for
/// the sub-8-byte head/tail of the sliced path.  Operates on the internal
/// (pre-inverted) CRC state.
inline std::uint32_t crc32c_bytes(std::uint32_t c, const unsigned char* p,
                                  std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    c = kCrc32cTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

/// Portable slicing-by-8 kernel; same contract as crc32c().
inline std::uint32_t crc32c_portable(const void* data, std::size_t len,
                                     std::uint32_t crc = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
  // Align to 8 so the main loop's loads never straddle the buffer start.
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c = kCrc32cTable[(c ^ *p++) & 0xFFu] ^ (c >> 8);
    --len;
  }
  while (len >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    word ^= c;  // fold the running CRC into the low 4 bytes (little-endian)
    c = kCrc32cSlices[7][word & 0xFFu] ^
        kCrc32cSlices[6][(word >> 8) & 0xFFu] ^
        kCrc32cSlices[5][(word >> 16) & 0xFFu] ^
        kCrc32cSlices[4][(word >> 24) & 0xFFu] ^
        kCrc32cSlices[3][(word >> 32) & 0xFFu] ^
        kCrc32cSlices[2][(word >> 40) & 0xFFu] ^
        kCrc32cSlices[1][(word >> 48) & 0xFFu] ^
        kCrc32cSlices[0][(word >> 56) & 0xFFu];
    p += 8;
    len -= 8;
  }
  return ~crc32c_bytes(c, p, len);
}

#if defined(PMEMCPY_CRC32C_HW)

/// Bytes per stream in one block of the hardware kernel (three streams).
inline constexpr std::size_t kHwStream = 4096;

/// x^n mod P in the CRC's reflected bit order (bit 31 is x^0).
inline constexpr std::uint32_t xpow_mod(std::size_t n) {
  std::uint32_t v = 0x80000000u;
  for (std::size_t i = 0; i < n; ++i) v = (v >> 1) ^ ((v & 1u) ? kPoly : 0u);
  return v;
}

/// Shift constants for the block join.  In reflected order a carry-less
/// product of two 32-bit values is A*B*x, and CRC32 of a 64-bit word U from
/// a zero state is U*x^32 mod P; so CRC32(clmul(c, x^(8n-33))) is the state
/// c advanced over n zero bytes.
inline constexpr std::uint32_t kShift1 = xpow_mod(8 * kHwStream - 33);
inline constexpr std::uint32_t kShift2 = xpow_mod(16 * kHwStream - 33);

/// True when this CPU runs crc32c_hw() (checked once per process).
inline bool hw_supported() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") &&
           __builtin_cpu_supports("pclmul");
  }();
  return ok;
}

/// Hardware kernel; same contract as crc32c().  Only call it when
/// hw_supported() is true.
__attribute__((target("sse4.2,pclmul"))) inline std::uint32_t crc32c_hw(
    const void* data, std::size_t len, std::uint32_t crc = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = ~crc;
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
    --len;
  }
  const __m128i shifts = _mm_set_epi64x(kShift1, kShift2);
  while (len >= 3 * kHwStream) {
    // Streams 1 and 2 start from a zero state; by linearity the block's CRC
    // is shift(c0, 2 streams) ^ shift(c1, 1 stream) ^ c2.
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kHwStream; i += 8) {
      std::uint64_t w0, w1, w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + kHwStream + i, 8);
      std::memcpy(&w2, p + 2 * kHwStream + i, 8);
      c = _mm_crc32_u64(c, w0);
      c1 = _mm_crc32_u64(c1, w1);
      c2 = _mm_crc32_u64(c2, w2);
    }
    const __m128i parts = _mm_set_epi64x(static_cast<long long>(c1),
                                         static_cast<long long>(c));
    const __m128i joined = _mm_xor_si128(
        _mm_clmulepi64_si128(parts, shifts, 0x00),
        _mm_clmulepi64_si128(parts, shifts, 0x11));
    c = _mm_crc32_u64(0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(joined))) ^
        c2;
    p += 3 * kHwStream;
    len -= 3 * kHwStream;
  }
  while (len >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
    --len;
  }
  return ~static_cast<std::uint32_t>(c);
}

#endif  // PMEMCPY_CRC32C_HW

}  // namespace detail_crc

/// CRC32C of @p len bytes at @p data, chained from @p crc (pass the previous
/// call's result to checksum a logically contiguous byte stream in pieces).
inline std::uint32_t crc32c(const void* data, std::size_t len,
                            std::uint32_t crc = 0) {
#if defined(PMEMCPY_CRC32C_HW)
  if (detail_crc::hw_supported()) return detail_crc::crc32c_hw(data, len, crc);
#endif
  return detail_crc::crc32c_portable(data, len, crc);
}

/// Reference implementation (byte-at-a-time), exported so the test suite can
/// prove both kernels bit-identical on arbitrary buffers and chains.
inline std::uint32_t crc32c_reference(const void* data, std::size_t len,
                                      std::uint32_t crc = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  return ~detail_crc::crc32c_bytes(~crc, p, len);
}

}  // namespace pmemcpy
