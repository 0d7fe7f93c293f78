#include "common/crc32.h"

#include <array>

#include "common/crc32_detail.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace fobs::util {

namespace {

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kTable = make_table();

/// Advances the raw (inverted) CRC state `c` over `len` bytes, one
/// table lookup per byte.
std::uint32_t byte_loop(std::uint32_t c, const std::uint8_t* p, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

// Folding constants for the reflected polynomial, after Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
// (Intel, 2009). Each kN is x^n mod P, bit-reflected and shifted left
// by one: k1 = x^544 and k2 = x^480 fold a lane 512 bits ahead, k3 =
// x^160 and k4 = x^96 fold 128 bits ahead, k5 = x^64 folds 64 bits
// into 32. Barrett reduction uses P itself and mu = floor(x^64 / P),
// both reflected to 33 bits.
constexpr long long kK1 = 0x154442bd4, kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0, kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kPolyReflected = 0x1db710641, kMu = 0x1f7011641;

/// One 128-bit fold: carries `acc` forward by the distance the constant
/// pair `k` encodes (k's low qword multiplies acc's low half, its high
/// qword acc's high half) and xors in the block `next` found there.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i acc, __m128i k,
                                                             __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advances the raw CRC state `c` over `len` bytes; `len` must be at
/// least 64 and a multiple of 16.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_pclmul(std::uint32_t c,
                                                                   const std::uint8_t* p,
                                                                   std::size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPolyReflected);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four independent 128-bit lanes, 64 bytes per step.
  __m128i x0 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
    x0 = fold(x0, k1k2, load128(p));
    x1 = fold(x1, k1k2, load128(p + 16));
    x2 = fold(x2, k1k2, load128(p + 32));
    x3 = fold(x3, k1k2, load128(p + 48));
  }

  // Lanes into one, then the remaining 16-byte blocks.
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; len >= 16; p += 16, len -= 16) {
    x0 = fold(x0, k3k4, load128(p));
  }

  // 128 -> 64 bits, then 64 -> 32.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif  // __x86_64__

}  // namespace

namespace detail {

std::uint32_t crc32_portable(const std::uint8_t* data, std::size_t len, std::uint32_t seed) {
  return ~byte_loop(~seed, data, len);
}

bool crc32_pclmul_supported() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

std::uint32_t crc32_pclmul(const std::uint8_t* data, std::size_t len, std::uint32_t seed) {
  std::uint32_t c = ~seed;
#if defined(__x86_64__)
  if (len >= 64) {
    const std::size_t folded = len & ~std::size_t{15};
    c = fold_pclmul(c, data, folded);
    data += folded;
    len -= folded;
  }
#endif
  return ~byte_loop(c, data, len);
}

}  // namespace detail

std::uint32_t crc32(const std::uint8_t* data, std::size_t len, std::uint32_t seed) {
  static const bool use_pclmul = detail::crc32_pclmul_supported();
  return use_pclmul ? detail::crc32_pclmul(data, len, seed)
                    : detail::crc32_portable(data, len, seed);
}

}  // namespace fobs::util
