#include "common/crc32.h"

#include <array>
#include <atomic>
#include <cstring>

#if defined(DECIBEL_HAVE_PCLMUL_TARGET)
#include <immintrin.h>
#endif

namespace decibel {

namespace {

std::atomic<bool> g_force_scalar{false};

/// Slice-by-8 lookup tables: t[0] is the classic byte-at-a-time table;
/// t[j][b] is the CRC of byte b followed by j zero bytes, letting the hot
/// loop fold 8 input bytes per iteration instead of 1.
struct Crc32Tables {
  std::array<std::array<uint32_t, 256>, 8> t;
};

Crc32Tables MakeTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables.t[0][i];
    for (int j = 1; j < 8; ++j) {
      c = tables.t[0][c & 0xff] ^ (c >> 8);
      tables.t[j][i] = c;
    }
  }
  return tables;
}

/// Advances the raw (pre-inverted) CRC register \p c over \p n bytes.
uint32_t SliceBy8(const uint8_t* p, size_t n, uint32_t c) {
  static const Crc32Tables kTables = MakeTables();
  const auto& t = kTables.t;
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // Fold 8 bytes per iteration (slice-by-8). The word loads fold into the
  // running CRC in little-endian byte order; big-endian targets take the
  // bytewise tail loop below for everything.
  while (n >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    c ^= lo;
    c = t[7][c & 0xff] ^ t[6][(c >> 8) & 0xff] ^ t[5][(c >> 16) & 0xff] ^
        t[4][c >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  return c;
}

#if defined(DECIBEL_HAVE_PCLMUL_TARGET)

bool CpuHasPclmul() {
  static const bool has = __builtin_cpu_supports("pclmul") &&
                          __builtin_cpu_supports("sse4.1");
  return has;
}

inline __m128i Load128(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One fold step: both 64-bit halves of \p acc carried forward by the
/// constant pair \p k, plus the next 128-bit block.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold128(
    __m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Carry-less multiplication folding (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) in
/// the bit-reflected domain of the IEEE polynomial. Four 128-bit lanes
/// fold 64 bytes per iteration, collapse into one lane, fold any
/// remaining 16-byte blocks, then reduce 128 -> 64 -> 32 bits, the last
/// step by Barrett reduction. Advances the raw register \p c exactly as
/// SliceBy8 would. Requires n >= 64 and n % 16 == 0.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldPclmul(
    const uint8_t* p, size_t n, uint32_t c) {
  // x^(4*128+32), x^(4*128-32), x^(128+32), x^(128-32) and x^64 mod P,
  // bit-reflected and shifted left by one; then P itself and the Barrett
  // constant floor(x^64 / P), both reflected.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x1 = Fold128(x1, k1k2, Load128(p));
    x2 = Fold128(x2, k1k2, Load128(p + 16));
    x3 = Fold128(x3, k1k2, Load128(p + 32));
    x4 = Fold128(x4, k1k2, Load128(p + 48));
    p += 64;
    n -= 64;
  }

  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = Fold128(x1, k3k4, Load128(p));
  }

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5,
                                          0x00));
  // Barrett reduction, 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif  // DECIBEL_HAVE_PCLMUL_TARGET

}  // namespace

uint32_t Crc32(Slice data, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
#if defined(DECIBEL_HAVE_PCLMUL_TARGET)
  if (n >= 64 && CpuHasPclmul() &&
      !g_force_scalar.load(std::memory_order_relaxed)) {
    const size_t folded = n & ~size_t{15};
    c = FoldPclmul(p, folded, c);
    p += folded;
    n -= folded;
  }
#endif
  return SliceBy8(p, n, c) ^ 0xffffffffu;
}

namespace crc32 {

void ForceScalarForTest(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

}  // namespace crc32

}  // namespace decibel
