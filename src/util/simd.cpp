#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/check.hpp"

// The x86 vector paths are compiled whenever the target is x86 with a
// GCC-compatible compiler and were not configured out with
// -DNDET_DISABLE_AVX2=ON / -DNDET_DISABLE_AVX512=ON (disabling AVX2 also
// disables AVX-512: the wider path is an extension of the same dispatch
// family, and the no-vector CI leg should pin the scalar loops alone).  The
// functions carry per-function target attributes, so the translation unit
// itself still builds with the baseline architecture flags and the vector
// code can only be reached through the runtime-checked dispatch table.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(NDET_DISABLE_AVX2)
#define NDET_SIMD_COMPILED_AVX2 1
#include <immintrin.h>
#else
#define NDET_SIMD_COMPILED_AVX2 0
#endif

#if NDET_SIMD_COMPILED_AVX2 && !defined(NDET_DISABLE_AVX512)
#define NDET_SIMD_COMPILED_AVX512 1
#else
#define NDET_SIMD_COMPILED_AVX512 0
#endif

// NEON is architecturally guaranteed on AArch64, so the tier needs no
// runtime CPU probe -- compiled in means available.  (32-bit ARM is left on
// the portable path: its NEON lacks the vaddvq horizontal adds.)
#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define NDET_SIMD_COMPILED_NEON 1
#include <arm_neon.h>
#else
#define NDET_SIMD_COMPILED_NEON 0
#endif

namespace ndet::simd {

namespace {

// --- portable kernels -------------------------------------------------------

std::size_t portable_popcount(const word* a, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i]));
  return total;
}

std::size_t portable_and_popcount(const word* a, const word* b,
                                  std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  return total;
}

std::size_t portable_andnot_popcount(const word* a, const word* b,
                                     std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i] & ~b[i]));
  return total;
}

void portable_and_popcount_x4(const word* t, const word* const* g,
                              std::size_t n, std::uint32_t* out) {
  word c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  const word* g0 = g[0];
  const word* g1 = g[1];
  const word* g2 = g[2];
  const word* g3 = g[3];
  for (std::size_t i = 0; i < n; ++i) {
    const word tw = t[i];
    c0 += static_cast<word>(std::popcount(tw & g0[i]));
    c1 += static_cast<word>(std::popcount(tw & g1[i]));
    c2 += static_cast<word>(std::popcount(tw & g2[i]));
    c3 += static_cast<word>(std::popcount(tw & g3[i]));
  }
  out[0] = static_cast<std::uint32_t>(c0);
  out[1] = static_cast<std::uint32_t>(c1);
  out[2] = static_cast<std::uint32_t>(c2);
  out[3] = static_cast<std::uint32_t>(c3);
}

constexpr Kernels kPortableKernels = {
    portable_popcount,
    portable_and_popcount,
    portable_andnot_popcount,
    portable_and_popcount_x4,
};

// --- AVX2 kernels -----------------------------------------------------------

#if NDET_SIMD_COMPILED_AVX2

/// Per-64-bit-lane popcount of a 256-bit vector via Mula's vpshufb nibble
/// lookup: each byte is split into nibbles, both looked up in a 16-entry
/// bit-count table, and the byte sums are folded into the four lanes with a
/// single psadbw against zero.
__attribute__((target("avx2"))) inline __m256i popcount_epi64(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline std::size_t horizontal_sum(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::size_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<std::size_t>(
             _mm_cvtsi128_si64(_mm_unpackhi_epi64(sum, sum)));
}

__attribute__((target("avx2,popcnt"))) std::size_t avx2_popcount(
    const word* a, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    acc = _mm256_add_epi64(acc, popcount_epi64(va));
  }
  std::size_t total = horizontal_sum(acc);
  for (; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i]));
  return total;
}

__attribute__((target("avx2,popcnt"))) std::size_t avx2_and_popcount(
    const word* a, const word* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, popcount_epi64(_mm256_and_si256(va, vb)));
  }
  std::size_t total = horizontal_sum(acc);
  for (; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  return total;
}

__attribute__((target("avx2,popcnt"))) std::size_t avx2_andnot_popcount(
    const word* a, const word* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // vpandn computes ~first & second, so b goes first.
    acc = _mm256_add_epi64(acc, popcount_epi64(_mm256_andnot_si256(vb, va)));
  }
  std::size_t total = horizontal_sum(acc);
  for (; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i] & ~b[i]));
  return total;
}

__attribute__((target("avx2,popcnt"))) void avx2_and_popcount_x4(
    const word* t, const word* const* g, std::size_t n, std::uint32_t* out) {
  if (n == 4) {
    // The whole operand is one 256-bit vector -- the common case for the
    // small-universe FSM circuits, where Procedure 1's saturation sweep
    // makes tens of thousands of these calls.  Straight-line: no
    // accumulator loop, and one transpose-add replaces the four horizontal
    // sums (lane j of `sums` ends up holding member j's total).
    const __m256i vt = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t));
    const __m256i v0 = popcount_epi64(_mm256_and_si256(
        vt, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g[0]))));
    const __m256i v1 = popcount_epi64(_mm256_and_si256(
        vt, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g[1]))));
    const __m256i v2 = popcount_epi64(_mm256_and_si256(
        vt, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g[2]))));
    const __m256i v3 = popcount_epi64(_mm256_and_si256(
        vt, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g[3]))));
    const __m256i s01 = _mm256_add_epi64(_mm256_unpacklo_epi64(v0, v1),
                                         _mm256_unpackhi_epi64(v0, v1));
    const __m256i s23 = _mm256_add_epi64(_mm256_unpacklo_epi64(v2, v3),
                                         _mm256_unpackhi_epi64(v2, v3));
    const __m256i sums =
        _mm256_add_epi64(_mm256_permute2x128_si256(s01, s23, 0x20),
                         _mm256_permute2x128_si256(s01, s23, 0x31));
    const __m256i packed = _mm256_permutevar8x32_epi32(
        sums, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm256_castsi256_si128(packed));
    return;
  }
  __m256i a0 = _mm256_setzero_si256();
  __m256i a1 = _mm256_setzero_si256();
  __m256i a2 = _mm256_setzero_si256();
  __m256i a3 = _mm256_setzero_si256();
  const word* g0 = g[0];
  const word* g1 = g[1];
  const word* g2 = g[2];
  const word* g3 = g[3];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vt =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t + i));
    a0 = _mm256_add_epi64(
        a0, popcount_epi64(_mm256_and_si256(
                vt, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(g0 + i)))));
    a1 = _mm256_add_epi64(
        a1, popcount_epi64(_mm256_and_si256(
                vt, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(g1 + i)))));
    a2 = _mm256_add_epi64(
        a2, popcount_epi64(_mm256_and_si256(
                vt, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(g2 + i)))));
    a3 = _mm256_add_epi64(
        a3, popcount_epi64(_mm256_and_si256(
                vt, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(g3 + i)))));
  }
  std::size_t c0 = horizontal_sum(a0);
  std::size_t c1 = horizontal_sum(a1);
  std::size_t c2 = horizontal_sum(a2);
  std::size_t c3 = horizontal_sum(a3);
  for (; i < n; ++i) {
    const word tw = t[i];
    c0 += static_cast<std::size_t>(std::popcount(tw & g0[i]));
    c1 += static_cast<std::size_t>(std::popcount(tw & g1[i]));
    c2 += static_cast<std::size_t>(std::popcount(tw & g2[i]));
    c3 += static_cast<std::size_t>(std::popcount(tw & g3[i]));
  }
  out[0] = static_cast<std::uint32_t>(c0);
  out[1] = static_cast<std::uint32_t>(c1);
  out[2] = static_cast<std::uint32_t>(c2);
  out[3] = static_cast<std::uint32_t>(c3);
}

constexpr Kernels kAvx2Kernels = {
    avx2_popcount,
    avx2_and_popcount,
    avx2_andnot_popcount,
    avx2_and_popcount_x4,
};

#endif  // NDET_SIMD_COMPILED_AVX2

// --- AVX-512 kernels --------------------------------------------------------

#if NDET_SIMD_COMPILED_AVX512

// VPOPCNTDQ gives a per-64-bit-lane popcount instruction, so the AVX-512
// kernels are straight-line: load 512 bits, AND, vpopcntq, accumulate.
// The target set is f+bw+vl+vpopcntdq: F for the 512-bit registers, BW for
// full-width byte ops on the tails, VL for the 256-bit forms the short-row
// fast path uses, VPOPCNTDQ for _mm512_popcnt_epi64/_mm256_popcnt_epi64.

#define NDET_AVX512_TARGET "avx512f,avx512bw,avx512vl,avx512vpopcntdq,popcnt"

// GCC 12's _mm512_reduce_add_epi64 expands through masked-extract
// intrinsics whose _mm256_undefined_si256 operand trips -Wuninitialized
// under -Werror, so the lane sum goes through a store instead.
__attribute__((target(NDET_AVX512_TARGET))) inline std::size_t
horizontal_sum_512(__m512i v) {
  alignas(64) word lanes[8];
  _mm512_store_si512(lanes, v);
  return static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3] +
                                  lanes[4] + lanes[5] + lanes[6] + lanes[7]);
}

__attribute__((target(NDET_AVX512_TARGET))) std::size_t avx512_popcount(
    const word* a, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(va));
  }
  std::size_t total = horizontal_sum_512(acc);
  for (; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i]));
  return total;
}

__attribute__((target(NDET_AVX512_TARGET))) std::size_t avx512_and_popcount(
    const word* a, const word* b, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
  }
  std::size_t total = horizontal_sum_512(acc);
  for (; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  return total;
}

__attribute__((target(NDET_AVX512_TARGET))) std::size_t avx512_andnot_popcount(
    const word* a, const word* b, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    // a & ~b spelled as and+xor: GCC 12's _mm512_andnot_si512 goes through
    // a masked builtin whose undefined passthrough operand warns under
    // -Werror; this form fuses to one vpternlogq anyway.
    const __m512i vnb = _mm512_xor_si512(vb, _mm512_set1_epi64(-1));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vnb)));
  }
  std::size_t total = horizontal_sum_512(acc);
  for (; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i] & ~b[i]));
  return total;
}

__attribute__((target(NDET_AVX512_TARGET))) void avx512_and_popcount_x4(
    const word* t, const word* const* g, std::size_t n, std::uint32_t* out) {
  if (n == 4) {
    // The saturation sweep calls this at the universe width, which is four
    // words on the FSM suite; without a fast path every call would run the
    // scalar tail plus four zero-accumulator lane sums.  256-bit vpopcntq
    // (VL) with the AVX2 transpose-add reduction measured faster here than
    // a masked single-512-bit-vector variant.
    const __m256i vt = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t));
    const __m256i v0 = _mm256_popcnt_epi64(_mm256_and_si256(
        vt, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g[0]))));
    const __m256i v1 = _mm256_popcnt_epi64(_mm256_and_si256(
        vt, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g[1]))));
    const __m256i v2 = _mm256_popcnt_epi64(_mm256_and_si256(
        vt, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g[2]))));
    const __m256i v3 = _mm256_popcnt_epi64(_mm256_and_si256(
        vt, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g[3]))));
    const __m256i s01 = _mm256_add_epi64(_mm256_unpacklo_epi64(v0, v1),
                                         _mm256_unpackhi_epi64(v0, v1));
    const __m256i s23 = _mm256_add_epi64(_mm256_unpacklo_epi64(v2, v3),
                                         _mm256_unpackhi_epi64(v2, v3));
    const __m256i sums =
        _mm256_add_epi64(_mm256_permute2x128_si256(s01, s23, 0x20),
                         _mm256_permute2x128_si256(s01, s23, 0x31));
    const __m256i packed = _mm256_permutevar8x32_epi32(
        sums, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm256_castsi256_si128(packed));
    return;
  }
  __m512i a0 = _mm512_setzero_si512();
  __m512i a1 = _mm512_setzero_si512();
  __m512i a2 = _mm512_setzero_si512();
  __m512i a3 = _mm512_setzero_si512();
  const word* g0 = g[0];
  const word* g1 = g[1];
  const word* g2 = g[2];
  const word* g3 = g[3];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i vt = _mm512_loadu_si512(t + i);
    a0 = _mm512_add_epi64(
        a0, _mm512_popcnt_epi64(_mm512_and_si512(vt, _mm512_loadu_si512(g0 + i))));
    a1 = _mm512_add_epi64(
        a1, _mm512_popcnt_epi64(_mm512_and_si512(vt, _mm512_loadu_si512(g1 + i))));
    a2 = _mm512_add_epi64(
        a2, _mm512_popcnt_epi64(_mm512_and_si512(vt, _mm512_loadu_si512(g2 + i))));
    a3 = _mm512_add_epi64(
        a3, _mm512_popcnt_epi64(_mm512_and_si512(vt, _mm512_loadu_si512(g3 + i))));
  }
  std::size_t c0 = horizontal_sum_512(a0);
  std::size_t c1 = horizontal_sum_512(a1);
  std::size_t c2 = horizontal_sum_512(a2);
  std::size_t c3 = horizontal_sum_512(a3);
  for (; i < n; ++i) {
    const word tw = t[i];
    c0 += static_cast<std::size_t>(std::popcount(tw & g0[i]));
    c1 += static_cast<std::size_t>(std::popcount(tw & g1[i]));
    c2 += static_cast<std::size_t>(std::popcount(tw & g2[i]));
    c3 += static_cast<std::size_t>(std::popcount(tw & g3[i]));
  }
  out[0] = static_cast<std::uint32_t>(c0);
  out[1] = static_cast<std::uint32_t>(c1);
  out[2] = static_cast<std::uint32_t>(c2);
  out[3] = static_cast<std::uint32_t>(c3);
}

constexpr Kernels kAvx512Kernels = {
    avx512_popcount,
    avx512_and_popcount,
    avx512_andnot_popcount,
    avx512_and_popcount_x4,
};

#endif  // NDET_SIMD_COMPILED_AVX512

// --- NEON kernels -----------------------------------------------------------

#if NDET_SIMD_COMPILED_NEON

#include "util/simd_neon.inc"

constexpr Kernels kNeonKernels = {
    neon_popcount,
    neon_and_popcount,
    neon_andnot_popcount,
    neon_and_popcount_x4,
};

#endif  // NDET_SIMD_COMPILED_NEON

bool cpu_has_avx2() {
#if NDET_SIMD_COMPILED_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if NDET_SIMD_COMPILED_AVX512
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
  return false;
#endif
}

Level resolve_from_environment() {
  return resolve_level(std::getenv("NDET_SIMD_LEVEL"), cpu_has_avx2(),
                       cpu_has_avx512());
}

std::atomic<Level>& level_state() {
  static std::atomic<Level> level{resolve_from_environment()};
  return level;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
    case Level::kNeon:
      return "neon";
    case Level::kPortable:
      break;
  }
  return "portable";
}

bool compiled_with_avx2() { return NDET_SIMD_COMPILED_AVX2 != 0; }
bool compiled_with_avx512() { return NDET_SIMD_COMPILED_AVX512 != 0; }
bool compiled_with_neon() { return NDET_SIMD_COMPILED_NEON != 0; }

Level resolve_level(const char* simd_level_env, bool cpu_avx2,
                    bool cpu_avx512) {
  const bool avx2_ok = compiled_with_avx2() && cpu_avx2;
  const bool avx512_ok = compiled_with_avx512() && cpu_avx512;
  const bool neon_ok = compiled_with_neon();

  // Explicit NDET_SIMD_LEVEL selection; requests degrade to the best
  // available lower tier rather than silently running a different family.
  if (simd_level_env != nullptr) {
    const auto matches = [&](const char* name) {
      return std::strcmp(simd_level_env, name) == 0;
    };
    if (matches("portable")) return Level::kPortable;
    if (matches("avx512"))
      return avx512_ok ? Level::kAvx512
                       : (avx2_ok ? Level::kAvx2 : Level::kPortable);
    if (matches("avx2")) return avx2_ok ? Level::kAvx2 : Level::kPortable;
    if (matches("neon")) return neon_ok ? Level::kNeon : Level::kPortable;
    // Empty or unrecognized: fall through to the auto rule.
  }

  // Auto: the widest tier this build/CPU supports.
  if (avx512_ok) return Level::kAvx512;
  if (avx2_ok) return Level::kAvx2;
  if (neon_ok) return Level::kNeon;
  return Level::kPortable;
}

bool level_available(Level level) {
  if (level == Level::kPortable) return true;
  // A level is available when the environment-free resolution could pick it:
  // compiled in, supported by the CPU, and not overridden away by
  // NDET_SIMD_LEVEL.
  const Level resolved = resolve_from_environment();
  switch (level) {
    case Level::kAvx2:
      return resolved == Level::kAvx2 || resolved == Level::kAvx512;
    case Level::kAvx512:
    case Level::kNeon:
      return resolved == level;
    case Level::kPortable:
      break;
  }
  return true;
}

Level active_level() { return level_state().load(std::memory_order_relaxed); }

void set_level_for_testing(Level level) {
  require(level_available(level),
          "simd::set_level_for_testing: requested level is not available on "
          "this build/CPU (or NDET_SIMD_LEVEL is set)");
  level_state().store(level, std::memory_order_relaxed);
}

const Kernels& active_kernels() {
  switch (active_level()) {
#if NDET_SIMD_COMPILED_AVX512
    case Level::kAvx512:
      return kAvx512Kernels;
#endif
#if NDET_SIMD_COMPILED_AVX2
    case Level::kAvx2:
      return kAvx2Kernels;
#endif
#if NDET_SIMD_COMPILED_NEON
    case Level::kNeon:
      return kNeonKernels;
#endif
    default:
      break;
  }
  return kPortableKernels;
}

}  // namespace ndet::simd
