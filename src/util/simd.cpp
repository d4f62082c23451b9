#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/check.hpp"

// The x86 vector tiers are compiled whenever the target is x86 with a
// GCC-compatible compiler.  The functions carry per-function target
// attributes, so the translation unit itself still builds with the baseline
// architecture flags and the vector code can only be reached through the
// runtime-checked dispatch table.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define NDET_SIMD_X86 1
#include <immintrin.h>
#else
#define NDET_SIMD_X86 0
#endif

namespace ndet::simd {

namespace {

// --- loop-built tiers -------------------------------------------------------

/// out[j] = sum of popcount(t[i] & g[j][i]) for j in [0, 4).
[[gnu::always_inline]] inline void and_popcount_x4(const word* t,
                                                   const word* const* g,
                                                   std::size_t n,
                                                   std::uint32_t* out) {
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

std::size_t portable_popcount(const word* a, std::size_t n) {
  return loop::popcount(a, n);
}

std::size_t portable_and_popcount(const word* a, const word* b,
                                  std::size_t n) {
  return loop::and_popcount(a, b, n);
}

std::size_t portable_andnot_popcount(const word* a, const word* b,
                                     std::size_t n) {
  return loop::andnot_popcount(a, b, n);
}

void portable_and_popcount_x4(const word* t, const word* const* g,
                              std::size_t n, std::uint32_t* out) {
  and_popcount_x4(t, g, n, out);
}

constexpr Kernels kPortableKernels = {
    portable_popcount,
    portable_and_popcount,
    portable_andnot_popcount,
    portable_and_popcount_x4,
};

#if NDET_SIMD_X86

// The AVX-512 tier is the portable table compiled again for F (512-bit
// registers), BW, VL (the 256-bit forms of the vectorized epilogue) and
// VPOPCNTDQ, under which the compiler vectorizes std::popcount to vpopcntq.
// GCC does so only at -O3, which src/CMakeLists.txt sets for this file in
// every optimized configuration.
#define NDET_AVX512_TARGET "avx512f,avx512bw,avx512vl,avx512vpopcntdq,popcnt"

__attribute__((target(NDET_AVX512_TARGET))) std::size_t avx512_popcount(
    const word* a, std::size_t n) {
  return loop::popcount(a, n);
}

__attribute__((target(NDET_AVX512_TARGET))) std::size_t avx512_and_popcount(
    const word* a, const word* b, std::size_t n) {
  return loop::and_popcount(a, b, n);
}

__attribute__((target(NDET_AVX512_TARGET))) std::size_t avx512_andnot_popcount(
    const word* a, const word* b, std::size_t n) {
  return loop::andnot_popcount(a, b, n);
}

__attribute__((target(NDET_AVX512_TARGET))) void avx512_and_popcount_x4(
    const word* t, const word* const* g, std::size_t n, std::uint32_t* out) {
  and_popcount_x4(t, g, n, out);
}

constexpr Kernels kAvx512Kernels = {
    avx512_popcount,
    avx512_and_popcount,
    avx512_andnot_popcount,
    avx512_and_popcount_x4,
};

// --- AVX2 tier --------------------------------------------------------------
//
// AVX2 has no vector popcount, so the loops above would compile to scalar
// popcnt here; the nibble-LUT kernels below beat that on rows of 16 words
// and up.

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

#endif  // NDET_SIMD_X86

bool cpu_has_avx2() {
#if NDET_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if NDET_SIMD_X86
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
    case Level::kPortable:
      break;
  }
  return "portable";
}

Level resolve_level(const char* simd_level_env, bool cpu_avx2,
                    bool cpu_avx512) {
  const bool avx2_ok = NDET_SIMD_X86 && cpu_avx2;
  const bool avx512_ok = NDET_SIMD_X86 && cpu_avx512;

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
    // Empty or unrecognized: fall through to the auto rule.
  }

  // Auto: the widest tier this build/CPU supports.
  if (avx512_ok) return Level::kAvx512;
  if (avx2_ok) return Level::kAvx2;
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
#if NDET_SIMD_X86
    case Level::kAvx512:
      return kAvx512Kernels;
    case Level::kAvx2:
      return kAvx2Kernels;
#endif
    default:
      break;
  }
  return kPortableKernels;
}

}  // namespace ndet::simd
