// simd.hpp -- runtime-dispatched word-level popcount kernels.
//
// Every pairwise set kernel in the repository bottoms out in the same three
// word loops: popcount(a), popcount(a & b) and popcount(a & ~b) over 64-bit
// word arrays.  This header centralizes them behind one dispatch table so
// the whole analysis stack (Bitset, DetectionSet, the tiled pair-kernel
// engine, Procedure 1's batched saturation sweep) shares a single
// implementation choice:
//
//   * kPortable -- the plain std::popcount loops below, compiled for the
//     baseline architecture; the only tier outside x86,
//   * kAvx2     -- 256-bit AND + nibble-LUT popcount (Mula's vpshufb
//     algorithm), selected when the CPU supports AVX2,
//   * kAvx512   -- the same loops as kPortable, compiled a second time
//     under an AVX-512 target attribute (F/BW/VL/VPOPCNTDQ), where the
//     compiler vectorizes std::popcount to the per-lane vpopcntq
//     instruction; selected when the CPU supports all four extensions.
//
// The level is resolved exactly once from the environment and the CPU:
//
//   * NDET_SIMD_LEVEL=portable|avx2|avx512 requests a level by name.
//     Requests degrade gracefully to the best available lower tier (avx512
//     -> avx2 -> portable); an empty or unrecognized value is ignored.
//
// All kernels compute exact population counts, so results are bit-identical
// across levels by construction; the randomized suite in
// tests/pair_kernels_test.cpp pins that.
//
// Callers with tiny operands (a handful of words, e.g. small-universe
// circuits) should use the inline wrappers below: under kInlineWordLimit
// words the portable loop is inlined at the call site, because the indirect
// call costs more than vectorization can recover.  The batched engines in
// core/pair_kernels.hpp instead grab active_kernels() once per sweep and
// call through the table, amortizing the dispatch over whole tiles.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace ndet::simd {

using word = std::uint64_t;

/// Dispatch level of the word kernels.
enum class Level : std::uint8_t {
  kPortable = 0,  ///< std::popcount loops; always available
  kAvx2 = 1,      ///< 256-bit AND + vpshufb nibble-LUT popcount
  kAvx512 = 2,    ///< the portable loops compiled for AVX-512 VPOPCNTDQ
};

/// Human-readable level name ("portable" / "avx2" / "avx512") for logs,
/// telemetry and benchmarks.
const char* level_name(Level level);

/// True when `level` can actually run here: compiled in, supported by this
/// CPU, and not overridden away by the environment selector.
bool level_available(Level level);

/// The level all dispatched kernels currently use.  Resolved once on first
/// use from the CPU and the NDET_SIMD_LEVEL environment variable.
Level active_level();

/// Test hook: pins the dispatch level for the rest of the process.  Throws
/// contract_error when `level` is not available (see level_available), so a
/// test can never silently "exercise" a path that is not really running.
void set_level_for_testing(Level level);

/// The pure resolution rule behind active_level(), exposed for unit tests.
/// `simd_level_env` is the raw NDET_SIMD_LEVEL value (nullptr when unset;
/// empty or unrecognized values are ignored).  `cpu_has_avx2` /
/// `cpu_has_avx512` are the runtime CPU feature bits (only honoured on x86,
/// where the vector tiers are compiled in).  Explicit requests degrade to
/// the best available lower tier; with no request the best available tier
/// wins.
Level resolve_level(const char* simd_level_env, bool cpu_has_avx2,
                    bool cpu_has_avx512);

/// One dispatch table entry per kernel.  All counts are exact.
struct Kernels {
  /// sum of popcount(a[i]).
  std::size_t (*popcount)(const word* a, std::size_t n);
  /// sum of popcount(a[i] & b[i]).
  std::size_t (*and_popcount)(const word* a, const word* b, std::size_t n);
  /// sum of popcount(a[i] & ~b[i]).
  std::size_t (*andnot_popcount)(const word* a, const word* b, std::size_t n);
  /// Register-blocked batch kernel: out[j] = sum of popcount(t[i] & g[j][i])
  /// for j in [0, 4) -- one pass over t serves four partners.
  void (*and_popcount_x4)(const word* t, const word* const* g, std::size_t n,
                          std::uint32_t* out);
};

/// The table for active_level().
const Kernels& active_kernels();

/// The word loops behind the portable and AVX-512 tables and the inline
/// wrappers below.  Always inlined, so each caller compiles them for its
/// own target: the vector width and popcount instruction come from the
/// caller's target attributes, the loop is written once.
namespace loop {

[[gnu::always_inline]] inline std::size_t popcount(const word* a,
                                                   std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i]));
  return total;
}

[[gnu::always_inline]] inline std::size_t and_popcount(const word* a,
                                                       const word* b,
                                                       std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  return total;
}

[[gnu::always_inline]] inline std::size_t andnot_popcount(const word* a,
                                                          const word* b,
                                                          std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i] & ~b[i]));
  return total;
}

}  // namespace loop

/// Below this word count the inline portable loop beats the indirect call.
inline constexpr std::size_t kInlineWordLimit = 8;

inline std::size_t popcount_words(const word* a, std::size_t n) {
  if (n < kInlineWordLimit) return loop::popcount(a, n);
  return active_kernels().popcount(a, n);
}

inline std::size_t and_popcount(const word* a, const word* b, std::size_t n) {
  if (n < kInlineWordLimit) return loop::and_popcount(a, b, n);
  return active_kernels().and_popcount(a, b, n);
}

inline std::size_t andnot_popcount(const word* a, const word* b,
                                   std::size_t n) {
  if (n < kInlineWordLimit) return loop::andnot_popcount(a, b, n);
  return active_kernels().andnot_popcount(a, b, n);
}

}  // namespace ndet::simd
