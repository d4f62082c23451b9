// pair_kernels_test.cpp -- the SIMD dispatch layer and the tiled pairwise
// kernel engine.
//
// Two contracts are enforced here:
//   1. every simd::Kernels entry is an exact population count: every
//      runnable table agrees with a word-at-a-time std::popcount reference
//      on random word arrays of every alignment-hostile length; and
//   2. PairKernelEngine is bit-identical to the scalar DetectionSet
//      kernels -- nmin_batch against the unpruned nmin_of reference and
//      saturation_counts against per-pair intersections -- across all
//      representation pairings, odd universe sizes (non-multiples of 64
//      and of the 256-bit vector width), empty sets, every batch width,
//      adversarial tile geometries, and every available dispatch level.
//
// NDET_SIMD_LEVEL coverage: the resolution rule is unit-tested directly
// (resolve_level), and the CI sanitize job runs this whole suite with
// portable pinned, in which case level_available(kAvx2) is false and the
// vector legs legitimately skip.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/detection_db.hpp"
#include "core/pair_kernels.hpp"
#include "core/worst_case.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/library.hpp"
#include "test_util.hpp"
#include "util/bitset.hpp"
#include "util/detection_set.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ndet {
namespace {

using testing::runnable_levels;
using testing::ScopedSimdLevel;
using testing::shared_pool;

Bitset random_bitset(Rng& rng, std::size_t universe,
                     unsigned density_permille) {
  Bitset bits(universe);
  for (std::size_t i = 0; i < universe; ++i)
    if (rng.chance(density_permille, 1000)) bits.set(i);
  return bits;
}

// --- dispatch resolution ----------------------------------------------------

// x86 builds always compile both vector tiers; elsewhere only portable runs.
#if defined(__x86_64__) || defined(__i386__)
constexpr bool kVectorTiers = true;
#else
constexpr bool kVectorTiers = false;
#endif

TEST(Simd, ResolveLevelSelectorRequestsAndDegradation) {
  using simd::Level;
  const Level avx512 = kVectorTiers ? Level::kAvx512 : Level::kPortable;
  const Level avx2 = kVectorTiers ? Level::kAvx2 : Level::kPortable;

  // Explicit requests resolve to the level when runnable...
  EXPECT_EQ(simd::resolve_level("portable", true, true), Level::kPortable);
  EXPECT_EQ(simd::resolve_level("avx2", true, true), avx2);
  EXPECT_EQ(simd::resolve_level("avx512", true, true), avx512);

  // ...and degrade gracefully when the CPU (or build) cannot run them.
  EXPECT_EQ(simd::resolve_level("avx512", true, false), avx2);
  EXPECT_EQ(simd::resolve_level("avx512", false, false), Level::kPortable);
  EXPECT_EQ(simd::resolve_level("avx2", false, false), Level::kPortable);

  // An unset, empty or unrecognized selector -- including the retired
  // "neon" -- falls through to the auto rule: the widest tier this
  // build/CPU supports.
  const char* const fall_through[] = {nullptr, "", "bogus", "neon"};
  for (const char* selector : fall_through) {
    EXPECT_EQ(simd::resolve_level(selector, true, true), avx512);
    EXPECT_EQ(simd::resolve_level(selector, true, false), avx2);
    EXPECT_EQ(simd::resolve_level(selector, false, false), Level::kPortable);
  }
}

TEST(Simd, PortableAlwaysAvailableAndActiveLevelRuns) {
  EXPECT_TRUE(simd::level_available(simd::Level::kPortable));
  const simd::Level active = simd::active_level();
  EXPECT_TRUE(simd::level_available(active));
  EXPECT_STREQ(simd::level_name(simd::Level::kPortable), "portable");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx512), "avx512");
}

TEST(Simd, KernelTablesAgreeOnAllLengths) {
  Rng rng(20260729);
  // Lengths straddling every vector boundary: below one 256-bit lane, at
  // it, around multiples, plus a tail-heavy large case.
  const std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 33, 100};
  for (const std::size_t n : lengths) {
    std::vector<simd::word> a(n), b(n), c(n), d(n), e(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.next();
      b[i] = rng.next();
      c[i] = rng.next();
      d[i] = rng.next();
      e[i] = rng.next();
    }
    // The oracle is word-at-a-time std::popcount, independent of the
    // loops the portable and AVX-512 tables share.
    std::size_t pc = 0, andpc = 0, andnotpc = 0;
    std::uint32_t x4[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < n; ++i) {
      pc += static_cast<std::size_t>(std::popcount(a[i]));
      andpc += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
      andnotpc += static_cast<std::size_t>(std::popcount(a[i] & ~b[i]));
      x4[0] += static_cast<std::uint32_t>(std::popcount(a[i] & b[i]));
      x4[1] += static_cast<std::uint32_t>(std::popcount(a[i] & c[i]));
      x4[2] += static_cast<std::uint32_t>(std::popcount(a[i] & d[i]));
      x4[3] += static_cast<std::uint32_t>(std::popcount(a[i] & e[i]));
    }
    for (const simd::Level level : runnable_levels()) {
      const ScopedSimdLevel scope(level);
      const simd::Kernels& k = simd::active_kernels();
      EXPECT_EQ(k.popcount(a.data(), n), pc) << n;
      EXPECT_EQ(k.and_popcount(a.data(), b.data(), n), andpc) << n;
      EXPECT_EQ(k.andnot_popcount(a.data(), b.data(), n), andnotpc) << n;
      const simd::word* quad[4] = {b.data(), c.data(), d.data(), e.data()};
      std::uint32_t out[4] = {9, 9, 9, 9};
      k.and_popcount_x4(a.data(), quad, n, out);
      for (int j = 0; j < 4; ++j) EXPECT_EQ(out[j], x4[j]) << n << " " << j;
    }
  }
}

// --- engine vs scalar reference --------------------------------------------

/// Builds a random frozen family; density 0 rows guarantee empty sets.
std::vector<DetectionSet> random_family(Rng& rng, std::size_t universe,
                                        std::size_t count,
                                        SetRepresentation policy) {
  const unsigned densities[] = {0, 5, 40, 200, 600, 950};
  std::vector<DetectionSet> family;
  family.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned density = densities[i % std::size(densities)];
    family.push_back(DetectionSet::freeze(
        random_bitset(rng, universe, density), policy));
  }
  return family;
}

TEST(PairKernels, NminBatchMatchesReferenceAcrossEverything) {
  constexpr SetRepresentation kPolicies[] = {SetRepresentation::kDense,
                                             SetRepresentation::kSparse,
                                             SetRepresentation::kAdaptive};
  // Universes chosen to be non-multiples of the 64-bit word and of the
  // 256-bit vector tile width, plus exact boundaries and a tiny one.
  const std::size_t universes[] = {1, 63, 65, 100, 127, 192, 257, 300};
  // Tile geometries: degenerate one-target tiles, a byte-budget that cuts
  // mid-family, forced all-rows and forced all-elements kernels, and the
  // level-dependent default.
  const PairKernelEngine::Options geometries[] = {
      {},                                    // defaults (auto threshold)
      {.tile_bytes = 1, .max_tile_targets = 1, .element_threshold = 0},
      {.tile_bytes = 96, .max_tile_targets = 3, .element_threshold = 1},
      {.tile_bytes = 1u << 20, .max_tile_targets = 5,
       .element_threshold = ~std::size_t{0}},
  };

  Rng rng(42);
  for (const simd::Level level : runnable_levels()) {
    const ScopedSimdLevel scope(level);
    for (const std::size_t universe : universes) {
      for (const SetRepresentation target_policy : kPolicies) {
        for (const SetRepresentation g_policy : kPolicies) {
          const std::vector<DetectionSet> targets =
              random_family(rng, universe, 13, target_policy);
          const std::vector<DetectionSet> untargeted =
              random_family(rng, universe, 11, g_policy);

          std::vector<std::uint64_t> expected;
          expected.reserve(untargeted.size());
          for (const DetectionSet& tg : untargeted)
            expected.push_back(nmin_of(tg, targets));

          for (const PairKernelEngine::Options& options : geometries) {
            const PairKernelEngine engine(targets, universe, options);
            PairKernelEngine::Scratch scratch;
            std::vector<std::uint64_t> got(untargeted.size());
            // Irregular batch widths: 1, then 2, 3, ... wrapping at the
            // engine width, so every width and every partial tail occurs.
            std::size_t begin = 0;
            std::size_t width = 1;
            while (begin < untargeted.size()) {
              const std::size_t size =
                  std::min(width, untargeted.size() - begin);
              engine.nmin_batch(
                  std::span<const DetectionSet>(untargeted)
                      .subspan(begin, size),
                  std::span<std::uint64_t>(got).subspan(begin, size),
                  scratch);
              begin += size;
              width = width % PairKernelEngine::kBatchWidth + 1;
            }
            ASSERT_EQ(got, expected)
                << "universe=" << universe << " level="
                << simd::level_name(level) << " policies="
                << static_cast<int>(target_policy)
                << static_cast<int>(g_policy)
                << " tile_bytes=" << options.tile_bytes << " cap="
                << options.max_tile_targets << " thresh="
                << options.element_threshold;
          }
        }
      }
    }
  }
}

TEST(PairKernels, SaturationCountsMatchScalarIntersections) {
  Rng rng(2026);
  const std::size_t universes[] = {1, 63, 100, 257};
  // Geometries forcing all-rows, all-elements and the mixed default, so
  // both the x4 row path and the CSR probe path are exercised.
  const PairKernelEngine::Options geometries[] = {
      {},
      {.tile_bytes = 96, .max_tile_targets = 3, .element_threshold = 1},
      {.tile_bytes = 1u << 20, .max_tile_targets = 5,
       .element_threshold = ~std::size_t{0}},
  };
  for (const simd::Level level : runnable_levels()) {
    const ScopedSimdLevel scope(level);
    for (const std::size_t universe : universes) {
      const std::vector<DetectionSet> targets =
          random_family(rng, universe, 13, SetRepresentation::kAdaptive);
      // Dense member rows of assorted densities, as Procedure 1 holds them.
      std::vector<Bitset> members;
      for (const unsigned density : {0u, 30u, 300u, 700u, 990u, 500u, 50u, 900u})
        members.push_back(random_bitset(rng, universe, density));
      const Bitset::word_type* rows[PairKernelEngine::kBatchWidth];
      for (std::size_t b = 0; b < members.size(); ++b)
        rows[b] = members[b].words();

      for (const PairKernelEngine::Options& options : geometries) {
        const PairKernelEngine engine(targets, universe, options);
        // Tile ranges partition the sorted order; N(f) ascends across it.
        std::uint32_t expect_begin = 0;
        for (std::size_t t = 0; t < engine.tile_count(); ++t) {
          const auto [begin, end] = engine.tile_range(t);
          EXPECT_EQ(begin, expect_begin);
          EXPECT_LT(begin, end);
          expect_begin = end;
        }
        EXPECT_EQ(expect_begin, engine.detectable_targets());

        for (std::size_t k = 0; k < engine.detectable_targets(); ++k) {
          if (k > 0) {
            EXPECT_GE(engine.n_f(k), engine.n_f(k - 1));
          }
          const DetectionSet& tf = targets[engine.original_index(k)];
          EXPECT_EQ(engine.n_f(k), tf.count());
          // Every width, including the partial tails around the x4 blocks.
          for (std::size_t width = 1; width <= members.size(); ++width) {
            std::uint32_t counts[PairKernelEngine::kBatchWidth];
            engine.saturation_counts(k, rows, width, counts);
            for (std::size_t b = 0; b < width; ++b) {
              std::uint32_t expected = 0;
              members[b].for_each_set([&](std::size_t v) {
                if (tf.test(static_cast<std::uint32_t>(v))) ++expected;
              });
              EXPECT_EQ(counts[b], expected)
                  << "universe=" << universe << " k=" << k << " b=" << b
                  << " level=" << simd::level_name(level);
            }
          }
        }
      }
    }
  }
}

TEST(PairKernels, EmptyFamiliesAndEmptySets) {
  const std::size_t universe = 70;
  const std::vector<DetectionSet> no_targets;
  const PairKernelEngine engine(no_targets, universe);
  EXPECT_EQ(engine.detectable_targets(), 0u);
  EXPECT_EQ(engine.tile_count(), 0u);

  const DetectionSet empty_g = testing::make_detection_set(universe, {});
  const DetectionSet g = testing::make_detection_set(universe, {3, 69});
  PairKernelEngine::Scratch scratch;
  std::uint64_t out[2] = {0, 0};
  const std::vector<DetectionSet> batch = {empty_g, g};
  engine.nmin_batch(batch, out, scratch);
  EXPECT_EQ(out[0], kNeverGuaranteed);
  EXPECT_EQ(out[1], kNeverGuaranteed);

  // A family of only-empty targets behaves the same as no targets.
  const std::vector<DetectionSet> empty_targets = {
      testing::make_detection_set(universe, {}),
      testing::make_detection_set(universe, {})};
  const PairKernelEngine empties(empty_targets, universe);
  EXPECT_EQ(empties.detectable_targets(), 0u);
  empties.nmin_batch(batch, out, scratch);
  EXPECT_EQ(out[0], kNeverGuaranteed);
  EXPECT_EQ(out[1], kNeverGuaranteed);
}

TEST(PairKernels, UniverseMismatchThrows) {
  const std::vector<DetectionSet> targets = {
      testing::make_detection_set(64, {1, 2})};
  EXPECT_THROW(PairKernelEngine(targets, 128), contract_error);
  const PairKernelEngine engine(targets, 64);
  const std::vector<DetectionSet> batch = {
      testing::make_detection_set(128, {1})};
  PairKernelEngine::Scratch scratch;
  std::uint64_t out[1];
  EXPECT_THROW(engine.nmin_batch(batch, out, scratch), contract_error);
}

// --- overlap_entries against the engine's sweep ----------------------------

TEST(OverlapEntries, MinimumMatchesWorstCaseNmin) {
  // overlap_entries is a serial scan of every target; analyze_worst_case
  // is the tiled, pruned engine sweep.  nmin(g) is the smallest nmin(g,f)
  // over the targets that overlap g, so the two agree on every g.
  for (const Circuit& circuit :
       {paper_example(), fsm_benchmark_circuit("bbara")}) {
    const DetectionDb db = DetectionDb::build(circuit, {}, shared_pool());
    const WorstCaseResult worst = analyze_worst_case(db, shared_pool());
    for (std::size_t j = 0; j < db.untargeted().size(); ++j) {
      std::uint64_t nmin = kNeverGuaranteed;  // no entries: never guaranteed
      for (const OverlapEntry& entry : overlap_entries(db, j))
        nmin = std::min(nmin, entry.nmin_gf);
      ASSERT_EQ(nmin, worst.nmin[j])
          << "g" << j << " of " << db.untargeted().size();
    }
  }
}

}  // namespace
}  // namespace ndet
