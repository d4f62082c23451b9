// detection_set_test.cpp -- the adaptive detection-set representation and
// the parallel analysis engine built on it.
//
// Two contracts are enforced here:
//   1. every DetectionSet kernel agrees with the dense Bitset reference for
//      every representation pairing (dense x dense, dense x sparse,
//      sparse x sparse), property-tested over random universes; and
//   2. analyze_worst_case -- pruned, sharded across the thread pool, over
//      any representation policy -- is bit-identical to the serial unpruned
//      dense baseline across the FSM suite.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/detection_db.hpp"
#include "core/worst_case.hpp"
#include "fsm/benchmarks.hpp"
#include "test_util.hpp"
#include "util/bitset.hpp"
#include "util/detection_set.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ndet {
namespace {

using testing::shared_pool;
using testing::to_vector;

/// Random subset of a `universe`-element space with ~density/1000 fill.
Bitset random_bitset(Rng& rng, std::size_t universe, unsigned density_permille) {
  Bitset bits(universe);
  for (std::size_t i = 0; i < universe; ++i)
    if (rng.chance(density_permille, 1000)) bits.set(i);
  return bits;
}

constexpr SetRepresentation kForcedPolicies[] = {SetRepresentation::kDense,
                                                 SetRepresentation::kSparse};

TEST(DetectionSet, KernelsMatchBitsetReferenceAcrossRepresentations) {
  Rng rng(20260729);
  // Universes straddling word boundaries; densities from near-empty to
  // half-full so both representations are exercised as the natural choice.
  const std::size_t universes[] = {1, 7, 64, 65, 100, 128, 192, 300};
  const unsigned densities[] = {0, 10, 60, 250, 500};

  for (const std::size_t universe : universes) {
    for (const unsigned da : densities) {
      for (const unsigned db : densities) {
        const Bitset a = random_bitset(rng, universe, da);
        const Bitset b = random_bitset(rng, universe, db);
        for (const SetRepresentation pa : kForcedPolicies) {
          for (const SetRepresentation pb : kForcedPolicies) {
            const DetectionSet fa = DetectionSet::freeze(a, pa);
            const DetectionSet fb = DetectionSet::freeze(b, pb);
            const std::string ctx =
                "universe=" + std::to_string(universe) +
                " da=" + std::to_string(da) + " db=" + std::to_string(db) +
                " reps=" + std::to_string(static_cast<int>(pa)) +
                std::to_string(static_cast<int>(pb));

            EXPECT_EQ(fa.count(), a.count()) << ctx;
            EXPECT_EQ(fa.any(), a.any()) << ctx;
            EXPECT_EQ(fa.none(), a.none()) << ctx;
            EXPECT_EQ(fa.intersects(fb), a.intersects(b)) << ctx;
            EXPECT_EQ(fa.intersect_count(fb), a.intersect_count(b)) << ctx;
            EXPECT_EQ(fa.and_not_count(fb), a.and_not_count(b)) << ctx;
            EXPECT_EQ(fa.intersect_count(b), a.intersect_count(b)) << ctx;
            EXPECT_EQ(fa.and_not_count(b), a.and_not_count(b)) << ctx;
            EXPECT_EQ(to_vector(fa), to_vector(a)) << ctx;
            EXPECT_EQ(fa.to_bitset(), a) << ctx;
            EXPECT_EQ(fa == fb, a == b) << ctx;

            for (std::size_t i = 0; i < universe; ++i)
              ASSERT_EQ(fa.test(i), a.test(i)) << ctx << " i=" << i;

            const std::size_t diff = a.and_not_count(b);
            for (std::size_t r = 0; r < diff; ++r)
              ASSERT_EQ(fa.nth_in_difference(b, r), a.nth_in_difference(b, r))
                  << ctx << " rank=" << r;
          }
        }
      }
    }
  }
}

TEST(DetectionSet, AdaptivePolicyPicksTheSmallerPayload) {
  // Universe of 256 bits: dense payload is 4 words = 32 bytes, so sets
  // below 8 elements (32 bytes of uint32) should freeze sparse.
  const std::size_t universe = 256;
  const DetectionSet tiny = testing::make_detection_set(universe, {3, 77});
  EXPECT_EQ(tiny.representation(), DetectionSet::Rep::kSparse);
  EXPECT_EQ(tiny.memory_bytes(), 2 * sizeof(std::uint32_t));

  std::vector<std::uint64_t> half;
  for (std::uint64_t v = 0; v < universe; v += 2) half.push_back(v);
  const DetectionSet dense = testing::make_detection_set(universe, half);
  EXPECT_EQ(dense.representation(), DetectionSet::Rep::kDense);
  EXPECT_EQ(dense.memory_bytes(), DetectionSet::dense_memory_bytes(universe));

  // The break-even point: 8 elements cost exactly the dense payload, so
  // dense wins ties; 7 elements undercut it.
  const DetectionSet at_breakeven = testing::make_detection_set(
      universe, {0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(at_breakeven.representation(), DetectionSet::Rep::kDense);
  const DetectionSet below_breakeven =
      testing::make_detection_set(universe, {0, 1, 2, 3, 4, 5, 6});
  EXPECT_EQ(below_breakeven.representation(), DetectionSet::Rep::kSparse);
}

TEST(DetectionSet, ForcedPoliciesOverrideDensity) {
  const DetectionSet sparse_forced = testing::make_detection_set(
      64, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, SetRepresentation::kSparse);
  EXPECT_EQ(sparse_forced.representation(), DetectionSet::Rep::kSparse);
  const DetectionSet dense_forced =
      testing::make_detection_set(4096, {42}, SetRepresentation::kDense);
  EXPECT_EQ(dense_forced.representation(), DetectionSet::Rep::kDense);
  EXPECT_TRUE(sparse_forced.test(9));
  EXPECT_TRUE(dense_forced.test(42));
  EXPECT_EQ(sparse_forced.intersect_count(sparse_forced), 10u);
}

TEST(DetectionSet, UniverseMismatchThrows) {
  const DetectionSet a = testing::make_detection_set(64, {1});
  const DetectionSet b = testing::make_detection_set(128, {1});
  EXPECT_THROW((void)a.intersect_count(b), contract_error);
  EXPECT_THROW((void)a.intersects(b), contract_error);
  EXPECT_THROW((void)a.intersect_count(Bitset(128)), contract_error);
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    const ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<int> hits(1000, 0);
    pool.for_each_index(hits.size(), [&](std::size_t i, unsigned worker) {
      EXPECT_LT(worker, pool.workers_for(hits.size()));
      ++hits[i];
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i], 1) << "index " << i << " threads " << threads;
  }
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  const ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_index(
                   100,
                   [&](std::size_t i, unsigned) {
                     if (i == 37) throw contract_error("boom");
                   }),
               contract_error);
}

TEST(ThreadPool, ZeroRequestsAllHardwareThreads) {
  EXPECT_GE(ThreadPool(0).thread_count(), 1u);
  EXPECT_EQ(resolve_thread_count(3), 3u);
}

// --- Parallel / pruned analysis equivalence ---------------------------------

/// The serial, unpruned, all-dense sweep: the paper-faithful baseline every
/// engine configuration must reproduce bit-for-bit.
std::vector<std::uint64_t> baseline_nmin(const DetectionDb& dense_db) {
  std::vector<std::uint64_t> nmin;
  nmin.reserve(dense_db.untargeted().size());
  for (const DetectionSet& tg : dense_db.untargeted_sets())
    nmin.push_back(nmin_of(tg, dense_db.target_sets()));
  return nmin;
}

TEST(AnalysisEngine, MatchesSerialDenseBaselineAcrossPoliciesThreadsAndSimd) {
  using testing::ScopedSimdLevel;
  const std::vector<simd::Level> levels = testing::runnable_levels();

  std::size_t machines = 0;
  for (const FsmBenchmarkInfo& info : fsm_benchmark_suite()) {
    const Circuit circuit = fsm_benchmark_circuit(info.name);
    if (circuit.input_count() > 10) continue;  // keep test time bounded
    ++machines;

    DetectionDbOptions dense_options;
    dense_options.representation = SetRepresentation::kDense;
    const DetectionDb dense_db =
        DetectionDb::build(circuit, dense_options, shared_pool());
    const std::vector<std::uint64_t> baseline = baseline_nmin(dense_db);

    for (const SetRepresentation policy :
         {SetRepresentation::kDense, SetRepresentation::kAdaptive,
          SetRepresentation::kSparse}) {
      DetectionDbOptions options;
      options.representation = policy;
      const DetectionDb db =
          DetectionDb::build(circuit, options, shared_pool());
      for (const simd::Level level : levels) {
        const ScopedSimdLevel scope(level);
        for (const unsigned threads : {1u, 2u, 8u}) {
          const WorstCaseResult worst =
              analyze_worst_case(db, ThreadPool(threads));
          ASSERT_EQ(worst.nmin, baseline)
              << info.name << " policy " << static_cast<int>(policy)
              << " threads " << threads << " simd "
              << simd::level_name(level);
        }
      }
    }
  }
  // The input-count filter must not silently shrink coverage.
  ASSERT_GE(machines, 10u);
}

TEST(AnalysisEngine, AdaptiveRepresentationShrinksTheDatabase) {
  // bbara's bridging sets are mostly a handful of vectors over a 2^8
  // universe: the adaptive policy must beat all-dense storage.
  const Circuit circuit = fsm_benchmark_circuit("bbara");
  const DetectionDb db = DetectionDb::build(circuit, {}, shared_pool());
  EXPECT_EQ(db.representation(), SetRepresentation::kAdaptive);
  EXPECT_LT(db.set_memory_bytes(), db.dense_memory_bytes());
}

}  // namespace
}  // namespace ndet
