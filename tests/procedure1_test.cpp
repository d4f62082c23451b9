// procedure1_test.cpp -- Section 3 of the paper: Procedure 1 and the
// average-case analysis, plus the escape-probability helper and the
// equivalence suite pinning the sharded engine to the serial baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "core/detection_db.hpp"
#include "core/escape.hpp"
#include "core/procedure1.hpp"
#include "core/worst_case.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/library.hpp"
#include "util/simd.hpp"
#include "test_util.hpp"

namespace ndet {
namespace {

using testing::runnable_levels;
using testing::shared_pool;

const DetectionDb& paper_db() {
  static const DetectionDb db =
      DetectionDb::build(paper_example(), {}, shared_pool());
  return db;
}

std::vector<std::size_t> all_monitored(const DetectionDb& db) {
  std::vector<std::size_t> idx(db.untargeted().size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

/// Definition-1 detection count of target i in a test list.
std::size_t def1_count(const DetectionDb& db, std::size_t i,
                       const std::vector<std::uint32_t>& tests) {
  std::size_t count = 0;
  for (const auto t : tests)
    if (db.target_sets()[i].test(t)) ++count;
  return count;
}

TEST(Procedure1, EverySetIsAnNDetectionTestSet) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 25;
  config.seed = 11;
  config.keep_test_sets = true;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());

  for (int n = 1; n <= config.nmax; ++n) {
    const auto& snapshot = result.test_sets[static_cast<std::size_t>(n - 1)];
    ASSERT_EQ(snapshot.size(), config.num_sets);
    for (const auto& tests : snapshot) {
      for (std::size_t i = 0; i < db.targets().size(); ++i) {
        const std::size_t available = db.target_sets()[i].count();
        const std::size_t required =
            std::min<std::size_t>(static_cast<std::size_t>(n), available);
        EXPECT_GE(def1_count(db, i, tests), required)
            << "n=" << n << " fault " << i;
      }
    }
  }
}

TEST(Procedure1, TestSetsContainNoDuplicates) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 10;
  config.keep_test_sets = true;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  for (const auto& tests : result.test_sets.back()) {
    std::set<std::uint32_t> unique(tests.begin(), tests.end());
    EXPECT_EQ(unique.size(), tests.size());
  }
}

TEST(Procedure1, DeterministicInSeed) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 8;
  config.seed = 77;
  config.keep_test_sets = true;
  const auto monitored = all_monitored(db);
  const AverageCaseResult a =
      run_procedure1(db, monitored, config, shared_pool());
  const AverageCaseResult b =
      run_procedure1(db, monitored, config, shared_pool());
  EXPECT_EQ(a.test_sets.back(), b.test_sets.back());
  EXPECT_EQ(a.detect_count, b.detect_count);
  config.seed = 78;
  const AverageCaseResult c =
      run_procedure1(db, monitored, config, shared_pool());
  EXPECT_NE(a.test_sets.back(), c.test_sets.back());
}

TEST(Procedure1, DetectionCountsAreMonotoneInN) {
  // Test sets only grow across iterations, so d(n,g) cannot decrease.
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 5;
  config.num_sets = 40;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  for (std::size_t j = 0; j < monitored.size(); ++j)
    for (int n = 2; n <= config.nmax; ++n)
      EXPECT_GE(result.detect_count[static_cast<std::size_t>(n - 1)][j],
                result.detect_count[static_cast<std::size_t>(n - 2)][j]);
}

TEST(Procedure1, GuaranteeCrossCheckWithWorstCase) {
  // The paper's central invariant: an untargeted fault with nmin(g) <= n is
  // detected by EVERY n-detection test set, i.e. p(n,g) = 1.
  const DetectionDb& db = paper_db();
  const WorstCaseResult worst = analyze_worst_case(db, shared_pool());
  Procedure1Config config;
  config.nmax = 5;
  config.num_sets = 60;
  config.seed = 3;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  for (std::size_t j = 0; j < monitored.size(); ++j) {
    for (int n = 1; n <= config.nmax; ++n) {
      if (worst.nmin[j] <= static_cast<std::uint64_t>(n)) {
        EXPECT_DOUBLE_EQ(result.probability(n, j), 1.0)
            << "g" << j << " nmin=" << worst.nmin[j] << " n=" << n;
      }
    }
  }
}

TEST(Procedure1, ProbabilitiesAreWithinRange) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 30;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  for (int n = 1; n <= config.nmax; ++n)
    for (std::size_t j = 0; j < monitored.size(); ++j) {
      const double p = result.probability(n, j);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
}

TEST(Procedure1, SetSizesGrowWithN) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 12;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  for (std::size_t k = 0; k < config.num_sets; ++k)
    for (int n = 2; n <= config.nmax; ++n)
      EXPECT_GE(result.set_sizes[static_cast<std::size_t>(n - 1)][k],
                result.set_sizes[static_cast<std::size_t>(n - 2)][k]);
}

TEST(Procedure1, ThresholdCountsAreCumulative) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 20;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  std::size_t previous = 0;
  for (const double threshold : {1.0, 0.9, 0.5, 0.1, 0.0}) {
    const std::size_t count = result.count_probability_at_least(2, threshold);
    EXPECT_GE(count, previous);
    previous = count;
  }
  EXPECT_EQ(result.count_probability_at_least(2, 0.0), monitored.size());
}

TEST(Procedure1, MonitoredSubsetOnly) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 5;
  const std::vector<std::size_t> monitored{5, 6};  // the two nmin=4 faults
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  EXPECT_EQ(result.monitored, monitored);
  EXPECT_EQ(result.detect_count[0].size(), 2u);
}

TEST(Procedure1, InvalidArgumentsThrow) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 0;
  EXPECT_THROW((void)run_procedure1(db, {}, config, shared_pool()),
               contract_error);
  config = Procedure1Config{};
  config.num_sets = 0;
  EXPECT_THROW((void)run_procedure1(db, {}, config, shared_pool()),
               contract_error);
  config = Procedure1Config{};
  const std::vector<std::size_t> bad{99};
  EXPECT_THROW((void)run_procedure1(db, bad, config, shared_pool()),
               contract_error);
}

// --- Definition 2 -----------------------------------------------------------

TEST(Procedure1Def2, SetsRemainNDetectionUnderDefinitionOne) {
  // The Definition-1 fallback guarantees the standard n-detection property
  // even when Definition-2 counting saturates early.
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 15;
  config.definition = DetectionDefinition::kDissimilar;
  config.keep_test_sets = true;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  for (const auto& tests : result.test_sets.back()) {
    for (std::size_t i = 0; i < db.targets().size(); ++i) {
      const std::size_t available = db.target_sets()[i].count();
      const std::size_t required = std::min<std::size_t>(3, available);
      EXPECT_GE(def1_count(db, i, tests), required) << "fault " << i;
    }
  }
  // Fault f0 = 1/1 has all-similar tests, so fallbacks must have happened.
  EXPECT_GT(result.stats.def1_fallbacks, 0u);
  EXPECT_GT(result.stats.distinct_queries, 0u);
}

TEST(Procedure1Def2, GuaranteeCrossCheckStillHolds) {
  const DetectionDb& db = paper_db();
  const WorstCaseResult worst = analyze_worst_case(db, shared_pool());
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 30;
  config.definition = DetectionDefinition::kDissimilar;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  for (std::size_t j = 0; j < monitored.size(); ++j) {
    if (worst.nmin[j] <= 4u) {
      EXPECT_DOUBLE_EQ(result.probability(4, j), 1.0) << "g" << j;
    }
  }
}

TEST(Procedure1Def2, DeterministicInSeed) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 6;
  config.definition = DetectionDefinition::kDissimilar;
  config.keep_test_sets = true;
  const auto monitored = all_monitored(db);
  const AverageCaseResult a =
      run_procedure1(db, monitored, config, shared_pool());
  const AverageCaseResult b =
      run_procedure1(db, monitored, config, shared_pool());
  EXPECT_EQ(a.test_sets.back(), b.test_sets.back());
}

TEST(Procedure1Def2, TendsToSpreadTests) {
  // For fault f1 = 2/0 the Definition-2 sets should, at n = 2, include two
  // dissimilar tests (e.g. one of {6,7} and one of {12..15}) more often than
  // chance; verify the aggregate effect: the bridging fault g0 with
  // T(g0) = {6,7} is detected at least as often under Definition 2.
  const DetectionDb& db = paper_db();
  const auto monitored = all_monitored(db);
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 200;
  config.seed = 5;
  const AverageCaseResult def1 =
      run_procedure1(db, monitored, config, shared_pool());
  config.definition = DetectionDefinition::kDissimilar;
  const AverageCaseResult def2 =
      run_procedure1(db, monitored, config, shared_pool());
  EXPECT_GE(def2.probability(2, 0) + 0.05, def1.probability(2, 0));
}

// --- Parallel-engine equivalence --------------------------------------------

/// The full bit-identity contract between two engine runs: detection
/// counts, set sizes, the test sets themselves, and the deterministic stats
/// counters.  (Def2CacheStats is telemetry and intentionally excluded: which
/// sets share a worker's oracle caches depends on scheduling.)
void expect_identical_runs(const AverageCaseResult& a,
                           const AverageCaseResult& b) {
  EXPECT_EQ(a.detect_count, b.detect_count);
  EXPECT_EQ(a.set_sizes, b.set_sizes);
  EXPECT_EQ(a.test_sets, b.test_sets);
  EXPECT_EQ(a.stats.tests_added, b.stats.tests_added);
  EXPECT_EQ(a.stats.def1_fallbacks, b.stats.def1_fallbacks);
  EXPECT_EQ(a.stats.distinct_queries, b.stats.distinct_queries);
}

/// Runs the serial engine (a one-thread pool: one worker on the calling
/// thread) and compares hardware-width (0) and 2/8-thread runs against it
/// bit for bit.
void check_thread_invariance(const DetectionDb& db,
                             std::span<const std::size_t> monitored,
                             Procedure1Config config) {
  config.keep_test_sets = true;
  const AverageCaseResult serial =
      run_procedure1(db, monitored, config, ThreadPool(1));
  for (const unsigned threads : {0u, 2u, 8u}) {
    const AverageCaseResult parallel =
        run_procedure1(db, monitored, config, ThreadPool(threads));
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical_runs(serial, parallel);
  }
}

TEST(Procedure1Parallel, BitIdenticalAcrossThreadCountsDefinition1) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 24;
  config.seed = 17;
  check_thread_invariance(db, all_monitored(db), config);
}

TEST(Procedure1Parallel, BitIdenticalAcrossThreadCountsDefinition2) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 12;
  config.seed = 23;
  config.definition = DetectionDefinition::kDissimilar;
  check_thread_invariance(db, all_monitored(db), config);
}

TEST(Procedure1Parallel, BitIdenticalOnFsmSuiteDefinition1) {
  for (const char* name : {"bbtas", "dk27", "beecount"}) {
    SCOPED_TRACE(name);
    const DetectionDb db =
        DetectionDb::build(fsm_benchmark_circuit(name), {}, shared_pool());
    Procedure1Config config;
    config.nmax = 3;
    config.num_sets = 10;
    config.seed = 2005;
    check_thread_invariance(db, all_monitored(db), config);
  }
}

TEST(Procedure1Parallel, BitIdenticalOnFsmSuiteDefinition2) {
  const DetectionDb db =
      DetectionDb::build(fsm_benchmark_circuit("bbtas"), {}, shared_pool());
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 8;
  config.seed = 2005;
  config.definition = DetectionDefinition::kDissimilar;
  check_thread_invariance(db, all_monitored(db), config);
}

/// Pins the K-set run on one thread at the CURRENT dispatch level as the
/// reference, then demands bit-identical results from every {thread count}
/// x {SIMD level} combination, and from every shorter N-set run: set k < N
/// must evolve exactly as in the K-set run.  Groups hold the kernel width
/// of consecutive sets and the last one the remainder, so as N grows set k
/// runs in groups of width (k mod 8) + 1 up to 8.  This is the acceptance
/// contract of the batched saturation sweep: grouping and dispatch are
/// pure performance choices, and the counter-addressed draws make every
/// trajectory independent of how the work is grouped.
void check_batch_and_level_invariance(const DetectionDb& db,
                                      std::span<const std::size_t> monitored,
                                      Procedure1Config config) {
  const simd::Level original = simd::active_level();
  config.keep_test_sets = true;
  const AverageCaseResult reference =
      run_procedure1(db, monitored, config, ThreadPool(1));
  for (const simd::Level level : runnable_levels()) {
    simd::set_level_for_testing(level);
    for (const unsigned threads : {1u, 0u, 2u, 8u}) {
      const AverageCaseResult run =
          run_procedure1(db, monitored, config, ThreadPool(threads));
      SCOPED_TRACE(std::string("level=") + simd::level_name(level) +
                   " threads=" + std::to_string(threads));
      expect_identical_runs(reference, run);
    }
    for (std::size_t sets = 1; sets < config.num_sets; ++sets) {
      Procedure1Config prefix = config;
      prefix.num_sets = sets;
      const AverageCaseResult run =
          run_procedure1(db, monitored, prefix, ThreadPool(1));
      SCOPED_TRACE(std::string("level=") + simd::level_name(level) +
                   " sets=" + std::to_string(sets));
      auto test_sets = reference.test_sets;
      auto set_sizes = reference.set_sizes;
      for (auto& per_set : test_sets) per_set.resize(sets);
      for (auto& per_set : set_sizes) per_set.resize(sets);
      EXPECT_EQ(run.test_sets, test_sets);
      EXPECT_EQ(run.set_sizes, set_sizes);
    }
  }
  simd::set_level_for_testing(original);
}

TEST(Procedure1Batched, BitIdenticalAcrossWidthsThreadsAndLevelsDefinition1) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 24;
  config.seed = 31;
  check_batch_and_level_invariance(db, all_monitored(db), config);
}

TEST(Procedure1Batched, BitIdenticalAcrossWidthsThreadsAndLevelsDefinition2) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 12;
  config.seed = 37;
  config.definition = DetectionDefinition::kDissimilar;
  check_batch_and_level_invariance(db, all_monitored(db), config);
}

TEST(Procedure1Batched, BitIdenticalOnFsmCircuit) {
  const DetectionDb db =
      DetectionDb::build(fsm_benchmark_circuit("bbtas"), {}, shared_pool());
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 8;
  config.seed = 2005;
  check_batch_and_level_invariance(db, all_monitored(db), config);
}

TEST(Procedure1Parallel, Def2CacheStatsAccountForEveryQuery) {
  // Every oracle call is either a verdict hit or a miss, whichever worker's
  // shard served it -- at any thread count.
  const DetectionDb& db = paper_db();
  const auto monitored = all_monitored(db);
  Procedure1Config config;
  config.nmax = 3;
  config.num_sets = 12;
  config.definition = DetectionDefinition::kDissimilar;
  for (const unsigned threads : {0u, 2u, 8u}) {
    const AverageCaseResult result =
        run_procedure1(db, monitored, config, ThreadPool(threads));
    EXPECT_EQ(result.def2_cache.verdict_hits + result.def2_cache.verdict_misses,
              result.stats.distinct_queries)
        << "threads=" << threads;
    EXPECT_GT(result.def2_cache.good_sim_entries, 0u);
  }
}

TEST(Procedure1Parallel, Definition1LeavesCacheStatsEmpty) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 4;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  EXPECT_EQ(result.def2_cache.good_sim_entries, 0u);
  EXPECT_EQ(result.def2_cache.verdict_hits, 0u);
  EXPECT_EQ(result.def2_cache.verdict_misses, 0u);
}

// --- Escape report ----------------------------------------------------------

TEST(Escape, ComputesExpectedEscapes) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 2;
  config.num_sets = 50;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  const EscapeReport report = compute_escape_report(result, 2);
  EXPECT_EQ(report.monitored_faults, monitored.size());
  EXPECT_GE(report.expected_escapes, 0.0);
  EXPECT_LE(report.expected_escapes, static_cast<double>(monitored.size()));
  EXPECT_GE(report.prob_any_escape, 0.0);
  EXPECT_LE(report.prob_any_escape, 1.0);
  EXPECT_GE(report.worst_fault_probability, 0.0);
  EXPECT_LE(report.worst_fault_probability, 1.0);
  EXPECT_LE(report.guaranteed_detected, monitored.size());
}

TEST(Escape, AllDetectedMeansNoEscapes) {
  // At n = 4 every bridging fault of the example has nmin <= 4, so every
  // 4-detection set detects all of them.
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 4;
  config.num_sets = 30;
  const auto monitored = all_monitored(db);
  const AverageCaseResult result =
      run_procedure1(db, monitored, config, shared_pool());
  const EscapeReport report = compute_escape_report(result, 4);
  EXPECT_DOUBLE_EQ(report.expected_escapes, 0.0);
  EXPECT_DOUBLE_EQ(report.prob_any_escape, 0.0);
  EXPECT_EQ(report.guaranteed_detected, monitored.size());
}

TEST(Escape, EmptyMonitoredSet) {
  const DetectionDb& db = paper_db();
  Procedure1Config config;
  config.nmax = 1;
  config.num_sets = 3;
  const AverageCaseResult result =
      run_procedure1(db, {}, config, shared_pool());
  const EscapeReport report = compute_escape_report(result, 1);
  EXPECT_DOUBLE_EQ(report.prob_any_escape, 0.0);
  EXPECT_DOUBLE_EQ(report.expected_escapes, 0.0);
}

}  // namespace
}  // namespace ndet
