// integration_test.cpp -- full-pipeline runs: FSM benchmark -> synthesis ->
// detection database -> worst-case and average-case analyses, checking the
// paper's cross-analysis invariants on real (reconstructed) workloads.

#include <gtest/gtest.h>

#include <numeric>

#include "core/detection_db.hpp"
#include "core/procedure1.hpp"
#include "core/reports.hpp"
#include "core/worst_case.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/stats.hpp"
#include "test_util.hpp"

namespace ndet {
namespace {

using testing::shared_pool;

class PipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineTest, WorstAndAverageCaseAgree) {
  const Circuit circuit = fsm_benchmark_circuit(GetParam());
  const DetectionDb db = DetectionDb::build(circuit, {}, shared_pool());
  ASSERT_GT(db.untargeted().size(), 0u) << GetParam();

  const WorstCaseResult worst = analyze_worst_case(db, shared_pool());
  ASSERT_EQ(worst.nmin.size(), db.untargeted().size());

  // Every detectable bridging fault needs at least one detection; a finite
  // nmin is always >= 1.
  for (const auto v : worst.nmin) {
    if (v != kNeverGuaranteed) {
      EXPECT_GE(v, 1u);
    }
  }

  // Monitor everything; with modest K the guarantee invariant must hold:
  // nmin(g) <= n  ==>  every constructed n-detection set detects g.
  std::vector<std::size_t> monitored(db.untargeted().size());
  std::iota(monitored.begin(), monitored.end(), std::size_t{0});
  Procedure1Config config;
  config.nmax = 5;
  config.num_sets = 20;
  config.seed = 42;
  const AverageCaseResult avg =
      run_procedure1(db, monitored, config, shared_pool());

  for (std::size_t j = 0; j < monitored.size(); ++j) {
    for (int n = 1; n <= config.nmax; ++n) {
      if (worst.nmin[j] <= static_cast<std::uint64_t>(n)) {
        ASSERT_DOUBLE_EQ(avg.probability(n, j), 1.0)
            << GetParam() << " fault " << j << " nmin=" << worst.nmin[j]
            << " n=" << n;
      }
    }
  }
}

TEST_P(PipelineTest, CumulativeCoverageIsMonotone) {
  const Circuit circuit = fsm_benchmark_circuit(GetParam());
  const DetectionDb db = DetectionDb::build(circuit, {}, shared_pool());
  const WorstCaseResult worst = analyze_worst_case(db, shared_pool());
  double previous = 0.0;
  for (const std::uint64_t n : {1, 2, 3, 4, 5, 10, 100}) {
    const double fraction = worst.fraction_at_most(n);
    EXPECT_GE(fraction + 1e-12, previous) << GetParam() << " n=" << n;
    previous = fraction;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSuite, PipelineTest,
                         ::testing::Values("lion", "train4", "mc", "modulo12",
                                           "dk27", "bbtas", "ex5", "s8",
                                           "dk15", "firstex"));

TEST(Pipeline, Table2And3RowsAreConsistent) {
  const Circuit circuit = fsm_benchmark_circuit("bbtas");
  const DetectionDb db = DetectionDb::build(circuit, {}, shared_pool());
  const WorstCaseResult worst = analyze_worst_case(db, shared_pool());
  const Table2Row t2 = make_table2_row("bbtas", worst);
  const Table3Row t3 = make_table3_row("bbtas", worst);
  EXPECT_EQ(t2.fault_count, t3.fault_count);
  // Faults with nmin >= 11 are exactly those NOT covered at n = 10.
  const auto covered_at_10 =
      static_cast<std::size_t>(t2.fraction[5] * t2.fault_count + 0.5);
  EXPECT_EQ(t3.count[2], t2.fault_count - covered_at_10);
}

TEST(Pipeline, MonitoredSetForTable5MatchesWorstCase) {
  const Circuit circuit = fsm_benchmark_circuit("beecount");
  const DetectionDb db = DetectionDb::build(circuit, {}, shared_pool());
  const WorstCaseResult worst = analyze_worst_case(db, shared_pool());
  const auto monitored = worst.indices_at_least(11);
  // Whatever the exact tail is, each monitored fault must be detectable and
  // not guaranteed at n = 10.
  for (const auto j : monitored) {
    EXPECT_TRUE(db.untargeted_sets()[j].any());
    EXPECT_GT(worst.nmin[j], 10u);
  }
}

TEST(Pipeline, StatsReflectSynthesizedShape) {
  const Circuit circuit = fsm_benchmark_circuit("keyb");
  const CircuitStats stats = compute_stats(circuit);
  EXPECT_EQ(stats.inputs, 12u);  // 7 PIs + 5 state bits
  EXPECT_GT(stats.multi_input_gates, 10u);
  EXPECT_GT(stats.branches, 0u);
}

TEST(Pipeline, EncodingChangesCircuitButAnalysisStillRuns) {
  for (const StateEncoding enc :
       {StateEncoding::kBinary, StateEncoding::kGray}) {
    const Circuit circuit = fsm_benchmark_circuit("dk27", enc);
    const DetectionDb db = DetectionDb::build(circuit, {}, shared_pool());
    const WorstCaseResult worst = analyze_worst_case(db, shared_pool());
    EXPECT_GT(worst.nmin.size(), 0u);
  }
}

}  // namespace
}  // namespace ndet
