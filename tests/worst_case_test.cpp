// worst_case_test.cpp -- Section 2 of the paper: DetectionDb and the
// worst-case (nmin) analysis, validated against Table 1.

#include <gtest/gtest.h>

#include "core/detection_db.hpp"
#include "core/reports.hpp"
#include "core/worst_case.hpp"
#include "netlist/library.hpp"
#include "test_util.hpp"

namespace ndet {
namespace {

using testing::paper_example_bridging_sets;
using testing::paper_example_faults;
using testing::paper_example_nmin;
using testing::shared_pool;
using testing::to_vector;

class PaperDb : public ::testing::Test {
 protected:
  static const DetectionDb& db() {
    static const DetectionDb instance =
        DetectionDb::build(paper_example(), {}, shared_pool());
    return instance;
  }
};

TEST_F(PaperDb, TargetsAreTheSixteenCollapsedFaults) {
  EXPECT_EQ(db().targets().size(), 16u);
  EXPECT_EQ(db().detectable_target_count(), 16u);
  const auto& oracle = paper_example_faults();
  for (std::size_t i = 0; i < oracle.size(); ++i)
    EXPECT_EQ(to_vector(db().target_sets()[i]), oracle[i].tests) << i;
}

TEST_F(PaperDb, UntargetedKeepsOnlyDetectableFaults) {
  EXPECT_EQ(db().enumerated_untargeted(), 12u);
  EXPECT_EQ(db().untargeted().size(), 10u);
  const auto& oracle = paper_example_bridging_sets();
  for (std::size_t j = 0; j < oracle.size(); ++j)
    EXPECT_EQ(to_vector(db().untargeted_sets()[j]), oracle[j]) << j;
}

TEST_F(PaperDb, Table1OverlapEntries) {
  // Table 1 of the paper: faults overlapping T(g0) = {6,7} (g0 is the
  // first fault), with their N(f), M(g0,f) and nmin(g0,f).
  const auto entries = overlap_entries(db(), 0, shared_pool());
  // Expected: (index, N, M, nmin): f0: 4,2,3; f1: 6,2,5; f3: 6,2,5;
  // f9: 4,1,4; f11: 12,2,11; f12: 4,2,3; f14: 12,2,11.
  struct Expected {
    std::size_t index, n, m;
    std::uint64_t nmin;
  };
  const std::vector<Expected> expected = {
      {0, 4, 2, 3},  {1, 6, 2, 5},   {3, 6, 2, 5},  {9, 4, 1, 4},
      {11, 12, 2, 11}, {12, 4, 2, 3}, {14, 12, 2, 11},
  };
  ASSERT_EQ(entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(entries[i].target_index, expected[i].index) << i;
    EXPECT_EQ(entries[i].n_f, expected[i].n) << i;
    EXPECT_EQ(entries[i].m_gf, expected[i].m) << i;
    EXPECT_EQ(entries[i].nmin_gf, expected[i].nmin) << i;
  }
}

TEST_F(PaperDb, NminMatchesHandComputedOracle) {
  const WorstCaseResult worst = analyze_worst_case(db(), shared_pool());
  EXPECT_EQ(worst.nmin, paper_example_nmin());
}

TEST_F(PaperDb, NminG0IsThree) {
  // The paper: "Based on the information given in Table 1, nmin(g0) = 3."
  const WorstCaseResult worst = analyze_worst_case(db(), shared_pool());
  EXPECT_EQ(worst.nmin[0], 3u);
}

TEST_F(PaperDb, NminG6IsFour) {
  // Section 3: "We consider the fault g6 with T(g6) = {12}.  For this
  // fault, nmin(g6) = 4."  After detectability filtering g6 sits at index 6.
  const WorstCaseResult worst = analyze_worst_case(db(), shared_pool());
  EXPECT_EQ(to_vector(db().untargeted_sets()[6]),
            (std::vector<std::uint64_t>{12}));
  EXPECT_EQ(worst.nmin[6], 4u);
}

TEST_F(PaperDb, FractionsAndCounts) {
  const WorstCaseResult worst = analyze_worst_case(db(), shared_pool());
  EXPECT_DOUBLE_EQ(worst.fraction_at_most(1), 0.4);
  EXPECT_DOUBLE_EQ(worst.fraction_at_most(2), 0.4);
  EXPECT_DOUBLE_EQ(worst.fraction_at_most(3), 0.8);
  EXPECT_DOUBLE_EQ(worst.fraction_at_most(4), 1.0);
  EXPECT_DOUBLE_EQ(worst.fraction_at_most(10), 1.0);
  EXPECT_EQ(worst.count_at_least(4), 2u);
  EXPECT_EQ(worst.count_at_least(5), 0u);
  EXPECT_EQ(worst.count_at_least(1), 10u);
  EXPECT_EQ(worst.max_finite_nmin(), 4u);
  EXPECT_EQ(worst.indices_at_least(4), (std::vector<std::size_t>{5, 6}));
}

// The tail-selection contract: kNeverGuaranteed entries compare >= every
// threshold, so count_at_least / indices_at_least INCLUDE them -- the
// Table 3 tail and the Tables 5/6 monitored sets both depend on faults no
// n ever guarantees staying in the tail at every n.
TEST(WorstCaseResult, CountAndIndicesAtLeastIncludeNeverGuaranteed) {
  WorstCaseResult result;
  result.nmin = {1, 4, kNeverGuaranteed, 3, kNeverGuaranteed};
  EXPECT_EQ(result.count_at_least(1), 5u);
  EXPECT_EQ(result.count_at_least(4), 3u);
  EXPECT_EQ(result.count_at_least(5), 2u);
  EXPECT_EQ(result.count_at_least(kNeverGuaranteed), 2u);
  EXPECT_EQ(result.indices_at_least(4), (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(result.indices_at_least(100), (std::vector<std::size_t>{2, 4}));
  EXPECT_EQ(result.indices_at_least(kNeverGuaranteed),
            (std::vector<std::size_t>{2, 4}));
  // fraction_at_most, by contrast, EXCLUDES never-guaranteed entries from
  // its numerator at every n: no n-detection set covers them.
  EXPECT_DOUBLE_EQ(result.fraction_at_most(kNeverGuaranteed), 0.6);
}

TEST_F(PaperDb, HistogramSumsToFaultCount) {
  const WorstCaseResult worst = analyze_worst_case(db(), shared_pool());
  const auto histogram = worst.histogram();
  std::size_t total = 0;
  for (const auto& [value, count] : histogram) total += count;
  EXPECT_EQ(total, db().untargeted().size());
  EXPECT_EQ(histogram.at(1), 4u);
  EXPECT_EQ(histogram.at(3), 4u);
  EXPECT_EQ(histogram.at(4), 2u);
}

// --- Semantics of nmin ------------------------------------------------------

TEST(NminOf, MinimumOverOverlappingTargets) {
  // Hand-built sets over a universe of 8 vectors.
  const DetectionSet tg = testing::make_detection_set(8, {0, 1});
  const std::vector<DetectionSet> targets = {
      testing::make_detection_set(8, {0, 2, 3}),     // N=3, M=1 -> nmin 3
      testing::make_detection_set(8, {1}),           // N=1, M=1 -> nmin 1
      testing::make_detection_set(8, {4, 5, 6, 7}),  // disjoint -> ignored
  };
  EXPECT_EQ(nmin_of(tg, targets), 1u);
}

TEST(NminOf, NoOverlapMeansNeverGuaranteed) {
  const DetectionSet tg = testing::make_detection_set(8, {7});
  const std::vector<DetectionSet> targets = {
      testing::make_detection_set(8, {0, 1})};
  EXPECT_EQ(nmin_of(tg, targets), kNeverGuaranteed);
}

TEST(NminOf, SubsetTargetGivesOne) {
  // T(f) subset of T(g): every detection of f detects g.
  const DetectionSet tg = testing::make_detection_set(8, {2, 3, 4});
  const std::vector<DetectionSet> targets = {
      testing::make_detection_set(8, {3, 4})};
  EXPECT_EQ(nmin_of(tg, targets), 1u);
}

// The defining property of nmin, verified by brute force on the example
// circuit: for every untargeted fault g and every n < nmin(g) one can pick,
// for every target fault, min(n, N(f)) detections avoiding T(g) -- and for
// n = nmin(g) one cannot.
TEST_F(PaperDb, NminIsExactByBruteForceArgument) {
  const WorstCaseResult worst = analyze_worst_case(db(), shared_pool());
  for (std::size_t j = 0; j < db().untargeted().size(); ++j) {
    const DetectionSet& tg = db().untargeted_sets()[j];
    const std::uint64_t nmin = worst.nmin[j];
    ASSERT_NE(nmin, kNeverGuaranteed);
    // For n = nmin - 1 every target can be detected n times outside T(g).
    if (nmin > 1) {
      const std::uint64_t n = nmin - 1;
      for (const DetectionSet& tf : db().target_sets()) {
        const std::size_t outside = tf.and_not_count(tg);
        const std::size_t required = std::min<std::size_t>(
            static_cast<std::size_t>(n), tf.count());
        EXPECT_GE(outside, required) << "g" << j;
      }
    }
    // For n = nmin some target fault forces a test inside T(g).
    bool forced = false;
    for (const DetectionSet& tf : db().target_sets()) {
      const std::size_t outside = tf.and_not_count(tg);
      const std::size_t required =
          std::min<std::size_t>(static_cast<std::size_t>(nmin), tf.count());
      if (tf.intersects(tg) && outside < required) forced = true;
    }
    EXPECT_TRUE(forced) << "g" << j;
  }
}

// --- Report rendering -------------------------------------------------------

TEST_F(PaperDb, Table2RowRendersSaturation) {
  const WorstCaseResult worst = analyze_worst_case(db(), shared_pool());
  const Table2Row row = make_table2_row("paper_example", worst);
  EXPECT_EQ(row.fault_count, 10u);
  EXPECT_DOUBLE_EQ(row.fraction[0], 0.4);
  EXPECT_DOUBLE_EQ(row.fraction[3], 1.0);
  const TextTable table = render_table2({row});
  const std::string out = table.render();
  EXPECT_NE(out.find("40.00"), std::string::npos);
  EXPECT_NE(out.find("100.00"), std::string::npos);
}

TEST_F(PaperDb, Table3RowCounts) {
  const WorstCaseResult worst = analyze_worst_case(db(), shared_pool());
  const Table3Row row = make_table3_row("paper_example", worst);
  EXPECT_EQ(row.count[0], 0u);   // >= 100
  EXPECT_EQ(row.count[1], 0u);   // >= 20
  EXPECT_EQ(row.count[2], 0u);   // >= 11
  EXPECT_FALSE(render_table3({row}).render().empty());
}

TEST_F(PaperDb, Figure2HistogramRespectsCutoff) {
  const WorstCaseResult worst = analyze_worst_case(db(), shared_pool());
  const auto all = figure2_histogram(worst, 1);
  std::size_t total = 0;
  for (const auto& [value, count] : all) total += count;
  EXPECT_EQ(total, 10u);
  const auto tail = figure2_histogram(worst, 4);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].first, 4u);
  EXPECT_EQ(tail[0].second, 2u);
  EXPECT_FALSE(render_figure2(tail).empty());
  EXPECT_FALSE(render_figure2({}).empty());
}

TEST(DetectionDb, TransposeRoundTrips) {
  const DetectionDb db = DetectionDb::build(c17(), {}, shared_pool());
  const auto rows =
      transpose_detection_sets(db.target_sets(), db.vector_count());
  ASSERT_EQ(rows.size(), db.vector_count());
  for (std::size_t i = 0; i < db.targets().size(); ++i)
    for (std::uint64_t v = 0; v < db.vector_count(); ++v)
      EXPECT_EQ(rows[v].test(i), db.target_sets()[i].test(v));
}

TEST(DetectionDb, C17HasNoBridgingTail) {
  // c17's NAND pairs are mostly connected; the analysis still runs and all
  // detectable bridging faults get a finite nmin.
  const DetectionDb db = DetectionDb::build(c17(), {}, shared_pool());
  const WorstCaseResult worst = analyze_worst_case(db, shared_pool());
  for (const auto v : worst.nmin) EXPECT_NE(v, kNeverGuaranteed);
}

}  // namespace
}  // namespace ndet
