// ternary_test.cpp -- three-valued simulation and the Definition-2
// similarity oracle.

#include <gtest/gtest.h>

#include "faults/stuck_at.hpp"
#include "netlist/library.hpp"
#include "sim/exhaustive.hpp"
#include "sim/fault_sim.hpp"
#include "sim/ternary_sim.hpp"
#include "test_util.hpp"

namespace ndet {
namespace {

using testing::find_fault;

std::vector<Ternary> fully_specified(const Circuit& c, std::uint64_t v) {
  std::vector<Ternary> inputs(c.input_count());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    inputs[i] = ternary_of(((v >> (c.input_count() - 1 - i)) & 1u) != 0);
  return inputs;
}

TEST(TernarySim, FullySpecifiedMatchesBinarySimulation) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  const TernarySimulator tsim(lines);
  const ExhaustiveSimulator sim(c);
  for (std::uint64_t v = 0; v < 16; ++v) {
    const auto values = tsim.good_values(fully_specified(c, v));
    for (GateId g = 0; g < c.gate_count(); ++g) {
      ASSERT_TRUE(is_binary(values[g]));
      EXPECT_EQ(values[g] == Ternary::kOne, sim.good_value(g, v))
          << "v=" << v << " gate=" << c.gate(g).name;
    }
  }
}

TEST(TernarySim, XPropagatesOnlyWhereUnresolved) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  const TernarySimulator tsim(lines);
  // inputs (X,1,1,X): 9 = X&1 = X; 10 = 1&1 = 1; 11 = 1|X = 1.
  const std::vector<Ternary> inputs{Ternary::kX, Ternary::kOne, Ternary::kOne,
                                    Ternary::kX};
  const auto values = tsim.good_values(inputs);
  EXPECT_EQ(values[*c.find("9")], Ternary::kX);
  EXPECT_EQ(values[*c.find("10")], Ternary::kOne);
  EXPECT_EQ(values[*c.find("11")], Ternary::kOne);
}

// Soundness of pessimistic 3-valued detection: if the partial vector
// definitely detects the fault, EVERY completion must detect it.
TEST(TernarySim, DefiniteDetectionHoldsForAllCompletions) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  const TernarySimulator tsim(lines);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const auto faults = collapse_stuck_at_faults(lines);
  const auto sets = fsim.detection_sets(faults);

  // Enumerate all 3^4 partial input vectors.
  const Ternary vals[3] = {Ternary::kZero, Ternary::kOne, Ternary::kX};
  for (int code = 0; code < 81; ++code) {
    std::vector<Ternary> inputs(4);
    int rem = code;
    for (int i = 0; i < 4; ++i) {
      inputs[static_cast<std::size_t>(i)] = vals[rem % 3];
      rem /= 3;
    }
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (!tsim.detects(faults[fi], inputs)) continue;
      // Every completion must be in T(f).
      for (std::uint64_t v = 0; v < 16; ++v) {
        bool compatible = true;
        for (std::size_t i = 0; i < 4 && compatible; ++i) {
          if (inputs[i] == Ternary::kX) continue;
          const bool bit = ((v >> (3 - i)) & 1u) != 0;
          compatible = (inputs[i] == ternary_of(bit));
        }
        if (compatible) {
          EXPECT_TRUE(sets[fi].test(v))
              << "fault " << fi << " code " << code << " completion " << v;
        }
      }
    }
  }
}

TEST(TernarySim, CommonVectorKeepsAgreedBits) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  const TernarySimulator tsim(lines);
  // t1 = 6 = 0110, t2 = 12 = 1100: agreement pattern (X,1,X,0).
  const auto tij = tsim.common_vector(6, 12);
  ASSERT_EQ(tij.size(), 4u);
  EXPECT_EQ(tij[0], Ternary::kX);
  EXPECT_EQ(tij[1], Ternary::kOne);
  EXPECT_EQ(tij[2], Ternary::kX);
  EXPECT_EQ(tij[3], Ternary::kZero);
  // Identical tests agree everywhere.
  const auto same = tsim.common_vector(9, 9);
  for (const Ternary t : same) EXPECT_TRUE(is_binary(t));
}

// --- Definition 2 oracle ----------------------------------------------------

class Def2Fixture : public ::testing::Test {
 protected:
  Def2Fixture()
      : circuit_(paper_example()),
        lines_(circuit_),
        faults_(collapse_stuck_at_faults(lines_)),
        oracle_(lines_, faults_) {}

  Circuit circuit_;
  LineModel lines_;
  std::vector<StuckAtFault> faults_;
  Def2Oracle oracle_;
};

TEST_F(Def2Fixture, SameTestIsNeverDistinct) {
  const int f0 = find_fault(faults_, 0, true);
  ASSERT_GE(f0, 0);
  EXPECT_FALSE(oracle_.distinct(static_cast<std::size_t>(f0), 6, 6));
}

TEST_F(Def2Fixture, AllTestsOfFault0AreSimilar) {
  // f0 = 1/1 with T = {4,5,6,7}: all tests share b1=0, b2=1, which alone
  // detect the fault, so no pair counts as two detections.
  const auto f0 = static_cast<std::size_t>(find_fault(faults_, 0, true));
  const std::vector<std::uint64_t> tests{4, 5, 6, 7};
  for (const auto t1 : tests) {
    for (const auto t2 : tests) {
      if (t1 != t2) {
        EXPECT_FALSE(oracle_.distinct(f0, t1, t2)) << t1 << "," << t2;
      }
    }
  }
}

TEST_F(Def2Fixture, Fault2_0HasDistinctAndSimilarPairs) {
  // f1 = 2/0 with T = {6,7,12,13,14,15}: tests 6 and 7 share the detecting
  // core (b2=1, b3=1 through gate 10) -> similar; tests 6 and 12 agree only
  // on b2=1, b4=0, which does not detect -> distinct.
  const auto f1 = static_cast<std::size_t>(find_fault(faults_, 1, false));
  EXPECT_FALSE(oracle_.distinct(f1, 6, 7));
  EXPECT_TRUE(oracle_.distinct(f1, 6, 12));
  EXPECT_TRUE(oracle_.distinct(f1, 7, 12));
  EXPECT_FALSE(oracle_.distinct(f1, 12, 13));
}

TEST_F(Def2Fixture, DistinctIsSymmetric) {
  const auto f1 = static_cast<std::size_t>(find_fault(faults_, 1, false));
  for (const auto& [a, b] : {std::pair<std::uint64_t, std::uint64_t>{6, 12},
                            {6, 7},
                            {13, 14},
                            {12, 15}}) {
    EXPECT_EQ(oracle_.distinct(f1, a, b), oracle_.distinct(f1, b, a))
        << a << "," << b;
  }
}

TEST_F(Def2Fixture, CachesAreEffective) {
  const auto f1 = static_cast<std::size_t>(find_fault(faults_, 1, false));
  (void)oracle_.distinct(f1, 6, 12);
  const Def2OracleStats before = oracle_.stats();
  // Repeating the same query must hit the memo.
  (void)oracle_.distinct(f1, 6, 12);
  (void)oracle_.distinct(f1, 12, 6);
  const Def2OracleStats after = oracle_.stats();
  EXPECT_EQ(after.verdict_misses, before.verdict_misses);
  EXPECT_GE(after.verdict_hits, before.verdict_hits + 2);
  EXPECT_GE(after.good_sim_entries, 1u);
}

TEST_F(Def2Fixture, DefinitionTwoIsStricterThanDefinitionOne) {
  // Any two *distinct* tests are one Def-1 detection each; under Def-2 the
  // pair counts as two detections only when the oracle says so.  Hence the
  // greedy Def-2 count over any test list is at most the Def-1 count.
  const ExhaustiveSimulator sim(circuit_);
  const FaultSimulator fsim(sim, lines_);
  for (std::size_t fi = 0; fi < faults_.size(); ++fi) {
    const auto tests = testing::to_vector(fsim.detection_set(faults_[fi]));
    std::vector<std::uint64_t> counted;
    for (const auto t : tests) {
      bool distinct_from_all = true;
      for (const auto s : counted)
        if (!oracle_.distinct(fi, s, t)) {
          distinct_from_all = false;
          break;
        }
      if (distinct_from_all) counted.push_back(t);
    }
    EXPECT_LE(counted.size(), tests.size());
    if (!tests.empty()) {
      EXPECT_GE(counted.size(), 1u);
    }
  }
}

TEST_F(Def2Fixture, BadFaultIndexThrows) {
  EXPECT_THROW((void)oracle_.distinct(faults_.size(), 0, 1), contract_error);
}

}  // namespace
}  // namespace ndet
