// sim_test.cpp -- exhaustive simulation and detection sets, validated
// against hand-computed oracles and the paper's Table 1.

#include <gtest/gtest.h>

#include "faults/stuck_at.hpp"
#include "netlist/library.hpp"
#include "netlist/reach.hpp"
#include "sim/exhaustive.hpp"
#include "sim/fault_sim.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace ndet {
namespace {

using testing::paper_example_bridging_sets;
using testing::paper_example_faults;
using testing::to_vector;

TEST(Exhaustive, InputConventionFirstInputIsMsb) {
  const Circuit c = paper_example();
  const ExhaustiveSimulator sim(c);
  ASSERT_EQ(sim.vector_count(), 16u);
  // Vector 6 = 0110: inputs 2 and 3 are one.
  EXPECT_FALSE(sim.input_bit(6, 0));
  EXPECT_TRUE(sim.input_bit(6, 1));
  EXPECT_TRUE(sim.input_bit(6, 2));
  EXPECT_FALSE(sim.input_bit(6, 3));
  // The input gate's simulated value agrees.
  EXPECT_FALSE(sim.good_value(*c.find("1"), 6));
  EXPECT_TRUE(sim.good_value(*c.find("2"), 6));
}

TEST(Exhaustive, PaperExampleGateFunctions) {
  const Circuit c = paper_example();
  const ExhaustiveSimulator sim(c);
  for (std::uint64_t v = 0; v < 16; ++v) {
    const bool b1 = (v >> 3) & 1, b2 = (v >> 2) & 1, b3 = (v >> 1) & 1,
               b4 = v & 1;
    EXPECT_EQ(sim.good_value(*c.find("9"), v), b1 && b2) << v;
    EXPECT_EQ(sim.good_value(*c.find("10"), v), b2 && b3) << v;
    EXPECT_EQ(sim.good_value(*c.find("11"), v), b3 || b4) << v;
  }
}

TEST(Exhaustive, AdderComputesArithmetic) {
  const Circuit c = ripple_adder(3);
  const ExhaustiveSimulator sim(c);
  // Inputs: a0..a2 (indices 0..2), b0..b2 (3..5), cin (6); a0/b0 are the
  // least significant adder bits but input 0 is the vector MSB.
  for (std::uint64_t v = 0; v < sim.vector_count(); ++v) {
    unsigned a = 0, b = 0;
    for (int i = 0; i < 3; ++i) {
      a |= static_cast<unsigned>(sim.input_bit(v, static_cast<std::size_t>(i))) << i;
      b |= static_cast<unsigned>(sim.input_bit(v, static_cast<std::size_t>(3 + i))) << i;
    }
    const unsigned cin = sim.input_bit(v, 6) ? 1 : 0;
    const unsigned sum = a + b + cin;
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(sim.good_value(*c.find("s" + std::to_string(i)), v),
                ((sum >> i) & 1u) != 0)
          << "v=" << v;
    EXPECT_EQ(sim.good_value(*c.find("c3"), v), (sum >> 3) != 0) << "v=" << v;
  }
}

TEST(Exhaustive, ParityTreeMatchesPopcount) {
  const Circuit c = parity_tree(8);
  const ExhaustiveSimulator sim(c);
  const GateId out = c.outputs()[0];
  for (std::uint64_t v = 0; v < 256; ++v)
    EXPECT_EQ(sim.good_value(out, v), (__builtin_popcountll(v) & 1) != 0);
}

TEST(Exhaustive, Mux4SelectsCorrectData) {
  const Circuit c = mux4();
  const ExhaustiveSimulator sim(c);
  const GateId y = c.outputs()[0];
  for (std::uint64_t v = 0; v < sim.vector_count(); ++v) {
    const unsigned sel = (sim.input_bit(v, 1) ? 2u : 0u) |
                         (sim.input_bit(v, 0) ? 1u : 0u);
    const bool expected = sim.input_bit(v, 2 + sel);
    EXPECT_EQ(sim.good_value(y, v), expected) << v;
  }
}

TEST(Exhaustive, RefusesTooManyInputs) {
  const Circuit c = paper_example();
  EXPECT_THROW(ExhaustiveSimulator(c, 3), contract_error);
}

TEST(Exhaustive, SmallCircuitLastWordMask) {
  const Circuit c = majority3();  // 3 inputs -> 8 vectors in one word
  const ExhaustiveSimulator sim(c);
  EXPECT_EQ(sim.vector_count(), 8u);
  EXPECT_EQ(sim.word_count(), 1u);
  EXPECT_EQ(sim.last_word_mask(), 0xFFull);
}

// --- Stuck-at detection sets (the Table 1 oracle) --------------------------

class PaperFaultSets : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaperFaultSets, MatchExactly) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator faults(sim, lines);
  const auto& oracle = paper_example_faults()[GetParam()];
  const Bitset set =
      faults.detection_set(StuckAtFault{oracle.line, oracle.value});
  EXPECT_EQ(to_vector(set), oracle.tests)
      << "fault index " << GetParam() << " (line " << oracle.line + 1 << "/"
      << oracle.value << ")";
}

INSTANTIATE_TEST_SUITE_P(AllSixteenCollapsedFaults, PaperFaultSets,
                         ::testing::Range<std::size_t>(0, 16));

TEST(FaultSim, BatchMatchesSingle) {
  const Circuit c = c17();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const auto faults = collapse_stuck_at_faults(lines);
  const auto sets = fsim.detection_sets(faults);
  ASSERT_EQ(sets.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_EQ(sets[i], fsim.detection_set(faults[i])) << i;
}

TEST(FaultSim, C17AllCollapsedFaultsDetectable) {
  // c17 is fully testable -- a classic sanity check for any fault simulator.
  const Circuit c = c17();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  for (const auto& fault : collapse_stuck_at_faults(lines))
    EXPECT_TRUE(fsim.detection_set(fault).any()) << to_string(fault, lines);
}

TEST(FaultSim, RedundantFaultHasEmptySet) {
  // g = OR(a, NOT a) is constant 1: no vector detects g/1.
  CircuitBuilder b("redundant");
  const GateId a = b.add_input("a");
  const GateId na = b.add_gate(GateType::kNot, "na", {a});
  const GateId g = b.add_gate(GateType::kOr, "g", {a, na});
  b.mark_output(g);
  const Circuit c = b.build();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  EXPECT_TRUE(fsim.detection_set(StuckAtFault{lines.stem_of(g), true}).none());
  EXPECT_TRUE(fsim.detection_set(StuckAtFault{lines.stem_of(g), false}).any());
}

TEST(FaultSim, BranchFaultIsLocalizedToItsSink) {
  // Branch 2->10 stuck-at 1 (line 5 of the paper example) must affect gate
  // 10 only: T = {v: b2=0, b3=1} = {2,3,10,11}.
  const Circuit c = paper_example();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const Bitset set = fsim.detection_set(StuckAtFault{5, true});
  EXPECT_EQ(to_vector(set), (std::vector<std::uint64_t>{2, 3, 10, 11}));
}

TEST(FaultSim, StemVsBranchDiffer) {
  // Stem fault 2/0 affects both gates 9 and 10; branch faults only one.
  const Circuit c = paper_example();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const Bitset stem = fsim.detection_set(StuckAtFault{1, false});
  const Bitset branch9 = fsim.detection_set(StuckAtFault{4, false});
  const Bitset branch10 = fsim.detection_set(StuckAtFault{5, false});
  EXPECT_EQ(stem, branch9 | branch10);
}

// --- Bridging detection sets ------------------------------------------------

TEST(BridgingSim, PaperExampleAllDetectionSets) {
  const Circuit c = paper_example();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const ReachMatrix reach(c);
  const auto faults = enumerate_four_way_bridging(c, reach);
  ASSERT_EQ(faults.size(), 12u);

  std::vector<std::vector<std::uint64_t>> detectable;
  for (const auto& fault : faults) {
    const Bitset set = fsim.detection_set(fault);
    if (set.any()) detectable.push_back(to_vector(set));
  }
  EXPECT_EQ(detectable, paper_example_bridging_sets());
}

TEST(BridgingSim, G0MatchesPaper) {
  // T(g0) = {6,7} for g0 = (9,0,10,1) -- the paper's running example.
  const Circuit c = paper_example();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const BridgingFault g0{*c.find("9"), false, *c.find("10"), true};
  EXPECT_EQ(to_vector(fsim.detection_set(g0)),
            (std::vector<std::uint64_t>{6, 7}));
}

TEST(BridgingSim, G6MatchesPaperSection3) {
  // T(g6) = {12} for g6 = (11,0,9,1).
  const Circuit c = paper_example();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const BridgingFault g6{*c.find("11"), false, *c.find("9"), true};
  EXPECT_EQ(to_vector(fsim.detection_set(g6)),
            (std::vector<std::uint64_t>{12}));
}

TEST(BridgingSim, ContradictoryPairWayHasEmptySet) {
  // (10,1,11,0) requires 10=1 (b2&b3) and 11=0 (!b3&!b4): contradictory.
  const Circuit c = paper_example();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const BridgingFault g9{*c.find("10"), true, *c.find("11"), false};
  EXPECT_TRUE(fsim.detection_set(g9).none());
}

TEST(BridgingSim, VictimSemanticsWiredOr) {
  // For a2=1 the victim is forced to 1 exactly when the aggressor is 1:
  // vectors where victim already carries 1 see no change.
  const Circuit c = paper_example();
  const LineModel lines(c);
  const ExhaustiveSimulator sim(c);
  const FaultSimulator fsim(sim, lines);
  const BridgingFault g{*c.find("9"), false, *c.find("11"), true};
  // Detected exactly when 9=0, 11=1 (victim flip observable at PO 9).
  for (const std::uint64_t v : to_vector(fsim.detection_set(g))) {
    EXPECT_FALSE(sim.good_value(*c.find("9"), v));
    EXPECT_TRUE(sim.good_value(*c.find("11"), v));
  }
}

}  // namespace
}  // namespace ndet
