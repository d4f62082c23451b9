// partition_test.cpp -- Section 4's cone partitioning for larger circuits.

#include <gtest/gtest.h>

#include "core/partition.hpp"
#include "netlist/library.hpp"
#include "sim/exhaustive.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace ndet {
namespace {

using testing::shared_pool;

TEST(ExtractCone, PreservesFunctionOfSelectedOutputs) {
  const Circuit c = ripple_adder(3);
  // Extract the cone of s1 (depends on a0,a1,b0,b1,cin).
  const GateId s1 = *c.find("s1");
  const Circuit cone = extract_cone(c, {s1});
  EXPECT_EQ(cone.output_count(), 1u);
  EXPECT_EQ(cone.input_count(), 5u);

  const ExhaustiveSimulator full(c);
  const ExhaustiveSimulator sub(cone);
  // Exhaustively compare: for every cone vector, find a matching full
  // vector and compare the output value.
  for (std::uint64_t v = 0; v < sub.vector_count(); ++v) {
    std::uint64_t full_v = 0;
    for (std::size_t i = 0; i < c.input_count(); ++i) {
      bool bit = false;
      const std::string& name = c.gate(c.inputs()[i]).name;
      if (const auto sub_gate = cone.find(name)) {
        bit = sub.input_bit(v, cone.input_index(*sub_gate));
      }
      full_v = (full_v << 1) | (bit ? 1u : 0u);
    }
    EXPECT_EQ(sub.good_value(*cone.find("s1"), v),
              full.good_value(s1, full_v))
        << v;
  }
}

TEST(ExtractCone, RejectsEmptyOutputList) {
  const Circuit c = paper_example();
  EXPECT_THROW((void)extract_cone(c, {}), contract_error);
}

TEST(InputSupport, ComputesStructuralSupport) {
  const Circuit c = paper_example();
  EXPECT_EQ(input_support(c, {*c.find("9")}).size(), 2u);
  EXPECT_EQ(input_support(c, {*c.find("11")}).size(), 2u);
  EXPECT_EQ(input_support(c, {*c.find("9"), *c.find("10")}).size(), 3u);
}

/// Three disjoint majority voters: each output depends on its own three
/// inputs, so cones partition cleanly.
Circuit tri_majority() {
  CircuitBuilder b("tri_majority");
  for (int block = 0; block < 3; ++block) {
    const std::string s = std::to_string(block);
    const GateId x = b.add_input("x" + s);
    const GateId y = b.add_input("y" + s);
    const GateId z = b.add_input("z" + s);
    const GateId xy = b.add_gate(GateType::kAnd, "xy" + s, {x, y});
    const GateId yz = b.add_gate(GateType::kAnd, "yz" + s, {y, z});
    const GateId xz = b.add_gate(GateType::kAnd, "xz" + s, {x, z});
    b.mark_output(b.add_gate(GateType::kOr, "m" + s, {xy, yz, xz}));
  }
  return b.build();
}

TEST(Partition, GroupsOutputsWithinBudget) {
  const Circuit c = tri_majority();  // 9 inputs, three 3-input cones
  const auto cones =
      partition_by_outputs(c, PartitionOptions{.max_inputs = 6});
  EXPECT_EQ(cones.size(), 2u);  // {m0,m1} then {m2}
  std::size_t outputs = 0;
  for (const Circuit& cone : cones) {
    EXPECT_LE(cone.input_count(), 6u);
    outputs += cone.output_count();
  }
  EXPECT_EQ(outputs, c.output_count());
}

TEST(Partition, SingleGroupWhenBudgetSuffices) {
  const Circuit c = paper_example();
  const auto cones =
      partition_by_outputs(c, PartitionOptions{.max_inputs = 4});
  ASSERT_EQ(cones.size(), 1u);
  EXPECT_EQ(cones[0].output_count(), 3u);
}

TEST(Partition, ThrowsWhenOneOutputExceedsBudget) {
  const Circuit c = ripple_adder(4);
  // s3 depends on all 9 inputs... cout depends on 9; budget 3 is too small.
  EXPECT_THROW(
      (void)partition_by_outputs(c, PartitionOptions{.max_inputs = 3}),
      contract_error);
}

TEST(Partition, SharedLogicStaysApartAcrossADeclarationGap) {
  // Outputs a and c share a subcircuit; b is independent and declared
  // between them.  Grouping follows declaration order, so b's support
  // closes a's group and c opens a third.
  CircuitBuilder b("shared_pair");
  const GateId x0 = b.add_input("x0");
  const GateId x1 = b.add_input("x1");
  const GateId x2 = b.add_input("x2");
  const GateId y0 = b.add_input("y0");
  const GateId y1 = b.add_input("y1");
  const GateId shared = b.add_gate(GateType::kAnd, "shared", {x0, x1});
  b.mark_output(b.add_gate(GateType::kOr, "a", {shared, x2}));
  b.mark_output(b.add_gate(GateType::kAnd, "b", {y0, y1}));
  b.mark_output(b.add_gate(GateType::kXor, "c", {shared, x2}));
  const auto cones =
      partition_by_outputs(b.build(), PartitionOptions{.max_inputs = 3});
  ASSERT_EQ(cones.size(), 3u);
  EXPECT_EQ(cones[0].name(), "shared_pair_cone_a");
  EXPECT_EQ(cones[1].name(), "shared_pair_cone_b");
  EXPECT_EQ(cones[2].name(), "shared_pair_cone_c");
}

TEST(Partition, ConstantOutputJoinsItsDeclarationNeighbor) {
  // Synthesized FSMs can have always-off outputs (GateType::kConst0) whose
  // fanin cone holds no primary input and so cannot stand alone as a
  // circuit.  Its empty support fits any budget, so the next output joins
  // its group.
  CircuitBuilder b("const_out");
  const GateId x0 = b.add_input("x0");
  const GateId x1 = b.add_input("x1");
  b.mark_output(b.add_gate(GateType::kConst0, "k", {}));
  b.mark_output(b.add_gate(GateType::kAnd, "a", {x0, x1}));
  const auto cones =
      partition_by_outputs(b.build(), PartitionOptions{.max_inputs = 2});
  ASSERT_EQ(cones.size(), 1u);
  EXPECT_EQ(cones[0].output_count(), 2u);
  EXPECT_EQ(cones[0].name(), "const_out_cone_k_a");
}

TEST(Partition, WorstCasePerConeRuns) {
  const Circuit c = tri_majority();
  const auto reports = partitioned_worst_case(
      c, PartitionOptions{.max_inputs = 3}, shared_pool());
  EXPECT_EQ(reports.size(), 3u);
  for (const auto& report : reports) {
    EXPECT_LE(report.inputs, 3u);
    EXPECT_GE(report.outputs, 1u);
    EXPECT_GE(report.fraction_nmin_at_most_10, 0.0);
    EXPECT_LE(report.fraction_nmin_at_most_10, 1.0);
  }
}

TEST(Partition, ConeAnalysisAgreesWithWholeCircuitWhenSupportsMatch) {
  // The paper example fits in one cone; partitioned analysis must equal the
  // whole-circuit analysis.
  const Circuit c = paper_example();
  const auto reports = partitioned_worst_case(
      c, PartitionOptions{.max_inputs = 4}, shared_pool());
  ASSERT_EQ(reports.size(), 1u);
  const DetectionDb db = DetectionDb::build(c, {}, shared_pool());
  const WorstCaseResult worst = analyze_worst_case(db, shared_pool());
  EXPECT_EQ(reports[0].untargeted_faults, db.untargeted().size());
  EXPECT_DOUBLE_EQ(reports[0].fraction_nmin_at_most_10,
                   worst.fraction_at_most(10));
  EXPECT_EQ(reports[0].max_finite_nmin, worst.max_finite_nmin());
}

}  // namespace
}  // namespace ndet
