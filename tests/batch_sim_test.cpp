// batch_sim_test.cpp -- the batched engine against the per-fault reference.
//
// BatchFaultSimulator exists purely for speed; its contract is that every
// T(f) and T(g) it produces is bit-identical to FaultSimulator's.  The suite
// holds it to that across the FSM benchmark circuits (every machine small
// enough for exhaustive simulation in test time), in explicit-vector (list)
// mode, and under varying worker-pool widths.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/detection_db.hpp"
#include "faults/bridging.hpp"
#include "faults/stuck_at.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/library.hpp"
#include "netlist/graph.hpp"
#include "netlist/reach.hpp"
#include "sim/batch_fault_sim.hpp"
#include "sim/exhaustive.hpp"
#include "sim/fault_sim.hpp"
#include "test_util.hpp"

namespace ndet {
namespace {

using testing::shared_pool;
using testing::to_vector;

/// Machines exercised exhaustively: every suite entry whose synthesized
/// circuit keeps the 2^PI vector space small enough for test time.
constexpr int kMaxInputsForCrossValidation = 12;

std::vector<std::string> cross_validation_machines() {
  std::vector<std::string> names;
  for (const FsmBenchmarkInfo& info : fsm_benchmark_suite()) {
    const Circuit circuit = fsm_benchmark_circuit(info.name);
    if (static_cast<int>(circuit.input_count()) <= kMaxInputsForCrossValidation)
      names.push_back(info.name);
  }
  return names;
}

void expect_identical_sets(const std::vector<Bitset>& reference,
                           const std::vector<Bitset>& batched,
                           const std::string& machine, const char* family) {
  ASSERT_EQ(reference.size(), batched.size()) << machine << " " << family;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i], batched[i])
        << machine << " " << family << " fault " << i;
  }
}

TEST(BatchFaultSim, CrossValidatesAgainstReferenceOnFsmSuite) {
  const std::vector<std::string> machines = cross_validation_machines();
  // The filter must not silently shrink coverage to a token sample.
  ASSERT_GE(machines.size(), 10u);
  for (const std::string& name : machines) {
    const Circuit circuit = fsm_benchmark_circuit(name);
    const LineModel lines(circuit);
    const ExhaustiveSimulator good(circuit);
    const FaultSimulator reference(good, lines);
    const BatchFaultSimulator batched(good, lines, shared_pool());

    const std::vector<StuckAtFault> targets = collapse_stuck_at_faults(lines);
    expect_identical_sets(reference.detection_sets(targets),
                          batched.detection_sets(targets), name, "stuck-at");

    const ReachMatrix reach(circuit);
    const std::vector<BridgingFault> bridges =
        enumerate_four_way_bridging(circuit, reach);
    expect_identical_sets(reference.detection_sets(bridges),
                          batched.detection_sets(bridges), name, "bridging");
  }
}

TEST(BatchFaultSim, CrossValidatesInExplicitVectorMode) {
  // ndetect's compactor grades test sets through list-mode simulators; the
  // batched engine must agree with the reference there too.
  const Circuit circuit = fsm_benchmark_circuit("bbara");
  const LineModel lines(circuit);
  const std::vector<std::uint64_t> vectors = {0, 3, 7, 11, 42, 63, 100, 255};
  const ExhaustiveSimulator good(circuit, vectors);
  const FaultSimulator reference(good, lines);
  const BatchFaultSimulator batched(good, lines, shared_pool());
  const std::vector<StuckAtFault> targets = collapse_stuck_at_faults(lines);
  expect_identical_sets(reference.detection_sets(targets),
                        batched.detection_sets(targets), "bbara", "list-mode");
}

TEST(BatchFaultSim, DeterministicAcrossThreadCounts) {
  const Circuit circuit = fsm_benchmark_circuit("bbara");
  const LineModel lines(circuit);
  const ExhaustiveSimulator good(circuit);
  const std::vector<StuckAtFault> targets = collapse_stuck_at_faults(lines);
  const ReachMatrix reach(circuit);
  const std::vector<BridgingFault> bridges =
      enumerate_four_way_bridging(circuit, reach);

  const ThreadPool serial(1);
  const BatchFaultSimulator single(good, lines, serial);
  const std::vector<Bitset> stuck_baseline = single.detection_sets(targets);
  const std::vector<Bitset> bridge_baseline = single.detection_sets(bridges);

  for (const unsigned threads : {2u, 3u, 8u}) {
    const ThreadPool pool(threads);
    const BatchFaultSimulator sharded(good, lines, pool);
    expect_identical_sets(stuck_baseline, sharded.detection_sets(targets),
                          "bbara", "stuck-at (threads)");
    expect_identical_sets(bridge_baseline, sharded.detection_sets(bridges),
                          "bbara", "bridging (threads)");
  }
}

TEST(BatchFaultSim, PrecomputedConesMatchOnDemandComputation) {
  const Circuit circuit = fsm_benchmark_circuit("bbtas");
  const LineModel lines(circuit);
  const ExhaustiveSimulator good(circuit);
  const BatchFaultSimulator batched(good, lines, shared_pool());
  for (GateId g = 0; g < circuit.gate_count(); ++g) {
    const std::vector<GateId> expected = fanout_cone(circuit, g);
    const std::span<const GateId> actual = batched.cone_gates(g);
    ASSERT_EQ(std::vector<GateId>(actual.begin(), actual.end()), expected)
        << "gate " << g;
    std::vector<GateId> expected_outputs;
    for (const GateId c : expected)
      if (circuit.is_output(c)) expected_outputs.push_back(c);
    const std::span<const GateId> outputs = batched.cone_outputs(g);
    ASSERT_EQ(std::vector<GateId>(outputs.begin(), outputs.end()),
              expected_outputs)
        << "gate " << g;
  }
}

TEST(BatchFaultSim, SingleFaultConvenienceMatchesPaperOracle) {
  const Circuit circuit = paper_example();
  const LineModel lines(circuit);
  const ExhaustiveSimulator good(circuit);
  const BatchFaultSimulator batched(good, lines, shared_pool());
  const std::vector<StuckAtFault> targets = collapse_stuck_at_faults(lines);
  const auto& oracle = testing::paper_example_faults();
  ASSERT_EQ(targets.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    const int index =
        testing::find_fault(targets, oracle[i].line, oracle[i].value);
    ASSERT_GE(index, 0);
    EXPECT_EQ(to_vector(batched.detection_set(
                  targets[static_cast<std::size_t>(index)])),
              oracle[i].tests)
        << "fault " << i;
  }
}

TEST(BatchFaultSim, DetectionDbUsesIdenticalSets) {
  // DetectionDb::build now runs on the batched engine and freezes the sets
  // into the adaptive representation; thawed back to Bitsets they must
  // still match a from-scratch per-fault computation.
  const Circuit circuit = fsm_benchmark_circuit("dk27");
  const DetectionDb db = DetectionDb::build(circuit, {}, shared_pool());
  const ExhaustiveSimulator good(db.circuit());
  const FaultSimulator reference(good, db.lines());
  const std::vector<Bitset> reference_targets =
      reference.detection_sets(db.targets());
  ASSERT_EQ(reference_targets.size(), db.target_sets().size());
  for (std::size_t i = 0; i < reference_targets.size(); ++i) {
    EXPECT_EQ(reference_targets[i], db.target_sets()[i].to_bitset())
        << "db stuck-at fault " << i;
  }
  for (std::size_t i = 0; i < db.untargeted().size(); ++i) {
    EXPECT_EQ(reference.detection_set(db.untargeted()[i]),
              db.untargeted_sets()[i].to_bitset())
        << "db bridging fault " << i;
  }
}

}  // namespace
}  // namespace ndet
