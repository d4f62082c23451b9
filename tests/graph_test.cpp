// graph_test.cpp -- cone queries over a Circuit against independent
// references.
//
// Every structural consumer (reach, partitioning, the simulators) walks the
// circuit's own adjacency lists through netlist/graph.hpp, so this suite
// pins those contracts directly: the reachability rows agree with an
// independent traversal on every gate pair, and cone queries and the
// precomputed cone table agree with that traversal.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fsm/benchmarks.hpp"
#include "netlist/circuit.hpp"
#include "netlist/generator.hpp"
#include "netlist/graph.hpp"
#include "netlist/library.hpp"
#include "netlist/reach.hpp"

namespace ndet {
namespace {

/// Circuits the exhaustive cross-checks run over: the full FSM benchmark
/// suite plus seeded random netlists from the generator family.
std::vector<Circuit> structural_corpus() {
  std::vector<Circuit> circuits;
  for (const FsmBenchmarkInfo& info : fsm_benchmark_suite())
    circuits.push_back(fsm_benchmark_circuit(info.name));
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    GeneratorConfig config;
    config.num_inputs = 8;
    config.num_gates = 60;
    circuits.push_back(generate_random_circuit(config, seed));
  }
  return circuits;
}

/// Independent fanout-cone reference: a BFS that deliberately shares no
/// code with ConeQuery.
std::vector<GateId> reference_fanout_cone(const Circuit& circuit, GateId root) {
  std::vector<bool> seen(circuit.gate_count(), false);
  std::vector<GateId> queue = {root};
  seen[root] = true;
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (const GateId next : circuit.gate(queue[head]).fanouts)
      if (!seen[next]) {
        seen[next] = true;
        queue.push_back(next);
      }
  std::sort(queue.begin(), queue.end());
  return queue;
}

std::vector<GateId> reference_fanin_cone(const Circuit& circuit,
                                         std::vector<GateId> roots) {
  std::vector<bool> seen(circuit.gate_count(), false);
  std::vector<GateId> queue;
  for (const GateId root : roots)
    if (!seen[root]) {
      seen[root] = true;
      queue.push_back(root);
    }
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (const GateId prev : circuit.gate(queue[head]).fanins)
      if (!seen[prev]) {
        seen[prev] = true;
        queue.push_back(prev);
      }
  std::sort(queue.begin(), queue.end());
  return queue;
}

TEST(Graph, ReachMatchesAnIndependentTraversalOnEveryGatePair) {
  for (const char* const name : {"paper_example", "c17", "adder3", "lion"}) {
    const Circuit circuit = resolve_circuit(name);
    const ReachMatrix reach(circuit);
    for (GateId from = 0; from < circuit.gate_count(); ++from) {
      const std::vector<GateId> cone = reference_fanout_cone(circuit, from);
      for (GateId to = 0; to < circuit.gate_count(); ++to) {
        // Reachability means a path of length >= 1, and circuits are
        // acyclic, so a gate never reaches itself.
        const bool expected =
            to != from && std::binary_search(cone.begin(), cone.end(), to);
        ASSERT_EQ(reach.reaches(from, to), expected)
            << name << ": " << from << " -> " << to;
      }
    }
  }
}

TEST(Graph, ConeQueriesMatchAnIndependentTraversal) {
  for (const Circuit& circuit : structural_corpus()) {
    ConeQuery query(circuit);
    for (GateId g = 0; g < circuit.gate_count(); ++g) {
      const auto fanout = query.fanout(g);
      ASSERT_EQ(std::vector<GateId>(fanout.begin(), fanout.end()),
                reference_fanout_cone(circuit, g))
          << circuit.name() << " gate " << g;
      ASSERT_TRUE(std::is_sorted(fanout.begin(), fanout.end()));
      const auto fanin = query.fanin(g);
      ASSERT_EQ(std::vector<GateId>(fanin.begin(), fanin.end()),
                reference_fanin_cone(circuit, {g}))
          << circuit.name() << " gate " << g;
    }
    // Multi-root fanin with duplicate roots, as partitioning issues them.
    if (circuit.outputs().size() >= 2) {
      std::vector<GateId> roots(circuit.outputs().begin(),
                                circuit.outputs().end());
      roots.push_back(roots.front());
      const auto fanin = query.fanin(roots);
      ASSERT_EQ(std::vector<GateId>(fanin.begin(), fanin.end()),
                reference_fanin_cone(circuit, roots))
          << circuit.name();
    }
  }
}

TEST(Graph, ConeIndexMatchesConeQuery) {
  GeneratorConfig config;
  config.num_inputs = 7;
  config.num_gates = 50;
  const Circuit circuit = generate_random_circuit(config, 3);
  const ConeIndex index(circuit);
  for (GateId g = 0; g < circuit.gate_count(); ++g) {
    const std::vector<GateId> expected = fanout_cone(circuit, g);
    const auto gates = index.cone_gates(g);
    ASSERT_EQ(std::vector<GateId>(gates.begin(), gates.end()), expected)
        << "gate " << g;
    std::vector<GateId> expected_outputs;
    for (const GateId c : expected)
      if (circuit.is_output(c)) expected_outputs.push_back(c);
    const auto outputs = index.cone_outputs(g);
    ASSERT_EQ(std::vector<GateId>(outputs.begin(), outputs.end()),
              expected_outputs)
        << "gate " << g;
  }
}

TEST(Graph, ReachRowsMaterializeLazily) {
  const Circuit circuit = fsm_benchmark_circuit("bbara");
  const ReachMatrix reach(circuit);
  EXPECT_EQ(reach.materialized_rows(), 0u);
  (void)reach.reaches(0, 5);
  EXPECT_EQ(reach.materialized_rows(), 1u);
  (void)reach.reaches(0, 7);  // same row, no new materialization
  EXPECT_EQ(reach.materialized_rows(), 1u);
  (void)reach.independent(2, 3);  // touches both rows
  EXPECT_EQ(reach.materialized_rows(), 3u);
  // Row contents match the historical eager semantics: the transitive
  // fanout excluding the gate itself.
  for (const GateId g : {GateId{0}, GateId{2}, GateId{3}}) {
    const Bitset& row = reach.fanout_cone(g);
    std::vector<GateId> expected = fanout_cone(circuit, g);
    expected.erase(std::remove(expected.begin(), expected.end(), g),
                   expected.end());
    std::vector<GateId> actual;
    row.for_each_set([&](std::size_t bit) {
      actual.push_back(static_cast<GateId>(bit));
    });
    EXPECT_EQ(actual, expected) << "row " << g;
  }
}

}  // namespace
}  // namespace ndet
