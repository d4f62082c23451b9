// benchmarks.hpp -- the embedded FSM benchmark suite.
//
// The paper evaluates on the combinational logic of MCNC finite-state
// machine benchmarks.  The original KISS2 sources are not redistributable
// here, so the suite is rebuilt (see DESIGN.md, substitution table):
//
//   * a handful of small classics are *hand-written reconstructions* --
//     deterministic machines with the published interface signature
//     (inputs/outputs/states) and a faithful flavour of the original's
//     behaviour (counters, cage trackers, controllers);
//   * the remaining machines are *seeded synthetic tables* matching the
//     published signature: for every state the input space is partitioned
//     into random cubes, each with a random next state and biased random
//     outputs.  Generation is deterministic in the name's fixed seed.
//
// Circuits keep the paper's benchmark names so the bench tables line up
// side by side with the paper's tables; EXPERIMENTS.md marks every row of
// ours as a reconstruction.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fsm/kiss2.hpp"
#include "fsm/synth.hpp"
#include "netlist/circuit.hpp"

namespace ndet {

/// Catalog entry for one benchmark machine.
struct FsmBenchmarkInfo {
  std::string name;
  int inputs = 0;
  int outputs = 0;
  int states = 0;
  bool handwritten = false;  ///< hand-written reconstruction vs synthetic
};

/// The full suite in the paper's Table 2 order (grouped by the smallest n
/// reaching 100% worst-case coverage in the paper).
const std::vector<FsmBenchmarkInfo>& fsm_benchmark_suite();

/// Looks up a machine by name and returns its STT.
Kiss2Fsm fsm_benchmark(const std::string& name);

/// Convenience: synthesize a suite machine's combinational logic.
Circuit fsm_benchmark_circuit(const std::string& name,
                              StateEncoding encoding = StateEncoding::kBinary);

/// The shared circuit lookup of every CLI (examples and bench harnesses):
/// a suite machine (binary encoding), an embedded combinational circuit,
/// or a path to a .bench file (recognized by a ".bench" suffix or a path
/// separator).  Any other name throws a contract_error listing the
/// accepted forms, so typos get a curated message instead of a file-open
/// failure.
Circuit resolve_circuit(const std::string& name);

/// True when `name` is a suite machine or an embedded combinational
/// circuit: the names resolve_circuit answers without touching the file
/// system.
bool is_embedded_circuit(const std::string& name);

/// Deterministic synthetic machine generator (exposed for tests and
/// ablations).  For every state the input space is partitioned into
/// 2^depth cubes over `depth` randomly chosen inputs (depth derived from
/// target_terms); outputs are 1 with probability bias_permille/1000.
///
/// `redundancy_permille` adds *consistent redundant cover*: sibling cubes
/// (differing in one specified input) that agree on next state and outputs
/// are, with this probability, additionally covered by their merged cube as
/// an extra term.  The machine's function is unchanged (the overlap agrees
/// everywhere, so the table stays deterministic), but the synthesized OR
/// planes gain genuinely redundant products.  This emulates the
/// masking-heavy structure of the paper's industrial machines (dvram,
/// fetch, log, rie, s1a), whose bridging faults exhibit worst-case nmin in
/// the hundreds; without it a partitioned cover activates exactly one
/// product per OR and the heavy tail cannot occur (DESIGN.md).
Kiss2Fsm synthetic_fsm(const std::string& name, int inputs, int outputs,
                       int states, std::size_t target_terms,
                       std::uint64_t seed, unsigned bias_permille = 300,
                       unsigned redundancy_permille = 0);

}  // namespace ndet
