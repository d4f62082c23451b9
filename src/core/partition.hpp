// partition.hpp -- Section 4's recipe for larger designs: "partition a
// larger circuit into smaller subcircuits and apply the analysis to the
// subcircuits".
//
// The partition is by output cones: primary outputs are grouped, and each
// group becomes a standalone subcircuit (the transitive fanin of its
// outputs, extracted with a fanin ConeQuery).  Two grouping modes:
//
//   * budget mode (the original): outputs are grouped greedily in
//     declaration order so that the union of their structural input
//     supports stays within the exhaustive-simulation budget;
//   * structure mode (PartitionOptions::by_structure): outputs are grouped
//     by *measured fanin-cone overlap* -- groups whose cones share the
//     largest fraction of gates (|A n B| / min(|A|, |B|)) are merged first,
//     and merging stops when no pair clears min_overlap or fits the input
//     budget.  Outputs that genuinely share logic land in the same cone, so
//     fewer shared gates are analyzed twice and fewer bridging pairs span
//     cones, instead of whatever the declaration order happened to give.
//
// The full analysis then runs per cone.  Faults on logic shared between
// cones are analyzed in each cone that contains them; bridging pairs that
// span two cones are not represented -- this is the approximation the paper
// accepts in exchange for applicability to large designs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/worst_case.hpp"
#include "netlist/circuit.hpp"

namespace ndet {

class ThreadPool;

/// How to group primary outputs into cones.
struct PartitionOptions {
  /// Exhaustive-simulation budget: every cone's input support must fit.
  std::size_t max_inputs = 20;
  /// Group by measured fanin-cone overlap instead of declaration order.
  bool by_structure = false;
  /// Structure mode: smallest shared-gate ratio (|A n B| / min(|A|, |B|))
  /// at which two groups' cones are still merged.
  double min_overlap = 0.25;

  friend bool operator==(const PartitionOptions&,
                         const PartitionOptions&) = default;
};

/// Extracts the subcircuit driving `outputs` (transitive fanin cone).
/// Primary inputs keep their relative order; gate names are preserved.
Circuit extract_cone(const Circuit& circuit, const std::vector<GateId>& outputs);

/// Structural input support (primary-input gate ids) of a set of outputs.
std::vector<GateId> input_support(const Circuit& circuit,
                                  const std::vector<GateId>& outputs);

/// Groups primary outputs per `options` and extracts one cone circuit per
/// group.  Throws if a single output already exceeds the input budget.
std::vector<Circuit> partition_by_outputs(const Circuit& circuit,
                                          const PartitionOptions& options);

/// Budget-mode convenience (the original greedy declaration-order grouping).
std::vector<Circuit> partition_by_outputs(const Circuit& circuit,
                                          std::size_t max_inputs);

/// Per-cone summary of the worst-case analysis.
struct ConeReport {
  std::string cone_name;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t gates = 0;
  std::size_t untargeted_faults = 0;
  double fraction_nmin_at_most_10 = 0.0;
  std::uint64_t max_finite_nmin = 0;
  std::size_t never_guaranteed = 0;
};

/// Serializes one cone summary as a JSON object.
std::string to_json(const ConeReport& report);

/// Partitions the circuit per `partition` and runs the worst-case analysis
/// on every cone.  Cones are independent, so they are sharded across the
/// caller-owned worker pool (AnalysisSession shares one pool across every
/// stage), and the remaining pool width is split evenly among the cones'
/// nested builds/sweeps (a single cone gets the full pool).  Reports are
/// index-aligned with the cone list, so the output is identical at every
/// thread count.  A non-null `cancel` is polled between cone claims and
/// inside every nested build and sweep; a fired token raises Error with
/// stage "partitioned" (or the inner stage that observed it first).
std::vector<ConeReport> partitioned_worst_case(
    const Circuit& circuit, const PartitionOptions& partition,
    const ThreadPool& pool, const CancelToken* cancel = nullptr);

}  // namespace ndet
