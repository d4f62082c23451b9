// fault_sim.hpp -- exhaustive detection-set computation.
//
// For every fault h (stuck-at or four-way bridging) the simulator computes
// T(h) = { v in U : some primary output differs from the fault-free value },
// as a Bitset over U.  Faults are simulated one at a time with 64-way
// bit-parallelism, resimulating only the gates in the structural fanout cone
// of the injection site.
//
// Injection semantics:
//   * stem stuck-at          -- the gate's output is the constant;
//   * branch stuck-at        -- only the sink pin sees the constant;
//   * bridging (l1,a1,l2,a2) -- the victim stem becomes l1 OR l2 (a2 = 1) or
//                               l1 AND l2 (a2 = 0), i.e. the victim is forced
//                               to the aggressor's value exactly when the
//                               aggressor carries a2; non-feedback pairs keep
//                               this a single forward resimulation.
//
// This is the *reference* engine: one fault at a time, structurally obvious,
// used to cross-validate the batched multi-threaded engine
// (sim/batch_fault_sim.hpp) which callers on the hot path should prefer.
// Scratch buffers are owned by the instance and reused across calls, so a
// FaultSimulator must not be shared between threads without external
// synchronization (the batched engine gives each worker its own scratch
// instead).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "faults/bridging.hpp"
#include "faults/stuck_at.hpp"
#include "netlist/lines.hpp"
#include "sim/exhaustive.hpp"
#include "util/bitset.hpp"

namespace ndet {

/// Computes detection sets against a prebuilt fault-free simulation.
class FaultSimulator {
 public:
  FaultSimulator(const ExhaustiveSimulator& good, const LineModel& lines);

  /// T(f) for a single stuck-at fault.
  Bitset detection_set(const StuckAtFault& fault) const;

  /// T(g) for a single bridging fault.
  Bitset detection_set(const BridgingFault& fault) const;

  /// Batch versions (index-aligned with the input span).
  std::vector<Bitset> detection_sets(std::span<const StuckAtFault> faults) const;
  std::vector<Bitset> detection_sets(std::span<const BridgingFault> faults) const;

 private:
  /// Core resimulation of `start` and its fanout cone, in ascending
  /// (topological) order.  When `forced` is non-null the start gate's
  /// output is `forced(w)` instead of being evaluated; otherwise the start
  /// gate is re-evaluated with fanin slot `branch_slot` replaced by
  /// `branch_constant` (branch fault injection).
  Bitset simulate(GateId start,
                  const std::function<std::uint64_t(std::size_t)>& forced,
                  int branch_slot, std::uint64_t branch_constant) const;

  /// Bumps the scratch epoch, resetting stale stamps on wrap-around.
  std::uint32_t next_epoch() const;

  const ExhaustiveSimulator* good_;
  const LineModel* lines_;

  // Per-instance scratch, reused across simulate() calls so the per-fault
  // cost carries no allocations beyond the cone DFS and the result Bitset.
  mutable std::vector<std::uint32_t> in_affected_;  ///< epoch stamps by gate
  mutable std::uint32_t epoch_ = 0;
  mutable std::vector<GateId> affected_outputs_;
  mutable std::vector<std::uint64_t> faulty_;
  mutable std::vector<std::uint64_t> fanin_words_;
};

}  // namespace ndet
