// detection_db.hpp -- the exhaustive detection-set database.
//
// The paper's entire analysis is a function of two families of sets:
//   T(f) for every target fault f in F (collapsed single stuck-at), and
//   T(g) for every untargeted fault g in G (detectable non-feedback four-way
//   bridging faults between outputs of multi-input gates),
// all subsets of U, the set of every input vector.  DetectionDb computes and
// owns those sets for one circuit.  Everything downstream -- worst-case
// analysis, Procedure 1, both report generators -- reads from here, so the
// expensive exhaustive simulation runs exactly once per circuit.
//
// Sets are frozen into the adaptive DetectionSet representation at build
// time (DetectionDbOptions::representation): each T is stored dense or
// sorted-sparse by whichever payload is smaller, which typically shrinks
// the database severalfold on circuits whose bridging faults are detected
// by a handful of vectors.  All downstream kernels are exact across
// representations, so analysis results are bit-identical to an all-dense
// database.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "faults/bridging.hpp"
#include "faults/stuck_at.hpp"
#include "netlist/circuit.hpp"
#include "netlist/lines.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"
#include "util/detection_set.hpp"

namespace ndet {

class ThreadPool;

/// Options controlling database construction.
struct DetectionDbOptions {
  int max_inputs = 20;  ///< exhaustive-simulation input limit
  /// Storage policy for the frozen T(f)/T(g) sets.
  SetRepresentation representation = SetRepresentation::kAdaptive;
};

/// Exhaustive detection sets of one circuit.
class DetectionDb {
 public:
  /// Builds the database: simulates the circuit exhaustively, enumerates and
  /// collapses stuck-at faults, enumerates four-way bridging faults, and
  /// computes all detection sets.  The circuit is copied in, so the database
  /// is self-contained.  Fault simulation fans out across the caller-owned
  /// worker pool (AnalysisSession shares one pool across every stage).  A
  /// non-null `cancel` is polled between fault simulations and between the
  /// build phases; a fired token raises Error with stage "detection_db" (or
  /// "fault_sim" when it fired mid-batch).
  static DetectionDb build(const Circuit& circuit,
                           const DetectionDbOptions& options,
                           const ThreadPool& pool,
                           const CancelToken* cancel = nullptr);

  const Circuit& circuit() const { return *circuit_; }
  const LineModel& lines() const { return *lines_; }

  /// |U| = 2^PI.
  std::uint64_t vector_count() const { return vector_count_; }

  /// F: the collapsed stuck-at fault list (undetectable faults included;
  /// they are inert in every analysis since their T(f) is empty).
  const std::vector<StuckAtFault>& targets() const { return targets_; }
  /// T(f), index-aligned with targets().
  const std::vector<DetectionSet>& target_sets() const { return target_sets_; }

  /// G: detectable four-way bridging faults.
  const std::vector<BridgingFault>& untargeted() const { return untargeted_; }
  /// T(g), index-aligned with untargeted().
  const std::vector<DetectionSet>& untargeted_sets() const {
    return untargeted_sets_;
  }

  /// Bridging faults enumerated before the detectability filter.
  std::size_t enumerated_untargeted() const { return enumerated_untargeted_; }

  /// Number of detectable target faults.
  std::size_t detectable_target_count() const;

  /// The storage policy the sets were frozen under.
  SetRepresentation representation() const { return representation_; }

  /// Payload bytes of all stored detection sets under the chosen policy.
  std::size_t set_memory_bytes() const;

  /// Payload bytes the same sets would occupy stored all-dense.
  std::size_t dense_memory_bytes() const;

 private:
  DetectionDb() = default;

  std::shared_ptr<const Circuit> circuit_;
  std::shared_ptr<const LineModel> lines_;
  std::uint64_t vector_count_ = 0;
  std::vector<StuckAtFault> targets_;
  std::vector<DetectionSet> target_sets_;
  std::vector<BridgingFault> untargeted_;
  std::vector<DetectionSet> untargeted_sets_;
  std::size_t enumerated_untargeted_ = 0;
  SetRepresentation representation_ = SetRepresentation::kAdaptive;
};

/// Transposes detection sets: given sets[i] over U, returns per-vector sets
/// over the fault indices (rows[v].test(i) == sets[i].test(v)).  Used by
/// Procedure 1 to update detection counts incrementally as tests are added.
std::vector<Bitset> transpose_detection_sets(std::span<const DetectionSet> sets,
                                             std::uint64_t vector_count);

}  // namespace ndet
