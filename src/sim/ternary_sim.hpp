// ternary_sim.hpp -- three-valued simulation for Definition 2.
//
// Definition 2 (Pomeranz & Reddy, DATE 2001; Section 4 of the reproduced
// paper): two tests ti, tj count as different detections of a fault f only
// if the partially-specified test tij -- specified in the bits where ti and
// tj agree, unspecified elsewhere -- does NOT detect f.  "Detects" is decided
// by pessimistic three-valued simulation: f is detected when some primary
// output has definite, differing binary values in the fault-free and faulty
// circuits.
//
// Def2Oracle answers "are ti and tj different detections of f?" with two
// levels of caching that make Procedure 1 under Definition 2 tractable:
//   * fault-free ternary simulations are keyed by the agreement pattern
//     (ti, tj only enter through it), shared across all faults and sets;
//   * per-fault verdicts are memoized by the same key.
//
// Concurrency discipline: an oracle instance is single-threaded by design.
// Parallel engines shard the caches by giving every worker its own
// instance -- construction is cheap (the simulator borrows the line model
// and indexes the fanout cones once; the fault list is copied), distinct()
// stays lock-free, and the workers' hit/miss telemetry is merged through
// stats().  Verdicts are pure functions of (fault, agreement pattern), so
// sharding never changes a result -- only which shard pays the miss
// (DESIGN.md "Procedure-1 sharding").

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "faults/stuck_at.hpp"
#include "logic/ternary.hpp"
#include "netlist/graph.hpp"
#include "netlist/lines.hpp"

namespace ndet {

/// Plain three-valued circuit simulator.
class TernarySimulator {
 public:
  explicit TernarySimulator(const LineModel& lines);

  const Circuit& circuit() const;

  /// Fault-free ternary values of all gates for a partial input assignment
  /// (`inputs[i]` is the value of the i-th declared input).
  std::vector<Ternary> good_values(std::span<const Ternary> inputs) const;

  /// True when `fault` is definitely detected by the partial vector
  /// (some primary output is binary in both circuits and differs).
  bool detects(const StuckAtFault& fault, std::span<const Ternary> inputs) const;

  /// Values of all gates in the faulty circuit, given the fault-free values
  /// (gates outside the fault's fanout cone keep their fault-free value).
  /// This is the evaluation primitive of the PODEM engine.
  std::vector<Ternary> faulty_values(const StuckAtFault& fault,
                                     std::span<const Ternary> inputs,
                                     std::span<const Ternary> good) const;

  /// The paper's tij: specified where the two (fully specified) vectors
  /// agree.  Vectors are decimal ids, first input = most significant bit.
  std::vector<Ternary> common_vector(std::uint64_t t1, std::uint64_t t2) const;

 private:
  bool detects_with_good(const StuckAtFault& fault,
                         std::span<const Ternary> inputs,
                         std::span<const Ternary> good) const;

  const LineModel* lines_;
  ConeIndex cones_;  ///< every gate's fanout cone, built once
  friend class Def2Oracle;
};

/// Cache counters of one Def2Oracle shard (merged across workers by the
/// parallel Procedure-1 engine).
struct Def2OracleStats {
  std::uint64_t good_sim_entries = 0;  ///< cached fault-free ternary sims
  std::uint64_t verdict_hits = 0;
  std::uint64_t verdict_misses = 0;

  Def2OracleStats& operator+=(const Def2OracleStats& other) {
    good_sim_entries += other.good_sim_entries;
    verdict_hits += other.verdict_hits;
    verdict_misses += other.verdict_misses;
    return *this;
  }
};

/// Cached similarity oracle over a fixed fault list.
class Def2Oracle {
 public:
  Def2Oracle(const LineModel& lines, std::span<const StuckAtFault> faults);

  /// True when tests t1 and t2 count as *different* detections of fault
  /// `fault_index` (index into the list given at construction), i.e. the
  /// common vector t12 does not detect the fault.
  bool distinct(std::size_t fault_index, std::uint64_t t1, std::uint64_t t2);

  /// Cache statistics (for the perf bench).
  std::size_t good_cache_size() const { return good_cache_.size(); }
  std::size_t verdict_cache_hits() const { return verdict_hits_; }
  std::size_t verdict_cache_misses() const { return verdict_misses_; }

  /// Snapshot of this shard's cache counters.
  Def2OracleStats stats() const {
    return {good_cache_.size(), verdict_hits_, verdict_misses_};
  }

 private:
  std::uint64_t agreement_key(std::uint64_t t1, std::uint64_t t2) const;

  TernarySimulator sim_;
  std::vector<StuckAtFault> faults_;
  std::size_t input_count_;
  // Agreement-keyed fault-free simulations, shared across faults.
  std::unordered_map<std::uint64_t, std::vector<Ternary>> good_cache_;
  // Per-fault verdict memo: key -> does t12 detect the fault.
  std::vector<std::unordered_map<std::uint64_t, bool>> verdicts_;
  std::size_t verdict_hits_ = 0;
  std::size_t verdict_misses_ = 0;
};

}  // namespace ndet
