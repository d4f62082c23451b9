// batch_fault_sim.hpp -- batched, multi-threaded detection-set computation.
//
// The per-fault FaultSimulator recomputes the fanout cone and the affected
// primary-output list of the injection site on every call.  DetectionDb and
// the n-detection compactor, however, simulate *every* fault of a circuit,
// so those structural queries are pure overhead past the first fault rooted
// at each gate.  BatchFaultSimulator amortizes them:
//
//   * all fanout cones and their affected-output lists are frozen once in
//     a ConeIndex (netlist/graph.hpp) built from the circuit, so a fault
//     simulation starts with two array lookups instead of a DFS;
//   * every worker thread owns a scratch arena (faulty-value columns, fanin
//     word buffer, epoch-stamped cone-membership map) that is reused across
//     all faults the thread processes -- zero allocations in steady state;
//   * resimulation is event-driven: a 64-vector word whose injected value
//     equals the fault-free value is skipped outright, and inside an active
//     word a gate is re-evaluated only when one of its fanins actually
//     changed.  Gate functions are deterministic, so the skipped work could
//     only have reproduced fault-free values -- results stay bit-identical;
//   * batch calls fan the fault list out across the shared ThreadPool
//     (util/thread_pool.hpp) with dynamic scheduling: a worker claims a
//     contiguous chunk of faults per atomic increment, so neighbouring
//     result slots are written by one worker.  Results are written into
//     index-aligned slots, so the output is deterministic and independent
//     of the thread count and of scheduling order.
//
// Injection semantics are identical to FaultSimulator (stem stuck-at, branch
// stuck-at, four-way non-feedback bridging), and the computed T(f)/T(g) sets
// are bit-identical to the per-fault reference -- the cross-validation test
// in tests/batch_sim_test.cpp holds both engines to that.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "faults/bridging.hpp"
#include "faults/stuck_at.hpp"
#include "netlist/graph.hpp"
#include "netlist/lines.hpp"
#include "sim/exhaustive.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

/// Batched detection-set engine over a prebuilt fault-free simulation.
class BatchFaultSimulator {
 public:
  /// Batch calls run on the caller-owned `pool` (the session facade shares
  /// one pool across every stage).  The pool must outlive the simulator.
  BatchFaultSimulator(const ExhaustiveSimulator& good, const LineModel& lines,
                      const ThreadPool& pool);

  /// T(f) for every fault, index-aligned with the input span.  Fans out
  /// across the worker pool.  A non-null `cancel` is polled before every
  /// fault; a fired token surfaces as Error{kCancelled|kDeadlineExceeded}
  /// with stage "fault_sim".
  std::vector<Bitset> detection_sets(std::span<const StuckAtFault> faults,
                                     const CancelToken* cancel = nullptr) const;
  std::vector<Bitset> detection_sets(std::span<const BridgingFault> faults,
                                     const CancelToken* cancel = nullptr) const;

  /// Single-fault conveniences (run on the calling thread).
  Bitset detection_set(const StuckAtFault& fault) const;
  Bitset detection_set(const BridgingFault& fault) const;

  /// Precomputed structural views: `root` plus its transitive fanout in
  /// topological order, and the primary outputs among those gates.
  std::span<const GateId> cone_gates(GateId root) const;
  std::span<const GateId> cone_outputs(GateId root) const;

 private:
  enum class InjectionKind : std::uint8_t { kStemStuck, kBranchStuck, kBridge };

  /// A fault lowered to simulation terms: where resimulation starts and how
  /// the start gate's value is produced.
  struct Injection {
    InjectionKind kind = InjectionKind::kStemStuck;
    GateId root = kInvalidGate;
    std::uint64_t constant = 0;       ///< stuck value as a packed word
    int branch_slot = -1;             ///< branch stuck-at: fanin slot of root
    GateId aggressor = kInvalidGate;  ///< bridging only
    bool wired_or = false;            ///< bridging: a2 = 1 -> OR, a2 = 0 -> AND
  };

  /// Per-thread reusable buffers.  `in_cone` uses epoch stamping so marking
  /// the next fault's cone is O(|cone|) with no clearing pass.  Aligned so
  /// that a worker's per-fault `epoch` write does not share a line with the
  /// next worker's buffer pointers.  The caller allocates every worker's
  /// buffers, so each takes whole cache lines: a line shared with another
  /// worker's buffer made the bridging simulation 2-3x slower.
  template <typename T>
  using LineVector = std::vector<T, CacheLineAllocator<T>>;
  struct alignas(kCacheLineBytes) Scratch {
    LineVector<std::uint64_t> faulty;   ///< per-gate faulty word column
    LineVector<std::uint64_t> fanins;   ///< packed fanin words of one gate
    LineVector<std::uint32_t> in_cone;  ///< epoch stamps, by gate id
    LineVector<std::uint8_t> changed;   ///< faulty != good, by gate id
    std::uint32_t epoch = 0;
  };

  Scratch make_scratch() const;
  Injection injection_for(const StuckAtFault& fault) const;
  Injection injection_for(const BridgingFault& fault) const;
  void simulate_into(const Injection& inj, Scratch& scratch, Bitset& out) const;

  template <typename Fault>
  std::vector<Bitset> run_batch(std::span<const Fault> faults,
                                const CancelToken* cancel) const;

  const ExhaustiveSimulator* good_;
  const LineModel* lines_;
  const ThreadPool* pool_;  ///< non-owning

  ConeIndex cones_;  ///< every root's cone and output list, frozen in CSR
  std::size_t max_fanin_ = 0;
};

}  // namespace ndet
