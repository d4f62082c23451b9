// worst_case.hpp -- Section 2 of the paper: the worst-case analysis.
//
// For an untargeted fault g, a target fault f with T(f) n T(g) != {} can be
// detected N(f) - M(g,f) times without touching T(g); one more detection
// forces a test of g into the set.  Hence
//
//   nmin(g,f) = N(f) - M(g,f) + 1
//   nmin(g)   = min over f in F(g) of nmin(g,f)
//
// is the smallest n such that EVERY n-detection test set for F detects g
// (and for n < nmin(g) a test set avoiding g exists, so the bound is exact).
// When no target fault's tests overlap T(g), no value of n ever guarantees
// detection; nmin(g) = kNeverGuaranteed.
//
// analyze_worst_case runs on the tiled pair-kernel engine
// (core/pair_kernels.hpp): targets are packed once into N(f)-ascending
// cache-resident tiles and batches of untargeted faults shard across a
// ThreadPool (each batch writes only its own slots, so results are
// bit-identical at every thread count).  The algebraic prune survives
// tiling: M(g,f) <= |T(g)| bounds every candidate below by
// N(f) - |T(g)| + 1, so a fault leaves the sweep as soon as the next
// tile's smallest N(f) pushes that bound to its best candidate -- no
// later target can improve it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/detection_db.hpp"

namespace ndet {

class ThreadPool;

/// Sentinel nmin for faults no n-detection test set is guaranteed to detect.
constexpr std::uint64_t kNeverGuaranteed = ~std::uint64_t{0};

/// Result of the worst-case analysis over all of G.
struct WorstCaseResult {
  /// nmin(g), index-aligned with DetectionDb::untargeted().
  std::vector<std::uint64_t> nmin;

  /// Fraction of G with nmin(g) <= n (a Table 2 cell).
  double fraction_at_most(std::uint64_t n) const;

  /// Number of faults with nmin(g) >= n (a Table 3 cell).  Contract:
  /// kNeverGuaranteed entries (nmin(g) = ~0) compare >= every n and are
  /// INCLUDED -- a fault no n guarantees is, a fortiori, not guaranteed by
  /// n detections, so the Table 3 tail counts it at every threshold.
  std::size_t count_at_least(std::uint64_t n) const;

  /// Indices of faults with nmin(g) >= n (monitored set for Tables 5/6).
  /// Same contract as count_at_least: kNeverGuaranteed entries are
  /// included at every threshold, so the monitored tail always contains
  /// the never-guaranteed faults.
  std::vector<std::size_t> indices_at_least(std::uint64_t n) const;

  /// Histogram nmin value -> number of faults (Figure 2 input).
  std::map<std::uint64_t, std::size_t> histogram() const;

  /// Largest finite nmin (0 when all are kNeverGuaranteed or G is empty).
  std::uint64_t max_finite_nmin() const;
};

/// Serializes the result as a JSON object: the nmin vector (null for
/// never-guaranteed faults) plus the summary counters.
std::string to_json(const WorstCaseResult& result);

/// nmin against a specific target-fault family: min over overlapping f of
/// N(f) - M(g,f) + 1.  The reference (unpruned, serial) kernel; the
/// equivalence tests hold analyze_worst_case's pruned sweep to it.
std::uint64_t nmin_of(const DetectionSet& untargeted_set,
                      std::span<const DetectionSet> target_sets);

/// Runs the worst-case analysis for every fault in G on the tiled
/// pair-kernel engine: batches of untargeted faults shard across the
/// caller-owned worker pool (AnalysisSession shares one pool across every
/// stage) and the N(f)-sorted prune fires tile by tile.  Bit-identical to
/// the serial unpruned nmin_of sweep at every thread count, representation
/// policy and SIMD dispatch level.  A non-null `cancel` is polled between
/// batch claims; a fired token raises Error with stage "worst_case".
WorstCaseResult analyze_worst_case(const DetectionDb& db,
                                   const ThreadPool& pool,
                                   const CancelToken* cancel = nullptr);

/// Table-1-style drill-down for one untargeted fault: every target fault
/// with overlapping tests, with N(f), M(g,f) and nmin(g,f).
struct OverlapEntry {
  std::size_t target_index;  ///< index into DetectionDb::targets()
  std::size_t n_f;           ///< N(f) = |T(f)|
  std::size_t m_gf;          ///< M(g,f) = |T(f) n T(g)|
  std::uint64_t nmin_gf;     ///< N - M + 1
};
/// The engine's tiles shard across the caller-owned pool.  Note: each call
/// packs a fresh pair-kernel engine over the target family (cost
/// comparable to one unpruned scan) -- fine for the few-shot CLI
/// drill-downs this serves; tight loops over many faults should use
/// analyze_worst_case or drive PairKernelEngine::intersect_counts
/// directly on one engine.
std::vector<OverlapEntry> overlap_entries(const DetectionDb& db,
                                          std::size_t untargeted_index,
                                          const ThreadPool& pool);

}  // namespace ndet
