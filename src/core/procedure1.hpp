// procedure1.hpp -- Section 3 of the paper: randomized construction of
// n-detection test sets (Procedure 1) and the average-case analysis.
//
// Procedure 1 builds K test sets T_0..T_{K-1} simultaneously.  In iteration
// n it visits every target fault f_i and, for every set T_k in which f_i is
// detected fewer than n times and tests remain in T(f_i) - T_k, adds one
// uniformly random such test.  After iteration n every T_k is an
// n-detection test set, and the probability that an arbitrary n-detection
// test set detects an untargeted fault g is estimated as
//     p(n,g) = d(n,g) / K,
// where d counts the sets whose tests intersect T(g).
//
// Detection counting follows one of the paper's two definitions:
//   * Definition 1 (standard): any n distinct tests of f count.
//   * Definition 2 (DATE'01): a test joins the counted set only if, for
//     every already-counted test, the common vector t_ij does not detect f
//     under three-valued simulation.  When no remaining test of f_i can add
//     a Definition-2 detection, the procedure falls back to Definition 1 so
//     faults are not left far short of n detections (Section 4).
//
// Engine: every random draw is computed from a counter-based RNG coordinate
// (CounterRng; stream = the set index k, counter = iteration, target fault
// and draw site), so a draw's value depends only on WHICH decision it feeds,
// never on how many draws ran before it.  That frees the evaluation order,
// and the engine uses the freedom to batch the per-set saturation sweep
// across sets: groups of up to PairKernelEngine::kBatchWidth (8) sets walk
// the target faults in the engine's N(f)-ascending tile order, and each
// visit's exact detection count |T(f) n T_k| comes from the
// register-blocked x4 kernels (packed dense rows) or element probes (tiny
// CSR targets) instead of a per-fault and_not_count plus a per-added-test
// scatter.  A (set, target) pair retires permanently once it can never
// need work again (count reached nmax, or T(f) is contained in T_k), and
// whole tiles are skipped once no group member has a live target in them.
//
// Sets evolve independently and draws are coordinate-addressed, so a set's
// results do not depend on the group it runs in or on K, and are
// bit-identical at every worker-pool width (a one-thread pool runs
// serially on the calling thread) and every SIMD dispatch level.
// Definition-2 candidate search scans all of T(f_i) - T_k when small, and
// otherwise takes `def2_probe_limit` random probes (documented deviation;
// DESIGN.md "Definition 2").  See DESIGN.md "Counter-based RNG and batched
// Procedure 1" for the coordinate scheme, the batched sweep and the
// retirement discipline.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/detection_db.hpp"
#include "sim/ternary_sim.hpp"

namespace ndet {

class ThreadPool;

/// Which of the paper's detection-counting definitions to use.
enum class DetectionDefinition { kStandard = 1, kDissimilar = 2 };

/// Parameters of Procedure 1.
struct Procedure1Config {
  int nmax = 10;                ///< build 1..nmax detection test sets
  std::size_t num_sets = 1000;  ///< K
  std::uint64_t seed = 1;       ///< master seed
  DetectionDefinition definition = DetectionDefinition::kStandard;
  bool keep_test_sets = false;  ///< record every test set (Table 4)
  std::size_t def2_probe_limit = 32;  ///< bounded candidate probing (Def. 2)

  bool operator==(const Procedure1Config&) const = default;
};

/// Procedure-1 bookkeeping counters (reported by the perf bench).  All three
/// are sums of per-set counts, so they are deterministic at every thread
/// count.
struct Procedure1Stats {
  std::uint64_t tests_added = 0;
  std::uint64_t def1_fallbacks = 0;   ///< Def-2 runs only
  std::uint64_t distinct_queries = 0; ///< Def-2 oracle calls
};

/// Result of the average-case analysis.
struct AverageCaseResult {
  Procedure1Config config;

  /// The untargeted faults monitored (indices into DetectionDb::untargeted()).
  std::vector<std::size_t> monitored;

  /// detect_count[n-1][j] = d(n, monitored[j]).
  std::vector<std::vector<std::uint32_t>> detect_count;

  /// Sizes of the K test sets after each iteration: set_sizes[n-1][k].
  std::vector<std::vector<std::uint32_t>> set_sizes;

  /// The test sets themselves (insertion order), only when
  /// config.keep_test_sets was set: test_sets[n-1][k].
  std::vector<std::vector<std::vector<std::uint32_t>>> test_sets;

  Procedure1Stats stats;

  /// Oracle cache telemetry summed across the engine's workers (Def-2 runs
  /// only; zero otherwise).  Which sets share a worker's caches depends on
  /// scheduling, so -- unlike Procedure1Stats -- these counters may vary
  /// with the thread count and across runs; they report cache
  /// effectiveness, not results.
  Def2OracleStats def2_cache;

  /// p(n, monitored[j]) = d / K.
  double probability(int n, std::size_t j) const;

  /// Number of monitored faults with p(n,g) >= threshold.
  std::size_t count_probability_at_least(int n, double threshold) const;
};

/// Serializes the result as a JSON object: the request parameters, the
/// monitored indices, the exact d(n,g) counts and set sizes, and the stats.
std::string to_json(const AverageCaseResult& result);

/// Runs Procedure 1 and the average-case analysis over the monitored
/// untargeted faults (typically those with nmin(g) > nmax, per Table 5).
/// The K sets shard across the caller-owned worker pool (AnalysisSession
/// shares one pool across every stage).  A non-null `cancel` is polled
/// between batch-group claims and between iterations; a fired token raises
/// Error with stage "average_case".
AverageCaseResult run_procedure1(const DetectionDb& db,
                                 std::span<const std::size_t> monitored,
                                 const Procedure1Config& config,
                                 const ThreadPool& pool,
                                 const CancelToken* cancel = nullptr);

}  // namespace ndet
