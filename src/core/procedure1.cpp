#include "core/procedure1.hpp"

#include <algorithm>
#include <memory>

#include "core/pair_kernels.hpp"
#include "sim/ternary_sim.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

double AverageCaseResult::probability(int n, std::size_t j) const {
  require(n >= 1 && n <= config.nmax, "AverageCaseResult: n out of range");
  require(j < monitored.size(), "AverageCaseResult: fault index out of range");
  return static_cast<double>(detect_count[static_cast<std::size_t>(n - 1)][j]) /
         static_cast<double>(config.num_sets);
}

std::size_t AverageCaseResult::count_probability_at_least(
    int n, double threshold) const {
  std::size_t count = 0;
  for (std::size_t j = 0; j < monitored.size(); ++j)
    if (probability(n, j) >= threshold - 1e-12) ++count;
  return count;
}

std::string to_json(const AverageCaseResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("nmax").value(result.config.nmax);
  w.key("num_sets").value(static_cast<std::uint64_t>(result.config.num_sets));
  w.key("seed").value(result.config.seed);
  w.key("definition")
      .value(result.config.definition == DetectionDefinition::kStandard ? 1 : 2);
  w.key("def2_probe_limit")
      .value(static_cast<std::uint64_t>(result.config.def2_probe_limit));
  w.key("monitored").begin_array();
  for (const std::size_t j : result.monitored)
    w.value(static_cast<std::uint64_t>(j));
  w.end_array();
  // Exact d(n,g) counts rather than the derived p(n,g): consumers divide by
  // num_sets themselves and lose nothing to double formatting.
  w.key("detect_count").begin_array();
  for (const auto& row : result.detect_count) {
    w.begin_array();
    for (const std::uint32_t d : row) w.value(static_cast<std::uint64_t>(d));
    w.end_array();
  }
  w.end_array();
  w.key("set_sizes").begin_array();
  for (const auto& row : result.set_sizes) {
    w.begin_array();
    for (const std::uint32_t s : row) w.value(static_cast<std::uint64_t>(s));
    w.end_array();
  }
  w.end_array();
  w.key("stats")
      .begin_object()
      .key("tests_added")
      .value(result.stats.tests_added)
      .key("def1_fallbacks")
      .value(result.stats.def1_fallbacks)
      .key("distinct_queries")
      .value(result.stats.distinct_queries)
      .end_object();
  w.end_object();
  return w.str();
}

namespace {

/// Definition-2 incremental counting state for one (set, fault) pair: the
/// greedily counted tests and a cursor into the set's insertion order.
struct Def2State {
  std::vector<std::uint32_t> counted;
  std::uint32_t cursor = 0;
};

/// Draw-site coordinates (the c1 counter word).  Each decision a trajectory
/// can make draws at its own site, so no two decisions ever share a
/// CounterRng coordinate:
///   * kSiteMain        -- the one uniform pick from T(f) - T_k (the Def-1
///                         draw and the Def-2 fallback draw; at most one of
///                         the two happens per (n, fault) visit),
///   * kSiteCandidates  -- the Def-2 pick from the enumerated candidate
///                         list,
///   * kSiteProbeBase+p -- the p-th Def-2 bounded random probe.
constexpr std::uint64_t kSiteMain = 0;
constexpr std::uint64_t kSiteCandidates = 1;
constexpr std::uint64_t kSiteProbeBase = 2;

/// The c0 counter word of every draw in iteration n for target fault i
/// (original family index): a draw's identity is (set, n, i, site,
/// rejection attempt), so its value is independent of visit order, batch
/// width and scheduling.
inline std::uint64_t draw_c0(int n, std::uint32_t original_i) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(n)) << 32) |
         original_i;
}

/// Read-only inputs shared by every batch group (and every worker).
struct GroupInputs {
  const PairKernelEngine* engine = nullptr;
  std::span<const DetectionSet> target_sets;
  std::span<const Bitset> monitored_rows;  ///< per-vector detected monitored
  std::uint64_t vectors = 0;
  std::size_t monitored_count = 0;
  int nmax = 1;
  std::uint64_t seed = 0;
  bool def2 = false;
  std::size_t def2_probe_limit = 32;
};

/// Everything one set's end-to-end trajectory produces.  Slots are
/// index-aligned with k, so the merge is deterministic at any thread count.
struct SetResult {
  std::vector<Bitset> detected;      ///< [n-1]: monitored faults detected
  std::vector<std::uint32_t> sizes;  ///< [n-1]: |T_k| after iteration n
  std::vector<std::uint32_t> order;  ///< final insertion order
  Procedure1Stats stats;
};

/// A (set, target) pair that can never need work again: T(f) became a
/// subset of T_k, or the detection count reached nmax.
constexpr std::uint32_t kRetired = ~std::uint32_t{0};

/// Mutable trajectory state of one set T_k inside a batch group.  Target
/// bookkeeping is indexed by the engine's SORTED target order.
///
/// `known[k]` is the visit-skipping cache: a LOWER BOUND on the pair's
/// detection count (plain |T(f) n T_k| under Definition 1, the greedy
/// counted-set size under Definition 2 -- both monotone, since T_k only
/// grows and the counted set only appends).  A visit in iteration n is a
/// guaranteed no-op whenever the count is already >= n, so `known[k] >= n`
/// skips the visit -- no kernel pass, no draws, no state change -- and the
/// bound is refreshed to the exact count whenever a visit does measure it.
/// Retired pairs store kRetired, which no iteration index reaches.
/// `tile_min_known[t]` caches the min of `known` over a tile, so whole
/// tiles (and eventually whole members) drop out of the sweep in O(1):
/// entries only grow between sweeps, so a recorded min stays a valid lower
/// bound until the next sweep rewrites it.
struct MemberState {
  MemberState(const GroupInputs& in, std::uint64_t set_index)
      : rng(in.seed, set_index),
        members(in.vectors),
        detected(in.monitored_count),
        known(in.engine->detectable_targets(), 0),
        tile_min_known(in.engine->tile_count(), 0) {
    if (in.def2) def2.resize(known.size());
    const auto nmax = static_cast<std::size_t>(in.nmax);
    out.detected.reserve(nmax);
    out.sizes.reserve(nmax);
  }

  CounterRng rng;
  Bitset members;   ///< tests currently in T_k
  Bitset detected;  ///< over the monitored list
  std::vector<std::uint32_t> known;           ///< per sorted target
  std::vector<std::uint32_t> tile_min_known;  ///< min of known per tile
  std::vector<Def2State> def2;  ///< per sorted target (Def-2 runs only)
  /// Filled in worker-local memory (the hot counters live here) and moved
  /// into the run's k-aligned slot once the group finishes.
  SetResult out;
};

void add_test(const GroupInputs& in, MemberState& ms, std::uint32_t test) {
  ms.members.set(test);
  ms.out.order.push_back(test);
  ms.detected |= in.monitored_rows[test];
  ++ms.out.stats.tests_added;
}

/// Brings the greedy Definition-2 counted set of sorted target k (original
/// index i) up to date with the tests added to T_k since the last visit.
/// The counted set is a pure function of the insertion-order prefix, so
/// deferred refreshes (retirement skips) cannot change it.
Def2State& refresh_def2(const GroupInputs& in, MemberState& ms, std::size_t k,
                        std::uint32_t i, Def2Oracle* oracle) {
  Def2State& st = ms.def2[k];
  const DetectionSet& tf = in.target_sets[i];
  while (st.cursor < ms.out.order.size()) {
    const std::uint32_t t = ms.out.order[st.cursor++];
    if (!tf.test(t)) continue;
    bool distinct_from_all = true;
    for (const std::uint32_t s : st.counted) {
      ++ms.out.stats.distinct_queries;
      if (!oracle->distinct(i, s, t)) {
        distinct_from_all = false;
        break;
      }
    }
    if (distinct_from_all) st.counted.push_back(t);
  }
  return st;
}

/// One Definition-1 visit of (T_k, sorted target k) in iteration n.
/// `count` = |T(f) n T_k| from the batched kernel -- which IS the plain
/// detection count, so no per-added-test scatter is needed to maintain it,
/// and |T(f) - T_k| follows as N(f) - count without a second kernel pass.
/// Publishes the resulting exact count (or kRetired) into ms.known[k].
void visit_def1(const GroupInputs& in, MemberState& ms, int n, std::size_t k,
                std::uint32_t count) {
  const std::uint32_t n_f = in.engine->n_f(k);
  const auto need = static_cast<std::uint32_t>(n);
  const auto nmax = static_cast<std::uint32_t>(in.nmax);
  std::uint32_t have = count;
  bool keep = true;
  if (count < need) {
    const std::uint64_t available = n_f - count;
    if (available == 0) {
      keep = false;  // T(f) is contained in T_k: inert forever
    } else {
      const std::uint32_t i = in.engine->original_index(k);
      const DetectionSet& tf = in.target_sets[i];
      const std::uint64_t r = ms.rng.below(available, draw_c0(n, i), kSiteMain);
      add_test(in, ms,
               static_cast<std::uint32_t>(tf.nth_in_difference(ms.members, r)));
      ++have;
      if (available == 1) keep = false;  // that was the last test
    }
  }
  if (keep && have >= nmax) keep = false;  // saturated
  ms.known[k] = keep ? have : kRetired;
}

/// One Definition-2 visit: count via the greedy dissimilarity clique, with
/// the Definition-1 fallback of Section 4.  `count` = |T(f) n T_k| as
/// above (the plain detection count the fallback condition needs).
/// Publishes the post-visit counted-set size (or kRetired) into
/// ms.known[k]; skipped visits also defer the refresh, which is sound
/// because the counted set depends only on the insertion-order prefix.
void visit_def2(const GroupInputs& in, MemberState& ms, int n, std::size_t k,
                std::uint32_t count, Def2Oracle* oracle) {
  const std::uint32_t n_f = in.engine->n_f(k);
  const std::uint32_t i = in.engine->original_index(k);
  const DetectionSet& tf = in.target_sets[i];
  const auto need = static_cast<std::size_t>(n);
  const auto nmax = static_cast<std::size_t>(in.nmax);
  const std::uint64_t c0 = draw_c0(n, i);
  bool keep = true;

  Def2State& st = refresh_def2(in, ms, k, i, oracle);
  if (st.counted.size() < need) {
    const std::uint64_t available = n_f - count;
    if (available == 0) {
      // The refresh above is current and every test of f is already in T_k,
      // so no future order entry can be in T(f): inert forever.
      keep = false;
    } else {
      // Look for a candidate that adds a Definition-2 detection.
      const auto is_distinct_candidate = [&](std::uint32_t t) {
        for (const std::uint32_t s : st.counted) {
          ++ms.out.stats.distinct_queries;
          if (!oracle->distinct(i, s, t)) return false;
        }
        return true;
      };

      std::uint32_t chosen = 0;
      bool found = false;
      if (available <= 64) {
        // Small difference: enumerate T(f_i) - T_k in ascending order and
        // pick uniformly among the candidates.
        std::vector<std::uint32_t> candidates;
        tf.for_each_set([&](std::size_t v) {
          if (ms.members.test(v)) return;
          if (is_distinct_candidate(static_cast<std::uint32_t>(v)))
            candidates.push_back(static_cast<std::uint32_t>(v));
        });
        if (!candidates.empty()) {
          chosen = candidates[ms.rng.below(candidates.size(), c0,
                                           kSiteCandidates)];
          found = true;
        }
      } else {
        // Large difference: bounded random probing, one site per probe.
        for (std::size_t probe = 0; probe < in.def2_probe_limit; ++probe) {
          const std::uint64_t r =
              ms.rng.below(available, c0, kSiteProbeBase + probe);
          const auto t = static_cast<std::uint32_t>(
              tf.nth_in_difference(ms.members, r));
          if (is_distinct_candidate(t)) {
            chosen = t;
            found = true;
            break;
          }
        }
      }

      if (found) {
        add_test(in, ms, chosen);
        // The new test is in T(f_i) and distinct: count it immediately.
        refresh_def2(in, ms, k, i, oracle);
        if (available == 1) keep = false;
      } else if (count < need) {
        // Definition-1 fallback: no test can increase the Definition-2
        // count, but the fault is still short of n plain detections.
        const std::uint64_t r = ms.rng.below(available, c0, kSiteMain);
        add_test(in, ms,
                 static_cast<std::uint32_t>(tf.nth_in_difference(ms.members, r)));
        ++ms.out.stats.def1_fallbacks;
        if (available == 1) {
          refresh_def2(in, ms, k, i, oracle);  // settle before retiring
          keep = false;
        }
      }
    }
  }
  if (keep && st.counted.size() >= nmax) keep = false;  // saturated
  ms.known[k] = keep ? static_cast<std::uint32_t>(st.counted.size()) : kRetired;
}

/// Runs one batch group of `width` consecutive sets (first_set..+width)
/// through all nmax iterations in lockstep.  Per iteration the group walks
/// the engine's tiles in N(f)-ascending order; a member enters a tile's
/// sweep only if its cached tile_min_known bound admits work somewhere in
/// the tile (tiles saturate together because detection counts track N(f),
/// so whole tiles drop to an O(1) check within a couple of iterations).
/// Inside a tile the sweep stays DENSE: every entered member's row rides
/// every saturation_counts batch at constant width, and each member's
/// visit logic runs on its own exact count.  (Measured repeatedly, and
/// against intuition: per-pair `known >= n` skips and per-pair inline
/// counts are SLOWER here -- the constant-width register-blocked batch
/// plus a branch-light visit loop beats every sparse variant, because a
/// handful of redundant popcounts costs less than the data-dependent
/// branches and list rebuilding sparseness needs.)  Members mutate only
/// their own state, every draw is coordinate-addressed, and the skip rule
/// reads only the member's own monotone bounds, so a member's trajectory
/// is the same at every width, thread count and SIMD level; the batch only
/// changes how many sets share one pass over the target payloads.
/// A fired CancelToken is observed between iterations; the group then
/// stops without filling its slots and run_procedure1 raises, so no
/// partial trajectory escapes.
void run_group(const GroupInputs& in, std::size_t first_set,
               std::span<SetResult> results, Def2Oracle* oracle,
               const CancelToken* cancel) {
  const PairKernelEngine& engine = *in.engine;
  const std::size_t width = results.size();
  std::vector<MemberState> group;
  group.reserve(width);
  for (std::size_t b = 0; b < width; ++b)
    group.emplace_back(in, static_cast<std::uint64_t>(first_set + b));

  std::uint32_t active[PairKernelEngine::kBatchWidth];
  std::uint32_t new_min[PairKernelEngine::kBatchWidth];
  const Bitset::word_type* rows[PairKernelEngine::kBatchWidth];
  std::uint32_t counts[PairKernelEngine::kBatchWidth];

  for (int n = 1; n <= in.nmax; ++n) {
    const auto need = static_cast<std::uint32_t>(n);
    for (std::size_t t = 0; t < engine.tile_count(); ++t) {
      std::size_t num_active = 0;
      for (std::size_t b = 0; b < width; ++b)
        if (group[b].tile_min_known[t] < need) {
          active[num_active] = static_cast<std::uint32_t>(b);
          rows[num_active] = group[b].members.words();
          new_min[num_active] = kRetired;
          ++num_active;
        }
      if (num_active == 0) continue;
      const auto [tile_begin, tile_end] = engine.tile_range(t);
      for (std::uint32_t k = tile_begin; k < tile_end; ++k) {
        engine.saturation_counts(k, rows, num_active, counts);
        for (std::size_t a = 0; a < num_active; ++a) {
          MemberState& ms = group[active[a]];
          if (ms.known[k] != kRetired) {
            if (in.def2)
              visit_def2(in, ms, n, k, counts[a], oracle);
            else
              visit_def1(in, ms, n, k, counts[a]);
          }
          new_min[a] = std::min(new_min[a], ms.known[k]);
        }
      }
      for (std::size_t a = 0; a < num_active; ++a)
        group[active[a]].tile_min_known[t] = new_min[a];
    }
    // Snapshot every member's state at the end of iteration n (saturated
    // members keep snapshotting their frozen state).
    for (MemberState& ms : group) {
      ms.out.detected.push_back(ms.detected);
      ms.out.sizes.push_back(static_cast<std::uint32_t>(ms.out.order.size()));
    }
    if (n < in.nmax && is_cancelled(cancel)) return;
  }
  for (std::size_t b = 0; b < width; ++b) results[b] = std::move(group[b].out);
}

}  // namespace

AverageCaseResult run_procedure1(const DetectionDb& db,
                                 std::span<const std::size_t> monitored,
                                 const Procedure1Config& config,
                                 const ThreadPool& pool,
                                 const CancelToken* cancel) {
  require(config.nmax >= 1, "run_procedure1: nmax must be >= 1");
  require(config.num_sets >= 1, "run_procedure1: need at least one test set");

  const auto& targets = db.targets();
  const auto& target_sets = db.target_sets();
  const std::uint64_t vectors = db.vector_count();
  const std::size_t k_sets = config.num_sets;
  const bool def2 = config.definition == DetectionDefinition::kDissimilar;

  // Per-vector transpose of the MONITORED sets only: which monitored faults
  // does vector v detect?  It makes every test addition O(monitored words).
  // (The target side needs no transpose: the batched kernels read the
  // engine's packed rows directly.)
  std::vector<DetectionSet> monitored_sets;
  monitored_sets.reserve(monitored.size());
  for (const std::size_t j : monitored) {
    require(j < db.untargeted().size(),
            "run_procedure1: monitored index out of range");
    monitored_sets.push_back(db.untargeted_sets()[j]);
  }
  const std::vector<Bitset> monitored_rows =
      transpose_detection_sets(std::span<const DetectionSet>(monitored_sets),
                               vectors);

  // The sweep's target-side geometry: detectable targets N(f)-sorted and
  // packed into cache-resident tiles (undetectable targets are inert in
  // every analysis and are dropped by the engine).
  const PairKernelEngine engine(std::span<const DetectionSet>(target_sets),
                                vectors);

  GroupInputs inputs;
  inputs.engine = &engine;
  inputs.target_sets = target_sets;
  inputs.monitored_rows = monitored_rows;
  inputs.vectors = vectors;
  inputs.monitored_count = monitored.size();
  inputs.nmax = config.nmax;
  inputs.seed = config.seed;
  inputs.def2 = def2;
  inputs.def2_probe_limit = config.def2_probe_limit;

  // Groups of the kernel width; the last one holds the remainder.  See
  // run_group for why results cannot depend on a set's group.
  const std::size_t width = PairKernelEngine::kBatchWidth;

  // Shard whole batch groups across the pool: a worker owns each of its
  // groups' sets end to end and writes only their slots.  Definition-2
  // workers each own a private oracle, so the hot distinct() path takes no
  // locks; a one-worker pool degenerates to serial on the calling thread.
  // Cancellation is polled between group claims (pool level) and between
  // iterations (run_group).
  std::vector<SetResult> sets(k_sets);
  const std::size_t groups = (k_sets + width - 1) / width;
  const unsigned workers = pool.workers_for(groups);
  std::vector<std::unique_ptr<Def2Oracle>> oracles(workers);
  pool.for_each_index(groups, [&](std::size_t g, unsigned worker) {
    Def2Oracle* oracle = nullptr;
    if (def2) {
      if (!oracles[worker])
        oracles[worker] = std::make_unique<Def2Oracle>(db.lines(), targets);
      oracle = oracles[worker].get();
    }
    const std::size_t first = g * width;
    run_group(inputs, first,
              std::span<SetResult>(sets).subspan(
                  first, std::min(width, k_sets - first)),
              oracle, cancel);
  }, cancel);
  check_cancel(cancel, "average_case");

  // Deterministic merge in k order.
  AverageCaseResult result;
  result.config = config;
  result.monitored.assign(monitored.begin(), monitored.end());
  const auto iterations = static_cast<std::size_t>(config.nmax);
  result.detect_count.resize(iterations);
  result.set_sizes.resize(iterations);
  if (config.keep_test_sets) result.test_sets.resize(iterations);
  for (std::size_t n = 0; n < iterations; ++n) {
    result.detect_count[n].assign(monitored.size(), 0);
    result.set_sizes[n].resize(k_sets);
    if (config.keep_test_sets) result.test_sets[n].resize(k_sets);
  }
  for (std::size_t k = 0; k < k_sets; ++k) {
    const SetResult& set = sets[k];
    for (std::size_t n = 0; n < iterations; ++n) {
      auto& dn = result.detect_count[n];
      set.detected[n].for_each_set([&](std::size_t j) { ++dn[j]; });
      result.set_sizes[n][k] = set.sizes[n];
      if (config.keep_test_sets)
        result.test_sets[n][k].assign(set.order.begin(),
                                      set.order.begin() + set.sizes[n]);
    }
    result.stats.tests_added += set.stats.tests_added;
    result.stats.def1_fallbacks += set.stats.def1_fallbacks;
    result.stats.distinct_queries += set.stats.distinct_queries;
  }
  for (const auto& oracle : oracles)
    if (oracle) result.def2_cache += oracle->stats();
  return result;
}

}  // namespace ndet
