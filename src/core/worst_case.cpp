#include "core/worst_case.hpp"

#include <algorithm>

#include "core/pair_kernels.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

double WorstCaseResult::fraction_at_most(std::uint64_t n) const {
  if (nmin.empty()) return 0.0;
  std::size_t count = 0;
  for (const std::uint64_t v : nmin)
    if (v != kNeverGuaranteed && v <= n) ++count;
  return static_cast<double>(count) / static_cast<double>(nmin.size());
}

std::size_t WorstCaseResult::count_at_least(std::uint64_t n) const {
  std::size_t count = 0;
  for (const std::uint64_t v : nmin)
    if (v >= n) ++count;
  return count;
}

std::vector<std::size_t> WorstCaseResult::indices_at_least(
    std::uint64_t n) const {
  std::vector<std::size_t> indices;
  for (std::size_t j = 0; j < nmin.size(); ++j)
    if (nmin[j] >= n) indices.push_back(j);
  return indices;
}

std::map<std::uint64_t, std::size_t> WorstCaseResult::histogram() const {
  std::map<std::uint64_t, std::size_t> h;
  for (const std::uint64_t v : nmin) ++h[v];
  return h;
}

std::uint64_t WorstCaseResult::max_finite_nmin() const {
  std::uint64_t best = 0;
  for (const std::uint64_t v : nmin)
    if (v != kNeverGuaranteed) best = std::max(best, v);
  return best;
}

std::string to_json(const WorstCaseResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("fault_count").value(static_cast<std::uint64_t>(result.nmin.size()));
  w.key("never_guaranteed")
      .value(static_cast<std::uint64_t>(result.count_at_least(kNeverGuaranteed)));
  w.key("max_finite_nmin").value(result.max_finite_nmin());
  w.key("nmin").begin_array();
  for (const std::uint64_t v : result.nmin) {
    if (v == kNeverGuaranteed)
      w.null();
    else
      w.value(v);
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::uint64_t nmin_of(const DetectionSet& untargeted_set,
                      std::span<const DetectionSet> target_sets) {
  std::uint64_t best = kNeverGuaranteed;
  for (const DetectionSet& tf : target_sets) {
    const std::size_t m = tf.intersect_count(untargeted_set);
    if (m == 0) continue;
    const std::uint64_t candidate = tf.count() - m + 1;
    best = std::min(best, candidate);
    if (best == 1) break;  // cannot get smaller
  }
  return best;
}

WorstCaseResult analyze_worst_case(const DetectionDb& db,
                                   const ThreadPool& pool,
                                   const CancelToken* cancel) {
  check_cancel(cancel, "worst_case");
  WorstCaseResult result;
  const std::vector<DetectionSet>& untargeted = db.untargeted_sets();
  result.nmin.assign(untargeted.size(), kNeverGuaranteed);
  if (untargeted.empty()) return result;

  // Pack the targets once (N(f)-ascending tiles), then serve the untargeted
  // faults in engine-width batches: each batch streams every needed tile
  // once for all its members, and writes only its own nmin slots, so the
  // shard is deterministic at every thread count.
  const PairKernelEngine engine(db.target_sets(),
                                static_cast<std::size_t>(db.vector_count()));
  constexpr std::size_t kWidth = PairKernelEngine::kBatchWidth;
  const std::size_t batches = (untargeted.size() + kWidth - 1) / kWidth;
  std::vector<PairKernelEngine::Scratch> scratch(pool.workers_for(batches));
  pool.for_each_index(batches, [&](std::size_t batch, unsigned worker) {
    const std::size_t begin = batch * kWidth;
    const std::size_t size = std::min(kWidth, untargeted.size() - begin);
    engine.nmin_batch(std::span<const DetectionSet>(untargeted)
                          .subspan(begin, size),
                      std::span<std::uint64_t>(result.nmin)
                          .subspan(begin, size),
                      scratch[worker]);
  }, cancel);
  check_cancel(cancel, "worst_case");
  return result;
}

std::vector<OverlapEntry> overlap_entries(const DetectionDb& db,
                                          std::size_t untargeted_index,
                                          const ThreadPool& pool) {
  require(untargeted_index < db.untargeted().size(),
          "overlap_entries: untargeted fault index out of range");
  const DetectionSet& tg = db.untargeted_sets()[untargeted_index];
  const std::span<const DetectionSet> target_sets = db.target_sets();
  const PairKernelEngine engine(target_sets,
                                static_cast<std::size_t>(db.vector_count()));
  std::vector<std::uint32_t> m(target_sets.size());
  engine.intersect_counts(tg, m, pool);
  std::vector<OverlapEntry> entries;
  for (std::size_t i = 0; i < target_sets.size(); ++i) {
    if (m[i] == 0) continue;
    const std::size_t n_f = target_sets[i].count();
    entries.push_back({i, n_f, m[i], n_f - m[i] + 1});
  }
  return entries;
}

}  // namespace ndet
