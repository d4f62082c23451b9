#include "atpg/ndetect.hpp"

#include <algorithm>

#include "sim/batch_fault_sim.hpp"
#include "sim/exhaustive.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

namespace {

/// Detection matrix: per fault, the set of detecting tests (bits index the
/// test list).
std::vector<Bitset> detection_matrix(const LineModel& lines,
                                     std::span<const StuckAtFault> faults,
                                     std::span<const std::uint32_t> tests) {
  std::vector<std::uint64_t> vectors(tests.begin(), tests.end());
  const ExhaustiveSimulator sim(lines.circuit(), vectors);
  const ThreadPool pool;  // all hardware threads
  const BatchFaultSimulator fault_sim(sim, lines, pool);
  return fault_sim.detection_sets(faults);
}

/// A sorted vector standing in for std::set<uint32_t>: the generation loop
/// holds one membership structure per fault plus one for the whole set, and
/// the node-per-element allocation churn of std::set dominated the
/// compaction-bound profiles.  Inserts keep ascending order, so iteration
/// matches std::set exactly.  Right-sized for the per-fault `found` sets
/// (at most a few times n elements); the whole-run set uses TestFilter.
class SortedTests {
 public:
  /// Inserts `value`; returns false when it was already present.
  bool insert(std::uint32_t value) {
    const auto it = std::lower_bound(tests_.begin(), tests_.end(), value);
    if (it != tests_.end() && *it == value) return false;
    tests_.insert(it, value);
    return true;
  }

  std::size_t size() const { return tests_.size(); }
  auto begin() const { return tests_.begin(); }
  auto end() const { return tests_.end(); }

 private:
  std::vector<std::uint32_t> tests_;
};

/// Membership filter for the accumulated whole-run test list.  Its order is
/// never read (result.tests keeps insertion order itself), so only
/// insert/contains matter: a dense bitmap over the vector universe when the
/// circuit is narrow enough for one, falling back to the sorted vector on
/// wide-PI circuits where 2^PI bits would not fit.
class TestFilter {
 public:
  explicit TestFilter(std::size_t input_count) {
    if (input_count <= kDenseInputLimit)
      bits_ = Bitset(std::size_t{1} << input_count);
  }

  /// Inserts `value`; returns false when it was already present.
  bool insert(std::uint32_t value) {
    if (bits_.size() == 0) return sorted_.insert(value);
    if (bits_.test(value)) return false;
    bits_.set(value);
    return true;
  }

 private:
  /// 2^24 bits = 2 MiB; everything this repository analyzes is far below.
  static constexpr std::size_t kDenseInputLimit = 24;

  Bitset bits_;
  SortedTests sorted_;
};

}  // namespace

std::vector<std::size_t> count_detections(
    const LineModel& lines, std::span<const StuckAtFault> faults,
    std::span<const std::uint32_t> tests) {
  if (tests.empty()) return std::vector<std::size_t>(faults.size(), 0);
  std::vector<std::size_t> counts;
  counts.reserve(faults.size());
  for (const Bitset& row : detection_matrix(lines, faults, tests))
    counts.push_back(row.count());
  return counts;
}

NDetectResult generate_ndetection_set(const LineModel& lines,
                                      std::span<const StuckAtFault> faults,
                                      const NDetectConfig& config) {
  require(config.n >= 1, "generate_ndetection_set: n must be >= 1");
  NDetectResult result;
  Rng rng(config.seed);

  PodemConfig podem_config = config.podem;
  podem_config.randomize = true;
  const Podem podem(lines, podem_config);

  TestFilter in_set(lines.circuit().input_count());

  for (const StuckAtFault& fault : faults) {
    SortedTests found;  // distinct tests for this fault
    bool aborted = false;
    bool detectable = false;
    int dry_attempts = 0;
    while (static_cast<int>(found.size()) < config.n &&
           dry_attempts < config.attempts_per_detection) {
      const PodemResult run = podem.generate(fault, rng);
      if (run.aborted) {
        aborted = true;
        break;
      }
      if (!run.cube) break;  // proven undetectable
      detectable = true;
      // Randomized completions of the cube diversify the detections.
      bool added = false;
      for (int fill = 0; fill < 16 && static_cast<int>(found.size()) < config.n;
           ++fill) {
        const auto test =
            static_cast<std::uint32_t>(podem.complete_cube(*run.cube, rng));
        if (found.insert(test)) added = true;
      }
      dry_attempts = added ? 0 : dry_attempts + 1;
    }
    if (aborted) ++result.aborted_faults;
    else if (!detectable) ++result.undetectable_faults;
    else if (static_cast<int>(found.size()) < config.n) ++result.short_faults;
    for (const std::uint32_t t : found) {
      if (in_set.insert(t))
        result.tests.push_back(t);
    }
  }

  if (config.compact && !result.tests.empty()) {
    // Reverse-order compaction: a test is dropped when every fault keeps
    // min(n, achieved) detections without it.
    const std::vector<Bitset> matrix =
        detection_matrix(lines, faults, result.tests);
    std::vector<std::size_t> counts;
    counts.reserve(faults.size());
    std::vector<std::size_t> quota;
    quota.reserve(faults.size());
    for (const Bitset& row : matrix) {
      counts.push_back(row.count());
      quota.push_back(std::min<std::size_t>(
          static_cast<std::size_t>(config.n), row.count()));
    }
    std::vector<bool> keep(result.tests.size(), true);
    for (std::size_t t = result.tests.size(); t-- > 0;) {
      bool removable = true;
      for (std::size_t f = 0; f < faults.size() && removable; ++f)
        if (matrix[f].test(t) && counts[f] - 1 < quota[f]) removable = false;
      if (!removable) continue;
      keep[t] = false;
      for (std::size_t f = 0; f < faults.size(); ++f)
        if (matrix[f].test(t)) --counts[f];
      ++result.compaction_removed;
    }
    std::vector<std::uint32_t> compacted;
    compacted.reserve(result.tests.size() - result.compaction_removed);
    for (std::size_t t = 0; t < result.tests.size(); ++t)
      if (keep[t]) compacted.push_back(result.tests[t]);
    result.tests = std::move(compacted);
  }
  return result;
}

}  // namespace ndet
