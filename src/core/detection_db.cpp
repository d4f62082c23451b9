#include "core/detection_db.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "netlist/reach.hpp"
#include "sim/batch_fault_sim.hpp"
#include "sim/exhaustive.hpp"
#include "util/fault_inject.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

DetectionDb DetectionDb::build(const Circuit& circuit,
                               const DetectionDbOptions& options,
                               const ThreadPool& pool,
                               const CancelToken* cancel) {
  check_cancel(cancel, "detection_db");
  NDET_INJECT("detection_db.alloc",
              throw Error(ErrorKind::kResourceExhausted,
                          "injected allocation failure (site "
                          "detection_db.alloc)", "detection_db"));
  DetectionDb db;
  db.circuit_ = std::make_shared<const Circuit>(circuit);
  db.lines_ = std::make_shared<const LineModel>(*db.circuit_);
  db.representation_ = options.representation;

  const ExhaustiveSimulator good(*db.circuit_, options.max_inputs);
  db.vector_count_ = good.vector_count();
  const BatchFaultSimulator simulator(good, *db.lines_, pool);

  // F: collapsed single stuck-at faults, with their detection sets.
  db.targets_ = collapse_stuck_at_faults(*db.lines_);
  std::vector<Bitset> target_sets =
      simulator.detection_sets(db.targets_, cancel);
  db.target_sets_.reserve(target_sets.size());
  for (Bitset& set : target_sets)
    db.target_sets_.push_back(
        DetectionSet::freeze(std::move(set), options.representation));

  // G: four-way bridging faults, keeping only the detectable ones, in
  // enumeration order.  There are 50-180 times as many as targets, so
  // the filter and the freezes run across the pool: one pass frees the
  // empty dense sets, a serial scan places the survivors, and a
  // second pass freezes each survivor straight into its slot of G.  At
  // width 1 both passes run inline, in enumeration order.
  check_cancel(cancel, "detection_db");
  const ReachMatrix reach(*db.circuit_);
  const std::vector<BridgingFault> enumerated =
      enumerate_four_way_bridging(*db.circuit_, reach);
  db.enumerated_untargeted_ = enumerated.size();
  std::vector<Bitset> enumerated_sets =
      simulator.detection_sets(enumerated, cancel);
  std::vector<std::uint8_t> detectable(enumerated.size(), 0);
  pool.for_each_index(enumerated.size(), [&](std::size_t i, unsigned) {
    if (enumerated_sets[i].none())
      enumerated_sets[i] = Bitset();
    else
      detectable[i] = 1;
  }, cancel);
  check_cancel(cancel, "detection_db");
  std::vector<std::size_t> source;  // G index -> enumeration index
  source.reserve(static_cast<std::size_t>(std::ranges::count(detectable, 1)));
  for (std::size_t i = 0; i < enumerated.size(); ++i)
    if (detectable[i] != 0) source.push_back(i);
  db.untargeted_.reserve(source.size());
  for (const std::size_t i : source) db.untargeted_.push_back(enumerated[i]);
  db.untargeted_sets_.resize(source.size());
  pool.for_each_index(source.size(), [&](std::size_t j, unsigned) {
    db.untargeted_sets_[j] =
        DetectionSet::freeze(std::move(enumerated_sets[source[j]]),
                             options.representation);
  }, cancel);
  check_cancel(cancel, "detection_db");
  return db;
}

std::size_t DetectionDb::detectable_target_count() const {
  std::size_t count = 0;
  for (const DetectionSet& set : target_sets_)
    if (set.any()) ++count;
  return count;
}

std::size_t DetectionDb::set_memory_bytes() const {
  std::size_t total = 0;
  for (const DetectionSet& set : target_sets_) total += set.memory_bytes();
  for (const DetectionSet& set : untargeted_sets_) total += set.memory_bytes();
  return total;
}

std::size_t DetectionDb::dense_memory_bytes() const {
  return (target_sets_.size() + untargeted_sets_.size()) *
         DetectionSet::dense_memory_bytes(
             static_cast<std::size_t>(vector_count_));
}

std::vector<Bitset> transpose_detection_sets(std::span<const DetectionSet> sets,
                                             std::uint64_t vector_count) {
  std::vector<Bitset> rows(vector_count, Bitset(sets.size()));
  for (std::size_t i = 0; i < sets.size(); ++i)
    sets[i].for_each_set([&](std::size_t v) { rows[v].set(i); });
  return rows;
}

}  // namespace ndet
