#include "sim/fault_sim.hpp"

#include <algorithm>

#include "logic/eval.hpp"
#include "netlist/graph.hpp"
#include "util/check.hpp"

namespace ndet {

FaultSimulator::FaultSimulator(const ExhaustiveSimulator& good,
                               const LineModel& lines)
    : good_(&good), lines_(&lines) {
  require(&good.circuit() == &lines.circuit(),
          "FaultSimulator: simulator and line model refer to different circuits");
  const std::size_t gate_count = good.circuit().gate_count();
  in_affected_.assign(gate_count, 0);
  faulty_.assign(gate_count, 0);
  std::size_t max_fanin = 0;
  for (GateId g = 0; g < gate_count; ++g)
    max_fanin = std::max(max_fanin, good.circuit().gate(g).fanins.size());
  fanin_words_.assign(std::max<std::size_t>(max_fanin, 1), 0);
}

std::uint32_t FaultSimulator::next_epoch() const {
  if (++epoch_ == 0) {
    std::fill(in_affected_.begin(), in_affected_.end(), 0u);
    epoch_ = 1;
  }
  return epoch_;
}

std::vector<GateId> FaultSimulator::affected_gates(GateId root) const {
  return fanout_cone(good_->circuit(), root);
}

Bitset FaultSimulator::simulate(
    GateId start, const std::function<std::uint64_t(std::size_t)>& forced,
    int branch_slot, std::uint64_t branch_constant) const {
  const Circuit& circuit = good_->circuit();
  const std::vector<GateId> affected = affected_gates(start);

  const std::uint32_t mark = next_epoch();
  for (const GateId g : affected) in_affected_[g] = mark;

  affected_outputs_.clear();
  for (const GateId g : affected)
    if (circuit.is_output(g)) affected_outputs_.push_back(g);

  Bitset detected(good_->vector_count());
  if (affected_outputs_.empty()) return detected;  // fault effect unobservable

  for (std::size_t w = 0; w < good_->word_count(); ++w) {
    for (const GateId g : affected) {
      if (g == start && forced) {
        faulty_[g] = forced(w);
        continue;
      }
      const Gate& gate = circuit.gate(g);
      const std::size_t fanin_count = gate.fanins.size();
      for (std::size_t s = 0; s < fanin_count; ++s) {
        const GateId fi = gate.fanins[s];
        std::uint64_t value =
            in_affected_[fi] == mark ? faulty_[fi] : good_->good_word(fi, w);
        if (g == start && static_cast<int>(s) == branch_slot)
          value = branch_constant;
        fanin_words_[s] = value;
      }
      faulty_[g] = eval_gate_words(
          gate.type, {fanin_words_.data(), fanin_count});
    }
    std::uint64_t diff = 0;
    for (const GateId po : affected_outputs_)
      diff |= good_->good_word(po, w) ^ faulty_[po];
    if (w + 1 == good_->word_count()) diff &= good_->last_word_mask();
    detected.words()[w] = diff;
  }
  return detected;
}

Bitset FaultSimulator::detection_set(const StuckAtFault& fault) const {
  const Line& line = lines_->line(fault.line);
  const std::uint64_t constant = fault.stuck_value ? ~std::uint64_t{0} : 0;
  if (line.kind == LineKind::kStem) {
    return simulate(line.driver, [constant](std::size_t) { return constant; },
                    -1, 0);
  }
  return simulate(line.sink, nullptr, line.sink_slot, constant);
}

Bitset FaultSimulator::detection_set(const BridgingFault& fault) const {
  const GateId victim = fault.victim;
  const GateId aggressor = fault.aggressor;
  const bool forced_to = fault.aggressor_value;  // a2 = value forced on victim
  const auto forced = [this, victim, aggressor, forced_to](std::size_t w) {
    const std::uint64_t v = good_->good_word(victim, w);
    const std::uint64_t a = good_->good_word(aggressor, w);
    // Victim takes the aggressor's value exactly when the aggressor is a2:
    // a2 = 1 -> wired OR, a2 = 0 -> wired AND.
    return forced_to ? (v | a) : (v & a);
  };
  return simulate(victim, forced, -1, 0);
}

std::vector<Bitset> FaultSimulator::detection_sets(
    std::span<const StuckAtFault> faults) const {
  std::vector<Bitset> sets;
  sets.reserve(faults.size());
  for (const auto& f : faults) sets.push_back(detection_set(f));
  return sets;
}

std::vector<Bitset> FaultSimulator::detection_sets(
    std::span<const BridgingFault> faults) const {
  std::vector<Bitset> sets;
  sets.reserve(faults.size());
  for (const auto& f : faults) sets.push_back(detection_set(f));
  return sets;
}

}  // namespace ndet
