#include "sim/ternary_sim.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ndet {

TernarySimulator::TernarySimulator(const LineModel& lines)
    : lines_(&lines), cones_(lines.circuit()) {}

const Circuit& TernarySimulator::circuit() const { return lines_->circuit(); }

std::vector<Ternary> TernarySimulator::good_values(
    std::span<const Ternary> inputs) const {
  const Circuit& c = circuit();
  require(inputs.size() == c.input_count(),
          "TernarySimulator::good_values: wrong input count");
  std::vector<Ternary> values(c.gate_count(), Ternary::kX);
  std::vector<Ternary> fanins;
  for (GateId g = 0; g < c.gate_count(); ++g) {
    const Gate& gate = c.gate(g);
    switch (gate.type) {
      case GateType::kInput:
        values[g] = inputs[c.input_index(g)];
        break;
      case GateType::kConst0:
        values[g] = Ternary::kZero;
        break;
      case GateType::kConst1:
        values[g] = Ternary::kOne;
        break;
      default: {
        fanins.resize(gate.fanins.size());
        for (std::size_t i = 0; i < gate.fanins.size(); ++i)
          fanins[i] = values[gate.fanins[i]];
        values[g] = eval_gate_ternary(gate.type, fanins);
      }
    }
  }
  return values;
}

std::vector<Ternary> TernarySimulator::faulty_values(
    const StuckAtFault& fault, std::span<const Ternary> inputs,
    std::span<const Ternary> good) const {
  const Circuit& c = circuit();
  const Line& line = lines_->line(fault.line);
  const Ternary stuck = ternary_of(fault.stuck_value);
  const GateId start = line.kind == LineKind::kStem ? line.driver : line.sink;

  std::vector<Ternary> faulty(good.begin(), good.end());
  std::vector<Ternary> fanins;
  for (const GateId g : cones_.cone_gates(start)) {
    const Gate& gate = c.gate(g);
    if (line.kind == LineKind::kStem && g == start) {
      faulty[g] = stuck;
      continue;
    }
    if (gate.type == GateType::kInput) {
      faulty[g] = inputs[c.input_index(g)];
      continue;
    }
    fanins.resize(gate.fanins.size());
    for (std::size_t s = 0; s < gate.fanins.size(); ++s) {
      const GateId fi = gate.fanins[s];
      Ternary value = faulty[fi];
      if (line.kind == LineKind::kBranch && g == start &&
          static_cast<int>(s) == line.sink_slot)
        value = stuck;
      fanins[s] = value;
    }
    faulty[g] = eval_gate_ternary(gate.type, fanins);
  }
  return faulty;
}

bool TernarySimulator::detects_with_good(const StuckAtFault& fault,
                                         std::span<const Ternary> inputs,
                                         std::span<const Ternary> good) const {
  const std::vector<Ternary> faulty = faulty_values(fault, inputs, good);
  const Circuit& c = circuit();
  for (const GateId po : c.outputs()) {
    const Ternary gv = good[po];
    const Ternary fv = faulty[po];
    if (is_binary(gv) && is_binary(fv) && gv != fv) return true;
  }
  return false;
}

bool TernarySimulator::detects(const StuckAtFault& fault,
                               std::span<const Ternary> inputs) const {
  const std::vector<Ternary> good = good_values(inputs);
  return detects_with_good(fault, inputs, good);
}

std::vector<Ternary> TernarySimulator::common_vector(std::uint64_t t1,
                                                     std::uint64_t t2) const {
  const std::size_t pi = circuit().input_count();
  std::vector<Ternary> inputs(pi, Ternary::kX);
  for (std::size_t i = 0; i < pi; ++i) {
    const std::uint64_t b1 = (t1 >> (pi - 1 - i)) & 1u;
    const std::uint64_t b2 = (t2 >> (pi - 1 - i)) & 1u;
    if (b1 == b2) inputs[i] = ternary_of(b1 != 0);
  }
  return inputs;
}

Def2Oracle::Def2Oracle(const LineModel& lines,
                       std::span<const StuckAtFault> faults)
    : sim_(lines),
      faults_(faults.begin(), faults.end()),
      input_count_(lines.circuit().input_count()),
      verdicts_(faults_.size()) {
  require(input_count_ <= 20, "Def2Oracle: more than 20 inputs");
}

std::uint64_t Def2Oracle::agreement_key(std::uint64_t t1,
                                        std::uint64_t t2) const {
  const std::uint64_t universe_mask =
      (std::uint64_t{1} << input_count_) - 1;
  const std::uint64_t agree = ~(t1 ^ t2) & universe_mask;
  const std::uint64_t ones = t1 & agree;
  return (agree << 20) | ones;
}

bool Def2Oracle::distinct(std::size_t fault_index, std::uint64_t t1,
                          std::uint64_t t2) {
  require(fault_index < faults_.size(), "Def2Oracle::distinct: bad fault index");
  if (t1 == t2) return false;  // a test is never a new detection of itself
  const std::uint64_t key = agreement_key(t1, t2);

  auto& memo = verdicts_[fault_index];
  if (const auto it = memo.find(key); it != memo.end()) {
    ++verdict_hits_;
    return !it->second;  // distinct iff t12 does NOT detect
  }
  ++verdict_misses_;

  const std::vector<Ternary> inputs = sim_.common_vector(t1, t2);
  auto good_it = good_cache_.find(key);
  if (good_it == good_cache_.end())
    good_it = good_cache_.emplace(key, sim_.good_values(inputs)).first;
  const bool detected =
      sim_.detects_with_good(faults_[fault_index], inputs, good_it->second);
  memo.emplace(key, detected);
  return !detected;
}

}  // namespace ndet
