#include "sim/exhaustive.hpp"

#include <string>

#include "logic/eval.hpp"
#include "util/check.hpp"

namespace ndet {

namespace {

/// Alternating patterns for inputs whose bit position is below 6 (i.e. the
/// input toggles within a 64-vector word).  Entry s is the pattern where the
/// input equals bit s of the in-word vector index.
constexpr std::uint64_t kTogglePattern[6] = {
    0xAAAAAAAAAAAAAAAAull,  // period 2
    0xCCCCCCCCCCCCCCCCull,  // period 4
    0xF0F0F0F0F0F0F0F0ull,  // period 8
    0xFF00FF00FF00FF00ull,  // period 16
    0xFFFF0000FFFF0000ull,  // period 32
    0xFFFFFFFF00000000ull,  // period 64
};

}  // namespace

ExhaustiveSimulator::ExhaustiveSimulator(const Circuit& circuit, int max_inputs)
    : circuit_(&circuit) {
  const auto pi = circuit.input_count();
  require(pi >= 1, "ExhaustiveSimulator: circuit has no inputs");
  require(static_cast<int>(pi) <= max_inputs,
          "ExhaustiveSimulator: circuit '" + circuit.name() + "' has " +
              std::to_string(pi) + " inputs, exhaustive limit is " +
              std::to_string(max_inputs));
  vector_count_ = std::uint64_t{1} << pi;
  word_count_ = static_cast<std::size_t>((vector_count_ + 63) / 64);
  if (vector_count_ < 64)
    last_word_mask_ = (std::uint64_t{1} << vector_count_) - 1;

  values_.assign(circuit.gate_count(), std::vector<std::uint64_t>(word_count_));

  std::vector<std::uint64_t> fanin_words;
  for (GateId g = 0; g < circuit.gate_count(); ++g) {
    const Gate& gate = circuit.gate(g);
    switch (gate.type) {
      case GateType::kInput: {
        const std::size_t idx = circuit.input_index(g);
        for (std::size_t w = 0; w < word_count_; ++w)
          values_[g][w] = input_word(idx, w);
        break;
      }
      case GateType::kConst0:
        break;  // already zero
      case GateType::kConst1:
        for (std::size_t w = 0; w < word_count_; ++w)
          values_[g][w] = ~std::uint64_t{0};
        break;
      default: {
        fanin_words.resize(gate.fanins.size());
        for (std::size_t w = 0; w < word_count_; ++w) {
          for (std::size_t i = 0; i < gate.fanins.size(); ++i)
            fanin_words[i] = values_[gate.fanins[i]][w];
          values_[g][w] = eval_gate_words(gate.type, fanin_words);
        }
      }
    }
  }
}

bool ExhaustiveSimulator::good_value(GateId g, std::uint64_t v) const {
  require(g < values_.size(), "ExhaustiveSimulator::good_value: bad gate");
  require(v < vector_count_, "ExhaustiveSimulator::good_value: bad vector");
  return (values_[g][v / 64] >> (v % 64)) & 1u;
}

bool ExhaustiveSimulator::input_bit(std::uint64_t v,
                                    std::size_t input_index) const {
  const auto pi = circuit_->input_count();
  require(input_index < pi, "ExhaustiveSimulator::input_bit: bad input index");
  require(v < vector_count_, "ExhaustiveSimulator::input_bit: bad vector");
  return (v >> (pi - 1 - input_index)) & 1u;
}

std::uint64_t ExhaustiveSimulator::input_word(std::size_t input_index,
                                              std::size_t w) const {
  const auto pi = circuit_->input_count();
  require(input_index < pi, "ExhaustiveSimulator::input_word: bad input index");
  require(w < word_count_, "ExhaustiveSimulator::input_word: bad word");
  const std::size_t shift = pi - 1 - input_index;  // bit position in vector id
  if (shift < 6) return kTogglePattern[shift];
  // Constant within a word: bit (shift-6) of the word index.
  return ((w >> (shift - 6)) & 1u) ? ~std::uint64_t{0} : 0;
}

}  // namespace ndet
