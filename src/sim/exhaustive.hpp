// exhaustive.hpp -- fault-free simulation of all 2^PI input vectors.
//
// The analysis of the paper is defined over U, the set of *all* input
// vectors.  Vectors are identified by their decimal value with the FIRST
// declared input as the most significant bit -- the convention of the
// paper's example (input vector 6 = 0110 sets inputs 2 and 3 of the Figure-1
// circuit).  Sixty-four vectors are packed per machine word: bit p of word w
// is vector 64*w + p.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/circuit.hpp"

namespace ndet {

/// Fault-free values of every gate over the full vector space.
class ExhaustiveSimulator {
 public:
  /// Simulates the circuit exhaustively.  Refuses circuits with more than
  /// `max_inputs` inputs (default 20, i.e. 1M vectors) to keep memory sane.
  explicit ExhaustiveSimulator(const Circuit& circuit, int max_inputs = 20);

  const Circuit& circuit() const { return *circuit_; }

  /// Number of vectors |U| = 2^PI.
  std::uint64_t vector_count() const { return vector_count_; }

  /// Number of 64-bit words per gate.
  std::size_t word_count() const { return word_count_; }

  /// Mask of valid vector bits in the last word (all-ones when |U| >= 64).
  std::uint64_t last_word_mask() const { return last_word_mask_; }

  /// Packed fault-free values of gate `g` for vectors [64w, 64w+63].
  std::uint64_t good_word(GateId g, std::size_t w) const {
    return values_[g][w];
  }

  /// Fault-free value of gate `g` under input vector `v`.
  bool good_value(GateId g, std::uint64_t v) const;

  /// Value of input bit `input_index` (declaration order) in vector `v`:
  /// (v >> (PI-1-input_index)) & 1.
  bool input_bit(std::uint64_t v, std::size_t input_index) const;

  /// The packed input pattern word for input `input_index` at word `w`
  /// (useful to rebuild faulty values without storing input columns twice).
  std::uint64_t input_word(std::size_t input_index, std::size_t w) const;

 private:
  const Circuit* circuit_;
  std::uint64_t vector_count_ = 0;
  std::size_t word_count_ = 0;
  std::uint64_t last_word_mask_ = ~std::uint64_t{0};
  std::vector<std::vector<std::uint64_t>> values_;  // [gate][word]
};

}  // namespace ndet
