// synth.hpp -- two-level synthesis of KISS2 machines to gate netlists.
//
// The combinational logic extracted from an FSM has
//   inputs : the machine's primary inputs x0.., then the state bits s0..
//   outputs: the machine's primary outputs o0.., then the next-state bits
// Each STT term becomes a product term: an AND over the specified input
// literals and the full current-state code (one-hot encodings use only the
// single asserted state bit, the usual one-hot simplification).  Identical
// product terms are shared across outputs.  Each output / next-state bit is
// the OR of its product terms ('-' output bits synthesize as 0; bits with no
// terms become constant 0).
//
// This mirrors the STT -> encoded two-level logic -> netlist pipeline the
// paper's experimental setup implies for "the combinational logic of MCNC
// finite-state machine benchmarks" (see DESIGN.md, substitution table).

#pragma once

#include "fsm/encoding.hpp"
#include "fsm/kiss2.hpp"
#include "netlist/circuit.hpp"

namespace ndet {

/// Synthesis options.
struct SynthOptions {
  StateEncoding encoding = StateEncoding::kBinary;
  /// Maximum gate fanin after technology mapping: wider AND/OR planes are
  /// decomposed into balanced trees of gates with at most this many inputs
  /// (0 = unlimited, i.e. raw two-level logic).  The default of 4 mimics the
  /// mapped multi-level netlists the paper's benchmark flow produced --
  /// without it every bridging fault's detection condition is dominated by
  /// a single hyper-specific branch fault and the worst-case analysis
  /// degenerates to nmin = 1 everywhere (see DESIGN.md).
  int max_fanin = 4;
};

/// Synthesizes the FSM's combinational logic.  The circuit is named after
/// the machine; inputs are "x<i>" then "s<b>", outputs "o<j>" then "ns<b>".
Circuit synthesize_fsm(const Kiss2Fsm& fsm, const SynthOptions& options = {});

}  // namespace ndet
