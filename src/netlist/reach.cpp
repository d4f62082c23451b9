#include "netlist/reach.hpp"

#include "util/check.hpp"

namespace ndet {

ReachMatrix::ReachMatrix(const Circuit& circuit)
    : query_(circuit),
      rows_(circuit.gate_count()),
      built_(circuit.gate_count(), false) {}

const Bitset& ReachMatrix::row(GateId gate) const {
  require(gate < rows_.size(), "ReachMatrix: gate out of range");
  if (!built_[gate]) {
    Bitset bits(rows_.size());
    // The cone query returns `gate` plus its transitive fanout; the row
    // keeps the historical exclusive semantics (no path of length 0).
    for (const GateId g : query_.fanout(gate))
      if (g != gate) bits.set(g);
    rows_[gate] = std::move(bits);
    built_[gate] = true;
    ++materialized_;
  }
  return rows_[gate];
}

bool ReachMatrix::reaches(GateId from, GateId to) const {
  require(from < rows_.size() && to < rows_.size(),
          "ReachMatrix::reaches: gate out of range");
  return row(from).test(to);
}

bool ReachMatrix::independent(GateId a, GateId b) const {
  return !reaches(a, b) && !reaches(b, a);
}

const Bitset& ReachMatrix::fanout_cone(GateId gate) const {
  require(gate < rows_.size(), "ReachMatrix::fanout_cone: gate out of range");
  return row(gate);
}

}  // namespace ndet
