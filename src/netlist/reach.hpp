// reach.hpp -- dense structural reachability, built lazily over the circuit.
//
// The paper restricts the untargeted fault set G to *non-feedback* bridging
// faults: pairs of lines with no structural path between them in either
// direction, so that shorting them keeps the circuit combinational.
// Checking that condition over all bridging-site pairs is an all-pairs
// closure query, which is the one consumer that genuinely wants dense
// per-gate reachability rows.
//
// ReachMatrix materializes the closure row of a gate (its fanout cone, as
// a ConeQuery over the circuit returns it) only on the first query that
// touches it, so enumerating bridging pairs allocates rows for the bridging
// sites alone and every other gate costs nothing.  Eager rows would cost
// gate_count() rows of gate_count() bits up front -- an O(V^2) memory
// cliff on generated circuits.
//
// Lazy rows are per-instance mutable state without synchronization: confine
// an instance to one thread (the enumeration paths that use it are serial).

#pragma once

#include <vector>

#include "netlist/circuit.hpp"
#include "netlist/graph.hpp"
#include "util/bitset.hpp"

namespace ndet {

/// Transitive-fanout rows of a circuit, materialized on first use.
class ReachMatrix {
 public:
  /// The circuit must outlive the matrix.
  explicit ReachMatrix(const Circuit& circuit);

  /// True when a directed path of length >= 1 exists from `from` to `to`.
  /// Builds (and memoizes) the closure row of `from`.
  bool reaches(GateId from, GateId to) const;

  /// True when the two gates are structurally independent (no path in either
  /// direction) -- the paper's non-feedback condition for a bridging pair.
  bool independent(GateId a, GateId b) const;

  /// The set of gates in the transitive fanout of `gate`, excluding itself
  /// (the builder forbids cycles), as a dense row.
  const Bitset& fanout_cone(GateId gate) const;

  /// Number of rows materialized so far (telemetry for the lazy contract).
  std::size_t materialized_rows() const { return materialized_; }

 private:
  const Bitset& row(GateId gate) const;

  mutable ConeQuery query_;
  mutable std::vector<Bitset> rows_;   ///< rows_[g] valid iff built_[g]
  mutable std::vector<bool> built_;
  mutable std::size_t materialized_ = 0;
};

}  // namespace ndet
