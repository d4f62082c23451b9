// graph.hpp -- cone queries over a Circuit.
//
// The paper's untargeted faults are non-feedback four-way bridges, so the
// pipeline asks the netlist only for cones: fanout cones to resimulate a
// fault and to test the non-feedback condition, fanin cones to partition a
// circuit by output.  A Circuit already stores both adjacency lists per gate
// (Gate::fanouts ascending with one entry per connection, Gate::fanins in
// pin order), so every query here walks those lists directly:
//
//   * ConeQuery -- one cone at a time with reusable, epoch-stamped scratch;
//   * ConeIndex -- the fanout cone and affected primary outputs of EVERY
//     gate, frozen once in CSR form (the table the simulators start each
//     fault from);
//   * to_dot / write_dot_file -- the DOT export behind the report CLIs'
//     --dot= flag, for the whole circuit or one cone.
//
// Every cone comes back in ascending id order, which is topological order
// because CircuitBuilder only accepts fanins with smaller ids.  ConeIndex
// is read-only after construction and safe to share across threads; a
// ConeQuery owns mutable scratch, so it is one-per-thread.  Both borrow the
// circuit, which must outlive them.  See DESIGN.md "Cone queries".

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"

namespace ndet {

/// Cone queries with caller-owned scratch: fanout(root) is root plus its
/// transitive fanout, fanin(roots) the roots plus their transitive fanin,
/// both in ascending id order.  The returned span aliases internal storage
/// and is valid until the next query.  One instance per thread.
class ConeQuery {
 public:
  explicit ConeQuery(const Circuit& circuit);

  std::span<const GateId> fanout(GateId root);
  std::span<const GateId> fanin(GateId root);
  std::span<const GateId> fanin(std::span<const GateId> roots);

 private:
  /// Walks `edges` (Gate::fanouts or Gate::fanins) from every root.
  std::span<const GateId> collect(std::span<const GateId> roots,
                                  std::vector<GateId> Gate::*edges);

  const Circuit* circuit_;
  std::vector<std::uint32_t> seen_;  ///< epoch stamps, by gate id
  std::vector<GateId> stack_;
  std::vector<GateId> cone_;
  std::uint32_t epoch_ = 0;
};

/// Allocating convenience over ConeQuery::fanout (one-shot callers).
std::vector<GateId> fanout_cone(const Circuit& circuit, GateId root);

/// Precomputed fanout cones of EVERY gate in CSR form: one offsets array
/// plus one flattened gate array, and the same for the primary outputs
/// inside each cone.  A fault simulation starts from two array lookups
/// instead of a traversal.
class ConeIndex {
 public:
  explicit ConeIndex(const Circuit& circuit);

  /// `root` plus its transitive fanout, ascending (= topological) order.
  std::span<const GateId> cone_gates(GateId root) const;
  /// The primary outputs among cone_gates(root), ascending.
  std::span<const GateId> cone_outputs(GateId root) const;

 private:
  std::size_t gate_count_ = 0;
  std::vector<std::uint32_t> cone_offsets_;    ///< gate_count + 1 entries
  std::vector<GateId> cone_storage_;
  std::vector<std::uint32_t> output_offsets_;  ///< gate_count + 1 entries
  std::vector<GateId> output_storage_;
};

/// DOT export options.
struct DotOptions {
  /// When non-empty, only these gates (and edges between them) are
  /// rendered.
  std::vector<GateId> subset;
};

/// Renders the circuit as a DOT digraph named after it: a header comment
/// carrying the node and edge counts (machine-checkable by CI), exactly one
/// node line per rendered gate (label = name plus gate type, inputs as
/// boxes, primary outputs double-circled) and one line per fanout
/// connection.
std::string to_dot(const Circuit& circuit, const DotOptions& options = {});

/// Writes to_dot(...) to `path`; throws contract_error on I/O failure.
void write_dot_file(const std::string& path, const Circuit& circuit,
                    const DotOptions& options = {});

}  // namespace ndet
