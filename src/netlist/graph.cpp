#include "netlist/graph.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "util/check.hpp"

namespace ndet {

ConeQuery::ConeQuery(const Circuit& circuit)
    : circuit_(&circuit), seen_(circuit.gate_count(), 0) {}

std::span<const GateId> ConeQuery::collect(std::span<const GateId> roots,
                                           std::vector<GateId> Gate::*edges) {
  if (++epoch_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0u);
    epoch_ = 1;
  }
  const std::uint32_t mark = epoch_;
  cone_.clear();
  stack_.clear();
  for (const GateId root : roots) {
    require(root < seen_.size(), "ConeQuery: root out of range");
    if (seen_[root] != mark) {
      seen_[root] = mark;
      stack_.push_back(root);
    }
  }
  while (!stack_.empty()) {
    const GateId node = stack_.back();
    stack_.pop_back();
    cone_.push_back(node);
    for (const GateId next : circuit_->gate(node).*edges) {
      if (seen_[next] != mark) {
        seen_[next] = mark;
        stack_.push_back(next);
      }
    }
  }
  // Ascending id order is topological order; every consumer (resimulation
  // sweeps, cone extraction) relies on it.
  std::sort(cone_.begin(), cone_.end());
  return {cone_.data(), cone_.size()};
}

std::span<const GateId> ConeQuery::fanout(GateId root) {
  return collect({&root, 1}, &Gate::fanouts);
}

std::span<const GateId> ConeQuery::fanin(GateId root) {
  return collect({&root, 1}, &Gate::fanins);
}

std::span<const GateId> ConeQuery::fanin(std::span<const GateId> roots) {
  return collect(roots, &Gate::fanins);
}

std::vector<GateId> fanout_cone(const Circuit& circuit, GateId root) {
  ConeQuery query(circuit);
  const std::span<const GateId> cone = query.fanout(root);
  return {cone.begin(), cone.end()};
}

ConeIndex::ConeIndex(const Circuit& circuit)
    : gate_count_(circuit.gate_count()) {
  cone_offsets_.assign(gate_count_ + 1, 0);
  output_offsets_.assign(gate_count_ + 1, 0);
  ConeQuery query(circuit);
  for (GateId root = 0; root < gate_count_; ++root) {
    const std::span<const GateId> cone = query.fanout(root);
    cone_storage_.insert(cone_storage_.end(), cone.begin(), cone.end());
    cone_offsets_[root + 1] = cone_offsets_[root] +
                              static_cast<std::uint32_t>(cone.size());
    std::uint32_t outputs = 0;
    for (const GateId g : cone) {
      if (circuit.is_output(g)) {
        output_storage_.push_back(g);
        ++outputs;
      }
    }
    output_offsets_[root + 1] = output_offsets_[root] + outputs;
  }
  require(cone_storage_.size() <= std::numeric_limits<std::uint32_t>::max(),
          "ConeIndex: cumulative fanout-cone size overflows the 32-bit CSR "
          "offsets");
}

std::span<const GateId> ConeIndex::cone_gates(GateId root) const {
  require(root < gate_count_, "ConeIndex::cone_gates: gate id out of range");
  return {cone_storage_.data() + cone_offsets_[root],
          cone_storage_.data() + cone_offsets_[root + 1]};
}

std::span<const GateId> ConeIndex::cone_outputs(GateId root) const {
  require(root < gate_count_, "ConeIndex::cone_outputs: gate id out of range");
  return {output_storage_.data() + output_offsets_[root],
          output_storage_.data() + output_offsets_[root + 1]};
}

namespace {

/// DOT string literal with quotes and backslashes escaped.
std::string dot_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string to_dot(const Circuit& circuit, const DotOptions& options) {
  const std::size_t n = circuit.gate_count();

  std::vector<bool> rendered(n, options.subset.empty());
  for (const GateId g : options.subset) {
    require(g < n, "to_dot: subset gate out of range");
    rendered[g] = true;
  }

  std::size_t node_lines = 0;
  std::size_t edge_lines = 0;
  std::string nodes;
  std::string edges;
  for (GateId g = 0; g < n; ++g) {
    if (!rendered[g]) continue;
    const Gate& gate = circuit.gate(g);
    const std::string id = "n" + std::to_string(g);
    // The \n between name and type is DOT's label line break, so it is
    // appended after escaping (dot_escape would double the backslash).
    const std::string label =
        dot_escape(gate.name) + "\\n" + to_string(gate.type);
    std::string shape = "ellipse";
    if (gate.type == GateType::kInput) shape = "box";
    if (circuit.is_output(g)) shape = "doublecircle";
    nodes += "  " + id + " [shape=" + shape + ", label=\"" + label + "\"];\n";
    ++node_lines;
    for (const GateId next : gate.fanouts) {
      if (!rendered[next]) continue;
      edges += "  " + id + " -> n" + std::to_string(next) + ";\n";
      ++edge_lines;
    }
  }

  std::string out = "digraph \"" + dot_escape(circuit.name()) + "\" {\n";
  // Machine-checkable inventory line: CI validates one node line per gate
  // and one edge line per rendered edge against these counts.
  out += "  // nodes=" + std::to_string(node_lines) +
         " edges=" + std::to_string(edge_lines) + "\n";
  out += "  rankdir=LR;\n";
  out += nodes;
  out += edges;
  out += "}\n";
  return out;
}

void write_dot_file(const std::string& path, const Circuit& circuit,
                    const DotOptions& options) {
  std::ofstream out(path, std::ios::binary);
  require(out.good(), "write_dot_file: cannot open '" + path + "'");
  out << to_dot(circuit, options);
  out.flush();
  require(out.good(), "write_dot_file: write to '" + path + "' failed");
}

}  // namespace ndet
