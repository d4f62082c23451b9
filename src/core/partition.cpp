#include "core/partition.hpp"

#include <set>

#include "netlist/graph.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

namespace {

/// Primary-input ids among a fanin cone (the cone is ascending, and inputs
/// have the smallest ids, so the result is ascending too).
std::vector<GateId> support_of(const Circuit& circuit,
                               std::span<const GateId> cone) {
  std::vector<GateId> support;
  for (const GateId g : cone)
    if (circuit.gate(g).type == GateType::kInput) support.push_back(g);
  return support;
}

Circuit extract_cone_impl(const Circuit& circuit, ConeQuery& query,
                          const std::vector<GateId>& outputs) {
  require(!outputs.empty(), "extract_cone: no outputs given");
  const std::span<const GateId> cone = query.fanin(outputs);

  std::string name = circuit.name() + "_cone";
  for (const GateId o : outputs) name += "_" + circuit.gate(o).name;

  CircuitBuilder builder(name);
  std::vector<GateId> remap(circuit.gate_count(), kInvalidGate);
  // Inputs first (the builder requires at least one; a cone of constants
  // would be degenerate and is rejected by build()).
  for (const GateId g : cone)
    if (circuit.gate(g).type == GateType::kInput)
      remap[g] = builder.add_input(circuit.gate(g).name);
  for (const GateId g : cone) {
    const Gate& gate = circuit.gate(g);
    if (gate.type == GateType::kInput) continue;
    std::vector<GateId> fanins;
    fanins.reserve(gate.fanins.size());
    for (const GateId fi : gate.fanins) {
      require(remap[fi] != kInvalidGate, "extract_cone: fanin outside cone");
      fanins.push_back(remap[fi]);
    }
    remap[g] = builder.add_gate(gate.type, gate.name, fanins);
  }
  std::set<GateId> marked;
  for (const GateId o : outputs) {
    if (marked.insert(o).second) builder.mark_output(remap[o]);
  }
  return builder.build();
}

/// Greedy declaration-order grouping: each output joins the open group
/// while the union of their input supports fits the budget, and opens the
/// next group otherwise.
std::vector<std::vector<GateId>> group_outputs(const Circuit& circuit,
                                               ConeQuery& query,
                                               std::size_t max_inputs) {
  require(max_inputs >= 1, "partition_by_outputs: max_inputs must be >= 1");
  std::vector<std::vector<GateId>> groups;
  std::set<GateId> open_support;
  for (const GateId po : circuit.outputs()) {
    const std::vector<GateId> support = support_of(circuit, query.fanin(po));
    require(support.size() <= max_inputs,
            "partition_by_outputs: output '" + circuit.gate(po).name +
                "' alone depends on " + std::to_string(support.size()) +
                " inputs, above the budget of " + std::to_string(max_inputs));
    std::set<GateId> merged = open_support;
    merged.insert(support.begin(), support.end());
    if (!groups.empty() && merged.size() <= max_inputs) {
      groups.back().push_back(po);
      open_support = std::move(merged);
    } else {
      groups.push_back({po});
      open_support = {support.begin(), support.end()};
    }
  }
  return groups;
}

}  // namespace

std::vector<GateId> input_support(const Circuit& circuit,
                                  const std::vector<GateId>& outputs) {
  ConeQuery query(circuit);
  return support_of(circuit, query.fanin(outputs));
}

Circuit extract_cone(const Circuit& circuit,
                     const std::vector<GateId>& outputs) {
  ConeQuery query(circuit);
  return extract_cone_impl(circuit, query, outputs);
}

std::vector<Circuit> partition_by_outputs(const Circuit& circuit,
                                          const PartitionOptions& options) {
  ConeQuery query(circuit);
  std::vector<Circuit> cones;
  for (const std::vector<GateId>& outputs :
       group_outputs(circuit, query, options.max_inputs))
    cones.push_back(extract_cone_impl(circuit, query, outputs));
  return cones;
}

std::string to_json(const ConeReport& report) {
  JsonWriter w;
  w.begin_object();
  w.key("cone").value(report.cone_name);
  w.key("inputs").value(static_cast<std::uint64_t>(report.inputs));
  w.key("outputs").value(static_cast<std::uint64_t>(report.outputs));
  w.key("gates").value(static_cast<std::uint64_t>(report.gates));
  w.key("untargeted_faults")
      .value(static_cast<std::uint64_t>(report.untargeted_faults));
  w.key("fraction_nmin_at_most_10").value(report.fraction_nmin_at_most_10);
  w.key("max_finite_nmin").value(report.max_finite_nmin);
  w.key("never_guaranteed")
      .value(static_cast<std::uint64_t>(report.never_guaranteed));
  w.end_object();
  return w.str();
}

std::vector<ConeReport> partitioned_worst_case(
    const Circuit& circuit, const PartitionOptions& partition,
    const ThreadPool& pool, const CancelToken* cancel) {
  check_cancel(cancel, "partitioned");
  const std::vector<Circuit> cones = partition_by_outputs(circuit, partition);
  std::vector<ConeReport> reports(cones.size());
  // One worker per cone; the cones' nested builds and sweeps run on the
  // same pool, whose helpers join a nested call only while threads are
  // idle (util/thread_pool.hpp).  Thread counts never change results, only
  // wall time; each worker writes only its own slot.
  pool.for_each_index(cones.size(), [&](std::size_t c, unsigned) {
    const Circuit& cone = cones[c];
    const DetectionDb db =
        DetectionDb::build(cone, DetectionDbOptions{}, pool, cancel);
    const WorstCaseResult worst = analyze_worst_case(db, pool, cancel);
    ConeReport report;
    report.cone_name = cone.name();
    report.inputs = cone.input_count();
    report.outputs = cone.output_count();
    report.gates = cone.gate_count() - cone.input_count();
    report.untargeted_faults = db.untargeted().size();
    report.fraction_nmin_at_most_10 = worst.fraction_at_most(10);
    report.max_finite_nmin = worst.max_finite_nmin();
    report.never_guaranteed = worst.count_at_least(kNeverGuaranteed);
    reports[c] = std::move(report);
  }, cancel);
  check_cancel(cancel, "partitioned");
  return reports;
}

}  // namespace ndet
