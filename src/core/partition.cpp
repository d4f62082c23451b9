#include "core/partition.hpp"

#include <algorithm>
#include <set>

#include "netlist/graph.hpp"
#include "util/bitset.hpp"
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

/// One grouping-in-progress: the outputs (in declaration order), their
/// merged cone as a gate-id bitset, and the merged input support.
struct OutputGroup {
  std::vector<GateId> outputs;
  Bitset cone;
  std::set<GateId> support;
};

OutputGroup singleton_group(const Circuit& circuit, ConeQuery& query,
                            std::size_t max_inputs, GateId output) {
  OutputGroup group;
  group.outputs.push_back(output);
  group.cone = Bitset(circuit.gate_count());
  const std::span<const GateId> cone = query.fanin(output);
  for (const GateId g : cone) group.cone.set(g);
  const std::vector<GateId> support = support_of(circuit, cone);
  require(support.size() <= max_inputs,
          "partition_by_outputs: output '" + circuit.gate(output).name +
              "' alone depends on " + std::to_string(support.size()) +
              " inputs, above the budget of " + std::to_string(max_inputs));
  group.support.insert(support.begin(), support.end());
  return group;
}

/// Budget mode: greedy declaration-order grouping under the input budget.
std::vector<OutputGroup> group_by_budget(const Circuit& circuit,
                                         ConeQuery& query,
                                         const PartitionOptions& options) {
  std::vector<OutputGroup> groups;
  for (const GateId po : circuit.outputs()) {
    OutputGroup next = singleton_group(circuit, query, options.max_inputs, po);
    if (!groups.empty()) {
      OutputGroup& open = groups.back();
      std::set<GateId> merged = open.support;
      merged.insert(next.support.begin(), next.support.end());
      if (merged.size() <= options.max_inputs) {
        open.outputs.push_back(po);
        open.cone |= next.cone;
        open.support = std::move(merged);
        continue;
      }
    }
    groups.push_back(std::move(next));
  }
  return groups;
}

/// Folds `from` into `into`, keeping the merged outputs in declaration
/// order (= ascending position in circuit.outputs(), which singleton
/// construction preserved).
void merge_groups(const Circuit& circuit, OutputGroup& into,
                  const OutputGroup& from) {
  into.outputs.insert(into.outputs.end(), from.outputs.begin(),
                      from.outputs.end());
  std::sort(into.outputs.begin(), into.outputs.end(),
            [&](GateId a, GateId b) {
              const auto& order = circuit.outputs();
              return std::find(order.begin(), order.end(), a) <
                     std::find(order.begin(), order.end(), b);
            });
  into.cone |= from.cone;
  into.support.insert(from.support.begin(), from.support.end());
}

/// Structure mode: greedy merge on the shared-gate ratio of the groups'
/// fanin cones.  Each step merges the admissible pair (fits the input
/// budget, ratio >= min_overlap) with the LARGEST ratio, ties broken by
/// smallest group indices, so the grouping is deterministic.
std::vector<OutputGroup> group_by_structure(const Circuit& circuit,
                                            ConeQuery& query,
                                            const PartitionOptions& options) {
  std::vector<OutputGroup> groups;
  for (const GateId po : circuit.outputs())
    groups.push_back(singleton_group(circuit, query, options.max_inputs, po));

  while (groups.size() > 1) {
    double best_ratio = 0.0;
    std::size_t best_i = groups.size();
    std::size_t best_j = groups.size();
    for (std::size_t i = 0; i < groups.size(); ++i) {
      for (std::size_t j = i + 1; j < groups.size(); ++j) {
        const std::size_t shared =
            groups[i].cone.intersect_count(groups[j].cone);
        if (shared == 0) continue;
        const double ratio =
            static_cast<double>(shared) /
            static_cast<double>(
                std::min(groups[i].cone.count(), groups[j].cone.count()));
        if (ratio < options.min_overlap || ratio <= best_ratio) continue;
        std::set<GateId> merged = groups[i].support;
        merged.insert(groups[j].support.begin(), groups[j].support.end());
        if (merged.size() > options.max_inputs) continue;
        best_ratio = ratio;
        best_i = i;
        best_j = j;
      }
    }
    if (best_i == groups.size()) break;
    merge_groups(circuit, groups[best_i], groups[best_j]);
    groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(best_j));
  }

  // An output driven only by constants has an inputless cone, which shares
  // no gate with anything and cannot stand alone as a circuit.  Give it
  // the home budget mode gives it -- its declaration-order neighbor (the
  // merge never changes any support, so budgets stay satisfied).
  for (std::size_t i = 0; i < groups.size();) {
    if (groups.size() == 1 || !groups[i].support.empty()) {
      ++i;
      continue;
    }
    merge_groups(circuit, groups[i == 0 ? 1 : i - 1], groups[i]);
    groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(i));
    // No increment: the next group slid into slot i and is examined next.
  }
  return groups;
}

std::vector<OutputGroup> group_outputs(const Circuit& circuit,
                                       ConeQuery& query,
                                       const PartitionOptions& options) {
  require(options.max_inputs >= 1,
          "partition_by_outputs: max_inputs must be >= 1");
  return options.by_structure ? group_by_structure(circuit, query, options)
                              : group_by_budget(circuit, query, options);
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
  for (const OutputGroup& group : group_outputs(circuit, query, options))
    cones.push_back(extract_cone_impl(circuit, query, group.outputs));
  return cones;
}

std::vector<Circuit> partition_by_outputs(const Circuit& circuit,
                                          std::size_t max_inputs) {
  return partition_by_outputs(circuit,
                              PartitionOptions{.max_inputs = max_inputs});
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
