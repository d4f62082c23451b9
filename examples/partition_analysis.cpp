// partition_analysis.cpp -- Section 4's recipe for larger designs:
// "partition a larger circuit into smaller subcircuits and apply the
// analysis to the subcircuits".
//
//   partition_analysis [circuit] [--budget=10] [--threads=0]
//                      [--by-structure] [--min-overlap=0.25]
//                      [--deadline-ms=0] [--json=<path>] [--dot=<path>]
//
// The circuit's primary outputs are grouped into cones -- greedily in
// declaration order under the exhaustive input budget by default, or by
// measured fanin-cone overlap with --by-structure -- and every cone is
// analyzed independently (cones shard across the session's worker pool).
// --json= writes the per-cone reports plus session telemetry as one JSON
// document; --dot= writes the whole circuit to <path> and each cone's
// circuit to <path-with-.coneN-inserted>.  --deadline-ms=
// bounds the whole run; exit codes follow run_cli (124 on a deadline or
// cancel, 2 on invalid input, 1 on internal errors).

#include <cstdio>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "core/session.hpp"
#include "netlist/graph.hpp"
#include "netlist/stats.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

/// "cones.dot" + index 2 -> "cones.cone2.dot"; extensionless paths append.
std::string cone_dot_path(const std::string& base, std::size_t index) {
  const std::string suffix = ".cone" + std::to_string(index);
  const auto dot = base.rfind('.');
  if (dot == std::string::npos) return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ndet;
  return run_cli([&] {
  const CliArgs args(argc, argv,
                     {"budget", "threads", "by-structure", "min-overlap",
                      "deadline-ms", "json", "dot"});
  const std::string name =
      args.positional().empty() ? "adder3" : args.positional()[0];
  // adder3's high-order sum bit depends on all 7 inputs, so the default
  // budget must admit a 7-input cone.
  PartitionOptions partition;
  partition.max_inputs = args.get_u64("budget", 7);
  partition.by_structure = args.has("by-structure");
  partition.min_overlap = args.get_double("min-overlap", 0.25);

  SessionOptions options;
  options.num_threads = static_cast<unsigned>(args.get_u64("threads", 0));
  options.deadline_ms = args.get_u64("deadline-ms", 0);
  AnalysisSession session(name, options);
  std::printf("%s\n", to_string(compute_stats(session.circuit())).c_str());
  std::printf("partitioning with an exhaustive budget of %zu inputs per "
              "cone (%s mode)...\n\n",
              partition.max_inputs,
              partition.by_structure ? "structure" : "budget");

  const auto& reports = session.partitioned(partition);
  TextTable table({"cone", "inputs", "outputs", "gates", "|G|",
                   "nmin<=10 %", "max nmin", "never"});
  for (const auto& report : reports)
    table.add_row({report.cone_name, std::to_string(report.inputs),
                   std::to_string(report.outputs),
                   std::to_string(report.gates),
                   std::to_string(report.untargeted_faults),
                   format_percent(report.fraction_nmin_at_most_10),
                   std::to_string(report.max_finite_nmin),
                   std::to_string(report.never_guaranteed)});
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\n%zu cones.  Bridging pairs spanning two cones are not represented\n"
      "-- the approximation the paper accepts for large designs; within a\n"
      "cone the analysis is exact over the cone's input space.\n",
      reports.size());

  if (args.has("json")) {
    const std::string path = args.get("json", "");
    JsonWriter w;
    w.begin_object();
    w.key("circuit").value(session.circuit().name());
    w.key("budget").value(static_cast<std::uint64_t>(partition.max_inputs));
    w.key("by_structure").value(partition.by_structure);
    w.key("min_overlap").value(partition.min_overlap);
    w.key("cones").begin_array();
    for (const auto& report : reports) w.raw(to_json(report));
    w.end_array();
    w.key("session").raw(to_json(session.stats()));
    w.end_object();
    write_json_file(path, w.str());
    std::printf("\nwrote %s\n", path.c_str());
  }

  if (args.has("dot")) {
    const std::string path = args.get("dot", "");
    write_dot_file(path, session.circuit());
    std::printf("\nwrote %s\n", path.c_str());
    const std::vector<Circuit> cones =
        partition_by_outputs(session.circuit(), partition);
    for (std::size_t c = 0; c < cones.size(); ++c) {
      const std::string cone_path = cone_dot_path(path, c);
      write_dot_file(cone_path, cones[c]);
      std::printf("wrote %s\n", cone_path.c_str());
    }
  }
  return 0;
  });
}
