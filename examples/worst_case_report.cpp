// worst_case_report.cpp -- the paper's Section-2 analysis as a CLI tool.
//
//   worst_case_report [circuit] [--nmax=10] [--detail=5] [--threads=0]
//                     [--deadline-ms=0] [--json=<path>] [--dot=<path>]
//
// `circuit` is an FSM benchmark name (e.g. bbara), an embedded combinational
// circuit (e.g. c17), or a path to a .bench file.  The report covers
// everything a test engineer would ask of the worst-case analysis: circuit
// statistics, guaranteed coverage per n, the tail that needs n > nmax, and a
// drill-down of the hardest faults with their limiting target faults.
// --json= additionally writes the full result (nmin vector, summary
// counters, session telemetry) as a JSON document; --dot= writes the
// circuit in Graphviz DOT form.
//
// --deadline-ms= bounds the whole run; exit codes follow run_cli: 124 on a
// deadline/cancel, 2 on invalid input, 1 on internal errors.

#include <algorithm>
#include <cstdio>

#include "core/reports.hpp"
#include "core/session.hpp"
#include "faults/stuck_at.hpp"
#include "netlist/graph.hpp"
#include "netlist/stats.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  using namespace ndet;
  return run_cli([&] {
  const CliArgs args(argc, argv,
                     {"nmax", "detail", "threads", "deadline-ms", "json",
                      "dot"});
  const std::string name =
      args.positional().empty() ? "bbara" : args.positional()[0];
  const auto nmax = args.get_u64("nmax", 10);
  const auto detail = args.get_u64("detail", 5);

  SessionOptions options;
  options.num_threads = static_cast<unsigned>(args.get_u64("threads", 0));
  options.deadline_ms = args.get_u64("deadline-ms", 0);
  AnalysisSession session(name, options);
  std::printf("%s\n\n", to_string(compute_stats(session.circuit())).c_str());

  const DetectionDb& db = session.db();
  std::printf("targets F: %zu collapsed stuck-at faults (%zu detectable)\n",
              db.targets().size(), db.detectable_target_count());
  std::printf("untargeted G: %zu detectable four-way bridging faults "
              "(of %zu enumerated)\n",
              db.untargeted().size(), db.enumerated_untargeted());
  std::printf("%s\n\n", describe_set_memory(db).c_str());

  const WorstCaseResult& worst = session.worst_case();
  std::printf("guaranteed coverage of any n-detection test set:\n");
  for (std::uint64_t n = 1; n <= nmax; ++n)
    std::printf("  n = %2llu: %7.2f%%\n", static_cast<unsigned long long>(n),
                100.0 * worst.fraction_at_most(n));

  const auto tail = worst.indices_at_least(nmax + 1);
  std::printf("\nfaults not guaranteed by a %llu-detection test set: %zu "
              "(%.2f%%), max finite nmin = %llu\n",
              static_cast<unsigned long long>(nmax), tail.size(),
              worst.nmin.empty()
                  ? 0.0
                  : 100.0 * static_cast<double>(tail.size()) /
                        static_cast<double>(worst.nmin.size()),
              static_cast<unsigned long long>(worst.max_finite_nmin()));

  // Drill into the hardest faults: which target fault limits them?
  std::vector<std::size_t> hardest = tail;
  std::sort(hardest.begin(), hardest.end(),
            [&](std::size_t a, std::size_t b) {
              return worst.nmin[a] > worst.nmin[b];
            });
  hardest.resize(std::min<std::size_t>(hardest.size(), detail));
  for (const std::size_t j : hardest) {
    std::printf("\n  %s  (nmin = %llu, |T(g)| = %zu)\n",
                to_string(db.untargeted()[j], session.circuit()).c_str(),
                static_cast<unsigned long long>(worst.nmin[j]),
                db.untargeted_sets()[j].count());
    auto entries = overlap_entries(db, j, session.pool());
    std::sort(entries.begin(), entries.end(),
              [](const OverlapEntry& a, const OverlapEntry& b) {
                return a.nmin_gf < b.nmin_gf;
              });
    for (std::size_t e = 0; e < std::min<std::size_t>(3, entries.size()); ++e)
      std::printf("    limited by %-14s N=%-5zu M=%-4zu nmin(g,f)=%llu\n",
                  to_string(db.targets()[entries[e].target_index], db.lines())
                      .c_str(),
                  entries[e].n_f, entries[e].m_gf,
                  static_cast<unsigned long long>(entries[e].nmin_gf));
  }

  if (args.has("json")) {
    const std::string path = args.get("json", "");
    write_json_file(path, session_report_json(session));
    std::printf("\nwrote %s\n", path.c_str());
  }
  if (args.has("dot")) {
    const std::string path = args.get("dot", "");
    write_dot_file(path, session.circuit());
    std::printf("\nwrote %s\n", path.c_str());
  }
  return 0;
  });
}
