// table5_average_case.cpp -- reproduces Table 5 of the paper: average-case
// probabilities of detection.  For every circuit with faults that are NOT
// guaranteed to be detected by a 10-detection test set (nmin(g) >= 11),
// Procedure 1 builds K random 10-detection test sets and the table counts
// how many of those faults have p(10,g) >= 1, 0.9, ..., 0.1, 0.
//
// Shape to compare: a sizeable group of tail faults is detected with
// probability 1 or >= 0.9 anyway, but a non-trivial remainder has low
// probability (the paper's point: raising n is not an effective fix).
//
// K defaults to 1000 (the paper used 10000); raise with --k at ~10x runtime.

#include <cstdio>
#include <sstream>

#include "common.hpp"
#include "core/escape.hpp"
#include "core/reports.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  using namespace ndet;
  const CliArgs args(argc, argv,
                     {"circuits", "k", "seed", "nmax", "threads", "json"});
  Procedure1Request request;
  request.num_sets = args.get_u64("k", 500);
  request.nmax = static_cast<int>(args.get_u64("nmax", 10));
  request.seed = args.get_u64("seed", 2005);
  bench::banner(
      "Table 5: average-case probabilities of detection (Definition 1)",
      "e.g. keyb 474 faults: 100 with p=1, 371 with p>=0.9, ..., 474 with "
      "p>=0; K=10000",
      "--k (default 500) --nmax --seed --threads (0 = all) --circuits=a,b,c "
      "--json=<path>");

  std::vector<std::string> names = args.positional();
  if (args.has("circuits")) {
    std::stringstream ss(args.get("circuits", ""));
    std::string token;
    while (std::getline(ss, token, ',')) names.push_back(token);
  }
  if (names.empty()) names = bench::suite_names();

  SessionOptions options;
  options.num_threads = static_cast<unsigned>(args.get_u64("threads", 0));
  std::vector<AnalysisSession> sessions =
      bench::batch_sessions(names, {request}, options);

  std::vector<ProbabilityRow> rows;
  double total_expected_escapes = 0.0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    AnalysisSession& session = sessions[i];
    if (session.monitored(request.nmax).empty())
      continue;  // paper convention: only tail circuits

    const AverageCaseResult& avg = session.average_case(request);
    rows.push_back(make_probability_row(names[i], avg, request.nmax));
    std::fprintf(stderr, "[ndet]   %s\n",
                 describe_set_memory(session.db()).c_str());

    const EscapeReport escape = compute_escape_report(avg, request.nmax);
    total_expected_escapes += escape.expected_escapes;
    std::fprintf(stderr,
                 "[ndet]   %s: %zu tail faults, expected escapes %.2f, "
                 "min p = %.3f\n",
                 names[i].c_str(), session.monitored(request.nmax).size(),
                 escape.expected_escapes, escape.worst_fault_probability);
  }
  std::fputs(render_table5(rows).render().c_str(), stdout);
  if (args.has("json")) write_json_file(args.get("json", ""), to_json(rows));
  std::printf(
      "\nrows: circuits with faults of nmin(g) > %d; cells: #faults with\n"
      "p(%d,g) >= threshold, blank once all faults are counted (paper\n"
      "convention).  K = %zu (paper: 10000).  Total expected escapes across\n"
      "the suite: %.2f faults.\n",
      request.nmax, request.nmax, request.num_sets, total_expected_escapes);
  return 0;
}
