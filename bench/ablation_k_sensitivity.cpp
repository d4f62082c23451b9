// ablation_k_sensitivity.cpp -- estimator-quality ablation (DESIGN.md): the
// paper uses K = 10000 random test sets for Table 5 and K = 1000 for Table
// 6; our bench defaults are smaller.  This bench measures how the p(10,g)
// estimates converge with K by comparing independent runs at each K against
// a large-K reference, reporting the maximum absolute deviation over the
// monitored faults.
//
// Every run is a distinct Procedure1Request against ONE session, so the
// frozen database and nmin vector are computed once and only Procedure 1
// repeats -- the memoized-pipeline sweep the session facade exists for.
//
// Expected outcome: deviations fall like 1/sqrt(K); K around 500-1000 is
// already well inside the 0.1-wide probability bins the tables use.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ndet;
  const CliArgs args(argc, argv, {"circuit", "kmax", "nmax", "threads"});
  const std::string name = args.get("circuit", "cse");
  const std::size_t kmax = args.get_u64("kmax", 2000);
  const int nmax = static_cast<int>(args.get_u64("nmax", 10));
  SessionOptions options;
  options.num_threads = static_cast<unsigned>(args.get_u64("threads", 0));
  bench::banner("Ablation: convergence of p(n,g) estimates with K",
                "not in the paper; justifies the harness defaults",
                "--circuit --kmax --nmax --threads (0 = all)");

  AnalysisSession session = bench::analyze_circuit(name, options);
  std::vector<std::size_t> monitored(session.monitored(nmax).begin(),
                                     session.monitored(nmax).end());
  if (monitored.empty()) {
    // Fall back to the hardest faults available so the bench always runs.
    monitored = session.worst_case().indices_at_least(
        std::max<std::uint64_t>(2, session.worst_case().max_finite_nmin()));
    std::printf("(no faults with nmin > %d in %s; monitoring the %zu faults "
                "with the largest nmin instead)\n\n",
                nmax, name.c_str(), monitored.size());
  }

  const auto run =
      [&](std::size_t k, std::uint64_t seed) -> const AverageCaseResult& {
    Procedure1Request request;
    request.nmax = nmax;
    request.num_sets = k;
    request.seed = seed;
    request.monitored = monitored;
    return session.average_case(request);
  };

  std::fprintf(stderr, "[ndet] reference run K=%zu ...\n", kmax);
  const AverageCaseResult& reference = run(kmax, 777);

  TextTable table({"K", "max |dp|", "mean |dp|"});
  for (std::size_t k = 25; k <= kmax / 2; k *= 2) {
    const AverageCaseResult& sample = run(k, 1234 + k);
    double max_dev = 0.0, sum_dev = 0.0;
    for (std::size_t j = 0; j < monitored.size(); ++j) {
      const double dev =
          std::abs(sample.probability(nmax, j) - reference.probability(nmax, j));
      max_dev = std::max(max_dev, dev);
      sum_dev += dev;
    }
    table.add_row({std::to_string(k), format_fixed(max_dev, 4),
                   format_fixed(sum_dev / std::max<std::size_t>(
                                              1, monitored.size()),
                                4)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\ncircuit %s, %zu monitored faults, reference K = %zu.\n",
              name.c_str(), monitored.size(), kmax);
  return 0;
}
