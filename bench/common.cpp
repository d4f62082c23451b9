#include "common.hpp"

#include <cstdio>

#include "fsm/benchmarks.hpp"

namespace ndet::bench {

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const auto& info : fsm_benchmark_suite()) names.push_back(info.name);
  return names;
}

AnalysisSession analyze_circuit(const std::string& name,
                                SessionOptions options) {
  std::fprintf(stderr, "[ndet] analyzing %s ...\n", name.c_str());
  AnalysisSession session(name, options);
  session.worst_case();
  return session;
}

std::vector<AnalysisSession> batch_sessions(
    const std::vector<std::string>& names,
    std::vector<Procedure1Request> average, SessionOptions options) {
  std::vector<SessionRequest> requests;
  requests.reserve(names.size());
  for (const std::string& name : names) {
    std::fprintf(stderr, "[ndet] queueing %s ...\n", name.c_str());
    requests.push_back({name, average});
  }
  return run_batch(requests, options);
}

void banner(const std::string& title, const std::string& paper_reference,
            const std::string& knobs) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("paper: %s\n", paper_reference.c_str());
  if (!knobs.empty()) std::printf("knobs: %s\n", knobs.c_str());
  std::printf("\n");
}

}  // namespace ndet::bench
