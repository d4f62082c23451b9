// session_test.cpp -- the AnalysisSession facade: bit-identity with the
// direct stage calls at every thread count, memoization (same object back,
// no recompute, no collisions between distinct requests), batch serving,
// and the JSON exports behind --json=.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/reports.hpp"
#include "core/session.hpp"
#include "core/worst_case.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/library.hpp"
#include "test_util.hpp"
#include "util/json.hpp"

namespace ndet {
namespace {

Procedure1Request small_request() {
  Procedure1Request request;
  request.nmax = 3;
  request.num_sets = 12;
  request.seed = 2005;
  request.keep_test_sets = true;
  return request;
}

/// The full bit-identity contract between a session's average-case result
/// and a direct run_procedure1 call with the same parameters.
void expect_identical_average(const AverageCaseResult& a,
                              const AverageCaseResult& b) {
  EXPECT_EQ(a.monitored, b.monitored);
  EXPECT_EQ(a.detect_count, b.detect_count);
  EXPECT_EQ(a.set_sizes, b.set_sizes);
  EXPECT_EQ(a.test_sets, b.test_sets);
  EXPECT_EQ(a.stats.tests_added, b.stats.tests_added);
  EXPECT_EQ(a.stats.def1_fallbacks, b.stats.def1_fallbacks);
  EXPECT_EQ(a.stats.distinct_queries, b.stats.distinct_queries);
}

TEST(AnalysisSession, BitIdenticalToDirectCallsAcrossThreadCounts) {
  // The reference pipeline, chained by hand the way the session does
  // internally (this test and session.cpp are the sanctioned call sites).
  for (const char* name : {"bbtas", "dk27"}) {
    SCOPED_TRACE(name);
    const Circuit circuit = fsm_benchmark_circuit(name);
    const ThreadPool serial(1);
    const DetectionDb db = DetectionDb::build(circuit, {}, serial);
    const WorstCaseResult worst = analyze_worst_case(db, serial);

    Procedure1Request request = small_request();
    std::vector<std::size_t> all(db.untargeted().size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    request.monitored = all;
    const AverageCaseResult avg = run_procedure1(db, all, request, serial);

    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      AnalysisSession session(circuit, {.num_threads = threads});
      EXPECT_EQ(session.worst_case().nmin, worst.nmin);
      EXPECT_EQ(session.db().set_memory_bytes(), db.set_memory_bytes());
      expect_identical_average(session.average_case(request), avg);
    }
  }
}

TEST(AnalysisSession, ResolvesCircuitNamesLikeTheClis) {
  AnalysisSession by_name("bbtas");
  AnalysisSession by_circuit(fsm_benchmark_circuit("bbtas"));
  EXPECT_EQ(by_name.worst_case().nmin, by_circuit.worst_case().nmin);
}

TEST(AnalysisSession, MemoizedStagesReturnTheSameObject) {
  AnalysisSession session(paper_example());
  const DetectionDb* db = &session.db();
  const WorstCaseResult* worst = &session.worst_case();
  const auto monitored = session.monitored(2);
  const Procedure1Request request = small_request();
  const AverageCaseResult* avg = &session.average_case(request);

  // Repeats are served from the memo: identical addresses, hit counters up.
  EXPECT_EQ(&session.db(), db);
  EXPECT_EQ(&session.worst_case(), worst);
  EXPECT_EQ(session.monitored(2).data(), monitored.data());
  EXPECT_EQ(&session.average_case(request), avg);

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.db_hits, 1u);
  EXPECT_EQ(stats.worst_case_hits, 1u);
  EXPECT_EQ(stats.monitored_hits, 1u);
  EXPECT_EQ(stats.average_case_hits, 1u);
  EXPECT_EQ(stats.average_case_entries, 1u);
  EXPECT_GT(stats.set_memory_bytes, 0u);
}

TEST(AnalysisSession, DistinctRequestsDoNotCollide) {
  AnalysisSession session(paper_example());
  const Procedure1Request base = small_request();

  Procedure1Request other_seed = base;
  other_seed.seed = 7;
  Procedure1Request other_k = base;
  other_k.num_sets = 5;
  Procedure1Request other_def = base;
  other_def.definition = DetectionDefinition::kDissimilar;

  const AverageCaseResult* a = &session.average_case(base);
  const AverageCaseResult* b = &session.average_case(other_seed);
  const AverageCaseResult* c = &session.average_case(other_k);
  const AverageCaseResult* d = &session.average_case(other_def);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(a->test_sets, b->test_sets);
  EXPECT_EQ(c->config.num_sets, 5u);

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.average_case_entries, 4u);
  EXPECT_EQ(stats.average_case_hits, 0u);
  // The distinct requests all reused the one frozen database.
  EXPECT_EQ(stats.db_hits + stats.worst_case_hits, 0u);
  EXPECT_GT(stats.average_case_seconds, 0.0);
}

TEST(AnalysisSession, MonitoredMatchesWorstCaseTail) {
  AnalysisSession session(paper_example());
  const auto monitored = session.monitored(2);
  const auto direct = session.worst_case().indices_at_least(3);
  EXPECT_EQ(std::vector<std::size_t>(monitored.begin(), monitored.end()),
            direct);
  // A derived request uses exactly that tail.
  Procedure1Request request = small_request();
  request.nmax = 2;
  EXPECT_EQ(session.average_case(request).monitored, direct);
}

TEST(AnalysisSession, PartitionedMatchesDirectCall) {
  const Circuit circuit = ripple_adder(3);
  AnalysisSession session(circuit, {.num_threads = 2});
  const PartitionOptions budget{.max_inputs = 7};
  const auto& reports = session.partitioned(budget);
  const auto direct = partitioned_worst_case(circuit, budget, ThreadPool(1));
  ASSERT_EQ(reports.size(), direct.size());
  for (std::size_t c = 0; c < reports.size(); ++c) {
    EXPECT_EQ(reports[c].cone_name, direct[c].cone_name);
    EXPECT_EQ(reports[c].untargeted_faults, direct[c].untargeted_faults);
    EXPECT_EQ(reports[c].max_finite_nmin, direct[c].max_finite_nmin);
  }
  EXPECT_EQ(&session.partitioned(budget), &reports);
  EXPECT_EQ(session.stats().partitioned_hits, 1u);
}

TEST(RunBatch, MatchesPerCircuitSerialRuns) {
  const Procedure1Request request = small_request();
  std::vector<SessionRequest> requests;
  for (const char* name : {"bbtas", "dk27", "paper_example"})
    requests.push_back({name, {request}});

  std::vector<AnalysisSession> batch = run_batch(requests, {.num_threads = 8});
  ASSERT_EQ(batch.size(), requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(requests[i].circuit);
    AnalysisSession serial(requests[i].circuit, {.num_threads = 1});
    EXPECT_EQ(batch[i].worst_case().nmin, serial.worst_case().nmin);
    const auto tail = serial.monitored(request.nmax);
    if (tail.empty()) {
      // The batch skips derived requests with nothing to estimate.
      EXPECT_EQ(batch[i].stats().average_case_entries, 0u);
    } else {
      expect_identical_average(batch[i].average_case(request),
                               serial.average_case(request));
      // The batch already ran this request; the query above was a memo hit.
      EXPECT_EQ(batch[i].stats().average_case_hits, 1u);
    }
  }
}

TEST(RunBatch, EmptyRequestListIsFine) {
  EXPECT_TRUE(run_batch({}, {}).empty());
}

// --- Thread-count convention ------------------------------------------------

TEST(ThreadConvention, ZeroMeansAllHardwareEverywhere) {
  // SessionOptions::num_threads is the one thread knob (every stage runs on
  // a caller-owned pool); its default 0 resolves to every hardware thread.
  EXPECT_EQ(SessionOptions{}.num_threads, 0u);
  EXPECT_GE(resolve_thread_count(0), 1u);
  EXPECT_EQ(ThreadPool(0).thread_count(), resolve_thread_count(0));
}

// --- JSON exports -----------------------------------------------------------

/// Minimal structural validity check: balanced braces/brackets outside
/// strings.  (CI additionally parses the CLI outputs with python3 -m
/// json.tool.)
void expect_balanced_json(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Json, WriterProducesValidDocuments) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("a \"quoted\"\nstring\t\x01");
  w.key("pi").value(3.25);
  w.key("count").value(std::uint64_t{42});
  w.key("negative").value(-7);
  w.key("flag").value(true);
  w.key("missing").null();
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("nested").raw("{\"x\":1}");
  w.end_object();
  const std::string json = w.str();
  EXPECT_EQ(json,
            "{\"name\":\"a \\\"quoted\\\"\\nstring\\t\\u0001\",\"pi\":3.25,"
            "\"count\":42,\"negative\":-7,\"flag\":true,\"missing\":null,"
            "\"list\":[1,2],\"nested\":{\"x\":1}}");
  expect_balanced_json(json);
}

TEST(Json, WriterRejectsUnbalancedDocuments) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW((void)w.str(), contract_error);
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, ResultAndRowExportsAreBalanced) {
  AnalysisSession session(paper_example());
  const WorstCaseResult& worst = session.worst_case();
  const std::string worst_json = to_json(worst);
  expect_balanced_json(worst_json);
  EXPECT_NE(worst_json.find("\"nmin\":[3,3,3,3,1,4,4,1,1,1]"),
            std::string::npos);

  const AverageCaseResult& avg = session.average_case(small_request());
  expect_balanced_json(to_json(avg));
  expect_balanced_json(to_json(session.stats()));

  const Table2Row t2 = make_table2_row("paper_example", worst);
  const Table3Row t3 = make_table3_row("paper_example", worst);
  const ProbabilityRow t5 = make_probability_row("paper_example", avg, 3);
  expect_balanced_json(to_json(t2));
  expect_balanced_json(to_json(t3));
  expect_balanced_json(to_json(t5));
  expect_balanced_json(to_json(std::vector<Table2Row>{t2, t2}));
  expect_balanced_json(to_json(std::vector<Table3Row>{t3}));
  expect_balanced_json(to_json(std::vector<ProbabilityRow>{t5}));
  EXPECT_NE(to_json(t2).find("\"circuit\":\"paper_example\""),
            std::string::npos);
}

TEST(Json, NeverGuaranteedSerializesAsNull) {
  WorstCaseResult worst;
  worst.nmin = {1, kNeverGuaranteed, 3};
  const std::string json = to_json(worst);
  EXPECT_NE(json.find("\"nmin\":[1,null,3]"), std::string::npos);
  EXPECT_NE(json.find("\"never_guaranteed\":1"), std::string::npos);
}

TEST(Json, WriteJsonFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/ndet_session_test.json";
  write_json_file(path, "{\"a\":1}");
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "{\"a\":1}\n");
  EXPECT_THROW(write_json_file("/nonexistent-dir/x.json", "{}"),
               contract_error);
}

}  // namespace
}  // namespace ndet
