// trace.cpp -- the traced run: replays a workload's schedule in-process and
// wraps every call into a layer's public functions in a span (request ->
// stage -> sub-phase).  A span's self time is its duration minus the time
// its children cover.  Spans are kept per request and folded into per-phase
// totals after the request ends, so no span is written while another runs.
//
// The daemon's internals carry no spans, so each request is replayed through
// the same public calls the daemon makes:
//   * a cold worst_case request (a cache miss) runs parse_request,
//     resolve_circuit, DetectionDb::build, analyze_worst_case on that
//     database, to_json and ok_response.  Beside the build it runs a mirror
//     of the build's body, call by call, with a span around each sub-phase
//     (exhaustive good simulation, stuck-at simulation, bridging
//     enumeration, bridging simulation, freeze); the two alternate in order
//     from request to request, and the mirror's sets must equal the build's;
//   * a served request (average-case runs, memo hits) runs parse_request,
//     SessionCache::acquire, the session accessor, to_json, ok_response and
//     the lease release against an in-process Server's cache.
//
// Layers a workload never reaches are measured on a fixed probe that every
// traced run also replays (perfbench/trace_metrics.py picks the source).

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "core/detection_db.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/lines.hpp"
#include "netlist/reach.hpp"
#include "serve/server.hpp"
#include "sim/batch_fault_sim.hpp"
#include "sim/exhaustive.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace ndet;

namespace {

// --- spans ------------------------------------------------------------------

/// One request's spans, in the order they opened.
class Tracer {
 public:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    int parent;
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      index_ = static_cast<int>(tracer_.spans_.size());
      tracer_.spans_.push_back({name, Clock::now(), {}, tracer_.current_});
      tracer_.current_ = index_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }
    /// Ends the span before the scope does (idempotent).
    void close() {
      if (closed_) return;
      closed_ = true;
      tracer_.spans_[index_].end = Clock::now();
      tracer_.current_ = tracer_.spans_[index_].parent;
    }
    /// Names the span after the call revealed what it was (a memo hit or the
    /// stage it ran).
    void rename(const char* name) { tracer_.spans_[index_].name = name; }

   private:
    Tracer& tracer_;
    int index_ = 0;
    bool closed_ = false;
  };

  void clear() {
    spans_.clear();
    current_ = -1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

struct SpanTotals {
  double duration_ms = 0.0;
  double self_ms = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t requests = 0;  ///< requests with at least one such span
};

/// Procedure 1 and oracle counters summed over a phase's runs.
struct Procedure1Counts {
  std::uint64_t runs = 0, tests_added = 0, def1_fallbacks = 0,
                oracle_queries = 0, good_sims = 0, verdict_hits = 0,
                verdict_misses = 0;

  void add(const AverageCaseResult& result) {
    ++runs;
    tests_added += result.stats.tests_added;
    def1_fallbacks += result.stats.def1_fallbacks;
    oracle_queries += result.stats.distinct_queries;
    good_sims += result.def2_cache.good_sim_entries;
    verdict_hits += result.def2_cache.verdict_hits;
    verdict_misses += result.def2_cache.verdict_misses;
  }
  void merge(const Procedure1Counts& other) {
    runs += other.runs;
    tests_added += other.tests_added;
    def1_fallbacks += other.def1_fallbacks;
    oracle_queries += other.oracle_queries;
    good_sims += other.good_sims;
    verdict_hits += other.verdict_hits;
    verdict_misses += other.verdict_misses;
  }
};

/// Bytes a memoized AverageCaseResult holds in its vectors.
double memo_bytes_of(const AverageCaseResult& result) {
  double bytes = static_cast<double>(result.monitored.size() * sizeof(std::size_t));
  for (const auto& row : result.detect_count)
    bytes += static_cast<double>(row.size() * sizeof(std::uint32_t));
  for (const auto& row : result.set_sizes)
    bytes += static_cast<double>(row.size() * sizeof(std::uint32_t));
  for (const auto& per_n : result.test_sets)
    for (const auto& set : per_n)
      bytes += static_cast<double>(set.size() * sizeof(std::uint32_t));
  return bytes;
}

/// A phase's folded spans and counters.
struct Phase {
  std::map<std::string, SpanTotals> spans;
  std::uint64_t requests = 0;
  double payload_bytes = 0.0;
  double wall_s = 0.0;
  Procedure1Counts procedure1;
  std::map<std::size_t, std::size_t> key_bytes;  ///< payload size per key
  std::vector<std::string> violations;

  /// Every response to one request key must carry the same payload size.
  void check_bytes(std::size_t key, std::size_t bytes) {
    const auto [it, inserted] = key_bytes.emplace(key, bytes);
    if (!inserted && it->second != bytes)
      violations.push_back("payload size of request key " + std::to_string(key) +
                           " changed between repeats");
  }

  /// Folds one finished request's spans: children must lie inside their
  /// parent and must not overlap one another.
  void fold(const Tracer& tracer) {
    const auto& spans = tracer.spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    std::vector<Clock::time_point> last_end(spans.size(), Clock::time_point::min());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& span = spans[i];
      if (span.parent < 0) continue;
      const auto p = static_cast<std::size_t>(span.parent);
      if (span.start < spans[p].start || span.end > spans[p].end ||
          span.start < last_end[p])
        violations.push_back(std::string("span ") + span.name +
                             " escapes or overlaps within " + spans[p].name);
      last_end[p] = span.end;
      child_ms[p] += std::chrono::duration<double, std::milli>(span.end - span.start).count();
    }
    std::set<std::string_view> seen;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double ms = std::chrono::duration<double, std::milli>(
                            spans[i].end - spans[i].start).count();
      SpanTotals& totals = this->spans[spans[i].name];
      totals.duration_ms += ms;
      totals.self_ms += ms - child_ms[i];
      ++totals.calls;
      if (seen.insert(spans[i].name).second) ++totals.requests;
    }
    ++requests;
  }

  void merge(const Phase& other) {
    for (const auto& [name, totals] : other.spans) {
      SpanTotals& mine = spans[name];
      mine.duration_ms += totals.duration_ms;
      mine.self_ms += totals.self_ms;
      mine.calls += totals.calls;
      mine.requests += totals.requests;
    }
    for (const auto& [key, bytes] : other.key_bytes) check_bytes(key, bytes);
    requests += other.requests;
    payload_bytes += other.payload_bytes;
    procedure1.merge(other.procedure1);
    violations.insert(violations.end(), other.violations.begin(),
                      other.violations.end());
  }
};

// --- replays ----------------------------------------------------------------

/// Runs `body(i, tracer, phase)` for every index on `clients` threads in a
/// closed loop, folding each request's spans into the returned phase.
template <typename Body>
Phase traced_replay(std::size_t count, unsigned clients, Body body) {
  std::vector<Phase> phases(clients);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Tracer tracer;
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        tracer.clear();
        body(i, tracer, phases[c]);
        phases[c].fold(tracer);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Phase merged;
  merged.wall_s = seconds_between(start, Clock::now());
  for (const Phase& phase : phases) merged.merge(phase);
  return merged;
}

double median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
  return values[values.size() / 2];
}

/// p50s of one schedule through handle_line, submit and serve_tcp.
struct PathLatency {
  double handle_line_us = 0.0, submit_us = 0.0, tcp_us = 0.0;
};

/// Sends every line through Server::handle_line, Server::submit and a
/// loopback round trip to serve_tcp in turn, one call at a time, so that the
/// three paths see the same stretch of the machine.
PathLatency path_latency(serve::Server& server, const std::vector<std::string>& lines) {
  std::promise<int> bound;
  std::thread listener([&] {
    try {
      server.serve_tcp(0, [&](int port) { bound.set_value(port); });
    } catch (...) {
      bound.set_exception(std::current_exception());
    }
  });
  std::vector<double> handle_line_us, submit_us, tcp_us;
  const auto since = [](Clock::time_point start) {
    return seconds_between(start, Clock::now()) * 1e6;
  };
  try {
    Connection connection(bound.get_future().get());
    std::string response;
    for (const std::string& line : lines) {
      const std::string tcp_line = line + '\n';
      auto start = Clock::now();
      (void)server.handle_line(line);
      handle_line_us.push_back(since(start));
      start = Clock::now();
      std::promise<std::string> reply;
      server.submit(line, [&reply](std::string&& r) { reply.set_value(std::move(r)); });
      (void)reply.get_future().get();
      submit_us.push_back(since(start));
      start = Clock::now();
      connection.round_trip(tcp_line, response);
      tcp_us.push_back(since(start));
    }
  } catch (...) {
    server.shutdown();
    listener.join();
    throw;
  }
  server.shutdown();  // the client connection is closed by now
  listener.join();
  return {median(std::move(handle_line_us)), median(std::move(submit_us)),
          median(std::move(tcp_us))};
}

// --- the replayed requests --------------------------------------------------

/// Structural counts of a workload's circuits, from DetectionDb::build at
/// pool width 1, with the build times at widths 1 and 2.
struct CircuitCounts {
  std::set<std::string> circuits;
  double enumerated = 0.0, detectable = 0.0, set_bytes = 0.0,
         dense_bytes_max = 0.0, width1_s = 0.0, width2_s = 0.0;
};

DetectionDbOptions db_options(const serve::Request& request) {
  DetectionDbOptions options;
  options.max_inputs = request.key.max_inputs;
  options.representation = request.key.representation;
  return options;
}

void add_circuit(CircuitCounts& counts, const serve::Request& request) {
  if (!counts.circuits.insert(request.circuit).second) return;
  const Circuit circuit = resolve_circuit(request.circuit);
  const ThreadPool one(1), two(2);
  auto start = Clock::now();
  const DetectionDb db = DetectionDb::build(circuit, db_options(request), one);
  counts.width1_s += seconds_between(start, Clock::now());
  start = Clock::now();
  (void)DetectionDb::build(circuit, db_options(request), two);
  counts.width2_s += seconds_between(start, Clock::now());
  counts.enumerated += static_cast<double>(db.enumerated_untargeted());
  counts.detectable += static_cast<double>(db.untargeted().size());
  counts.set_bytes += static_cast<double>(db.set_memory_bytes());
  counts.dense_bytes_max = std::max(
      counts.dense_bytes_max,
      static_cast<double>(db.enumerated_untargeted() *
                          DetectionSet::dense_memory_bytes(
                              static_cast<std::size_t>(db.vector_count()))));
}

/// The faults and sets a mirrored build produced.
struct MirroredSets {
  std::size_t enumerated = 0;
  std::vector<BridgingFault> untargeted;
  std::vector<DetectionSet> target_sets, untargeted_sets;

  bool equals(const DetectionDb& db) const {
    return enumerated == db.enumerated_untargeted() &&
           std::ranges::equal(untargeted, db.untargeted()) &&
           std::ranges::equal(target_sets, db.target_sets()) &&
           std::ranges::equal(untargeted_sets, db.untargeted_sets());
  }
};

/// DetectionDb::build's body, call by call, with a span around each of its
/// five sub-phases.
MirroredSets mirrored_build(Tracer& tracer, const Circuit& circuit,
                            const serve::Request& request, const ThreadPool& pool) {
  Tracer::Scope mirror(tracer, "core.detection_db.mirror");
  const auto copy = std::make_shared<const Circuit>(circuit);
  const LineModel lines(*copy);
  std::optional<ExhaustiveSimulator> good;
  {
    Tracer::Scope span(tracer, "sim.exhaustive.good_sim");
    good.emplace(*copy, request.key.max_inputs);
  }
  const BatchFaultSimulator simulator(*good, lines, pool);
  std::vector<Bitset> target_bits;
  {
    Tracer::Scope span(tracer, "sim.batch_fault_sim.stuck_at");
    target_bits = simulator.detection_sets(collapse_stuck_at_faults(lines));
  }
  MirroredSets sets;
  {
    Tracer::Scope span(tracer, "util.detection_set.freeze");
    sets.target_sets.reserve(target_bits.size());
    for (Bitset& bits : target_bits)
      sets.target_sets.push_back(
          DetectionSet::freeze(std::move(bits), request.key.representation));
  }
  std::vector<BridgingFault> enumerated;
  {
    Tracer::Scope span(tracer, "faults.bridging.enumerate");
    const ReachMatrix reach(*copy);
    enumerated = enumerate_four_way_bridging(*copy, reach);
  }
  sets.enumerated = enumerated.size();
  std::vector<Bitset> bridge_bits;
  {
    Tracer::Scope span(tracer, "sim.batch_fault_sim.bridging");
    bridge_bits = simulator.detection_sets(enumerated);
  }
  {
    Tracer::Scope span(tracer, "util.detection_set.freeze");
    for (std::size_t i = 0; i < enumerated.size(); ++i) {
      if (bridge_bits[i].none()) continue;
      sets.untargeted.push_back(enumerated[i]);
      sets.untargeted_sets.push_back(DetectionSet::freeze(
          std::move(bridge_bits[i]), request.key.representation));
    }
  }
  return sets;
}

/// A worst_case request that misses the session cache, at pool width 1 (the
/// daemon's per-session width in every workload).  The build and its mirror
/// run in the order `mirror_first` gives; callers alternate it between the
/// repeats of each circuit, so that neither always runs on the other's warm
/// caches.
void cold_request(Tracer& tracer, const std::string& line, bool mirror_first,
                  Phase& phase) {
  const ThreadPool pool(1);
  Tracer::Scope request_span(tracer, "request");
  serve::Request request;
  {
    Tracer::Scope span(tracer, "serve.protocol.parse");
    request = serve::parse_request(line);
  }
  std::optional<Circuit> circuit;
  {
    Tracer::Scope span(tracer, "fsm.resolve_circuit");
    circuit.emplace(resolve_circuit(request.circuit));
  }
  std::optional<MirroredSets> mirror;
  if (mirror_first) mirror = mirrored_build(tracer, *circuit, request, pool);
  std::optional<DetectionDb> db;
  {
    Tracer::Scope span(tracer, "core.detection_db.build");
    db.emplace(DetectionDb::build(*circuit, db_options(request), pool));
  }
  if (!mirror_first) mirror = mirrored_build(tracer, *circuit, request, pool);
  if (!mirror->equals(*db))
    phase.violations.push_back("mirrored build of " + request.circuit +
                               " differs from DetectionDb::build");
  std::optional<WorstCaseResult> result;
  {
    Tracer::Scope span(tracer, "core.worst_case.sweep");
    result.emplace(analyze_worst_case(*db, pool));
  }
  std::string payload;
  {
    Tracer::Scope span(tracer, "util.json.worst_case");
    payload = to_json(*result);
  }
  SessionStats stats;
  stats.thread_count = 1;
  stats.simd_level = simd::level_name(simd::active_level());
  stats.set_memory_bytes = db->set_memory_bytes();
  stats.dense_memory_bytes = db->dense_memory_bytes();
  {
    Tracer::Scope span(tracer, "serve.protocol.envelope");
    (void)serve::ok_response(request, payload, stats, false, 0.0);
  }
  phase.payload_bytes += static_cast<double>(payload.size());
}

std::size_t memo_hits(const SessionStats& stats) {
  return stats.worst_case_hits + stats.average_case_hits + stats.partitioned_hits;
}

/// A request served from the session cache, as Server::run_request serves
/// it.  The stage span is named after what the call turned out to be: a
/// memo hit, or the stage it ran.  Returns the result payload.
std::string served_request(Tracer& tracer, serve::SessionCache& cache,
                           const std::string& line, Phase& phase) {
  Tracer::Scope request_span(tracer, "request");
  serve::Request request;
  {
    Tracer::Scope span(tracer, "serve.protocol.parse");
    request = serve::parse_request(line);
  }
  std::optional<serve::SessionCache::Lease> lease;
  {
    Tracer::Scope span(tracer, "serve.session_cache.acquire");
    lease.emplace(cache.acquire(request.key, request.priority));
  }
  AnalysisSession& session = lease->session();
  const std::size_t hits_before = memo_hits(session.stats());
  const WorstCaseResult* worst = nullptr;
  const AverageCaseResult* average = nullptr;
  const std::vector<ConeReport>* cones = nullptr;
  // The stage and serializer spans of a memo miss name the stage that ran.
  const char* miss_stage = "core.session.worst_case";
  const char* miss_json = "util.json.worst_case";
  Tracer::Scope stage(tracer, "core.session.memo_lookup");
  switch (request.type) {
    case serve::RequestType::kWorstCase:
      worst = &session.worst_case();
      break;
    case serve::RequestType::kAverageCase:
      average = &session.average_case(request.average);
      miss_stage = request.average.definition == DetectionDefinition::kDissimilar
                       ? "core.procedure1.def2"
                       : "core.procedure1.def1";
      miss_json = "util.json.average_case";
      break;
    case serve::RequestType::kPartition:
      cones = &session.partitioned(request.partition);
      miss_stage = "core.session.partition";
      miss_json = "util.json.partition";
      break;
    default:
      throw Error(ErrorKind::kInvalidInput, "perfbench: not an analysis request");
  }
  stage.close();
  const bool hit = memo_hits(session.stats()) > hits_before;
  if (!hit) stage.rename(miss_stage);
  std::string payload;
  {
    Tracer::Scope span(tracer, hit ? "util.json.serialize" : miss_json);
    if (worst != nullptr) {
      payload = to_json(*worst);
    } else if (average != nullptr) {
      payload = to_json(*average);
    } else {
      JsonWriter w;
      w.begin_array();
      for (const ConeReport& report : *cones) w.raw(to_json(report));
      w.end_array();
      payload = w.str();
    }
  }
  cache.update(*lease);
  const SessionStats stats = session.stats();
  {
    Tracer::Scope span(tracer, "serve.protocol.envelope");
    (void)serve::ok_response(request, payload, stats, lease->hit(), 0.0);
  }
  {
    Tracer::Scope span(tracer, "serve.session_cache.release");
    lease.reset();
  }
  phase.payload_bytes += static_cast<double>(payload.size());
  if (!hit && average != nullptr) phase.procedure1.add(*average);
  return payload;
}

void require_ok(const std::string& response) {
  require(response.find("\"ok\":true") != std::string::npos,
          "perfbench: a set-up request failed: " + response.substr(0, 300));
}

serve::ServerOptions server_options(std::size_t cache_bytes) {
  serve::ServerOptions options;
  options.threads = 2;  // the daemon shape of every workload
  options.concurrency = 2;
  options.cache_bytes = cache_bytes;
  return options;
}

/// Memoized Procedure 1 result bytes over the given average_case lines.
double memo_bytes(serve::SessionCache& cache, const std::vector<std::string>& lines) {
  double bytes = 0.0;
  for (const std::string& line : lines) {
    const serve::Request request = serve::parse_request(line);
    if (request.type != serve::RequestType::kAverageCase) continue;
    const auto lease = cache.acquire(request.key);
    bytes += memo_bytes_of(lease.session().average_case(request.average));
  }
  return bytes;
}

// The probe: one fixed small schedule on bbara that reaches every layer.
const char* const kProbeWorst = R"({"id":1,"type":"worst_case","circuit":"bbara"})";
const char* const kProbeDef1 =
    R"({"id":2,"type":"average_case","circuit":"bbara","nmax":10,"num_sets":1000,"seed":20050307})";
const char* const kProbeDef2 =
    R"({"id":3,"type":"average_case","circuit":"bbara","nmax":2,"num_sets":48,"seed":20050307,"definition":"dissimilar"})";
constexpr std::size_t kProbeColdRequests = 32;
constexpr std::size_t kProbeHits = 2000;

struct Probe {
  Phase runs;  ///< cold requests and one run of each definition
  Phase hits;  ///< memo hits of the worst_case request (one cost band)
  PathLatency paths;
  double memo_bytes = 0.0;
};

Probe run_probe() {
  Probe probe;
  Tracer tracer;
  for (std::size_t i = 0; i < kProbeColdRequests; ++i) {
    tracer.clear();
    cold_request(tracer, kProbeWorst, i % 2 == 1, probe.runs);
    probe.runs.fold(tracer);
  }

  serve::Server server(server_options(0));
  require_ok(server.handle_line(kProbeWorst));
  const std::vector<std::string> runs = {kProbeDef1, kProbeDef2};
  for (const std::string& line : runs) {
    tracer.clear();
    served_request(tracer, server.cache(), line, probe.runs);
    probe.runs.fold(tracer);
  }
  const std::vector<std::string> hits(kProbeHits, kProbeWorst);
  probe.hits = traced_replay(hits.size(), 1, [&](std::size_t i, Tracer& t, Phase& phase) {
    phase.check_bytes(0, served_request(t, server.cache(), hits[i], phase).size());
  });
  probe.memo_bytes = memo_bytes(server.cache(), runs);
  probe.paths = path_latency(server, hits);
  return probe;
}

/// Re-runs the first timed request of each definition on a fresh session
/// and requires the served run's counters and payload to repeat exactly.
void check_procedure1_repeats(serve::SessionCache& cache,
                              const std::vector<ScheduledRequest>& timed,
                              std::vector<std::string>& violations) {
  std::set<DetectionDefinition> checked;
  for (const ScheduledRequest& scheduled : timed) {
    const serve::Request request = serve::parse_request(scheduled.line);
    if (request.type != serve::RequestType::kAverageCase ||
        !checked.insert(request.average.definition).second)
      continue;
    const auto lease = cache.acquire(request.key);
    const AverageCaseResult& served = lease.session().average_case(request.average);
    AnalysisSession fresh(request.circuit, session_options_for(request, 1));
    const AverageCaseResult& again = fresh.average_case(request.average);
    if (served.stats.tests_added != again.stats.tests_added ||
        served.stats.def1_fallbacks != again.stats.def1_fallbacks ||
        served.stats.distinct_queries != again.stats.distinct_queries ||
        served.def2_cache.good_sim_entries != again.def2_cache.good_sim_entries ||
        to_json(served) != to_json(again))
      violations.push_back("Procedure 1 on " + request.circuit +
                           " did not repeat its counters");
  }
}

void write_phase(JsonWriter& w, const Phase& phase) {
  w.begin_object();
  w.key("requests").value(phase.requests);
  w.key("wall_s").value(phase.wall_s);
  w.key("payload_bytes").value(phase.payload_bytes);
  w.key("spans").begin_object();
  for (const auto& [name, totals] : phase.spans) {
    w.key(name).begin_object();
    w.key("duration_ms").value(totals.duration_ms);
    w.key("self_ms").value(totals.self_ms);
    w.key("calls").value(totals.calls);
    w.key("requests").value(totals.requests);
    w.end_object();
  }
  w.end_object();
  const Procedure1Counts& p = phase.procedure1;
  w.key("procedure1").begin_object();
  w.key("runs").value(p.runs);
  w.key("tests_added").value(p.tests_added);
  w.key("def1_fallbacks").value(p.def1_fallbacks);
  w.key("oracle_queries").value(p.oracle_queries);
  w.key("good_sims").value(p.good_sims);
  w.key("verdict_hits").value(p.verdict_hits);
  w.key("verdict_misses").value(p.verdict_misses);
  w.end_object();
  w.end_object();
}

}  // namespace

int run_trace(const CliArgs& args) {
  const Schedule schedule = load_schedule(args.get("schedule", ""));
  const std::string workload = args.get("workload", "");
  const unsigned clients =
      static_cast<unsigned>(std::max<std::uint64_t>(1, args.get_u64("connections", 1)));
  std::vector<std::string> timed_lines;
  for (const ScheduledRequest& request : schedule.timed) timed_lines.push_back(request.line);

  CircuitCounts counts;
  for (const std::string& line : schedule.distinct)
    add_circuit(counts, serve::parse_request(line));

  Phase timed;
  std::optional<double> workload_memo_bytes;
  std::vector<std::string> violations;
  if (workload == "cold") {
    std::vector<bool> mirror_first;
    std::map<std::size_t, bool> flip;
    for (const ScheduledRequest& request : schedule.timed)
      mirror_first.push_back(flip[request.key] = !flip[request.key]);
    timed = traced_replay(timed_lines.size(), clients,
                          [&](std::size_t i, Tracer& tracer, Phase& phase) {
                            cold_request(tracer, timed_lines[i], mirror_first[i], phase);
                          });
  } else {
    serve::Server server(server_options(
        static_cast<std::size_t>(args.get_u64("cache-bytes", 0))));
    for (const ScheduledRequest& request : schedule.setup)
      require_ok(server.handle_line(request.line));
    timed = traced_replay(timed_lines.size(), clients,
                          [&](std::size_t i, Tracer& tracer, Phase& phase) {
                            const std::string payload = served_request(
                                tracer, server.cache(), timed_lines[i], phase);
                            phase.check_bytes(schedule.timed[i].key, payload.size());
                          });
    workload_memo_bytes = memo_bytes(server.cache(), schedule.distinct);
    check_procedure1_repeats(server.cache(), schedule.timed, violations);
  }
  const Probe probe = run_probe();
  const Phase* phases[] = {&timed, &probe.runs, &probe.hits};

  JsonWriter w;
  w.begin_object();
  w.key("workload").value(workload);
  w.key("timed");
  write_phase(w, timed);
  w.key("probe_runs");
  write_phase(w, probe.runs);
  w.key("probe_hits");
  write_phase(w, probe.hits);
  w.key("probe_paths").begin_object();
  w.key("handle_line_us").value(probe.paths.handle_line_us);
  w.key("submit_us").value(probe.paths.submit_us);
  w.key("tcp_us").value(probe.paths.tcp_us);
  w.end_object();
  w.key("memo_bytes");
  if (workload_memo_bytes) {
    w.value(*workload_memo_bytes);
  } else {
    w.null();
  }
  w.key("probe_memo_bytes").value(probe.memo_bytes);
  w.key("circuits").begin_object();
  w.key("enumerated").value(counts.enumerated);
  w.key("detectable").value(counts.detectable);
  w.key("set_bytes").value(counts.set_bytes);
  w.key("dense_bytes_max").value(counts.dense_bytes_max);
  w.key("build_width1_s").value(counts.width1_s);
  w.key("build_width2_s").value(counts.width2_s);
  w.end_object();
  for (const Phase* phase : phases)
    violations.insert(violations.end(), phase->violations.begin(),
                      phase->violations.end());
  w.key("violations").begin_array();
  for (const std::string& violation : violations) w.value(violation);
  w.end_array();
  w.end_object();
  write_file(args.get("out", ".") + "/trace.json", w.str());
  return 0;
}

}  // namespace perfbench
