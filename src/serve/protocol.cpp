#include "serve/protocol.hpp"

#include "util/check.hpp"
#include "util/json.hpp"

namespace ndet::serve {

const char* to_string(RequestType type) {
  switch (type) {
    case RequestType::kWorstCase: return "worst_case";
    case RequestType::kAverageCase: return "average_case";
    case RequestType::kPartition: return "partition";
    case RequestType::kStats: return "stats";
    case RequestType::kPing: return "ping";
    case RequestType::kHealth: return "health";
  }
  return "ping";
}

Priority parse_priority(const std::string& name) {
  if (name == "interactive") return Priority::kInteractive;
  if (name == "batch") return Priority::kBatch;
  throw Error(ErrorKind::kInvalidInput,
              "unknown priority '" + name +
                  "' (expected interactive or batch)");
}

namespace {

/// Caps on Procedure 1's served parameters.  K = 10^5 already pins p(n,g)
/// to within +-0.31 points at 95 % confidence.  Without the caps, one
/// request could exhaust the heap (K sizes allocations up front) or hold a
/// worker far past its deadline (Definition 2's probe loop polls none).
constexpr std::uint64_t kMaxNumSets = 100'000;
constexpr std::uint64_t kMaxDef2ProbeLimit = 1'024;

RequestType parse_type(const std::string& name) {
  if (name == "worst_case") return RequestType::kWorstCase;
  if (name == "average_case") return RequestType::kAverageCase;
  if (name == "partition") return RequestType::kPartition;
  if (name == "stats") return RequestType::kStats;
  if (name == "ping") return RequestType::kPing;
  if (name == "health") return RequestType::kHealth;
  throw Error(ErrorKind::kInvalidInput,
              "unknown request type '" + name +
                  "' (expected worst_case, average_case, partition, stats, "
                  "ping or health)");
}

SetRepresentation parse_representation(const std::string& name) {
  if (name == "adaptive") return SetRepresentation::kAdaptive;
  if (name == "dense") return SetRepresentation::kDense;
  if (name == "sparse") return SetRepresentation::kSparse;
  throw Error(ErrorKind::kInvalidInput,
              "unknown representation '" + name +
                  "' (expected adaptive, dense or sparse)");
}

DetectionDefinition parse_definition(const std::string& name) {
  if (name == "standard") return DetectionDefinition::kStandard;
  if (name == "dissimilar") return DetectionDefinition::kDissimilar;
  throw Error(ErrorKind::kInvalidInput,
              "unknown definition '" + name +
                  "' (expected standard or dissimilar)");
}

/// The full key vocabulary per request type; anything else is rejected so a
/// misspelled option fails loudly instead of silently running defaults.
bool key_allowed(RequestType type, const std::string& key) {
  if (key == "id" || key == "type" || key == "priority") return true;
  if (type == RequestType::kStats || type == RequestType::kPing ||
      type == RequestType::kHealth)
    return false;
  if (key == "circuit" || key == "deadline_ms") return true;
  // Every cone is built with default database options, so the session
  // options would only split the cache into entries with equal results.
  if (type == RequestType::kPartition) return key == "budget";
  if (key == "max_inputs" || key == "representation") return true;
  if (type == RequestType::kAverageCase)
    return key == "nmax" || key == "num_sets" || key == "seed" ||
           key == "definition" || key == "def2_probe_limit" ||
           key == "keep_test_sets";
  return false;
}

}  // namespace

Request parse_request(const std::string& line) {
  const json::Value root = json::parse(line);
  if (!root.is_object())
    throw Error(ErrorKind::kInvalidInput, "request must be a JSON object");

  Request request;
  if (const json::Value* id = root.find("id")) request.id = id->as_uint64();
  request.type = parse_type(root.at("type").as_string());
  if (const json::Value* v = root.find("priority"))
    request.priority = parse_priority(v->as_string());

  for (const json::Value::Member& member : root.as_object()) {
    if (!key_allowed(request.type, member.first))
      throw Error(ErrorKind::kInvalidInput,
                  "unknown key '" + member.first + "' for request type '" +
                      to_string(request.type) + "'");
  }

  if (request.type == RequestType::kStats ||
      request.type == RequestType::kPing ||
      request.type == RequestType::kHealth)
    return request;

  request.circuit = root.at("circuit").as_string();
  if (request.circuit.empty())
    throw Error(ErrorKind::kInvalidInput, "circuit must not be empty");
  request.key.circuit = request.circuit;
  if (const json::Value* v = root.find("deadline_ms"))
    request.deadline_ms = v->as_uint64();
  if (const json::Value* v = root.find("max_inputs")) {
    const std::int64_t max_inputs = v->as_int64();
    require(max_inputs >= 1 && max_inputs <= 30,
            "max_inputs must be in [1, 30]");
    request.key.max_inputs = static_cast<int>(max_inputs);
  }
  if (const json::Value* v = root.find("representation"))
    request.key.representation = parse_representation(v->as_string());

  if (request.type == RequestType::kAverageCase) {
    if (const json::Value* v = root.find("nmax")) {
      const std::int64_t nmax = v->as_int64();
      require(nmax >= 1 && nmax <= 1000, "nmax must be in [1, 1000]");
      request.average.nmax = static_cast<int>(nmax);
    }
    if (const json::Value* v = root.find("num_sets")) {
      const std::uint64_t num_sets = v->as_uint64();
      require(num_sets >= 1 && num_sets <= kMaxNumSets,
              "num_sets must be in [1, 100000]");
      request.average.num_sets = static_cast<std::size_t>(num_sets);
    }
    if (const json::Value* v = root.find("seed"))
      request.average.seed = v->as_uint64();
    if (const json::Value* v = root.find("definition"))
      request.average.definition = parse_definition(v->as_string());
    if (const json::Value* v = root.find("def2_probe_limit")) {
      const std::uint64_t limit = v->as_uint64();
      require(limit <= kMaxDef2ProbeLimit,
              "def2_probe_limit must be in [0, 1024]");
      request.average.def2_probe_limit = static_cast<std::size_t>(limit);
    }
    if (const json::Value* v = root.find("keep_test_sets"))
      request.average.keep_test_sets = v->as_bool();
  } else if (request.type == RequestType::kPartition) {
    if (const json::Value* v = root.find("budget")) {
      request.partition.max_inputs = static_cast<std::size_t>(v->as_uint64());
      require(request.partition.max_inputs >= 1, "budget must be >= 1");
    }
  }
  return request;
}

std::string analysis_result(AnalysisSession& session, const Request& request) {
  switch (request.type) {
    case RequestType::kWorstCase:
      return to_json(session.worst_case());
    case RequestType::kAverageCase:
      return to_json(session.average_case(request.average));
    case RequestType::kPartition: {
      JsonWriter w;
      w.begin_array();
      for (const ConeReport& report : session.partitioned(request.partition))
        w.raw(to_json(report));
      w.end_array();
      return w.str();
    }
    case RequestType::kStats:
    case RequestType::kPing:
    case RequestType::kHealth:
      break;
  }
  throw Error(ErrorKind::kInvalidInput,
              std::string("request type '") + to_string(request.type) +
                  "' has no analysis result");
}

std::string ok_response(const Request& request, const std::string& result_json,
                        const SessionStats& session, bool cache_hit,
                        double elapsed_ms) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(request.id);
  w.key("ok").value(true);
  w.key("type").value(to_string(request.type));
  w.key("circuit").value(request.circuit);
  w.key("cache_hit").value(cache_hit);
  w.key("elapsed_ms").value(elapsed_ms);
  w.key("result").raw(result_json);
  w.key("session").raw(to_json(session));
  w.end_object();
  return w.str();
}

std::string ok_response(const Request& request, const std::string& result_json,
                        double elapsed_ms) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(request.id);
  w.key("ok").value(true);
  w.key("type").value(to_string(request.type));
  w.key("elapsed_ms").value(elapsed_ms);
  w.key("result").raw(result_json);
  w.end_object();
  return w.str();
}

std::string error_response(std::uint64_t id, std::string_view type_name,
                           const Error& e, double elapsed_ms) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("ok").value(false);
  w.key("type").value(type_name);
  w.key("error")
      .begin_object()
      .key("kind")
      .value(ndet::to_string(e.kind()))
      .key("stage")
      .value(e.stage())
      .key("message")
      .value(e.what())
      .end_object();
  w.key("elapsed_ms").value(elapsed_ms);
  w.end_object();
  return w.str();
}

std::string shed_response(std::uint64_t id, std::string_view type_name,
                          const std::string& message,
                          std::uint64_t retry_after_ms) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("ok").value(false);
  w.key("type").value(type_name);
  w.key("error")
      .begin_object()
      .key("kind")
      .value(ndet::to_string(ErrorKind::kResourceExhausted))
      .key("stage")
      .value("serve.admission")
      .key("message")
      .value(message)
      .key("retry_after_ms")
      .value(retry_after_ms)
      .end_object();
  w.key("elapsed_ms").value(0.0);
  w.end_object();
  return w.str();
}

bool is_shed_response(const std::string& response) {
  return response.find("\"kind\":\"resource_exhausted\"") !=
             std::string::npos &&
         response.find("\"retry_after_ms\":") != std::string::npos;
}

std::uint64_t retry_after_ms_of(const std::string& response) {
  const std::string key = "\"retry_after_ms\":";
  const std::size_t at = response.find(key);
  if (at == std::string::npos) return 0;
  std::uint64_t value = 0;
  for (std::size_t i = at + key.size();
       i < response.size() && response[i] >= '0' && response[i] <= '9'; ++i)
    value = value * 10 + static_cast<std::uint64_t>(response[i] - '0');
  return value;
}

}  // namespace ndet::serve
