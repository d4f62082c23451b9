// protocol.hpp -- the daemon's line-delimited JSON wire protocol.
//
// One request object per line in, one response object per line out.  The
// request schema (unknown keys are rejected so typos fail loudly):
//
//   {"id":1,"type":"worst_case","circuit":"bbtas","deadline_ms":50,
//    "max_inputs":20,"representation":"adaptive"}
//   {"id":2,"type":"average_case","circuit":"dk27","nmax":2,"num_sets":100,
//    "seed":7,"definition":"standard","def2_probe_limit":32}
//   {"id":3,"type":"partition","circuit":"bbara","budget":8}
//   {"id":4,"type":"stats"}
//   {"id":5,"type":"ping"}
//   {"id":6,"type":"health"}
//   {"id":7,"type":"worst_case","circuit":"keyb","priority":"batch"}
//
// Every field except "type" is optional ("circuit" is required for the
// three analysis types); defaults match the paper's CLIs.  "max_inputs"
// and "representation" belong to worst_case and average_case only: a
// partition builds every cone with default options.  "priority"
// ("interactive", the default, or "batch") selects the admission lane:
// under overload batch requests are shed first and dispatched last, so a
// flood of heavy batch sweeps cannot starve cheap interactive requests
// (serve/admission.hpp).  "health" is the load-balancer probe: its result
// reports the lifecycle state ("serving" | "draining" | "overloaded")
// plus the live queue depth.  Responses echo
// the id and type so pipelined clients can match them out of order:
//
//   {"id":1,"ok":true,"type":"worst_case","circuit":"bbtas",
//    "cache_hit":false,"elapsed_ms":1.9,"result":{...},"session":{...}}
//   {"id":2,"ok":false,"type":"average_case","error":{"kind":
//    "deadline_exceeded","stage":"worst_case","message":"..."},
//    "elapsed_ms":50.1}
//
// A shed request (admission queue full, connection cap, drain mode) is a
// typed failure, never a silent drop: kind "resource_exhausted" with a
// "retry_after_ms" hint inside the error object telling a well-behaved
// client how long to back off before resending.
//
// The "result" payload is spliced verbatim from the same to_json()
// serializers the report CLIs use, so a served analysis is bytewise
// identical to a direct AnalysisSession run.  See DESIGN.md "Analysis as a
// service" for the full schema.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/session.hpp"
#include "serve/session_cache.hpp"
#include "util/cancel.hpp"

namespace ndet::serve {

enum class RequestType {
  kWorstCase,
  kAverageCase,
  kPartition,
  kStats,
  kPing,
  kHealth,
};
inline constexpr std::size_t kNumRequestTypes = 6;

/// Stable wire name ("worst_case", ...).
const char* to_string(RequestType type);

/// Parses the "priority" wire value ("interactive" / "batch"); throws
/// Error{kInvalidInput} on anything else.
Priority parse_priority(const std::string& name);

/// One parsed request.
struct Request {
  std::uint64_t id = 0;
  RequestType type = RequestType::kPing;
  Priority priority = Priority::kInteractive;
  std::string circuit;
  std::uint64_t deadline_ms = 0;  ///< 0 = no per-request deadline
  CacheKey key;                   ///< circuit + result-relevant options
  Procedure1Request average;      ///< average_case parameters
  PartitionOptions partition;     ///< partition parameters
};

/// Parses one request line.  Throws Error{kInvalidInput} on malformed JSON
/// (with line/column context), unknown "type"/keys, or missing "circuit".
Request parse_request(const std::string& line);

/// The "result" payload of an analysis request, computed on `session` (a
/// session built with session_options(request.key, ...)).  Throws
/// Error{kInvalidInput} for the control types, which have no session.
std::string analysis_result(AnalysisSession& session, const Request& request);

/// Success envelope around a prebuilt result JSON value.
std::string ok_response(const Request& request, const std::string& result_json,
                        const SessionStats& session, bool cache_hit,
                        double elapsed_ms);

/// Session-less success envelope (stats/ping).
std::string ok_response(const Request& request, const std::string& result_json,
                        double elapsed_ms);

/// Failure envelope carrying the typed error taxonomy (kind, stage,
/// message).  `id`/`type_name` echo the request when it parsed far enough
/// ("unknown" for lines that never parsed).
std::string error_response(std::uint64_t id, std::string_view type_name,
                           const Error& e, double elapsed_ms);

/// Load-shedding envelope: a kResourceExhausted error response whose error
/// object additionally carries `"retry_after_ms"` -- the server's backoff
/// hint for a well-behaved retrying client.  Used for admission-queue
/// sheds, displaced batch work, the connection cap, and drain-mode
/// rejections; never for real analysis failures.
std::string shed_response(std::uint64_t id, std::string_view type_name,
                          const std::string& message,
                          std::uint64_t retry_after_ms);

/// True when the response line is a shed_response (the client-side retry
/// trigger: resource_exhausted carrying a retry hint).
bool is_shed_response(const std::string& response);

/// Extracts the retry hint from a shed_response (0 when absent).
std::uint64_t retry_after_ms_of(const std::string& response);

}  // namespace ndet::serve
