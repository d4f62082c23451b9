// common.hpp -- schedule files, expected payloads and small helpers shared by
// perfbench_client's two modes (drive: ndetd over TCP; trace: in-process
// replay with spans).

#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One scheduled request: the index of its distinct request and its
/// protocol line (no trailing newline).
struct ScheduledRequest {
  std::size_t key = 0;
  std::string line;
};

/// A workload's fixed request schedule, as written by perfbench/workloads.py:
/// one "<S|T>\t<key>\t<line>" row per request, S for set-up and T for the
/// timed phase.  `distinct[key]` is the first line seen for each key.
struct Schedule {
  std::vector<ScheduledRequest> setup;
  std::vector<ScheduledRequest> timed;
  std::vector<std::string> distinct;
};

Schedule load_schedule(const std::string& path);

/// The session options the daemon's cache builds for this request's key,
/// at pool width `threads`.
ndet::SessionOptions session_options_for(const ndet::serve::Request& request,
                                         unsigned threads);

/// The "result" payload ndetd serves for `request`, computed on `session`
/// exactly as Server::run_request does.
std::string result_payload(ndet::AnalysisSession& session,
                           const ndet::serve::Request& request);

/// Expected payloads for every distinct request line, computed through
/// direct AnalysisSessions on `workers` threads (each worker owns its own
/// width-1 sessions; results do not depend on the width).
std::vector<std::string> expected_payloads(
    const std::vector<std::string>& distinct, unsigned workers);

/// The raw "result" value of a success response line: the bytes between
/// `"result":` and the envelope's trailing `,"session":` object.  False
/// when the line is not an `"ok":true` analysis response.
bool result_span(const std::string& response, std::size_t& begin,
                 std::size_t& length);

void write_file(const std::string& path, const std::string& text);

/// One closed-loop client connection to a loopback port.
class Connection {
 public:
  explicit Connection(int port);
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection();

  /// Sends `line` (which ends in '\n') and reads one response line into
  /// `response` (newline stripped).  Replies are never pipelined, so the
  /// newline is always the last byte read.
  void round_trip(const std::string& line, std::string& response);

 private:
  int fd_ = -1;
};

}  // namespace perfbench
