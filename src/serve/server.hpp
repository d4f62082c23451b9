// server.hpp -- ndetd's request engine: admission, dispatch, telemetry,
// and lifecycle.
//
// Threading model (documented in DESIGN.md "Analysis as a service" and
// "Overload and lifecycle"):
//
//   acceptor --> admission queue --> dispatchers --> session cache --> pool
//
// ACCEPTOR threads (one per TCP connection) submit() request lines.
// submit() parses each line once: a line that does not parse, or exceeds
// the line cap, is answered at once and never queued.  Admission of parsed
// requests is bounded by depth and bytes with an explicit priority-laned
// shedding policy (serve/admission.hpp): a request either enters the queue
// or gets a typed ResourceExhausted response carrying a `retry_after_ms`
// hint -- never a silent drop.  `concurrency` DISPATCHER threads drain the
// queue interactive-lane-first, each serving the parsed request -- lease
// the circuit's cached session, run the requested stage, respond through
// the line's transport responder.
// Requests for different circuits run concurrently; requests for the same
// cache key serialize on the entry's lease (interactive acquires first).
// The thread-width budget is split so the machine is never oversubscribed:
// each cached session's fork-join pool is `threads / concurrency` wide
// (the same outer/inner split run_batch uses).
//
// Lifecycle: request_drain() (async-signal-safe) or begin_drain() moves
// the server from SERVING to DRAINING -- admission stops (new analysis
// lines are shed as "draining", on either entry path counted as an error
// of their type; ping/stats/health still answer so load balancers see the
// state flip), already-admitted work finishes under a `drain_ms` budget,
// and wait_drained() blocks until every accepted line has its response.
// The budget lives on ONE drain token, labeled "drain budget" at
// construction and chained under the lifetime token; every analysis
// request's token is chained under the drain token, so the one deadline
// begin_drain() arms reaches queued and in-flight work alike, and a
// drained-out response reads "drain budget exceeded" while a request's
// own deadline still reads "deadline exceeded".  This is distinct from
// hard shutdown(), which cancels the lifetime token and aborts in-flight
// work as Cancelled.
//
// Per-request deadlines arm a FRESH CancelToken (request -> drain ->
// lifetime), and the session is rearm()ed with it for the duration of the
// lease.  Failures map onto the typed error taxonomy in the response
// envelope; an aborted stage never populates its memo slot, so a
// deadline'd request can never poison the cache -- the next request for
// the key simply reruns the stage.
//
// handle_line() is synchronous and thread-safe, so embedders (tests, the
// --oneshot path) can drive the server without any I/O plumbing; submit()
// is the admission-controlled path the TCP transport uses.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/session_cache.hpp"

namespace ndet::serve {

/// Log-bucketed latency histogram (lock-free record, ~1.47x bucket growth
/// from 1us).  Percentiles report the upper edge of the covering bucket.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(double seconds);
  std::uint64_t count() const;
  /// Upper edge, in milliseconds, of the bucket containing the p-quantile
  /// (p in [0,1]); 0 when empty.
  double percentile_ms(double p) const;
  /// Upper edge of bucket i in milliseconds (for the stats export).
  static double bucket_upper_ms(std::size_t i);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// The drain state machine: SERVING -> DRAINING -> STOPPED, one-way.
enum class ServerState { kServing, kDraining, kStopped };

/// Stable wire name ("serving" / "draining" / "stopped").
const char* to_string(ServerState state);

struct ServerOptions {
  std::size_t cache_bytes = 64u << 20;  ///< LRU byte budget (0 = unbounded)
  unsigned concurrency = 4;             ///< dispatcher threads
  unsigned threads = 0;  ///< total pool-width budget; 0 = all hardware
  std::size_t max_line_bytes = 1u << 20;  ///< admission cap per request line
  std::size_t max_queue_depth = 256;   ///< admission depth bound (0 = off)
  std::size_t max_queue_bytes = 8u << 20;  ///< admission byte bound (0 = off)
  unsigned max_connections = 64;  ///< concurrent TCP clients (0 = unbounded)
  std::uint64_t drain_ms = 5000;  ///< drain budget for in-flight work
};

class Server {
 public:
  /// Delivers one response line (no trailing newline) to the transport.
  /// Invoked exactly once per submitted line.
  using Responder = std::function<void(std::string&&)>;

  explicit Server(ServerOptions options = {});

  /// Joins dispatchers after draining the queue: every admitted line still
  /// gets its response (as Cancelled errors once shutdown() ran).
  ~Server();

  /// Handles one request line end to end and returns the response line
  /// (without trailing newline).  Never throws: every failure becomes an
  /// error response.  Thread-safe.  Bypasses admission control EXCEPT for
  /// drain mode: once draining, analysis requests are shed (ping, stats
  /// and health still answer).  A non-null `failure` receives the error
  /// kind of a failed request (disengaged on success) -- the --oneshot
  /// exit-code path.
  std::string handle_line(const std::string& line,
                          std::optional<ErrorKind>* failure = nullptr);

  /// The admission-controlled path.  Parses the line once, then answers
  /// it synchronously when it does not parse (invalid_input), is a
  /// ping/stats/health request (which must stay answerable under
  /// overload), or is shed -- the queue is full (typed ResourceExhausted +
  /// retry_after_ms, priority-honoring displacement) or the server is
  /// draining; otherwise enqueues the parsed request for the dispatcher
  /// pool, which responds later on a dispatcher thread.  `respond` is
  /// invoked exactly once.  Returns true when the request was admitted to
  /// the queue (false = answered synchronously).
  bool submit(const std::string& line, Responder respond);

  /// TCP listener on 127.0.0.1:`port` (0 = ephemeral); `ready` is invoked
  /// with the bound port before accepting.  One connection handler thread
  /// per client up to `max_connections` (excess connections receive a
  /// single ResourceExhausted response line and are closed).  Handlers are
  /// joined before returning.  Returns after shutdown() or a completed
  /// drain; false when the drain timed out.
  bool serve_tcp(int port, const std::function<void(int)>& ready = {});

  /// Async-signal-safe drain trigger (one atomic store): the TCP accept
  /// loop observes it and runs begin_drain().  SIGTERM/SIGINT handlers call
  /// this.
  void request_drain() { drain_requested_.store(true, std::memory_order_release); }

  bool drain_requested() const {
    return drain_requested_.load(std::memory_order_acquire);
  }

  /// SERVING -> DRAINING: arms the `drain_ms` budget on the drain token,
  /// which every analysis request's token is chained under, then stops
  /// admitting analysis work.  Idempotent: a repeated call never extends
  /// the budget.
  void begin_drain();

  /// Blocks until every accepted line has been responded to, or
  /// `timeout_ms` passed (0 = wait forever).  On success flips the state
  /// to STOPPED and stops the dispatchers.  True = fully drained.
  bool wait_drained(std::uint64_t timeout_ms);

  ServerState state() const { return state_.load(std::memory_order_acquire); }

  /// Cancels the lifetime token (in-flight requests abort as Cancelled) and
  /// wakes the accept loop.  The hard stop; see begin_drain for the
  /// graceful one.
  void shutdown();

  /// The server-wide counters as a JSON object (the "stats" response body).
  std::string stats_json() const;

  /// The "health" response body: {"state":"serving|draining|overloaded",
  /// "queue_depth":...,"connections":...,"retry_after_ms":...}.  The state
  /// reports "overloaded" while serving with the queue past its high-water
  /// mark, so load balancers can back off before shedding starts.
  std::string health_json() const;

  /// The server's current backoff hint: expected queue wait derived from
  /// an EWMA of service time and the live queue depth, clamped to
  /// [1, 30000] ms.
  std::uint64_t retry_after_hint_ms() const;

  SessionCache& cache() { return cache_; }
  AdmissionStats admission_stats() const { return queue_.stats(); }
  std::uint64_t rejected_connections() const {
    return rejected_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct TypeCounters {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> errors{0};
    LatencyHistogram latency;
  };

  /// The one parse of a line: counts it accepted, checks the line cap and
  /// parses it into `request`.  Returns false, with the invalid_input reply
  /// in `reply` and the line counted malformed, when it does not parse.
  bool parse_line(const std::string& line, Request& request,
                  std::string& reply);
  /// Serves a parsed request and returns its reply: per-type and
  /// per-priority counters, latency and the service-time EWMA around
  /// run_request.  A non-null `failure` receives the error kind of a
  /// failed request.
  std::string serve(const Request& request, std::optional<ErrorKind>* failure);
  /// The drain shed, one step for both entry paths: nothing for the
  /// control types or while serving; otherwise counts the line as a
  /// request and an error of its type and returns the shed reply.
  std::optional<std::string> drain_shed(const Request& request);
  std::string run_request(const Request& request);
  TypeCounters& counters_for(RequestType type);
  void ensure_dispatchers();
  void dispatch_loop();
  void stop_dispatchers();
  /// Wraps a transport responder with the pending-line accounting behind
  /// wait_drained().
  Responder track(Responder respond);
  void record_service(double seconds);
  bool overloaded() const;

  ServerOptions options_;
  SessionOptions session_base_;
  SessionCache cache_;
  std::shared_ptr<CancelToken> lifetime_;
  /// Chained under lifetime_, labeled "drain budget"; begin_drain() arms
  /// its deadline.  Every analysis request's token is chained under it.
  std::shared_ptr<CancelToken> drain_;
  AdmissionQueue queue_;
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::array<TypeCounters, kNumRequestTypes> by_type_{};
  std::array<TypeCounters, 2> by_priority_{};  ///< indexed by Priority
  std::atomic<int> listen_fd_{-1};
  std::chrono::steady_clock::time_point start_time_;

  std::atomic<ServerState> state_{ServerState::kServing};
  std::atomic<bool> drain_requested_{false};
  std::atomic<std::int64_t> pending_{0};  ///< admitted lines awaiting response
  std::mutex drain_mutex_;
  std::condition_variable drained_cv_;

  std::mutex dispatcher_mutex_;
  std::vector<std::thread> dispatchers_;
  bool dispatchers_stopped_ = false;

  std::atomic<std::uint64_t> ewma_service_us_{500};
  std::atomic<std::uint64_t> rejected_connections_{0};
  std::atomic<unsigned> active_connections_{0};
};

}  // namespace ndet::serve
