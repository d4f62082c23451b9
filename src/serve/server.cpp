#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "fsm/benchmarks.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace ndet::serve {

namespace {

double elapsed_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The error reply to a line that did not parse.  It echoes what the line
/// says about itself, so a pipelining client can match the reply: a JSON
/// object's "type" when that names a request type, and its "id" when that
/// is a non-negative integer; "unknown" and 0 otherwise.
std::string rejected_line_response(const std::string& line, const Error& e,
                                   double elapsed_ms) {
  std::uint64_t id = 0;
  const char* type_name = "unknown";
  try {
    const json::Value root = json::parse(line);
    if (root.is_object()) {
      const json::Value* type = root.find("type");
      if (type != nullptr && type->is_string())
        for (std::size_t t = 0; t < kNumRequestTypes; ++t)
          if (type->as_string() == to_string(static_cast<RequestType>(t)))
            type_name = to_string(static_cast<RequestType>(t));
      if (const json::Value* id_value = root.find("id"))
        id = id_value->as_uint64();
    }
  } catch (const Error&) {
    // Not JSON, or an id that is not a non-negative integer: echo what was
    // read.
  }
  return error_response(id, type_name, e, elapsed_ms);
}

bool is_control_type(RequestType type) {
  return type == RequestType::kPing || type == RequestType::kStats ||
         type == RequestType::kHealth;
}

}  // namespace

// --- LatencyHistogram -------------------------------------------------------

void LatencyHistogram::record(double seconds) {
  const double us = seconds * 1e6;
  // Bucket i covers (upper(i-1), upper(i)] with upper(i) = sqrt(2)^i us.
  std::size_t index = 0;
  if (us > 1.0) {
    const double exact = std::ceil(2.0 * std::log2(us));
    index = exact < 0.0 ? 0
                        : std::min<std::size_t>(kBuckets - 1,
                                                static_cast<std::size_t>(exact));
  }
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_)
    total += bucket.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::bucket_upper_ms(std::size_t i) {
  return std::pow(2.0, static_cast<double>(i) * 0.5) * 1e-3;
}

double LatencyHistogram::percentile_ms(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  const double target = p * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (static_cast<double>(cumulative) >= target) return bucket_upper_ms(i);
  }
  return bucket_upper_ms(kBuckets - 1);
}

// --- Server -----------------------------------------------------------------

const char* to_string(ServerState state) {
  switch (state) {
    case ServerState::kServing: return "serving";
    case ServerState::kDraining: return "draining";
    case ServerState::kStopped: return "stopped";
  }
  return "stopped";
}

Server::Server(ServerOptions options)
    : options_(options),
      session_base_{.num_threads = resolve_thread_count(options.threads)},
      cache_(options.cache_bytes, session_base_),
      lifetime_(std::make_shared<CancelToken>()),
      drain_(std::make_shared<CancelToken>()),
      queue_(options.max_queue_depth, options.max_queue_bytes),
      start_time_(std::chrono::steady_clock::now()) {
  drain_->chain_parent(lifetime_);
  drain_->label_deadline("drain budget");
}

Server::~Server() {
  // Admitted lines are never abandoned: cancel in-flight work, then let
  // the dispatchers drain the queue (each remaining line gets a Cancelled
  // error response) before joining them.
  if (state() != ServerState::kStopped) shutdown();
  stop_dispatchers();
}

Server::TypeCounters& Server::counters_for(RequestType type) {
  return by_type_[static_cast<std::size_t>(type)];
}

void Server::record_service(double seconds) {
  // Relaxed EWMA (alpha = 1/8) of service time; feeds the retry hint.
  const std::uint64_t sample =
      static_cast<std::uint64_t>(std::max(1.0, seconds * 1e6));
  const std::uint64_t old = ewma_service_us_.load(std::memory_order_relaxed);
  ewma_service_us_.store((old * 7 + sample) / 8, std::memory_order_relaxed);
}

std::uint64_t Server::retry_after_hint_ms() const {
  const double service_ms =
      static_cast<double>(ewma_service_us_.load(std::memory_order_relaxed)) /
      1000.0;
  const double depth = static_cast<double>(queue_.depth());
  const double lanes = std::max(1u, options_.concurrency);
  const double hint = service_ms * (depth + 1.0) / lanes;
  return static_cast<std::uint64_t>(
      std::clamp(hint, 1.0, 30000.0));
}

bool Server::overloaded() const {
  if (options_.max_queue_depth == 0) return false;
  // High-water mark at 3/4 of the depth bound: the health endpoint warns
  // before admission starts shedding.
  return queue_.depth() * 4 >= options_.max_queue_depth * 3;
}

std::string Server::handle_line(const std::string& line,
                                std::optional<ErrorKind>* failure) {
  if (failure) failure->reset();
  Request request;
  std::string reply;
  if (!parse_line(line, request, reply)) {
    if (failure) *failure = ErrorKind::kInvalidInput;
    return reply;
  }
  if (std::optional<std::string> shed = drain_shed(request)) {
    if (failure) *failure = ErrorKind::kResourceExhausted;
    return std::move(*shed);
  }
  return serve(request, failure);
}

bool Server::parse_line(const std::string& line, Request& request,
                        std::string& reply) {
  const auto start = std::chrono::steady_clock::now();
  accepted_.fetch_add(1, std::memory_order_relaxed);
  try {
    if (line.size() > options_.max_line_bytes)
      throw Error(ErrorKind::kInvalidInput,
                  "request line exceeds " +
                      std::to_string(options_.max_line_bytes) + " bytes");
    NDET_INJECT("serve.parse",
                throw Error(ErrorKind::kInvalidInput,
                            "injected parse fault (site serve.parse)"));
    request = parse_request(line);
    return true;
  } catch (const Error& e) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    // The cap keeps an oversized line cheap: it is not parsed for the echo
    // either.
    reply = line.size() > options_.max_line_bytes
                ? error_response(0, "unknown", e, elapsed_ms_since(start))
                : rejected_line_response(line, e, elapsed_ms_since(start));
    return false;
  }
}

std::string Server::serve(const Request& request,
                          std::optional<ErrorKind>* failure) {
  const auto start = std::chrono::steady_clock::now();
  TypeCounters& counters = counters_for(request.type);
  TypeCounters& priority_counters =
      by_priority_[static_cast<std::size_t>(request.priority)];
  counters.requests.fetch_add(1, std::memory_order_relaxed);
  priority_counters.requests.fetch_add(1, std::memory_order_relaxed);
  std::string response;
  try {
    response = run_request(request);
    counters.ok.fetch_add(1, std::memory_order_relaxed);
    priority_counters.ok.fetch_add(1, std::memory_order_relaxed);
  } catch (const Error& e) {
    counters.errors.fetch_add(1, std::memory_order_relaxed);
    priority_counters.errors.fetch_add(1, std::memory_order_relaxed);
    if (failure) *failure = e.kind();
    response = error_response(request.id, to_string(request.type), e,
                              elapsed_ms_since(start));
  } catch (const std::exception& e) {
    counters.errors.fetch_add(1, std::memory_order_relaxed);
    priority_counters.errors.fetch_add(1, std::memory_order_relaxed);
    const Error wrapped(ErrorKind::kInternal, e.what());
    if (failure) *failure = wrapped.kind();
    response = error_response(request.id, to_string(request.type), wrapped,
                              elapsed_ms_since(start));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  counters.latency.record(seconds);
  priority_counters.latency.record(seconds);
  record_service(seconds);
  return response;
}

std::optional<std::string> Server::drain_shed(const Request& request) {
  // The control types stay answerable so load balancers observe the state.
  if (is_control_type(request.type) || state() == ServerState::kServing)
    return std::nullopt;
  for (TypeCounters* counters :
       {&counters_for(request.type),
        &by_priority_[static_cast<std::size_t>(request.priority)]}) {
    counters->requests.fetch_add(1, std::memory_order_relaxed);
    counters->errors.fetch_add(1, std::memory_order_relaxed);
  }
  return shed_response(request.id, to_string(request.type),
                       "server draining: not admitting new analysis work",
                       retry_after_hint_ms());
}

std::string Server::run_request(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  check_cancel(lifetime_.get(), "serve.dispatch");

  if (request.type == RequestType::kPing)
    return ok_response(request, "\"pong\"", elapsed_ms_since(start));
  if (request.type == RequestType::kStats)
    return ok_response(request, stats_json(), elapsed_ms_since(start));
  if (request.type == RequestType::kHealth)
    return ok_response(request, health_json(), elapsed_ms_since(start));

  // Names only: a served .bench path would let any client make the daemon
  // open and read any file, /dev/zero included, into memory.
  if (!is_embedded_circuit(request.key.circuit))
    throw Error(ErrorKind::kInvalidInput,
                "unknown circuit '" + request.key.circuit +
                    "' (expected an FSM benchmark or an embedded circuit)");

  // A fresh token per request: tokens latch and deadlines only tighten, so
  // cached sessions can never reuse one.  Chained under the drain token, it
  // sees begin_drain()'s budget and shutdown()'s cancel whenever they come.
  auto token = std::make_shared<CancelToken>();
  token->chain_parent(drain_);
  if (state() != ServerState::kServing)
    NDET_INJECT("serve.drain",
                throw Error(ErrorKind::kCancelled,
                            "injected drain abort (site serve.drain)",
                            "serve.drain"));

  SessionCache::Lease lease = cache_.acquire(request.key, request.priority);
  AnalysisSession& session = lease.session();
  session.rearm(request.deadline_ms, token);
  std::string result;
  try {
    result = analysis_result(session, request);
  } catch (...) {
    // The aborted stage never populated its memo slot, so the session stays
    // clean for the next request; re-charge whatever the half-run request
    // did build (the database may be resident) and drop the token so the
    // cached session never outlives it.
    try {
      cache_.update(lease);
    } catch (...) {
      // An injected eviction failure must not mask the request's error.
    }
    session.rearm(0, nullptr);
    throw;
  }
  cache_.update(lease);
  const SessionStats stats = session.stats();
  session.rearm(0, nullptr);
  return ok_response(request, result, stats, lease.hit(),
                     elapsed_ms_since(start));
}

// --- admission + dispatch ---------------------------------------------------

Server::Responder Server::track(Responder respond) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  return [this, respond = std::move(respond)](std::string&& response) {
    respond(std::move(response));
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::lock_guard<std::mutex> lock(drain_mutex_);
      drained_cv_.notify_all();
    }
  };
}

bool Server::submit(const std::string& line, Responder respond) {
  Responder tracked = track(std::move(respond));
  AdmittedLine admitted;
  std::string reply;
  if (!parse_line(line, admitted.request, reply)) {
    tracked(std::move(reply));
    return false;
  }
  const Request& request = admitted.request;

  // Control requests never queue: ping/stats/health must stay answerable
  // under overload and during drain (the whole point of a health probe).
  if (is_control_type(request.type)) {
    tracked(serve(request, nullptr));
    return false;
  }

  if (std::optional<std::string> shed = drain_shed(request)) {
    tracked(std::move(*shed));
    return false;
  }

  bool injected_full = false;
  NDET_INJECT("serve.queue_full", injected_full = true);

  ensure_dispatchers();
  admitted.bytes = line.size();
  admitted.respond = std::move(tracked);
  std::vector<AdmittedLine> displaced;
  const bool entered = !injected_full && queue_.offer(admitted, &displaced);
  for (AdmittedLine& victim : displaced) {
    victim.respond(shed_response(
        victim.request.id, to_string(victim.request.type),
        "shed: displaced by interactive work under overload",
        retry_after_hint_ms()));
  }
  if (!entered) {
    // Rejected offers leave `admitted` intact, responder included.
    admitted.respond(shed_response(
        admitted.request.id, to_string(admitted.request.type),
        "admission queue full: request shed", retry_after_hint_ms()));
    return false;
  }
  return true;
}

void Server::ensure_dispatchers() {
  const std::lock_guard<std::mutex> lock(dispatcher_mutex_);
  if (!dispatchers_.empty() || dispatchers_stopped_) return;
  const unsigned count = std::max(1u, options_.concurrency);
  dispatchers_.reserve(count);
  for (unsigned i = 0; i < count; ++i)
    dispatchers_.emplace_back([this] { dispatch_loop(); });
}

void Server::dispatch_loop() {
  AdmittedLine item;
  while (queue_.pop(item)) item.respond(serve(item.request, nullptr));
}

void Server::stop_dispatchers() {
  queue_.close();
  std::vector<std::thread> to_join;
  {
    const std::lock_guard<std::mutex> lock(dispatcher_mutex_);
    dispatchers_stopped_ = true;
    to_join.swap(dispatchers_);
  }
  for (std::thread& dispatcher : to_join) dispatcher.join();
}

// --- lifecycle --------------------------------------------------------------

void Server::begin_drain() {
  // One deadline on the drain token reaches every request token chained
  // under it, in flight or not yet dispatched.  set_deadline keeps the
  // earlier deadline, so a repeated call (an embedder drain followed by a
  // signal) never extends the budget.
  drain_->set_deadline_after_ms(options_.drain_ms);
  ServerState expected = ServerState::kServing;
  state_.compare_exchange_strong(expected, ServerState::kDraining,
                                 std::memory_order_acq_rel);
}

bool Server::wait_drained(std::uint64_t timeout_ms) {
  auto drained = [this] {
    return pending_.load(std::memory_order_acquire) == 0 &&
           queue_.depth() == 0;
  };
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    const auto deadline = deadline_after_ms(timeout_ms);
    if (timeout_ms == 0 || !deadline) {
      drained_cv_.wait(lock, drained);
    } else if (!drained_cv_.wait_until(lock, *deadline, drained)) {
      return false;
    }
  }
  state_.store(ServerState::kStopped, std::memory_order_release);
  stop_dispatchers();
  return true;
}

void Server::shutdown() {
  lifetime_->cancel("server shutdown");
  state_.store(ServerState::kStopped, std::memory_order_release);
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

// --- telemetry --------------------------------------------------------------

std::string Server::health_json() const {
  const ServerState state = this->state();
  const char* reported =
      state != ServerState::kServing
          ? "draining"
          : (overloaded() ? "overloaded" : "serving");
  JsonWriter w;
  w.begin_object();
  w.key("state").value(reported);
  w.key("queue_depth").value(static_cast<std::uint64_t>(queue_.depth()));
  w.key("connections")
      .value(static_cast<std::uint64_t>(
          active_connections_.load(std::memory_order_relaxed)));
  w.key("retry_after_ms").value(retry_after_hint_ms());
  w.end_object();
  return w.str();
}

namespace {

void write_latency(JsonWriter& w, const LatencyHistogram& latency) {
  w.key("latency_ms")
      .begin_object()
      .key("p50")
      .value(latency.percentile_ms(0.50))
      .key("p90")
      .value(latency.percentile_ms(0.90))
      .key("p99")
      .value(latency.percentile_ms(0.99))
      .end_object();
}

}  // namespace

std::string Server::stats_json() const {
  const SessionCacheStats cache_stats = cache_.stats();
  const AdmissionStats admission = queue_.stats();
  JsonWriter w;
  w.begin_object();
  w.key("uptime_seconds")
      .value(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_time_)
                 .count());
  w.key("state").value(to_string(state()));
  w.key("accepted").value(accepted_.load(std::memory_order_relaxed));
  w.key("malformed").value(malformed_.load(std::memory_order_relaxed));
  w.key("requests").begin_object();
  for (std::size_t i = 0; i < by_type_.size(); ++i) {
    const TypeCounters& counters = by_type_[i];
    w.key(to_string(static_cast<RequestType>(i))).begin_object();
    w.key("count").value(counters.requests.load(std::memory_order_relaxed));
    w.key("ok").value(counters.ok.load(std::memory_order_relaxed));
    w.key("errors").value(counters.errors.load(std::memory_order_relaxed));
    write_latency(w, counters.latency);
    w.end_object();
  }
  w.end_object();
  w.key("priority").begin_object();
  for (std::size_t i = 0; i < by_priority_.size(); ++i) {
    const TypeCounters& counters = by_priority_[i];
    w.key(to_string(static_cast<Priority>(i))).begin_object();
    w.key("count").value(counters.requests.load(std::memory_order_relaxed));
    w.key("ok").value(counters.ok.load(std::memory_order_relaxed));
    w.key("errors").value(counters.errors.load(std::memory_order_relaxed));
    write_latency(w, counters.latency);
    w.end_object();
  }
  w.end_object();
  w.key("admission").begin_object();
  w.key("queue_depth").value(static_cast<std::uint64_t>(admission.depth));
  w.key("queue_bytes").value(static_cast<std::uint64_t>(admission.bytes));
  w.key("peak_depth").value(static_cast<std::uint64_t>(admission.peak_depth));
  w.key("admitted").value(admission.admitted);
  w.key("shed_interactive").value(admission.shed_interactive);
  w.key("shed_batch").value(admission.shed_batch);
  w.key("displaced").value(admission.displaced);
  w.key("rejected_connections")
      .value(rejected_connections_.load(std::memory_order_relaxed));
  w.key("retry_after_ms").value(retry_after_hint_ms());
  w.end_object();
  w.key("cache").begin_object();
  w.key("hits").value(cache_stats.hits);
  w.key("misses").value(cache_stats.misses);
  w.key("evictions").value(cache_stats.evictions);
  w.key("bytes").value(static_cast<std::uint64_t>(cache_stats.bytes));
  w.key("entries").value(static_cast<std::uint64_t>(cache_stats.entries));
  w.key("budget_bytes")
      .value(static_cast<std::uint64_t>(cache_stats.budget_bytes));
  w.end_object();
  w.key("threads")
      .begin_object()
      .key("concurrency")
      .value(options_.concurrency)
      .key("session_threads")
      .value(session_base_.num_threads)
      .end_object();
  w.end_object();
  return w.str();
}

// --- TCP transport ----------------------------------------------------------

namespace {

/// Per-connection write state: dispatcher threads respond through this,
/// the handler thread waits for `outstanding` to hit zero before closing.
/// Everything except the handler thread's own reads of `fd` is guarded by
/// `mutex` -- in particular close/reset and the drain path's shutdown()
/// take it, so no thread can shutdown() a just-closed (possibly reused)
/// descriptor.
struct TcpConn {
  explicit TcpConn(int fd_in) : fd(fd_in) {}
  int fd;  ///< guarded by mutex; -1 once closed (handler thread writes)
  std::mutex mutex;
  std::condition_variable all_done;
  int outstanding = 0;
  bool write_failed = false;
};

/// A connection's handler thread.  Handlers close their connection as the
/// last step before they exit.
struct Handler {
  std::shared_ptr<TcpConn> conn;
  std::thread thread;
};

/// Joins the handlers whose connection has closed and drops them, so a
/// long-running daemon keeps threads (and their stack mappings) only for
/// connections that are still open.
void reap_closed(std::vector<Handler>& handlers) {
  for (Handler& handler : handlers) {
    bool closed = false;
    {
      const std::lock_guard<std::mutex> lock(handler.conn->mutex);
      closed = handler.conn->fd < 0;
    }
    if (closed) handler.thread.join();
  }
  std::erase_if(handlers, [](const Handler& handler) {
    return !handler.thread.joinable();
  });
}

void write_line(const std::shared_ptr<TcpConn>& conn,
                const std::string& response) {
  const std::lock_guard<std::mutex> lock(conn->mutex);
  if (conn->write_failed || conn->fd < 0) return;
  const std::string payload = response + "\n";
  std::size_t written = 0;
  while (written < payload.size()) {
    // The socket carries SO_SNDTIMEO (set at accept), so a client that
    // stops reading stalls this dispatcher for at most the send budget
    // instead of head-of-line-blocking every connection forever; a
    // timed-out (or otherwise failed) write marks the connection dead so
    // the remaining responders complete immediately.
    const ssize_t n = ::write(conn->fd, payload.data() + written,
                              payload.size() - written);
    if (n < 0 && errno == EINTR) continue;  // drain signal mid-write
    if (n <= 0) {
      conn->write_failed = true;
      return;
    }
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool Server::serve_tcp(int port, const std::function<void(int)>& ready) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  require(fd >= 0, "serve_tcp: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw Error(ErrorKind::kResourceExhausted,
                "serve_tcp: cannot bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw Error(ErrorKind::kResourceExhausted, "serve_tcp: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  listen_fd_.store(fd, std::memory_order_release);
  if (ready) ready(static_cast<int>(ntohs(bound.sin_port)));

  std::vector<Handler> handlers;  // touched by this thread only

  while (true) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR && !drain_requested() &&
          !is_cancelled(lifetime_.get()))
        continue;
      break;  // shutdown() closed the listener, or a drain signal arrived
    }
    if (is_cancelled(lifetime_.get())) {
      ::close(client);
      break;
    }
    if (drain_requested()) {
      ::close(client);
      break;
    }
    bool dropped = false;
    NDET_INJECT("serve.accept", {
      ::close(client);  // simulated accept failure: connection dropped
      dropped = true;
    });
    if (dropped) continue;

    // Bound every send by the drain budget: without this, one client that
    // stops reading wedges a dispatcher in ::write and the drain join
    // never terminates.  write_line treats a timed-out send as a dead
    // connection.
    timeval send_timeout{};
    const std::uint64_t send_ms = std::max<std::uint64_t>(1, options_.drain_ms);
    send_timeout.tv_sec = static_cast<time_t>(send_ms / 1000);
    send_timeout.tv_usec = static_cast<suseconds_t>((send_ms % 1000) * 1000);
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof send_timeout);

    // The connection cap: excess clients get one typed shed line, never a
    // silent RST, and the handler-thread population stays bounded.
    const unsigned active =
        active_connections_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (options_.max_connections != 0 && active > options_.max_connections) {
      active_connections_.fetch_sub(1, std::memory_order_acq_rel);
      rejected_connections_.fetch_add(1, std::memory_order_relaxed);
      const std::string reject =
          shed_response(0, "connection",
                        "connection limit reached (" +
                            std::to_string(options_.max_connections) + ")",
                        retry_after_hint_ms()) +
          "\n";
      (void)!::write(client, reject.data(), reject.size());
      ::close(client);
      continue;
    }

    reap_closed(handlers);
    auto conn = std::make_shared<TcpConn>(client);
    // The entry exists before its thread starts, so a failed allocation
    // never destroys a running thread.
    Handler& handler = handlers.emplace_back();
    handler.conn = conn;
    handler.thread = std::thread([this, conn] {
      std::string buffer;
      char chunk[4096];
      while (true) {
        const ssize_t got = ::read(conn->fd, chunk, sizeof chunk);
        if (got <= 0) break;  // EOF, error, or SHUT_RD from the drain path
        // Bytes already in the buffer hold no newline: search only the new
        // ones, and consume complete lines in one erase per read.
        std::size_t scan = buffer.size();
        buffer.append(chunk, static_cast<std::size_t>(got));
        std::size_t start = 0;
        std::size_t newline;
        while ((newline = buffer.find('\n', scan)) != std::string::npos) {
          std::string line = buffer.substr(start, newline - start);
          start = scan = newline + 1;
          if (line.empty()) continue;
          {
            const std::lock_guard<std::mutex> lock(conn->mutex);
            ++conn->outstanding;
          }
          (void)submit(line, [conn](std::string&& response) {
            write_line(conn, response);
            const std::lock_guard<std::mutex> lock(conn->mutex);
            if (--conn->outstanding == 0) conn->all_done.notify_all();
          });
        }
        buffer.erase(0, start);
        if (buffer.size() > options_.max_line_bytes) {
          // The unterminated line is already over the cap, so it can never
          // be admitted: answer it now (handle_line rejects it by size and
          // counts it malformed) and stop reading instead of buffering
          // without bound.
          write_line(conn, handle_line(buffer));
          break;
        }
        if (is_cancelled(lifetime_.get())) break;
      }
      // Every submitted line still owes its response; the dispatchers are
      // guaranteed to deliver (drain deadline or hard cancel), so this
      // wait terminates.
      {
        std::unique_lock<std::mutex> lock(conn->mutex);
        conn->all_done.wait(lock, [&] { return conn->outstanding == 0; });
        // FIN before close: a close over unread input (an over-cap line, or
        // bytes that arrived after a drain's SHUT_RD) resets the connection,
        // and the FIN lets the client read the responses and then EOF.
        ::shutdown(conn->fd, SHUT_WR);
        ::close(conn->fd);
        conn->fd = -1;
      }
      active_connections_.fetch_sub(1, std::memory_order_acq_rel);
    });
  }

  bool clean = true;
  if (drain_requested() && !is_cancelled(lifetime_.get())) {
    begin_drain();
    // Wake handler threads blocked in read(): stop reading, keep writing
    // until each connection's in-flight responses are delivered.
    for (const Handler& handler : handlers) {
      // conn->mutex serializes against the handler's close/reset, so the
      // shutdown can never hit a recycled descriptor.
      const std::lock_guard<std::mutex> fd_lock(handler.conn->mutex);
      if (handler.conn->fd >= 0) ::shutdown(handler.conn->fd, SHUT_RD);
    }
    // The grace period saturates, so a budget near 2^64 ms waits forever
    // instead of wrapping to a few seconds.
    const std::uint64_t grace_ms = std::min<std::uint64_t>(
        10000, std::numeric_limits<std::uint64_t>::max() - options_.drain_ms);
    clean = wait_drained(options_.drain_ms + grace_ms);
  }
  for (Handler& handler : handlers) handler.thread.join();
  // shutdown() usually closed the fd already; close again is harmless only
  // if we still own it.
  const int owned = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (owned >= 0) ::close(owned);
  return clean;
}

}  // namespace ndet::serve
