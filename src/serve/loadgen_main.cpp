// ndet_loadgen -- replay harness for the ndetd serving layer.
//
// Generates a deterministic (seeded) schedule of mixed worst-case /
// average-case / partition requests across a circuit list (with a
// deterministic interactive/batch priority mix), replays them against an
// already-running ndetd (--connect=PORT, required) from closed-loop TCP
// clients (one connection per client thread, synchronous
// request/response), and writes a JSON summary (--out, default
// loadgen_report.json: p50/p90/p99 latency overall and per priority,
// throughput, shed/retry counts, the server's own stats).
//
// Shed (resource_exhausted + retry_after_ms) responses and rejected
// connections are retried up to --max-retries times with exponential
// backoff + jitter, honoring the server's retry_after_ms hint, which makes
// this the overload harness too; latency is measured first-send to final
// response, backoff included -- the latency a well-behaved retrying client
// actually observes.  --max-p99-ms=N fails the run (exit 1) when the
// overall p99 exceeds N, which is how CI asserts bounded latency under
// over-capacity load.
//
// --validate recomputes every distinct request's result through a direct
// AnalysisSession and requires each successful response's "result" payload
// to be BYTE-identical; deadline'd requests must either still succeed
// identically or fail as deadline_exceeded/cancelled with a stage
// attribution.  Exits 1 on any validation failure, so CI can gate on it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "serve/protocol.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace ndet {
namespace {

struct PlannedRequest {
  std::string line;          ///< the request JSON (one protocol line)
  serve::RequestType type = serve::RequestType::kWorstCase;
  serve::Priority priority = serve::Priority::kBatch;
  std::string circuit;
  bool deadlined = false;    ///< carries a tiny deadline_ms
};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) items.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

/// The deterministic mixed schedule: ~50% worst-case, ~30% average-case,
/// ~20% partition; every `deadline_every`-th request deadline'd at 1ms;
/// every `interactive_every`-th request interactive priority, the rest
/// batch (the overload runs demonstrate interactive protection).
std::vector<PlannedRequest> plan_requests(std::size_t count,
                                          const std::vector<std::string>& circuits,
                                          std::uint64_t seed,
                                          std::size_t num_sets, int nmax,
                                          std::size_t deadline_every,
                                          std::size_t interactive_every) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick_circuit(0,
                                                          circuits.size() - 1);
  std::uniform_int_distribution<int> pick_mix(0, 9);
  std::uniform_int_distribution<std::uint64_t> pick_seed(1, 4);

  std::vector<PlannedRequest> planned;
  planned.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    PlannedRequest request;
    request.circuit = circuits[pick_circuit(rng)];
    const int mix = pick_mix(rng);
    request.type = mix < 5   ? serve::RequestType::kWorstCase
                   : mix < 8 ? serve::RequestType::kAverageCase
                             : serve::RequestType::kPartition;
    request.deadlined = deadline_every > 0 && (i + 1) % deadline_every == 0;
    request.priority = interactive_every > 0 && (i + 1) % interactive_every == 0
                           ? serve::Priority::kInteractive
                           : serve::Priority::kBatch;

    JsonWriter w;
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(i + 1));
    w.key("type").value(serve::to_string(request.type));
    w.key("priority").value(serve::to_string(request.priority));
    w.key("circuit").value(request.circuit);
    if (request.deadlined) w.key("deadline_ms").value(std::uint64_t{1});
    if (request.type == serve::RequestType::kAverageCase) {
      // A small seed pool keeps the distinct-request set cheap to validate
      // while still exercising the memo-key separation.
      w.key("nmax").value(nmax);
      w.key("num_sets").value(static_cast<std::uint64_t>(num_sets));
      w.key("seed").value(pick_seed(rng));
    } else if (request.type == serve::RequestType::kPartition) {
      w.key("budget").value(std::uint64_t{8});
    }
    w.end_object();
    request.line = w.str();
    planned.push_back(std::move(request));
  }
  return planned;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Expected "result" payloads, computed through direct AnalysisSession
/// calls: each planned line is parsed the way the daemon parses it and runs
/// on a session keyed like the daemon's session cache, so the serving layer
/// must be bit-identical.
class Expectations {
 public:
  std::string expected(const std::string& line) {
    const serve::Request request = serve::parse_request(line);
    std::unique_ptr<AnalysisSession>& session = sessions_[request.key];
    if (!session) {
      SessionOptions single_thread;
      single_thread.num_threads = 1;
      session = std::make_unique<AnalysisSession>(
          request.circuit, serve::session_options(request.key, single_thread));
    }
    return serve::analysis_result(*session, request);
  }

 private:
  std::map<serve::CacheKey, std::unique_ptr<AnalysisSession>> sessions_;
};

struct RunResult {
  std::vector<double> latency_ms;     ///< index-aligned with the schedule
  std::vector<std::string> responses; ///< index-aligned with the schedule
  double wall_seconds = 0.0;
  std::string server_stats;           ///< the final stats payload
  std::uint64_t shed_observed = 0;    ///< shed responses seen (pre-retry)
  std::uint64_t retries_total = 0;    ///< resends after a shed
};

/// Exponential backoff with full jitter, seeded from the server's
/// retry_after_ms hint: hint * 2^attempt, scaled by U[0.5, 1.5), clamped to
/// `cap_ms`.
std::uint64_t backoff_ms(std::uint64_t hint, std::size_t attempt,
                         std::mt19937_64& rng, std::uint64_t cap_ms) {
  const double base = static_cast<double>(std::max<std::uint64_t>(1, hint));
  const double scale =
      static_cast<double>(std::uint64_t{1} << std::min<std::size_t>(attempt, 6));
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  const double ms = base * scale * jitter(rng);
  return static_cast<std::uint64_t>(
      std::clamp(ms, 1.0, static_cast<double>(cap_ms)));
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One synchronous request/response over an established connection.  False
/// on any transport failure (the caller reconnects and retries).
bool tcp_round_trip(int fd, const std::string& line, std::string& buffer,
                    std::string& response) {
  const std::string payload = line + "\n";
  std::size_t written = 0;
  while (written < payload.size()) {
    const ssize_t n =
        ::write(fd, payload.data() + written, payload.size() - written);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  std::size_t newline;
  while ((newline = buffer.find('\n')) == std::string::npos) {
    char chunk[4096];
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
  response = buffer.substr(0, newline);
  buffer.erase(0, newline + 1);
  return true;
}

/// TCP closed-loop replay against a running ndetd: one connection per
/// client thread, retrying sheds AND rejected/refused connections with the
/// same backoff.  CI's overload smoke drives this at over-capacity.
RunResult run_connect(int port, const std::vector<PlannedRequest>& planned,
                      unsigned concurrency, std::size_t max_retries) {
  RunResult result;
  result.latency_ms.resize(planned.size());
  result.responses.resize(planned.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> shed_observed{0};
  std::atomic<std::uint64_t> retries_total{0};
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(concurrency);
  for (unsigned c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(0x7c9e2d1 + c);
      int fd = -1;
      std::string buffer;
      auto reset = [&] {
        if (fd >= 0) ::close(fd);
        fd = -1;
        buffer.clear();
      };
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < planned.size();
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        const auto start = std::chrono::steady_clock::now();
        std::string response;
        bool have_response = false;
        // One extra slot beyond max_retries for the first attempt.
        for (std::size_t attempt = 0; attempt <= max_retries; ++attempt) {
          if (attempt > 0) retries_total.fetch_add(1, std::memory_order_relaxed);
          if (fd < 0) fd = connect_loopback(port);
          std::uint64_t hint = 1;
          if (fd >= 0 && tcp_round_trip(fd, planned[i].line, buffer, response)) {
            if (!serve::is_shed_response(response)) {
              have_response = true;
              break;
            }
            shed_observed.fetch_add(1, std::memory_order_relaxed);
            hint = serve::retry_after_ms_of(response);
            have_response = true;  // a shed still counts if retries run out
            // A connection-cap rejection is followed by a server-side
            // close; recycle the socket rather than writing into an EPIPE.
            if (response.find("\"type\":\"connection\"") != std::string::npos)
              reset();
          } else {
            reset();  // refused or mid-stream failure: reconnect and retry
          }
          if (attempt == max_retries) break;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(backoff_ms(hint, attempt, rng, 5000)));
        }
        if (!have_response)
          response = serve::shed_response(
              i + 1, serve::to_string(planned[i].type),
              "loadgen: connection failed after retries", 0);
        result.responses[i] = std::move(response);
        result.latency_ms[i] = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
      }
      reset();
    });
  }
  for (std::thread& client : clients) client.join();
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  result.shed_observed = shed_observed.load();
  result.retries_total = retries_total.load();
  // The server's own view, over a fresh connection (best effort: the
  // daemon may already be draining).
  if (const int fd = connect_loopback(port); fd >= 0) {
    std::string buffer, line;
    if (tcp_round_trip(fd, "{\"id\":0,\"type\":\"stats\"}", buffer, line)) {
      const std::size_t at = line.find("\"result\":");
      if (at != std::string::npos)
        result.server_stats = line.substr(at + 9, line.size() - (at + 9) - 1);
    }
    ::close(fd);
  }
  return result;
}

}  // namespace
}  // namespace ndet

int main(int argc, char** argv) {
  using namespace ndet;
  return run_cli([&]() -> int {
    const CliArgs args(argc, argv,
                       {"requests", "concurrency", "circuits", "seed", "out",
                        "responses", "validate", "deadline-every", "num-sets",
                        "nmax", "interactive-every", "max-retries", "connect",
                        "max-p99-ms"});
    const std::size_t requests = args.get_u64("requests", 2000);
    const unsigned concurrency =
        static_cast<unsigned>(args.get_u64("concurrency", 8));
    const std::vector<std::string> circuits = split_csv(args.get(
        "circuits",
        "paper_example,bbtas,dk27,lion9,train11,tav,s8,beecount,bbara"));
    require(!circuits.empty(), "loadgen: --circuits must name >= 1 circuit");
    const std::uint64_t seed = args.get_u64("seed", 20050307);
    const std::size_t num_sets = args.get_u64("num-sets", 12);
    const int nmax = static_cast<int>(args.get_u64("nmax", 2));
    const std::size_t deadline_every = args.get_u64("deadline-every", 97);
    const std::size_t interactive_every = args.get_u64("interactive-every", 4);
    const std::size_t max_retries = args.get_u64("max-retries", 6);
    const std::uint64_t max_p99_ms = args.get_u64("max-p99-ms", 0);
    require(args.has("connect"),
            "loadgen: --connect=PORT (a running ndetd) is required");

    const std::vector<PlannedRequest> planned =
        plan_requests(requests, circuits, seed, num_sets, nmax, deadline_every,
                      interactive_every);
    const RunResult run =
        run_connect(static_cast<int>(args.get_u64("connect", 0)), planned,
                    concurrency, max_retries);

    if (args.has("responses")) {
      std::ofstream out(args.get("responses", ""), std::ios::trunc);
      require(out.good(), "loadgen: cannot open --responses path");
      for (const std::string& response : run.responses) out << response << '\n';
    }

    // --- classify ----------------------------------------------------------
    std::size_t ok = 0, errors = 0, deadline_exceeded = 0, shed_final = 0;
    for (const std::string& response : run.responses) {
      if (response.find("\"ok\":true") != std::string::npos) {
        ++ok;
      } else {
        ++errors;
        if (response.find("\"kind\":\"deadline_exceeded\"") !=
            std::string::npos)
          ++deadline_exceeded;
        if (serve::is_shed_response(response)) ++shed_final;
      }
    }

    // --- validate ----------------------------------------------------------
    std::size_t validated = 0, mismatches = 0;
    if (args.has("validate")) {
      Expectations expectations;
      for (std::size_t i = 0; i < planned.size(); ++i) {
        const PlannedRequest& request = planned[i];
        const std::string& response = run.responses[i];
        const bool succeeded =
            response.find("\"ok\":true") != std::string::npos;
        if (!succeeded) {
          // Only cancellation-family failures are legal in a clean replay,
          // and only on deadline'd requests; each must name its stage.
          const bool deadline_family =
              response.find("\"kind\":\"deadline_exceeded\"") !=
                  std::string::npos ||
              response.find("\"kind\":\"cancelled\"") != std::string::npos;
          if (!request.deadlined || !deadline_family ||
              response.find("\"stage\":\"\"") != std::string::npos) {
            ++mismatches;
            std::cerr << "loadgen: unexpected failure for request " << i + 1
                      << ": " << response << "\n";
          }
          continue;
        }
        const std::string expected = expectations.expected(request.line);
        if (response.find("\"result\":" + expected) == std::string::npos) {
          ++mismatches;
          std::cerr << "loadgen: result mismatch for request " << i + 1
                    << " (" << serve::to_string(request.type) << " "
                    << request.circuit << ")\n";
        } else {
          ++validated;
        }
      }
    }

    // --- report ------------------------------------------------------------
    std::vector<double> sorted = run.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> interactive_sorted, batch_sorted;
    for (std::size_t i = 0; i < planned.size(); ++i) {
      (planned[i].priority == serve::Priority::kInteractive
           ? interactive_sorted
           : batch_sorted)
          .push_back(run.latency_ms[i]);
    }
    std::sort(interactive_sorted.begin(), interactive_sorted.end());
    std::sort(batch_sorted.begin(), batch_sorted.end());

    const auto write_percentiles = [](JsonWriter& w, std::vector<double>& s) {
      w.begin_object()
          .key("count")
          .value(static_cast<std::uint64_t>(s.size()))
          .key("p50")
          .value(percentile(s, 0.50))
          .key("p90")
          .value(percentile(s, 0.90))
          .key("p99")
          .value(percentile(s, 0.99))
          .key("max")
          .value(s.empty() ? 0.0 : s.back())
          .end_object();
    };

    JsonWriter w;
    w.begin_object();
    w.key("name").value("serve_loadgen");
    w.key("requests").value(static_cast<std::uint64_t>(requests));
    w.key("concurrency").value(concurrency);
    w.key("interactive_every")
        .value(static_cast<std::uint64_t>(interactive_every));
    w.key("max_retries").value(static_cast<std::uint64_t>(max_retries));
    w.key("circuits").begin_array();
    for (const std::string& circuit : circuits) w.value(circuit);
    w.end_array();
    w.key("ok").value(static_cast<std::uint64_t>(ok));
    w.key("errors").value(static_cast<std::uint64_t>(errors));
    w.key("deadline_exceeded")
        .value(static_cast<std::uint64_t>(deadline_exceeded));
    w.key("shed_observed").value(run.shed_observed);
    w.key("retries").value(run.retries_total);
    w.key("shed_final").value(static_cast<std::uint64_t>(shed_final));
    w.key("validated").value(static_cast<std::uint64_t>(validated));
    w.key("mismatches").value(static_cast<std::uint64_t>(mismatches));
    w.key("wall_seconds").value(run.wall_seconds);
    w.key("throughput_rps")
        .value(run.wall_seconds > 0.0
                   ? static_cast<double>(requests) / run.wall_seconds
                   : 0.0);
    w.key("latency_ms");
    write_percentiles(w, sorted);
    w.key("latency_ms_interactive");
    write_percentiles(w, interactive_sorted);
    w.key("latency_ms_batch");
    write_percentiles(w, batch_sorted);
    if (run.server_stats.empty())
      w.key("server_stats").null();
    else
      w.key("server_stats").raw(run.server_stats);
    w.end_object();

    const std::string out_path = args.get("out", "loadgen_report.json");
    write_json_file(out_path, w.str());
    std::cout << "loadgen: " << requests << " requests (" << ok << " ok, "
              << errors << " errors, " << deadline_exceeded
              << " deadline_exceeded, " << run.shed_observed
              << " sheds observed, " << run.retries_total << " retries) in "
              << run.wall_seconds << "s -> " << out_path << "\n";
    if (args.has("validate"))
      std::cout << "loadgen: validated " << validated << " responses, "
                << mismatches << " mismatches\n";
    const double p99 = percentile(sorted, 0.99);
    if (max_p99_ms > 0 && p99 > static_cast<double>(max_p99_ms)) {
      std::cerr << "loadgen: p99 " << p99 << "ms exceeds --max-p99-ms bound "
                << max_p99_ms << "ms\n";
      return 1;
    }
    return mismatches == 0 ? 0 : 1;
  });
}
