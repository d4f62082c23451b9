// chaos_test.cpp -- hammers run_batch and the serving daemon with random
// cancellations, deadlines, malformed request lines and (when the harness
// is compiled in) injected faults, asserting the robustness contract: every
// failure surfaces as a typed ndet::Error with a stage attribution (or, for
// the daemon, a well-formed error response), nothing hangs, and nothing
// leaks (the suite runs under ASan and TSan in CI).
//
// NDET_CHAOS_REQUESTS scales the request count (default 200; CI's TSan leg
// lowers it).  The schedule is a pure function of the fixed seed, so a
// failing round reproduces.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "serve/server.hpp"
#include "util/cancel.hpp"
#include "util/fault_inject.hpp"
#include "util/json.hpp"

namespace ndet {
namespace {

std::size_t chaos_request_target() {
  if (const char* env = std::getenv("NDET_CHAOS_REQUESTS")) {
    const long value = std::atol(env);
    if (value > 0) return static_cast<std::size_t>(value);
  }
  return 200;
}

const char* kCircuits[] = {"paper_example", "bbtas", "dk27"};

std::vector<SessionRequest> make_requests(std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> batch_size(2, 4);
  std::uniform_int_distribution<std::size_t> which(0, 2);
  std::uniform_int_distribution<int> with_average(0, 3);
  std::vector<SessionRequest> requests(batch_size(rng));
  for (SessionRequest& request : requests) {
    request.circuit = kCircuits[which(rng)];
    if (with_average(rng) == 0) {
      Procedure1Request avg;
      avg.nmax = 2;
      avg.num_sets = 6;
      avg.seed = rng();
      request.average.push_back(avg);
    }
  }
  return requests;
}

bool is_known_kind(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kCancelled:
    case ErrorKind::kDeadlineExceeded:
    case ErrorKind::kInvalidInput:
    case ErrorKind::kResourceExhausted:
    case ErrorKind::kInternal:
      return true;
  }
  return false;
}

/// Runs one batch under a randomly chosen disruption and validates the
/// outcome either way.  Returns the number of requests submitted.
std::size_t run_round(std::mt19937& rng, bool injection_armed) {
  const std::vector<SessionRequest> requests = make_requests(rng);
  SessionOptions options;
  options.num_threads = std::uniform_int_distribution<unsigned>(1, 4)(rng);

  // 0: undisturbed, 1: pre-cancelled, 2: short deadline, 3: concurrent
  // cancel from a watcher thread.
  const int scenario = std::uniform_int_distribution<int>(0, 3)(rng);
  std::thread watcher;
  if (scenario == 1) {
    options.cancel_token = std::make_shared<CancelToken>();
    options.cancel_token->cancel("chaos pre-cancel");
  } else if (scenario == 2) {
    options.deadline_ms = std::uniform_int_distribution<std::uint64_t>(1, 4)(rng);
  } else if (scenario == 3) {
    options.cancel_token = std::make_shared<CancelToken>();
    const auto delay_us = std::uniform_int_distribution<int>(0, 3000)(rng);
    watcher = std::thread([token = options.cancel_token, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      token->cancel("chaos watcher");
    });
  }

  try {
    std::vector<AnalysisSession> sessions = run_batch(requests, options);
    // A batch that beat the disruption (or ran undisturbed) is complete:
    // every session serves its worst case from the memo.
    EXPECT_EQ(sessions.size(), requests.size());
    for (AnalysisSession& session : sessions)
      EXPECT_FALSE(session.worst_case().nmin.empty());
  } catch (const Error& e) {
    EXPECT_TRUE(is_known_kind(e.kind())) << e.what();
    EXPECT_FALSE(e.stage().empty()) << e.what();
    if (!injection_armed && scenario != 0) {
      EXPECT_TRUE(e.kind() == ErrorKind::kCancelled ||
                  e.kind() == ErrorKind::kDeadlineExceeded)
          << e.what();
    }
  }
  // Any other exception type escaping run_batch fails the test frame.
  if (watcher.joinable()) watcher.join();
  return requests.size();
}

TEST(Chaos, RandomCancellationsAndDeadlines) {
  std::mt19937 rng(20050307);
  const std::size_t target = chaos_request_target();
  std::size_t submitted = 0;
  while (submitted < target) submitted += run_round(rng, false);
  EXPECT_GE(submitted, target);
}

// --- daemon chaos -----------------------------------------------------------

/// One deterministic request line for the daemon hammer: mostly well-formed
/// mixed analysis requests, some with 1ms deadlines, some malformed.
std::string chaos_line(std::mt19937& rng, std::uint64_t id) {
  std::uniform_int_distribution<std::size_t> which(0, 2);
  const int shape = std::uniform_int_distribution<int>(0, 9)(rng);
  if (shape == 0) return "{\"id\":" + std::to_string(id) + ",\"type\":";
  if (shape == 1) return "this is not json";
  if (shape == 2)
    return "{\"id\":" + std::to_string(id) +
           ",\"type\":\"worst_case\",\"circuit\":\"no_such_circuit\"}";
  std::string line = "{\"id\":" + std::to_string(id) + ",\"type\":";
  const int kind = std::uniform_int_distribution<int>(0, 2)(rng);
  if (kind == 0) {
    line += "\"worst_case\"";
  } else if (kind == 1) {
    line += "\"average_case\",\"nmax\":2,\"num_sets\":4,\"seed\":" +
            std::to_string(rng() % 8);
  } else {
    line += "\"partition\",\"budget\":8";
  }
  line += ",\"circuit\":\"" + std::string(kCircuits[which(rng)]) + "\"";
  if (std::uniform_int_distribution<int>(0, 3)(rng) == 0)
    line += ",\"deadline_ms\":1";
  line += "}";
  return line;
}

/// Hammers a serve::Server from several client threads with random
/// deadlines, malformed lines and (when armed) injected faults.  The
/// contract: handle_line never throws, every response is parseable JSON
/// echoing the id, and a tiny cache budget keeps eviction churning the
/// whole time without leaks (the suite runs under ASan and TSan).
void hammer_server(std::uint32_t seed, bool expect_eviction) {
  serve::ServerOptions options;
  options.cache_bytes = 16u << 10;  // far below the summed working sets
  options.concurrency = 3;
  options.threads = 3;
  serve::Server server(options);

  const std::size_t target = chaos_request_target();
  constexpr int kClients = 3;
  std::atomic<std::size_t> bad_responses{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(seed + static_cast<std::uint32_t>(c));
      for (std::size_t i = 0; i < (target + kClients - 1) / kClients; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(c) * 1000000 + i;
        const std::string response =
            server.handle_line(chaos_line(rng, id));
        // Every response must be valid JSON carrying ok + an id.
        try {
          const json::Value v = json::parse(response);
          (void)v.at("ok").as_bool();
          (void)v.at("id").as_uint64();
        } catch (const Error&) {
          bad_responses.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(bad_responses.load(), 0u);

  // The server survived; its stats endpoint still answers coherently.
  const json::Value stats =
      json::parse(server.handle_line("{\"id\":1,\"type\":\"stats\"}"));
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_GE(stats.at("result").at("accepted").as_uint64(), target);
  if (expect_eviction) {
    EXPECT_GT(server.cache().stats().evictions, 0u);
  }
}

TEST(Chaos, DaemonSurvivesHostileClients) {
  hammer_server(20050307, /*expect_eviction=*/true);
}

TEST(Chaos, DaemonSurvivesInjectedServeFaults) {
  if (!fault_inject::kCompiled)
    GTEST_SKIP() << "fault injection compiled out (-DNDET_FAULT_INJECT=OFF)";

  fault_inject::arm("serve.parse", 0.02, 52);
  fault_inject::arm("serve.cache_evict", 0.02, 53);
  fault_inject::arm("detection_db.alloc", 0.01, 54);
  fault_inject::arm("thread_pool.worker_throw", 0.001, 55);

  // Injected eviction faults can leave the cache transiently over budget,
  // so only survival is asserted, not eviction progress.
  hammer_server(19450508, /*expect_eviction=*/false);

  EXPECT_GT(fault_inject::poll_count("serve.parse"), 0u);
  fault_inject::disarm_all();
}

/// Randomly tags a well-formed line with batch priority so the overload
/// cycles exercise both admission lanes (malformed lines pass through
/// untouched -- they default to interactive).
std::string with_random_priority(std::string line, std::mt19937& rng) {
  if (!line.empty() && line.back() == '}' &&
      std::uniform_int_distribution<int>(0, 1)(rng) == 0) {
    line.pop_back();
    line += ",\"priority\":\"batch\"}";
  }
  return line;
}

/// One overload+drain cycle: hostile clients flood a tiny admission queue
/// (optionally with serve.queue_full / serve.drain faults armed) while the
/// server may start draining mid-load.  The contract under ASan/TSan:
/// every submitted line gets EXACTLY one parseable response, and no lease
/// leaks (a drained cache flushes to zero entries).
void overload_drain_cycle(std::uint32_t seed, bool drain_mid_load) {
  serve::ServerOptions options;
  options.cache_bytes = 16u << 10;
  options.concurrency = 2;
  options.threads = 2;
  options.max_queue_depth = 4;  // small enough that the flood must shed
  options.drain_ms = 500;
  serve::Server server(options);

  const std::size_t target = chaos_request_target();
  constexpr int kClients = 3;
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> responses{0};
  std::atomic<std::size_t> bad_responses{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(seed + static_cast<std::uint32_t>(c));
      for (std::size_t i = 0; i < (target + kClients - 1) / kClients; ++i) {
        const std::uint64_t id = static_cast<std::uint64_t>(c) * 1000000 + i;
        submitted.fetch_add(1);
        server.submit(
            with_random_priority(chaos_line(rng, id), rng),
            [&](std::string&& response) {
              responses.fetch_add(1);
              try {
                const json::Value v = json::parse(response);
                (void)v.at("ok").as_bool();
                (void)v.at("id").as_uint64();
              } catch (const Error&) {
                bad_responses.fetch_add(1);
              }
            });
      }
    });
  }
  if (drain_mid_load) {
    // Drain at the first response, while the clients are still submitting
    // and the flood still holds lines in the queue: queued lines dispatch
    // in drain mode (the serve.drain site), late lines shed as draining,
    // and admitted lines finish or hit the drain budget -- either way they
    // respond.
    while (responses.load() == 0) std::this_thread::yield();
    server.begin_drain();
  }
  for (std::thread& client : clients) client.join();
  ASSERT_TRUE(server.wait_drained(60000));

  // The exactly-one-response invariant, under overload, faults and drain.
  EXPECT_EQ(responses.load(), submitted.load());
  EXPECT_EQ(bad_responses.load(), 0u);

  // Zero leaked leases: nothing pins the cache once drained, so a flush
  // must empty it completely.
  server.cache().flush();
  EXPECT_EQ(server.cache().stats().entries, 0u);
  EXPECT_EQ(server.cache().stats().bytes, 0u);
}

TEST(Chaos, OverloadCycleAnswersEveryLine) {
  if (fault_inject::kCompiled) fault_inject::arm("serve.queue_full", 0.05, 60);
  overload_drain_cycle(20050307, /*drain_mid_load=*/false);
  if (fault_inject::kCompiled) {
    EXPECT_GT(fault_inject::poll_count("serve.queue_full"), 0u);
    fault_inject::disarm_all();
  }
}

TEST(Chaos, DrainUnderLoadAnswersEveryLineAndLeaksNothing) {
  if (fault_inject::kCompiled) {
    fault_inject::arm("serve.queue_full", 0.05, 61);
    fault_inject::arm("serve.drain", 0.05, 62);
  }
  overload_drain_cycle(19450508, /*drain_mid_load=*/true);
  overload_drain_cycle(19391101, /*drain_mid_load=*/true);
  if (fault_inject::kCompiled) {
    EXPECT_GT(fault_inject::poll_count("serve.drain"), 0u);
    fault_inject::disarm_all();
  }
}

TEST(Chaos, InjectedFaultsSurfaceAsTypedErrors) {
  if (!fault_inject::kCompiled)
    GTEST_SKIP() << "fault injection compiled out (-DNDET_FAULT_INJECT=OFF)";

  // Deterministic failure schedule: every site decision is a pure function
  // of (seed, site, call counter).
  fault_inject::arm("thread_pool.worker_throw", 0.002, 42);
  fault_inject::arm("thread_pool.slow_worker", 0.002, 43);
  fault_inject::arm("detection_db.alloc", 0.05, 44);
  fault_inject::arm("pair_kernels.pack", 0.05, 45);

  std::mt19937 rng(19450508);
  const std::size_t target = chaos_request_target();
  std::size_t submitted = 0;
  while (submitted < target) submitted += run_round(rng, true);

  EXPECT_GT(fault_inject::poll_count("thread_pool.worker_throw"), 0u);
  EXPECT_GT(fault_inject::poll_count("detection_db.alloc"), 0u);
  fault_inject::disarm_all();
  EXPECT_EQ(fault_inject::fire_count("detection_db.alloc"), 0u);
}

}  // namespace
}  // namespace ndet
