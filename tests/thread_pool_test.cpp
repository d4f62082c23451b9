// thread_pool_test.cpp -- the worker pool and the process-wide executor of
// persistent helper threads behind it: index coverage at every width and
// nesting depth, exceptions and cancellation reaching the helpers, the busy
// cap that keeps helpers from oversubscribing the widest pool, ndetd's
// session width, and the allocator that gives per-worker buffers their own
// cache lines.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/server.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace ndet {
namespace {

/// Spins (yielding) until `done()` holds or ten seconds pass; returns
/// whether it held.  Bounds every rendezvous below, so a pool that never
/// lends a helper fails its test instead of hanging it.
template <typename Done>
bool wait_for(Done done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  // Counts around one chunk per claim (fewer than 64 indices per worker),
  // around the first multi-index chunk, and with a remainder chunk at the
  // end of a large space.
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    const ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    for (const std::size_t count :
         {1u, 2u, 63u, 64u, 65u, 1000u, 100'003u}) {
      std::vector<int> hits(count, 0);
      pool.for_each_index(count, [&](std::size_t i, unsigned worker) {
        EXPECT_LT(worker, pool.workers_for(count));
        ++hits[i];
      });
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i << " count " << count
                              << " threads " << threads;
    }
  }
}

TEST(ThreadPool, ChunksFollowTheCountAndTheWidth) {
  const ThreadPool two(2), eight(8);
  EXPECT_EQ(two.chunk_for(1), 1u);
  EXPECT_EQ(two.chunk_for(125), 1u);  // Procedure 1's groups at K 1000
  EXPECT_EQ(two.chunk_for(128), 2u);
  EXPECT_EQ(two.chunk_for(100'003), 1'562u);
  EXPECT_EQ(eight.chunk_for(100'003), 390u);
  EXPECT_EQ(ThreadPool(1).chunk_for(100'003), 3'125u);
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  // At 100,003 indices a claim takes 781, so index 50,001 throws inside a
  // chunk; the annotation still names it.
  const ThreadPool pool(4);
  for (const auto& [count, failing] :
       {std::pair<std::size_t, std::size_t>{100, 37}, {100'003, 50'001}}) {
    try {
      pool.for_each_index(count, [&](std::size_t i, unsigned) {
        if (i == failing) throw contract_error("boom");
      });
      ADD_FAILURE() << "expected contract_error at count " << count;
    } catch (const contract_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("index " + std::to_string(failing) + "]"),
                std::string::npos)
          << message;
    }
  }
}

TEST(ThreadPool, ZeroRequestsAllHardwareThreads) {
  EXPECT_GE(ThreadPool(0).thread_count(), 1u);
  EXPECT_EQ(resolve_thread_count(3), 3u);
}

TEST(ThreadPool, NestedCallsCoverEveryPairExactlyOnce) {
  // Every outer body opens an inner call on the same pool, as
  // partitioned_worst_case and run_batch do.  The helpers serve both
  // levels; each caller runs its own slot 0, so nesting cannot deadlock.
  constexpr std::size_t kOuter = 24, kInner = 40;
  for (const unsigned threads : {2u, 3u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    std::atomic<bool> worker_in_range{true};
    pool.for_each_index(kOuter, [&](std::size_t outer, unsigned worker) {
      if (worker >= pool.workers_for(kOuter)) worker_in_range = false;
      pool.for_each_index(kInner, [&](std::size_t inner, unsigned nested) {
        if (nested >= pool.workers_for(kInner)) worker_in_range = false;
        hits[outer * kInner + inner].fetch_add(1);
      });
    });
    EXPECT_TRUE(worker_in_range.load());
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "outer " << i / kInner << " inner "
                                   << i % kInner;
  }
}

TEST(ThreadPool, LoneCallerGetsTheWholeWidth) {
  // `threads` bodies meet at a rendezvous: it completes only when the
  // caller and threads - 1 helpers run at the same time.
  for (const unsigned threads : {2u, 3u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ThreadPool pool(threads);
    std::atomic<unsigned> arrived{0};
    std::atomic<bool> met{true};
    pool.for_each_index(threads, [&](std::size_t, unsigned) {
      arrived.fetch_add(1);
      if (!wait_for([&] { return arrived.load() == threads; })) met = false;
    });
    EXPECT_TRUE(met.load());
  }
}

TEST(ThreadPool, HelperExceptionsComeBackAnnotated) {
  // The caller's body holds its index until a helper has thrown, so the
  // exception rethrown on the caller is the helper's.
  const ThreadPool pool(2);
  std::atomic<bool> thrown{false};
  std::atomic<std::size_t> helper_index{0};
  try {
    pool.for_each_index(64, [&](std::size_t i, unsigned worker) {
      if (worker == 0) {
        if (!wait_for([&] { return thrown.load(); }))
          throw std::runtime_error("no helper ran a slot");
        return;
      }
      helper_index = i;
      thrown = true;
      throw contract_error("boom on a helper");
    });
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    ASSERT_TRUE(thrown.load()) << "no helper ran a slot";
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidInput);
    const std::string message = e.what();
    EXPECT_NE(message.find("boom on a helper"), std::string::npos) << message;
    EXPECT_NE(message.find("[worker 1, index " +
                           std::to_string(helper_index.load()) + "]"),
              std::string::npos)
        << message;
  }
}

TEST(ThreadPool, CancelFromABodyStopsTheHelpers) {
  // A helper's body cancels the token while the caller holds its index:
  // every worker stops claiming at its next poll, so each runs at most one
  // body, and the caller gets control back.
  const unsigned threads = 4;
  const ThreadPool pool(threads);
  CancelToken token;
  std::atomic<std::size_t> executed{0};
  std::atomic<bool> caller_released{true};
  pool.for_each_index(
      100'000,
      [&](std::size_t, unsigned worker) {
        executed.fetch_add(1);
        if (worker == 0) {
          if (!wait_for([&] { return token.cancelled(); })) {
            caller_released = false;
            token.cancel("no helper ran a body");
          }
          return;
        }
        token.cancel("from a helper");
      },
      &token);
  EXPECT_TRUE(caller_released.load()) << "no helper ran a body";
  EXPECT_TRUE(token.cancelled());
  EXPECT_LE(executed.load(), static_cast<std::size_t>(threads));
  EXPECT_THROW(check_cancel(&token, "sweep"), Error);
}

/// Exits 0 when a second caller's 2-wide call runs both of its indices on
/// its caller while a first caller's 2-wide call is inside its caller's
/// body; exits 1 otherwise.
[[noreturn]] void second_caller_runs_alone() {
  const ThreadPool pool(2);
  std::atomic<bool> first_inside{false}, second_done{false};
  std::thread first([&] {
    pool.for_each_index(2, [&](std::size_t, unsigned worker) {
      if (worker != 0) {
        // The helper, if it joined, leaves as soon as the caller holds the
        // other index.  Returning at once could let it claim both indices
        // before the caller's first claim, and the caller would never be
        // inside a body.
        (void)wait_for([&] { return first_inside.load(); });
        return;
      }
      first_inside = true;
      (void)wait_for([&] { return second_done.load(); });
    });
  });
  (void)wait_for([&] { return first_inside.load(); });
  std::array<std::atomic<unsigned>, 2> ran_on{};
  pool.for_each_index(2, [&](std::size_t i, unsigned worker) {
    ran_on[i] = worker;
    // Room for the helper to take slot 1, which it must not do.
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  second_done = true;
  first.join();
  if (ran_on[0] != 0 || ran_on[1] != 0) {
    std::fprintf(stderr, "second call ran on workers %u and %u\n",
                 ran_on[0].load(), ran_on[1].load());
    std::exit(1);
  }
  std::exit(0);
}

TEST(ThreadPool, HelpersStayOutWhileCallersFillTheWidth) {
  // In a process whose widest call is 2 wide there is one helper, and it
  // joins a job only while fewer than two threads are inside job bodies.
  // Two callers inside their calls fill that width, so the second call
  // runs both of its indices on its caller.  The statement runs in a fresh
  // copy of this binary (the threadsafe death-test style re-executes it),
  // so no earlier test has grown the helper set.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(second_caller_runs_alone(), ::testing::ExitedWithCode(0), "");
}

TEST(ThreadPool, ServerSessionsTakeTheWholeThreadBudget) {
  // ndetd's benchmark shape: no static threads / concurrency split, so a
  // lone request's session runs `threads` wide.
  serve::ServerOptions options;
  options.threads = 2;
  options.concurrency = 2;
  serve::Server server(options);
  const json::Value stats =
      json::parse(server.handle_line(R"({"id":1,"type":"stats"})"));
  const json::Value& threads = stats.at("result").at("threads");
  EXPECT_EQ(threads.at("session_threads").as_uint64(), 2u);
  EXPECT_EQ(threads.at("concurrency").as_uint64(), 2u);
  const json::Value reply = json::parse(
      server.handle_line(R"({"id":2,"type":"worst_case","circuit":"bbtas"})"));
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("session").at("thread_count").as_uint64(), 2u);
}

// Per-worker buffers allocated back to back, as one caller allocates them
// for every worker: each starts on its own cache line, so no two share one.
TEST(CacheLineAllocator, BuffersAllocatedTogetherStartOnTheirOwnLines) {
  std::vector<std::vector<std::uint8_t, CacheLineAllocator<std::uint8_t>>>
      buffers;
  for (const std::size_t size : {1u, 3u, 63u, 64u, 65u, 200u, 1u, 7u})
    buffers.emplace_back(size, std::uint8_t{1});
  for (const auto& buffer : buffers)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.data()) %
                  kCacheLineBytes,
              0u);
}

}  // namespace
}  // namespace ndet
