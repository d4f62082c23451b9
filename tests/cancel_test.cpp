// cancel_test.cpp -- cooperative cancellation, deadlines, the typed error
// taxonomy, and ThreadPool exception context.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/partition.hpp"
#include "core/procedure1.hpp"
#include "core/session.hpp"
#include "core/worst_case.hpp"
#include "fsm/benchmarks.hpp"
#include "netlist/library.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace ndet {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// --- CancelToken semantics --------------------------------------------------

TEST(CancelToken, StartsLiveAndLatchesOnCancel) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_NO_THROW(token.check("stage"));

  token.cancel("stop now");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.kind(), ErrorKind::kCancelled);
  EXPECT_EQ(token.reason(), "stop now");
  // Latching: a fired token never un-fires, and the first reason wins.
  token.cancel("too late");
  EXPECT_EQ(token.reason(), "stop now");
}

TEST(CancelToken, CheckThrowsTypedErrorWithStage) {
  CancelToken token;
  token.cancel("abandon ship");
  try {
    token.check("worst_case");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
    EXPECT_EQ(e.stage(), "worst_case");
    EXPECT_TRUE(contains(e.what(), "abandon ship"));
    EXPECT_TRUE(contains(e.what(), "worst_case"));
  }
}

TEST(CancelToken, ExpiredDeadlineLatchesAsDeadlineExceeded) {
  CancelToken token;
  token.set_deadline_after_ms(1);
  EXPECT_TRUE(token.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.kind(), ErrorKind::kDeadlineExceeded);
  EXPECT_LT(token.remaining_seconds(), 0.0);
  EXPECT_THROW(token.check("average_case"), Error);
}

TEST(CancelToken, EarlierDeadlineWins) {
  CancelToken token;
  token.set_deadline_after_ms(60'000);
  EXPECT_GT(token.remaining_seconds(), 1.0);
  token.set_deadline_after_ms(1);  // tightens
  EXPECT_LT(token.remaining_seconds(), 1.0);
  token.set_deadline_after_ms(60'000);  // looser: ignored
  EXPECT_LT(token.remaining_seconds(), 1.0);
}

TEST(CancelToken, ExplicitCancelBeatsLaterDeadline) {
  CancelToken token;
  token.cancel("caller first");
  token.set_deadline_after_ms(0);
  EXPECT_EQ(token.kind(), ErrorKind::kCancelled);
  EXPECT_EQ(token.reason(), "caller first");
}

TEST(CancelToken, ChainedTokenReportsTheParentsLabeledDeadline) {
  // ndetd's chain: request -> drain ("drain budget") -> lifetime.
  auto lifetime = std::make_shared<CancelToken>();
  auto drain = std::make_shared<CancelToken>();
  drain->chain_parent(lifetime);
  drain->label_deadline("drain budget");
  auto request = std::make_shared<CancelToken>();
  request->chain_parent(drain);
  EXPECT_FALSE(request->cancelled());

  drain->set_deadline(std::chrono::steady_clock::now());
  EXPECT_TRUE(drain->cancelled());
  EXPECT_EQ(drain->kind(), ErrorKind::kDeadlineExceeded);
  EXPECT_EQ(drain->reason(), "drain budget exceeded");
  EXPECT_TRUE(request->cancelled());
  EXPECT_EQ(request->kind(), ErrorKind::kDeadlineExceeded);
  EXPECT_EQ(request->reason(), "drain budget exceeded");
  try {
    request->check("fault_sim");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded);
    EXPECT_STREQ(e.what(), "drain budget exceeded [stage fault_sim]");
  }

  // A request's own deadline keeps the generic message under a live drain.
  auto live_drain = std::make_shared<CancelToken>();
  live_drain->label_deadline("drain budget");
  CancelToken own;
  own.chain_parent(live_drain);
  own.set_deadline(std::chrono::steady_clock::now());
  EXPECT_TRUE(own.cancelled());
  EXPECT_EQ(own.reason(), "deadline exceeded");
}

TEST(CancelToken, NullTokenHelpersAreNoOps) {
  EXPECT_FALSE(is_cancelled(nullptr));
  EXPECT_NO_THROW(check_cancel(nullptr, "anything"));
}

// --- Error taxonomy ---------------------------------------------------------

TEST(ErrorTaxonomy, KindNamesAreStable) {
  EXPECT_STREQ(to_string(ErrorKind::kCancelled), "cancelled");
  EXPECT_STREQ(to_string(ErrorKind::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(to_string(ErrorKind::kInvalidInput), "invalid_input");
  EXPECT_STREQ(to_string(ErrorKind::kResourceExhausted), "resource_exhausted");
  EXPECT_STREQ(to_string(ErrorKind::kInternal), "internal");
}

TEST(ErrorTaxonomy, ContractErrorIsInvalidInput) {
  // Every bare throw behind util/check.hpp is now a typed Error, so existing
  // EXPECT_THROW(contract_error) tests and new kind-based handling coexist.
  try {
    require(false, "broken precondition");
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInvalidInput);
    EXPECT_TRUE(contains(e.what(), "broken precondition"));
  }
}

TEST(ErrorTaxonomy, ContextAccumulatesAndFirstStageWins) {
  Error e(ErrorKind::kInternal, "boom");
  e.add_context("worker 3, index 17");
  e.attach_stage("fault_sim");
  e.attach_stage("detection_db");  // outer stage: ignored
  EXPECT_EQ(e.stage(), "fault_sim");
  EXPECT_TRUE(contains(e.what(), "boom [worker 3, index 17] [stage fault_sim]"));
}

TEST(ErrorTaxonomy, ExitCodesFollowTheCliContract) {
  EXPECT_EQ(exit_code_for(ErrorKind::kCancelled), kExitTimeout);
  EXPECT_EQ(exit_code_for(ErrorKind::kDeadlineExceeded), kExitTimeout);
  EXPECT_EQ(exit_code_for(ErrorKind::kInvalidInput), kExitInvalidInput);
  EXPECT_EQ(exit_code_for(ErrorKind::kResourceExhausted), kExitInternal);
  EXPECT_EQ(exit_code_for(ErrorKind::kInternal), kExitInternal);
  EXPECT_EQ(kExitTimeout, 124);  // matches timeout(1)
}

// --- ThreadPool: cancellation and exception context -------------------------

TEST(ThreadPoolCancel, PollsBetweenIndexClaims) {
  // Body 0 cancels the token from inside the sweep.  Workers observe the
  // token before claiming the next index, so at most one in-flight body per
  // worker runs after the cancel -- the documented latency bound.
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ThreadPool pool(threads);
    CancelToken token;
    std::atomic<std::size_t> executed{0};
    pool.for_each_index(
        10'000,
        [&](std::size_t, unsigned) {
          executed.fetch_add(1);
          token.cancel("from body");
        },
        &token);
    // The pool itself never throws on cancellation; the caller checks.
    EXPECT_TRUE(token.cancelled());
    EXPECT_LE(executed.load(), static_cast<std::size_t>(threads));
    EXPECT_THROW(check_cancel(&token, "sweep"), Error);
  }
}

TEST(ThreadPoolCancel, CrossThreadCancelStopsTheSweep) {
  // A watcher thread cancels while workers spin inside bodies; every
  // in-flight body unblocks and no further index is claimed.
  const ThreadPool pool(4);
  CancelToken token;
  std::atomic<bool> started{false};
  std::atomic<std::size_t> executed{0};
  std::thread watcher([&] {
    while (!started.load()) std::this_thread::yield();
    token.cancel("watcher");
  });
  pool.for_each_index(
      100'000,
      [&](std::size_t, unsigned) {
        executed.fetch_add(1);
        started.store(true);
        while (!token.cancelled()) std::this_thread::yield();
      },
      &token);
  watcher.join();
  EXPECT_LE(executed.load(), 4u);
  EXPECT_EQ(token.kind(), ErrorKind::kCancelled);
}

TEST(ThreadPoolCancel, PreFiredTokenRunsNothing) {
  const ThreadPool pool(8);
  CancelToken token;
  token.cancel();
  std::atomic<std::size_t> executed{0};
  pool.for_each_index(
      1'000, [&](std::size_t, unsigned) { executed.fetch_add(1); }, &token);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ThreadPoolErrors, ThrowAtIndexZeroKeepsTypeAndContext) {
  // The regression this satellite demands: a throw at index 0 with 8 threads
  // never hangs, never loses the message, and arrives annotated with the
  // worker id and failing index -- without losing the dynamic type, so the
  // repository's EXPECT_THROW(contract_error) contracts keep holding.
  const ThreadPool pool(8);
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      pool.for_each_index(256, [](std::size_t i, unsigned) {
        if (i == 0) throw contract_error("boom at zero");
      });
      FAIL() << "expected contract_error";
    } catch (const contract_error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInvalidInput);
      EXPECT_TRUE(contains(e.what(), "boom at zero"));
      EXPECT_TRUE(contains(e.what(), "index 0"));
      EXPECT_TRUE(contains(e.what(), "worker "));
    }
  }
}

TEST(ThreadPoolErrors, ForeignExceptionsWrapAsInternal) {
  const ThreadPool pool(2);
  try {
    pool.for_each_index(8, [](std::size_t i, unsigned) {
      if (i == 3) throw std::runtime_error("plain failure");
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInternal);
    EXPECT_TRUE(contains(e.what(), "plain failure"));
    EXPECT_TRUE(contains(e.what(), "index 3"));
  }
}

// --- Stage-attributed deadline/cancel errors --------------------------------

void expire(CancelToken& token) {
  token.set_deadline_after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(token.cancelled());
}

TEST(StageErrors, EveryStageNamesItselfOnDeadline) {
  // An expired deadline aborts each stage at its entry poll with
  // Error{kDeadlineExceeded} carrying that stage's name, at every thread
  // count of the shared pool.
  const Circuit circuit = fsm_benchmark_circuit("bbtas");
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ThreadPool pool(threads);
    const DetectionDb db = DetectionDb::build(circuit, {}, pool);
    std::vector<std::size_t> all(db.untargeted().size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    Procedure1Config config;
    config.nmax = 2;
    config.num_sets = 4;

    const auto expect_stage = [&](const char* stage, const auto& call) {
      try {
        call();
        FAIL() << stage << ": expected Error";
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded) << stage;
        EXPECT_EQ(e.stage(), stage);
        EXPECT_TRUE(contains(e.what(), std::string("stage ") + stage));
      }
    };

    CancelToken db_token;
    expire(db_token);
    expect_stage("detection_db", [&] {
      (void)DetectionDb::build(circuit, {}, pool, &db_token);
    });
    CancelToken worst_token;
    expire(worst_token);
    expect_stage("worst_case",
                 [&] { (void)analyze_worst_case(db, pool, &worst_token); });
    CancelToken avg_token;
    expire(avg_token);
    expect_stage("average_case", [&] {
      (void)run_procedure1(db, all, config, pool, &avg_token);
    });
    CancelToken part_token;
    expire(part_token);
    expect_stage("partitioned", [&] {
      (void)partitioned_worst_case(circuit, PartitionOptions{}, pool,
                                   &part_token);
    });
  }
}

TEST(StageErrors, SessionDeadlineAbortsWithTelemetry) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SessionOptions options;
    options.num_threads = threads;
    options.deadline_ms = 1;
    AnalysisSession session(fsm_benchmark_circuit("bbtas"), options);
    ASSERT_NE(session.cancel(), nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    try {
      (void)session.worst_case();
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded);
      EXPECT_FALSE(e.stage().empty());
    }
    const SessionStats stats = session.stats();
    EXPECT_EQ(stats.deadline_ms, 1u);
    EXPECT_FALSE(stats.aborted_stage.empty());
    EXPECT_EQ(stats.abort_kind, "deadline_exceeded");
  }
}

TEST(StageErrors, TenPercentDeadlineAbortsWellUnderRuntime) {
  // The acceptance bar: a deadline at ~10% of the normal runtime aborts the
  // session with a stage-attributed kDeadlineExceeded in well under the
  // uninterrupted runtime, at every thread count.  keyb's pipeline runs
  // hundreds of milliseconds, so the 10% deadline lands mid-sweep.
  const Circuit circuit = fsm_benchmark_circuit("keyb");
  using clock = std::chrono::steady_clock;
  const auto ms_since = [](clock::time_point start) {
    return std::chrono::duration<double, std::milli>(clock::now() - start)
        .count();
  };
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto full_start = clock::now();
    {
      AnalysisSession full(circuit, {.num_threads = threads});
      (void)full.worst_case();
    }
    const double full_ms = ms_since(full_start);

    AnalysisSession bounded(
        circuit,
        {.num_threads = threads,
         .deadline_ms = std::max<std::uint64_t>(
             1, static_cast<std::uint64_t>(full_ms / 10.0))});
    const auto bounded_start = clock::now();
    try {
      (void)bounded.worst_case();
      FAIL() << "expected Error (full run took " << full_ms << " ms)";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kDeadlineExceeded);
      EXPECT_FALSE(e.stage().empty());
    }
    EXPECT_LT(ms_since(bounded_start), full_ms * 0.75);
  }
}

TEST(StageErrors, CallerTokenCancelsAcrossThreads) {
  // The caller's shared token, cancelled from another thread, aborts the
  // session's next stage as kCancelled with the caller's reason.
  SessionOptions options;
  options.num_threads = 4;
  options.cancel_token = std::make_shared<CancelToken>();
  AnalysisSession session(fsm_benchmark_circuit("dk27"), options);
  std::thread canceller(
      [token = options.cancel_token] { token->cancel("operator abort"); });
  canceller.join();
  try {
    (void)session.db();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
    EXPECT_TRUE(contains(e.what(), "operator abort"));
    EXPECT_FALSE(e.stage().empty());
  }
  EXPECT_EQ(session.stats().abort_kind, "cancelled");
}

TEST(StageErrors, RunBatchSurfacesPreCancelledToken) {
  SessionOptions options;
  options.num_threads = 2;
  options.cancel_token = std::make_shared<CancelToken>();
  options.cancel_token->cancel("batch abort");
  const std::vector<SessionRequest> requests{{"paper_example", {}},
                                             {"bbtas", {}}};
  try {
    (void)run_batch(requests, options);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
    EXPECT_FALSE(e.stage().empty());
  }
}

TEST(StageErrors, Procedure1ThrowsOnCancel) {
  // A fired token stops Procedure 1 and raises, attributed to its stage; no
  // partial result escapes.
  const Circuit circuit = paper_example();
  const ThreadPool pool(2);
  const DetectionDb db = DetectionDb::build(circuit, {}, pool);
  std::vector<std::size_t> all(db.untargeted().size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Procedure1Config config;
  config.nmax = 5;
  config.num_sets = 24;
  CancelToken fired;
  fired.cancel("no partials wanted");
  try {
    (void)run_procedure1(db, all, config, pool, &fired);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCancelled);
    EXPECT_EQ(e.stage(), "average_case");
  }
}

// --- Zero-overhead path -----------------------------------------------------

TEST(ZeroOverhead, LiveTokenChangesNoResult) {
  // A token that never fires must be invisible: bit-identical results with a
  // null token, a live token, and a live armed deadline far in the future.
  const Circuit circuit = fsm_benchmark_circuit("bbtas");
  const ThreadPool pool(4);
  const DetectionDb db = DetectionDb::build(circuit, {}, pool);
  const WorstCaseResult base = analyze_worst_case(db, pool, nullptr);

  CancelToken live;
  EXPECT_EQ(analyze_worst_case(db, pool, &live).nmin, base.nmin);
  CancelToken armed;
  armed.set_deadline_after_ms(3'600'000);
  EXPECT_EQ(analyze_worst_case(db, pool, &armed).nmin, base.nmin);
  EXPECT_FALSE(live.cancelled());
  EXPECT_FALSE(armed.cancelled());

  // Default session options take the zero-overhead path outright.
  EXPECT_EQ(AnalysisSession(circuit).cancel(), nullptr);
}

}  // namespace
}  // namespace ndet
