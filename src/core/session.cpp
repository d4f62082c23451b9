#include "core/session.hpp"

#include <chrono>

#include "fsm/benchmarks.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace ndet {

namespace {

/// Seconds elapsed running `work`, added to `sink`; returns work's result.
template <typename Sink, typename Work>
auto timed(Sink& sink, Work&& work) {
  const auto start = std::chrono::steady_clock::now();
  auto result = work();
  sink += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
  return result;
}

}  // namespace

std::string to_json(const SessionStats& stats) {
  JsonWriter w;
  w.begin_object();
  w.key("thread_count").value(stats.thread_count);
  w.key("simd_level").value(stats.simd_level);
  w.key("rng_engine").value(stats.rng_engine);
  w.key("deadline_ms").value(stats.deadline_ms);
  if (stats.aborted_stage.empty())
    w.key("aborted_stage").null();
  else
    w.key("aborted_stage").value(stats.aborted_stage);
  if (stats.abort_kind.empty())
    w.key("abort_kind").null();
  else
    w.key("abort_kind").value(stats.abort_kind);
  w.key("db_seconds").value(stats.db_seconds);
  w.key("worst_case_seconds").value(stats.worst_case_seconds);
  w.key("average_case_seconds").value(stats.average_case_seconds);
  w.key("partitioned_seconds").value(stats.partitioned_seconds);
  w.key("db_hits").value(static_cast<std::uint64_t>(stats.db_hits));
  w.key("worst_case_hits")
      .value(static_cast<std::uint64_t>(stats.worst_case_hits));
  w.key("monitored_hits")
      .value(static_cast<std::uint64_t>(stats.monitored_hits));
  w.key("average_case_hits")
      .value(static_cast<std::uint64_t>(stats.average_case_hits));
  w.key("partitioned_hits")
      .value(static_cast<std::uint64_t>(stats.partitioned_hits));
  w.key("average_case_entries")
      .value(static_cast<std::uint64_t>(stats.average_case_entries));
  w.key("set_memory_bytes")
      .value(static_cast<std::uint64_t>(stats.set_memory_bytes));
  w.key("dense_memory_bytes")
      .value(static_cast<std::uint64_t>(stats.dense_memory_bytes));
  w.end_object();
  return w.str();
}

AnalysisSession::AnalysisSession(Circuit circuit, SessionOptions options)
    : circuit_(std::move(circuit)),
      options_(options),
      pool_(options.num_threads),
      token_(options.cancel_token) {
  // The deadline covers the whole session and is armed here, at
  // construction; it tightens onto a caller token when one was shared.
  if (options.deadline_ms > 0) {
    if (!token_) token_ = std::make_shared<CancelToken>();
    token_->set_deadline_after_ms(options.deadline_ms);
  }
  stats_.thread_count = pool_.thread_count();
  stats_.simd_level = simd::level_name(simd::active_level());
  stats_.rng_engine = CounterRng::kEngineName;
  stats_.deadline_ms = options.deadline_ms;
}

AnalysisSession::AnalysisSession(const std::string& circuit_name,
                                 SessionOptions options)
    : AnalysisSession(resolve_circuit(circuit_name), options) {}

void AnalysisSession::rearm(std::uint64_t deadline_ms,
                            std::shared_ptr<CancelToken> token) {
  token_ = std::move(token);
  if (deadline_ms > 0) {
    if (!token_) token_ = std::make_shared<CancelToken>();
    token_->set_deadline_after_ms(deadline_ms);
  }
  stats_.deadline_ms = deadline_ms;
  stats_.aborted_stage.clear();
  stats_.abort_kind.clear();
}

const DetectionDb& AnalysisSession::ensure_db() {
  if (db_) return *db_;
  DetectionDbOptions db_options;
  db_options.max_inputs = options_.max_inputs;
  db_options.representation = options_.representation;
  db_ = timed(stats_.db_seconds, [&] {
    return guard_stage("detection_db", [&] {
      return DetectionDb::build(circuit_, db_options, pool_, cancel());
    });
  });
  return *db_;
}

const DetectionDb& AnalysisSession::db() {
  if (db_) ++stats_.db_hits;
  return ensure_db();
}

const WorstCaseResult& AnalysisSession::ensure_worst_case() {
  if (worst_) return *worst_;
  const DetectionDb& database = ensure_db();
  worst_ = timed(stats_.worst_case_seconds, [&] {
    return guard_stage("worst_case", [&] {
      return analyze_worst_case(database, pool_, cancel());
    });
  });
  return *worst_;
}

const WorstCaseResult& AnalysisSession::worst_case() {
  if (worst_) ++stats_.worst_case_hits;
  return ensure_worst_case();
}

const std::vector<std::size_t>& AnalysisSession::ensure_monitored(int nmax) {
  require(nmax >= 1, "AnalysisSession::monitored: nmax must be >= 1");
  const auto it = monitored_.find(nmax);
  if (it != monitored_.end()) return it->second;
  std::vector<std::size_t> indices = ensure_worst_case().indices_at_least(
      static_cast<std::uint64_t>(nmax) + 1);
  return monitored_.emplace(nmax, std::move(indices)).first->second;
}

std::span<const std::size_t> AnalysisSession::monitored(int nmax) {
  if (monitored_.contains(nmax)) ++stats_.monitored_hits;
  return ensure_monitored(nmax);
}

const AverageCaseResult& AnalysisSession::average_case(
    const Procedure1Request& request) {
  for (auto& [key, result] : average_) {
    if (key == request) {
      ++stats_.average_case_hits;
      return *result;
    }
  }
  const std::span<const std::size_t> faults =
      request.monitored ? std::span<const std::size_t>(*request.monitored)
                        : ensure_monitored(request.nmax);
  const DetectionDb& database = ensure_db();
  auto result = timed(stats_.average_case_seconds, [&] {
    return guard_stage("average_case", [&] {
      return std::make_unique<AverageCaseResult>(
          run_procedure1(database, faults, request, pool_, cancel()));
    });
  });
  average_.emplace_back(request, std::move(result));
  return *average_.back().second;
}

const std::vector<ConeReport>& AnalysisSession::partitioned(
    const PartitionOptions& request) {
  for (auto& [key, reports] : partitioned_) {
    if (key == request) {
      ++stats_.partitioned_hits;
      return *reports;
    }
  }
  auto reports = timed(stats_.partitioned_seconds, [&] {
    return guard_stage("partitioned", [&] {
      return std::make_unique<std::vector<ConeReport>>(
          partitioned_worst_case(circuit_, request, pool_, cancel()));
    });
  });
  partitioned_.emplace_back(request, std::move(reports));
  return *partitioned_.back().second;
}

SessionStats AnalysisSession::stats() const {
  SessionStats stats = stats_;
  stats.average_case_entries = average_.size();
  if (db_) {
    stats.set_memory_bytes = db_->set_memory_bytes();
    stats.dense_memory_bytes = db_->dense_memory_bytes();
  }
  return stats;
}

std::vector<AnalysisSession> run_batch(std::span<const SessionRequest> requests,
                                       const SessionOptions& options) {
  // Whole circuits shard across the pool, and every circuit's session is
  // as wide as the pool: nested stages share the process's executor, whose
  // helpers join only while fewer threads than the widest pool are inside
  // job bodies.  All batch work runs inside this call's bodies, so the
  // batch never oversubscribes, and a tail circuit gets the idle threads.
  // Each worker owns its request's session end to end and writes one
  // index-aligned slot, so the batch is bit-identical to running the
  // requests one by one.
  const ThreadPool pool(options.num_threads);

  // One effective token for the whole batch, armed once up front: every
  // session shares it, so a deadline or caller cancel stops in-flight
  // stages and unclaimed requests alike.
  std::shared_ptr<CancelToken> batch_token = options.cancel_token;
  if (options.deadline_ms > 0) {
    if (!batch_token) batch_token = std::make_shared<CancelToken>();
    batch_token->set_deadline_after_ms(options.deadline_ms);
  }
  SessionOptions per_circuit = options;
  per_circuit.cancel_token = batch_token;
  per_circuit.deadline_ms = 0;  // already armed on the shared token

  std::vector<std::optional<AnalysisSession>> slots(requests.size());
  try {
    pool.for_each_index(requests.size(), [&](std::size_t i, unsigned) {
      AnalysisSession session(requests[i].circuit, per_circuit);
      session.worst_case();
      for (const Procedure1Request& request : requests[i].average) {
        if (!request.monitored && session.monitored(request.nmax).empty())
          continue;  // tail-circuit convention: nothing to estimate
        session.average_case(request);
      }
      slots[i] = std::move(session);
    }, batch_token.get());
  } catch (Error& e) {
    // Failures raised by the sharding loop itself (not inside any session
    // stage) still need an attribution; attach_stage is first-writer-wins,
    // so stage names set inside a session survive untouched.
    e.attach_stage("batch");
    throw;
  }
  check_cancel(batch_token.get(), "batch");

  std::vector<AnalysisSession> sessions;
  sessions.reserve(slots.size());
  for (auto& slot : slots) sessions.push_back(std::move(*slot));
  return sessions;
}

std::string session_report_json(AnalysisSession& session,
                                const AverageCaseResult* average) {
  JsonWriter w;
  w.begin_object();
  w.key("circuit").value(session.circuit().name());
  w.key("worst_case").raw(to_json(session.worst_case()));
  if (average)
    w.key("average_case").raw(to_json(*average));
  else
    w.key("average_case").null();
  w.key("session").raw(to_json(session.stats()));
  w.end_object();
  return w.str();
}

}  // namespace ndet
