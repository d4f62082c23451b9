// session.hpp -- the one front door to the paper's pipeline.
//
// The analysis is one fixed chain -- exhaustive detection sets (DetectionDb),
// the worst-case nmin sweep (Section 2), then Procedure 1 over the monitored
// faults (Section 3) -- yet every consumer used to re-chain it by hand with
// three divergent option structs and three private worker pools.
// AnalysisSession owns the chain for one circuit: one consolidated
// SessionOptions, ONE shared ThreadPool for the session's lifetime, and
// lazy, memoized stage accessors, so repeated queries (Table 5 vs Table 6,
// ablation sweeps, threshold scans) reuse the frozen database and nmin
// vector instead of rebuilding them.  The stage functions
// (DetectionDb::build, analyze_worst_case, run_procedure1,
// partitioned_worst_case) each have exactly one entry point taking a
// caller-owned pool; every accessor delegates to them with the shared pool,
// so session results are bit-identical to direct calls at every thread
// count.
//
// A session is single-threaded on the outside (accessors memoize without
// locks); parallelism lives inside the stages.  run_batch is the
// multi-circuit driver: it pipelines whole circuits across the pool, one
// session per request, and returns the completed sessions index-aligned.
//
// See DESIGN.md "Session facade" for ownership, memo keys, pool sharing and
// batch scheduling.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/detection_db.hpp"
#include "core/partition.hpp"
#include "core/procedure1.hpp"
#include "core/worst_case.hpp"
#include "netlist/circuit.hpp"
#include "util/thread_pool.hpp"

namespace ndet {

/// The one option struct of the pipeline.  One thread convention for every
/// stage: 0 = all hardware threads (resolve_thread_count), any other value
/// is the exact worker-pool width.  Thread counts never change any result.
struct SessionOptions {
  int max_inputs = 20;       ///< exhaustive-simulation input limit
  unsigned num_threads = 0;  ///< worker-pool width; 0 = all hardware threads
  /// Storage policy for the frozen T(f)/T(g) sets.
  SetRepresentation representation = SetRepresentation::kAdaptive;
  /// Wall-clock budget for the whole session, armed at construction; 0 = no
  /// deadline.  Expiry aborts the running stage with
  /// Error{kDeadlineExceeded} naming the stage that observed it.
  std::uint64_t deadline_ms = 0;
  /// Caller-owned cancellation token, shared with the session (the deadline,
  /// if any, is tightened onto it).  Null + no deadline = the zero-overhead
  /// path: stages never touch a token.
  std::shared_ptr<CancelToken> cancel_token = nullptr;
};

/// One average-case query: the Procedure-1 parameters plus the monitored
/// list, which together key the session's memo.  Two requests hit the same
/// cache entry iff every field compares equal.
struct Procedure1Request : Procedure1Config {
  /// Monitored untargeted-fault indices.  Disengaged derives the paper's
  /// monitored set from the worst-case stage: the faults with
  /// nmin(g) > nmax (Tables 5/6).
  std::optional<std::vector<std::size_t>> monitored;

  bool operator==(const Procedure1Request&) const = default;
};

/// Session telemetry: wall-clock per stage, memo traffic, and the frozen
/// database's storage footprint (0 until the db stage has run).
struct SessionStats {
  unsigned thread_count = 0;  ///< resolved shared-pool width
  std::string simd_level;     ///< active kernel dispatch level (simd::level_name)
  std::string rng_engine;     ///< Procedure 1's counter RNG (CounterRng name)

  std::uint64_t deadline_ms = 0;  ///< SessionOptions::deadline_ms, echoed
  /// When a stage aborted on a typed error: the innermost stage that
  /// observed it and the error kind ("deadline_exceeded", ...).  Empty while
  /// the session has only succeeded.
  std::string aborted_stage;
  std::string abort_kind;

  double db_seconds = 0.0;
  double worst_case_seconds = 0.0;
  double average_case_seconds = 0.0;  ///< summed over distinct requests
  double partitioned_seconds = 0.0;   ///< summed over distinct budgets

  std::size_t db_hits = 0;            ///< db() calls served from the memo
  std::size_t worst_case_hits = 0;
  std::size_t monitored_hits = 0;
  std::size_t average_case_hits = 0;
  std::size_t partitioned_hits = 0;
  std::size_t average_case_entries = 0;  ///< distinct memoized requests

  std::size_t set_memory_bytes = 0;    ///< frozen sets, chosen policy
  std::size_t dense_memory_bytes = 0;  ///< same sets stored all-dense
};

/// Serializes stats as a JSON object.
std::string to_json(const SessionStats& stats);

/// The facade: one circuit, one pool, every pipeline stage memoized.
class AnalysisSession {
 public:
  /// Takes the circuit by value; the session is self-contained.
  explicit AnalysisSession(Circuit circuit, SessionOptions options = {});
  /// Resolves the name like every CLI does: an FSM benchmark, an embedded
  /// combinational circuit, or a path to a .bench file.
  explicit AnalysisSession(const std::string& circuit_name,
                           SessionOptions options = {});

  AnalysisSession(AnalysisSession&&) = default;
  AnalysisSession& operator=(AnalysisSession&&) = default;

  const Circuit& circuit() const { return circuit_; }
  const SessionOptions& options() const { return options_; }
  /// The shared worker pool every stage runs on.
  const ThreadPool& pool() const { return pool_; }
  /// The session's effective cancellation token: the caller's token (with
  /// the deadline tightened onto it), a session-owned one when only a
  /// deadline was requested, or null -- the zero-overhead path.
  const CancelToken* cancel() const { return token_.get(); }

  /// Serving-layer lifecycle: replaces the session's cancellation token and
  /// clears the abort telemetry, so a long-lived cached session can serve a
  /// fresh request after an earlier one was cancelled or deadline'd.  Tokens
  /// latch and deadlines only tighten, so reuse requires a FRESH token per
  /// request (`deadline_ms`, when nonzero, is armed on it here).  An aborted
  /// stage never populates its memo slot -- the failed stage simply reruns
  /// -- so rearming cannot serve a poisoned result.  The caller must
  /// serialize rearm() with the accessors (sessions are externally
  /// synchronized, as always).
  void rearm(std::uint64_t deadline_ms = 0,
             std::shared_ptr<CancelToken> token = nullptr);

  /// The exhaustive detection-set database; built on first call.
  const DetectionDb& db();

  /// The Section-2 worst-case analysis; computed on first call.
  const WorstCaseResult& worst_case();

  /// The monitored untargeted faults for a given nmax: indices with
  /// nmin(g) > nmax, i.e. the faults no nmax-detection test set is
  /// guaranteed to detect.  Memoized per nmax.
  std::span<const std::size_t> monitored(int nmax);

  /// The Section-3 average-case analysis for one request; memoized by the
  /// full request (distinct requests never collide).  The returned
  /// reference is stable for the session's lifetime, so repeated queries
  /// return the same object.
  const AverageCaseResult& average_case(const Procedure1Request& request);

  /// Section 4's per-cone worst-case summaries; memoized by the full
  /// partition request (budget vs structure mode, thresholds).  The
  /// returned reference is stable for the session's lifetime.
  const std::vector<ConeReport>& partitioned(const PartitionOptions& request);

  SessionStats stats() const;

 private:
  // Build-if-needed internals used by dependent stages.  Only the public
  // accessors count cache hits, so SessionStats reflects the caller's
  // traffic, not the pipeline's internal chaining.
  const DetectionDb& ensure_db();
  const WorstCaseResult& ensure_worst_case();
  const std::vector<std::size_t>& ensure_monitored(int nmax);

  /// Runs one stage body, recording abort telemetry and attaching `stage`
  /// to any escaping typed error (an inner stage's name wins).
  template <typename Work>
  auto guard_stage(const char* stage, Work&& work) {
    try {
      return work();
    } catch (Error& e) {
      e.attach_stage(stage);
      stats_.aborted_stage = e.stage();
      stats_.abort_kind = to_string(e.kind());
      throw;
    }
  }

  Circuit circuit_;
  SessionOptions options_;
  ThreadPool pool_;
  std::shared_ptr<CancelToken> token_;

  std::optional<DetectionDb> db_;
  std::optional<WorstCaseResult> worst_;
  std::map<int, std::vector<std::size_t>> monitored_;
  /// unique_ptr slots keep result addresses stable across memo growth.
  std::vector<std::pair<Procedure1Request, std::unique_ptr<AverageCaseResult>>>
      average_;
  std::vector<std::pair<PartitionOptions, std::unique_ptr<std::vector<ConeReport>>>>
      partitioned_;
  SessionStats stats_;
};

/// One unit of batch work: a circuit plus the average-case queries to run
/// after its worst-case stage.  A derived (monitored == nullopt) request is
/// skipped when the circuit has no monitored fault at its nmax -- the
/// paper's tables only run Procedure 1 on tail circuits.
struct SessionRequest {
  std::string circuit;  ///< resolved like every CLI circuit argument
  std::vector<Procedure1Request> average;
};

/// Runs every request's pipeline with whole circuits sharded across the
/// worker pool (options.num_threads wide; the remaining width is split
/// evenly among each circuit's nested stages, as in partitioned_worst_case)
/// and returns the completed sessions index-aligned with the requests.
/// Results are bit-identical to running each request's session serially.
/// options.deadline_ms / options.cancel_token cover the WHOLE batch: one
/// effective token is armed up front and shared by every session, so a
/// fired token stops in-flight stages and unclaimed requests alike, raising
/// Error with the innermost observing stage (or "batch" when it fired
/// between requests).
std::vector<AnalysisSession> run_batch(std::span<const SessionRequest> requests,
                                       const SessionOptions& options = {});

/// The report CLIs' shared JSON envelope: {circuit, worst_case,
/// average_case (null unless given), session}.  Forces the worst-case
/// stage if it has not run yet.
std::string session_report_json(AnalysisSession& session,
                                const AverageCaseResult* average = nullptr);

}  // namespace ndet
