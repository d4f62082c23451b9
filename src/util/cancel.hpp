// cancel.hpp -- cooperative cancellation, deadlines, and the typed error
// taxonomy of the analysis pipeline.
//
// Every long-running stage (DetectionDb::build, the worst-case sweep,
// Procedure 1, the partitioned analysis) accepts an optional CancelToken and
// polls it at natural scheduling boundaries -- between ThreadPool index
// claims, between kernel tiles, between Procedure-1 iterations.  Polling at
// pool claim boundaries bounds cancellation latency by ONE body
// invocation: a worker that has claimed an index finishes it, then observes
// the token before claiming the next, so no lock, signal or thread kill is
// ever needed and worker-owned scratch state unwinds normally.
//
// A token carries an atomic flag (explicit cancel()) and an optional
// monotonic deadline; the first poll past the deadline latches the token
// into the DeadlineExceeded state, so every later poll is a single relaxed
// load.  Stages surface a fired token as a typed ndet::Error whose `kind`
// distinguishes caller cancellation from deadline expiry from input errors
// from injected resource exhaustion, and whose `stage` names the pipeline
// stage that observed it -- the daemon-facing contract the ROADMAP's
// analysis-as-a-service item needs.
//
// The null token is the zero-overhead path: every poll site short-circuits
// on `token == nullptr` before touching any atomic, so code that never asks
// for cancellation pays nothing.  See DESIGN.md "Cancellation, deadlines,
// and error taxonomy".

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

namespace ndet {

/// The pipeline's error taxonomy.  Every error thrown from util/check.hpp
/// outward is an ndet::Error carrying one of these kinds, so callers (CLIs,
/// the future daemon) can map failures to exit codes / responses without
/// string matching.
enum class ErrorKind {
  kCancelled,          ///< a caller cancelled the token
  kDeadlineExceeded,   ///< the token's monotonic deadline passed
  kInvalidInput,       ///< malformed input or API-contract violation
  kResourceExhausted,  ///< allocation or capacity failure
  kInternal,           ///< unexpected failure (wrapped foreign exceptions)
};

/// Stable lower-case name ("cancelled", "deadline_exceeded", ...).
const char* to_string(ErrorKind kind);

/// The typed exception of the pipeline.  `what()` is the human-readable
/// message; `kind()` routes handling; `stage()` names the pipeline stage
/// that raised or first observed the error ("" until a stage attaches it).
/// Context accumulates: ThreadPool appends "[worker w, index i]" and the
/// session facade appends the stage, so a propagated error tells the whole
/// story without losing its original type or kind.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind), what_(message) {}
  Error(ErrorKind kind, const std::string& message, std::string stage)
      : std::runtime_error(message),
        kind_(kind),
        what_(message),
        stage_(std::move(stage)) {}

  ErrorKind kind() const { return kind_; }
  const std::string& stage() const { return stage_; }
  const char* what() const noexcept override { return what_.c_str(); }

  /// Appends bracketed context to the message (e.g. worker id + index).
  void add_context(const std::string& context) {
    what_ += " [" + context + "]";
  }

  /// Attaches the observing pipeline stage (first writer wins) and mirrors
  /// it into the message.
  void attach_stage(const std::string& stage) {
    if (!stage_.empty()) return;
    stage_ = stage;
    what_ += " [stage " + stage + "]";
  }

 private:
  ErrorKind kind_;
  std::string what_;
  std::string stage_;
};

/// Cooperative cancellation token: an atomic flag plus an optional monotonic
/// deadline and a reason string.  Thread-safe; shared by pointer between the
/// requester and any number of workers (the class is neither copyable nor
/// movable, matching its identity semantics).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Cancels the token (idempotent; the first reason wins).  Safe from any
  /// thread, including concurrently with polls.
  void cancel(const std::string& reason = "cancelled by caller");

  /// Arms (or tightens) the monotonic deadline to now + `ms`.  A second call
  /// keeps the earlier of the two deadlines.  An `ms` past the clock's
  /// range arms nothing (see deadline_after_ms).
  void set_deadline_after_ms(std::uint64_t ms);

  /// Absolute variant of set_deadline_after_ms.
  void set_deadline(std::chrono::steady_clock::time_point deadline);

  /// Names the deadline so a fired one reports "<label> exceeded" instead
  /// of the generic "deadline exceeded".  The serving layer labels its one
  /// drain token "drain budget"; request tokens chained under it inherit
  /// the message (chain_parent), so a drained-out request stays
  /// distinguishable from an ordinary per-request deadline in responses
  /// and logs.  The error KIND stays kDeadlineExceeded either way (drain is
  /// a deadline, not a caller cancel).  First label wins; thread-safe.
  void label_deadline(const std::string& label);

  /// Chains a parent token: once the parent fires, this token latches with
  /// the parent's kind AND reason on the next poll -- a fired parent
  /// deadline reads as the parent's "<label> exceeded", not as this
  /// token's own -- so a batch- or server-wide cancel or budget propagates
  /// into every per-request token without the requests sharing deadline
  /// state.  Chains nest; each level adds its own checks to every live
  /// poll.  Must be called before the token is shared with pollers (the
  /// parent pointer itself is not synchronized); the parent is held alive
  /// by the shared_ptr.  One parent per token.
  void chain_parent(std::shared_ptr<const CancelToken> parent);

  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != kNoDeadline;
  }

  /// True once cancel() ran or the deadline passed.  The deadline latches on
  /// first observation, so a fired token never un-fires and repeat polls are
  /// one relaxed load.
  bool cancelled() const;

  /// The kind a fired token raises as: kCancelled or kDeadlineExceeded.
  /// Meaningful only when cancelled() is true.
  ErrorKind kind() const;

  /// The cancel() reason, or a synthesized deadline message.
  std::string reason() const;

  /// Seconds until the deadline (negative once passed); +infinity when no
  /// deadline is armed.  Telemetry only.
  double remaining_seconds() const;

  /// Throws Error{kind(), reason(), stage} when the token has fired; no-op
  /// otherwise.  Stages call this at their boundaries so the error names
  /// the stage that observed the cancellation.
  void check(const char* stage) const;

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();
  static std::int64_t now_ns();

  enum : int { kLive = 0, kByCaller = 1, kByDeadline = 2 };
  mutable std::atomic<int> state_{kLive};
  mutable std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
  mutable std::mutex reason_mutex_;
  mutable std::string reason_;
  /// "<label> exceeded", or a fired parent's deadline reason; guarded by
  /// reason_mutex_.
  mutable std::string deadline_reason_;
  std::shared_ptr<const CancelToken> parent_;  ///< set-once, pre-sharing
};

/// now + `ms` on the steady clock, or nullopt when that instant lies past
/// the clock's int64-nanosecond range (about 292 years out, so from about
/// 9.2e12 ms).  Such a deadline is no deadline: computed naively it
/// overflows into one that has already passed.
std::optional<std::chrono::steady_clock::time_point> deadline_after_ms(
    std::uint64_t ms);

/// Poll helper for the pervasive `const CancelToken*` plumbing: false on the
/// null token (the zero-overhead path).
inline bool is_cancelled(const CancelToken* token) {
  return token != nullptr && token->cancelled();
}

/// Throw helper: raises the token's error with `stage` attached when fired.
inline void check_cancel(const CancelToken* token, const char* stage) {
  if (token != nullptr) token->check(stage);
}

}  // namespace ndet
