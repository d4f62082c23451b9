// admission.hpp -- the daemon's bounded, priority-laned admission queue
// and its shedding policy.
//
// The acceptor -> queue -> dispatcher path of PR 9 had an implicit,
// transport-local buffer with no shedding story: a hostile client could
// queue unbounded work and a polite one behind it starved.  This queue is
// the explicit admission point: it is bounded by DEPTH (queued lines) and
// BYTES (summed line lengths), split into two priority lanes
// (`interactive` ahead of `batch`), and it NEVER silently drops -- every
// offered line either enters the queue or is returned to the caller
// (rejected, or displaced to make room for higher-priority work), and the
// caller owes exactly one typed `ResourceExhausted` response for each
// returned line.
//
// Shedding policy (reject-newest, priority-honoring):
//   * An offer that fits both bounds is admitted.
//   * An offer that would exceed a bound is REJECTED (the newest work
//     loses -- queued work is never abandoned once admitted)...
//   * ...unless the offer is `interactive` and the batch lane is
//     non-empty: then the NEWEST batch entries are displaced until the
//     offer fits, so cheap interactive requests survive a flood of heavy
//     batch sweeps.  Displaced entries are handed back to the caller,
//     which answers each with the same typed shed response -- displacement
//     moves the rejection, it never loses a line.
//
// Dispatch order is deterministic at the queue level: strictly
// interactive-first, FIFO (admission sequence) within each lane.  A batch
// flood therefore cannot starve interactive work; the converse starvation
// is accepted by design and documented (DESIGN.md "Overload and
// lifecycle").
//
// Lines are parsed once, before they are offered: the queue holds parsed
// requests, so a malformed or over-cap line is answered by the caller and
// never takes queue room, and the dispatcher serves what it pops without
// parsing again.
//
// Concurrency: one mutex, two condition-free lanes (offers never block --
// admission control means telling the client NOW, not making it wait);
// pop() blocks dispatchers until work or close().

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace ndet::serve {

/// One admitted request line.  `respond` delivers the response line to the
/// line's transport and MUST be invoked exactly once per line -- the
/// exactly-one-response invariant the chaos suite asserts.
struct AdmittedLine {
  Request request;         ///< the line, parsed at admission
  std::size_t bytes = 0;   ///< the line's length, charged to the byte bound
  std::chrono::steady_clock::time_point enqueued_at;
  std::function<void(std::string&&)> respond;
};

/// Cumulative admission telemetry (all counters monotone since
/// construction except depth/bytes, which are current residency).
struct AdmissionStats {
  std::size_t depth = 0;            ///< currently queued lines
  std::size_t bytes = 0;            ///< currently queued bytes
  std::size_t peak_depth = 0;       ///< high-water mark of depth
  std::uint64_t admitted = 0;       ///< offers that entered the queue
  std::uint64_t shed_interactive = 0;  ///< rejected interactive offers
  std::uint64_t shed_batch = 0;        ///< rejected batch offers
  std::uint64_t displaced = 0;      ///< batch entries evicted for interactive
};

class AdmissionQueue {
 public:
  /// `max_depth` bounds queued lines, `max_bytes` bounds their summed
  /// byte counts (0 = unbounded for either).
  AdmissionQueue(std::size_t max_depth, std::size_t max_bytes);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Offers one line for admission; never blocks.  Returns true when the
  /// line was admitted (moved from `line`).  Returns false when it was
  /// shed (reject-newest): `line` is left intact -- responder included --
  /// and the caller owes it a typed shed response.  Either way, every
  /// batch entry displaced to admit an interactive offer is appended to
  /// `displaced`, and the caller owes each of those a shed response too.
  /// After close(), every offer is shed.
  bool offer(AdmittedLine& line, std::vector<AdmittedLine>* displaced);

  /// Blocks until a line is available (interactive lane first, FIFO within
  /// a lane) or the queue is closed and empty; false on the latter.
  bool pop(AdmittedLine& out);

  /// Stops admission and wakes every blocked pop().  Already-queued lines
  /// still pop: close() starts the drain, it does not drop work.
  void close();

  AdmissionStats stats() const;

  /// Current depth (both lanes); the overload signal for health reports
  /// and retry hints.
  std::size_t depth() const;

 private:
  bool fits_locked(std::size_t line_bytes) const;

  const std::size_t max_depth_;
  const std::size_t max_bytes_;

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<AdmittedLine> interactive_;
  std::deque<AdmittedLine> batch_;
  AdmissionStats stats_;
  bool closed_ = false;
};

}  // namespace ndet::serve
