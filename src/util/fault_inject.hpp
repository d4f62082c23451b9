// fault_inject.hpp -- deterministic fault-injection harness for robustness
// testing.
//
// Production code marks injection SITES -- named points where a rare failure
// could occur in the field (a worker thread throwing, an allocation failing
// while the detection database or the kernel tiles are packed, a worker
// stalling).  The chaos tests arm sites with a firing probability and a
// seed; every site decision is a pure function of (seed, site, per-site
// call counter) through the counter-based RNG, so a chaos run's failure
// schedule is bit-reproducible from its seed.
//
// The harness is compiled OUT by default: unless the build sets
// -DNDET_FAULT_INJECT=ON (which defines NDET_FAULT_INJECT_ENABLED), every
// NDET_INJECT macro expands to nothing and the hooks below are constexpr
// no-ops, so release binaries carry zero overhead and no injection surface.
//
// Arming, either per process via the environment or per test via code:
//   NDET_FAULT_INJECT="<site>:<probability>:<seed>[,<site>:<prob>:<seed>...]"
//   fault_inject::arm("thread_pool.worker_throw", 0.01, 42);
//
// Site registry (kept in sync with DESIGN.md "Cancellation, deadlines, and
// error taxonomy"):
//   thread_pool.worker_throw  -- a worker throws Error{kInternal} before
//                                a body
//   thread_pool.slow_worker   -- a worker sleeps ~1ms before a body
//   detection_db.alloc        -- DetectionDb::build fails with
//                                Error{kResourceExhausted}
//   pair_kernels.pack         -- tile packing fails with
//                                Error{kResourceExhausted}
//   serve.accept              -- the TCP accept loop closes a new
//                                connection before reading from it
//   serve.parse               -- request parsing fails with
//                                Error{kInvalidInput}
//   serve.cache_evict         -- session-cache eviction fails with
//                                Error{kResourceExhausted}
//   serve.queue_full          -- Server::submit sheds an admissible line as
//                                if the admission queue were full
//   serve.drain               -- a request dispatched while the server is
//                                not serving fails with Error{kCancelled}

#pragma once

#include <cstdint>
#include <string>

namespace ndet::fault_inject {

#if defined(NDET_FAULT_INJECT_ENABLED)
inline constexpr bool kCompiled = true;

/// Arms `site` to fire with `probability` per call, deterministically from
/// `seed`.  Replaces any previous arming of the site.
void arm(const std::string& site, double probability, std::uint64_t seed);

/// Parses NDET_FAULT_INJECT from the environment (see header comment);
/// called lazily on the first should_fire.  Invalid specs are ignored.
void arm_from_env();

/// Disarms every site and resets all call counters.
void disarm_all();

/// Number of times `site` actually fired (for chaos-test assertions).
std::uint64_t fire_count(const std::string& site);

/// Number of times `site` was polled.
std::uint64_t poll_count(const std::string& site);

/// The hook production code polls: true when the armed site fires on this
/// call.  Unarmed sites never fire and cost one hash lookup.
bool should_fire(const char* site);

/// Sleeps ~1ms; the action of the slow-worker sites.
void inject_delay();

#define NDET_INJECT(site, action)                          \
  do {                                                     \
    if (::ndet::fault_inject::should_fire(site)) {         \
      action;                                              \
    }                                                      \
  } while (0)

#else  // !NDET_FAULT_INJECT_ENABLED

inline constexpr bool kCompiled = false;

inline void arm(const std::string&, double, std::uint64_t) {}
inline void arm_from_env() {}
inline void disarm_all() {}
inline std::uint64_t fire_count(const std::string&) { return 0; }
inline std::uint64_t poll_count(const std::string&) { return 0; }
inline bool should_fire(const char*) { return false; }
inline void inject_delay() {}

#define NDET_INJECT(site, action) \
  do {                            \
  } while (0)

#endif  // NDET_FAULT_INJECT_ENABLED

}  // namespace ndet::fault_inject
