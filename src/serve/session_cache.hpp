// session_cache.hpp -- the daemon's bounded, byte-accounted cross-circuit
// LRU of analysis sessions.
//
// A long-lived server cannot let sessions live as long as the caller: every
// circuit it has ever seen would pin its frozen DetectionDb forever.  The
// cache owns one AnalysisSession per distinct (circuit, result-relevant
// SessionOptions) key -- max_inputs and representation change results and
// storage, thread width and deadlines do not, so only the former key the
// cache -- and charges each entry EXACTLY its database's
// set_memory_bytes(), the same accounting the session facade reports.
// When the charged total exceeds the byte budget, least-recently-used
// unpinned entries are evicted; a later request for the same key rebuilds
// the session and, because every stage is a deterministic function of
// (circuit, options), reproduces bit-identical results.
//
// Concurrency: the cache map and counters sit behind one mutex that is
// never held across analysis work.  Each entry carries its own busy flag;
// a Lease holds it for the duration of one request, so concurrent requests
// for the SAME key serialize on the entry (sessions are externally
// synchronized) while requests for different keys run fully in parallel.
// Contended entries hand off by PRIORITY, not arrival: a batch-priority
// acquire waits not just for the entry to free but for every interactive
// waiter to go first, so a flood of heavy batch requests queued on one hot
// circuit cannot starve an interactive request for the same key (lease
// fairness mirrors the admission queue's lanes; within a priority the
// condition-variable handoff is unordered, which is fine -- equal work).
// Leases also pin their entry: an entry evicted while leased just leaves
// the map (the shared_ptr keeps the session alive until the lease drops),
// so eviction can never invalidate an in-flight request.
//
// Charging happens at update() time, after a request's stages ran -- the
// database is built lazily, so the admission-time charge of a fresh entry
// is zero and the real bytes land when the lease is updated.  update() is
// an explicit call (not the Lease destructor) because it carries a
// fault-injection site ("serve.cache_evict") that may throw, and
// destructors must not.  The Lease destructor re-runs the (non-throwing)
// eviction when it drops the entry's last pin, so an entry larger than the
// budget -- which update() had to keep because its own lease pinned it --
// leaves as soon as the request is done.  See DESIGN.md "Analysis as a
// service".

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/session.hpp"

namespace ndet::serve {

/// The protocol's two-level request priority.  `interactive` is the
/// default: cheap, latency-sensitive work (stats, health, small analyses).
/// Heavy worst-case sweeps should declare `"priority":"batch"`.  It picks
/// the admission lane (serve/admission.hpp) and the lease handoff order.
enum class Priority { kInteractive = 0, kBatch = 1 };

/// Stable wire name ("interactive" / "batch").
const char* to_string(Priority priority);

/// The result-relevant session key: two requests share a cached session iff
/// all three fields match (thread width and deadlines never change results
/// and are deliberately excluded).
struct CacheKey {
  std::string circuit;
  int max_inputs = 20;
  SetRepresentation representation = SetRepresentation::kAdaptive;

  bool operator==(const CacheKey&) const = default;
  bool operator<(const CacheKey& other) const {
    if (circuit != other.circuit) return circuit < other.circuit;
    if (max_inputs != other.max_inputs) return max_inputs < other.max_inputs;
    return static_cast<int>(representation) <
           static_cast<int>(other.representation);
  }
};

/// Cache telemetry; every counter is cumulative since construction except
/// bytes/entries, which are the current residency.
struct SessionCacheStats {
  std::uint64_t hits = 0;        ///< acquire served an existing entry
  std::uint64_t misses = 0;      ///< acquire admitted a fresh entry
  std::uint64_t evictions = 0;   ///< entries dropped under byte pressure
  std::size_t bytes = 0;         ///< charged total (== sum set_memory_bytes)
  std::size_t entries = 0;       ///< resident entries
  std::size_t budget_bytes = 0;  ///< the configured budget
};

class SessionCache {
 public:
  /// `budget_bytes` bounds the charged total (0 = unbounded); `base` is the
  /// option template every cached session is constructed from (the key
  /// fields override its max_inputs/representation per request).
  explicit SessionCache(std::size_t budget_bytes, SessionOptions base = {});

  SessionCache(const SessionCache&) = delete;
  SessionCache& operator=(const SessionCache&) = delete;

  class Lease;

  /// Returns a lease on the key's session, admitting (and constructing) it
  /// on a miss.  Blocks while another lease holds the same entry; on a
  /// contended entry, interactive acquires are handed the lease before any
  /// waiting batch acquire (see the fairness note above).  Throws
  /// Error{kInvalidInput} when the circuit cannot be resolved (the entry is
  /// not admitted).
  Lease acquire(const CacheKey& key,
                Priority priority = Priority::kInteractive);

  /// Number of acquires currently blocked on the key's entry (telemetry
  /// and the fairness tests); 0 for unknown keys.
  int waiters(const CacheKey& key) const;

  /// Re-charges the leased entry to its session's current
  /// set_memory_bytes() and evicts least-recently-used unpinned entries
  /// until the charged total fits the budget again.  Call after a request's
  /// stages ran (success or abort -- a half-run request may still have
  /// built the database).  Fault-injection site "serve.cache_evict" fires
  /// here, before evicting, as Error{kResourceExhausted}.
  void update(const Lease& lease);

  /// Drops every unpinned entry (counted as evictions).
  void flush();

  SessionCacheStats stats() const;

  /// Resident circuit names in least-recently-used-first order (tests and
  /// the stats endpoint).
  std::vector<std::string> resident_lru_order() const;

  /// True when the key currently has a resident entry.
  bool contains(const CacheKey& key) const;

 private:
  struct Entry {
    CacheKey key;
    std::mutex mutex;               ///< guards busy/waiter handoff state
    std::condition_variable available;  ///< lease handoff (priority-aware)
    bool busy = false;              ///< a lease currently owns the session
    int interactive_waiters = 0;    ///< blocked interactive acquires
    int batch_waiters = 0;          ///< blocked batch acquires
    std::unique_ptr<AnalysisSession> session;  ///< built under lease on admit
    std::size_t charged = 0;        ///< bytes currently billed to the budget
    std::uint64_t last_use = 0;     ///< recency stamp (monotone counter)
    int pins = 0;                   ///< live leases (guarded by cache mutex)
    bool resident = true;           ///< false once evicted from the map
  };

  void evict_to_budget_locked();

  const std::size_t budget_bytes_;
  const SessionOptions base_;

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Entry>> entries_;  ///< resident set
  std::uint64_t use_counter_ = 0;
  SessionCacheStats stats_;

 public:
  /// RAII request-scoped handle: owns the entry's busy flag and pin.
  /// Movable, not copyable.  The destructor hands the entry to the next
  /// waiter (interactive first), releases the pin and, when that was the
  /// last pin, evicts down to the budget; charging is the explicit update()
  /// call.
  class Lease {
   public:
    Lease(Lease&&) noexcept = default;
    Lease& operator=(Lease&&) = delete;
    ~Lease();

    AnalysisSession& session() const { return *entry_->session; }
    bool hit() const { return hit_; }
    const CacheKey& key() const { return entry_->key; }

   private:
    friend class SessionCache;
    Lease(SessionCache* cache, std::shared_ptr<Entry> entry, bool hit)
        : cache_(cache), entry_(std::move(entry)), hit_(hit) {}

    SessionCache* cache_;
    std::shared_ptr<Entry> entry_;
    bool hit_;
  };
};

}  // namespace ndet::serve
