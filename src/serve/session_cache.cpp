#include "serve/session_cache.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/fault_inject.hpp"

namespace ndet::serve {

const char* to_string(Priority priority) {
  return priority == Priority::kBatch ? "batch" : "interactive";
}

SessionOptions session_options(const CacheKey& key, SessionOptions base) {
  base.max_inputs = key.max_inputs;
  base.representation = key.representation;
  return base;
}

SessionCache::SessionCache(std::size_t budget_bytes, SessionOptions base)
    : budget_bytes_(budget_bytes), base_(base) {
  stats_.budget_bytes = budget_bytes;
}

SessionCache::Lease SessionCache::acquire(const CacheKey& key,
                                          Priority priority) {
  std::shared_ptr<Entry> entry;
  bool hit = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::shared_ptr<Entry>& candidate : entries_) {
      if (candidate->key == key) {
        entry = candidate;
        hit = true;
        break;
      }
    }
    if (entry == nullptr) {
      entry = std::make_shared<Entry>();
      entry->key = key;
      entries_.push_back(entry);
      ++stats_.misses;
      ++stats_.entries;
    } else {
      ++stats_.hits;
    }
    entry->last_use = ++use_counter_;
    ++entry->pins;
  }

  // The entry's busy handoff happens OUTSIDE the cache mutex (a slow
  // request on this key must not block unrelated keys), and the session is
  // constructed under the busy flag so concurrent first requests for one
  // key build exactly once.  Batch acquires additionally yield to every
  // blocked interactive acquire -- the lease-level priority lane.
  {
    std::unique_lock<std::mutex> lock(entry->mutex);
    if (priority == Priority::kInteractive) {
      ++entry->interactive_waiters;
      entry->available.wait(lock, [&] { return !entry->busy; });
      --entry->interactive_waiters;
    } else {
      ++entry->batch_waiters;
      entry->available.wait(lock, [&] {
        return !entry->busy && entry->interactive_waiters == 0;
      });
      --entry->batch_waiters;
    }
    entry->busy = true;
  }
  Lease lease(this, entry, hit);
  if (entry->session == nullptr) {
    try {
      entry->session = std::make_unique<AnalysisSession>(
          key.circuit, session_options(key, base_));
    } catch (...) {
      // Never leave a session-less entry resident: later acquires would
      // keep retrying a key that cannot construct (bad circuit name).
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = std::find(entries_.begin(), entries_.end(), entry);
      if (it != entries_.end()) {
        entries_.erase(it);
        entry->resident = false;
        --stats_.entries;
      }
      throw;
    }
  }
  return lease;
}

void SessionCache::update(const Lease& lease) {
  require(lease.entry_ != nullptr, "SessionCache::update: empty lease");
  // The lease serializes access to the session, so reading its stats here
  // is safe; the charge is EXACTLY the frozen database's footprint.
  const std::size_t charge = lease.session().stats().set_memory_bytes;
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = *lease.entry_;
  if (entry.resident) {
    stats_.bytes += charge;
    stats_.bytes -= entry.charged;
  }
  entry.charged = charge;
  if (budget_bytes_ != 0 && stats_.bytes > budget_bytes_)
    NDET_INJECT("serve.cache_evict",
                throw Error(ErrorKind::kResourceExhausted,
                            "injected eviction failure (site "
                            "serve.cache_evict)"));
  evict_to_budget_locked();
}

void SessionCache::evict_to_budget_locked() {
  if (budget_bytes_ == 0) return;
  while (stats_.bytes > budget_bytes_) {
    // Least-recently-used unpinned entry; pinned entries are skipped (an
    // in-flight request must keep its session), so a fully-pinned cache may
    // transiently exceed the budget.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if ((*it)->pins > 0) continue;
      if (victim == entries_.end() || (*it)->last_use < (*victim)->last_use)
        victim = it;
    }
    if (victim == entries_.end()) return;
    (*victim)->resident = false;
    stats_.bytes -= (*victim)->charged;
    --stats_.entries;
    ++stats_.evictions;
    entries_.erase(victim);
  }
}

void SessionCache::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if ((*it)->pins > 0) {
      ++it;
      continue;
    }
    (*it)->resident = false;
    stats_.bytes -= (*it)->charged;
    --stats_.entries;
    ++stats_.evictions;
    it = entries_.erase(it);
  }
}

SessionCacheStats SessionCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<std::string> SessionCache::resident_lru_order() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const std::shared_ptr<Entry>& entry : entries_)
    sorted.push_back(entry.get());
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    return a->last_use < b->last_use;
  });
  std::vector<std::string> names;
  names.reserve(sorted.size());
  for (const Entry* entry : sorted) names.push_back(entry->key.circuit);
  return names;
}

bool SessionCache::contains(const CacheKey& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::shared_ptr<Entry>& entry : entries_)
    if (entry->key == key) return true;
  return false;
}

int SessionCache::waiters(const CacheKey& key) const {
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::shared_ptr<Entry>& candidate : entries_)
      if (candidate->key == key) {
        entry = candidate;
        break;
      }
  }
  if (entry == nullptr) return 0;
  const std::lock_guard<std::mutex> lock(entry->mutex);
  return entry->interactive_waiters + entry->batch_waiters;
}

SessionCache::Lease::~Lease() {
  if (entry_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(entry_->mutex);
    entry_->busy = false;
  }
  // notify_all: the next owner may be any interactive waiter, or -- only
  // when none are blocked -- a batch waiter; the predicates sort it out.
  entry_->available.notify_all();
  const std::lock_guard<std::mutex> lock(cache_->mutex_);
  // update() cannot evict the entry it charges (this lease pins it), so an
  // entry larger than the budget is evicted here, once its last pin drops.
  if (--entry_->pins == 0) cache_->evict_to_budget_locked();
}

}  // namespace ndet::serve
