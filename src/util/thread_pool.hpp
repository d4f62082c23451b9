// thread_pool.hpp -- the shared worker pool.
//
// Every parallel sweep in the repository (batched fault simulation, the
// worst-case nmin analysis, Procedure 1, the partitioned analysis, batch
// serving) follows the same discipline: an index space is fanned out across
// workers with dynamic scheduling (each atomic claim takes a contiguous
// chunk of indices, see chunk_for), results are written into index-aligned
// slots so the output is deterministic and independent of the thread
// count, and the first worker exception aborts the remaining work and is
// rethrown on the caller.  ThreadPool centralizes that discipline; it was
// extracted from sim/batch_fault_sim.cpp so the analysis layer can reuse it
// instead of growing a second hand-rolled pool.
//
// Execution model (DESIGN.md §4).  A ThreadPool owns no threads: it is a
// width-limited view of ONE process-wide executor of persistent helper
// threads that park on a condition variable between calls.  The executor
// creates helpers lazily, up to the widest call's worker count minus one,
// and joins them at process exit.  A for_each_index call runs
// worker 0 on the calling thread and posts the other workers_for(count) - 1
// worker slots to the executor; a parked helper claims a slot only while
// fewer than helpers + 1 threads are inside job bodies (a thread counts
// once, however deeply its calls nest), so no more threads than the widest
// call run job bodies unless more callers than that are inside calls at
// once.  Work a caller does outside any call is not counted.  When the
// caller's own claim loop ends, the
// index space is drained: the caller claims every slot no helper took
// (such a slot would return at once) and waits only for the helpers
// already inside its job.  Hence width 1 runs inline, nested calls cannot
// deadlock, and no reference to the caller's frame outlives the call.
//
// Robustness contract (see DESIGN.md "Cancellation, deadlines, and error
// taxonomy"):
//   * for_each_index takes an optional CancelToken.  Workers poll it
//     before every body, also inside a claimed chunk, so cancellation
//     latency is bounded by one body invocation and cancelled indices are
//     simply never run -- no thread is ever killed, and worker-owned
//     scratch unwinds normally.
//     The pool itself never throws on cancellation; the CALLER checks the
//     token after the join and raises the stage-attributed error, because
//     only the caller knows which pipeline stage this index space was.
//   * The first worker exception is annotated with the worker id and the
//     failing index (preserving its dynamic type and, for ndet::Error, its
//     kind), remaining workers drain via the failed flag, and the annotated
//     exception is rethrown on the caller after the join -- a throw can
//     never hang the join or lose its message.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <new>

#include "util/cancel.hpp"
#include "util/fault_inject.hpp"

namespace ndet {

/// Resolves a requested worker count: 0 means "all hardware threads",
/// clamped to at least 1.
unsigned resolve_thread_count(unsigned requested);

/// Cache-line size of the x86-64 machines this is tuned on.  Per-worker
/// state that sits in an array indexed by worker id is declared
/// alignas(kCacheLineBytes), so one worker's writes never invalidate the
/// line another worker reads.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Allocator for per-worker heap buffers: each block starts on a cache line
/// and is padded to whole lines, so no line holds two buffers.  Where one
/// thread allocates every worker's buffers, malloc otherwise decides, from
/// the heap's history, whether two workers' hot buffers share a line.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{kCacheLineBytes};
  static std::size_t bytes(std::size_t n) {
    return (n * sizeof(T) + kCacheLineBytes - 1) & ~(kCacheLineBytes - 1);
  }
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(bytes(n), kAlign));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, bytes(n), kAlign);
  }
  friend bool operator==(CacheLineAllocator, CacheLineAllocator) {
    return true;
  }
};

/// Width-limited view of the process-wide executor, with dynamic index
/// scheduling.
class ThreadPool {
 public:
  /// `num_threads` = 0 picks std::thread::hardware_concurrency.
  explicit ThreadPool(unsigned num_threads = 0)
      : num_threads_(resolve_thread_count(num_threads)) {}

  /// Resolved worker-pool width.
  unsigned thread_count() const { return num_threads_; }

  /// Workers (the caller plus helper slots) for an index space of `count`
  /// elements.
  unsigned workers_for(std::size_t count) const {
    return count < num_threads_ ? static_cast<unsigned>(count) : num_threads_;
  }

  /// Indices one claim takes for an index space of `count` elements: about
  /// 32 claims per worker, so the tail a worker can be left holding is a
  /// thirty-second of its share, and an index space of fewer than 64 indices
  /// per worker still claims one index at a time.
  std::size_t chunk_for(std::size_t count) const {
    return std::max<std::size_t>(
        1, count / (std::size_t{32} * workers_for(count)));
  }

  /// Calls `body(index, worker)` once for every index in [0, count), fanned
  /// out across min(thread_count, count) workers with dynamic scheduling:
  /// each worker claims chunk_for(count) contiguous indices at a time.
  /// `worker` is a dense id in [0, workers_for(count)) -- use it to index
  /// per-worker scratch state.  Determinism contract: as long as `body`
  /// writes only to slot `index`, results are independent of the thread
  /// count and of scheduling order.  The first exception thrown by any
  /// worker stops the remaining work and is rethrown on the caller,
  /// annotated with the worker id and failing index.  When `cancel` is
  /// non-null, workers stop running bodies once it fires (poll the token
  /// on the caller afterwards to surface the cancellation as an error).
  template <typename Body>
  void for_each_index(std::size_t count, Body&& body,
                      const CancelToken* cancel = nullptr) const {
    if (count == 0) return;
    const std::size_t chunk = chunk_for(count);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    run_workers(workers_for(count), [&](unsigned worker) {
      // One try region per worker, not per claim: landing pads inside the
      // claim loop measurably slow hot bodies (~10% on the batched fault
      // sim), and the failing index is just the last one started.
      std::size_t current = 0;
      try {
        while (true) {
          const std::size_t begin =
              next.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= count) return;
          const std::size_t end = std::min(count, begin + chunk);
          for (std::size_t i = begin; i < end; ++i) {
            // Per body, not per claim: the cancellation latency and the
            // drain after a throw stay one body whatever the chunk size.
            if (failed.load(std::memory_order_relaxed) || is_cancelled(cancel))
              return;
            current = i;
            NDET_INJECT("thread_pool.slow_worker",
                        fault_inject::inject_delay());
            NDET_INJECT("thread_pool.worker_throw",
                        throw Error(ErrorKind::kInternal,
                                    "injected worker fault (site "
                                    "thread_pool.worker_throw)"));
            body(i, worker);
          }
        }
      } catch (...) {
        annotate_and_rethrow(worker, current);
      }
    }, failed);
  }

 private:
  /// Runs `worker(0)` on the calling thread and offers `worker(1)` ..
  /// `worker(workers - 1)` to the executor's helpers, waits for the helpers
  /// that took one, and rethrows the first captured exception.  `failed` is
  /// set as soon as any worker throws so the others can bail out of their
  /// scheduling loops.  A single worker runs inline.
  static void run_workers(unsigned workers,
                          const std::function<void(unsigned)>& worker,
                          std::atomic<bool>& failed);

  /// Rethrows the in-flight exception with "worker w, index i" context:
  /// ndet::Error instances are annotated in place (dynamic type and kind
  /// preserved), foreign exceptions are wrapped in Error{kInternal} with
  /// their message embedded.
  [[noreturn]] static void annotate_and_rethrow(unsigned worker,
                                                std::size_t index);

  unsigned num_threads_;
};

}  // namespace ndet
