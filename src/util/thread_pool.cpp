#include "util/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace ndet {

unsigned resolve_thread_count(unsigned requested) {
  if (requested == 0) requested = std::thread::hardware_concurrency();
  return std::max(1u, requested);
}

namespace {

/// How deeply the current thread is inside job bodies: a caller counts from
/// post() to finish(), a helper while it runs a slot.  The executor's busy
/// total counts a thread when its depth leaves 0, so nesting counts once.
thread_local unsigned t_job_depth = 0;

/// One for_each_index call with helper slots.  It lives in the caller's
/// frame and sits in the executor's queue while it has unclaimed slots.
struct Job {
  const std::function<void(unsigned)>* worker;
  std::atomic<bool>* failed;
  unsigned slots;  ///< worker ids [0, slots); the caller runs 0
  /// Written only by the worker whose throw first set `failed`.
  std::exception_ptr error = nullptr;
  // Guarded by the executor's mutex:
  unsigned next_slot = 1;  ///< next helper slot; all claimed = not queued
  unsigned running = 0;    ///< helpers inside the job
  Job* next = nullptr;     ///< queue link
  std::condition_variable idle{};  ///< notified when `running` drops to 0
};

/// The process-wide set of persistent helper threads.
class Executor {
 public:
  static Executor& instance() {
    static Executor executor;
    return executor;
  }

  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ~Executor() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    work_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  /// Queues the job's helper slots and counts the caller busy.
  void post(Job& job) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      grow(job.slots - 1);
      if (t_job_depth++ == 0) ++busy_;
      if (tail_ != nullptr)
        tail_->next = &job;
      else
        head_ = &job;
      tail_ = &job;
    }
    for (unsigned slot = 1; slot < job.slots; ++slot) work_.notify_one();
  }

  /// Called once the caller's own claim loop has ended: the index space is
  /// drained, so the slots no helper took are claimed here (they would
  /// return at once), and the helpers inside the job are waited for.
  void finish(Job& job) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (job.next_slot < job.slots) {
      unlink(job);
      job.next_slot = job.slots;
    }
    job.idle.wait(lock, [&job] { return job.running == 0; });
    if (--t_job_depth == 0) {
      --busy_;
      if (may_claim()) work_.notify_one();
    }
  }

 private:
  /// A parked helper may claim a slot while fewer than helpers + 1 threads
  /// are inside job bodies.
  bool may_claim() const {
    return head_ != nullptr && busy_ <= helpers_.size();
  }

  /// Adds helpers up to `wanted`.  When the system refuses a thread, the
  /// callers run the slots no helper takes.
  void grow(std::size_t wanted) {
    while (helpers_.size() < wanted && !stopping_) {
      try {
        helpers_.emplace_back([this] { helper_loop(); });
      } catch (const std::system_error&) {
        return;
      }
    }
  }

  void unlink(Job& job) {
    Job* previous = nullptr;
    Job** link = &head_;
    while (*link != &job) {
      previous = *link;
      link = &previous->next;
    }
    *link = job.next;
    if (tail_ == &job) tail_ = previous;
    job.next = nullptr;
  }

  void helper_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      work_.wait(lock, [this] { return stopping_ || may_claim(); });
      if (stopping_) return;
      Job& job = *head_;
      const unsigned slot = job.next_slot++;
      if (job.next_slot == job.slots) unlink(job);
      ++job.running;
      ++busy_;
      lock.unlock();
      t_job_depth = 1;
      try {
        (*job.worker)(slot);
      } catch (...) {
        if (!job.failed->exchange(true, std::memory_order_relaxed))
          job.error = std::current_exception();
      }
      t_job_depth = 0;
      lock.lock();
      --busy_;
      // Under the lock: the caller may return, and destroy `job`, as soon
      // as it observes running == 0.
      if (--job.running == 0) job.idle.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable work_;  ///< a slot was posted or a thread left
  Job* head_ = nullptr;           ///< FIFO of jobs with unclaimed slots
  Job* tail_ = nullptr;
  std::size_t busy_ = 0;          ///< threads inside job bodies
  bool stopping_ = false;
  std::vector<std::thread> helpers_;  ///< last: helpers use the members above
};

}  // namespace

void ThreadPool::run_workers(unsigned workers,
                             const std::function<void(unsigned)>& worker,
                             std::atomic<bool>& failed) {
  if (workers <= 1) {
    // Width 1 runs inline; exceptions propagate directly.
    worker(0);
    return;
  }

  Job job{.worker = &worker, .failed = &failed, .slots = workers};
  Executor& executor = Executor::instance();
  executor.post(job);
  try {
    worker(0);
  } catch (...) {
    if (!failed.exchange(true, std::memory_order_relaxed))
      job.error = std::current_exception();
  }
  executor.finish(job);
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::annotate_and_rethrow(unsigned worker, std::size_t index) {
  const std::string context =
      "worker " + std::to_string(worker) + ", index " + std::to_string(index);
  try {
    throw;  // re-examine the in-flight exception
  } catch (Error& e) {
    // Mutate in place and rethrow the SAME object: the dynamic type (e.g.
    // contract_error) and kind survive, so existing catch sites still match.
    e.add_context(context);
    throw;
  } catch (const std::exception& e) {
    throw Error(ErrorKind::kInternal,
                std::string("worker exception: ") + e.what() + " [" + context +
                    "]");
  } catch (...) {
    throw Error(ErrorKind::kInternal,
                "worker threw a non-std exception [" + context + "]");
  }
}

}  // namespace ndet
