#include "serve/admission.hpp"

#include <utility>

namespace ndet::serve {

AdmissionQueue::AdmissionQueue(std::size_t max_depth, std::size_t max_bytes)
    : max_depth_(max_depth), max_bytes_(max_bytes) {}

bool AdmissionQueue::fits_locked(std::size_t line_bytes) const {
  if (max_depth_ != 0 && stats_.depth + 1 > max_depth_) return false;
  if (max_bytes_ != 0 && stats_.bytes + line_bytes > max_bytes_) return false;
  return true;
}

bool AdmissionQueue::offer(AdmittedLine& line,
                           std::vector<AdmittedLine>* displaced) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto shed_offer = [&]() {
    if (line.request.priority == Priority::kInteractive)
      ++stats_.shed_interactive;
    else
      ++stats_.shed_batch;
  };
  if (closed_) {
    shed_offer();
    return false;
  }
  // Priority-honoring displacement: an interactive offer that does not fit
  // evicts the NEWEST batch entries until it does (reject-newest within
  // the lane that loses).  Batch offers never displace anything.
  while (!fits_locked(line.bytes) &&
         line.request.priority == Priority::kInteractive && !batch_.empty()) {
    AdmittedLine victim = std::move(batch_.back());
    batch_.pop_back();
    --stats_.depth;
    stats_.bytes -= victim.bytes;
    ++stats_.displaced;
    ++stats_.shed_batch;
    if (displaced != nullptr) displaced->push_back(std::move(victim));
  }
  if (!fits_locked(line.bytes)) {
    shed_offer();
    return false;
  }
  line.enqueued_at = std::chrono::steady_clock::now();
  ++stats_.depth;
  stats_.bytes += line.bytes;
  stats_.peak_depth = std::max(stats_.peak_depth, stats_.depth);
  ++stats_.admitted;
  (line.request.priority == Priority::kInteractive ? interactive_ : batch_)
      .push_back(std::move(line));
  lock.unlock();
  ready_.notify_one();
  return true;
}

bool AdmissionQueue::pop(AdmittedLine& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [this] {
    return !interactive_.empty() || !batch_.empty() || closed_;
  });
  std::deque<AdmittedLine>& lane =
      !interactive_.empty() ? interactive_ : batch_;
  if (lane.empty()) return false;  // closed and drained
  out = std::move(lane.front());
  lane.pop_front();
  --stats_.depth;
  stats_.bytes -= out.bytes;
  return true;
}

void AdmissionQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

AdmissionStats AdmissionQueue::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t AdmissionQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_.depth;
}

}  // namespace ndet::serve
