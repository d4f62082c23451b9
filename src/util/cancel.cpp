#include "util/cancel.hpp"

#include <algorithm>

namespace ndet {

const char* to_string(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kCancelled: return "cancelled";
    case ErrorKind::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorKind::kInvalidInput: return "invalid_input";
    case ErrorKind::kResourceExhausted: return "resource_exhausted";
    case ErrorKind::kInternal: return "internal";
  }
  return "internal";
}

std::int64_t CancelToken::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CancelToken::cancel(const std::string& reason) {
  {
    const std::lock_guard<std::mutex> lock(reason_mutex_);
    if (reason_.empty()) reason_ = reason;
  }
  int expected = kLive;
  state_.compare_exchange_strong(expected, kByCaller,
                                 std::memory_order_release,
                                 std::memory_order_relaxed);
}

void CancelToken::set_deadline_after_ms(std::uint64_t ms) {
  set_deadline(std::chrono::steady_clock::now() +
               std::chrono::milliseconds(ms));
}

void CancelToken::set_deadline(std::chrono::steady_clock::time_point deadline) {
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          deadline.time_since_epoch())
          .count();
  // Keep the earlier of any competing deadlines.
  std::int64_t current = deadline_ns_.load(std::memory_order_relaxed);
  while (ns < current &&
         !deadline_ns_.compare_exchange_weak(current, ns,
                                             std::memory_order_relaxed)) {
  }
}

void CancelToken::label_deadline(const std::string& label) {
  const std::lock_guard<std::mutex> lock(reason_mutex_);
  if (deadline_reason_.empty()) deadline_reason_ = label + " exceeded";
}

void CancelToken::chain_parent(std::shared_ptr<const CancelToken> parent) {
  parent_ = std::move(parent);
}

bool CancelToken::cancelled() const {
  if (state_.load(std::memory_order_relaxed) != kLive) return true;
  const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != kNoDeadline && now_ns() >= deadline) {
    // Latch the expiry so the kind is sticky and later polls are one load.
    int expected = kLive;
    state_.compare_exchange_strong(expected, kByDeadline,
                                   std::memory_order_relaxed);
    return true;
  }
  if (parent_ != nullptr && parent_->cancelled()) {
    // Latch the parent's state so kind()/reason() tell the parent's story:
    // a parent deadline replaces this token's own label, and a parent
    // cancel's reason is first writer wins (a concurrent own-cancel keeps
    // its own reason).
    const bool by_deadline = parent_->kind() == ErrorKind::kDeadlineExceeded;
    const std::string parent_reason = parent_->reason();
    {
      const std::lock_guard<std::mutex> lock(reason_mutex_);
      if (by_deadline)
        deadline_reason_ = parent_reason;
      else if (reason_.empty())
        reason_ = parent_reason;
    }
    int expected = kLive;
    state_.compare_exchange_strong(expected,
                                   by_deadline ? kByDeadline : kByCaller,
                                   std::memory_order_relaxed);
    return true;
  }
  return false;
}

ErrorKind CancelToken::kind() const {
  return state_.load(std::memory_order_relaxed) == kByDeadline
             ? ErrorKind::kDeadlineExceeded
             : ErrorKind::kCancelled;
}

std::string CancelToken::reason() const {
  const std::lock_guard<std::mutex> lock(reason_mutex_);
  if (state_.load(std::memory_order_relaxed) == kByDeadline)
    return deadline_reason_.empty() ? "deadline exceeded" : deadline_reason_;
  return reason_.empty() ? "cancelled" : reason_;
}

double CancelToken::remaining_seconds() const {
  const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline == kNoDeadline)
    return std::numeric_limits<double>::infinity();
  return static_cast<double>(deadline - now_ns()) * 1e-9;
}

void CancelToken::check(const char* stage) const {
  if (!cancelled()) return;
  Error error(kind(), reason());
  if (stage != nullptr && *stage != '\0') error.attach_stage(stage);
  throw error;
}

}  // namespace ndet
