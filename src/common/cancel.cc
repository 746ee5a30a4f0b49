#include "common/cancel.h"

#include <chrono>

namespace cvcp {

namespace internal {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace internal

Status CancelToken::Check() const {
  if (state_ == nullptr) return Status::OK();
  if (state_->cancelled.load(std::memory_order_acquire)) {
    return Status::Cancelled("cancelled by caller");
  }
  const int64_t deadline =
      state_->deadline_ns.load(std::memory_order_acquire);
  if (deadline != internal::CancelState::kNoDeadlineNs &&
      internal::SteadyNowNs() >= deadline) {
    return Status::DeadlineExceeded("deadline exceeded");
  }
  return Status::OK();
}

void CancelSource::SetDeadlineAfterMs(uint64_t ms) {
  // `ms` can be a client-controlled u64 straight off the wire
  // (JobSpec::deadline_ms), so the arithmetic must saturate: a deadline
  // too far out to represent as steady-clock nanoseconds can never fire,
  // which is exactly what kNoDeadlineNs means. Without the clamp the
  // multiply/add below would be signed-overflow UB and in practice wrap
  // into the past, failing the job immediately.
  const int64_t now = internal::SteadyNowNs();
  const uint64_t headroom_ns =
      static_cast<uint64_t>(internal::CancelState::kNoDeadlineNs) -
      static_cast<uint64_t>(now > 0 ? now : 0);
  if (ms >= headroom_ns / 1000000) {
    state_->deadline_ns.store(internal::CancelState::kNoDeadlineNs,
                              std::memory_order_release);
    return;
  }
  state_->deadline_ns.store(now + static_cast<int64_t>(ms) * 1000000,
                            std::memory_order_release);
}

}  // namespace cvcp
