#ifndef CVCP_COMMON_CANCEL_H_
#define CVCP_COMMON_CANCEL_H_

/// \file
/// Cooperative cancellation with monotonic deadlines.
///
/// A `CancelSource` owns the cancellation state for one unit of work (one
/// service job, one direct `RunCvcp` call). It hands out `CancelToken`
/// views that are cheap to copy and ride inside `ExecutionContext`, so the
/// engine can poll them at (param, fold) cell boundaries without any
/// additional plumbing. Cancellation is strictly cooperative: firing a
/// token never interrupts a running computation, it only makes the next
/// boundary check fail with `kCancelled` or `kDeadlineExceeded`.
///
/// Determinism contract: a token can change *whether* a run completes,
/// never *what* a completed run produces. Code that publishes shared
/// artifacts (distance matrices, OPTICS models) must not let a live token
/// skip part of the build — see `DistanceMatrix::Compute`, which strips
/// the token so published artifacts are always complete.
///
/// Deadlines use `std::chrono::steady_clock` (monotonic): wall-clock
/// adjustments can neither fire nor defer them.

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace cvcp {

namespace internal {

/// Shared state behind a source and all of its tokens. Lock-free: a flag
/// plus the deadline as steady-clock nanoseconds (kNoDeadlineNs = unset).
struct CancelState {
  static constexpr int64_t kNoDeadlineNs = INT64_MAX;

  std::atomic<bool> cancelled{false};
  std::atomic<int64_t> deadline_ns{kNoDeadlineNs};
};

/// steady_clock::now() as nanoseconds since the clock's epoch.
int64_t SteadyNowNs();

}  // namespace internal

/// Cheap copyable view of a CancelSource's state. The default-constructed
/// token is "never cancels": `Check()` is a single null test, so plumbing
/// a token member through every ExecutionContext costs nothing for code
/// that never sets one.
class CancelToken {
 public:
  CancelToken() = default;

  /// True when cancellation was requested or the deadline has passed.
  bool Cancelled() const { return !Check().ok(); }

  /// OK, or kCancelled / kDeadlineExceeded. A cancel request wins over an
  /// expired deadline (checked first) so the outcome of "cancel then
  /// timeout" races is pinned.
  Status Check() const;

  bool operator==(const CancelToken& other) const = default;

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const internal::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const internal::CancelState> state_;
};

/// Owner side: requests cancellation and sets the deadline. Thread-safe;
/// tokens may be checked concurrently with RequestCancel/SetDeadlineAfterMs.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<internal::CancelState>()) {}

  /// Makes every token fail its next Check() with kCancelled. Idempotent.
  void RequestCancel() {
    state_->cancelled.store(true, std::memory_order_release);
  }

  /// Sets the deadline `ms` milliseconds from now. Last call wins.
  void SetDeadlineAfterMs(uint64_t ms);

  /// The deadline in internal::SteadyNowNs() nanoseconds, or
  /// internal::CancelState::kNoDeadlineNs when none is set — which is also
  /// what a deadline too far out to represent saturates to.
  int64_t DeadlineNs() const {
    return state_->deadline_ns.load(std::memory_order_acquire);
  }

  CancelToken token() const { return CancelToken(state_); }

 private:
  std::shared_ptr<internal::CancelState> state_;
};

}  // namespace cvcp

#endif  // CVCP_COMMON_CANCEL_H_
