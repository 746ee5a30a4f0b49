#ifndef CVCP_COMMON_MUTEX_H_
#define CVCP_COMMON_MUTEX_H_

/// \file
/// Annotatable mutex primitives: thin wrappers over `std::mutex` /
/// `std::condition_variable` that carry the Clang thread-safety
/// attributes (common/thread_annotations.h). `std::mutex` itself is not
/// a `CAPABILITY`, so code locking it directly is invisible to
/// `-Wthread-safety`; every mutex-protected component in the tree
/// (thread_pool, parallel, sharded_cache, dataset_cache) holds a
/// `cvcp::Mutex` instead so the analysis can prove its `GUARDED_BY`
/// members are only touched under the lock.
///
/// The shim adds no state and no behavior beyond the wrapped std types:
/// `Mutex` is exactly a `std::mutex`, `MutexLock` is a non-movable
/// `lock_guard`, and `CondVar` is a `std::condition_variable` bound to
/// one `Mutex` for its lifetime (the LevelDB `port::CondVar` shape —
/// binding the mutex at construction keeps `Wait()` call sites to one
/// argument and makes cross-mutex waits unrepresentable).
///
/// Style rule the analysis enforces: predicate waits are written as
/// explicit `while (!cond) cv.Wait();` loops in the function that holds
/// the lock, never as predicate lambdas handed to the condition variable
/// — a lambda body is analyzed as a separate function that provably does
/// NOT hold the mutex, so guarded reads inside it would (rightly) fail
/// the analysis even though the wait contract makes them safe.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/thread_annotations.h"

namespace cvcp {

/// An annotated `std::mutex`. Lock/Unlock/TryLock mirror the std names
/// used by the Clang attribute docs; `AssertHeld()` is a no-op marker
/// that tells the analysis a lock is held across a call boundary it
/// cannot see (unused so far — prefer `REQUIRES`).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock (`std::lock_guard` semantics) over a `Mutex`.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// A condition variable used with a `Mutex`. `Wait(mu)` atomically
/// releases `*mu`, blocks, and reacquires it before returning — so from
/// the analysis's point of view the caller holds the lock continuously
/// across the call, which matches the invariant callers rely on. The
/// mutex is a per-call argument rather than bound at construction
/// (LevelDB binds it) deliberately: `REQUIRES(mu)` on a parameter is
/// checked by substituting the caller's argument, whereas a requirement
/// on a stored `mu_` member can never be aliased to the caller's held
/// lock by the intra-procedural analysis.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Caller must hold `*mu`, and every wait must use the same mutex;
  /// spurious wakeups happen, so every call sits in a
  /// `while (!condition)` loop.
  void Wait(Mutex* mu) REQUIRES(mu) {
    // Adopt the already-held std::mutex for the wait, then release the
    // unique_lock's ownership claim so the Mutex wrapper stays the owner.
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Timed wait: like `Wait` but returns once `deadline` (monotonic)
  /// passes. Returns false on timeout, true when notified. Same contract
  /// otherwise — hold `*mu`, loop on the condition. Exists for the
  /// server's deadline watchdog, which sleeps until the earliest queued
  /// deadline but must still wake promptly when notified.
  bool WaitUntil(Mutex* mu, std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cvcp

#endif  // CVCP_COMMON_MUTEX_H_
