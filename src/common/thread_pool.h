#ifndef CVCP_COMMON_THREAD_POOL_H_
#define CVCP_COMMON_THREAD_POOL_H_

/// \file
/// Fixed-size worker thread pool with help-while-waiting scheduling. This
/// is the process's parallel execution substrate: higher layers never
/// spawn raw threads, they post tasks here (via ParallelFor,
/// parallel.h).
///
/// Nesting contract: the pool is *help-while-waiting* — a thread that has
/// to wait for posted tasks (HelpWhileWaiting) pops queued tasks and
/// executes them on its own stack instead of blocking. Because every
/// waiting thread is also an executor, tasks may freely post more tasks
/// and wait for them from any thread, including pool workers; nested
/// fan-outs can never deadlock (any unfinished task is either queued —
/// and will be picked up by a waiter — or already running on a thread
/// that makes progress the same way). The number of OS threads is fixed
/// at construction, so arbitrarily deep nesting queues work instead of
/// oversubscribing the machine.
///
/// Determinism contract: the pool schedules tasks in an arbitrary order on
/// an arbitrary thread (workers drain oldest-first; helping waiters drain
/// newest-first), so tasks must not depend on execution order and must
/// write to disjoint, pre-allocated result slots. Under that discipline a
/// fan-out produces bit-identical results for any worker count, which is
/// what lets CVCP guarantee parallel == serial output.

#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cvcp {

/// Fixed-size worker pool. Workers are started in the constructor and
/// joined in the destructor; tasks posted after shutdown begins are a
/// programming error (checked).
class ThreadPool {
 public:
  /// Starts `num_threads` (> 0) workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Fire-and-forget enqueue: no future, no exception channel — `fn` must
  /// not throw (enforced: a task that leaks an exception into a helping
  /// waiter aborts with a diagnostic rather than unwinding the waiter's
  /// stack frame, which other lanes still reference). This is what
  /// ParallelFor uses for its claim-loop lanes (completion is signalled
  /// through the loop's own counter + NotifyCompletion, which composes
  /// with HelpWhileWaiting).
  void Post(std::function<void()> fn);

  /// Help-while-waiting: runs queued tasks on the calling thread until
  /// `done()` returns true, blocking on the pool's condition variable when
  /// the queue is empty. `done` must be a cheap, thread-safe predicate
  /// (typically a relaxed/acquire atomic load); whoever makes it true must
  /// call NotifyCompletion() afterwards. Waiters pop the newest task
  /// first: the newest tasks belong to the deepest, finest-grained
  /// fan-outs — short tasks that keep the adopted-work latency low —
  /// while workers drain oldest-first (coarse outer lanes). Note the
  /// latency caveat: once a task is adopted it runs to completion, so the
  /// caller may return after `done()` became true by up to one adopted
  /// task's duration.
  void HelpWhileWaiting(const std::function<bool()>& done);

  /// Wakes threads blocked in HelpWhileWaiting so they re-check their
  /// predicate. Must be called after the change that makes a waiter's
  /// `done()` true.
  void NotifyCompletion();

  /// Process-wide shared pool, sized to the hardware concurrency (at least
  /// one worker), created on first use and intentionally kept alive for
  /// the process lifetime.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  /// Only written in the constructor, before any worker exists, and read
  /// lock-free afterwards (num_threads, destructor join) — immutable for
  /// the pool's concurrent lifetime, hence not guarded.
  std::vector<std::thread> workers_;
};

}  // namespace cvcp

#endif  // CVCP_COMMON_THREAD_POOL_H_
