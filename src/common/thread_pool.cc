#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace cvcp {

namespace {

/// Runs an adopted task on a waiting thread. An exception escaping here
/// would unwind the waiter's ParallelFor frame while its other lanes
/// still reference it (use-after-free), so the no-throw contract of
/// posted tasks is enforced, not assumed — mirroring how an exception
/// escaping a worker thread would std::terminate anyway.
void RunAdoptedTask(const std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    CVCP_CHECK_MSG(false,
                   "a pool task leaked an exception into a helping waiter; "
                   "tasks must catch their own exceptions (see "
                   "ThreadPool::Post)");
  }
}
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  CVCP_CHECK_GT(num_threads, 0);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Post(std::function<void()> fn) {
  {
    MutexLock lock(&mu_);
    CVCP_CHECK_MSG(!stop_, "Post on a stopped ThreadPool");
    queue_.push_back(std::move(fn));
  }
  cv_.NotifyOne();
}

void ThreadPool::HelpWhileWaiting(const std::function<bool()>& done) {
  mu_.Lock();
  for (;;) {
    // The predicate is evaluated under mu_; NotifyCompletion takes mu_
    // before notifying, so a completion between this check and the wait
    // below cannot be missed.
    if (done()) break;
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.back());
      queue_.pop_back();
      mu_.Unlock();
      RunAdoptedTask(task);  // may recursively post + HelpWhileWaiting
      mu_.Lock();
      continue;
    }
    // Inline wait loop (not a predicate lambda: the analysis treats a
    // lambda body as a lockless separate function, see common/mutex.h).
    while (!done() && queue_.empty() && !stop_) cv_.Wait(&mu_);
    // A stopping pool with an empty queue can make no further progress;
    // in practice loops only wait on the leaked Shared() pool, which
    // never stops.
    if (stop_ && queue_.empty() && !done()) break;
  }
  mu_.Unlock();
}

void ThreadPool::NotifyCompletion() {
  // Empty critical section: orders this notification after any waiter's
  // predicate check under mu_, closing the check-then-sleep race.
  { MutexLock lock(&mu_); }
  cv_.NotifyAll();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(&mu_);
      // Drain the queue even when stopping so every posted task runs.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: worker threads must not outlive the pool, and
  // static destruction order across translation units is unknowable.
  static ThreadPool* shared = new ThreadPool(static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency())));
  return *shared;
}

}  // namespace cvcp
