#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace cvcp {

int ExecutionContext::ResolvedThreads() const {
  if (threads > 0) return threads;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

NestedBudget PlanBudget(const ExecutionContext& exec, size_t outer_size) {
  const int total = exec.ResolvedThreads();
  NestedBudget plan;
  // Lanes: as many as the outer loop can use, never more than the budget,
  // at least one.
  plan.outer.threads = static_cast<int>(std::min<size_t>(
      outer_size > 0 ? outer_size : 1, static_cast<size_t>(total)));
  // Each lane's inner share; ceil so the budget is never underfilled
  // (help-while-waiting soaks up the <= lanes - 1 rounding excess).
  plan.inner.threads =
      (total + plan.outer.threads - 1) / plan.outer.threads;
  return plan;
}

void ParallelFor(const ExecutionContext& exec, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const int threads = exec.ResolvedThreads();
  if (threads <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      // Same early-stop semantics as the pool path: a fired token means
      // the remaining iterations are skipped and the caller must not
      // consume the (partial) results without Check()ing the token.
      if (exec.cancel.Cancelled()) return;
      fn(i);
    }
    return;
  }

  ThreadPool& pool = ThreadPool::Shared();
  // The calling thread is lane 0; the remaining lanes go to the pool as
  // fire-and-forget tasks. Every lane runs the same dynamic claim loop
  // over one shared cursor, so indices are claimed in ascending order no
  // matter which lane runs them.
  const size_t lanes = std::min(static_cast<size_t>(threads), n);
  struct LoopState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> pending{0};  ///< pool lanes not yet finished
    Mutex error_mu;
    /// First lane exception (scheduling-dependent). Written under
    /// error_mu by racing lanes; the caller's final read is lock-free but
    /// safe — it happens after the acquire on `pending` reaching 0, which
    /// orders every lane's release behind it.
    std::exception_ptr error GUARDED_BY(error_mu);
  };
  LoopState state;  // lanes hold references; all finish before we return
  state.pending.store(lanes - 1, std::memory_order_relaxed);

  auto claim_loop = [&state, &fn, n, &cancel = exec.cancel] {
    for (size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
         i < n; i = state.next.fetch_add(1, std::memory_order_relaxed)) {
      // Cooperative stop: once the token fires, no lane claims another
      // index. A no-op (one null test) for the default token.
      if (cancel.Cancelled()) return;
      fn(i);
    }
  };
  for (size_t t = 1; t < lanes; ++t) {
    pool.Post([&state, &claim_loop, &pool] {
      try {
        claim_loop();
      } catch (...) {
        MutexLock lock(&state.error_mu);
        if (!state.error) state.error = std::current_exception();
      }
      // Last touch of `state`: the release pairs with the caller's
      // acquire load so lane writes (slots, error) happen-before return.
      state.pending.fetch_sub(1, std::memory_order_release);
      pool.NotifyCompletion();
    });
  }

  std::exception_ptr caller_error;
  try {
    claim_loop();
  } catch (...) {
    caller_error = std::current_exception();
  }
  // Out of indices: help while waiting. Queued tasks — other loops' lanes,
  // typically nested fan-outs spawned by this loop's own iterations — run
  // on this thread until our lanes have all drained the cursor.
  pool.HelpWhileWaiting([&state] {
    return state.pending.load(std::memory_order_acquire) == 0;
  });
  // All lanes are done (acquire above), so the lock is uncontended; it is
  // taken anyway because `error` is GUARDED_BY(error_mu) and the analysis
  // is right that lock-free finalization only works under a memory-order
  // argument it cannot check.
  MutexLock lock(&state.error_mu);
  if (!state.error && caller_error) state.error = caller_error;
  if (state.error) std::rethrow_exception(state.error);
}

Status ParallelForFirstError(const ExecutionContext& exec, size_t n,
                             const std::function<Status(size_t)>& fn) {
  std::vector<Status> status(n);  // each index writes only its own slot
  std::atomic<size_t> first{n};   // lowest failing index; n = none yet
  ParallelFor(exec, n, [&](size_t i) {
    if (i > first.load(std::memory_order_relaxed)) return;
    status[i] = fn(i);
    if (status[i].ok()) return;
    size_t lowest = first.load(std::memory_order_relaxed);
    while (i < lowest && !first.compare_exchange_weak(
                             lowest, i, std::memory_order_relaxed)) {
    }
  });
  // ParallelFor has joined every lane, so the slots are all visible.
  const size_t lowest = first.load(std::memory_order_relaxed);
  return lowest < n ? status[lowest] : Status::OK();
}

}  // namespace cvcp
