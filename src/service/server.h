#ifndef CVCP_SERVICE_SERVER_H_
#define CVCP_SERVICE_SERVER_H_

/// \file
/// The cvcp_serve server: model-selection jobs over a local AF_UNIX
/// socket, with a bounded FIFO job queue, admission control, and one
/// shared compute-cache pool.
///
/// Thread structure: one accept thread, one connection thread per client
/// session, and `batch` executor threads popping the queue. Executors are
/// the *only* threads that run jobs; every job's grid×fold fan-out runs
/// under the process-wide help-while-waiting ThreadPool, so concurrent
/// sessions share one thread budget instead of multiplying it — `batch`
/// bounds how many reports are in flight, `threads` bounds how wide each
/// one fans out, and an executor whose lanes are exhausted helps execute
/// other jobs' queued cells rather than blocking.
///
/// Admission control (applied at submit, before anything is queued):
///   * queue depth — a full queue rejects with kResourceExhausted, never
///     blocks the client;
///   * in-flight memory — each job is charged EstimateJobBytes at
///     admission and discharged at completion; a submission that would
///     push the total past `memory_limit_bytes` is rejected the same way.
/// Backpressure is a *reply*, so a client can retry later; a hang would
/// be indistinguishable from a dead server.
///
/// Determinism: a job's report depends only on its spec (core/job.h), so
/// the bytes a client gets back are identical to a direct RunCvcp run for
/// every `batch`, `threads`, client concurrency, and cache temperature —
/// pinned by tests/service_determinism_test.cc.
///
/// Durability: completed jobs are published through the ResultStore's
/// atomic tmp+rename before they leave the job table, so a crash leaves
/// only complete CRC-sealed records; `Stop(/*drain=*/false)` abandons the
/// queue exactly like a kill would, and a successor server over the same
/// directories recovers every completed record
/// (tests/service_fault_test.cc).

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/artifact_store.h"
#include "core/dataset_cache.h"
#include "core/job.h"
#include "service/dataset_resolver.h"
#include "service/protocol.h"
#include "service/result_store.h"

namespace cvcp {

struct ServerConfig {
  std::string socket_path;   ///< AF_UNIX path (beware the ~108-char cap)
  std::string results_dir;   ///< versioned result records (required)
  std::string store_dir;     ///< artifact store; empty = no disk tier

  size_t queue_capacity = 64;           ///< admission: max queued jobs
  uint64_t memory_limit_bytes = 1ull << 30;  ///< admission: in-flight charge cap
  int batch = 2;    ///< executor threads (jobs in flight concurrently)
  int threads = 0;  ///< per-job fan-out width (0 = all hardware threads)
  size_t cache_capacity_bytes = 256u << 20;  ///< shared memory-tier LRU

  /// SO_RCVTIMEO/SO_SNDTIMEO armed on every accepted connection, so a
  /// dead or stalled client is evicted instead of pinning its connection
  /// thread: an idle read timeout ends the session like a hang-up, a
  /// mid-frame or write timeout is an IO error. 0 = no timeouts (the
  /// in-process test default; cvcp_serve passes a production value).
  int io_timeout_ms = 0;

  /// Test seam: called by the executor thread immediately before a job
  /// runs (admission and queueing already done). Lets the admission and
  /// starvation tests park executors deterministically. Null in
  /// production.
  std::function<void(const JobSpec&)> before_job_hook;
};

/// A running cvcp_serve instance. Start() brings it up; Stop() tears it
/// down (idempotent). The destructor stops without draining.
class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Recovers the result store, binds the socket, launches the accept
  /// and executor threads.
  Status Start();

  /// Stops the server. `drain` = finish every queued job first (the
  /// clean-shutdown path); `!drain` = abandon the queue where it stands
  /// (the simulated kill: queued jobs are simply never run — their specs
  /// are re-runnable against a successor server). Already-completed
  /// records are durable either way.
  void Stop(bool drain);

  /// True after a client sent kShutdownRequest; the hosting binary polls
  /// this and calls Stop(/*drain=*/true).
  bool ShutdownRequested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Observability snapshot (also served over the wire as kStatsReply).
  StatsReply Stats() const;

 private:
  enum class Phase { kQueued, kRunning, kFailed };

  /// A live or failed job. A completed job has no entry: once its record
  /// is published, the result store alone holds it.
  struct Job {
    Phase phase = Phase::kQueued;
    Status failure;  ///< why it failed (kFailed only)
    /// Created at admission with the deadline armed; its token is
    /// threaded into the job's ExecutionContext. Dropped once the job
    /// reaches a terminal state.
    std::shared_ptr<CancelSource> cancel;
  };

  /// What an executor needs to run one job.
  struct QueuedJob {
    uint64_t job_id = 0;
    uint32_t version = 0;
    uint64_t spec_hash = 0;
    uint64_t charge = 0;  ///< EstimateJobBytes, discharged at completion
    JobSpec spec;
  };

  void AcceptLoop();
  void ConnectionLoop(int fd);
  void ExecutorLoop();
  void WatchdogLoop();

  /// One request frame in, one reply frame out (kErrorReply on any
  /// handler failure).
  std::string HandleFrame(std::string payload);

  Result<SubmitReply> HandleSubmit(const JobSpec& spec);

  /// Cancels `job_id`: a queued job is failed immediately (kCancelled,
  /// never runs, leaves no record); a running one has its token fired
  /// and stops at the next cell boundary; a finished one is left alone.
  Result<CancelReply> HandleCancel(uint64_t job_id);

  /// Blocks until `job_id` leaves the queued and running phases. OK once
  /// its record is published, the job's failure if it failed, kNotFound
  /// for ids neither in the table nor in the result store.
  Status AwaitJob(uint64_t job_id);

  /// Pops the next job and its cancel token; false when the server is
  /// stopping and (in non-drain mode, or with an empty queue) there is
  /// nothing left to do.
  bool PopJob(QueuedJob* job, CancelToken* cancel);

  /// Runs `job` and publishes its record; the job's terminal status.
  Status RunOneJob(const QueuedJob& job, const CancelToken& cancel);

  /// The one transition to a terminal state. Discharges the in-flight
  /// charge and drops the cancel source; an OK `status` (record
  /// published) counts the job completed and removes it from the table,
  /// any other marks it kFailed and counts it failed, and also cancelled
  /// or deadline-exceeded by its code. The caller then wakes done_cv_,
  /// after unlocking mu_ where it can.
  void FinishJob(uint64_t job_id, uint64_t charge, Status status)
      REQUIRES(mu_);

  ServerConfig config_;
  ResultStore results_;
  DatasetResolver resolver_;
  std::unique_ptr<ArtifactStore> artifacts_;  ///< null without store_dir
  std::unique_ptr<DatasetCachePool> cache_pool_;

  std::atomic<bool> started_{false};
  std::atomic<bool> shutdown_requested_{false};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> executor_threads_;
  std::thread watchdog_thread_;

  mutable Mutex mu_;
  bool stopping_ GUARDED_BY(mu_) = false;
  bool drain_ GUARDED_BY(mu_) = false;
  std::deque<QueuedJob> queue_ GUARDED_BY(mu_);
  /// Live (queued or running) and failed jobs of this server's life.
  std::map<uint64_t, Job> jobs_ GUARDED_BY(mu_);
  uint64_t inflight_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t running_ GUARDED_BY(mu_) = 0;
  uint64_t accepted_ GUARDED_BY(mu_) = 0;
  uint64_t rejected_queue_full_ GUARDED_BY(mu_) = 0;
  uint64_t rejected_memory_ GUARDED_BY(mu_) = 0;
  uint64_t completed_ GUARDED_BY(mu_) = 0;
  uint64_t failed_ GUARDED_BY(mu_) = 0;
  uint64_t cancelled_ GUARDED_BY(mu_) = 0;
  uint64_t deadline_exceeded_ GUARDED_BY(mu_) = 0;
  CondVar queue_cv_;  ///< signaled on push and on stop
  CondVar done_cv_;   ///< signaled on every job completion/failure
  CondVar watchdog_cv_;  ///< dedicated: a queue push must never wake the
                         ///< watchdog instead of an executor

  mutable Mutex conn_mu_;
  std::vector<int> conn_fds_ GUARDED_BY(conn_mu_);
  std::vector<std::thread> conn_threads_ GUARDED_BY(conn_mu_);
};

}  // namespace cvcp

#endif  // CVCP_SERVICE_SERVER_H_
