#include "service/server.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/file_io.h"
#include "common/strings.h"

namespace cvcp {

Server::Server(ServerConfig config)
    : config_(std::move(config)), results_(config_.results_dir) {
  if (!config_.store_dir.empty()) {
    artifacts_ = std::make_unique<ArtifactStore>(config_.store_dir);
  }
  cache_pool_ = std::make_unique<DatasetCachePool>(
      config_.cache_capacity_bytes, artifacts_.get());
}

Server::~Server() { Stop(/*drain=*/false); }

Status Server::Start() {
  CVCP_RETURN_IF_ERROR(results_.Recover());
  // Recovery hygiene for the artifact store: a crash between write and
  // rename strands a tmp file. One server owns a store directory, so
  // startup is a safe moment to sweep them (the result store sweeps its
  // own directory inside Recover). Both stores count what they swept.
  if (artifacts_) artifacts_->SweepOrphanTemps();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        Format("socket path too long (%zu bytes, max %zu)",
               config_.socket_path.size(), sizeof(addr.sun_path) - 1));
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);
  // A stale socket from a dead server is replaced; any other file at the
  // path is refused and left as it is.
  struct stat st {};
  if (::lstat(config_.socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      return Status::FailedPrecondition(Format(
          "%s exists and is not a socket", config_.socket_path.c_str()));
    }
    ::unlink(config_.socket_path.c_str());
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(
        Format("socket() failed: %s", std::strerror(errno)));
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = Status::Internal(Format(
        "bind(%s) failed: %s", config_.socket_path.c_str(),
        std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status status =
        Status::Internal(Format("listen() failed: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const int batch = config_.batch > 0 ? config_.batch : 1;
  executor_threads_.reserve(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    executor_threads_.emplace_back([this] { ExecutorLoop(); });
  }
  watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  return Status::OK();
}

void Server::Stop(bool drain) {
  if (!started_.exchange(false, std::memory_order_acq_rel)) return;
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    drain_ = drain;
    if (!drain) {
      // The simulated kill: abandon queued jobs where they stand. Their
      // phases stay kQueued — never run, never stored, re-runnable.
      for (const QueuedJob& job : queue_) inflight_bytes_ -= job.charge;
      queue_.clear();
    }
  }
  queue_cv_.NotifyAll();
  done_cv_.NotifyAll();
  watchdog_cv_.NotifyAll();

  // Unblock accept(), then the executors, then every connection read.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : executor_threads_) {
    if (t.joinable()) t.join();
  }
  executor_threads_.clear();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();

  std::vector<std::thread> conn_threads;
  {
    MutexLock lock(&conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conn_threads.swap(conn_threads_);
  }
  for (std::thread& t : conn_threads) {
    if (t.joinable()) t.join();
  }

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Only ever our own socket: a file put at the path since Start stays.
  struct stat st {};
  if (::lstat(config_.socket_path.c_str(), &st) == 0 &&
      S_ISSOCK(st.st_mode)) {
    ::unlink(config_.socket_path.c_str());
  }
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down by Stop (or a fatal error)
    }
    if (config_.io_timeout_ms > 0) {
      // Dead-client armor: bound every read and write on the session so a
      // peer that stops talking (or draining) frees this thread. Failure
      // to arm is not fatal — the session just runs unbounded.
      timeval tv{};
      tv.tv_sec = config_.io_timeout_ms / 1000;
      tv.tv_usec = (config_.io_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    MutexLock lock(&conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ConnectionLoop(fd); });
  }
}

void Server::ConnectionLoop(int fd) {
  for (;;) {
    Result<std::string> frame = ReadFrame(fd);
    if (!frame.ok()) {
      // kNotFound = the client hung up cleanly; anything else, the
      // stream is unusable — either way the session is over.
      break;
    }
    const std::string reply = HandleFrame(std::move(frame).value());
    if (!WriteFrame(fd, reply).ok()) break;
  }
  {
    MutexLock lock(&conn_mu_);
    std::erase(conn_fds_, fd);
  }
  ::close(fd);
}

std::string Server::HandleFrame(std::string payload) {
  Result<MessageKind> kind = PeekMessageKind(payload);
  if (!kind.ok()) return EncodeErrorReply(ErrorReply{kind.status()});

  switch (kind.value()) {
    case MessageKind::kSubmitRequest: {
      Result<SubmitRequest> request = DecodeSubmitRequest(std::move(payload));
      if (!request.ok()) return EncodeErrorReply(ErrorReply{request.status()});
      Result<SubmitReply> reply = HandleSubmit(request->spec);
      if (!reply.ok()) return EncodeErrorReply(ErrorReply{reply.status()});
      return EncodeSubmitReply(reply.value());
    }
    case MessageKind::kWaitRequest: {
      Result<WaitRequest> request = DecodeWaitRequest(std::move(payload));
      if (!request.ok()) return EncodeErrorReply(ErrorReply{request.status()});
      const Status await = AwaitJob(request->job_id);
      if (!await.ok()) return EncodeErrorReply(ErrorReply{await});
      Result<StoredResult> record = results_.Get(request->job_id);
      if (!record.ok()) return EncodeErrorReply(ErrorReply{record.status()});
      return EncodeReportReply(ReportReply{record->job_id, record->version,
                                           record->spec_hash,
                                           std::move(record->report_bytes)});
    }
    case MessageKind::kFetchRequest: {
      Result<FetchRequest> request = DecodeFetchRequest(std::move(payload));
      if (!request.ok()) return EncodeErrorReply(ErrorReply{request.status()});
      Result<StoredResult> record = results_.Get(request->job_id);
      if (!record.ok()) {
        MutexLock lock(&mu_);
        auto it = jobs_.find(request->job_id);
        if (it != jobs_.end() && it->second.phase != Phase::kFailed) {
          return EncodeErrorReply(ErrorReply{Status::FailedPrecondition(
              Format("job %llu not complete; wait for it",
                     static_cast<unsigned long long>(request->job_id)))});
        }
        return EncodeErrorReply(ErrorReply{record.status()});
      }
      return EncodeReportReply(ReportReply{record->job_id, record->version,
                                           record->spec_hash,
                                           std::move(record->report_bytes)});
    }
    case MessageKind::kVersionsRequest: {
      Result<VersionsRequest> request =
          DecodeVersionsRequest(std::move(payload));
      if (!request.ok()) return EncodeErrorReply(ErrorReply{request.status()});
      VersionsReply reply;
      reply.job_ids = results_.Versions(request->spec_hash);
      return EncodeVersionsReply(reply);
    }
    case MessageKind::kStatsRequest: {
      Result<StatsRequest> request = DecodeStatsRequest(std::move(payload));
      if (!request.ok()) return EncodeErrorReply(ErrorReply{request.status()});
      return EncodeStatsReply(Stats());
    }
    case MessageKind::kCancelRequest: {
      Result<CancelRequest> request = DecodeCancelRequest(std::move(payload));
      if (!request.ok()) return EncodeErrorReply(ErrorReply{request.status()});
      Result<CancelReply> reply = HandleCancel(request->job_id);
      if (!reply.ok()) return EncodeErrorReply(ErrorReply{reply.status()});
      return EncodeCancelReply(reply.value());
    }
    case MessageKind::kShutdownRequest: {
      Result<ShutdownRequest> request =
          DecodeShutdownRequest(std::move(payload));
      if (!request.ok()) return EncodeErrorReply(ErrorReply{request.status()});
      shutdown_requested_.store(true, std::memory_order_release);
      return EncodeShutdownReply();
    }
    case MessageKind::kSubmitReply:
    case MessageKind::kReportReply:
    case MessageKind::kVersionsReply:
    case MessageKind::kStatsReply:
    case MessageKind::kShutdownReply:
    case MessageKind::kErrorReply:
    case MessageKind::kCancelReply:
      break;
  }
  return EncodeErrorReply(ErrorReply{Status::InvalidArgument(
      "reply message kind sent as a request")});
}

Result<SubmitReply> Server::HandleSubmit(const JobSpec& spec) {
  CVCP_RETURN_IF_ERROR(ValidateJobSpec(spec));
  // Resolving up front both validates the dataset reference and gives the
  // admission controller the object count to charge for.
  CVCP_ASSIGN_OR_RETURN(const Dataset* data, resolver_.Resolve(spec));
  const uint64_t charge =
      EstimateJobBytes(data->size(), spec.param_grid.size());

  QueuedJob job;
  job.spec = spec;
  job.spec_hash = JobSpecHash(spec);
  job.charge = charge;
  auto cancel = std::make_shared<CancelSource>();
  // The deadline clock starts at admission: queue wait counts against it,
  // so an overdue job can be failed by the watchdog without ever running.
  if (spec.deadline_ms > 0) cancel->SetDeadlineAfterMs(spec.deadline_ms);
  {
    MutexLock lock(&mu_);
    if (stopping_) {
      return Status::FailedPrecondition("server is shutting down");
    }
    if (queue_.size() >= config_.queue_capacity) {
      ++rejected_queue_full_;
      return Status::ResourceExhausted(
          Format("queue full (%zu jobs); retry later",
                 config_.queue_capacity));
    }
    if (inflight_bytes_ + charge > config_.memory_limit_bytes) {
      ++rejected_memory_;
      return Status::ResourceExhausted(Format(
          "in-flight memory %llu + %llu exceeds limit %llu; retry later",
          static_cast<unsigned long long>(inflight_bytes_),
          static_cast<unsigned long long>(charge),
          static_cast<unsigned long long>(config_.memory_limit_bytes)));
    }
    job.job_id = results_.AllocateJobId();
    job.version = results_.AllocateVersion(job.spec_hash);
    inflight_bytes_ += charge;
    ++accepted_;
    jobs_[job.job_id] = Job{Phase::kQueued, Status::OK(), cancel};
    queue_.push_back(job);
  }
  queue_cv_.NotifyOne();
  // The watchdog sleeps until the earliest queued deadline (or forever
  // with none); a new deadline may be earlier.
  if (cancel->DeadlineNs() != internal::CancelState::kNoDeadlineNs) {
    watchdog_cv_.NotifyOne();
  }
  return SubmitReply{job.job_id, job.version, job.spec_hash};
}

Result<CancelReply> Server::HandleCancel(uint64_t job_id) {
  {
    MutexLock lock(&mu_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      // Not in the table: completed (the result store holds it) or unknown.
      if (!results_.Contains(job_id)) {
        return Status::NotFound(Format(
            "unknown job %llu", static_cast<unsigned long long>(job_id)));
      }
      return CancelReply{CancelOutcome::kAlreadyFinished};
    }
    switch (it->second.phase) {
      case Phase::kQueued:
        break;
      case Phase::kRunning:
        // Fire the token; the executor observes it at the next cell
        // boundary and fails the job (unless it completes first — a
        // completed result always stands).
        it->second.cancel->RequestCancel();
        return CancelReply{CancelOutcome::kSignalled};
      case Phase::kFailed:
        return CancelReply{CancelOutcome::kAlreadyFinished};
    }
    // Still waiting: fail it right here — it never runs, stores no
    // record, and its spec stays re-runnable.
    uint64_t charge = 0;
    for (auto q = queue_.begin(); q != queue_.end(); ++q) {
      if (q->job_id != job_id) continue;
      charge = q->charge;
      queue_.erase(q);
      break;
    }
    FinishJob(job_id, charge,
              Status::Cancelled("cancelled by client request"));
  }
  done_cv_.NotifyAll();
  return CancelReply{CancelOutcome::kCancelledWhileQueued};
}

Status Server::AwaitJob(uint64_t job_id) {
  {
    MutexLock lock(&mu_);
    auto it = jobs_.find(job_id);
    while (it != jobs_.end() && it->second.phase != Phase::kFailed) {
      if (stopping_ && !drain_) {
        return Status::FailedPrecondition("server stopped before completion");
      }
      done_cv_.Wait(&mu_);
      it = jobs_.find(job_id);
    }
    if (it != jobs_.end()) return it->second.failure;
  }
  // Not (or no longer) in the table: completed, or never admitted. A job
  // publishes its record before it leaves the table, so the result store
  // is asked without holding mu_.
  if (results_.Contains(job_id)) return Status::OK();
  return Status::NotFound(
      Format("unknown job %llu", static_cast<unsigned long long>(job_id)));
}

bool Server::PopJob(QueuedJob* job, CancelToken* cancel) {
  MutexLock lock(&mu_);
  while (queue_.empty() && !stopping_) queue_cv_.Wait(&mu_);
  if (queue_.empty()) return false;  // stopping with nothing left (or !drain)
  *job = std::move(queue_.front());
  queue_.pop_front();
  Job& entry = jobs_.at(job->job_id);
  entry.phase = Phase::kRunning;
  *cancel = entry.cancel->token();
  ++running_;
  return true;
}

void Server::ExecutorLoop() {
  QueuedJob job;
  CancelToken cancel;
  while (PopJob(&job, &cancel)) {
    Status status = RunOneJob(job, cancel);
    {
      MutexLock lock(&mu_);
      FinishJob(job.job_id, job.charge, std::move(status));
    }
    // Woken after the unlock, so waiters do not wake into a held mutex.
    done_cv_.NotifyAll();
  }
}

void Server::WatchdogLoop() {
  constexpr int64_t kNoDeadline = internal::CancelState::kNoDeadlineNs;
  MutexLock lock(&mu_);
  while (!stopping_) {
    // Fail queued jobs whose deadline expired while they waited and find
    // the earliest deadline still pending; running jobs need no scan —
    // their tokens self-expire at cell boundaries.
    const int64_t now = internal::SteadyNowNs();
    int64_t next = kNoDeadline;
    bool expired = false;
    for (auto it = queue_.begin(); it != queue_.end();) {
      const int64_t deadline = jobs_.at(it->job_id).cancel->DeadlineNs();
      if (deadline == kNoDeadline || deadline > now) {
        next = std::min(next, deadline);
        ++it;
        continue;
      }
      FinishJob(it->job_id, it->charge,
                Status::DeadlineExceeded("deadline expired while queued"));
      it = queue_.erase(it);
      expired = true;
    }
    if (expired) done_cv_.NotifyAll();
    // Sleep until that deadline. With none queued there is nothing to
    // time: admitting a job with a deadline (or Stop) notifies us.
    if (next == kNoDeadline) {
      watchdog_cv_.Wait(&mu_);
    } else {
      watchdog_cv_.WaitUntil(
          &mu_, std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(next)));
    }
  }
}

Status Server::RunOneJob(const QueuedJob& job, const CancelToken& cancel) {
  if (config_.before_job_hook) config_.before_job_hook(job.spec);
  CVCP_ASSIGN_OR_RETURN(const Dataset* data, resolver_.Resolve(job.spec));
  JobContext context;
  context.cache = cache_pool_->For(data->points());
  context.exec.threads = config_.threads;
  // The engine checks the job's token before any work and at every
  // (param, fold) cell boundary thereafter.
  context.exec.cancel = cancel;
  CVCP_ASSIGN_OR_RETURN(CvcpReport report, RunJob(*data, job.spec, context));
  StoredResult record;
  record.job_id = job.job_id;
  record.version = job.version;
  record.spec_hash = job.spec_hash;
  record.spec_bytes = EncodeJobSpec(job.spec);
  record.report_bytes = EncodeCvcpReport(report);
  // Publish before the job leaves the table: a waiter woken by done_cv_
  // must find the record, and a crash after this line leaves a complete
  // file.
  return results_.Put(record);
}

void Server::FinishJob(uint64_t job_id, uint64_t charge, Status status) {
  auto it = jobs_.find(job_id);
  CVCP_CHECK(it != jobs_.end());
  inflight_bytes_ -= charge;
  if (it->second.phase == Phase::kRunning) --running_;
  if (status.ok()) {
    ++completed_;
    jobs_.erase(it);
  } else {
    ++failed_;
    if (status.code() == StatusCode::kCancelled) ++cancelled_;
    if (status.code() == StatusCode::kDeadlineExceeded) ++deadline_exceeded_;
    it->second.phase = Phase::kFailed;
    it->second.failure = std::move(status);
    it->second.cancel.reset();
  }
}

StatsReply Server::Stats() const {
  StatsReply stats;
  {
    MutexLock lock(&mu_);
    stats.queue_depth = queue_.size();
    stats.running = running_;
    stats.accepted = accepted_;
    stats.rejected_queue_full = rejected_queue_full_;
    stats.rejected_memory = rejected_memory_;
    stats.completed = completed_;
    stats.failed = failed_;
    stats.inflight_bytes = inflight_bytes_;
    stats.cancelled = cancelled_;
    stats.deadline_exceeded = deadline_exceeded_;
  }
  const DatasetCache::Stats cache = cache_pool_->AggregateStats();
  stats.distance_builds = cache.distance_builds;
  stats.distance_loads = cache.distance_loads;
  stats.distance_hits = cache.distance_hits;
  stats.model_builds = cache.model_builds;
  stats.model_loads = cache.model_loads;
  stats.model_hits = cache.model_hits;
  if (artifacts_) {
    const ArtifactStore::Stats disk = artifacts_->stats();
    stats.disk_hits = disk.disk_hits;
    stats.disk_misses = disk.disk_misses;
    stats.temps_swept = disk.temps_swept;
  }
  const ResultStore::Stats results = results_.stats();
  stats.results_recovered = results.recovered;
  stats.results_corrupt = results.corrupt;
  stats.results_stored = results.stored;
  stats.temps_swept += results.temps_swept;
  return stats;
}

}  // namespace cvcp
