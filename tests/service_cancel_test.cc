// Cancellation and deadlines through the service: the cancel RPC, the
// queued-deadline watchdog, socket IO timeouts, and the client's
// deterministic backpressure retry. The invariants:
//
//   * a cancelled job NEVER leaves a result record — Fetch is kNotFound,
//     Wait surfaces kCancelled / kDeadlineExceeded — and resubmitting
//     the same spec later yields bytes identical to a run that was never
//     cancelled, at every server thread width;
//   * deadlines count queue wait: an overdue queued job is failed by the
//     watchdog without ever running (fully deterministic — the test
//     holds the only executor parked the whole time);
//   * a silent client is evicted by the socket timeout instead of
//     pinning a connection thread;
//   * SubmitWithRetry retries only kResourceExhausted, on the pinned
//     doubling schedule.
//
// Choreography is condition-variable-driven through the Gate seam; the
// only sleeps are ones that wait out an already-armed deadline.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/job.h"
#include "service/client.h"
#include "service/server.h"
#include "tests/service_test_util.h"

namespace cvcp {
namespace {

std::string DirectBytes(const JobSpec& spec) {
  DatasetResolver resolver;
  auto data = resolver.Resolve(spec);
  CVCP_CHECK(data.ok());
  JobContext context;
  auto report = RunJob(**data, spec, context);
  CVCP_CHECK(report.ok());
  return EncodeCvcpReport(report.value());
}

TEST(ServiceCancelTest, RetryScheduleIsPinned) {
  RetryPolicy policy;
  policy.backoff_ms = 5;
  EXPECT_EQ(RetryDelayMs(policy, 1), 5);
  EXPECT_EQ(RetryDelayMs(policy, 2), 10);
  EXPECT_EQ(RetryDelayMs(policy, 3), 20);
  EXPECT_EQ(RetryDelayMs(policy, 7), 320);
  EXPECT_EQ(RetryDelayMs(policy, 8), 320);   // capped at 64x
  EXPECT_EQ(RetryDelayMs(policy, 50), 320);  // no overflow, ever
  policy.backoff_ms = 0;
  EXPECT_EQ(RetryDelayMs(policy, 3), 0);
}

TEST(ServiceCancelTest, CancelQueuedJobNeverRunsAndLeavesNoRecord) {
  ServiceScratch scratch = MakeServiceScratch();
  Gate gate;
  ServerConfig config = ScratchServerConfig(scratch);
  config.batch = 1;
  config.threads = 1;
  config.before_job_hook = [&gate](const JobSpec&) { gate.Enter(); };
  Server server(config);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());

  // A occupies the only executor (parked in the gate); B stays queued.
  auto a = client->Submit(SmallJobSpec());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(gate.AwaitParked(1));
  JobSpec spec_b = SmallJobSpec();
  spec_b.cvcp_seed = 11;
  auto b = client->Submit(spec_b);
  ASSERT_TRUE(b.ok());

  auto cancel = client->Cancel(b->job_id);
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel->outcome, CancelOutcome::kCancelledWhileQueued);

  // The cancelled job is terminally failed with kCancelled and stored
  // nothing; a second cancel finds it already finished.
  auto waited = client->Wait(b->job_id);
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kCancelled);
  auto fetched = client->Fetch(b->job_id);
  EXPECT_EQ(fetched.status().code(), StatusCode::kNotFound);
  auto again = client->Cancel(b->job_id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->outcome, CancelOutcome::kAlreadyFinished);

  gate.Release();
  auto a_report = client->Wait(a->job_id);
  EXPECT_TRUE(a_report.ok());  // the survivor is unharmed

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cancelled, 1u);
  EXPECT_EQ(stats->inflight_bytes, 0u);  // the cancel discharged B
  server.Stop(/*drain=*/true);
}

TEST(ServiceCancelTest, CancelUnknownJobIsNotFound) {
  ServiceScratch scratch = MakeServiceScratch();
  ServerConfig config = ScratchServerConfig(scratch);
  config.threads = 1;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());
  auto cancel = client->Cancel(999);
  EXPECT_EQ(cancel.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cancel.status().message(), "unknown job 999");
  auto waited = client->Wait(999);
  EXPECT_EQ(waited.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(waited.status().message(), "unknown job 999");
  server.Stop(/*drain=*/true);
}

TEST(ServiceCancelTest, CancelCompletedJobIsAlreadyFinished) {
  ServiceScratch scratch = MakeServiceScratch();
  ServerConfig config = ScratchServerConfig(scratch);
  config.threads = 1;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());
  auto submitted = client->Submit(SmallJobSpec());
  ASSERT_TRUE(submitted.ok());
  auto report = client->Wait(submitted->job_id);
  ASSERT_TRUE(report.ok());

  auto cancel = client->Cancel(submitted->job_id);
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel->outcome, CancelOutcome::kAlreadyFinished);
  // The late cancel touches nothing: the job still waits and fetches to
  // its stored bytes, and no counter moved.
  auto again = client->Wait(submitted->job_id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->report_bytes, report->report_bytes);
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed, 1u);
  EXPECT_EQ(stats->failed, 0u);
  EXPECT_EQ(stats->cancelled, 0u);
  server.Stop(/*drain=*/true);
}

TEST(ServiceCancelTest,
     CancelRunningJobLeavesNoRecordAndRerunIsByteIdentical) {
  const JobSpec spec = SmallJobSpec();
  const std::string reference = DirectBytes(spec);

  for (int threads : {1, 2, 8}) {
    ServiceScratch scratch = MakeServiceScratch();
    Gate gate;
    ServerConfig config = ScratchServerConfig(scratch);
    config.batch = 1;
    config.threads = threads;
    config.before_job_hook = [&gate](const JobSpec&) { gate.Enter(); };
    Server server(config);
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(scratch.socket);
    ASSERT_TRUE(client.ok());

    auto submitted = client->Submit(spec);
    ASSERT_TRUE(submitted.ok());
    // The job is running (parked pre-engine).
    ASSERT_TRUE(gate.AwaitParked(1));

    auto cancel = client->Cancel(submitted->job_id);
    ASSERT_TRUE(cancel.ok());
    EXPECT_EQ(cancel->outcome, CancelOutcome::kSignalled);
    gate.Release();  // the engine now observes the fired token at entry

    auto waited = client->Wait(submitted->job_id);
    ASSERT_FALSE(waited.ok());
    EXPECT_EQ(waited.status().code(), StatusCode::kCancelled)
        << "threads=" << threads;
    EXPECT_EQ(client->Fetch(submitted->job_id).status().code(),
              StatusCode::kNotFound);
    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->failed, 1u);
    EXPECT_EQ(stats->cancelled, 1u);
    EXPECT_EQ(stats->running, 0u);
    EXPECT_EQ(stats->inflight_bytes, 0u);

    // The rerun — same spec, same server, caches warmed by whatever the
    // cancelled attempt did — must be bit-identical to a direct run that
    // never saw a token.
    auto rerun = client->Submit(spec);
    ASSERT_TRUE(rerun.ok());
    auto report = client->Wait(rerun->job_id);
    ASSERT_TRUE(report.ok()) << "threads=" << threads;
    EXPECT_EQ(report->report_bytes, reference) << "threads=" << threads;
    server.Stop(/*drain=*/true);
  }
}

TEST(ServiceCancelTest, QueuedDeadlineFailedByWatchdogWithoutRunning) {
  ServiceScratch scratch = MakeServiceScratch();
  Gate gate;
  ServerConfig config = ScratchServerConfig(scratch);
  config.batch = 1;
  config.threads = 1;
  config.before_job_hook = [&gate](const JobSpec&) { gate.Enter(); };
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());

  // A parks the only executor with no deadline; B queues behind it with
  // a deadline that expires immediately. The watchdog must fail B while
  // A is still parked — B can never have run.
  auto a = client->Submit(SmallJobSpec());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(gate.AwaitParked(1));
  JobSpec spec_b = SmallJobSpec();
  spec_b.cvcp_seed = 22;
  spec_b.deadline_ms = 1;
  auto b = client->Submit(spec_b);
  ASSERT_TRUE(b.ok());

  auto waited = client->Wait(b->job_id);
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(client->Fetch(b->job_id).status().code(), StatusCode::kNotFound);

  gate.Release();
  ASSERT_TRUE(client->Wait(a->job_id).ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->deadline_exceeded, 1u);
  EXPECT_EQ(stats->inflight_bytes, 0u);
  server.Stop(/*drain=*/true);
}

// The watchdog sleeps until the earliest queued deadline, not on a fixed
// period: with a 60 s deadline already queued, a later-admitted 50 ms
// deadline must wake it and fail that job long before the 60 s mark.
TEST(ServiceCancelTest, WatchdogWakesForAnEarlierDeadlineQueuedLater) {
  ServiceScratch scratch = MakeServiceScratch();
  Gate gate;
  ServerConfig config = ScratchServerConfig(scratch);
  config.batch = 1;
  config.threads = 1;
  config.before_job_hook = [&gate](const JobSpec&) { gate.Enter(); };
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());

  auto a = client->Submit(SmallJobSpec());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(gate.AwaitParked(1));
  JobSpec spec_b = SmallJobSpec();
  spec_b.cvcp_seed = 31;
  spec_b.deadline_ms = 60000;
  auto b = client->Submit(spec_b);
  ASSERT_TRUE(b.ok());
  JobSpec spec_c = SmallJobSpec();
  spec_c.cvcp_seed = 32;
  spec_c.deadline_ms = 50;
  const auto start = std::chrono::steady_clock::now();
  auto c = client->Submit(spec_c);
  ASSERT_TRUE(c.ok());

  auto waited = client->Wait(c->job_id);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::seconds(10));

  // B's deadline is far off: it still runs once the executor is free.
  gate.Release();
  EXPECT_TRUE(client->Wait(a->job_id).ok());
  EXPECT_TRUE(client->Wait(b->job_id).ok());
  server.Stop(/*drain=*/true);
}

TEST(ServiceCancelTest, RunningDeadlineObservedAtCellBoundary) {
  ServiceScratch scratch = MakeServiceScratch();
  Gate gate;
  ServerConfig config = ScratchServerConfig(scratch);
  config.batch = 1;
  config.threads = 1;
  config.before_job_hook = [&gate](const JobSpec&) { gate.Enter(); };
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());

  // The deadline is long enough for the idle executor to pick the job up
  // before the watchdog could fail it in the queue.
  JobSpec spec = SmallJobSpec();
  spec.deadline_ms = 300;
  auto submitted = client->Submit(spec);
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(gate.AwaitParked(1));
  // The deadline (armed at admission, before the park) expires while the
  // job is parked pre-engine; on release the first cell-boundary check
  // fires it.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(spec.deadline_ms + 50));
  gate.Release();

  auto waited = client->Wait(submitted->job_id);
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(client->Fetch(submitted->job_id).status().code(),
            StatusCode::kNotFound);
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->failed, 1u);
  EXPECT_EQ(stats->deadline_exceeded, 1u);
  EXPECT_EQ(stats->running, 0u);
  EXPECT_EQ(stats->inflight_bytes, 0u);
  server.Stop(/*drain=*/true);
}

TEST(ServiceCancelTest, SubmitWithRetryRidesOutBackpressure) {
  ServiceScratch scratch = MakeServiceScratch();
  Gate gate;
  ServerConfig config = ScratchServerConfig(scratch);
  config.batch = 1;
  config.threads = 1;
  config.queue_capacity = 1;
  config.before_job_hook = [&gate](const JobSpec&) { gate.Enter(); };
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());

  // A parks the executor, B fills the 1-slot queue: the server is now
  // saturated and a plain submit must bounce with kResourceExhausted.
  auto a = client->Submit(SmallJobSpec());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(gate.AwaitParked(1));
  JobSpec spec_b = SmallJobSpec();
  spec_b.cvcp_seed = 33;
  auto b = client->Submit(spec_b);
  ASSERT_TRUE(b.ok());
  JobSpec spec_c = SmallJobSpec();
  spec_c.cvcp_seed = 44;
  auto rejected = client->Submit(spec_c);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // With retry, the same submission waits out the congestion: the first
  // retry callback releases the gate, the queue drains, and a later
  // attempt is admitted. The schedule gives it ~2.5s of headroom.
  RetryPolicy policy;
  policy.max_retries = 10;
  policy.backoff_ms = 5;
  int retries = 0;
  auto c = client->SubmitWithRetry(
      spec_c, policy, [&gate, &retries](int attempt, int64_t) {
        if (++retries == 1) gate.Release();
        (void)attempt;
      });
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_GE(retries, 1);
  EXPECT_TRUE(client->Wait(c->job_id).ok());
  server.Stop(/*drain=*/true);
}

TEST(ServiceCancelTest, SubmitWithRetryDoesNotRetryHardFailures) {
  ServiceScratch scratch = MakeServiceScratch();
  ServerConfig config = ScratchServerConfig(scratch);
  config.threads = 1;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());

  JobSpec bad = SmallJobSpec();
  bad.dataset = "no-such-dataset";
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff_ms = 1;
  int retries = 0;
  auto reply = client->SubmitWithRetry(
      bad, policy, [&retries](int, int64_t) { ++retries; });
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(retries, 0);  // a non-transient failure is never retried
  server.Stop(/*drain=*/true);
}

TEST(ServiceCancelTest, IoTimeoutEvictsSilentClient) {
  ServiceScratch scratch = MakeServiceScratch();
  ServerConfig config = ScratchServerConfig(scratch);
  config.threads = 1;
  config.io_timeout_ms = 100;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());

  // A raw connection that never sends a byte: the server's read timeout
  // must end the session (we observe the close as EOF) instead of
  // pinning the connection thread forever.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, scratch.socket.c_str(),
              scratch.socket.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  char byte = 0;
  const ssize_t got = ::recv(fd, &byte, 1, 0);  // blocks until eviction
  EXPECT_EQ(got, 0);  // clean close, not garbage
  ::close(fd);

  // A prompt client on the same server is unaffected by the armed
  // timeouts — the full submit/wait round trip still works.
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());
  auto submitted = client->Submit(SmallJobSpec());
  ASSERT_TRUE(submitted.ok());
  EXPECT_TRUE(client->Wait(submitted->job_id).ok());
  server.Stop(/*drain=*/true);
}

}  // namespace
}  // namespace cvcp
