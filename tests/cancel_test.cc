// Cooperative cancellation at the engine level:
//
//   * token semantics — a default token never fires and costs a null
//     check; a fired source reports kCancelled; an expired deadline
//     reports kDeadlineExceeded; when both fire, cancel wins (pinned so
//     the raced status is deterministic);
//   * ParallelFor stops claiming work once the context's token fires —
//     a pre-cancelled fan-out executes nothing on both the serial and
//     the pooled path;
//   * RunJob fails promptly (kCancelled / kDeadlineExceeded) without
//     publishing anything, and a rerun of the same spec — over the same
//     shared DatasetCache the cancelled attempt touched — is
//     byte-identical to a run that was never cancelled, for thread
//     widths 1, 2, and 8. Cancellation changes *whether* a run
//     completes, never the bytes of one that does.

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/parallel.h"
#include "core/dataset_cache.h"
#include "core/job.h"
#include "service/dataset_resolver.h"
#include "tests/service_test_util.h"

namespace cvcp {
namespace {

TEST(CancelTokenTest, DefaultTokenNeverFires) {
  CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelTokenTest, RequestCancelFires) {
  CancelSource source;
  CancelToken token = source.token();
  EXPECT_TRUE(token.Check().ok());

  source.RequestCancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, ExpiredDeadlineFires) {
  CancelSource source;
  CancelToken token = source.token();
  source.SetDeadlineAfterMs(0);  // already expired
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, FarDeadlineDoesNotFire) {
  CancelSource source;
  source.SetDeadlineAfterMs(1000 * 60 * 60);  // one hour
  EXPECT_TRUE(source.token().Check().ok());
}

TEST(CancelTokenTest, HugeDeadlineSaturatesToNoDeadline) {
  // deadline_ms arrives as a client-controlled u64 off the wire; a value
  // too large to represent as steady-clock nanoseconds must behave as
  // "effectively no deadline", not overflow (UB) into an
  // already-expired one. Under UBSan the unsaturated arithmetic traps.
  // The saturated value is exactly kNoDeadlineNs, which the server's
  // watchdog treats as no deadline.
  for (uint64_t ms : {std::numeric_limits<uint64_t>::max(),
                      std::numeric_limits<uint64_t>::max() / 1000000,
                      uint64_t{1} << 53}) {
    CancelSource source;
    source.SetDeadlineAfterMs(ms);
    EXPECT_EQ(source.DeadlineNs(), internal::CancelState::kNoDeadlineNs)
        << "ms=" << ms;
    EXPECT_TRUE(source.token().Check().ok()) << "ms=" << ms;
  }
}

TEST(CancelTokenTest, CancelBeatsDeadline) {
  // When both an explicit cancel and an expired deadline are observable,
  // the status is pinned to kCancelled so racing the two cannot make a
  // run's failure code flap.
  CancelSource source;
  source.SetDeadlineAfterMs(0);
  source.RequestCancel();
  EXPECT_EQ(source.token().Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, TokensShareOneState) {
  CancelSource source;
  CancelToken a = source.token();
  CancelToken b = source.token();
  EXPECT_TRUE(a == b);
  source.RequestCancel();
  EXPECT_TRUE(a.Cancelled());
  EXPECT_TRUE(b.Cancelled());
}

TEST(CancelParallelForTest, PreCancelledExecutesNothingSerial) {
  CancelSource source;
  source.RequestCancel();
  ExecutionContext exec;
  exec.threads = 1;
  exec.cancel = source.token();
  std::atomic<size_t> executed{0};
  // determinism: reduction(cancel-test-executed-count)
  ParallelFor(exec, 1000, [&](size_t) { executed.fetch_add(1); });
  EXPECT_EQ(executed.load(), 0u);
}

TEST(CancelParallelForTest, PreCancelledExecutesNothingPooled) {
  CancelSource source;
  source.RequestCancel();
  ExecutionContext exec;
  exec.threads = 4;
  exec.cancel = source.token();
  std::atomic<size_t> executed{0};
  // determinism: reduction(cancel-test-executed-count)
  ParallelFor(exec, 1000, [&](size_t) { executed.fetch_add(1); });
  EXPECT_EQ(executed.load(), 0u);
}

TEST(CancelParallelForTest, MidFlightCancelStopsClaiming) {
  // Fire the token from inside iteration 0 (the serial path claims in
  // order): every later index must be skipped.
  CancelSource source;
  ExecutionContext exec;
  exec.threads = 1;
  exec.cancel = source.token();
  std::atomic<size_t> executed{0};
  // determinism: reduction(cancel-test-executed-count)
  ParallelFor(exec, 1000, [&](size_t i) {
    if (i == 0) source.RequestCancel();
    executed.fetch_add(1);
  });
  EXPECT_EQ(executed.load(), 1u);
}

TEST(CancelJobTest, PreCancelledJobFailsWithoutRunning) {
  DatasetResolver resolver;
  auto data = resolver.Resolve(SmallJobSpec());
  ASSERT_TRUE(data.ok());

  CancelSource source;
  source.RequestCancel();
  JobContext context;
  context.exec.cancel = source.token();
  auto report = RunJob(**data, SmallJobSpec(), context);
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
}

TEST(CancelJobTest, ExpiredDeadlineFailsJob) {
  DatasetResolver resolver;
  auto data = resolver.Resolve(SmallJobSpec());
  ASSERT_TRUE(data.ok());

  CancelSource source;
  source.SetDeadlineAfterMs(0);
  JobContext context;
  context.exec.cancel = source.token();
  auto report = RunJob(**data, SmallJobSpec(), context);
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelJobTest, RerunAfterCancelIsByteIdenticalAcrossWidths) {
  const JobSpec spec = SmallJobSpec();
  DatasetResolver resolver;
  auto data = resolver.Resolve(spec);
  ASSERT_TRUE(data.ok());

  // Reference: a clean run that never saw a token.
  std::string reference;
  {
    JobContext context;
    context.exec.threads = 1;
    auto report = RunJob(**data, spec, context);
    ASSERT_TRUE(report.ok());
    reference = EncodeCvcpReport(report.value());
  }

  for (int threads : {1, 2, 8}) {
    // The cancelled attempt and the rerun share one compute cache, so
    // anything the doomed attempt warmed (distances are computed
    // token-free precisely for this) is what the rerun reads.
    DatasetCache cache((*data)->points());
    {
      CancelSource source;
      source.SetDeadlineAfterMs(0);
      JobContext context;
      context.cache = &cache;
      context.exec.threads = threads;
      context.exec.cancel = source.token();
      auto doomed = RunJob(**data, spec, context);
      ASSERT_FALSE(doomed.ok());
      EXPECT_EQ(doomed.status().code(), StatusCode::kDeadlineExceeded);
    }
    JobContext context;
    context.cache = &cache;
    context.exec.threads = threads;
    auto rerun = RunJob(**data, spec, context);
    ASSERT_TRUE(rerun.ok()) << "threads=" << threads;
    EXPECT_EQ(EncodeCvcpReport(rerun.value()), reference)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace cvcp
