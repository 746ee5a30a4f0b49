// EstimateJobBytes is the admission controller's unit of account: every
// job is charged the estimate at submit and discharged exactly once at
// completion (or cancellation, or queue abandonment). These tests pin
// the formula — a silent change would silently re-tune every server's
// admission behavior — and prove charge/discharge symmetry end to end:
// inflight_bytes is the estimate while a job is parked and zero after,
// so no drift accumulates across jobs.

#include <thread>

#include <gtest/gtest.h>

#include "core/job.h"
#include "service/client.h"
#include "service/server.h"
#include "tests/service_test_util.h"

namespace cvcp {
namespace {

// condensed n(n-1)/2 doubles + 4 n-length arrays per grid value + 64 KiB.
TEST(JobEstimateTest, FormulaIsPinned) {
  EXPECT_EQ(EstimateJobBytes(0, 0), 64u * 1024);
  EXPECT_EQ(EstimateJobBytes(0, 5), 64u * 1024);
  EXPECT_EQ(EstimateJobBytes(1, 0), 64u * 1024);  // no pairs, no grid
  EXPECT_EQ(EstimateJobBytes(2, 1), 8u + 2 * 8 * 4 + 64 * 1024);
  // Iris × the SmallJobSpec grid — the value the service tests observe.
  EXPECT_EQ(EstimateJobBytes(150, 3),
            150u * 149 / 2 * 8 + 3u * 150 * 8 * 4 + 64 * 1024);
  EXPECT_EQ(EstimateJobBytes(150, 3), 169336u);
}

TEST(JobEstimateTest, GrowsWithPointsAndGrid) {
  EXPECT_LT(EstimateJobBytes(100, 3), EstimateJobBytes(200, 3));
  EXPECT_LT(EstimateJobBytes(100, 3), EstimateJobBytes(100, 6));
}

TEST(ServiceJobEstimateTest, ChargeEqualsEstimateAndDischargesToZero) {
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
  auto submitted = client->Submit(SmallJobSpec());
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(gate.AwaitParked(1));

  // While the job is parked, the in-flight account holds exactly its
  // estimated charge (iris = 150 points, grid {3,6,9}).
  auto parked_stats = client->Stats();
  ASSERT_TRUE(parked_stats.ok());
  EXPECT_EQ(parked_stats->inflight_bytes, EstimateJobBytes(150, 3));

  gate.Release();
  auto reply = client->Wait(submitted->job_id);
  ASSERT_TRUE(reply.ok());

  // Discharge mirrors the charge exactly: the account returns to zero,
  // with no residue to drift across subsequent jobs.
  auto final_stats = client->Stats();
  ASSERT_TRUE(final_stats.ok());
  EXPECT_EQ(final_stats->inflight_bytes, 0u);
  server.Stop(/*drain=*/true);
}

TEST(ServiceJobEstimateTest, MemoryLimitBoundaryAdmitsAtExactEstimate) {
  const uint64_t estimate = EstimateJobBytes(150, 3);

  {
    // Limit exactly the estimate: the job fits.
    ServiceScratch scratch = MakeServiceScratch();
    ServerConfig config = ScratchServerConfig(scratch);
    config.threads = 1;
    config.memory_limit_bytes = estimate;
    Server server(config);
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(scratch.socket);
    ASSERT_TRUE(client.ok());
    auto submitted = client->Submit(SmallJobSpec());
    EXPECT_TRUE(submitted.ok());
    server.Stop(/*drain=*/true);
  }
  {
    // One byte under: rejected with the retryable backpressure code.
    ServiceScratch scratch = MakeServiceScratch();
    ServerConfig config = ScratchServerConfig(scratch);
    config.threads = 1;
    config.memory_limit_bytes = estimate - 1;
    Server server(config);
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(scratch.socket);
    ASSERT_TRUE(client.ok());
    auto submitted = client->Submit(SmallJobSpec());
    ASSERT_FALSE(submitted.ok());
    EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted);
    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->rejected_memory, 1u);
    EXPECT_EQ(stats->inflight_bytes, 0u);  // a rejection charges nothing
    server.Stop(/*drain=*/true);
  }
}

}  // namespace
}  // namespace cvcp
