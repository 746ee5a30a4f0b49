// Admission control and scheduling fairness for cvcp_serve:
//
//   * a full queue (capacity k, job k+1) answers with an immediate
//     kResourceExhausted *reply* — backpressure, never a hang;
//   * the in-flight memory budget rejects the same way while jobs hold
//     their charge, and re-admits once the charge is discharged;
//   * with batch > 1 a parked slow job does not starve a small job —
//     the second executor lane serves it to completion while the first
//     is still held.
//
// Every "while X is held" step is driven by the Gate seam, so the suite
// is sleep-free and exact: the rejected submission returns while the
// executor is provably parked.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/job.h"
#include "service/client.h"
#include "service/server.h"
#include "tests/service_test_util.h"

namespace cvcp {
namespace {

constexpr uint64_t kParkSeed = 42;  // the gate hook parks on this seed

JobSpec ParkedSpec() {
  JobSpec spec = SmallJobSpec();
  spec.cvcp_seed = kParkSeed;
  return spec;
}

JobSpec SeededSpec(uint64_t seed) {
  JobSpec spec = SmallJobSpec();
  spec.cvcp_seed = seed;
  return spec;
}

TEST(ServiceAdmissionTest, FullQueueRejectsImmediatelyWithBackpressure) {
  constexpr size_t kCapacity = 2;
  Gate gate;
  ServiceScratch scratch = MakeServiceScratch();
  ServerConfig config = ScratchServerConfig(scratch);
  config.store_dir.clear();
  config.batch = 1;
  config.queue_capacity = kCapacity;
  config.before_job_hook = [&gate](const JobSpec& spec) {
    if (spec.cvcp_seed == kParkSeed) gate.Enter();
  };
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());

  // The parked job occupies the only executor; the queue is then filled
  // to exactly its capacity.
  ASSERT_TRUE(client->Submit(ParkedSpec()).ok());
  ASSERT_TRUE(gate.AwaitParked(1));
  std::vector<uint64_t> queued_ids;
  for (size_t i = 0; i < kCapacity; ++i) {
    auto submitted = client->Submit(SeededSpec(100 + i));
    ASSERT_TRUE(submitted.ok());
    queued_ids.push_back(submitted->job_id);
  }
  EXPECT_EQ(server.Stats().queue_depth, kCapacity);

  // Job k+1: an immediate, classified rejection — this call returning at
  // all (while the executor is provably parked) is the no-hang property.
  auto rejected = client->Submit(SeededSpec(999));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  {
    const StatsReply stats = server.Stats();
    EXPECT_EQ(stats.rejected_queue_full, 1u);
    EXPECT_EQ(stats.accepted, 1u + kCapacity);
    EXPECT_EQ(stats.queue_depth, kCapacity) << "rejection queued nothing";
  }

  // Backpressure means "retry later": after release, the queue drains
  // and the same spec is admitted.
  gate.Release();
  for (uint64_t id : queued_ids) {
    EXPECT_TRUE(client->Wait(id).ok());
  }
  auto retried = client->Submit(SeededSpec(999));
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(client->Wait(retried->job_id).ok());
  server.Stop(/*drain=*/true);
}

TEST(ServiceAdmissionTest, MemoryBudgetRejectsAndReadmitsAfterDischarge) {
  // Budget sized for one iris job in flight, not two: the charge is
  // deterministic (EstimateJobBytes), so 1.5× one charge is exact.
  const uint64_t charge =
      EstimateJobBytes(/*n=*/150, SmallJobSpec().param_grid.size());
  Gate gate;
  ServiceScratch scratch = MakeServiceScratch();
  ServerConfig config = ScratchServerConfig(scratch);
  config.store_dir.clear();
  config.batch = 1;
  config.memory_limit_bytes = charge + charge / 2;
  config.before_job_hook = [&gate](const JobSpec& spec) {
    if (spec.cvcp_seed == kParkSeed) gate.Enter();
  };
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());

  auto parked = client->Submit(ParkedSpec());
  ASSERT_TRUE(parked.ok());
  ASSERT_TRUE(gate.AwaitParked(1));

  // The second job's charge would exceed the budget while the first
  // still holds its own: rejected, classified, counted.
  auto rejected = client->Submit(SeededSpec(2));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  {
    const StatsReply stats = server.Stats();
    EXPECT_EQ(stats.rejected_memory, 1u);
    EXPECT_EQ(stats.inflight_bytes, charge);
  }

  // Completion discharges the charge; the same spec is then admitted.
  gate.Release();
  ASSERT_TRUE(client->Wait(parked->job_id).ok());
  EXPECT_EQ(server.Stats().inflight_bytes, 0u);
  auto retried = client->Submit(SeededSpec(2));
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(client->Wait(retried->job_id).ok());
  server.Stop(/*drain=*/true);
}

TEST(ServiceAdmissionTest, SlowJobDoesNotStarveSmallJobsWhenBatching) {
  Gate gate;
  ServiceScratch scratch = MakeServiceScratch();
  ServerConfig config = ScratchServerConfig(scratch);
  config.store_dir.clear();
  config.batch = 2;  // two executor lanes share the thread budget
  config.before_job_hook = [&gate](const JobSpec& spec) {
    if (spec.cvcp_seed == kParkSeed) gate.Enter();
  };
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());

  // The "slow" job parks one lane indefinitely.
  auto slow = client->Submit(ParkedSpec());
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(gate.AwaitParked(1));

  // The small job must complete on the other lane while the slow one is
  // still parked — this Wait returning before Release() *is* the
  // no-starvation property (a starved job would hang the test here).
  auto small = client->Submit(SeededSpec(5));
  ASSERT_TRUE(small.ok());
  auto small_reply = client->Wait(small->job_id);
  ASSERT_TRUE(small_reply.ok());
  {
    const StatsReply stats = server.Stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.running, 1u) << "the slow job is still parked";
  }

  gate.Release();
  auto slow_reply = client->Wait(slow->job_id);
  ASSERT_TRUE(slow_reply.ok());
  server.Stop(/*drain=*/true);
}

TEST(ServiceAdmissionTest, InvalidSpecsAreRejectedAtAdmission) {
  ServiceScratch scratch = MakeServiceScratch();
  ServerConfig config = ScratchServerConfig(scratch);
  config.store_dir.clear();
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());

  JobSpec bad_dataset = SmallJobSpec();
  bad_dataset.dataset = "no-such-dataset";
  auto rejected = client->Submit(bad_dataset);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  JobSpec bad_grid = SmallJobSpec();
  bad_grid.param_grid.clear();
  auto rejected2 = client->Submit(bad_grid);
  ASSERT_FALSE(rejected2.ok());
  EXPECT_EQ(rejected2.status().code(), StatusCode::kInvalidArgument);

  // Nothing was admitted, charged, or queued.
  const StatsReply stats = server.Stats();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.inflight_bytes, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  server.Stop(/*drain=*/true);
}

}  // namespace
}  // namespace cvcp
