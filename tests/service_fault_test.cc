// Fault injection for the service layer's durability story:
//
//   * a server killed with jobs still queued (Stop(drain=false) — the
//     in-process stand-in for SIGKILL, identical from the store's point
//     of view) loses nothing that completed: a successor server over the
//     same directories recovers every published record byte-identically,
//     and the abandoned job's spec is simply re-runnable;
//   * a truncated or bit-flipped record file is a *classified* error —
//     counted at recovery, kNotFound at fetch — never garbage served;
//   * the record codec itself rejects damage, cross-linked spec hashes,
//     and truncation at every length.
//
// All choreography is condition-variable-driven through the Gate test
// seam (no sleeps): the test decides exactly when the parked job may run.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "common/strings.h"
#include "core/job.h"
#include "service/client.h"
#include "service/result_store.h"
#include "service/server.h"
#include "tests/service_test_util.h"

namespace cvcp {
namespace {

std::string RecordPath(const std::string& results_dir, uint64_t job_id) {
  return Format("%s/job-%016llx.cvcp", results_dir.c_str(),
                static_cast<unsigned long long>(job_id));
}

void TruncateFile(const std::string& path, size_t keep) {
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_LT(keep, bytes->size());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes->data(), 1, keep, f), keep);
  std::fclose(f);
}

void FlipBit(const std::string& path, size_t byte, int bit) {
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_LT(byte, bytes->size());
  std::string damaged = std::move(bytes).value();
  damaged[byte] = static_cast<char>(
      static_cast<unsigned char>(damaged[byte]) ^ (1u << bit));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(damaged.data(), 1, damaged.size(), f),
            damaged.size());
  std::fclose(f);
}

std::string DirectBytes(const JobSpec& spec) {
  DatasetResolver resolver;
  auto data = resolver.Resolve(spec);
  CVCP_CHECK(data.ok());
  JobContext context;
  auto report = RunJob(**data, spec, context);
  CVCP_CHECK(report.ok());
  return EncodeCvcpReport(report.value());
}

TEST(ServiceFaultTest, KillMidQueueCompletedRecordsSurviveAbandonedRerun) {
  ServiceScratch scratch = MakeServiceScratch();
  const JobSpec spec_a = SmallJobSpec();
  JobSpec spec_b = SmallJobSpec();
  spec_b.cvcp_seed = 42;  // the marker the gate hook parks on
  JobSpec spec_c = SmallJobSpec();
  spec_c.cvcp_seed = 7;

  Gate gate;
  ServerConfig config = ScratchServerConfig(scratch);
  config.batch = 1;  // one executor, so C necessarily queues behind B
  config.before_job_hook = [&gate](const JobSpec& spec) {
    if (spec.cvcp_seed == 42) gate.Enter();
  };

  uint64_t id_a = 0;
  uint64_t id_b = 0;
  uint64_t id_c = 0;
  std::string reply_a;
  {
    Server server(config);
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(scratch.socket);
    ASSERT_TRUE(client.ok());

    // A completes normally and is published.
    auto a = client->Submit(spec_a);
    ASSERT_TRUE(a.ok());
    id_a = a->job_id;
    auto a_reply = client->Wait(id_a);
    ASSERT_TRUE(a_reply.ok());
    reply_a = a_reply->report_bytes;

    // B is picked up by the sole executor and parks in the hook; C lands
    // behind it in the queue.
    auto b = client->Submit(spec_b);
    ASSERT_TRUE(b.ok());
    id_b = b->job_id;
    ASSERT_TRUE(gate.AwaitParked(1));
    auto c = client->Submit(spec_c);
    ASSERT_TRUE(c.ok());
    id_c = c->job_id;

    // "Kill" the server: Stop(drain=false) abandons the queue where it
    // stands. It blocks joining the parked executor, so it runs on a
    // helper thread; the test waits for the queue to be discarded before
    // letting B proceed, so C can never sneak into execution.
    std::thread killer([&server] { server.Stop(/*drain=*/false); });
    while (server.Stats().queue_depth != 0) std::this_thread::yield();
    gate.Release();
    killer.join();
  }

  // Successor server over the same directories.
  ServerConfig successor_config = ScratchServerConfig(scratch);
  Server successor(successor_config);
  ASSERT_TRUE(successor.Start().ok());
  {
    const StatsReply stats = successor.Stats();
    EXPECT_EQ(stats.results_recovered, 2u) << "A and B were published";
    EXPECT_EQ(stats.results_corrupt, 0u);
  }
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());

  // Completed records survived byte-identically and CRC-verified.
  auto a_again = client->Fetch(id_a);
  ASSERT_TRUE(a_again.ok());
  EXPECT_EQ(a_again->report_bytes, reply_a);
  auto b_again = client->Fetch(id_b);
  ASSERT_TRUE(b_again.ok());
  EXPECT_EQ(b_again->report_bytes, DirectBytes(spec_b))
      << "B finished (was in flight, not queued) and must have stored";

  // The abandoned queued job left no record — and its spec is simply
  // re-runnable, producing the exact direct bytes.
  auto c_missing = client->Fetch(id_c);
  ASSERT_FALSE(c_missing.ok());
  EXPECT_EQ(c_missing.status().code(), StatusCode::kNotFound);
  auto c_redo = client->Submit(spec_c);
  ASSERT_TRUE(c_redo.ok());
  auto c_reply = client->Wait(c_redo->job_id);
  ASSERT_TRUE(c_reply.ok());
  EXPECT_EQ(c_reply->report_bytes, DirectBytes(spec_c));

  successor.Stop(/*drain=*/true);
}

TEST(ServiceFaultTest, VersionChainsContinueAcrossRestart) {
  ServiceScratch scratch = MakeServiceScratch();
  const JobSpec spec = SmallJobSpec();
  uint64_t first_id = 0;
  {
    Server server(ScratchServerConfig(scratch));
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(scratch.socket);
    ASSERT_TRUE(client.ok());
    auto submitted = client->Submit(spec);
    ASSERT_TRUE(submitted.ok());
    EXPECT_EQ(submitted->version, 1u);
    first_id = submitted->job_id;
    ASSERT_TRUE(client->Wait(first_id).ok());
    server.Stop(/*drain=*/true);
  }
  {
    Server server(ScratchServerConfig(scratch));
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(scratch.socket);
    ASSERT_TRUE(client.ok());
    auto submitted = client->Submit(spec);
    ASSERT_TRUE(submitted.ok());
    EXPECT_EQ(submitted->version, 2u)
        << "the chain resumes where the previous server left it";
    EXPECT_GT(submitted->job_id, first_id) << "job ids stay monotonic";
    ASSERT_TRUE(client->Wait(submitted->job_id).ok());
    auto versions = client->Versions(JobSpecHash(spec));
    ASSERT_TRUE(versions.ok());
    ASSERT_EQ(versions->size(), 2u);
    EXPECT_EQ((*versions)[0], first_id);
    server.Stop(/*drain=*/true);
  }
}

// A recovered id is a finished job in the successor's life: Wait returns
// its stored bytes and Cancel finds it already finished.
TEST(ServiceFaultTest, RecoveredJobWaitsAndCancelsAsFinished) {
  ServiceScratch scratch = MakeServiceScratch();
  uint64_t job_id = 0;
  std::string stored;
  {
    Server server(ScratchServerConfig(scratch));
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(scratch.socket);
    ASSERT_TRUE(client.ok());
    auto submitted = client->Submit(SmallJobSpec());
    ASSERT_TRUE(submitted.ok());
    job_id = submitted->job_id;
    auto reply = client->Wait(job_id);
    ASSERT_TRUE(reply.ok());
    stored = reply->report_bytes;
    server.Stop(/*drain=*/true);
  }
  Server server(ScratchServerConfig(scratch));
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());
  auto waited = client->Wait(job_id);
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(waited->job_id, job_id);
  EXPECT_EQ(waited->report_bytes, stored);
  auto cancel = client->Cancel(job_id);
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel->outcome, CancelOutcome::kAlreadyFinished);
  server.Stop(/*drain=*/true);
}

// Start sweeps the tmp files a crash stranded between write and rename,
// in the results directory and in the artifact store, and reports both.
TEST(ServiceFaultTest, StartSweepsStrandedTempsInBothStores) {
  ServiceScratch scratch = MakeServiceScratch();
  for (const std::string& dir : {scratch.results, scratch.store}) {
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    std::FILE* f = std::fopen((dir + "/stranded.tmp.1.0").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  Server server(ScratchServerConfig(scratch));
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.Stats().temps_swept, 2u);
  server.Stop(/*drain=*/true);
}

TEST(ServiceFaultTest, TruncatedAndBitFlippedRecordsAreClassified) {
  ServiceScratch scratch = MakeServiceScratch();
  const JobSpec spec_a = SmallJobSpec();
  JobSpec spec_b = SmallJobSpec();
  spec_b.cvcp_seed = 2;
  JobSpec spec_c = SmallJobSpec();
  spec_c.cvcp_seed = 3;

  uint64_t id_a = 0;
  uint64_t id_b = 0;
  uint64_t id_c = 0;
  std::string reply_c;
  {
    Server server(ScratchServerConfig(scratch));
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(scratch.socket);
    ASSERT_TRUE(client.ok());
    for (auto* pair : {&id_a, &id_b, &id_c}) {
      const JobSpec& spec =
          pair == &id_a ? spec_a : pair == &id_b ? spec_b : spec_c;
      auto submitted = client->Submit(spec);
      ASSERT_TRUE(submitted.ok());
      *pair = submitted->job_id;
      auto reply = client->Wait(*pair);
      ASSERT_TRUE(reply.ok());
      if (pair == &id_c) reply_c = reply->report_bytes;
    }
    server.Stop(/*drain=*/true);
  }

  // Damage two of the three records on disk.
  TruncateFile(RecordPath(scratch.results, id_a), /*keep=*/40);
  FlipBit(RecordPath(scratch.results, id_b), /*byte=*/64, /*bit=*/3);

  Server server(ScratchServerConfig(scratch));
  ASSERT_TRUE(server.Start().ok());
  const StatsReply stats = server.Stats();
  EXPECT_EQ(stats.results_recovered, 1u);
  EXPECT_EQ(stats.results_corrupt, 2u)
      << "both damaged files counted, neither indexed";

  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok());
  for (uint64_t damaged : {id_a, id_b}) {
    auto fetched = client->Fetch(damaged);
    ASSERT_FALSE(fetched.ok()) << "job " << damaged;
    EXPECT_EQ(fetched.status().code(), StatusCode::kNotFound)
        << "damage is classified at recovery, never served as garbage";
  }
  auto intact = client->Fetch(id_c);
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(intact->report_bytes, reply_c);
  server.Stop(/*drain=*/true);
}

// --- the record codec directly -------------------------------------------

StoredResult FixtureRecord() {
  StoredResult record;
  record.job_id = 7;
  record.version = 3;
  JobSpec spec = SmallJobSpec();
  record.spec_bytes = EncodeJobSpec(spec);
  record.spec_hash = JobSpecHash(spec);
  CvcpReport report;
  report.scores = {{3, 0.5, 3}};
  report.best_param = 3;
  report.best_score = 0.5;
  report.final_clustering = Clustering({0, 0, 1});
  record.report_bytes = EncodeCvcpReport(report);
  return record;
}

TEST(ServiceFaultTest, StoredResultRoundTripsBitExact) {
  const StoredResult record = FixtureRecord();
  const std::string bytes = EncodeStoredResult(record);
  auto decoded = DecodeStoredResult(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->job_id, record.job_id);
  EXPECT_EQ(decoded->version, record.version);
  EXPECT_EQ(decoded->spec_hash, record.spec_hash);
  EXPECT_EQ(decoded->spec_bytes, record.spec_bytes);
  EXPECT_EQ(decoded->report_bytes, record.report_bytes);
  EXPECT_EQ(EncodeStoredResult(*decoded), bytes);
}

TEST(ServiceFaultTest, PreDeadlineRecordSurvivesRecovery) {
  // Upgrade compatibility: a record persisted before JobSpec::deadline_ms
  // existed embeds spec bytes with no trailing deadline record and a
  // spec hash computed over those bytes. EncodeJobSpec of a
  // deadline-free spec is pinned byte-identical to that legacy encoding
  // (service_protocol_test PreDeadlineSpecBytesDecodeAndHashIdentically),
  // so this record is an authentic pre-upgrade fixture; Recover must
  // index it, never count it corrupt and drop it.
  ServiceScratch scratch = MakeServiceScratch();
  StoredResult record = FixtureRecord();
  record.job_id = 1;
  record.version = 1;
  ASSERT_TRUE(WriteFileAtomic(
                  scratch.results,
                  Format("job-%016llx.cvcp",
                         static_cast<unsigned long long>(record.job_id)),
                  EncodeStoredResult(record), /*temp_seq=*/0)
                  .ok());
  ResultStore store(scratch.results);
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(store.stats().recovered, 1u);
  EXPECT_EQ(store.stats().corrupt, 0u);
  auto fetched = store.Get(record.job_id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->spec_bytes, record.spec_bytes);
  EXPECT_EQ(fetched->report_bytes, record.report_bytes);
}

TEST(ServiceFaultTest, StoredResultRejectsEveryTruncation) {
  const std::string bytes = EncodeStoredResult(FixtureRecord());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeStoredResult(bytes.substr(0, len)).ok());
  }
}

TEST(ServiceFaultTest, StoredResultRejectsCrossLinkedSpecHash) {
  StoredResult record = FixtureRecord();
  record.spec_hash ^= 1;  // points at a different spec than it embeds
  auto decoded = DecodeStoredResult(EncodeStoredResult(record));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ServiceFaultTest, StoredResultRejectsZeroVersion) {
  StoredResult record = FixtureRecord();
  record.version = 0;
  auto decoded = DecodeStoredResult(EncodeStoredResult(record));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ServiceFaultTest, ResultStorePutIsWriteOnce) {
  ServiceScratch scratch = MakeServiceScratch();
  ResultStore store(scratch.results);
  ASSERT_TRUE(store.Recover().ok());
  StoredResult record = FixtureRecord();
  record.job_id = store.AllocateJobId();
  record.version = store.AllocateVersion(record.spec_hash);
  ASSERT_TRUE(store.Put(record).ok());
  const Status again = store.Put(record);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
}

// Get reads the record file, so a file that now holds another job's
// (valid) record must not be served under the id it was asked for.
TEST(ServiceFaultTest, ResultStoreGetRejectsARecordOfAnotherId) {
  ServiceScratch scratch = MakeServiceScratch();
  ResultStore store(scratch.results);
  ASSERT_TRUE(store.Recover().ok());
  StoredResult first = FixtureRecord();
  first.job_id = store.AllocateJobId();
  first.version = store.AllocateVersion(first.spec_hash);
  StoredResult second = FixtureRecord();
  second.job_id = store.AllocateJobId();
  second.version = store.AllocateVersion(second.spec_hash);
  ASSERT_TRUE(store.Put(first).ok());
  ASSERT_TRUE(store.Put(second).ok());

  auto second_bytes =
      ReadFileToString(RecordPath(scratch.results, second.job_id));
  ASSERT_TRUE(second_bytes.ok());
  std::FILE* f =
      std::fopen(RecordPath(scratch.results, first.job_id).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(second_bytes->data(), 1, second_bytes->size(), f),
            second_bytes->size());
  std::fclose(f);

  auto fetched = store.Get(first.job_id);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kCorruption);
  auto intact = store.Get(second.job_id);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  EXPECT_EQ(intact->report_bytes, second.report_bytes);
}

TEST(ServiceFaultTest, RecoverCountsARecordFiledUnderAnotherIdAsCorrupt) {
  ServiceScratch scratch = MakeServiceScratch();
  StoredResult record = FixtureRecord();  // job 7
  ASSERT_TRUE(WriteFileAtomic(scratch.results, "job-0000000000000009.cvcp",
                              EncodeStoredResult(record), /*temp_seq=*/0)
                  .ok());
  ResultStore store(scratch.results);
  ASSERT_TRUE(store.Recover().ok());
  EXPECT_EQ(store.stats().recovered, 0u);
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_FALSE(store.Contains(7));
  EXPECT_FALSE(store.Contains(9));
  EXPECT_EQ(store.Get(7).status().code(), StatusCode::kNotFound);
}

// A mistyped --socket must never destroy the file it names: Start refuses
// an existing path that is not a socket and leaves it as it was.
TEST(ServiceFaultTest, StartRefusesASocketPathThatIsNotASocket) {
  ServiceScratch scratch = MakeServiceScratch();
  const std::string notes = "notes the operator wants to keep\n";
  ASSERT_TRUE(WriteFileAtomic(scratch.base, "sock", notes, /*temp_seq=*/0)
                  .ok());
  {
    Server server(ScratchServerConfig(scratch));
    const Status started = server.Start();
    ASSERT_FALSE(started.ok());
    EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition);
    auto kept = ReadFileToString(scratch.socket);
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(kept.value(), notes);
  }
  auto kept = ReadFileToString(scratch.socket);
  ASSERT_TRUE(kept.ok()) << "the server's teardown removed the file";
  EXPECT_EQ(kept.value(), notes);
}

// A socket left behind by a server that died without Stop is still
// cleared, so a restart over the same path binds.
TEST(ServiceFaultTest, StartReplacesAStaleSocket) {
  ServiceScratch scratch = MakeServiceScratch();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(scratch.socket.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, scratch.socket.c_str(),
              scratch.socket.size() + 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ::close(fd);  // the socket file stays, as after a crash
  ASSERT_TRUE(std::filesystem::is_socket(scratch.socket));

  Server server(ScratchServerConfig(scratch));
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(scratch.socket);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  server.Stop(/*drain=*/true);
  EXPECT_FALSE(std::filesystem::exists(scratch.socket));
}

}  // namespace
}  // namespace cvcp
