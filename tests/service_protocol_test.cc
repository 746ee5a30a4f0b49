// Protocol tests for the cvcp_serve wire format: bit-exact
// encode→decode→encode round trips for every message kind, the job-spec
// and report codecs (NaN scores, noise ids, negative grid entries), and
// the fuzz armor — random bytes, truncations, single-bit flips, and
// hostile length prefixes must come back as classified Statuses, never
// as crashes or misreads (CI runs this suite under ASan/UBSan and TSan).

#include "service/protocol.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/job.h"

namespace cvcp {
namespace {

JobSpec FixtureSpec() {
  JobSpec spec;
  spec.dataset = "aloi";
  spec.dataset_seed = 77;
  spec.dataset_index = 3;
  spec.clusterer = "mpck";
  spec.scenario = SupervisionKind::kLabels;
  spec.label_fraction = 0.25;
  spec.pool_fraction = 0.5;
  spec.constraint_fraction = 0.75;
  spec.supervision_seed = 11;
  spec.param_grid = {2, 3, 5, 8};
  spec.n_folds = 10;
  spec.stratified = true;
  spec.cvcp_seed = 13;
  return spec;
}

CvcpReport FixtureReport() {
  CvcpReport report;
  report.scores = {{3, 0.75, 3},
                   {6, std::nan(""), 0},
                   {-2, -0.0, 2}};
  report.best_param = 3;
  report.best_score = 0.75;
  report.final_clustering = Clustering({0, 1, -1, 0, 2, -1});
  return report;
}

TEST(ServiceProtocolTest, JobSpecRoundTripsBitExact) {
  const JobSpec spec = FixtureSpec();
  const std::string bytes = EncodeJobSpec(spec);
  auto decoded = DecodeJobSpec(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, spec);
  EXPECT_EQ(EncodeJobSpec(*decoded), bytes);
}

TEST(ServiceProtocolTest, JobSpecHashIsContentHash) {
  const JobSpec spec = FixtureSpec();
  EXPECT_EQ(JobSpecHash(spec), JobSpecHash(FixtureSpec()));
  JobSpec other = spec;
  other.cvcp_seed ^= 1;
  EXPECT_NE(JobSpecHash(other), JobSpecHash(spec));
}

TEST(ServiceProtocolTest, ReportRoundTripsBitExactIncludingNaN) {
  const CvcpReport report = FixtureReport();
  const std::string bytes = EncodeCvcpReport(report);
  auto decoded = DecodeCvcpReport(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Equality at the bit level: a NaN score must survive.
  EXPECT_EQ(EncodeCvcpReport(*decoded), bytes);
  EXPECT_EQ(decoded->final_clustering.assignment(),
            report.final_clustering.assignment());
}

TEST(ServiceProtocolTest, EveryMessageKindRoundTrips) {
  const SubmitRequest submit{FixtureSpec()};
  {
    const std::string bytes = EncodeSubmitRequest(submit);
    auto kind = PeekMessageKind(bytes);
    ASSERT_TRUE(kind.ok());
    EXPECT_EQ(*kind, MessageKind::kSubmitRequest);
    auto decoded = DecodeSubmitRequest(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->spec, submit.spec);
    EXPECT_EQ(EncodeSubmitRequest(*decoded), bytes);
  }
  {
    const SubmitReply reply{42, 7, 0xDEADBEEFCAFEF00Dull};
    const std::string bytes = EncodeSubmitReply(reply);
    auto decoded = DecodeSubmitReply(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->job_id, reply.job_id);
    EXPECT_EQ(decoded->version, reply.version);
    EXPECT_EQ(decoded->spec_hash, reply.spec_hash);
  }
  {
    const std::string bytes = EncodeWaitRequest(WaitRequest{99});
    auto decoded = DecodeWaitRequest(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->job_id, 99u);
  }
  {
    const std::string bytes = EncodeFetchRequest(FetchRequest{100});
    auto decoded = DecodeFetchRequest(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->job_id, 100u);
  }
  {
    ReportReply reply;
    reply.job_id = 5;
    reply.version = 2;
    reply.spec_hash = 17;
    reply.report_bytes = EncodeCvcpReport(FixtureReport());
    const std::string bytes = EncodeReportReply(reply);
    auto decoded = DecodeReportReply(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->report_bytes, reply.report_bytes)
        << "nested report block must cross the wire byte-identically";
    EXPECT_EQ(EncodeReportReply(*decoded), bytes);
  }
  {
    const std::string bytes = EncodeVersionsRequest(VersionsRequest{31});
    auto decoded = DecodeVersionsRequest(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->spec_hash, 31u);
  }
  {
    VersionsReply reply;
    reply.job_ids = {3, 9, 27};
    auto decoded = DecodeVersionsReply(EncodeVersionsReply(reply));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->job_ids, reply.job_ids);
  }
  {
    StatsReply stats;
    stats.queue_depth = 1;
    stats.accepted = 2;
    stats.model_builds = 3;
    stats.results_stored = 4;
    auto decoded = DecodeStatsReply(EncodeStatsReply(stats));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->queue_depth, 1u);
    EXPECT_EQ(decoded->accepted, 2u);
    EXPECT_EQ(decoded->model_builds, 3u);
    EXPECT_EQ(decoded->results_stored, 4u);
  }
  {
    EXPECT_TRUE(DecodeStatsRequest(EncodeStatsRequest()).ok());
    EXPECT_TRUE(DecodeShutdownRequest(EncodeShutdownRequest()).ok());
    EXPECT_TRUE(DecodeShutdownReply(EncodeShutdownReply()).ok());
  }
  {
    const ErrorReply error{Status::ResourceExhausted("queue full")};
    auto decoded = DecodeErrorReply(EncodeErrorReply(error));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(decoded->status.message(), "queue full");
  }
  {
    const std::string bytes = EncodeCancelRequest(CancelRequest{77});
    auto kind = PeekMessageKind(bytes);
    ASSERT_TRUE(kind.ok());
    EXPECT_EQ(*kind, MessageKind::kCancelRequest);
    auto decoded = DecodeCancelRequest(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->job_id, 77u);
  }
  for (CancelOutcome outcome :
       {CancelOutcome::kCancelledWhileQueued, CancelOutcome::kSignalled,
        CancelOutcome::kAlreadyFinished}) {
    auto decoded = DecodeCancelReply(EncodeCancelReply(CancelReply{outcome}));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->outcome, outcome);
  }
}

// Every StatsReply counter set to a distinct value whose top and bottom
// bytes both carry the counter's 1-based wire position.
StatsReply DistinctStats() {
  uint64_t position = 0;
  const auto next = [&position] {
    ++position;
    return (position << 56) | position;
  };
  StatsReply stats;
  stats.queue_depth = next();
  stats.running = next();
  stats.accepted = next();
  stats.rejected_queue_full = next();
  stats.rejected_memory = next();
  stats.completed = next();
  stats.failed = next();
  stats.inflight_bytes = next();
  stats.distance_builds = next();
  stats.distance_loads = next();
  stats.distance_hits = next();
  stats.model_builds = next();
  stats.model_loads = next();
  stats.model_hits = next();
  stats.disk_hits = next();
  stats.disk_misses = next();
  stats.results_recovered = next();
  stats.results_corrupt = next();
  stats.results_stored = next();
  stats.cancelled = next();
  stats.deadline_exceeded = next();
  stats.temps_swept = next();
  return stats;
}

TEST(ServiceProtocolTest, StatsReplyRoundTripsEveryCounter) {
  const StatsReply stats = DistinctStats();
  auto decoded = DecodeStatsReply(EncodeStatsReply(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->queue_depth, stats.queue_depth);
  EXPECT_EQ(decoded->running, stats.running);
  EXPECT_EQ(decoded->accepted, stats.accepted);
  EXPECT_EQ(decoded->rejected_queue_full, stats.rejected_queue_full);
  EXPECT_EQ(decoded->rejected_memory, stats.rejected_memory);
  EXPECT_EQ(decoded->completed, stats.completed);
  EXPECT_EQ(decoded->failed, stats.failed);
  EXPECT_EQ(decoded->inflight_bytes, stats.inflight_bytes);
  EXPECT_EQ(decoded->distance_builds, stats.distance_builds);
  EXPECT_EQ(decoded->distance_loads, stats.distance_loads);
  EXPECT_EQ(decoded->distance_hits, stats.distance_hits);
  EXPECT_EQ(decoded->model_builds, stats.model_builds);
  EXPECT_EQ(decoded->model_loads, stats.model_loads);
  EXPECT_EQ(decoded->model_hits, stats.model_hits);
  EXPECT_EQ(decoded->disk_hits, stats.disk_hits);
  EXPECT_EQ(decoded->disk_misses, stats.disk_misses);
  EXPECT_EQ(decoded->results_recovered, stats.results_recovered);
  EXPECT_EQ(decoded->results_corrupt, stats.results_corrupt);
  EXPECT_EQ(decoded->results_stored, stats.results_stored);
  EXPECT_EQ(decoded->cancelled, stats.cancelled);
  EXPECT_EQ(decoded->deadline_exceeded, stats.deadline_exceeded);
  EXPECT_EQ(decoded->temps_swept, stats.temps_swept);
}

// The counters' wire order is part of the protocol: one fixed reply's
// encoding is pinned byte for byte (block header, the array record's
// header, the 22 counters two to a line, the CRC).
TEST(ServiceProtocolTest, StatsReplyBytesArePinned) {
  const std::string bytes = EncodeStatsReply(DistinctStats());
  std::string hex;
  for (unsigned char byte : bytes) hex += Format("%02x", byte);
  EXPECT_EQ(hex,
            "43564350424c4b310100000009005643"
            "01000000b0000000"
            "01000000000000010200000000000002"
            "03000000000000030400000000000004"
            "05000000000000050600000000000006"
            "07000000000000070800000000000008"
            "09000000000000090a0000000000000a"
            "0b0000000000000b0c0000000000000c"
            "0d0000000000000d0e0000000000000e"
            "0f0000000000000f1000000000000010"
            "11000000000000111200000000000012"
            "13000000000000131400000000000014"
            "15000000000000151600000000000016"
            "3752c839");
}

TEST(ServiceProtocolTest, CancelAndDeadlineStatusCodesCrossTheWire) {
  // The two new StatusCode values are appended, never inserted — pin
  // that they survive an ErrorReply round trip with their identity.
  for (const Status& status :
       {Status::Cancelled("cancelled by caller"),
        Status::DeadlineExceeded("deadline exceeded")}) {
    auto decoded = DecodeErrorReply(EncodeErrorReply(ErrorReply{status}));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->status.code(), status.code());
    EXPECT_EQ(decoded->status.message(), status.message());
  }
}

TEST(ServiceProtocolTest, BadCancelOutcomeIsCorruption) {
  // The decoder must classify an out-of-range outcome value, never cast
  // blindly into the enum. Rather than poke at encoder internals, fuzz
  // every byte: no single byte change may decode to an outcome outside
  // the enum.
  const std::string bytes = EncodeCancelReply(CancelReply{});
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int delta : {1, 128}) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(
          static_cast<unsigned char>(mutated[i]) + delta);
      auto decoded = DecodeCancelReply(mutated);
      if (!decoded.ok()) continue;  // classified rejection: fine
      EXPECT_LE(static_cast<uint32_t>(decoded->outcome),
                static_cast<uint32_t>(CancelOutcome::kAlreadyFinished));
    }
  }
}

TEST(ServiceProtocolTest, SpecDeadlineRoundTripsAndIsNotIdentity) {
  JobSpec spec = FixtureSpec();
  spec.deadline_ms = 1500;
  auto decoded = DecodeJobSpec(EncodeJobSpec(spec));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->deadline_ms, 1500u);
  // The deadline is execution metadata, not identity: the same logical
  // job with a different (or no) deadline shares one version chain.
  JobSpec no_deadline = spec;
  no_deadline.deadline_ms = 0;
  EXPECT_EQ(JobSpecHash(spec), JobSpecHash(no_deadline));
}

TEST(ServiceProtocolTest, PreDeadlineSpecBytesDecodeAndHashIdentically) {
  // A spec block written before deadline_ms existed has no trailing
  // deadline record. It must still decode (deadline 0) and its stored
  // hash must keep verifying, or ResultStore::Recover would classify
  // every pre-upgrade record as corrupt and drop it on upgrade.
  const JobSpec spec = FixtureSpec();
  BlockBuilder legacy(kJobSpecBlockKind);  // the pre-deadline encoding
  legacy.AppendString(spec.dataset);
  legacy.AppendU64(spec.dataset_seed);
  legacy.AppendU64(spec.dataset_index);
  legacy.AppendString(spec.clusterer);
  legacy.AppendU32(static_cast<uint32_t>(spec.scenario));
  const double fractions[] = {spec.label_fraction, spec.pool_fraction,
                              spec.constraint_fraction};
  legacy.AppendDoubles(fractions);
  legacy.AppendU64(spec.supervision_seed);
  std::vector<size_t> grid(spec.param_grid.begin(), spec.param_grid.end());
  legacy.AppendSizes(grid);
  legacy.AppendU32(static_cast<uint32_t>(spec.n_folds));
  legacy.AppendU32(spec.stratified ? 1 : 0);
  legacy.AppendU64(spec.cvcp_seed);
  const std::string legacy_bytes = legacy.Finish();

  auto decoded = DecodeJobSpec(legacy_bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, spec);
  EXPECT_EQ(decoded->deadline_ms, 0u);
  // A deadline-free spec must re-encode to the legacy bytes exactly —
  // that byte identity is what keeps legacy spec hashes verifying.
  EXPECT_EQ(EncodeJobSpec(*decoded), legacy_bytes);
  JobSpec with_deadline = spec;
  with_deadline.deadline_ms = 2500;
  EXPECT_EQ(JobSpecHash(with_deadline), JobSpecHash(*decoded));
}

TEST(ServiceProtocolTest, WrongKindIsRejectedBeforeRecords) {
  // A valid frame of the wrong kind must not decode as another message.
  const std::string bytes = EncodeWaitRequest(WaitRequest{1});
  auto decoded = DecodeFetchRequest(bytes);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServiceProtocolTest, PeekRejectsUnknownKind) {
  BlockBuilder builder(0x12345678);
  builder.AppendU64(1);
  auto kind = PeekMessageKind(builder.Finish());
  EXPECT_FALSE(kind.ok());
  EXPECT_EQ(kind.status().code(), StatusCode::kCorruption);
}

TEST(ServiceProtocolTest, ValidateFrameLengthBounds) {
  EXPECT_FALSE(ValidateFrameLength(0).ok());
  EXPECT_TRUE(ValidateFrameLength(1).ok());
  EXPECT_TRUE(ValidateFrameLength(kMaxFrameBytes).ok());
  EXPECT_FALSE(ValidateFrameLength(kMaxFrameBytes + 1).ok());
  EXPECT_FALSE(
      ValidateFrameLength(std::numeric_limits<uint64_t>::max()).ok());
}

// --- fuzz armor -----------------------------------------------------------

// Each decoder over random bytes: must return a Status, never crash or
// misread (ASan/UBSan guard the "never crash" half in CI).
TEST(ServiceProtocolTest, FuzzRandomBytesAreClassified) {
  Rng rng(2024);
  for (int round = 0; round < 500; ++round) {
    const size_t len = rng.Index(256);
    std::string bytes(len, '\0');
    for (char& c : bytes) {
      c = static_cast<char>(rng.Index(256));
    }
    EXPECT_FALSE(DecodeSubmitRequest(bytes).ok());
    EXPECT_FALSE(DecodeReportReply(bytes).ok());
    EXPECT_FALSE(DecodeStatsReply(bytes).ok());
    EXPECT_FALSE(DecodeErrorReply(bytes).ok());
    EXPECT_FALSE(DecodeJobSpec(bytes).ok());
    EXPECT_FALSE(DecodeCvcpReport(bytes).ok());
  }
}

// Any single-bit flip anywhere in a valid message must fail the CRC (or a
// later structural check) — a damaged frame is never interpreted.
TEST(ServiceProtocolTest, FuzzBitFlipsNeverDecode) {
  const std::string valid = EncodeSubmitRequest(SubmitRequest{FixtureSpec()});
  Rng rng(7);
  for (int round = 0; round < 300; ++round) {
    std::string damaged = valid;
    const size_t byte = rng.Index(damaged.size());
    damaged[byte] = static_cast<char>(
        static_cast<unsigned char>(damaged[byte]) ^ (1u << rng.Index(8)));
    EXPECT_FALSE(DecodeSubmitRequest(damaged).ok())
        << "bit flip at byte " << byte << " decoded successfully";
  }
}

TEST(ServiceProtocolTest, FuzzTruncationsNeverDecode) {
  const std::string valid = EncodeReportReply(
      ReportReply{1, 1, 2, EncodeCvcpReport(FixtureReport())});
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(DecodeReportReply(valid.substr(0, len)).ok());
  }
}

// A report whose assignment contains ids below -1 must be rejected as
// corruption, not fed to Clustering (whose constructor enforces the
// invariant fatally).
TEST(ServiceProtocolTest, HostileAssignmentIdsAreCorruption) {
  BlockBuilder builder(kCvcpReportBlockKind);
  const std::vector<size_t> params = {3};
  const std::vector<double> scores = {0.5};
  const std::vector<size_t> valid_folds = {1};
  builder.AppendSizes(params);
  builder.AppendDoubles(scores);
  builder.AppendSizes(valid_folds);
  builder.AppendU64(3);
  const std::vector<double> best = {0.5};
  builder.AppendDoubles(best);
  // Assignment record with id -5 (encoded two's-complement as u64).
  const std::vector<size_t> assignment = {
      static_cast<size_t>(static_cast<uint64_t>(int64_t{-5}))};
  builder.AppendSizes(assignment);
  auto decoded = DecodeCvcpReport(builder.Finish());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// --- frame IO over a real socketpair --------------------------------------

struct FdPair {
  int a = -1;
  int b = -1;
  FdPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~FdPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(ServiceProtocolTest, FrameRoundTripsOverSocket) {
  FdPair pair;
  const std::string payload = EncodeSubmitRequest(SubmitRequest{FixtureSpec()});
  ASSERT_TRUE(WriteFrame(pair.a, payload).ok());
  auto read = ReadFrame(pair.b);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
}

TEST(ServiceProtocolTest, CleanEofIsNotFound) {
  FdPair pair;
  ::close(pair.a);
  pair.a = -1;
  auto read = ReadFrame(pair.b);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(ServiceProtocolTest, MidFrameEofIsCorruption) {
  FdPair pair;
  // A 100-byte length prefix followed by only 3 payload bytes, then EOF.
  const char header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::send(pair.a, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  ASSERT_EQ(::send(pair.a, "abc", 3, 0), 3);
  ::close(pair.a);
  pair.a = -1;
  auto read = ReadFrame(pair.b);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

TEST(ServiceProtocolTest, OversizedLengthPrefixIsRejectedWithoutAllocating) {
  FdPair pair;
  // 0xFFFFFFFF-byte frame announcement: must be refused at the header.
  const unsigned char header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(pair.a, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  auto read = ReadFrame(pair.b);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceProtocolTest, ZeroLengthFrameIsRejected) {
  FdPair pair;
  const char header[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(pair.a, header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  auto read = ReadFrame(pair.b);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(WriteFrame(pair.a, "").ok());
}

// Frames larger than the socket buffer force partial writes/reads; the
// loops must reassemble them exactly.
TEST(ServiceProtocolTest, LargeFrameSurvivesPartialIo) {
  FdPair pair;
  Rng rng(5);
  std::string payload(1u << 20, '\0');
  for (char& c : payload) c = static_cast<char>(rng.Index(256));
  std::string received;
  std::thread reader([&] {
    auto read = ReadFrame(pair.b);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    received = std::move(read).value();
  });
  ASSERT_TRUE(WriteFrame(pair.a, payload).ok());
  reader.join();
  EXPECT_EQ(received, payload);
}

}  // namespace
}  // namespace cvcp
