#ifndef CVCP_SERVICE_PROTOCOL_H_
#define CVCP_SERVICE_PROTOCOL_H_

/// \file
/// The cvcp_serve wire protocol: length-prefixed binary frames over a
/// local (AF_UNIX) stream socket, with every frame payload a sealed
/// block-format block (common/block_format.h) whose header `kind` is the
/// message type. Reusing the block primitives buys the protocol the same
/// guarantees the artifact files have — a trailing CRC over the whole
/// payload, typed length-prefixed records, bit-exact doubles — so a
/// damaged or adversarial byte stream is rejected with a classified
/// Status before any field is interpreted, never misread (fuzzed by
/// tests/service_protocol_test.cc under ASan/UBSan).
///
/// Frame:   [u32 payload length, little-endian][payload bytes]
/// Payload: one sealed block, kind = MessageKind.
///
/// A frame longer than kMaxFrameBytes is refused at the header, before
/// any allocation — the length prefix is attacker-controlled input.
///
/// Conversation model: strict request/reply. Every request frame gets
/// exactly one reply frame on the same connection; the server never
/// pushes unsolicited frames. Long waits (kWaitRequest) simply delay the
/// reply. Any malformed request gets a kErrorReply (when the transport
/// still works) and closes the connection.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/job.h"

namespace cvcp {

/// Message types (block `kind` values). Sharing the numeric space with
/// nested job-spec / report blocks is safe: a message block can never
/// decode as a spec or report because BlockReader::Open checks the kind
/// first.
enum class MessageKind : uint32_t {
  kSubmitRequest = 0x43560001,
  kSubmitReply = 0x43560002,
  kWaitRequest = 0x43560003,
  kFetchRequest = 0x43560004,
  kReportReply = 0x43560005,
  kVersionsRequest = 0x43560006,
  kVersionsReply = 0x43560007,
  kStatsRequest = 0x43560008,
  kStatsReply = 0x43560009,
  kShutdownRequest = 0x4356000A,
  kShutdownReply = 0x4356000B,
  kErrorReply = 0x4356000C,
  kCancelRequest = 0x4356000D,
  kCancelReply = 0x4356000E,
};

/// Refuse frames above this size at the header (requests are a few KB;
/// replies carry one encoded report, well under a MB for any dataset the
/// generators produce).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Validates an incoming frame's length prefix before any payload bytes
/// are read or allocated. kInvalidArgument on zero or oversized lengths.
Status ValidateFrameLength(uint64_t length);

/// The message structs. Each has an Encode (to a sealed block string)
/// and a Decode (classified Status on any defect, bit-exact round trip
/// otherwise).

struct SubmitRequest {
  JobSpec spec;
};

struct SubmitReply {
  uint64_t job_id = 0;
  uint32_t version = 0;       ///< 1-based position in the spec's chain
  uint64_t spec_hash = 0;
};

struct WaitRequest {
  uint64_t job_id = 0;
};

struct FetchRequest {
  uint64_t job_id = 0;
};

/// A completed job's result: the *exact* immutable report block the
/// result store persisted (nested sealed block, CRC and all), so a
/// client can bit-compare it against a direct RunCvcp + EncodeCvcpReport
/// run without any re-encoding ambiguity.
struct ReportReply {
  uint64_t job_id = 0;
  uint32_t version = 0;
  uint64_t spec_hash = 0;
  std::string report_bytes;  ///< sealed kCvcpReportBlockKind block
};

struct VersionsRequest {
  uint64_t spec_hash = 0;
};

struct VersionsReply {
  std::vector<uint64_t> job_ids;  ///< chain order: version v = job_ids[v-1]
};

struct StatsRequest {};

/// Server-side observability snapshot, used by tests and the CLI to
/// assert admission and warm-store behavior (e.g. no model rebuilt on a
/// warm resubmission).
struct StatsReply {
  uint64_t queue_depth = 0;
  uint64_t running = 0;
  uint64_t accepted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_memory = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t inflight_bytes = 0;
  // Compute-cache counters (DatasetCachePool::AggregateStats).
  uint64_t distance_builds = 0;
  uint64_t distance_loads = 0;
  uint64_t distance_hits = 0;
  uint64_t model_builds = 0;
  uint64_t model_loads = 0;
  uint64_t model_hits = 0;
  // Artifact-store counters (zero when no store is configured).
  uint64_t disk_hits = 0;
  uint64_t disk_misses = 0;
  // Result-store counters.
  uint64_t results_recovered = 0;
  uint64_t results_corrupt = 0;
  uint64_t results_stored = 0;
  // Cancellation/deadline counters and recovery hygiene.
  uint64_t cancelled = 0;          ///< jobs failed by a client cancel
  uint64_t deadline_exceeded = 0;  ///< jobs failed by their deadline
  uint64_t temps_swept = 0;        ///< orphaned tmp files removed at Start
};

/// One StatsReply counter: its name (as `cvcp_client stats` prints it)
/// and its member.
struct StatsField {
  const char* name;
  uint64_t StatsReply::*member;
};

/// The StatsReply schema: every counter once, in wire order. The encoder,
/// the decoder and `cvcp_client stats` all iterate it, and its size is
/// the schema version (a reply with another count is kCorruption).
inline constexpr StatsField kStatsFields[] = {
    {"queue_depth", &StatsReply::queue_depth},
    {"running", &StatsReply::running},
    {"accepted", &StatsReply::accepted},
    {"rejected_queue_full", &StatsReply::rejected_queue_full},
    {"rejected_memory", &StatsReply::rejected_memory},
    {"completed", &StatsReply::completed},
    {"failed", &StatsReply::failed},
    {"inflight_bytes", &StatsReply::inflight_bytes},
    {"distance_builds", &StatsReply::distance_builds},
    {"distance_loads", &StatsReply::distance_loads},
    {"distance_hits", &StatsReply::distance_hits},
    {"model_builds", &StatsReply::model_builds},
    {"model_loads", &StatsReply::model_loads},
    {"model_hits", &StatsReply::model_hits},
    {"disk_hits", &StatsReply::disk_hits},
    {"disk_misses", &StatsReply::disk_misses},
    {"results_recovered", &StatsReply::results_recovered},
    {"results_corrupt", &StatsReply::results_corrupt},
    {"results_stored", &StatsReply::results_stored},
    {"cancelled", &StatsReply::cancelled},
    {"deadline_exceeded", &StatsReply::deadline_exceeded},
    {"temps_swept", &StatsReply::temps_swept},
};

struct ShutdownRequest {};

struct ShutdownReply {};

/// Requests cooperative cancellation of one job.
struct CancelRequest {
  uint64_t job_id = 0;
};

/// What the cancel request found. Delivery is inherently racy against
/// completion: `kSignalled` means the running job will stop at its next
/// cell boundary — unless it completes first, in which case its result
/// stands (a completed result's bytes are never affected by a late
/// cancel).
enum class CancelOutcome : uint32_t {
  kCancelledWhileQueued = 0,  ///< removed from the queue; never ran
  kSignalled = 1,             ///< running; stops at the next cell boundary
  kAlreadyFinished = 2,       ///< done or failed before the request arrived
};

struct CancelReply {
  CancelOutcome outcome = CancelOutcome::kAlreadyFinished;
};

/// A Status over the wire: code + message.
struct ErrorReply {
  Status status;
};

std::string EncodeSubmitRequest(const SubmitRequest& msg);
Result<SubmitRequest> DecodeSubmitRequest(std::string bytes);
std::string EncodeSubmitReply(const SubmitReply& msg);
Result<SubmitReply> DecodeSubmitReply(std::string bytes);
std::string EncodeWaitRequest(const WaitRequest& msg);
Result<WaitRequest> DecodeWaitRequest(std::string bytes);
std::string EncodeFetchRequest(const FetchRequest& msg);
Result<FetchRequest> DecodeFetchRequest(std::string bytes);
std::string EncodeReportReply(const ReportReply& msg);
Result<ReportReply> DecodeReportReply(std::string bytes);
std::string EncodeVersionsRequest(const VersionsRequest& msg);
Result<VersionsRequest> DecodeVersionsRequest(std::string bytes);
std::string EncodeVersionsReply(const VersionsReply& msg);
Result<VersionsReply> DecodeVersionsReply(std::string bytes);
std::string EncodeStatsRequest();
Result<StatsRequest> DecodeStatsRequest(std::string bytes);
std::string EncodeStatsReply(const StatsReply& msg);
Result<StatsReply> DecodeStatsReply(std::string bytes);
std::string EncodeShutdownRequest();
Result<ShutdownRequest> DecodeShutdownRequest(std::string bytes);
std::string EncodeShutdownReply();
Result<ShutdownReply> DecodeShutdownReply(std::string bytes);
std::string EncodeErrorReply(const ErrorReply& msg);
Result<ErrorReply> DecodeErrorReply(std::string bytes);
std::string EncodeCancelRequest(const CancelRequest& msg);
Result<CancelRequest> DecodeCancelRequest(std::string bytes);
std::string EncodeCancelReply(const CancelReply& msg);
Result<CancelReply> DecodeCancelReply(std::string bytes);

/// The message kind of a payload, without validating the CRC (dispatch
/// peeks, then the per-kind decoder validates the full frame).
/// kCorruption on short/garbage headers or an unknown kind value.
Result<MessageKind> PeekMessageKind(std::string_view payload);

/// Blocking frame IO on a connected stream fd. WriteFrame sends the
/// 4-byte length prefix plus the payload, looping over partial writes.
/// ReadFrame reads exactly one frame; it returns kNotFound on a clean
/// EOF before the first header byte (the peer hung up between frames),
/// kCorruption on a mid-frame EOF or read error, and kInvalidArgument on
/// an oversized length prefix — without allocating for it. On sockets
/// with SO_RCVTIMEO/SO_SNDTIMEO set (the server arms them when
/// `io_timeout_ms` is configured), a timeout before the first header
/// byte reads as kNotFound — an idle peer is evicted like a hung-up one
/// — and a mid-frame or write timeout is an IO error, so a dead client
/// can never wedge a connection thread.
Status WriteFrame(int fd, std::string_view payload);
Result<std::string> ReadFrame(int fd);

}  // namespace cvcp

#endif  // CVCP_SERVICE_PROTOCOL_H_
