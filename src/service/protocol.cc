#include "service/protocol.h"

#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/block_format.h"
#include "common/strings.h"

namespace cvcp {

namespace {

uint32_t KindValue(MessageKind kind) { return static_cast<uint32_t>(kind); }

/// Opens `bytes` as a message block of `kind` — the shared prologue of
/// every decoder.
Result<BlockReader> OpenMessage(std::string bytes, MessageKind kind) {
  return BlockReader::Open(std::move(bytes), KindValue(kind));
}

Status RequireDrained(const BlockReader& reader) {
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing records in message");
  }
  return Status::OK();
}

}  // namespace

Status ValidateFrameLength(uint64_t length) {
  if (length == 0) {
    return Status::InvalidArgument("zero-length frame");
  }
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument(
        Format("frame length %llu exceeds the %u-byte cap",
               static_cast<unsigned long long>(length), kMaxFrameBytes));
  }
  return Status::OK();
}

std::string EncodeSubmitRequest(const SubmitRequest& msg) {
  BlockBuilder builder(KindValue(MessageKind::kSubmitRequest));
  AppendJobSpecRecords(msg.spec, &builder);
  return builder.Finish();
}

Result<SubmitRequest> DecodeSubmitRequest(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      OpenMessage(std::move(bytes), MessageKind::kSubmitRequest));
  SubmitRequest msg;
  CVCP_ASSIGN_OR_RETURN(msg.spec, ReadJobSpecRecords(&reader));
  CVCP_RETURN_IF_ERROR(RequireDrained(reader));
  return msg;
}

std::string EncodeSubmitReply(const SubmitReply& msg) {
  BlockBuilder builder(KindValue(MessageKind::kSubmitReply));
  builder.AppendU64(msg.job_id);
  builder.AppendU32(msg.version);
  builder.AppendU64(msg.spec_hash);
  return builder.Finish();
}

Result<SubmitReply> DecodeSubmitReply(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      OpenMessage(std::move(bytes), MessageKind::kSubmitReply));
  SubmitReply msg;
  CVCP_ASSIGN_OR_RETURN(msg.job_id, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(msg.version, reader.ReadU32());
  CVCP_ASSIGN_OR_RETURN(msg.spec_hash, reader.ReadU64());
  CVCP_RETURN_IF_ERROR(RequireDrained(reader));
  return msg;
}

namespace {

/// WaitRequest and FetchRequest share one shape: a single job id.
std::string EncodeJobIdMessage(MessageKind kind, uint64_t job_id) {
  BlockBuilder builder(KindValue(kind));
  builder.AppendU64(job_id);
  return builder.Finish();
}

Result<uint64_t> DecodeJobIdMessage(std::string bytes, MessageKind kind) {
  CVCP_ASSIGN_OR_RETURN(BlockReader reader,
                        OpenMessage(std::move(bytes), kind));
  CVCP_ASSIGN_OR_RETURN(uint64_t job_id, reader.ReadU64());
  CVCP_RETURN_IF_ERROR(RequireDrained(reader));
  return job_id;
}

}  // namespace

std::string EncodeWaitRequest(const WaitRequest& msg) {
  return EncodeJobIdMessage(MessageKind::kWaitRequest, msg.job_id);
}

Result<WaitRequest> DecodeWaitRequest(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      uint64_t job_id,
      DecodeJobIdMessage(std::move(bytes), MessageKind::kWaitRequest));
  return WaitRequest{job_id};
}

std::string EncodeFetchRequest(const FetchRequest& msg) {
  return EncodeJobIdMessage(MessageKind::kFetchRequest, msg.job_id);
}

Result<FetchRequest> DecodeFetchRequest(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      uint64_t job_id,
      DecodeJobIdMessage(std::move(bytes), MessageKind::kFetchRequest));
  return FetchRequest{job_id};
}

std::string EncodeReportReply(const ReportReply& msg) {
  BlockBuilder builder(KindValue(MessageKind::kReportReply));
  builder.AppendU64(msg.job_id);
  builder.AppendU32(msg.version);
  builder.AppendU64(msg.spec_hash);
  builder.AppendString(msg.report_bytes);
  return builder.Finish();
}

Result<ReportReply> DecodeReportReply(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      OpenMessage(std::move(bytes), MessageKind::kReportReply));
  ReportReply msg;
  CVCP_ASSIGN_OR_RETURN(msg.job_id, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(msg.version, reader.ReadU32());
  CVCP_ASSIGN_OR_RETURN(msg.spec_hash, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(msg.report_bytes, reader.ReadString());
  CVCP_RETURN_IF_ERROR(RequireDrained(reader));
  return msg;
}

std::string EncodeVersionsRequest(const VersionsRequest& msg) {
  BlockBuilder builder(KindValue(MessageKind::kVersionsRequest));
  builder.AppendU64(msg.spec_hash);
  return builder.Finish();
}

Result<VersionsRequest> DecodeVersionsRequest(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      OpenMessage(std::move(bytes), MessageKind::kVersionsRequest));
  VersionsRequest msg;
  CVCP_ASSIGN_OR_RETURN(msg.spec_hash, reader.ReadU64());
  CVCP_RETURN_IF_ERROR(RequireDrained(reader));
  return msg;
}

std::string EncodeVersionsReply(const VersionsReply& msg) {
  BlockBuilder builder(KindValue(MessageKind::kVersionsReply));
  std::vector<size_t> ids(msg.job_ids.begin(), msg.job_ids.end());
  builder.AppendSizes(ids);
  return builder.Finish();
}

Result<VersionsReply> DecodeVersionsReply(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      OpenMessage(std::move(bytes), MessageKind::kVersionsReply));
  VersionsReply msg;
  CVCP_ASSIGN_OR_RETURN(std::vector<size_t> ids, reader.ReadSizes());
  msg.job_ids.assign(ids.begin(), ids.end());
  CVCP_RETURN_IF_ERROR(RequireDrained(reader));
  return msg;
}

namespace {

/// StatsRequest, ShutdownRequest and ShutdownReply share one shape: no
/// records at all.
std::string EncodeEmptyMessage(MessageKind kind) {
  return BlockBuilder(KindValue(kind)).Finish();
}

Status DecodeEmptyMessage(std::string bytes, MessageKind kind) {
  CVCP_ASSIGN_OR_RETURN(BlockReader reader,
                        OpenMessage(std::move(bytes), kind));
  return RequireDrained(reader);
}

}  // namespace

std::string EncodeStatsRequest() {
  return EncodeEmptyMessage(MessageKind::kStatsRequest);
}

Result<StatsRequest> DecodeStatsRequest(std::string bytes) {
  CVCP_RETURN_IF_ERROR(
      DecodeEmptyMessage(std::move(bytes), MessageKind::kStatsRequest));
  return StatsRequest{};
}

/// StatsReply travels as one u64-array record, one entry per
/// kStatsFields row in table order.
std::string EncodeStatsReply(const StatsReply& msg) {
  BlockBuilder builder(KindValue(MessageKind::kStatsReply));
  std::array<size_t, std::size(kStatsFields)> fields{};
  for (size_t i = 0; i < fields.size(); ++i) {
    fields[i] = msg.*kStatsFields[i].member;
  }
  builder.AppendSizes(fields);
  return builder.Finish();
}

Result<StatsReply> DecodeStatsReply(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      OpenMessage(std::move(bytes), MessageKind::kStatsReply));
  CVCP_ASSIGN_OR_RETURN(std::vector<size_t> fields, reader.ReadSizes());
  if (fields.size() != std::size(kStatsFields)) {
    return Status::Corruption(
        Format("stats reply has %zu fields, want %zu", fields.size(),
               std::size(kStatsFields)));
  }
  CVCP_RETURN_IF_ERROR(RequireDrained(reader));
  StatsReply msg;
  for (size_t i = 0; i < fields.size(); ++i) {
    msg.*kStatsFields[i].member = fields[i];
  }
  return msg;
}

std::string EncodeShutdownRequest() {
  return EncodeEmptyMessage(MessageKind::kShutdownRequest);
}

Result<ShutdownRequest> DecodeShutdownRequest(std::string bytes) {
  CVCP_RETURN_IF_ERROR(
      DecodeEmptyMessage(std::move(bytes), MessageKind::kShutdownRequest));
  return ShutdownRequest{};
}

std::string EncodeShutdownReply() {
  return EncodeEmptyMessage(MessageKind::kShutdownReply);
}

Result<ShutdownReply> DecodeShutdownReply(std::string bytes) {
  CVCP_RETURN_IF_ERROR(
      DecodeEmptyMessage(std::move(bytes), MessageKind::kShutdownReply));
  return ShutdownReply{};
}

std::string EncodeErrorReply(const ErrorReply& msg) {
  BlockBuilder builder(KindValue(MessageKind::kErrorReply));
  builder.AppendU32(static_cast<uint32_t>(msg.status.code()));
  builder.AppendString(msg.status.message());
  return builder.Finish();
}

Result<ErrorReply> DecodeErrorReply(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      OpenMessage(std::move(bytes), MessageKind::kErrorReply));
  CVCP_ASSIGN_OR_RETURN(uint32_t code, reader.ReadU32());
  if (code == 0 ||
      code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::Corruption(Format("bad status code %u", code));
  }
  CVCP_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
  CVCP_RETURN_IF_ERROR(RequireDrained(reader));
  return ErrorReply{Status(static_cast<StatusCode>(code), std::move(message))};
}

std::string EncodeCancelRequest(const CancelRequest& msg) {
  return EncodeJobIdMessage(MessageKind::kCancelRequest, msg.job_id);
}

Result<CancelRequest> DecodeCancelRequest(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      uint64_t job_id,
      DecodeJobIdMessage(std::move(bytes), MessageKind::kCancelRequest));
  return CancelRequest{job_id};
}

std::string EncodeCancelReply(const CancelReply& msg) {
  BlockBuilder builder(KindValue(MessageKind::kCancelReply));
  builder.AppendU32(static_cast<uint32_t>(msg.outcome));
  return builder.Finish();
}

Result<CancelReply> DecodeCancelReply(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      OpenMessage(std::move(bytes), MessageKind::kCancelReply));
  CVCP_ASSIGN_OR_RETURN(uint32_t outcome, reader.ReadU32());
  if (outcome > static_cast<uint32_t>(CancelOutcome::kAlreadyFinished)) {
    return Status::Corruption(Format("bad cancel outcome %u", outcome));
  }
  CVCP_RETURN_IF_ERROR(RequireDrained(reader));
  return CancelReply{static_cast<CancelOutcome>(outcome)};
}

Result<MessageKind> PeekMessageKind(std::string_view payload) {
  CVCP_ASSIGN_OR_RETURN(uint32_t kind, PeekBlockKind(payload));
  switch (static_cast<MessageKind>(kind)) {
    case MessageKind::kSubmitRequest:
    case MessageKind::kSubmitReply:
    case MessageKind::kWaitRequest:
    case MessageKind::kFetchRequest:
    case MessageKind::kReportReply:
    case MessageKind::kVersionsRequest:
    case MessageKind::kVersionsReply:
    case MessageKind::kStatsRequest:
    case MessageKind::kStatsReply:
    case MessageKind::kShutdownRequest:
    case MessageKind::kShutdownReply:
    case MessageKind::kErrorReply:
    case MessageKind::kCancelRequest:
    case MessageKind::kCancelReply:
      return static_cast<MessageKind>(kind);
  }
  return Status::Corruption(Format("unknown message kind 0x%08x", kind));
}

namespace {

Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO expired: the peer stopped draining. Give up on the
        // connection rather than wedge this thread forever.
        return Status::Internal("socket write timed out");
      }
      return Status::Internal(
          Format("socket write failed: %s", std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `size` bytes. `*got` reports the bytes read when the
/// stream ends early (0 distinguishes a clean between-frames EOF).
Status ReadAll(int fd, char* data, size_t size, size_t* got) {
  *got = 0;
  while (*got < size) {
    const ssize_t n = ::read(fd, data + *got, size - *got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired. Before the first header byte (*got == 0 in
        // ReadFrame's header read) this surfaces as kNotFound — an idle
        // peer is treated like one that hung up; mid-frame it stays an
        // IO error.
        return Status::Corruption("socket read timed out");
      }
      return Status::Corruption(
          Format("socket read failed: %s", std::strerror(errno)));
    }
    if (n == 0) {
      return Status::Corruption("connection closed mid-frame");
    }
    *got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload) {
  CVCP_RETURN_IF_ERROR(ValidateFrameLength(payload.size()));
  const uint32_t length = static_cast<uint32_t>(payload.size());
  char header[4];
  header[0] = static_cast<char>(length & 0xFF);
  header[1] = static_cast<char>((length >> 8) & 0xFF);
  header[2] = static_cast<char>((length >> 16) & 0xFF);
  header[3] = static_cast<char>((length >> 24) & 0xFF);
  CVCP_RETURN_IF_ERROR(WriteAll(fd, header, sizeof(header)));
  return WriteAll(fd, payload.data(), payload.size());
}

Result<std::string> ReadFrame(int fd) {
  char header[4];
  size_t got = 0;
  Status read = ReadAll(fd, header, sizeof(header), &got);
  if (!read.ok()) {
    if (got == 0 && read.code() == StatusCode::kCorruption) {
      return Status::NotFound("connection closed");
    }
    return read;
  }
  const uint32_t length = static_cast<uint32_t>(
      static_cast<unsigned char>(header[0]) |
      (static_cast<uint32_t>(static_cast<unsigned char>(header[1])) << 8) |
      (static_cast<uint32_t>(static_cast<unsigned char>(header[2])) << 16) |
      (static_cast<uint32_t>(static_cast<unsigned char>(header[3])) << 24));
  CVCP_RETURN_IF_ERROR(ValidateFrameLength(length));
  std::string payload(length, '\0');
  CVCP_RETURN_IF_ERROR(ReadAll(fd, payload.data(), payload.size(), &got));
  return payload;
}

}  // namespace cvcp
