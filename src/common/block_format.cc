#include "common/block_format.h"

#include <bit>
#include <cstring>

#include "common/hash.h"
#include "common/strings.h"

namespace cvcp {

namespace {

// Fixed little-endian integer codecs. Byte-by-byte shifts (not memcpy)
// so the on-disk layout is identical on any host endianness.
void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(std::span<const std::byte> bytes) {
  return static_cast<uint32_t>(bytes[0]) |
         (static_cast<uint32_t>(bytes[1]) << 8) |
         (static_cast<uint32_t>(bytes[2]) << 16) |
         (static_cast<uint32_t>(bytes[3]) << 24);
}

uint64_t GetU64(std::span<const std::byte> bytes) {
  return static_cast<uint64_t>(GetU32(bytes)) |
         (static_cast<uint64_t>(GetU32(bytes.subspan(4))) << 32);
}

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// Header: magic(8) + version(4) + kind(4) + record count(4).
constexpr size_t kHeaderSize = 8 + 4 + 4 + 4;
constexpr size_t kCrcSize = 4;

}  // namespace

void BlockBuilder::AppendRecord(std::span<const std::byte> bytes) {
  records_.emplace_back(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size());
}

void BlockBuilder::AppendU32(uint32_t v) {
  std::string record;
  PutU32(&record, v);
  records_.push_back(std::move(record));
}

void BlockBuilder::AppendU64(uint64_t v) {
  std::string record;
  PutU64(&record, v);
  records_.push_back(std::move(record));
}

void BlockBuilder::AppendDoubles(std::span<const double> values) {
  std::string record;
  record.reserve(values.size() * 8);
  for (double v : values) PutU64(&record, std::bit_cast<uint64_t>(v));
  records_.push_back(std::move(record));
}

void BlockBuilder::AppendSizes(std::span<const size_t> values) {
  std::string record;
  record.reserve(values.size() * 8);
  for (size_t v : values) PutU64(&record, static_cast<uint64_t>(v));
  records_.push_back(std::move(record));
}

void BlockBuilder::AppendString(std::string_view s) {
  records_.emplace_back(s);
}

std::string BlockBuilder::Finish() const {
  std::string out;
  size_t payload = 0;
  for (const std::string& r : records_) payload += 4 + r.size();
  out.reserve(kHeaderSize + payload + kCrcSize);
  PutU64(&out, kBlockMagic);
  PutU32(&out, kBlockFormatVersion);
  PutU32(&out, kind_);
  PutU32(&out, static_cast<uint32_t>(records_.size()));
  for (const std::string& r : records_) {
    PutU32(&out, static_cast<uint32_t>(r.size()));
    out.append(r);
  }
  PutU32(&out, Crc32(AsBytes(out)));
  return out;
}

Result<uint32_t> PeekBlockKind(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::Corruption(
        Format("block truncated: %zu bytes, header needs %zu", bytes.size(),
               kHeaderSize));
  }
  const std::span<const std::byte> view{
      reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()};
  if (GetU64(view) != kBlockMagic) {
    return Status::Corruption("bad block magic");
  }
  return GetU32(view.subspan(12));
}

Result<BlockReader> BlockReader::Open(std::string bytes,
                                      uint32_t expected_kind) {
  const std::span<const std::byte> view = AsBytes(bytes);
  if (view.size() < kHeaderSize + kCrcSize) {
    return Status::Corruption(
        Format("block truncated: %zu bytes, header needs %zu", view.size(),
               kHeaderSize + kCrcSize));
  }
  if (GetU64(view) != kBlockMagic) {
    return Status::Corruption("bad block magic");
  }
  // CRC before anything else that trusts the bytes — but after the magic,
  // so "not one of our files at all" reads differently than "our file,
  // damaged".
  const uint32_t stored_crc = GetU32(view.subspan(view.size() - kCrcSize));
  const uint32_t actual_crc = Crc32(view.first(view.size() - kCrcSize));
  if (stored_crc != actual_crc) {
    return Status::Corruption(Format("block CRC mismatch: stored %08x, "
                                     "computed %08x",
                                     stored_crc, actual_crc));
  }
  const uint32_t version = GetU32(view.subspan(8));
  if (version != kBlockFormatVersion) {
    return Status::FailedPrecondition(
        Format("block format version %u, this build reads %u", version,
               kBlockFormatVersion));
  }
  const uint32_t kind = GetU32(view.subspan(12));
  if (kind != expected_kind) {
    return Status::FailedPrecondition(
        Format("block kind %u, expected %u", kind, expected_kind));
  }
  const uint32_t record_count = GetU32(view.subspan(16));

  BlockReader reader;
  reader.records_.reserve(record_count);
  size_t offset = kHeaderSize;
  const size_t payload_end = view.size() - kCrcSize;
  for (uint32_t i = 0; i < record_count; ++i) {
    if (offset + 4 > payload_end) {
      return Status::Corruption(
          Format("record %u length prefix overruns the block", i));
    }
    const uint32_t length = GetU32(view.subspan(offset));
    offset += 4;
    if (offset + length > payload_end) {
      return Status::Corruption(
          Format("record %u (%u bytes) overruns the block", i, length));
    }
    reader.records_.emplace_back(offset, length);
    offset += length;
  }
  if (offset != payload_end) {
    return Status::Corruption(
        Format("block has %zu trailing payload bytes", payload_end - offset));
  }
  reader.payload_ = std::move(bytes);
  return reader;
}

Result<std::span<const std::byte>> BlockReader::NextRecord(
    int64_t exact_size) {
  if (next_ >= records_.size()) {
    return Status::Corruption("read past the last record");
  }
  const auto [offset, length] = records_[next_];
  if (exact_size >= 0 && length != static_cast<size_t>(exact_size)) {
    return Status::Corruption(Format("record %zu is %zu bytes, expected %lld",
                                     next_, length,
                                     static_cast<long long>(exact_size)));
  }
  ++next_;
  return std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(payload_.data()) + offset, length);
}

Result<uint32_t> BlockReader::ReadU32() {
  CVCP_ASSIGN_OR_RETURN(std::span<const std::byte> record, NextRecord(4));
  return GetU32(record);
}

Result<uint64_t> BlockReader::ReadU64() {
  CVCP_ASSIGN_OR_RETURN(std::span<const std::byte> record, NextRecord(8));
  return GetU64(record);
}

Result<std::vector<double>> BlockReader::ReadDoubles() {
  CVCP_ASSIGN_OR_RETURN(std::span<const std::byte> record, NextRecord(-1));
  if (record.size() % 8 != 0) {
    return Status::Corruption(
        Format("double record of %zu bytes is not a multiple of 8",
               record.size()));
  }
  std::vector<double> out(record.size() / 8);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = std::bit_cast<double>(GetU64(record.subspan(i * 8)));
  }
  return out;
}

Result<std::vector<size_t>> BlockReader::ReadSizes() {
  CVCP_ASSIGN_OR_RETURN(std::span<const std::byte> record, NextRecord(-1));
  if (record.size() % 8 != 0) {
    return Status::Corruption(
        Format("size record of %zu bytes is not a multiple of 8",
               record.size()));
  }
  std::vector<size_t> out(record.size() / 8);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<size_t>(GetU64(record.subspan(i * 8)));
  }
  return out;
}

Result<std::string> BlockReader::ReadString() {
  CVCP_ASSIGN_OR_RETURN(std::span<const std::byte> record, NextRecord(-1));
  return std::string(reinterpret_cast<const char*>(record.data()),
                     record.size());
}

}  // namespace cvcp
