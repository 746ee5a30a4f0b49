#ifndef CVCP_COMMON_BLOCK_FORMAT_H_
#define CVCP_COMMON_BLOCK_FORMAT_H_

/// \file
/// The checksummed, versioned block format every persisted artifact uses
/// (the SSTable block/builder/reader idea scaled down to one block per
/// file). A block is a self-describing byte string:
///
///   [u64 magic][u32 format version][u32 kind][u32 record count]
///   [record]...[record][u32 crc32]
///
/// where each record is length-prefixed — [u32 length][length bytes] —
/// and the trailing CRC-32 covers *everything* before it, header
/// included. All integers are little-endian; doubles are stored as their
/// IEEE-754 bit patterns (via u64), so a round trip reproduces every
/// value bit for bit — including NaNs and the +infinity sentinels in
/// OPTICS reachability plots. That bit-exactness is what lets the
/// artifact store promise byte-identical results whether a structure was
/// computed, cached, or read back from disk.
///
/// Failure policy: `BlockBuilder` cannot fail; `BlockReader::Open`
/// classifies every defect so callers can count miss reasons —
/// kCorruption for a bad magic, bad CRC, truncation, or a record that
/// overruns the payload; kFailedPrecondition for a format-version or
/// kind mismatch (the bytes are intact, this build just cannot or should
/// not interpret them). Readers treat any of these as a cache miss and
/// recompute; they must never interpret partial bytes.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace cvcp {

/// "CVCPBLK1" as a little-endian u64 — the first 8 bytes of every
/// artifact file.
inline constexpr uint64_t kBlockMagic = 0x314B4C4250435643ull;

/// Bumped whenever any encoder changes meaning; a mismatch makes every
/// stored artifact a (version-skew) miss, never a misread.
inline constexpr uint32_t kBlockFormatVersion = 1;

/// Accumulates length-prefixed records and seals them into one
/// checksummed block. Append order is the contract: readers consume
/// records in the same sequence.
class BlockBuilder {
 public:
  /// `kind` tags what the block encodes (an ArtifactKind in the store);
  /// readers refuse blocks of the wrong kind before touching any record.
  explicit BlockBuilder(uint32_t kind) : kind_(kind) {}

  /// One raw record.
  void AppendRecord(std::span<const std::byte> bytes);

  /// Typed helpers — each appends exactly one record.
  void AppendU32(uint32_t v);
  void AppendU64(uint64_t v);
  void AppendDoubles(std::span<const double> values);
  void AppendSizes(std::span<const size_t> values);  ///< stored as u64s
  void AppendString(std::string_view s);

  /// Seals the block: header + records + CRC. The builder can be reused
  /// (`Finish` does not clear it), but normally one builder = one block.
  std::string Finish() const;

 private:
  uint32_t kind_;
  std::vector<std::string> records_;
};

/// The kind field of a block's header without validating the CRC — for
/// `ls`-style inspection of files whose kind is not known in advance.
/// Fails (kCorruption) on a short header or wrong magic.
Result<uint32_t> PeekBlockKind(std::string_view bytes);

/// Sequential typed reader over a sealed block. `Open` validates the
/// frame (magic, version, kind, CRC, record lengths) up front, so the
/// Read* calls afterwards only fail on a schema mismatch (wrong record
/// count or size — also kCorruption, the encoder and decoder disagree).
class BlockReader {
 public:
  /// Validates `bytes` as a block of `expected_kind`. The reader keeps a
  /// copy of the payload, so the argument may be a temporary.
  static Result<BlockReader> Open(std::string bytes, uint32_t expected_kind);

  /// Records remaining to consume.
  size_t remaining() const { return records_.size() - next_; }

  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  /// The next record as a vector of doubles (record length must be a
  /// multiple of 8).
  Result<std::vector<double>> ReadDoubles();
  Result<std::vector<size_t>> ReadSizes();
  Result<std::string> ReadString();

 private:
  BlockReader() = default;

  /// Consumes the next record, requiring an exact byte length when
  /// `exact_size` >= 0.
  Result<std::span<const std::byte>> NextRecord(int64_t exact_size);

  std::string payload_;
  std::vector<std::pair<size_t, size_t>> records_;  ///< (offset, length)
  size_t next_ = 0;
};

}  // namespace cvcp

#endif  // CVCP_COMMON_BLOCK_FORMAT_H_
