// Unit tests for the checksummed block format: typed round trips
// (including NaN and infinity bit patterns), and the failure taxonomy —
// every way a file can be damaged or mismatched must surface as a
// classified non-OK Status, never as misread records.

#include "common/block_format.h"

#include <gtest/gtest.h>

#include "common/hash.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cvcp {
namespace {

constexpr uint32_t kKind = 7;

std::string SealedBlock() {
  BlockBuilder builder(kKind);
  builder.AppendU32(42);
  builder.AppendU64(0xDEADBEEFCAFEF00Dull);
  builder.AppendString("hello block");
  const std::vector<double> doubles = {1.5, -0.0,
                                       std::numeric_limits<double>::infinity(),
                                       std::nan("")};
  builder.AppendDoubles(doubles);
  const std::vector<size_t> sizes = {0, 1, 1u << 20};
  builder.AppendSizes(sizes);
  return builder.Finish();
}

TEST(BlockFormatTest, RoundTripPreservesEveryBitPattern) {
  auto reader = BlockReader::Open(SealedBlock(), kKind);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->remaining(), 5u);

  auto u32 = reader->ReadU32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(u32.value(), 42u);

  auto u64 = reader->ReadU64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(u64.value(), 0xDEADBEEFCAFEF00Dull);

  auto str = reader->ReadString();
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(str.value(), "hello block");

  auto doubles = reader->ReadDoubles();
  ASSERT_TRUE(doubles.ok());
  ASSERT_EQ(doubles.value().size(), 4u);
  EXPECT_EQ(std::bit_cast<uint64_t>(doubles.value()[0]),
            std::bit_cast<uint64_t>(1.5));
  // -0.0 and NaN survive as exact bit patterns, not as value-equality.
  EXPECT_EQ(std::bit_cast<uint64_t>(doubles.value()[1]),
            std::bit_cast<uint64_t>(-0.0));
  EXPECT_TRUE(std::isinf(doubles.value()[2]));
  EXPECT_EQ(std::bit_cast<uint64_t>(doubles.value()[3]),
            std::bit_cast<uint64_t>(std::nan("")));

  auto sizes = reader->ReadSizes();
  ASSERT_TRUE(sizes.ok());
  EXPECT_EQ(sizes.value(), (std::vector<size_t>{0, 1, 1u << 20}));
  EXPECT_EQ(reader->remaining(), 0u);
}

TEST(BlockFormatTest, EmptyBlockRoundTrips) {
  BlockBuilder builder(kKind);
  auto reader = BlockReader::Open(builder.Finish(), kKind);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->remaining(), 0u);
}

TEST(BlockFormatTest, EveryFlippedBitFailsTheCrc) {
  const std::string sealed = SealedBlock();
  // Flip one bit in every byte position; Open must reject each mutant
  // (magic/version/kind damage included — nothing slips past the frame).
  for (size_t pos = 0; pos < sealed.size(); ++pos) {
    std::string mutant = sealed;
    mutant[pos] = static_cast<char>(mutant[pos] ^ 0x10);
    auto reader = BlockReader::Open(std::move(mutant), kKind);
    EXPECT_FALSE(reader.ok()) << "byte " << pos;
  }
}

TEST(BlockFormatTest, TruncationAtEveryLengthIsCorruption) {
  const std::string sealed = SealedBlock();
  for (size_t len = 0; len < sealed.size(); ++len) {
    auto reader = BlockReader::Open(sealed.substr(0, len), kKind);
    ASSERT_FALSE(reader.ok()) << "length " << len;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption)
        << "length " << len;
  }
}

TEST(BlockFormatTest, TrailingGarbageIsCorruption) {
  auto reader = BlockReader::Open(SealedBlock() + "x", kKind);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(BlockFormatTest, KindMismatchIsFailedPrecondition) {
  auto reader = BlockReader::Open(SealedBlock(), kKind + 1);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BlockFormatTest, VersionSkewIsFailedPrecondition) {
  std::string sealed = SealedBlock();
  // Forge a valid file from a future format version: patch the version
  // field (bytes 8..11) and reseal the CRC, exactly what a newer writer
  // would produce. The CRC passes; the version check must still refuse.
  sealed[8] = static_cast<char>(kBlockFormatVersion + 1);
  const uint32_t crc =
      Crc32(sealed.data(), sealed.size() - 4);
  for (int i = 0; i < 4; ++i) {
    sealed[sealed.size() - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  auto reader = BlockReader::Open(std::move(sealed), kKind);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BlockFormatTest, ReadPastEndIsCorruption) {
  BlockBuilder builder(kKind);
  builder.AppendU32(1);
  auto reader = BlockReader::Open(builder.Finish(), kKind);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->ReadU32().ok());
  EXPECT_FALSE(reader->ReadU32().ok());
}

TEST(BlockFormatTest, WrongRecordShapeIsCorruption) {
  BlockBuilder builder(kKind);
  builder.AppendString("not eight bytes wide");  // 20 bytes, not 8-aligned
  {
    auto reader = BlockReader::Open(builder.Finish(), kKind);
    ASSERT_TRUE(reader.ok());
    EXPECT_FALSE(reader->ReadU64().ok());  // exact-size mismatch
  }
  {
    auto reader = BlockReader::Open(builder.Finish(), kKind);
    ASSERT_TRUE(reader.ok());
    EXPECT_FALSE(reader->ReadDoubles().ok());  // not a multiple of 8
  }
}

TEST(BlockFormatTest, PeekBlockKindReadsHeaderWithoutCrc) {
  std::string sealed = SealedBlock();
  auto kind = PeekBlockKind(sealed);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(kind.value(), kKind);

  // Peek tolerates a damaged tail (it is for ls-style listings)...
  sealed.back() = static_cast<char>(sealed.back() ^ 0xFF);
  EXPECT_TRUE(PeekBlockKind(sealed).ok());
  // ...but not a short header or a wrong magic.
  EXPECT_FALSE(PeekBlockKind(sealed.substr(0, 10)).ok());
  sealed[0] = 'X';
  EXPECT_FALSE(PeekBlockKind(sealed).ok());
}

}  // namespace
}  // namespace cvcp
