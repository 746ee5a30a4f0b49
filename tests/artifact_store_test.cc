// Unit tests for the persistent artifact store: bit-exact round trips of
// both artifact kinds, the full damage taxonomy (truncation, flipped
// bits, version skew, key mismatch via renamed files) degrading to
// counted misses, concurrent same-key writers, List/Purge, and files
// left behind by earlier versions. Every defect must surface as a
// classified miss — the store never crashes on, or serves, bad bytes.

#include "core/artifact_store.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/block_format.h"
#include "common/hash.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "common/strings.h"

namespace cvcp {
namespace {

namespace fs = std::filesystem;

// A fresh store directory per test, under the gtest scratch dir.
std::string FreshDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "cvcp_store" / name;
  fs::remove_all(dir);
  return dir.string();
}

Matrix FixturePoints() {
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 12; ++i) {
    const double x = i;
    rows.push_back({x, 0.5 * x - 3.0, x * x * 0.1});
  }
  return Matrix::FromRows(rows);
}

OpticsResult FixtureOptics() {
  OpticsResult optics;
  optics.order = {2, 0, 1, 3};
  const double inf = std::numeric_limits<double>::infinity();
  optics.reachability = {inf, 0.25, 1.5, std::nan("")};
  optics.core_distance = {0.5, inf, 0.75, 2.0};
  return optics;
}

// The one *.cvcp file in `dir` (fails the test if there are several).
std::string OnlyFile(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".cvcp") continue;
    EXPECT_TRUE(found.empty());
    found = entry.path().string();
  }
  EXPECT_FALSE(found.empty());
  return found;
}

TEST(ArtifactStoreTest, DistanceMatrixRoundTripsBitExact) {
  ArtifactStore store(FreshDir("dist"));
  const Matrix points = FixturePoints();
  const uint64_t hash = HashMatrixContent(points);
  const DistanceMatrix dm = DistanceMatrix::Compute(points, Metric::kEuclidean);

  ASSERT_TRUE(store.SaveDistances(hash, dm).ok());
  auto loaded = store.LoadDistances(hash);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->n(), dm.n());
  ASSERT_EQ(loaded->condensed().size(), dm.condensed().size());
  for (size_t i = 0; i < dm.condensed().size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded->condensed()[i]),
              std::bit_cast<uint64_t>(dm.condensed()[i]));
  }
  const auto stats = store.stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_GT(stats.bytes_written, 0u);
  EXPECT_GT(stats.bytes_read, 0u);
}

TEST(ArtifactStoreTest, OpticsModelRoundTripsBitExact) {
  ArtifactStore store(FreshDir("optics"));
  const OpticsResult optics = FixtureOptics();
  ASSERT_TRUE(store.SaveOpticsModel(0xABCDEF01u, 5, optics).ok());
  auto loaded = store.LoadOpticsModel(0xABCDEF01u, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->order, optics.order);
  for (size_t i = 0; i < optics.reachability.size(); ++i) {
    // Bit equality keeps the +infinity sentinels and NaN payloads.
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded->reachability[i]),
              std::bit_cast<uint64_t>(optics.reachability[i]));
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded->core_distance[i]),
              std::bit_cast<uint64_t>(optics.core_distance[i]));
  }
}

TEST(ArtifactStoreTest, ColdKeyIsNotFoundMiss) {
  ArtifactStore store(FreshDir("cold"));
  auto loaded = store.LoadOpticsModel(1, 3);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  const auto stats = store.stats();
  EXPECT_EQ(stats.disk_misses, 1u);
  EXPECT_EQ(stats.corrupt_misses, 0u);
}

TEST(ArtifactStoreTest, TruncatedFileIsCountedCorruptMiss) {
  const std::string dir = FreshDir("truncated");
  ArtifactStore store(dir);
  ASSERT_TRUE(store.SaveOpticsModel(7, 4, FixtureOptics()).ok());
  const std::string file = OnlyFile(dir);
  const auto full_size = fs::file_size(file);
  fs::resize_file(file, full_size / 2);

  auto loaded = store.LoadOpticsModel(7, 4);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST(ArtifactStoreTest, FlippedBitIsCountedCorruptMiss) {
  const std::string dir = FreshDir("flipped");
  ArtifactStore store(dir);
  ASSERT_TRUE(store.SaveOpticsModel(8, 4, FixtureOptics()).ok());
  const std::string file = OnlyFile(dir);
  {
    std::fstream io(file, std::ios::in | std::ios::out | std::ios::binary);
    io.seekg(30);
    char byte = 0;
    io.get(byte);
    io.seekp(30);
    io.put(static_cast<char>(byte ^ 0x04));
  }
  auto loaded = store.LoadOpticsModel(8, 4);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST(ArtifactStoreTest, RenamedFileFailsTheEmbeddedKeyCheck) {
  const std::string dir = FreshDir("renamed");
  ArtifactStore store(dir);
  // Save under MinPts 4, then move the file onto MinPts 9's name: the
  // frame is intact, but the embedded key must refuse to serve it.
  ASSERT_TRUE(store.SaveOpticsModel(9, 4, FixtureOptics()).ok());
  const std::string mp4_file = OnlyFile(dir);
  std::string mp9_file = mp4_file;
  const size_t pos = mp9_file.find("mp004");
  ASSERT_NE(pos, std::string::npos);
  mp9_file.replace(pos, 5, "mp009");
  fs::rename(mp4_file, mp9_file);

  auto loaded = store.LoadOpticsModel(9, 9);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST(ArtifactStoreTest, VersionSkewIsCountedVersionMiss) {
  const std::string dir = FreshDir("version");
  ArtifactStore store(dir);
  ASSERT_TRUE(store.SaveOpticsModel(10, 4, FixtureOptics()).ok());
  // Re-seal the file as a future format version (patch version field,
  // recompute the CRC) — a downgrade scenario.
  const std::string file = OnlyFile(dir);
  std::string bytes;
  {
    std::ifstream in(file, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 24u);
  bytes[8] = static_cast<char>(bytes[8] + 1);
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = store.LoadOpticsModel(10, 4);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.stats().version_misses, 1u);
  EXPECT_EQ(store.stats().corrupt_misses, 0u);
}

TEST(ArtifactStoreTest, ConcurrentSameKeyWritersConverge) {
  const std::string dir = FreshDir("racing");
  ArtifactStore store(dir);
  const OpticsResult optics = FixtureOptics();
  ExecutionContext exec;
  exec.threads = 8;
  // Deterministic artifacts: racing writers produce byte-identical files,
  // so whichever rename lands last, the stored bytes decode identically.
  ParallelFor(exec, 16, [&](size_t) {
    ASSERT_TRUE(store.SaveOpticsModel(11, 4, optics).ok());
  });
  auto loaded = store.LoadOpticsModel(11, 4);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->order, optics.order);
  EXPECT_EQ(store.stats().writes, 16u);
  // No temp files left behind.
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".cvcp") << entry.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST(ArtifactStoreTest, ListReportsKindsAndValidity) {
  const std::string dir = FreshDir("list");
  ArtifactStore store(dir);
  const Matrix points = FixturePoints();
  const uint64_t hash = HashMatrixContent(points);
  ASSERT_TRUE(store
                  .SaveDistances(hash, DistanceMatrix::Compute(
                                           points, Metric::kEuclidean))
                  .ok());
  ASSERT_TRUE(store.SaveOpticsModel(hash, 4, FixtureOptics()).ok());
  ASSERT_TRUE(store.SaveOpticsModel(hash, 5, FixtureOptics()).ok());
  // Damage one optics file so List flags exactly one invalid entry.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().string().find("mp004-optics") == std::string::npos) {
      continue;
    }
    fs::resize_file(entry.path(), fs::file_size(entry.path()) - 1);
  }

  auto listed = store.List();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 3u);
  size_t valid = 0;
  for (const ArtifactFileInfo& file : *listed) {
    EXPECT_GT(file.bytes, 0u);
    if (file.valid) {
      ++valid;
    } else {
      EXPECT_EQ(file.kind,
                static_cast<uint32_t>(ArtifactKind::kOpticsModel));
      EXPECT_FALSE(file.detail.empty());
    }
  }
  EXPECT_EQ(valid, 2u);

  auto purged = store.Purge();
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(purged.value(), 3u);
  auto after = store.List();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
}

// The optics block an earlier float32 distance mode wrote: the f64
// arrays plus one trailing u32 marker record (= 1).
std::string LegacyMarkedOpticsBlock(uint64_t hash, int min_pts,
                                    const OpticsResult& optics) {
  BlockBuilder builder(static_cast<uint32_t>(ArtifactKind::kOpticsModel));
  builder.AppendU64(hash);
  builder.AppendU32(0);  // the Euclidean metric record
  builder.AppendU32(static_cast<uint32_t>(min_pts));
  builder.AppendSizes(optics.order);
  builder.AppendDoubles(optics.reachability);
  builder.AppendDoubles(optics.core_distance);
  builder.AppendU32(1);
  return builder.Finish();
}

// The kind-4 block an earlier float32 distance mode wrote: the key
// records, then every condensed value as little-endian float bits.
std::string LegacyNarrowDistanceBlock(uint64_t hash,
                                      const DistanceMatrix& dm) {
  BlockBuilder builder(4);
  builder.AppendU64(hash);
  builder.AppendU32(0);  // the Euclidean metric record
  builder.AppendU64(dm.n());
  std::string floats;
  for (double value : dm.condensed()) {
    const uint32_t bits = std::bit_cast<uint32_t>(static_cast<float>(value));
    for (int shift = 0; shift < 32; shift += 8) {
      floats.push_back(static_cast<char>((bits >> shift) & 0xFF));
    }
  }
  builder.AppendRecord(std::as_bytes(std::span(floats)));
  return builder.Finish();
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

// A leftover float32 distance file (kind 4, "-f32" name) never satisfies
// the f64 key: with only the leftover present the f64 load is a cold
// miss, and once the f64 artifact exists the two files stay apart.
TEST(ArtifactStoreTest, MixedModeDistancesAreDisjointFamilies) {
  const std::string dir = FreshDir("mixed-dist");
  ArtifactStore store(dir);
  const Matrix points = FixturePoints();
  const uint64_t hash = HashMatrixContent(points);
  const DistanceMatrix dm = DistanceMatrix::Compute(points, Metric::kEuclidean);
  const std::string name =
      Format("%016llx-euc-dist-f32.cvcp", static_cast<unsigned long long>(hash));
  WriteBytes(fs::path(dir) / name,
             LegacyNarrowDistanceBlock(hash, dm));

  auto miss = store.LoadDistances(hash);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.stats().disk_misses, 1u);

  ASSERT_TRUE(store.SaveDistances(hash, dm).ok());
  auto hit = store.LoadDistances(hash);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->condensed(), dm.condensed());

  auto listed = store.List();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  for (const ArtifactFileInfo& file : *listed) {
    const bool legacy = file.filename == name;
    EXPECT_EQ(file.valid, !legacy) << file.filename << ": " << file.detail;
    EXPECT_EQ(file.kind, legacy ? 4u : 1u);
  }
}

// Same for a leftover marked optics model under its "-f32" name: the f64
// key misses as cold even though a model for the same (hash, metric,
// min_pts) sits next to it.
TEST(ArtifactStoreTest, OpticsStorageModesAreKeyedApart) {
  const std::string dir = FreshDir("optics32");
  ArtifactStore store(dir);
  const OpticsResult optics = FixtureOptics();
  WriteBytes(fs::path(dir) / "0000000000000015-euc-mp004-optics-f32.cvcp",
             LegacyMarkedOpticsBlock(21, 4, optics));
  auto miss = store.LoadOpticsModel(21, 4);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.SaveOpticsModel(21, 4, optics).ok());
  auto hit = store.LoadOpticsModel(21, 4);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->order, optics.order);
  auto listed = store.List();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 2u);
}

TEST(ArtifactStoreTest, CrossModeRenamedOpticsIsRefused) {
  const std::string dir = FreshDir("cross-mode");
  ArtifactStore store(dir);
  // A marked (float32-derived) optics block under the f64 name: the frame
  // and CRC are intact, but the decoder refuses records past the arrays.
  // Never served, always a counted corrupt miss.
  ASSERT_TRUE(store.SaveOpticsModel(22, 4, FixtureOptics()).ok());
  const std::string file = OnlyFile(dir);
  WriteBytes(file, LegacyMarkedOpticsBlock(22, 4, FixtureOptics()));

  auto loaded = store.LoadOpticsModel(22, 4);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(store.stats().corrupt_misses, 1u);

  auto listed = store.List();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_FALSE((*listed)[0].valid);
  EXPECT_FALSE((*listed)[0].detail.empty());
}

// The distance block an earlier build wrote under a metric other than
// Euclidean (metric record 1 squared Euclidean, 2 Manhattan, 3 cosine).
std::string RetiredMetricDistanceBlock(uint64_t hash, uint32_t metric,
                                       const DistanceMatrix& dm) {
  BlockBuilder builder(static_cast<uint32_t>(ArtifactKind::kDistanceMatrix));
  builder.AppendU64(hash);
  builder.AppendU32(metric);
  builder.AppendU64(dm.n());
  builder.AppendDoubles(dm.condensed());
  return builder.Finish();
}

// Upgrade path: a directory an earlier version wrote still holds blocks of
// kinds this build no longer reads — cell timings (kind 3), float32
// distance matrices (kind 4) and marked optics models — and a distance
// matrix under a retired metric, under their old filenames, next to f64
// Euclidean artifacts of the same key. The Euclidean artifacts are served
// bit-exact, and List flags exactly the four leftovers.
TEST(ArtifactStoreTest, LegacyFilesOfRemovedKindsAreFlaggedAndNeverServed) {
  const std::string dir = FreshDir("legacy");
  ArtifactStore store(dir);
  const Matrix points = FixturePoints();
  const uint64_t hash = HashMatrixContent(points);
  const DistanceMatrix dm = DistanceMatrix::Compute(points, Metric::kEuclidean);
  const OpticsResult optics = FixtureOptics();
  ASSERT_TRUE(store.SaveDistances(hash, dm).ok());
  ASSERT_TRUE(store.SaveOpticsModel(hash, 4, optics).ok());

  const std::string prefix =
      Format("%016llx", static_cast<unsigned long long>(hash));
  BlockBuilder timings(3);
  timings.AppendU64(hash);
  timings.AppendString("bench_micro_cvcp");
  timings.AppendSizes(std::vector<size_t>{2, 3});
  timings.AppendSizes(std::vector<size_t>{0, 0});
  timings.AppendDoubles(std::vector<double>{1.5, 2.5});
  WriteBytes(fs::path(dir) / (prefix + "-bench_micro_cvcp-timings.cvcp"),
             timings.Finish());

  WriteBytes(fs::path(dir) / (prefix + "-euc-dist-f32.cvcp"),
             LegacyNarrowDistanceBlock(hash, dm));

  WriteBytes(fs::path(dir) / (prefix + "-euc-mp004-optics-f32.cvcp"),
             LegacyMarkedOpticsBlock(hash, 4, optics));

  // Manhattan, metric record 2. Under the Euclidean name it would fail
  // the embedded-key check as well.
  const std::string manhattan = RetiredMetricDistanceBlock(hash, 2, dm);
  WriteBytes(fs::path(dir) / (prefix + "-man-dist.cvcp"), manhattan);
  const Result<DistanceMatrix> misread = DecodeDistanceMatrix(manhattan, hash);
  ASSERT_FALSE(misread.ok());
  EXPECT_EQ(misread.status().code(), StatusCode::kCorruption);

  auto distances = store.LoadDistances(hash);
  ASSERT_TRUE(distances.ok()) << distances.status().ToString();
  ASSERT_EQ(distances->condensed().size(), dm.condensed().size());
  for (size_t i = 0; i < dm.condensed().size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(distances->condensed()[i]),
              std::bit_cast<uint64_t>(dm.condensed()[i]));
  }
  auto model = store.LoadOpticsModel(hash, 4);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model->order, optics.order);
  for (size_t i = 0; i < optics.order.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(model->reachability[i]),
              std::bit_cast<uint64_t>(optics.reachability[i]));
    EXPECT_EQ(std::bit_cast<uint64_t>(model->core_distance[i]),
              std::bit_cast<uint64_t>(optics.core_distance[i]));
  }

  auto listed = store.List();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 6u);
  std::vector<std::string> invalid;
  for (const ArtifactFileInfo& file : *listed) {
    if (file.valid) continue;
    invalid.push_back(file.filename);
    if (file.kind == 3 || file.kind == 4) {
      EXPECT_EQ(file.detail, Format("unknown artifact kind %u", file.kind));
    }
    if (file.filename == prefix + "-man-dist.cvcp") {
      EXPECT_EQ(file.detail, "metric 2 is no longer read");
    }
  }
  EXPECT_EQ(invalid,
            (std::vector<std::string>{
                prefix + "-bench_micro_cvcp-timings.cvcp",
                prefix + "-euc-dist-f32.cvcp",
                prefix + "-euc-mp004-optics-f32.cvcp",
                prefix + "-man-dist.cvcp"}));

  auto purged = store.Purge();
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(purged.value(), 6u);
}

// The on-disk key of a store: the exact file names and bytes of one
// distance matrix and one MinPts-4 OPTICS model, as written before the
// metric parameter was removed. Stores on disk are found by these names
// and decoded from these bytes, so a change to either turns every
// existing store cold.
TEST(ArtifactStoreTest, OnDiskNamesAndBytesArePinned) {
  const std::string dir = FreshDir("format-pin");
  ArtifactStore store(dir);
  const Matrix points = FixturePoints();
  const uint64_t hash = HashMatrixContent(points);
  const DistanceMatrix dm = DistanceMatrix::Compute(points, Metric::kEuclidean);
  OpticsConfig config;
  config.min_pts = 4;
  const Result<OpticsResult> optics = RunOptics(dm, config);
  ASSERT_TRUE(optics.ok()) << optics.status().ToString();
  ASSERT_TRUE(store.SaveDistances(hash, dm).ok());
  ASSERT_TRUE(store.SaveOpticsModel(hash, 4, *optics).ok());

  auto listed = store.List();
  ASSERT_TRUE(listed.ok());
  std::vector<std::pair<std::string, uint64_t>> files;
  for (const ArtifactFileInfo& file : *listed) {
    EXPECT_TRUE(file.valid) << file.filename << ": " << file.detail;
    std::ifstream in(fs::path(dir) / file.filename, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    files.emplace_back(file.filename, Hash64(bytes));
  }
  const std::vector<std::pair<std::string, uint64_t>> pinned = {
      {"71ba6d5b0d93189a-euc-dist.cvcp", 0xc70c91c810224829ULL},
      {"71ba6d5b0d93189a-euc-mp004-optics.cvcp", 0x8c0f70c37f6d40faULL},
  };
  EXPECT_EQ(files, pinned);
}

TEST(ArtifactStoreTest, ListOnAbsentDirectoryIsEmpty) {
  ArtifactStore store(FreshDir("absent"));
  auto listed = store.List();
  ASSERT_TRUE(listed.ok());
  EXPECT_TRUE(listed->empty());
  auto purged = store.Purge();
  ASSERT_TRUE(purged.ok());
  EXPECT_EQ(purged.value(), 0u);
}

}  // namespace
}  // namespace cvcp
