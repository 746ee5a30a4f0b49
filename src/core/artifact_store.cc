#include "core/artifact_store.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/block_format.h"
#include "common/file_io.h"
#include "common/hash.h"
#include "common/strings.h"

namespace cvcp {

namespace {

namespace fs = std::filesystem;

/// The metric record of every block this build writes and reads: 0,
/// Euclidean. Earlier builds also wrote records 1-3, for metrics since
/// retired, under other file tags; those files are never read.
constexpr uint32_t kEuclideanRecord = 0;

// The `euc` tag in both names is the Euclidean one earlier builds used,
// so the stores they wrote stay warm.
std::string DistanceFileName(uint64_t hash) {
  return Format("%016llx-euc-dist.cvcp", static_cast<unsigned long long>(hash));
}

std::string OpticsFileName(uint64_t hash, int min_pts) {
  return Format("%016llx-euc-mp%03d-optics.cvcp",
                static_cast<unsigned long long>(hash), min_pts);
}

/// Fills `decoded_key` of a listed file from its validated block records.
/// A kind this build does not read (including the reserved legacy kinds),
/// a metric record other than Euclidean's or a record-level read failure
/// (encoder/decoder schema drift) marks the file invalid, so
/// `store_inspect verify` fails on it.
void DescribeArtifact(BlockReader* reader, ArtifactFileInfo* info) {
  auto fail = [&](std::string why) {
    info->valid = false;
    info->detail = std::move(why);
  };
  auto metric_field = [&](uint32_t metric) -> std::string {
    if (metric == kEuclideanRecord) return "euc";
    fail(Format("metric %u is no longer read", metric));
    return Format("%u", metric);
  };
  switch (static_cast<ArtifactKind>(info->kind)) {
    case ArtifactKind::kDistanceMatrix: {
      Result<uint64_t> hash = reader->ReadU64();
      Result<uint32_t> metric = reader->ReadU32();
      Result<uint64_t> n = reader->ReadU64();
      if (!hash.ok() || !metric.ok() || !n.ok()) {
        return fail("undecodable distance key records");
      }
      info->decoded_key =
          Format("hash=%016llx metric=%s n=%llu",
                 static_cast<unsigned long long>(*hash),
                 metric_field(*metric).c_str(),
                 static_cast<unsigned long long>(*n));
      break;
    }
    case ArtifactKind::kOpticsModel: {
      Result<uint64_t> hash = reader->ReadU64();
      Result<uint32_t> metric = reader->ReadU32();
      Result<uint32_t> min_pts = reader->ReadU32();
      Result<std::vector<size_t>> order = reader->ReadSizes();
      Result<std::vector<double>> reach = reader->ReadDoubles();
      Result<std::vector<double>> core = reader->ReadDoubles();
      if (!hash.ok() || !metric.ok() || !min_pts.ok() || !order.ok() ||
          !reach.ok() || !core.ok()) {
        return fail("undecodable optics records");
      }
      info->decoded_key = Format(
          "hash=%016llx metric=%s mp=%03u n=%zu",
          static_cast<unsigned long long>(*hash),
          metric_field(*metric).c_str(), *min_pts, order->size());
      if (reader->remaining() > 0) fail("unexpected optics trailing records");
      break;
    }
    default:
      fail(Format("unknown artifact kind %u", info->kind));
      break;
  }
}

}  // namespace

const char* ArtifactKindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kDistanceMatrix:
      return "distances";
    case ArtifactKind::kOpticsModel:
      return "optics";
  }
  return "unknown";
}

uint64_t HashMatrixContent(const Matrix& points) {
  const uint64_t rows = points.rows();
  const uint64_t cols = points.cols();
  uint64_t h = Hash64(&rows, sizeof(rows));
  h = Hash64(&cols, sizeof(cols), h);
  const std::vector<double>& data = points.data();
  return Hash64(data.data(), data.size() * sizeof(double), h);
}

std::string EncodeDistanceMatrix(uint64_t dataset_hash,
                                 const DistanceMatrix& matrix) {
  BlockBuilder builder(static_cast<uint32_t>(ArtifactKind::kDistanceMatrix));
  builder.AppendU64(dataset_hash);
  builder.AppendU32(kEuclideanRecord);
  builder.AppendU64(matrix.n());
  builder.AppendDoubles(matrix.condensed());
  return builder.Finish();
}

Result<DistanceMatrix> DecodeDistanceMatrix(std::string bytes,
                                            uint64_t dataset_hash) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      BlockReader::Open(std::move(bytes),
                        static_cast<uint32_t>(ArtifactKind::kDistanceMatrix)));
  CVCP_ASSIGN_OR_RETURN(uint64_t stored_hash, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(uint32_t stored_metric, reader.ReadU32());
  if (stored_hash != dataset_hash || stored_metric != kEuclideanRecord) {
    return Status::Corruption(
        "distance block is keyed to a different (dataset, metric)");
  }
  CVCP_ASSIGN_OR_RETURN(uint64_t n, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(std::vector<double> condensed, reader.ReadDoubles());
  const uint64_t expected = n < 2 ? 0 : n * (n - 1) / 2;
  if (condensed.size() != expected) {
    return Status::Corruption(
        Format("distance block for n=%llu has %zu entries, expected %llu",
               static_cast<unsigned long long>(n), condensed.size(),
               static_cast<unsigned long long>(expected)));
  }
  return DistanceMatrix::FromCondensed(static_cast<size_t>(n),
                                       std::move(condensed));
}

std::string EncodeOpticsModel(uint64_t dataset_hash, int min_pts,
                              const OpticsResult& optics) {
  BlockBuilder builder(static_cast<uint32_t>(ArtifactKind::kOpticsModel));
  builder.AppendU64(dataset_hash);
  builder.AppendU32(kEuclideanRecord);
  builder.AppendU32(static_cast<uint32_t>(min_pts));
  builder.AppendSizes(optics.order);
  builder.AppendDoubles(optics.reachability);
  builder.AppendDoubles(optics.core_distance);
  return builder.Finish();
}

Result<OpticsResult> DecodeOpticsModel(std::string bytes,
                                       uint64_t dataset_hash, int min_pts) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      BlockReader::Open(std::move(bytes),
                        static_cast<uint32_t>(ArtifactKind::kOpticsModel)));
  CVCP_ASSIGN_OR_RETURN(uint64_t stored_hash, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(uint32_t stored_metric, reader.ReadU32());
  CVCP_ASSIGN_OR_RETURN(uint32_t stored_min_pts, reader.ReadU32());
  if (stored_hash != dataset_hash || stored_metric != kEuclideanRecord ||
      stored_min_pts != static_cast<uint32_t>(min_pts)) {
    return Status::Corruption(
        "optics block is keyed to a different (dataset, metric, MinPts)");
  }
  OpticsResult optics;
  CVCP_ASSIGN_OR_RETURN(optics.order, reader.ReadSizes());
  CVCP_ASSIGN_OR_RETURN(optics.reachability, reader.ReadDoubles());
  CVCP_ASSIGN_OR_RETURN(optics.core_distance, reader.ReadDoubles());
  if (optics.reachability.size() != optics.order.size() ||
      optics.core_distance.size() != optics.order.size()) {
    return Status::Corruption(
        Format("optics block arrays disagree on n: order %zu, "
               "reachability %zu, core %zu",
               optics.order.size(), optics.reachability.size(),
               optics.core_distance.size()));
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("optics block has unexpected trailing records");
  }
  return optics;
}

ArtifactStore::ArtifactStore(std::string directory)
    : directory_(std::move(directory)) {}

Status ArtifactStore::ClassifyMiss(Status status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      disk_misses_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kFailedPrecondition:
      version_misses_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      corrupt_misses_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return status;
}

Result<std::string> ArtifactStore::ReadFile(const std::string& filename) {
  const fs::path path = fs::path(directory_) / filename;
  Result<std::string> bytes = ReadFileToString(path.string());
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return Status::NotFound(Format("no artifact %s", filename.c_str()));
    }
    return bytes.status();
  }
  bytes_read_.fetch_add(bytes->size(), std::memory_order_relaxed);
  return bytes;
}

Status ArtifactStore::WriteFileAtomic(const std::string& filename,
                                      const std::string& bytes) {
  const uint64_t seq = temp_seq_.fetch_add(1, std::memory_order_relaxed);
  const Status written =
      cvcp::WriteFileAtomic(directory_, filename, bytes, seq);
  if (!written.ok()) {
    write_errors_.fetch_add(1, std::memory_order_relaxed);
    return written;
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return Status::OK();
}

Result<DistanceMatrix> ArtifactStore::LoadDistances(uint64_t dataset_hash) {
  Result<std::string> bytes = ReadFile(DistanceFileName(dataset_hash));
  if (!bytes.ok()) return ClassifyMiss(bytes.status());
  Result<DistanceMatrix> decoded =
      DecodeDistanceMatrix(std::move(bytes).value(), dataset_hash);
  if (!decoded.ok()) return ClassifyMiss(decoded.status());
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  return decoded;
}

Status ArtifactStore::SaveDistances(uint64_t dataset_hash,
                                    const DistanceMatrix& matrix) {
  return WriteFileAtomic(DistanceFileName(dataset_hash),
                         EncodeDistanceMatrix(dataset_hash, matrix));
}

Result<OpticsResult> ArtifactStore::LoadOpticsModel(uint64_t dataset_hash,
                                                    int min_pts) {
  Result<std::string> bytes = ReadFile(OpticsFileName(dataset_hash, min_pts));
  if (!bytes.ok()) return ClassifyMiss(bytes.status());
  Result<OpticsResult> decoded =
      DecodeOpticsModel(std::move(bytes).value(), dataset_hash, min_pts);
  if (!decoded.ok()) return ClassifyMiss(decoded.status());
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  return decoded;
}

Status ArtifactStore::SaveOpticsModel(uint64_t dataset_hash, int min_pts,
                                      const OpticsResult& optics) {
  return WriteFileAtomic(OpticsFileName(dataset_hash, min_pts),
                         EncodeOpticsModel(dataset_hash, min_pts, optics));
}

Result<std::vector<ArtifactFileInfo>> ArtifactStore::List() const {
  std::vector<ArtifactFileInfo> out;
  std::error_code ec;
  if (!fs::exists(directory_, ec)) return out;  // lazily-born store: empty
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < 5 || name.substr(name.size() - 5) != ".cvcp") continue;
    ArtifactFileInfo info;
    info.filename = name;
    info.bytes = entry.file_size();

    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    Result<uint32_t> kind = PeekBlockKind(bytes);
    if (kind.ok()) {
      info.kind = *kind;
      Result<BlockReader> reader = BlockReader::Open(std::move(bytes), *kind);
      info.valid = reader.ok();
      if (!reader.ok()) {
        info.detail = reader.status().ToString();
      } else {
        DescribeArtifact(&*reader, &info);
      }
    } else {
      info.detail = kind.status().ToString();
    }
    out.push_back(std::move(info));
  }
  if (ec) {
    return Status::Internal(Format("cannot list %s: %s", directory_.c_str(),
                                   ec.message().c_str()));
  }
  std::sort(out.begin(), out.end(),
            [](const ArtifactFileInfo& a, const ArtifactFileInfo& b) {
              return a.filename < b.filename;
            });
  return out;
}

Result<size_t> ArtifactStore::Purge() {
  std::error_code ec;
  if (!fs::exists(directory_, ec)) return size_t{0};
  std::vector<fs::path> doomed;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const bool artifact =
        name.size() >= 5 && name.substr(name.size() - 5) == ".cvcp";
    const bool leftover_temp = name.find(".tmp.") != std::string::npos;
    if (artifact || leftover_temp) doomed.push_back(entry.path());
  }
  if (ec) {
    return Status::Internal(Format("cannot list %s: %s", directory_.c_str(),
                                   ec.message().c_str()));
  }
  size_t removed = 0;
  for (const fs::path& path : doomed) {
    if (fs::remove(path, ec)) ++removed;
  }
  return removed;
}

Result<uint64_t> ArtifactStore::SweepOrphanTemps() {
  CVCP_ASSIGN_OR_RETURN(uint64_t removed, RemoveOrphanTempFiles(directory_));
  temps_swept_.fetch_add(removed, std::memory_order_relaxed);
  return removed;
}

ArtifactStore::Stats ArtifactStore::stats() const {
  Stats out;
  out.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  out.disk_misses = disk_misses_.load(std::memory_order_relaxed);
  out.corrupt_misses = corrupt_misses_.load(std::memory_order_relaxed);
  out.version_misses = version_misses_.load(std::memory_order_relaxed);
  out.writes = writes_.load(std::memory_order_relaxed);
  out.write_errors = write_errors_.load(std::memory_order_relaxed);
  out.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  out.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  out.temps_swept = temps_swept_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace cvcp
