#include "service/result_store.h"

#include <filesystem>
#include <utility>

#include "common/block_format.h"
#include "common/file_io.h"
#include "common/strings.h"

namespace cvcp {

namespace {

std::string RecordFilename(uint64_t job_id) {
  return Format("job-%016llx.cvcp", static_cast<unsigned long long>(job_id));
}

}  // namespace

std::string EncodeStoredResult(const StoredResult& record) {
  BlockBuilder builder(kJobRecordBlockKind);
  builder.AppendU64(record.job_id);
  builder.AppendU32(record.version);
  builder.AppendU64(record.spec_hash);
  builder.AppendString(record.spec_bytes);
  builder.AppendString(record.report_bytes);
  return builder.Finish();
}

Result<StoredResult> DecodeStoredResult(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      BlockReader::Open(std::move(bytes), kJobRecordBlockKind));
  StoredResult record;
  CVCP_ASSIGN_OR_RETURN(record.job_id, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(record.version, reader.ReadU32());
  CVCP_ASSIGN_OR_RETURN(record.spec_hash, reader.ReadU64());
  CVCP_ASSIGN_OR_RETURN(record.spec_bytes, reader.ReadString());
  CVCP_ASSIGN_OR_RETURN(record.report_bytes, reader.ReadString());
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing records in job record");
  }
  if (record.version == 0) {
    return Status::Corruption("job record has version 0");
  }
  // The nested blocks carry their own CRCs; validate both so a bit flip
  // anywhere in the file is caught at recovery, not at fetch.
  CVCP_ASSIGN_OR_RETURN(JobSpec spec, DecodeJobSpec(record.spec_bytes));
  if (JobSpecHash(spec) != record.spec_hash) {
    return Status::Corruption("job record spec hash mismatch");
  }
  CVCP_RETURN_IF_ERROR(DecodeCvcpReport(record.report_bytes).status());
  return record;
}

ResultStore::ResultStore(std::string directory)
    : directory_(std::move(directory)) {}

Status ResultStore::Recover() {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::exists(directory_, ec)) return Status::OK();  // born lazily
  // A crash between tmp-write and rename leaves an orphan; no writer is
  // live during recovery, so every tmp file here is garbage.
  Result<uint64_t> swept = RemoveOrphanTempFiles(directory_);
  if (swept.ok()) {
    temps_swept_.fetch_add(swept.value(), std::memory_order_relaxed);
  }
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("job-") && name.ends_with(".cvcp")) {
      names.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::Corruption(
        Format("cannot scan %s: %s", directory_.c_str(),
               ec.message().c_str()));
  }
  for (const std::string& path : names) {
    Result<std::string> bytes = ReadFileToString(path);
    if (!bytes.ok()) {
      corrupt_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Result<StoredResult> record = DecodeStoredResult(std::move(bytes).value());
    // A record filed under another id's name would be served for the
    // wrong job; it is damage like any other.
    if (!record.ok() ||
        fs::path(path).filename() != RecordFilename(record->job_id)) {
      corrupt_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    MutexLock lock(&mu_);
    job_ids_.insert(record->job_id);
    chains_[record->spec_hash][record->version] = record->job_id;
    if (record->job_id >= next_job_id_) next_job_id_ = record->job_id + 1;
    uint32_t& next = next_version_[record->spec_hash];
    if (record->version >= next) next = record->version + 1;
    recovered_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

uint64_t ResultStore::AllocateJobId() {
  MutexLock lock(&mu_);
  return next_job_id_++;
}

uint32_t ResultStore::AllocateVersion(uint64_t spec_hash) {
  MutexLock lock(&mu_);
  uint32_t& next = next_version_[spec_hash];
  if (next == 0) next = 1;
  return next++;
}

Status ResultStore::Put(const StoredResult& record) {
  {
    MutexLock lock(&mu_);
    if (job_ids_.contains(record.job_id)) {
      return Status::FailedPrecondition(
          Format("job %llu already stored",
                 static_cast<unsigned long long>(record.job_id)));
    }
  }
  const std::string bytes = EncodeStoredResult(record);
  const uint64_t seq = temp_seq_.fetch_add(1, std::memory_order_relaxed);
  CVCP_RETURN_IF_ERROR(WriteFileAtomic(directory_, RecordFilename(record.job_id),
                                       bytes, seq));
  {
    MutexLock lock(&mu_);
    job_ids_.insert(record.job_id);
    chains_[record.spec_hash][record.version] = record.job_id;
  }
  stored_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<StoredResult> ResultStore::Get(uint64_t job_id) const {
  if (!Contains(job_id)) {
    return Status::NotFound(
        Format("no stored result for job %llu",
               static_cast<unsigned long long>(job_id)));
  }
  // Indexed records are immutable, so the file is read outside the lock.
  CVCP_ASSIGN_OR_RETURN(
      std::string bytes,
      ReadFileToString(
          (std::filesystem::path(directory_) / RecordFilename(job_id))
              .string()));
  CVCP_ASSIGN_OR_RETURN(StoredResult record,
                        DecodeStoredResult(std::move(bytes)));
  if (record.job_id != job_id) {
    return Status::Corruption(
        Format("record file of job %llu holds job %llu",
               static_cast<unsigned long long>(job_id),
               static_cast<unsigned long long>(record.job_id)));
  }
  return record;
}

std::vector<uint64_t> ResultStore::Versions(uint64_t spec_hash) const {
  MutexLock lock(&mu_);
  std::vector<uint64_t> ids;
  auto it = chains_.find(spec_hash);
  if (it == chains_.end()) return ids;
  ids.reserve(it->second.size());
  for (const auto& [version, job_id] : it->second) ids.push_back(job_id);
  return ids;
}

bool ResultStore::Contains(uint64_t job_id) const {
  MutexLock lock(&mu_);
  return job_ids_.contains(job_id);
}

ResultStore::Stats ResultStore::stats() const {
  Stats stats;
  stats.recovered = recovered_.load(std::memory_order_relaxed);
  stats.corrupt = corrupt_.load(std::memory_order_relaxed);
  stats.stored = stored_.load(std::memory_order_relaxed);
  stats.temps_swept = temps_swept_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace cvcp
