#ifndef CVCP_SERVICE_RESULT_STORE_H_
#define CVCP_SERVICE_RESULT_STORE_H_

/// \file
/// The server's durable memory: every completed job becomes one immutable
/// `job-<16-hex-id>.cvcp` file — a sealed block (common/block_format.h)
/// holding the job id, its 1-based version in the spec's chain, the spec
/// hash, the encoded spec, and the encoded report — written with the
/// atomic tmp+rename discipline (common/file_io.h), so a crash at any
/// instant leaves either the complete record or no record, never a torn
/// one.
///
/// Versioning: submissions hashing to the same spec are versions
/// 1, 2, ... of one logical job. Version numbers are allocated at
/// admission and continue across restarts: `Recover()` scans the
/// directory, CRC-verifies every record (a damaged file is counted and
/// skipped — classified, never misread), and seeds both the job-id
/// counter and every per-hash chain from what survived. Records are
/// immutable once published; re-fetching any prior version by job id
/// returns the exact bytes that were stored.
///
/// Memory holds only the index (job ids, version chains, counters): `Get`
/// reads the record's file, so the store's footprint does not grow with
/// the bytes of completed jobs.
///
/// Thread-safe; IO happens outside the lock (records are immutable and
/// names are unique, so writers never conflict).

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/job.h"

namespace cvcp {

/// Block kind of a persisted job record ("JREC").
inline constexpr uint32_t kJobRecordBlockKind = 0x4A524543;

/// One immutable completed-job record, as stored and as served.
/// `report_bytes` is the sealed kCvcpReportBlockKind block exactly as
/// persisted — the bytes clients bit-compare against direct runs.
struct StoredResult {
  uint64_t job_id = 0;
  uint32_t version = 0;  ///< 1-based position in the spec_hash chain
  uint64_t spec_hash = 0;
  std::string spec_bytes;    ///< sealed kJobSpecBlockKind block
  std::string report_bytes;  ///< sealed kCvcpReportBlockKind block
};

/// Codec for the record file body (exposed for the fault-injection
/// tests). Decode validates the outer frame, both nested blocks, and
/// that the embedded spec re-hashes to `spec_hash` — a cross-linked or
/// damaged file can never satisfy a fetch.
std::string EncodeStoredResult(const StoredResult& record);
Result<StoredResult> DecodeStoredResult(std::string bytes);

/// The versioned result store behind one cvcp_serve instance.
class ResultStore {
 public:
  explicit ResultStore(std::string directory);

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& directory() const { return directory_; }

  /// Scans the directory and indexes every valid record; damaged files,
  /// and files whose name is not their record's id, are counted under
  /// `results_corrupt` and skipped. Orphaned `*.tmp.*` files — writes a
  /// crash interrupted before their rename — are removed and counted
  /// under `temps_swept` (safe here: Recover runs before any writer
  /// exists). Seeds the job-id counter and the per-hash version chains.
  /// Call once before serving.
  Status Recover();

  /// Allocates the next job id (recovered max + 1, monotonic).
  uint64_t AllocateJobId();

  /// Allocates the next version in `spec_hash`'s chain (recovered chain
  /// length + prior allocations + 1). Allocated at admission, so an
  /// accepted job's (id, version) pair is fixed before it runs; a job
  /// that fails leaves a hole in the chain rather than renumbering later
  /// versions.
  uint32_t AllocateVersion(uint64_t spec_hash);

  /// Atomically publishes `record` as an immutable file and indexes it.
  /// kFailedPrecondition if the job id is already stored (records are
  /// write-once).
  Status Put(const StoredResult& record);

  /// The stored record for `job_id`, read from its file; kNotFound for
  /// unknown ids, and kCorruption when the file no longer decodes to a
  /// record of `job_id`.
  Result<StoredResult> Get(uint64_t job_id) const;

  /// Job ids of the stored versions of `spec_hash`, in version order
  /// (version v need not equal index+1 when a failed job left a hole).
  std::vector<uint64_t> Versions(uint64_t spec_hash) const;

  /// Whether `job_id` has a stored record (recovered or published).
  bool Contains(uint64_t job_id) const;

  struct Stats {
    uint64_t recovered = 0;    ///< valid records indexed by Recover
    uint64_t corrupt = 0;      ///< damaged files skipped by Recover
    uint64_t stored = 0;       ///< records published by Put
    uint64_t temps_swept = 0;  ///< orphaned tmp files removed by Recover
  };
  Stats stats() const;

 private:
  std::string directory_;
  std::atomic<uint64_t> temp_seq_{0};

  mutable Mutex mu_;
  uint64_t next_job_id_ GUARDED_BY(mu_) = 1;
  std::set<uint64_t> job_ids_ GUARDED_BY(mu_);  ///< stored records
  /// spec_hash -> (version -> job_id), version-sorted by map order.
  std::map<uint64_t, std::map<uint32_t, uint64_t>> chains_ GUARDED_BY(mu_);
  std::map<uint64_t, uint32_t> next_version_ GUARDED_BY(mu_);

  std::atomic<uint64_t> recovered_{0};
  std::atomic<uint64_t> corrupt_{0};
  std::atomic<uint64_t> stored_{0};
  std::atomic<uint64_t> temps_swept_{0};
};

}  // namespace cvcp

#endif  // CVCP_SERVICE_RESULT_STORE_H_
