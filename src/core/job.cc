#include "core/job.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "common/hash.h"
#include "common/strings.h"
#include "core/clusterer.h"
#include "core/dataset_cache.h"

namespace cvcp {

namespace {

/// ints travel as their two's-complement bit pattern widened to u64 (the
/// AppendSizes record type), so negative values — the -1 noise id, or a
/// negative grid parameter — round-trip exactly.
uint64_t IntToU64(int v) {
  return static_cast<uint64_t>(static_cast<int64_t>(v));
}

Result<int> IntFromU64(uint64_t raw) {
  const int64_t wide = static_cast<int64_t>(raw);
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    return Status::Corruption(Format("int record out of range: %lld",
                                     static_cast<long long>(wide)));
  }
  return static_cast<int>(wide);
}

bool FractionValid(double f) { return f > 0.0 && f <= 1.0; }

}  // namespace

Status ValidateJobSpec(const JobSpec& spec) {
  if (spec.dataset.empty()) {
    return Status::InvalidArgument("job spec names no dataset");
  }
  Result<std::unique_ptr<SemiSupervisedClusterer>> clusterer =
      MakeClusterer(spec.clusterer);
  CVCP_RETURN_IF_ERROR(clusterer.status());
  if (spec.param_grid.empty()) {
    return Status::InvalidArgument("job spec has an empty parameter grid");
  }
  if (spec.n_folds < 2) {
    return Status::InvalidArgument(
        Format("n_folds must be >= 2, got %d", spec.n_folds));
  }
  if (spec.scenario == SupervisionKind::kLabels) {
    if (!FractionValid(spec.label_fraction)) {
      return Status::InvalidArgument(
          Format("label_fraction %g outside (0, 1]", spec.label_fraction));
    }
  } else {
    if (!FractionValid(spec.pool_fraction) ||
        !FractionValid(spec.constraint_fraction)) {
      return Status::InvalidArgument(
          Format("constraint oracle fractions (%g, %g) outside (0, 1]",
                 spec.pool_fraction, spec.constraint_fraction));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<SemiSupervisedClusterer>> MakeClusterer(
    const std::string& name) {
  std::unique_ptr<SemiSupervisedClusterer> made;
  if (name == "fosc") {
    made = std::make_unique<FoscOpticsDendClusterer>();
  } else if (name == "mpck") {
    made = std::make_unique<MpckMeansClusterer>();
  } else if (name == "copk") {
    made = std::make_unique<CopKMeansClusterer>();
  } else if (name == "kmeans") {
    made = std::make_unique<KMeansClusterer>();
  } else {
    return Status::InvalidArgument(Format(
        "unknown clusterer \"%s\" (want fosc|mpck|copk|kmeans)",
        name.c_str()));
  }
  return made;
}

Result<Supervision> BuildJobSupervision(const Dataset& data,
                                        const JobSpec& spec) {
  Rng rng(spec.supervision_seed);
  const double fraction = spec.scenario == SupervisionKind::kLabels
                              ? spec.label_fraction
                              : spec.constraint_fraction;
  return DrawOracleSupervision(data, spec.scenario, fraction,
                               spec.pool_fraction, &rng);
}

Result<CvcpReport> RunJob(const Dataset& data, const JobSpec& spec,
                          const JobContext& context) {
  // Fail before any work when the job was cancelled (or timed out) while
  // queued — a popped-but-overdue job must not even build supervision.
  CVCP_RETURN_IF_ERROR(context.exec.cancel.Check());
  CVCP_RETURN_IF_ERROR(ValidateJobSpec(spec));
  CVCP_ASSIGN_OR_RETURN(std::unique_ptr<SemiSupervisedClusterer> clusterer,
                        MakeClusterer(spec.clusterer));
  CVCP_ASSIGN_OR_RETURN(Supervision supervision,
                        BuildJobSupervision(data, spec));
  CvcpConfig config;
  config.cv.n_folds = spec.n_folds;
  config.cv.stratified = spec.stratified;
  config.cv.exec = context.exec;
  config.param_grid = spec.param_grid;
  Rng rng(spec.cvcp_seed);
  return RunCvcp(data, supervision, *clusterer, config, &rng, context.cache);
}

void AppendJobSpecRecords(const JobSpec& spec, BlockBuilder* builder) {
  builder->AppendString(spec.dataset);
  builder->AppendU64(spec.dataset_seed);
  builder->AppendU64(spec.dataset_index);
  builder->AppendString(spec.clusterer);
  builder->AppendU32(static_cast<uint32_t>(spec.scenario));
  const double fractions[] = {spec.label_fraction, spec.pool_fraction,
                              spec.constraint_fraction};
  builder->AppendDoubles(fractions);
  builder->AppendU64(spec.supervision_seed);
  std::vector<size_t> grid;
  grid.reserve(spec.param_grid.size());
  for (int p : spec.param_grid) grid.push_back(IntToU64(p));
  builder->AppendSizes(grid);
  builder->AppendU32(static_cast<uint32_t>(spec.n_folds));
  builder->AppendU32(spec.stratified ? 1 : 0);
  builder->AppendU64(spec.cvcp_seed);
  // Optional trailing record, omitted when zero: a deadline-free spec
  // encodes byte-identically to the pre-deadline format, so records (and
  // spec hashes) persisted by earlier releases stay valid on upgrade.
  if (spec.deadline_ms != 0) builder->AppendU64(spec.deadline_ms);
}

Result<JobSpec> ReadJobSpecRecords(BlockReader* reader) {
  JobSpec spec;
  CVCP_ASSIGN_OR_RETURN(spec.dataset, reader->ReadString());
  CVCP_ASSIGN_OR_RETURN(spec.dataset_seed, reader->ReadU64());
  CVCP_ASSIGN_OR_RETURN(spec.dataset_index, reader->ReadU64());
  CVCP_ASSIGN_OR_RETURN(spec.clusterer, reader->ReadString());
  CVCP_ASSIGN_OR_RETURN(uint32_t scenario, reader->ReadU32());
  if (scenario > 1) {
    return Status::Corruption(Format("bad scenario %u", scenario));
  }
  spec.scenario = static_cast<SupervisionKind>(scenario);
  CVCP_ASSIGN_OR_RETURN(std::vector<double> fractions, reader->ReadDoubles());
  if (fractions.size() != 3) {
    return Status::Corruption("bad oracle-fraction record");
  }
  spec.label_fraction = fractions[0];
  spec.pool_fraction = fractions[1];
  spec.constraint_fraction = fractions[2];
  CVCP_ASSIGN_OR_RETURN(spec.supervision_seed, reader->ReadU64());
  CVCP_ASSIGN_OR_RETURN(std::vector<size_t> grid, reader->ReadSizes());
  spec.param_grid.clear();
  spec.param_grid.reserve(grid.size());
  for (size_t raw : grid) {
    CVCP_ASSIGN_OR_RETURN(int param, IntFromU64(raw));
    spec.param_grid.push_back(param);
  }
  CVCP_ASSIGN_OR_RETURN(uint32_t n_folds, reader->ReadU32());
  if (n_folds > static_cast<uint32_t>(std::numeric_limits<int>::max())) {
    return Status::Corruption(Format("bad n_folds %u", n_folds));
  }
  spec.n_folds = static_cast<int>(n_folds);
  CVCP_ASSIGN_OR_RETURN(uint32_t stratified, reader->ReadU32());
  spec.stratified = stratified != 0;
  CVCP_ASSIGN_OR_RETURN(spec.cvcp_seed, reader->ReadU64());
  // The deadline record is optional (absent in pre-deadline records and
  // in deadline-free encodings). Spec records are always the last in
  // their block, so a present next record can only be the deadline.
  spec.deadline_ms = 0;
  if (reader->remaining() > 0) {
    CVCP_ASSIGN_OR_RETURN(spec.deadline_ms, reader->ReadU64());
  }
  return spec;
}

std::string EncodeJobSpec(const JobSpec& spec) {
  BlockBuilder builder(kJobSpecBlockKind);
  AppendJobSpecRecords(spec, &builder);
  return builder.Finish();
}

Result<JobSpec> DecodeJobSpec(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      BlockReader::Open(std::move(bytes), kJobSpecBlockKind));
  CVCP_ASSIGN_OR_RETURN(JobSpec spec, ReadJobSpecRecords(&reader));
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing records after job spec");
  }
  return spec;
}

uint64_t JobSpecHash(const JobSpec& spec) {
  // The deadline is execution metadata, not job identity: resubmitting
  // the same logical job with a different (or no) deadline must land in
  // the same version chain and re-hash-validate against stored records.
  // The canonical encoding omits the zeroed deadline record entirely
  // (see AppendJobSpecRecords), so it is bitwise the pre-deadline
  // encoding and hashes of legacy records keep verifying.
  JobSpec canonical = spec;
  canonical.deadline_ms = 0;
  const std::string bytes = EncodeJobSpec(canonical);
  return Hash64(bytes.data(), bytes.size());
}

void AppendCvcpReportRecords(const CvcpReport& report, BlockBuilder* builder) {
  std::vector<size_t> params;
  std::vector<double> scores;
  std::vector<size_t> valid_folds;
  params.reserve(report.scores.size());
  scores.reserve(report.scores.size());
  valid_folds.reserve(report.scores.size());
  for (const CvcpParamScore& score : report.scores) {
    params.push_back(IntToU64(score.param));
    scores.push_back(score.score);
    valid_folds.push_back(IntToU64(score.valid_folds));
  }
  builder->AppendSizes(params);
  builder->AppendDoubles(scores);
  builder->AppendSizes(valid_folds);
  builder->AppendU64(IntToU64(report.best_param));
  const double best[] = {report.best_score};
  builder->AppendDoubles(best);
  std::vector<size_t> assignment;
  assignment.reserve(report.final_clustering.size());
  for (int id : report.final_clustering.assignment()) {
    assignment.push_back(IntToU64(id));
  }
  builder->AppendSizes(assignment);
}

Result<CvcpReport> ReadCvcpReportRecords(BlockReader* reader) {
  CvcpReport report;
  CVCP_ASSIGN_OR_RETURN(std::vector<size_t> params, reader->ReadSizes());
  CVCP_ASSIGN_OR_RETURN(std::vector<double> scores, reader->ReadDoubles());
  CVCP_ASSIGN_OR_RETURN(std::vector<size_t> valid_folds, reader->ReadSizes());
  if (params.size() != scores.size() || params.size() != valid_folds.size()) {
    return Status::Corruption("report score arrays disagree in length");
  }
  report.scores.resize(params.size());
  for (size_t g = 0; g < params.size(); ++g) {
    CVCP_ASSIGN_OR_RETURN(report.scores[g].param, IntFromU64(params[g]));
    report.scores[g].score = scores[g];
    CVCP_ASSIGN_OR_RETURN(report.scores[g].valid_folds,
                          IntFromU64(valid_folds[g]));
  }
  CVCP_ASSIGN_OR_RETURN(uint64_t best_param, reader->ReadU64());
  CVCP_ASSIGN_OR_RETURN(report.best_param, IntFromU64(best_param));
  CVCP_ASSIGN_OR_RETURN(std::vector<double> best, reader->ReadDoubles());
  if (best.size() != 1) return Status::Corruption("bad best-score record");
  report.best_score = best[0];
  CVCP_ASSIGN_OR_RETURN(std::vector<size_t> assignment, reader->ReadSizes());
  std::vector<int> ids;
  ids.reserve(assignment.size());
  for (size_t raw : assignment) {
    CVCP_ASSIGN_OR_RETURN(int id, IntFromU64(raw));
    // Clustering's constructor CHECKs ids >= -1; classify instead of
    // aborting on damaged bytes.
    if (id < -1) return Status::Corruption(Format("bad cluster id %d", id));
    ids.push_back(id);
  }
  report.final_clustering = Clustering(std::move(ids));
  return report;
}

std::string EncodeCvcpReport(const CvcpReport& report) {
  BlockBuilder builder(kCvcpReportBlockKind);
  AppendCvcpReportRecords(report, &builder);
  return builder.Finish();
}

Result<CvcpReport> DecodeCvcpReport(std::string bytes) {
  CVCP_ASSIGN_OR_RETURN(
      BlockReader reader,
      BlockReader::Open(std::move(bytes), kCvcpReportBlockKind));
  CVCP_ASSIGN_OR_RETURN(CvcpReport report, ReadCvcpReportRecords(&reader));
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing records after report");
  }
  return report;
}

uint64_t EstimateJobBytes(size_t n, size_t grid_size) {
  const uint64_t points = static_cast<uint64_t>(n);
  const uint64_t condensed = points * (points > 0 ? points - 1 : 0) / 2 * 8;
  // One OPTICS model ≈ four n-length arrays (order, reachability, core
  // distances, dendrogram scaffolding) per grid value.
  const uint64_t models = static_cast<uint64_t>(grid_size) * points * 8 * 4;
  constexpr uint64_t kFixedOverhead = 64 * 1024;
  return condensed + models + kFixedOverhead;
}

}  // namespace cvcp
