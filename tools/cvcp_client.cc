// cvcp_client: command-line client for cvcp_serve, plus an in-process
// `direct` mode that runs the identical job without a server — the pair
// is the end-to-end determinism check (CI byte-compares their outputs):
//
//   cvcp_client submit --socket S [spec flags] [--out FILE]
//       submit one job, wait for it, print the outcome; --out writes the
//       stored report block (the exact bytes the server persisted)
//   cvcp_client direct [spec flags] [--out FILE] [--threads N]
//       run the same spec in-process via RunJob and write the encoded
//       report — byte-identical to the served one by contract
//   cvcp_client fetch --socket S --job ID [--out FILE]
//       re-fetch any prior version's stored report by job id
//   cvcp_client cancel --socket S --job ID
//       request cooperative cancellation; prints what the request found
//       (cancelled-while-queued / signalled / already-finished)
//   cvcp_client versions --socket S [spec flags]
//       job ids of every stored version of the spec, chain order
//   cvcp_client stats --socket S
//   cvcp_client shutdown --socket S
//
// Spec flags (defaults in core/job.h): --dataset NAME --dataset-seed N
// --dataset-index N --clusterer NAME --scenario labels|constraints
// --label-fraction F --pool-fraction F --constraint-fraction F
// --supervision-seed N --grid "3,6,9" --folds N --stratified
// --cvcp-seed N --deadline-ms N
//
// Robustness flags for submit: --retry N --backoff-ms B retry a
// backpressure rejection (kResourceExhausted only — the one transient
// failure) on a deterministic doubling schedule; a submission that still
// fails on backpressure exits 3 (distinct from exit 1 transport/spec
// errors) so scripts can tell "server busy" from "broken".
// --deadline-ms also applies in direct mode, via a local deadline token.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/strings.h"
#include "service/client.h"
#include "service/dataset_resolver.h"
#include "service/server.h"

namespace {

using namespace cvcp;  // NOLINT

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s submit|direct|fetch|cancel|versions|stats|shutdown "
               "[--socket PATH] [spec flags]\n"
               "run with no arguments after the subcommand for details in "
               "the file header\n",
               argv0);
  return 2;
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

bool ParseGrid(const std::string& text, std::vector<int>* out) {
  out->clear();
  for (const std::string& part : Split(text, ',')) {
    int value = 0;
    if (!ParseInteger(part, &value)) return false;
    out->push_back(value);
  }
  return !out->empty();
}

struct Options {
  std::string socket;
  std::string out;
  uint64_t job_id = 0;
  int threads = 0;
  RetryPolicy retry;
  JobSpec spec;
  bool ok = true;
};

Options ParseOptions(int argc, char** argv, int first) {
  Options options;
  options.spec.param_grid = {3, 6, 9, 12};
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    // Integer values must fit their field's type (common/strings.h).
    uint64_t u = 0;
    int v = 0;
    double d = 0.0;
    if (arg == "--socket" && has_value) {
      options.socket = argv[++i];
    } else if (arg == "--out" && has_value) {
      options.out = argv[++i];
    } else if (arg == "--job" && has_value && ParseInteger(argv[++i], &u)) {
      options.job_id = u;
    } else if (arg == "--threads" && has_value &&
               ParseInteger(argv[++i], &v)) {
      options.threads = v;
    } else if (arg == "--dataset" && has_value) {
      options.spec.dataset = argv[++i];
    } else if (arg == "--dataset-seed" && has_value &&
               ParseInteger(argv[++i], &u)) {
      options.spec.dataset_seed = u;
    } else if (arg == "--dataset-index" && has_value &&
               ParseInteger(argv[++i], &u)) {
      options.spec.dataset_index = u;
    } else if (arg == "--clusterer" && has_value) {
      options.spec.clusterer = argv[++i];
    } else if (arg == "--scenario" && has_value) {
      const std::string scenario = argv[++i];
      if (scenario == "labels") {
        options.spec.scenario = SupervisionKind::kLabels;
      } else if (scenario == "constraints") {
        options.spec.scenario = SupervisionKind::kConstraints;
      } else {
        options.ok = false;
      }
    } else if (arg == "--label-fraction" && has_value &&
               ParseDouble(argv[++i], &d)) {
      options.spec.label_fraction = d;
    } else if (arg == "--pool-fraction" && has_value &&
               ParseDouble(argv[++i], &d)) {
      options.spec.pool_fraction = d;
    } else if (arg == "--constraint-fraction" && has_value &&
               ParseDouble(argv[++i], &d)) {
      options.spec.constraint_fraction = d;
    } else if (arg == "--supervision-seed" && has_value &&
               ParseInteger(argv[++i], &u)) {
      options.spec.supervision_seed = u;
    } else if (arg == "--grid" && has_value &&
               ParseGrid(argv[++i], &options.spec.param_grid)) {
      // parsed in place
    } else if (arg == "--folds" && has_value && ParseInteger(argv[++i], &v)) {
      options.spec.n_folds = v;
    } else if (arg == "--stratified") {
      options.spec.stratified = true;
    } else if (arg == "--cvcp-seed" && has_value &&
               ParseInteger(argv[++i], &u)) {
      options.spec.cvcp_seed = u;
    } else if (arg == "--deadline-ms" && has_value &&
               ParseInteger(argv[++i], &u)) {
      options.spec.deadline_ms = u;
    } else if (arg == "--retry" && has_value && ParseInteger(argv[++i], &v)) {
      options.retry.max_retries = v;
    } else if (arg == "--backoff-ms" && has_value &&
               ParseInteger(argv[++i], &v)) {
      options.retry.backoff_ms = v;
    } else {
      options.ok = false;
    }
    if (!options.ok) {
      std::fprintf(stderr, "cvcp_client: bad argument: %s\n", arg.c_str());
      return options;
    }
  }
  return options;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "cvcp_client: %s\n", status.ToString().c_str());
  return 1;
}

/// Backpressure exits 3 so scripts can distinguish "server busy, try
/// later" from transport or spec failures (exit 1).
int FailSubmit(const Status& status) {
  if (status.code() == StatusCode::kResourceExhausted) {
    std::fprintf(stderr,
                 "cvcp_client: server busy (backpressure): %s\n"
                 "cvcp_client: retries exhausted; try again later or raise "
                 "--retry/--backoff-ms\n",
                 status.ToString().c_str());
    return 3;
  }
  return Fail(status);
}

int WriteOut(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cvcp_client: cannot open %s\n", path.c_str());
    return 1;
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) {
    std::fprintf(stderr, "cvcp_client: short write to %s\n", path.c_str());
    return 1;
  }
  return 0;
}

void PrintReport(const CvcpReport& report) {
  for (const CvcpParamScore& score : report.scores) {
    std::printf("param %3d  score %s  valid_folds %d\n", score.param,
                FormatDouble(score.score).c_str(), score.valid_folds);
  }
  std::printf("best_param %d  best_score %s\n", report.best_param,
              FormatDouble(report.best_score).c_str());
}

int FinishReport(const Options& options, const ReportReply& reply) {
  std::printf("job %llu  version %u  spec_hash %016llx  %zu bytes\n",
              static_cast<unsigned long long>(reply.job_id), reply.version,
              static_cast<unsigned long long>(reply.spec_hash),
              reply.report_bytes.size());
  Result<CvcpReport> report = DecodeCvcpReport(reply.report_bytes);
  if (!report.ok()) return Fail(report.status());
  PrintReport(report.value());
  if (!options.out.empty()) return WriteOut(options.out, reply.report_bytes);
  return 0;
}

int RunSubmit(const Options& options) {
  Result<Client> client = Client::Connect(options.socket);
  if (!client.ok()) return Fail(client.status());
  const auto on_retry = [](int attempt, int64_t delay_ms) {
    std::fprintf(stderr,
                 "cvcp_client: server busy, retry %d in %lld ms\n", attempt,
                 static_cast<long long>(delay_ms));
  };
  Result<SubmitReply> submitted =
      client->SubmitWithRetry(options.spec, options.retry, on_retry);
  if (!submitted.ok()) return FailSubmit(submitted.status());
  Result<ReportReply> reply = client->Wait(submitted->job_id);
  if (!reply.ok()) return Fail(reply.status());
  return FinishReport(options, reply.value());
}

int RunDirect(const Options& options) {
  DatasetResolver resolver;
  Result<const Dataset*> data = resolver.Resolve(options.spec);
  if (!data.ok()) return Fail(data.status());
  JobContext context;
  context.exec.threads = options.threads;
  // Honor --deadline-ms without a server: the same cell-boundary checks
  // fire off a local deadline token.
  CancelSource deadline;
  if (options.spec.deadline_ms > 0) {
    deadline.SetDeadlineAfterMs(options.spec.deadline_ms);
    context.exec.cancel = deadline.token();
  }
  Result<CvcpReport> report = RunJob(**data, options.spec, context);
  if (!report.ok()) return Fail(report.status());
  const std::string bytes = EncodeCvcpReport(report.value());
  std::printf("direct  spec_hash %016llx  %zu bytes\n",
              static_cast<unsigned long long>(JobSpecHash(options.spec)),
              bytes.size());
  PrintReport(report.value());
  if (!options.out.empty()) return WriteOut(options.out, bytes);
  return 0;
}

int RunFetch(const Options& options) {
  Result<Client> client = Client::Connect(options.socket);
  if (!client.ok()) return Fail(client.status());
  Result<ReportReply> reply = client->Fetch(options.job_id);
  if (!reply.ok()) return Fail(reply.status());
  return FinishReport(options, reply.value());
}

int RunCancel(const Options& options) {
  Result<Client> client = Client::Connect(options.socket);
  if (!client.ok()) return Fail(client.status());
  Result<CancelReply> reply = client->Cancel(options.job_id);
  if (!reply.ok()) return Fail(reply.status());
  const char* outcome = "already-finished";
  switch (reply->outcome) {
    case CancelOutcome::kCancelledWhileQueued:
      outcome = "cancelled-while-queued";
      break;
    case CancelOutcome::kSignalled:
      outcome = "signalled";
      break;
    case CancelOutcome::kAlreadyFinished:
      break;
  }
  std::printf("job %llu  %s\n",
              static_cast<unsigned long long>(options.job_id), outcome);
  return 0;
}

int RunVersions(const Options& options) {
  Result<Client> client = Client::Connect(options.socket);
  if (!client.ok()) return Fail(client.status());
  const uint64_t spec_hash = JobSpecHash(options.spec);
  Result<std::vector<uint64_t>> versions = client->Versions(spec_hash);
  if (!versions.ok()) return Fail(versions.status());
  std::printf("spec_hash %016llx  %zu versions\n",
              static_cast<unsigned long long>(spec_hash), versions->size());
  for (size_t i = 0; i < versions->size(); ++i) {
    std::printf("version %zu  job %llu\n", i + 1,
                static_cast<unsigned long long>((*versions)[i]));
  }
  return 0;
}

int RunStats(const Options& options) {
  Result<Client> client = Client::Connect(options.socket);
  if (!client.ok()) return Fail(client.status());
  Result<StatsReply> stats = client->Stats();
  if (!stats.ok()) return Fail(stats.status());
  for (const StatsField& field : kStatsFields) {
    std::printf("%s %llu\n", field.name,
                static_cast<unsigned long long>(stats.value().*field.member));
  }
  return 0;
}

int RunShutdown(const Options& options) {
  Result<Client> client = Client::Connect(options.socket);
  if (!client.ok()) return Fail(client.status());
  const Status status = client->Shutdown();
  if (!status.ok()) return Fail(status);
  std::printf("shutdown requested\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string command = argv[1];
  const Options options = ParseOptions(argc, argv, 2);
  if (!options.ok) return Usage(argv[0]);
  const bool needs_socket = command != "direct";
  if (needs_socket && options.socket.empty()) {
    std::fprintf(stderr, "cvcp_client: --socket is required\n");
    return 2;
  }
  if (command == "submit") return RunSubmit(options);
  if (command == "direct") return RunDirect(options);
  if (command == "fetch") return RunFetch(options);
  if (command == "cancel") return RunCancel(options);
  if (command == "versions") return RunVersions(options);
  if (command == "stats") return RunStats(options);
  if (command == "shutdown") return RunShutdown(options);
  return Usage(argv[0]);
}
