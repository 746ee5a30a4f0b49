// bench_service: end-to-end latency and warm-start behavior of the
// cvcp_serve job service, measured against the direct in-process RunJob
// baseline. Four rows:
//
//   direct        RunJob in-process (no server, one cache private to the
//                 run) — the baseline
//   served-cold   1 client, fresh server, cold caches
//   served-warm   same spec resubmitted to the same server — the compute
//                 cache must serve every OPTICS model (model_builds may
//                 not grow), so the row measures queue+protocol overhead
//   served-4x     4 concurrent clients submitting the same spec
//
// Every served report is byte-compared against the direct encoding; any
// mismatch (or a warm row that rebuilds models) makes the process exit
// nonzero, so the CI smoke step fails on a service determinism
// regression instead of printing it. Rows are mirrored into
// BENCH_service.json (--json PATH; '' disables). --threads N sets the
// per-job fan-out width.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "service/client.h"
#include "service/dataset_resolver.h"
#include "service/server.h"

namespace {

using namespace cvcp;  // NOLINT

bool g_ok = true;
std::vector<std::string> g_rows;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void EmitRow(const char* label, double ms, double baseline_ms, bool matches,
             const char* note) {
  std::printf("%-12s %10.1f %9.2fx  %s\n", label, ms,
              ms > 0 ? baseline_ms / ms : 0.0, note);
  g_rows.push_back(Format(
      "{\"table\": \"service\", \"row\": \"%s\", \"wall_ms\": %.3f, "
      "\"matches\": %s}",
      label, ms, matches ? "true" : "false"));
}

JobSpec BenchSpec() {
  JobSpec spec;
  spec.dataset = "zyeast";
  spec.dataset_seed = 5;
  spec.clusterer = "fosc";
  spec.scenario = SupervisionKind::kConstraints;
  spec.param_grid = {3, 6, 9, 12};
  spec.n_folds = 5;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 0;
  std::string json_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc &&
        ParseInteger(argv[i + 1], &threads)) {
      ++i;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--threads N] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  char tmpl[] = "/tmp/cvcp_bench_service.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string base = dir;

  const JobSpec spec = BenchSpec();

  // Baseline: the identical job, in process, no server.
  DatasetResolver resolver;
  auto data = resolver.Resolve(spec);
  CVCP_CHECK(data.ok());
  JobContext context;
  context.exec.threads = threads;
  const auto direct_start = std::chrono::steady_clock::now();
  auto direct = RunJob(**data, spec, context);
  const double direct_ms = MsSince(direct_start);
  CVCP_CHECK(direct.ok());
  const std::string direct_bytes = EncodeCvcpReport(direct.value());

  ServerConfig config;
  config.socket_path = base + "/sock";
  config.results_dir = base + "/results";
  config.store_dir = base + "/store";
  config.threads = threads;
  config.batch = 2;
  Server server(config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  std::printf(
      "=== cvcp_serve vs direct RunJob (dataset=%s n=%zu, fosc, "
      "%zu-value grid x %d folds, threads=%d) ===\n",
      spec.dataset.c_str(), (*data)->size(), spec.param_grid.size(),
      spec.n_folds, threads);
  std::printf("%-12s %10s %9s  %s\n", "row", "wall_ms", "vs direct",
              "report bytes");
  EmitRow("direct", direct_ms, direct_ms, true, "(baseline)");

  auto served_row = [&](const char* label, int clients,
                        bool expect_warm) {
    const StatsReply before = server.Stats();
    std::vector<std::string> replies(static_cast<size_t>(clients));
    std::vector<Status> errors(static_cast<size_t>(clients));
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> sessions;
    sessions.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      sessions.emplace_back([&, c] {
        auto client = Client::Connect(config.socket_path);
        if (!client.ok()) {
          errors[static_cast<size_t>(c)] = client.status();
          return;
        }
        auto submitted = client->Submit(spec);
        if (!submitted.ok()) {
          errors[static_cast<size_t>(c)] = submitted.status();
          return;
        }
        auto reply = client->Wait(submitted->job_id);
        if (!reply.ok()) {
          errors[static_cast<size_t>(c)] = reply.status();
          return;
        }
        replies[static_cast<size_t>(c)] = std::move(reply->report_bytes);
      });
    }
    for (std::thread& t : sessions) t.join();
    const double ms = MsSince(start);
    bool matches = true;
    for (int c = 0; c < clients; ++c) {
      if (!errors[static_cast<size_t>(c)].ok()) {
        std::fprintf(stderr, "client %d: %s\n", c,
                     errors[static_cast<size_t>(c)].ToString().c_str());
        matches = false;
      } else if (replies[static_cast<size_t>(c)] != direct_bytes) {
        matches = false;
      }
    }
    const StatsReply after = server.Stats();
    const bool warm_ok =
        !expect_warm || after.model_builds == before.model_builds;
    if (!matches || !warm_ok) g_ok = false;
    EmitRow(label, ms, direct_ms, matches && warm_ok,
            !matches   ? "MISMATCH vs direct"
            : !warm_ok ? "identical, but models were REBUILT"
            : expect_warm ? "identical (0 model rebuilds)"
                          : "identical to direct");
  };

  served_row("served-cold", /*clients=*/1, /*expect_warm=*/false);
  served_row("served-warm", /*clients=*/1, /*expect_warm=*/true);
  served_row("served-4x", /*clients=*/4, /*expect_warm=*/true);

  server.Stop(/*drain=*/true);

  if (!json_path.empty()) {
    std::FILE* file = std::fopen(json_path.c_str(), "w");
    if (file != nullptr) {
      std::fprintf(file,
                   "{\n  \"bench\": \"bench_service\",\n"
                   "  \"determinism_ok\": %s,\n  \"rows\": [\n",
                   g_ok ? "true" : "false");
      for (size_t i = 0; i < g_rows.size(); ++i) {
        std::fprintf(file, "    %s%s\n", g_rows[i].c_str(),
                     i + 1 < g_rows.size() ? "," : "");
      }
      std::fprintf(file, "  ]\n}\n");
      std::fclose(file);
      std::printf("wrote %zu JSON rows to %s\n", g_rows.size(),
                  json_path.c_str());
    }
  }
  return g_ok ? 0 : 1;
}
