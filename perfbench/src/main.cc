// perfbench: the repository benchmark binary. Runs one workload for a
// fixed time, checks its outputs, and prints one JSON report line on
// stdout (progress goes to stderr). perfbench/run.py builds this binary,
// runs it, and turns the report into the benchmark's result line.
//
//   perfbench --workload fosc-labels|mpck-labels|served-mix --seed N
//             --seconds S --trace 0|1 [--run-dir DIR]
//
// The thread budget is every hardware thread.

#include <sys/statfs.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "common/distance_kernels.h"
#include "workloads.h"

namespace perfbench {

namespace {

const std::map<std::string, std::string>& EndToEndUnits() {
  static const auto* units = new std::map<std::string, std::string>{
      {"ops_per_s", "op/s"},  {"cpu_ms_per_op", "ms"}, {"job_p50_ms", "ms"},
      {"job_p99_ms", "ms"},   {"setup_s", "s"},        {"peak_rss_mb", "MB"},
  };
  return *units;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs{};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0xF2F52010: return "f2fs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fosc-labels|mpck-labels|served-mix "
               "--seed N --seconds S --trace 0|1 [--run-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

void SetEndToEnd(Metrics* out, const std::string& name, double value,
                 uint64_t samples) {
  (*out)[name] = Metric{value, EndToEndUnits().at(name), samples};
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  WorkloadOptions options;
  options.threads = static_cast<int>(std::thread::hardware_concurrency());
  if (options.threads < 1) options.threads = 1;
  options.run_dir = ".perfbench/run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--run-dir") {
      options.run_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0 ||
      (options.workload != "fosc-labels" &&
       options.workload != "mpck-labels" &&
       options.workload != "served-mix")) {
    return Usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(options.run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.run_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  const RunResult result = options.workload == "served-mix"
                               ? RunServedWorkload(options)
                               : RunBatchWorkload(options);

  std::string json = "{\"workload\":" + JsonString(options.workload);
  json += ",\"seed\":" + std::to_string(options.seed);
  json += ",\"trace\":" + std::to_string(options.trace ? 1 : 0);
  json += ",\"seconds\":" + JsonNumber(options.seconds);
  json += ",\"attempted\":" + std::to_string(result.attempted);
  json += ",\"failed\":" + std::to_string(result.failed);
  json += ",\"mismatched\":" + std::to_string(result.mismatched);
  json += ",\"reference_digest\":" + JsonString(result.reference_digest);
  json += ",\"reference_ops\":" + std::to_string(result.reference_ops);
  json += ",\"fingerprint\":{\"nproc\":" +
          std::to_string(std::thread::hardware_concurrency()) +
          ",\"thread_budget\":" + std::to_string(options.threads) +
          ",\"distance_kernel_arch\":" +
          JsonString(cvcp::DistanceKernelArch()) +
          ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
          ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
          ",\"run_dir_fs\":" + JsonString(FilesystemType(options.run_dir)) +
          "}";
  json += ",\"metrics\":{";
  const char* separator = "";
  for (const auto& [name, metric] : result.metrics) {
    json += separator;
    json += JsonString(name);
    json += ":{\"value\":" + JsonNumber(metric.value);
    json += ",\"unit\":" + JsonString(metric.unit);
    json += ",\"samples\":" + std::to_string(metric.samples) + "}";
    separator = ",";
  }
  json += "},\"notes\":[";
  separator = "";
  for (const std::string& note : result.notes) {
    json += separator;
    json += JsonString(note);
    separator = ",";
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return 0;
}
