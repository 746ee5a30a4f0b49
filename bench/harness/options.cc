#include "harness/options.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cvcp::bench {

namespace {

long EnvLong(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

/// Seeds are full 64-bit values: strtoull, not strtol, which would clamp
/// every seed >= 2^63 to INT64_MAX.
uint64_t EnvSeed(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

[[noreturn]] void UsageExit(const char* argv0, const char* flag) {
  std::fprintf(stderr,
               "%s: unknown flag '%s'\n"
               "usage: %s [--paper] [--trials N] [--aloi N] [--folds N] "
               "[--seed N]\n"
               "       [--threads N] [--store DIR] [--store-capacity-mb N]\n",
               argv0, flag, argv0);
  std::exit(2);
}

}  // namespace

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions o;
  o.trials = static_cast<int>(EnvLong("CVCP_TRIALS", o.trials));
  o.aloi_datasets = static_cast<std::size_t>(
      EnvLong("CVCP_ALOI_DATASETS", static_cast<long>(o.aloi_datasets)));
  o.n_folds = static_cast<int>(EnvLong("CVCP_FOLDS", o.n_folds));
  o.seed = EnvSeed("CVCP_SEED", o.seed);
  o.threads = static_cast<int>(EnvLong("CVCP_THREADS", o.threads));
  if (const char* v = std::getenv("CVCP_STORE"); v != nullptr && *v != '\0') {
    o.store_dir = v;
  }
  o.store_capacity_mb = static_cast<int>(
      EnvLong("CVCP_STORE_CAPACITY_MB", o.store_capacity_mb));
  for (int i = 1; i < argc; ++i) {
    auto next_long = [&](long fallback) {
      return i + 1 < argc ? std::strtol(argv[++i], nullptr, 10) : fallback;
    };
    if (std::strcmp(argv[i], "--paper") == 0) {
      o.trials = 50;
      o.aloi_datasets = 100;
      o.n_folds = 10;
    } else if (std::strcmp(argv[i], "--trials") == 0) {
      o.trials = static_cast<int>(next_long(o.trials));
    } else if (std::strcmp(argv[i], "--aloi") == 0) {
      o.aloi_datasets = static_cast<std::size_t>(next_long(
          static_cast<long>(o.aloi_datasets)));
    } else if (std::strcmp(argv[i], "--folds") == 0) {
      o.n_folds = static_cast<int>(next_long(o.n_folds));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (i + 1 < argc) o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      o.threads = static_cast<int>(next_long(o.threads));
    } else if (std::strcmp(argv[i], "--store") == 0) {
      if (i + 1 < argc) o.store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--store-capacity-mb") == 0) {
      o.store_capacity_mb = static_cast<int>(next_long(o.store_capacity_mb));
    } else {
      UsageExit(argv[0], argv[i]);
    }
  }
  if (o.trials < 2) o.trials = 2;  // paired t-test needs >= 2
  if (o.n_folds < 2) o.n_folds = 2;
  if (o.aloi_datasets < 1) o.aloi_datasets = 1;
  if (o.threads < 0) o.threads = 0;  // 0 = all hardware threads
  if (o.store_capacity_mb < 1) o.store_capacity_mb = 1;
  return o;
}

void PrintBanner(const BenchOptions& options, const std::string& title,
                 const std::string& paper_ref) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("reproduces: %s (Pourrajabi et al., EDBT 2014)\n",
              paper_ref.c_str());
  char threads[64];
  if (options.threads > 0) {
    std::snprintf(threads, sizeof(threads), "%d threads", options.threads);
  } else {
    std::snprintf(threads, sizeof(threads), "all hardware threads");
  }
  std::printf(
      "scale: %d trials, %zu ALOI sets, %d-fold CV, seed %llu, %s "
      "(--paper for full scale)\n\n",
      options.trials, options.aloi_datasets, options.n_folds,
      static_cast<unsigned long long>(options.seed), threads);
}

}  // namespace cvcp::bench
