#include "harness/options.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/strings.h"

namespace cvcp::bench {

namespace {

[[noreturn]] void UsageExit(const char* argv0, const std::string& problem) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s [--paper] [--trials N] [--aloi N] [--folds N] "
               "[--seed N]\n"
               "       [--threads N] [--store DIR] [--store-capacity-mb N]\n",
               argv0, problem.c_str(), argv0);
  std::exit(2);
}

}  // namespace

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions o;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    // The value after a value flag; a missing one is a usage error.
    auto next_value = [&] {
      if (i + 1 >= argc) {
        UsageExit(argv[0], std::string("missing value for ") + flag);
      }
      return argv[++i];
    };
    // A numeric value must fit the field's own type: a malformed,
    // out-of-range or (for an unsigned field) negative one is a usage
    // error, never a wrapped or narrowed value.
    auto parse_value = [&](auto* field) {
      const char* value = next_value();
      if (!ParseInteger(value, field)) {
        UsageExit(argv[0],
                  std::string("bad value '") + value + "' for " + flag);
      }
    };
    if (std::strcmp(flag, "--paper") == 0) {
      o.trials = 50;
      o.aloi_datasets = 100;
      o.n_folds = 10;
    } else if (std::strcmp(flag, "--trials") == 0) {
      parse_value(&o.trials);
    } else if (std::strcmp(flag, "--aloi") == 0) {
      parse_value(&o.aloi_datasets);
    } else if (std::strcmp(flag, "--folds") == 0) {
      parse_value(&o.n_folds);
    } else if (std::strcmp(flag, "--seed") == 0) {
      parse_value(&o.seed);
    } else if (std::strcmp(flag, "--threads") == 0) {
      parse_value(&o.threads);
    } else if (std::strcmp(flag, "--store") == 0) {
      o.store_dir = next_value();
    } else if (std::strcmp(flag, "--store-capacity-mb") == 0) {
      parse_value(&o.store_capacity_mb);
    } else {
      UsageExit(argv[0], std::string("unknown flag '") + flag + "'");
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
