#include "harness/options.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace cvcp::bench {

namespace {

/// Parses all of `text` as a base-10 long; false when it is empty, has
/// trailing characters or is out of range.
bool ParseLong(const char* text, long* out) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = parsed;
  return true;
}

/// Seeds are full 64-bit values: strtoull, not strtol, which would clamp
/// every seed >= 2^63 to INT64_MAX.
bool ParseSeed(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = parsed;
  return true;
}

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
    auto bad_value = [&](const char* value) {
      UsageExit(argv[0], std::string("bad value '") + value + "' for " + flag);
    };
    auto next_long = [&] {
      const char* value = next_value();
      long parsed = 0;
      if (!ParseLong(value, &parsed)) bad_value(value);
      return parsed;
    };
    if (std::strcmp(flag, "--paper") == 0) {
      o.trials = 50;
      o.aloi_datasets = 100;
      o.n_folds = 10;
    } else if (std::strcmp(flag, "--trials") == 0) {
      o.trials = static_cast<int>(next_long());
    } else if (std::strcmp(flag, "--aloi") == 0) {
      o.aloi_datasets = static_cast<std::size_t>(next_long());
    } else if (std::strcmp(flag, "--folds") == 0) {
      o.n_folds = static_cast<int>(next_long());
    } else if (std::strcmp(flag, "--seed") == 0) {
      const char* value = next_value();
      if (!ParseSeed(value, &o.seed)) bad_value(value);
    } else if (std::strcmp(flag, "--threads") == 0) {
      o.threads = static_cast<int>(next_long());
    } else if (std::strcmp(flag, "--store") == 0) {
      o.store_dir = next_value();
    } else if (std::strcmp(flag, "--store-capacity-mb") == 0) {
      o.store_capacity_mb = static_cast<int>(next_long());
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
