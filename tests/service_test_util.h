#ifndef CVCP_TESTS_SERVICE_TEST_UTIL_H_
#define CVCP_TESTS_SERVICE_TEST_UTIL_H_

// Shared fixtures for the Service* suites: a scratch directory tree with
// a *short* socket path (AF_UNIX caps sun_path around 108 bytes, so the
// gtest scratch dir — which nests deeply under some runners — is unsafe;
// mkdtemp under /tmp is not), removed when the test ends, a small fast
// job spec, and a Gate that parks executor threads deterministically
// through the server's before_job_hook (no sleeps — the admission and
// fault tests control exactly when a job may proceed).

#include <stdlib.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/job.h"
#include "service/server.h"

namespace cvcp {

/// A fresh /tmp/cvcp_svc.XXXXXX tree (socket, results, store) that the
/// scratch owns: its destructor removes the tree. Move-only, so no copy
/// can remove it while a server still uses it; a test that restarts its
/// server keeps one scratch for the whole test. Declare it before the
/// server, so the server stops first.
struct ServiceScratch {
  ServiceScratch() {
    char tmpl[] = "/tmp/cvcp_svc.XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    CVCP_CHECK(dir != nullptr);
    base = dir;
    socket = base + "/sock";
    results = base + "/results";
    store = base + "/store";
  }
  ServiceScratch(ServiceScratch&& other) noexcept
      : base(std::exchange(other.base, std::string())),
        socket(std::move(other.socket)),
        results(std::move(other.results)),
        store(std::move(other.store)) {}
  ServiceScratch(const ServiceScratch&) = delete;
  ServiceScratch& operator=(const ServiceScratch&) = delete;
  ~ServiceScratch() {
    if (base.empty()) return;  // moved from
    std::error_code ignored;
    std::filesystem::remove_all(base, ignored);
  }

  std::string base;
  std::string socket;
  std::string results;
  std::string store;
};

inline ServiceScratch MakeServiceScratch() { return ServiceScratch(); }

/// A small job that exercises the full pipeline in milliseconds: Iris,
/// FOSC-OPTICSDend, Scenario II, a 3-value MinPts grid.
inline JobSpec SmallJobSpec() {
  JobSpec spec;
  spec.dataset = "iris";
  spec.clusterer = "fosc";
  spec.scenario = SupervisionKind::kConstraints;
  spec.param_grid = {3, 6, 9};
  spec.n_folds = 3;
  return spec;
}

inline ServerConfig ScratchServerConfig(const ServiceScratch& scratch) {
  ServerConfig config;
  config.socket_path = scratch.socket;
  config.results_dir = scratch.results;
  config.store_dir = scratch.store;
  return config;
}

/// Parks threads until released. Jobs whose hook calls Enter() block on
/// the gate; the test observes how many are parked, does its asserts,
/// and releases them — all condition-variable-driven. The one bound is
/// AwaitParked's, so a job that never parks fails the test instead of
/// hanging it.
class Gate {
 public:
  /// Called from the server's before_job_hook: registers as parked,
  /// blocks until Release().
  void Enter() {
    MutexLock lock(&mu_);
    ++parked_;
    cv_.NotifyAll();
    while (!released_) cv_.Wait(&mu_);
  }

  /// Blocks until at least `count` threads are parked in Enter(); false
  /// if they have not within a minute. The gate then opens, so a late
  /// arrival cannot park an executor that the server's teardown joins.
  [[nodiscard]] bool AwaitParked(int count) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(1);
    MutexLock lock(&mu_);
    while (parked_ < count) {
      if (!cv_.WaitUntil(&mu_, deadline) && parked_ < count) {
        released_ = true;
        cv_.NotifyAll();
        return false;
      }
    }
    return true;
  }

  void Release() {
    {
      MutexLock lock(&mu_);
      released_ = true;
    }
    cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int parked_ GUARDED_BY(mu_) = 0;
  bool released_ GUARDED_BY(mu_) = false;
};

}  // namespace cvcp

#endif  // CVCP_TESTS_SERVICE_TEST_UTIL_H_
