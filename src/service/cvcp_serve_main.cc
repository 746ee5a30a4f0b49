// cvcp_serve: the model-selection job server. Listens on a local AF_UNIX
// socket for CVCP jobs (dataset ref + grid + supervision scenario),
// admits them against a bounded queue and an in-flight memory budget,
// runs them on a shared help-while-waiting thread budget, and publishes
// every completed report as an immutable versioned record. Shut it down
// with SIGINT/SIGTERM or `cvcp_client shutdown` — both drain the queue
// first.
//
//   cvcp_serve --socket PATH --results DIR [--store DIR]
//              [--queue N] [--batch N] [--threads N]
//              [--memory-mb N] [--cache-mb N] [--io-timeout-ms N]

#include <chrono>
#include <csignal>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "common/strings.h"
#include "service/server.h"

namespace {

using namespace cvcp;  // NOLINT

std::sig_atomic_t volatile g_signal = 0;

void HandleSignal(int sig) { g_signal = sig; }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH --results DIR [options]\n"
      "  --socket PATH   AF_UNIX socket to listen on (required)\n"
      "  --results DIR   versioned result records (required)\n"
      "  --store DIR     artifact store for cross-run warm starts\n"
      "  --queue N       admission: max queued jobs (default 64)\n"
      "  --batch N       concurrent jobs in flight (default 2)\n"
      "  --threads N     per-job fan-out width, 0 = all cores (default 0)\n"
      "  --memory-mb N   admission: in-flight memory cap (default 1024)\n"
      "  --cache-mb N    shared compute-cache capacity (default 256)\n"
      "  --io-timeout-ms N  per-connection socket read/write timeout; a\n"
      "                  silent client is evicted instead of pinning its\n"
      "                  connection thread (default 30000, 0 = never)\n",
      argv0);
  return 2;
}

// Numbers must be whole and fit their field's type (common/strings.h);
// the unsigned fields reject a sign on their own.
bool ParseNonNegative(const char* text, int* out) {
  int value = 0;
  if (!ParseInteger(text, &value) || value < 0) return false;
  *out = value;
  return true;
}

/// A MiB count, stored as bytes: false when the byte count overflows.
template <typename T>
bool ParseMiB(const char* text, T* bytes) {
  T mib = 0;
  if (!ParseInteger(text, &mib) || mib > std::numeric_limits<T>::max() >> 20) {
    return false;
  }
  *bytes = mib << 20;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  // The ServerConfig default (0 = no timeouts) suits in-process tests;
  // a production server should always evict dead clients.
  config.io_timeout_ms = 30000;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 == argc) return Usage(argv[0]);  // every flag takes a value
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    bool ok = true;
    if (arg == "--socket") {
      config.socket_path = value;
    } else if (arg == "--results") {
      config.results_dir = value;
    } else if (arg == "--store") {
      config.store_dir = value;
    } else if (arg == "--queue") {
      ok = ParseInteger(value, &config.queue_capacity);
    } else if (arg == "--batch") {
      ok = ParseNonNegative(value, &config.batch);
    } else if (arg == "--threads") {
      ok = ParseNonNegative(value, &config.threads);
    } else if (arg == "--memory-mb") {
      ok = ParseMiB(value, &config.memory_limit_bytes);
    } else if (arg == "--cache-mb") {
      ok = ParseMiB(value, &config.cache_capacity_bytes);
    } else if (arg == "--io-timeout-ms") {
      ok = ParseNonNegative(value, &config.io_timeout_ms);
    } else {
      ok = false;
    }
    if (!ok) return Usage(argv[0]);
  }
  if (config.socket_path.empty() || config.results_dir.empty()) {
    return Usage(argv[0]);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // A client vanishing mid-reply must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);

  Server server(config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cvcp_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "cvcp_serve: listening on %s\n",
               config.socket_path.c_str());

  // A signal handler may only set a flag (it cannot notify a condition
  // variable), so the main thread polls the two shutdown signals (OS
  // signal, client request) at a human-scale period.
  while (g_signal == 0 && !server.ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "cvcp_serve: draining and shutting down\n");
  server.Stop(/*drain=*/true);
  return 0;
}
