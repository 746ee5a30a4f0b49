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
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

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

bool ParseInt(const char* text, long* out) {
  char* end = nullptr;
  *out = std::strtol(text, &end, 10);
  return end != text && *end == '\0' && *out >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServerConfig config;
  // The ServerConfig default (0 = no timeouts) suits in-process tests;
  // a production server should always evict dead clients.
  config.io_timeout_ms = 30000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    long value = 0;
    if (arg == "--socket" && has_value) {
      config.socket_path = argv[++i];
    } else if (arg == "--results" && has_value) {
      config.results_dir = argv[++i];
    } else if (arg == "--store" && has_value) {
      config.store_dir = argv[++i];
    } else if (arg == "--queue" && has_value && ParseInt(argv[++i], &value)) {
      config.queue_capacity = static_cast<size_t>(value);
    } else if (arg == "--batch" && has_value && ParseInt(argv[++i], &value)) {
      config.batch = static_cast<int>(value);
    } else if (arg == "--threads" && has_value &&
               ParseInt(argv[++i], &value)) {
      config.threads = static_cast<int>(value);
    } else if (arg == "--memory-mb" && has_value &&
               ParseInt(argv[++i], &value)) {
      config.memory_limit_bytes = static_cast<uint64_t>(value) << 20;
    } else if (arg == "--cache-mb" && has_value &&
               ParseInt(argv[++i], &value)) {
      config.cache_capacity_bytes = static_cast<size_t>(value) << 20;
    } else if (arg == "--io-timeout-ms" && has_value &&
               ParseInt(argv[++i], &value)) {
      config.io_timeout_ms = static_cast<int>(value);
    } else {
      return Usage(argv[0]);
    }
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
