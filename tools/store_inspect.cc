// store_inspect: command-line inspector for an artifact store directory
// (the --store DIR the benches write). Subcommands:
//
//   store_inspect ls DIR      list every artifact: kind, bytes, validity,
//                             and the decoded key fields (dataset hash,
//                             metric record, MinPts)
//   store_inspect verify DIR  same listing, but exit nonzero if any file
//                             fails full frame validation (bad magic,
//                             CRC mismatch, version skew, truncation) or
//                             holds a kind or metric this build no longer
//                             reads (the reserved legacy kinds 3 and 4; a
//                             metric record other than 0, Euclidean)
//   store_inspect purge DIR   delete every artifact and stale temp file
//   store_inspect purge-tmp DIR
//                             delete only orphaned `*.tmp.*` files left
//                             by crashed writers, keeping every artifact
//
// `verify` is the offline counterpart of the store's read path: a file it
// flags would be classified as a miss (and recomputed) by the next bench
// run, never misread. `purge-tmp` is only safe when no process is
// actively writing to the store — an in-flight temp file looks exactly
// like an orphan.

#include <cstdio>
#include <string>

#include "core/artifact_store.h"

namespace {

using namespace cvcp;  // NOLINT

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s ls|verify|purge|purge-tmp DIR\n"
               "  ls        list every artifact with kind, bytes, validity\n"
               "  verify    like ls, but exit 1 if any artifact is invalid\n"
               "  purge     delete every artifact and stale temp file\n"
               "  purge-tmp delete only orphaned *.tmp.* files (no writer "
               "may be live)\n",
               argv0);
  return 2;
}

int RunList(ArtifactStore& store, bool fail_on_invalid) {
  auto listed = store.List();
  if (!listed.ok()) {
    std::fprintf(stderr, "%s\n", listed.status().ToString().c_str());
    return 1;
  }
  size_t invalid = 0;
  uint64_t total_bytes = 0;
  for (const ArtifactFileInfo& file : listed.value()) {
    total_bytes += file.bytes;
    if (!file.valid) ++invalid;
    std::printf("%-13s %10llu  %-3s %s",
                ArtifactKindName(static_cast<ArtifactKind>(file.kind)),
                static_cast<unsigned long long>(file.bytes),
                file.valid ? "ok" : "BAD", file.filename.c_str());
    if (!file.decoded_key.empty()) {
      std::printf("  [%s]", file.decoded_key.c_str());
    }
    if (!file.valid) std::printf(" -- %s", file.detail.c_str());
    std::printf("\n");
  }
  std::printf("%zu artifacts, %llu bytes, %zu invalid\n",
              listed.value().size(),
              static_cast<unsigned long long>(total_bytes), invalid);
  return fail_on_invalid && invalid > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return Usage(argv[0]);
  const std::string command = argv[1];
  ArtifactStore store(argv[2]);
  if (command == "ls") return RunList(store, /*fail_on_invalid=*/false);
  if (command == "verify") return RunList(store, /*fail_on_invalid=*/true);
  if (command == "purge") {
    auto purged = store.Purge();
    if (!purged.ok()) {
      std::fprintf(stderr, "%s\n", purged.status().ToString().c_str());
      return 1;
    }
    std::printf("purged %zu files from %s\n", purged.value(), argv[2]);
    return 0;
  }
  if (command == "purge-tmp") {
    auto swept = store.SweepOrphanTemps();
    if (!swept.ok()) {
      std::fprintf(stderr, "%s\n", swept.status().ToString().c_str());
      return 1;
    }
    std::printf("removed %llu orphaned temp files from %s\n",
                static_cast<unsigned long long>(swept.value()), argv[2]);
    return 0;
  }
  return Usage(argv[0]);
}
