#!/usr/bin/env python3
"""Self-tests for tools/check_determinism_contract.py.

Each test materializes a minimal fixture tree in a temp directory and
asserts that exactly the expected rule fires (or that a clean tree and
the real repository produce zero findings). Runs under plain unittest —
no third-party dependencies.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINTER = os.path.join(REPO_ROOT, "tools", "check_determinism_contract.py")

# A CMakeLists.txt that satisfies kernel-fp-contract for the one kernel
# TU the fixtures ship, and build-fp-contract for the shared flags.
GOOD_CMAKE = """
add_library(cvcp_build_flags INTERFACE)
target_compile_options(cvcp_build_flags INTERFACE -ffp-contract=off)
add_library(kernels src/common/distance_kernels.cc)
set_source_files_properties(src/common/distance_kernels.cc PROPERTIES
  COMPILE_OPTIONS "-ffp-contract=off")
"""

CLEAN_KERNEL = """
namespace cvcp {
double SquaredL2(const double* a, const double* b, int d) {
  double acc = 0.0;
  for (int i = 0; i < d; ++i) { double t = a[i] - b[i]; acc = acc + t * t; }
  return acc;
}
}  // namespace cvcp
"""


def write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def run_linter(root):
    proc = subprocess.run(
        [sys.executable, LINTER, "--root", root, "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    return proc.returncode, json.loads(proc.stdout)


class FixtureCase(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="detlint-")
        self.addCleanup(shutil.rmtree, self.root)
        write(self.root, "CMakeLists.txt", GOOD_CMAKE)
        write(self.root, os.path.join("src", "common",
                                      "distance_kernels.cc"), CLEAN_KERNEL)

    def rules_fired(self):
        code, report = run_linter(self.root)
        rules = sorted({f["rule"] for f in report["findings"]})
        return code, rules, report

    def test_clean_fixture_has_zero_findings(self):
        code, rules, report = self.rules_fired()
        self.assertEqual(code, 0, report)
        self.assertEqual(rules, [])
        self.assertGreater(report["checked_files"], 0)

    def test_fma_call_in_kernel_fires(self):
        write(self.root, os.path.join("src", "common",
                                      "distance_kernels.cc"),
              "double f(double a, double b, double c) {\n"
              "  return std::fma(a, b, c);\n}\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("kernel-fma", rules)

    def test_fma_intrinsic_in_kernel_fires(self):
        write(self.root, os.path.join("src", "common",
                                      "distance_kernels_avx2.cc"),
              "void f() { acc = _mm256_fmadd_pd(a, b, acc); }\n")
        write(self.root, "CMakeLists.txt", GOOD_CMAKE +
              'set_source_files_properties('
              'src/common/distance_kernels_avx2.cc PROPERTIES '
              'COMPILE_OPTIONS "-mavx2;-ffp-contract=off")\n')
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("kernel-fma", rules)

    def test_kernel_tu_without_fp_contract_off_fires(self):
        write(self.root, "CMakeLists.txt",
              "add_library(kernels src/common/distance_kernels.cc)\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("kernel-fp-contract", rules)

    def test_build_flags_without_fp_contract_off_fires(self):
        write(self.root, "CMakeLists.txt",
              GOOD_CMAKE.replace(
                  "target_compile_options(cvcp_build_flags INTERFACE "
                  "-ffp-contract=off)",
                  "target_compile_options(cvcp_build_flags INTERFACE -Wall)"))
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertEqual(rules, ["build-fp-contract"])

    def test_fast_math_flag_fires(self):
        write(self.root, "CMakeLists.txt",
              GOOD_CMAKE + "add_compile_options(-ffast-math)\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("fast-math", rules)

    def test_std_reduce_outside_kernels_fires(self):
        write(self.root, os.path.join("src", "core", "agg.cc"),
              "#include <numeric>\n"
              "double Sum(const std::vector<double>& v) {\n"
              "  return std::reduce(v.begin(), v.end());\n}\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("std-reduce", rules)

    def test_unordered_accumulation_fires(self):
        write(self.root, os.path.join("src", "core", "score.cc"),
              "double Total(const std::unordered_map<int, double>& w) {\n"
              "  double total = 0.0;\n"
              "  for (const auto& kv : w) {\n"
              "    total += kv.second;\n"
              "  }\n"
              "  return total;\n}\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("unordered-float-accum", rules)

    def test_unseeded_rng_fires(self):
        write(self.root, os.path.join("src", "core", "sample.cc"),
              "#include <random>\n"
              "int Roll() {\n"
              "  std::mt19937 gen;\n"
              "  return static_cast<int>(gen());\n}\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("raw-random", rules)

    def test_random_device_and_time_seed_fire(self):
        write(self.root, os.path.join("src", "core", "seed.cc"),
              "#include <random>\n#include <ctime>\n"
              "unsigned Seed() {\n"
              "  std::random_device rd;\n"
              "  return rd() ^ static_cast<unsigned>(time(nullptr));\n}\n")
        code, rules, report = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("raw-random", rules)
        self.assertGreaterEqual(
            len([f for f in report["findings"]
                 if f["rule"] == "raw-random"]), 2)

    def test_rng_cc_is_exempt_from_raw_random(self):
        write(self.root, os.path.join("src", "common", "rng.cc"),
              "unsigned Entropy() { std::random_device rd; return rd(); }\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 0, rules)

    def test_unannotated_parallel_reduction_fires(self):
        write(self.root, os.path.join("src", "core", "reduce.cc"),
              "void Sum(const ExecutionContext& exec) {\n"
              "  double total = 0.0;\n"
              "  ParallelFor(exec, 100, [&](size_t i) {\n"
              "    total += static_cast<double>(i);\n"
              "  });\n}\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("reduction-allowlist", rules)

    def test_unannotated_first_error_reduction_fires(self):
        write(self.root, os.path.join("src", "core", "reduce.cc"),
              "Status Sum(const ExecutionContext& exec) {\n"
              "  double total = 0.0;\n"
              "  return ParallelForFirstError(exec, 100,"
              " [&](size_t i) -> Status {\n"
              "    total += static_cast<double>(i);\n"
              "    return Status::OK();\n"
              "  });\n}\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("reduction-allowlist", rules)

    def test_lambda_local_accumulator_does_not_fire(self):
        write(self.root, os.path.join("src", "core", "slots.cc"),
              "void Fill(const ExecutionContext& exec,"
              " std::vector<double>& out) {\n"
              "  ParallelFor(exec, out.size(), [&](size_t i) {\n"
              "    double acc = 0.0;\n"
              "    for (size_t j = 0; j + 4 <= 16; j += 4) acc += 1.0;\n"
              "    out[i] = acc;\n"
              "  });\n}\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 0, rules)

    def test_annotated_reduction_with_registered_tag_passes(self):
        write(self.root, os.path.join("src", "core", "reduce.cc"),
              "void Count(const ExecutionContext& exec) {\n"
              "  std::atomic<int> hits{0};\n"
              "  // determinism: reduction(fixture-hit-count)\n"
              "  ParallelFor(exec, 100, [&](size_t i) {\n"
              "    hits.fetch_add(1, std::memory_order_relaxed);\n"
              "  });\n}\n")
        write(self.root, os.path.join("tools",
                                      "determinism_allowlist.txt"),
              "fixture-hit-count: integer increments commute.\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 0, rules)

    def test_annotated_reduction_with_unregistered_tag_fires(self):
        write(self.root, os.path.join("src", "core", "reduce.cc"),
              "void Count(const ExecutionContext& exec) {\n"
              "  std::atomic<int> hits{0};\n"
              "  // determinism: reduction(no-such-tag)\n"
              "  ParallelFor(exec, 100, [&](size_t i) {\n"
              "    hits.fetch_add(1);\n"
              "  });\n}\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("reduction-allowlist", rules)

    def test_stale_allowlist_tag_fires(self):
        write(self.root, os.path.join("tools",
                                      "determinism_allowlist.txt"),
              "ghost-tag: nothing references this.\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("reduction-allowlist", rules)

    def test_suppression_with_justification_silences_finding(self):
        write(self.root, os.path.join("src", "core", "agg.cc"),
              "double Sum(const std::vector<double>& v) {\n"
              "  // determinism: allow(std-reduce) -- serial container,"
              " single thread, exact order.\n"
              "  return std::reduce(v.begin(), v.end());\n}\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 0, rules)

    def test_bare_suppression_is_rejected(self):
        write(self.root, os.path.join("src", "core", "agg.cc"),
              "double Sum(const std::vector<double>& v) {\n"
              "  // determinism: allow(std-reduce)\n"
              "  return std::reduce(v.begin(), v.end());\n}\n")
        code, rules, _ = self.rules_fired()
        self.assertEqual(code, 1)
        self.assertIn("std-reduce", rules)


class RealTreeCase(unittest.TestCase):
    def test_repository_is_clean(self):
        code, report = run_linter(REPO_ROOT)
        self.assertEqual(
            code, 0,
            "determinism contract violated:\n" + "\n".join(
                f'{f["file"]}:{f["line"]}: [{f["rule"]}] {f["message"]}'
                for f in report["findings"]))


if __name__ == "__main__":
    unittest.main()
