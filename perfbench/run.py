#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs a workload,
checks its outputs and prints the result.

    python3 perfbench/run.py --workload fosc-labels|mpck-labels|served-mix|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. The first run configures and builds the
library and the perfbench binary in .bench_build (Release); later runs
rebuild only what changed. Each run's full report (every metric with its sample count,
the host fingerprint, notes) is saved under .perfbench/reports/, where
perfbench/compare.py can read it.

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the workload again traced and reports the per-layer metrics instead. The
last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is non-zero when the build fails, a metric is missing, an op
fails, or any output differs from its reference: a traced run from the
untraced one, a served report from the in-process replay, or the first ops
of a seed from the digest perfbench/manifest.json records for it.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUTPUT = ROOT / ".perfbench"
WORKLOADS = ("fosc-labels", "mpck-labels", "served-mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT}; run from a full checkout")
    cpus = str(os.cpu_count() or 1)
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "perfbench", "-j", cpus],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")
    return BUILD / "perfbench"


def run_workload(binary, workload, seed, seconds, trace, run_dir):
    """Runs one workload in its own process; returns its report dict."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--run-dir", str(run_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no report")
    return report


def check(report, definition, manifest):
    """Adds run-level checks to the report; returns the list of problems.

    A problem in the metric set is a benchmark bug; an output problem counts
    the affected ops as failed."""
    problems = []
    expected = definition["per_layer" if report["trace"] else "end_to_end"]
    metrics = report["metrics"]
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None or got["value"] is None:
            problems.append(f"metric {metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            problems.append(f"metric {metric['name']} in {got['unit']}, "
                            f"defined in {metric['unit']}")
    digests = manifest["reference_digests"].get(report["workload"], {})
    want = digests.get(str(report["seed"]))
    if want is not None and report["reference_digest"] != want:
        report["failed"] += report["reference_ops"]
        report["mismatched"] += report["reference_ops"]
        problems.append(f"reference digest {report['reference_digest']} != "
                        f"recorded {want} for seed {report['seed']}")
    if report["mismatched"] > 0:
        problems.append(f"{report['mismatched']} ops produced different "
                        f"output")
    return problems


def summarize(report, problems):
    fp = report["fingerprint"]
    print(f"== {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} seconds={report['seconds']:g}")
    print("   host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    print(f"   ops attempted={report['attempted']} failed={report['failed']} "
          f"error_rate="
          f"{report['failed'] / max(report['attempted'], 1):.6f}")
    for name, metric in sorted(report["metrics"].items()):
        samples = metric["samples"]
        count = f"  (n={samples})" if samples else ""
        print(f"   {name:<44} {metric['value']:>14.6g} {metric['unit']}"
              f"{count}")
    for note in report["notes"]:
        print(f"   note: {note}")
    for problem in problems:
        print(f"   PROBLEM: {problem}")


def save(report, run_dir):
    """Keeps the report and, for a traced run, its span file."""
    reports = OUTPUT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = (f"{report['workload']}-seed{report['seed']}-"
            f"trace{report['trace']}-{stamp}-{os.getpid()}")
    path = reports / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(f"   report: {path.relative_to(ROOT)}")
    spans = run_dir / "trace.json"
    if spans.is_file():
        kept = reports / f"{stem}.trace.json"
        spans.replace(kept)
        print(f"   spans:  {kept.relative_to(ROOT)}")


def main():
    definition = load_json(ROOT / "BENCHMARK.json")
    manifest = load_json(HERE / "manifest.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=manifest["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        run_dir = OUTPUT / f"run-{workload}-{os.getpid()}"
        try:
            report = run_workload(binary, workload, args.seed, args.seconds,
                                  args.trace, run_dir)
            problems = check(report, definition, manifest)
            summarize(report, problems)
            save(report, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        result["correct"] = result["correct"] and not problems and \
            report["failed"] == 0
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, metric in report["metrics"].items():
            result["metrics"][prefix + name] = {"value": metric["value"],
                                                "unit": metric["unit"]}
    print(json.dumps(result, sort_keys=True))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
