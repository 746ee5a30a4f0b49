#!/usr/bin/env python3
"""Compares two sets of saved perfbench reports (.perfbench/reports/*.json).

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [...]

Every report on both sides must be of one workload and one trace mode. For
each end-to-end metric the script compares the medians of the two sides
against the metric's bound in BENCHMARK.json and fails (exit 1) when the
new median is worse by more than the bound; otherwise it passes (exit 0).
Per-layer metrics (traced reports) are listed without a verdict.

Reports measured on different hosts or builds are not comparable: when the
host fingerprints differ the script prints the difference and exits 2,
neither passing nor failing.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(paths):
    reports = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            reports.append(json.load(f))
    return reports


def spread(values):
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main(argv):
    if "--" not in argv or argv.index("--") in (0, len(argv) - 1):
        sys.exit(__doc__)
    split = argv.index("--")
    base, new = load(argv[:split]), load(argv[split + 1:])
    kinds = {(r["workload"], r["trace"]) for r in base + new}
    if len(kinds) != 1:
        sys.exit(f"reports mix workloads or trace modes: {sorted(kinds)}")
    (workload, trace), = kinds

    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True)
                    for r in base + new}
    if len(fingerprints) != 1:
        print("WARNING: host fingerprints differ; no verdict")
        for fingerprint in sorted(fingerprints):
            print(f"  {fingerprint}")
        return 2

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = definition["per_layer" if trace else "end_to_end"]
    print(f"{workload} trace={trace}: {len(base)} base vs {len(new)} new "
          f"reports")
    print(f"{'metric':<44} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread':>13}  verdict")
    failed = False
    for metric in metrics:
        name = metric["name"]
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        change = (mn - mb) / mb if mb else 0.0
        worse = change if metric["better"] == "lower" else -change
        verdict = ""
        if "bound" in metric:
            verdict = "FAIL" if worse > metric["bound"] else "ok"
            failed = failed or verdict == "FAIL"
        print(f"{name:<44} {mb:>12.5g} {mn:>12.5g} {change:>+8.1%} "
              f"{spread(b):>6.1%}/{spread(n):<6.1%}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
