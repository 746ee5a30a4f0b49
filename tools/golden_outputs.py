#!/usr/bin/env python3
"""The golden-output corpus: pins report bytes across commits.

The corpus under tests/golden/ holds
  bench/<bench>.txt     stdout from line 5 on (lines 1-4 are the banner) of
                        every paper and ablation bench at --trials 2 --aloi 2;
                        one file serves both the --threads 1 and the
                        --threads 4 case
  examples/<name>.txt   the full stdout of examples/<name>.cpp
  client/<spec>.bin     the `cvcp_client direct --out` bytes of one job spec

Usage:
  golden_outputs.py list
      one case id per line: bench.<bench>.t1, bench.<bench>.t4,
      example.<name>, client.<spec>. CMake registers one ctest per case.
  golden_outputs.py check CASE --build-dir DIR [--env NAME=VALUE ...]
      runs the case's binary from DIR and compares its output with the
      corpus. A text mismatch prints the first differing line, a binary
      one the first differing byte offset; either exits 1.
  golden_outputs.py regenerate --build-dir DIR
      rewrites the whole corpus from DIR's binaries. This is the only way
      to regenerate it, and only an intended numerics change may: name
      every changed file and its reason in CHANGES.md.

Every binary runs in a scratch directory with each CVCP_* variable
removed from its environment, so a developer's settings cannot leak in;
`--env` then sets variables on purpose (a test that the environment
cannot change a report).
"""

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

BENCH_ARGS = ["--trials", "2", "--aloi", "2"]
BENCH_THREADS = (1, 4)
BANNER_LINES = 4
# Benches outside the paper and ablation set: bench_micro measures wall
# time.
NOT_GOLDEN_BENCHES = {"bench_micro"}

CLIENT_SPECS = {
    "iris_constraints_fosc": [
        "--dataset", "iris", "--dataset-seed", "2", "--supervision-seed", "2",
        "--scenario", "constraints", "--grid", "3,4,5,6,8,10,12,16",
        "--folds", "5"],
    "wine_constraints_fosc": [
        "--dataset", "wine", "--dataset-seed", "2", "--scenario",
        "constraints", "--grid", "3,4,5,6,8,10,12,16", "--folds", "5"],
    "aloi_labels_fosc": [
        "--dataset", "aloi", "--dataset-seed", "3", "--scenario", "labels",
        "--grid", "3,6,9,12,15,18,21,24", "--folds", "5"],
    "aloi_labels_mpck": [
        "--dataset", "aloi", "--dataset-seed", "3", "--scenario", "labels",
        "--clusterer", "mpck", "--grid", "2,3,4,5,6,7", "--folds", "5"],
    "wine_constraints_mpck": [
        "--dataset", "wine", "--dataset-seed", "2", "--scenario",
        "constraints", "--clusterer", "mpck", "--grid", "2,3,4,5",
        "--folds", "5"],
}


def benches():
    names = sorted(p.stem for p in (ROOT / "bench").glob("bench_*.cpp"))
    return [n for n in names if n not in NOT_GOLDEN_BENCHES]


def examples():
    return sorted(p.stem for p in (ROOT / "examples").glob("*.cpp"))


def case_ids():
    ids = []
    for bench in benches():
        ids += [f"bench.{bench}.t{threads}" for threads in BENCH_THREADS]
    ids += [f"example.{name}" for name in examples()]
    ids += [f"client.{spec}" for spec in CLIENT_SPECS]
    return ids


def run(argv, cwd, extra_env):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CVCP_")}
    env.update(extra_env)
    proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(map(str, argv))} exited {proc.returncode}")
    return proc.stdout


def produce(case, build_dir, extra_env):
    """(golden path, produced bytes, is_text) for one case id."""
    kind, _, rest = case.partition(".")
    with tempfile.TemporaryDirectory() as scratch:
        if kind == "bench":
            bench, _, threads = rest.rpartition(".t")
            if bench not in benches() or int(threads) not in BENCH_THREADS:
                sys.exit(f"unknown case {case}")
            out = run([build_dir / bench, *BENCH_ARGS, "--threads", threads],
                      scratch, extra_env)
            body = b"".join(out.splitlines(keepends=True)[BANNER_LINES:])
            return GOLDEN / "bench" / f"{bench}.txt", body, True
        if kind == "example" and rest in examples():
            out = run([build_dir / f"example_{rest}"], scratch, extra_env)
            return GOLDEN / "examples" / f"{rest}.txt", out, True
        if kind == "client" and rest in CLIENT_SPECS:
            report = pathlib.Path(scratch) / "report.bin"
            run([build_dir / "cvcp_client", "direct", *CLIENT_SPECS[rest],
                 "--out", report], scratch, extra_env)
            return GOLDEN / "client" / f"{rest}.bin", report.read_bytes(), False
    sys.exit(f"unknown case {case}")


def first_difference(expected, actual, is_text):
    if is_text:
        want = expected.decode().splitlines()
        got = actual.decode().splitlines()
        for i in range(max(len(want), len(got))):
            w = want[i] if i < len(want) else "<end of output>"
            g = got[i] if i < len(got) else "<end of output>"
            if w != g:
                return f"first difference at line {i + 1}:\n  golden: {w}\n  actual: {g}"
        return "outputs differ only in line endings"
    for i in range(min(len(expected), len(actual))):
        if expected[i] != actual[i]:
            return (f"first difference at byte offset {i}: golden 0x{expected[i]:02x},"
                    f" actual 0x{actual[i]:02x}")
    return (f"first difference at byte offset {min(len(expected), len(actual))}:"
            f" golden has {len(expected)} bytes, actual {len(actual)}")


def check(args):
    extra_env = dict(pair.split("=", 1) for pair in args.env)
    path, actual, is_text = produce(args.case, args.build_dir, extra_env)
    if not path.exists():
        sys.exit(f"{path.relative_to(ROOT)} is missing")
    expected = path.read_bytes()
    if expected == actual:
        print(f"{args.case}: matches {path.relative_to(ROOT)}")
        return 0
    print(f"{args.case}: differs from {path.relative_to(ROOT)}")
    print(first_difference(expected, actual, is_text))
    return 1


def regenerate(args):
    written = {}
    for case in case_ids():
        path, output, is_text = produce(case, args.build_dir, {})
        if path in written and written[path] != output:
            print(first_difference(written[path], output, is_text))
            sys.exit(f"{case} differs from an earlier case of {path.name}; "
                     "thread count must not change a report")
        written[path] = output
    for path, output in written.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(output)
    print(f"wrote {len(written)} golden files under {GOLDEN.relative_to(ROOT)}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list")
    check_parser = sub.add_parser("check")
    check_parser.add_argument("case")
    check_parser.add_argument("--build-dir", type=pathlib.Path, required=True)
    check_parser.add_argument("--env", action="append", default=[])
    regen_parser = sub.add_parser("regenerate")
    regen_parser.add_argument("--build-dir", type=pathlib.Path, required=True)
    args = parser.parse_args()
    if args.command == "list":
        print("\n".join(case_ids()))
        return 0
    args.build_dir = args.build_dir.resolve()
    return check(args) if args.command == "check" else regenerate(args)


if __name__ == "__main__":
    sys.exit(main())
