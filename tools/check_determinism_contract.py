#!/usr/bin/env python3
"""Determinism-contract linter for the CVCP tree.

The engine promises bit-identical results across thread counts, runs,
and (for the fixed-lane kernels) across SIMD architectures. That
contract is easy to break silently: a stray `std::fma` in a kernel, a
TU compiled without `-ffp-contract=off`, a float sum folded over an
unordered container, an unseeded RNG. This linter encodes the contract
as mechanical rules over the source tree so violations fail CI instead
of surfacing as cross-machine diffs months later.

Rules (ids are stable; see --list-rules):

  kernel-fp-contract    every distance-kernel TU must be compiled with
                        -ffp-contract=off (checked in CMakeLists.txt)
  build-fp-contract     the shared cvcp_build_flags target must carry
                        -ffp-contract=off, so no unit (MPCK's M-step and
                        objective included) can fuse a mul+add on a
                        target whose baseline ISA has FMA
  fast-math             no -ffast-math / -Ofast / -funsafe-math-
                        optimizations / -ffp-contract=fast anywhere in
                        the build configuration
  kernel-fma            kernel TUs must not call std::fma/fmaf or FMA
                        intrinsics (contraction must stay impossible
                        even if flags regress)
  std-reduce            no std::reduce / std::transform_reduce /
                        std::execution outside the kernel layer
                        (unordered reduction is order-nondeterministic)
  unordered-float-accum no `+=` accumulation inside a range-for over an
                        unordered container (iteration order is
                        unspecified; float addition is not associative)
  raw-random            no rand()/srand()/std::random_device/time(...)
                        seeding / default-constructed mt19937 outside
                        src/common/rng.* — all randomness must flow
                        through the seeded, forkable cvcp::Rng
  reduction-allowlist   every inline-lambda ParallelFor (or
                        ParallelForFirstError) body that
                        mutates shared state with a reduction marker
                        (+=, -=, *=, /=, fetch_add, fetch_sub,
                        push_back, emplace_back) must carry a
                        `// determinism: reduction(<tag>)` annotation
                        whose tag is registered (with an
                        order-independence argument) in
                        tools/determinism_allowlist.txt; stale
                        allowlist tags are also reported

Suppressions: a finding on line N is suppressed when line N or line
N-1 contains

    determinism: allow(<rule-id>) -- <justification>

The justification text is mandatory (the linter rejects a bare allow).

Exit status: 0 when no findings, 1 when findings, 2 on usage errors.
`--format json` emits {"findings": [...], "checked_files": N} for
machine consumption.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Tree layout knobs.

KERNEL_GLOB_RE = re.compile(r"distance_kernels[A-Za-z0-9_]*\.cc$")
KERNEL_DIR = os.path.join("src", "common")
RNG_EXEMPT_RE = re.compile(r"(^|/)rng\.(h|cc)$")
ALLOWLIST_REL = os.path.join("tools", "determinism_allowlist.txt")

SOURCE_DIRS = ("src", "bench", "tests", "tools")
SOURCE_EXTS = (".cc", ".h")

RULES = {
    "kernel-fp-contract": "kernel TU missing -ffp-contract=off in CMake",
    "build-fp-contract": "cvcp_build_flags missing -ffp-contract=off",
    "fast-math": "value-unsafe FP flag in build configuration",
    "kernel-fma": "fma call/intrinsic inside a fixed-lane kernel TU",
    "std-reduce": "std::reduce/transform_reduce/execution outside kernels",
    "unordered-float-accum": "+= accumulation over unordered iteration",
    "raw-random": "non-Rng randomness or time-based seeding",
    "reduction-allowlist": "ParallelFor reduction not in allowlist",
}

SUPPRESS_RE = re.compile(
    r"determinism:\s*allow\(([a-z-]+)\)\s*(?:--|—|:)?\s*(.*)")
REDUCTION_TAG_RE = re.compile(r"determinism:\s*reduction\(([A-Za-z0-9_.-]+)\)")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def as_dict(self):
        return {
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def read_lines(abspath):
    with open(abspath, "r", encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def iter_source_files(root):
    for top in SOURCE_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    abspath = os.path.join(dirpath, name)
                    yield os.path.relpath(abspath, root)


def is_kernel_tu(relpath):
    return (os.path.dirname(relpath) == KERNEL_DIR
            and KERNEL_GLOB_RE.search(os.path.basename(relpath)) is not None)


def strip_line_comment(line):
    """Drops //-comments so rules don't fire on prose. String literals in
    this tree never contain the flagged tokens, so no lexer is needed."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


# --------------------------------------------------------------------------
# Build-configuration rules (CMake).

CMAKE_FAST_MATH_RE = re.compile(
    r"-ffast-math|-Ofast|-funsafe-math-optimizations|-ffp-contract=fast")


def check_build_config(root, findings):
    """kernel-fp-contract + build-fp-contract + fast-math over
    CMakeLists.txt / *.cmake / CMakePresets.json."""
    cmake_files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if not d.startswith((".", "build"))]
        for name in filenames:
            if name == "CMakeLists.txt" or name.endswith(".cmake") \
                    or name == "CMakePresets.json":
                cmake_files.append(
                    os.path.relpath(os.path.join(dirpath, name), root))

    for rel in sorted(cmake_files):
        lines = read_lines(os.path.join(root, rel))
        for i, line in enumerate(lines, 1):
            body = line.split("#", 1)[0]
            if CMAKE_FAST_MATH_RE.search(body):
                findings.append(Finding(
                    "fast-math", rel, i,
                    "value-unsafe floating-point flag "
                    f"'{CMAKE_FAST_MATH_RE.search(body).group(0)}' breaks "
                    "the bit-identical-results contract"))

    # Every kernel TU on disk must appear in a set_source_files_properties
    # block (in the top-level CMakeLists.txt) whose COMPILE_OPTIONS
    # include -ffp-contract=off.
    kernel_tus = [rel for rel in iter_source_files(root) if is_kernel_tu(rel)]
    top_cml = os.path.join(root, "CMakeLists.txt")
    cml_text = ""
    if os.path.isfile(top_cml):
        cml_text = "\n".join(read_lines(top_cml))

    covered = set()
    for m in re.finditer(
            r"set_source_files_properties\s*\(([^)]*)\)", cml_text,
            re.DOTALL):
        block = m.group(1)
        if "-ffp-contract=off" not in block:
            continue
        for tu in kernel_tus:
            if tu.replace(os.sep, "/") in block.replace("\\", "/"):
                covered.add(tu)

    for tu in kernel_tus:
        if tu not in covered:
            findings.append(Finding(
                "kernel-fp-contract", "CMakeLists.txt", 1,
                f"kernel TU {tu} is not compiled with -ffp-contract=off "
                "(add it to the set_source_files_properties block)"))

    # Every target links cvcp_build_flags, so contraction off there covers
    # the whole build.
    build_wide = any(
        "-ffp-contract=off" in m.group(1)
        for m in re.finditer(
            r"target_compile_options\s*\(\s*cvcp_build_flags\s+INTERFACE"
            r"([^)]*)\)", cml_text))
    if not build_wide:
        findings.append(Finding(
            "build-fp-contract", "CMakeLists.txt", 1,
            "cvcp_build_flags does not add -ffp-contract=off "
            "(target_compile_options(cvcp_build_flags INTERFACE "
            "-ffp-contract=off)); units outside the kernel layer may fuse "
            "mul+add on FMA-baseline targets"))


# --------------------------------------------------------------------------
# Source rules.

FMA_RE = re.compile(
    r"std::fmaf?\b|(?<![\w.])fmaf?\s*\(|_mm\d*_(?:mask_)?f[n]?m(?:add|sub)|"
    r"\bvfma|\bvmla")
STD_REDUCE_RE = re.compile(
    r"std::reduce\b|std::transform_reduce\b|std::execution\b")
RAW_RANDOM_RES = [
    (re.compile(r"(?<![\w:.])rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"(?<![\w:.])srand\s*\("), "srand()"),
    (re.compile(r"std::random_device\b|(?<![\w:])random_device\b"),
     "std::random_device"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time(...) seeding"),
    (re.compile(r"mt19937(?:_64)?\s+\w+\s*;"),
     "default-seeded mt19937"),
    (re.compile(r"mt19937(?:_64)?\s*\{\s*\}"),
     "default-seeded mt19937"),
]
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*&?\s*"
    r"(\w+)\s*[;={(,)]")
RANGE_FOR_RE = re.compile(r"for\s*\([^;()]*?:\s*(\w+)\s*\)")
ACCUM_RE = re.compile(r"(?<![<>=!+\-*/])(?:\+=|-=|\*=|/=)")
# A reduction marker plus its assignment target: `x += ...`,
# `x.fetch_add(...)`, `x->push_back(...)`, `x[i] += ...`. The captured
# base identifier lets the scanner skip lambda-local variables (a local
# is per-iteration state, deterministic by construction).
REDUCTION_MARKER_RE = re.compile(
    r"\b(\w+)(?:\[[^\]]*\])?(?:\s*(?:\.|->)\s*\w+)*\s*"
    r"(?:\+=|-=|\*=|/=)(?!=)|"
    r"\b(\w+)(?:\[[^\]]*\])?\s*(?:\.|->)\s*"
    r"(?:fetch_add|fetch_sub|push_back|emplace_back)\s*\(")
# Local declarations inside a lambda body (common spellings only —
# enough to recognize per-iteration scratch state).
LOCAL_DECL_RE = re.compile(
    r"(?:^|[{;(])\s*(?:const\s+)?"
    r"(?:auto|bool|int|long|short|char|unsigned|float|double|size_t|"
    r"u?int\d+_t|std?::?\w+(?:<[^;{}()]*>)?)\s*[*&]?\s+"
    r"(\w+)\s*[=;{]", re.MULTILINE)


def line_of_offset(text, offset):
    return text.count("\n", 0, offset) + 1


def match_braces(text, open_idx):
    """Returns the index one past the brace that closes text[open_idx]
    ('{' or '('), or len(text) when unbalanced."""
    pairs = {"{": "}", "(": ")"}
    close = pairs[text[open_idx]]
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == text[open_idx]:
            depth += 1
        elif c == close:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def check_source_file(root, rel, allow_tags, used_tags, findings):
    lines = read_lines(os.path.join(root, rel))
    kernel = is_kernel_tu(rel)
    rng_exempt = RNG_EXEMPT_RE.search(rel.replace(os.sep, "/")) is not None
    in_tools = rel.split(os.sep, 1)[0] == "tools"

    stripped = [strip_line_comment(l) for l in lines]
    text = "\n".join(stripped)

    for i, body in enumerate(stripped, 1):
        if kernel and FMA_RE.search(body):
            findings.append(Finding(
                "kernel-fma", rel, i,
                "fused-multiply-add inside a kernel TU: contraction "
                "changes results across architectures"))
        if not kernel and STD_REDUCE_RE.search(body):
            findings.append(Finding(
                "std-reduce", rel, i,
                "unordered reduction primitive outside the kernel layer; "
                "use a slot-per-item ParallelFor plus an ordered fold"))
        if not rng_exempt and not in_tools:
            for pattern, what in RAW_RANDOM_RES:
                if pattern.search(body):
                    findings.append(Finding(
                        "raw-random", rel, i,
                        f"{what}: all randomness must flow through the "
                        "seeded cvcp::Rng (src/common/rng.h)"))

    # unordered-float-accum: a `+=` inside a range-for over a variable
    # declared as an unordered container in this file.
    unordered_names = set(UNORDERED_DECL_RE.findall(text))
    if unordered_names:
        for m in RANGE_FOR_RE.finditer(text):
            if m.group(1) not in unordered_names:
                continue
            brace = text.find("{", m.end())
            if brace < 0:
                continue
            body_text = text[brace:match_braces(text, brace)]
            acc = ACCUM_RE.search(body_text)
            if acc:
                findings.append(Finding(
                    "unordered-float-accum", rel,
                    line_of_offset(text, brace + acc.start()),
                    f"accumulation inside iteration over unordered "
                    f"container '{m.group(1)}': iteration order is "
                    "unspecified and float addition is not associative"))

    # reduction-allowlist: inline-lambda ParallelFor and
    # ParallelForFirstError bodies with reduction markers need a
    # registered tag. Named-callable sites are
    # out of scanning reach (documented limitation) — the callable's own
    # body is still covered by the rules above when it lives in a
    # scanned file.
    if rel != os.path.join("src", "common", "parallel.cc") and not in_tools:
        for m in re.finditer(r"\bParallelFor(?:FirstError)?\s*\(", text):
            call_end = match_braces(text, m.end() - 1)
            call_text = text[m.start():call_end]
            lam = re.search(r"\[[^\]]*\]\s*\([^)]*\)\s*(?:mutable\s*)?"
                            r"(?:->\s*[\w:<>]+\s*)?\{", call_text)
            if not lam:
                continue
            lam_open = m.start() + lam.end() - 1
            lam_body = text[lam_open:match_braces(text, lam_open)]
            locals_declared = set(LOCAL_DECL_RE.findall(lam_body))
            marker = None
            for cand in REDUCTION_MARKER_RE.finditer(lam_body):
                target = cand.group(1) or cand.group(2)
                if target not in locals_declared:
                    marker = cand
                    break
            if marker is None:
                continue
            # Look for the annotation in the original (comment-bearing)
            # lines around the call site.
            call_line = line_of_offset(text, m.start())
            window = "\n".join(
                lines[max(0, call_line - 4):line_of_offset(text, call_end)])
            tag_m = REDUCTION_TAG_RE.search(window)
            marker_line = line_of_offset(text, lam_open + marker.start())
            if not tag_m:
                findings.append(Finding(
                    "reduction-allowlist", rel, marker_line,
                    f"ParallelFor lambda mutates shared state "
                    f"('{marker.group(0).strip()}') without a "
                    "'determinism: reduction(<tag>)' annotation"))
            elif tag_m.group(1) not in allow_tags:
                findings.append(Finding(
                    "reduction-allowlist", rel, marker_line,
                    f"reduction tag '{tag_m.group(1)}' is not registered "
                    f"in {ALLOWLIST_REL}"))
            else:
                used_tags.add(tag_m.group(1))


def load_allowlist(root, findings):
    """tools/determinism_allowlist.txt: `<tag>: <order-independence
    argument>` per line; '#' comments."""
    tags = {}
    rel = ALLOWLIST_REL
    path = os.path.join(root, rel)
    if not os.path.isfile(path):
        return tags
    for i, line in enumerate(read_lines(path), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if ":" not in body:
            findings.append(Finding(
                "reduction-allowlist", rel, i,
                "malformed allowlist line (want '<tag>: <argument>')"))
            continue
        tag, arg = body.split(":", 1)
        tag, arg = tag.strip(), arg.strip()
        if not arg:
            findings.append(Finding(
                "reduction-allowlist", rel, i,
                f"tag '{tag}' has no order-independence argument"))
            continue
        tags[tag] = i
    return tags


def apply_suppressions(root, findings):
    """Filters findings whose line (or the one above) carries a valid
    allow() comment; flags bare allows with no justification."""
    kept = []
    cache = {}
    for f in findings:
        path = os.path.join(root, f.path)
        if f.path not in cache:
            cache[f.path] = read_lines(path) if os.path.isfile(path) else []
        lines = cache[f.path]
        suppressed = False
        for ln in (f.line, f.line - 1):
            if 1 <= ln <= len(lines):
                m = SUPPRESS_RE.search(lines[ln - 1])
                if m and m.group(1) == f.rule:
                    if not m.group(2).strip():
                        kept.append(Finding(
                            f.rule, f.path, ln,
                            "suppression without justification text "
                            "(write 'determinism: allow(rule) -- why')"))
                    suppressed = True
                    break
        if not suppressed:
            kept.append(f)
    return kept


def run(root):
    findings = []
    allow_tags = load_allowlist(root, findings)
    used_tags = set()

    check_build_config(root, findings)

    checked = 0
    for rel in iter_source_files(root):
        checked += 1
        check_source_file(root, rel, allow_tags, used_tags, findings)

    for tag, line in sorted(allow_tags.items()):
        if tag not in used_tags:
            findings.append(Finding(
                "reduction-allowlist", ALLOWLIST_REL, line,
                f"stale allowlist tag '{tag}': no annotated ParallelFor "
                "site references it"))

    findings = apply_suppressions(root, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    # Nested lambdas can report one marker from two enclosing scans;
    # collapse exact duplicates.
    unique, seen = [], set()
    for f in findings:
        key = (f.rule, f.path, f.line, f.message)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique, checked


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="CVCP determinism-contract linter")
    parser.add_argument("--root", default=".",
                        help="tree root (default: cwd)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule:24s} {desc}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"error: no such directory: {root}", file=sys.stderr)
        return 2

    findings, checked = run(root)

    if args.format == "json":
        print(json.dumps(
            {"findings": [f.as_dict() for f in findings],
             "checked_files": checked},
            indent=2))
    else:
        for f in findings:
            print(f.render())
        print(f"{len(findings)} finding(s) across {checked} checked "
              "file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
