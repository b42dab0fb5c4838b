#!/usr/bin/env python3
"""Determinism and hygiene linter for the ANU tree (docs/static-analysis.md).

The repo's headline guarantee is that every experiment artifact is a pure
function of (config, seed): batch and matrix JSON are byte-identical at any
--jobs level. That only holds if result-affecting code never consults an
ambient source of nondeterminism. This linter statically bans the known
offenders in the result-affecting directories (src/sim, src/core,
src/proto, src/balance, src/driver):

  wall-clock       std::chrono::{system,steady,high_resolution}_clock,
                   time(), clock(), gettimeofday, clock_gettime,
                   localtime/gmtime — simulated time comes from the event
                   kernel, wall time is for bench/ and tools/ only.
  raw-rng          std::rand / srand / random_device — all randomness must
                   flow through common/rng (seeded, substream-splittable).
  unordered-iter   iteration over std::unordered_map/unordered_set —
                   traversal order is libstdc++-version- and salt-dependent,
                   so anything aggregated from it is not reproducible.
  ptr-key-container std::map/std::set keyed by pointer — ordered by
                   allocator-assigned addresses, i.e. by ASLR.
  pool-order       direct common/thread_pool use — result-affecting code
                   must go through driver::run_indexed/parallel_map, whose
                   pre-sized-slot contract makes results independent of
                   completion order.

Plus two cross-checks that keep the test and bench plumbing honest:

  test-registration every tests/*_test.cpp is registered in
                   tests/CMakeLists.txt (an unregistered test silently
                   never runs in CI).
  baseline-missing / baseline-orphan — the BENCH_*.json files the CI
                   bench-smoke job diffs against all exist in
                   bench/baselines, and nothing stale lingers there.

Suppressing a finding requires a justification on the same or previous
line:   // anu-lint: allow(<rule>) <why this one is safe>
A bare allow() without a reason is itself an error.

Usage: tools/anu_lint.py [--root DIR] [--list-rules]
Exit status: 0 clean, 1 findings, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

RESULT_DIRS = (
    "src/sim",
    "src/core",
    "src/proto",
    "src/balance",
    "src/driver",
)

# src/runtime hosts the realtime clock and UDP transport: wall-clock reads
# are its whole job, so the wall-clock rule is waived there. Every other
# rule still applies — the runtime must stay as reproducible as real time
# allows (seeded RNG, ordered iteration, no ad-hoc pools).
RUNTIME_DIRS = ("src/runtime",)

# Files allowed to touch the thread pool directly: the sanctioned wrappers
# whose contract (pre-sized result slots, sequential aggregation) is what
# makes pool use deterministic for everyone else.
POOL_ALLOWLIST = {"src/driver/sweep.cpp", "src/driver/sweep.h"}

SOURCE_RULES: list[tuple[str, re.Pattern[str], str]] = [
    (
        "wall-clock",
        re.compile(
            # clock() and time() are matched as calls with zero / one-ish
            # args so declarations of variables *named* clock (e.g.
            # `sim::SimClock clock(sim);`) do not false-positive.
            r"std::chrono::(?:system|steady|high_resolution)_clock"
            r"|\btime\s*\(|\bclock\s*\(\s*\)|\bgettimeofday\b"
            r"|\bclock_gettime\b|\blocaltime\b|\bgmtime\b"
        ),
        "wall-clock source in result-affecting code (use simulated time)",
    ),
    (
        "raw-rng",
        re.compile(r"std::rand\b|\bsrand\s*\(|\brand\s*\(|\brandom_device\b"),
        "raw RNG in result-affecting code (use common/rng substreams)",
    ),
    (
        "ptr-key-container",
        re.compile(r"std::(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*"),
        "pointer-keyed ordered container (iteration order = ASLR)",
    ),
]

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)\s*[;{=(]"
)
# Range-for only: the colon must not be part of `::`, and a classic
# three-clause for (which contains `;`) is rejected after the match.
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?(?<!:):(?!:)\s*([^)]+)\)")
ALLOW_RE = re.compile(r"anu-lint:\s*allow\(([\w-]+)\)\s*(.*)")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self, root: Path) -> str:
        try:
            rel = self.path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> list[str]:
    """Blanks comments and string/char literals, preserving line structure.

    Keeps column positions stable so findings point at real code. Handles
    //, /* */, "...", '...' with escapes; raw strings are treated as plain
    strings (good enough: their contents are blanked either way until a
    quote, and none of the linted code uses embedded quotes in raw strings).
    """
    out: list[str] = []
    state = "code"  # code | line_comment | block_comment | dquote | squote
    line_chars: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        nxt = text[i + 1] if i + 1 < len(text) else ""
        if ch == "\n":
            out.append("".join(line_chars))
            line_chars = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                line_chars.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                line_chars.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "dquote"
                line_chars.append(" ")
                i += 1
                continue
            if ch == "'":
                state = "squote"
                line_chars.append(" ")
                i += 1
                continue
            line_chars.append(ch)
        elif state in ("dquote", "squote"):
            if ch == "\\":
                line_chars.append("  ")
                i += 2
                continue
            if (state == "dquote" and ch == '"') or (
                state == "squote" and ch == "'"
            ):
                state = "code"
            line_chars.append(" ")
        else:  # comments
            if state == "block_comment" and ch == "*" and nxt == "/":
                state = "code"
                line_chars.append("  ")
                i += 2
                continue
            line_chars.append(" ")
        i += 1
    if line_chars:
        out.append("".join(line_chars))
    return out


def suppressions(raw_lines: list[str], findings: list[Finding]) -> list[Finding]:
    """Applies `// anu-lint: allow(rule) reason` to same/next-line findings."""
    allowed: dict[int, set[str]] = {}
    kept: list[Finding] = []
    for lineno, line in enumerate(raw_lines, 1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if not reason:
            kept.append(
                Finding(
                    Path("."),
                    lineno,
                    "bare-allow",
                    f"allow({rule}) without a justification",
                )
            )
            continue
        allowed.setdefault(lineno, set()).add(rule)
        allowed.setdefault(lineno + 1, set()).add(rule)
    for f in findings:
        if f.rule in allowed.get(f.line, set()):
            continue
        kept.append(f)
    return kept


def lint_source_file(path: Path, skip_rules: frozenset[str] = frozenset()
                     ) -> list[Finding]:
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    code_lines = strip_code(raw)

    findings: list[Finding] = []
    for lineno, line in enumerate(code_lines, 1):
        for rule, pattern, message in SOURCE_RULES:
            if rule in skip_rules:
                continue
            if pattern.search(line):
                findings.append(Finding(path, lineno, rule, message))

    # unordered-iter: range-for over a variable this file declares as an
    # unordered container, or directly over an unordered_* expression.
    code = "\n".join(code_lines)
    unordered_vars = set(UNORDERED_DECL_RE.findall(code))
    for lineno, line in enumerate(code_lines, 1):
        for m in RANGE_FOR_RE.finditer(line):
            expr = m.group(1).strip()
            if ";" in expr:
                continue
            name = re.split(r"[.\->\[(]", expr, 1)[0].strip().lstrip("*&")
            if "unordered_" in expr or name in unordered_vars:
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "unordered-iter",
                        "iteration over unordered container feeds results "
                        "(order is implementation-defined)",
                    )
                )

    parts = path.parts
    rel = None
    if "src" in parts:  # path under the linted tree's src/ (last occurrence)
        idx = len(parts) - 1 - parts[::-1].index("src")
        rel = "/".join(parts[idx:])
    if rel not in POOL_ALLOWLIST:
        # Only the type and its header: method-name matching (e.g. .submit)
        # would misfire on cluster::Cluster::submit, the simulated dispatch
        # path. You cannot reach a pool without naming ThreadPool somewhere
        # in the translation unit.
        for lineno, line in enumerate(code_lines, 1):
            if re.search(r'#\s*include\s*"common/thread_pool\.h"', line) or \
               re.search(r"\bThreadPool\b", line):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "pool-order",
                        "direct thread-pool use in result-affecting code "
                        "(go through driver::run_indexed/parallel_map)",
                    )
                )

    out = suppressions(raw_lines, findings)
    for f in out:
        if f.rule == "bare-allow":
            f.path = path
    return out


def check_test_registration(root: Path) -> list[Finding]:
    cmake = root / "tests" / "CMakeLists.txt"
    if not cmake.exists():
        return []
    registered = set()
    text = cmake.read_text(encoding="utf-8")
    for m in re.finditer(r"(?:anu_test|add_executable)\s*\(\s*(\w+)", text):
        registered.add(m.group(1))
    findings = []
    for test in sorted((root / "tests").glob("*_test.cpp")):
        if test.stem not in registered:
            findings.append(
                Finding(
                    test,
                    1,
                    "test-registration",
                    f"{test.name} is not registered in tests/CMakeLists.txt "
                    "(it will never run in CI)",
                )
            )
    return findings


def check_baselines(root: Path) -> list[Finding]:
    ci = root / ".github" / "workflows" / "ci.yml"
    baselines_dir = root / "bench" / "baselines"
    if not ci.exists() or not baselines_dir.exists():
        return []
    text = ci.read_text(encoding="utf-8")
    referenced: set[str] = set(re.findall(r"BENCH_\w+\.json", text))
    # Expand shell loops of the form `for b in a b c; do ... BENCH_$b.json`.
    if "BENCH_$b.json" in text:
        referenced.discard("BENCH_$b.json")  # not a literal file
        for m in re.finditer(r"for b in ([^;\n]+);", text):
            for name in m.group(1).split():
                referenced.add(f"BENCH_{name}.json")
    existing = {p.name for p in baselines_dir.glob("BENCH_*.json")}
    findings = []
    for name in sorted(referenced - existing):
        findings.append(
            Finding(
                ci,
                1,
                "baseline-missing",
                f"CI references bench/baselines/{name} which does not exist",
            )
        )
    for name in sorted(existing - referenced):
        findings.append(
            Finding(
                baselines_dir / name,
                1,
                "baseline-orphan",
                f"{name} is not referenced by .github/workflows/ci.yml "
                "(stale baseline?)",
            )
        )
    return findings


def run(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    tiers = [(RESULT_DIRS, frozenset()), (RUNTIME_DIRS, frozenset({"wall-clock"}))]
    for dirs, skip_rules in tiers:
        for rel in dirs:
            base = root / rel
            if not base.exists():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix in (".cpp", ".h", ".cc", ".hpp"):
                    findings.extend(lint_source_file(path, skip_rules))
    findings.extend(check_test_registration(root))
    findings.extend(check_baselines(root))
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="tree to lint (default: this repo)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    args = parser.parse_args()

    if args.list_rules:
        for rule, _, message in SOURCE_RULES:
            print(f"{rule}: {message}")
        print("unordered-iter: iteration over unordered container")
        print("pool-order: direct thread-pool use outside driver/sweep")
        print("test-registration: tests/*_test.cpp missing from CMake")
        print("baseline-missing/baseline-orphan: CI vs bench/baselines drift")
        return 0

    root = args.root
    if not root.is_dir():
        print(f"anu_lint: no such directory: {root}", file=sys.stderr)
        return 2
    findings = run(root)
    for f in findings:
        print(f.render(root))
    if findings:
        print(f"anu_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("anu_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
