#!/usr/bin/env bash
# Behaviour-parity gate for refactors (docs/ci.md): builds a base revision
# and the checked-out tree in Release, runs the same simulator artifacts on
# both, and requires them to be byte-identical.
#
#   * the 64-seed batch (`anu_sim --seeds 64`), the same run
#     cli_batch_determinism compares across --jobs;
#   * the cli_matrix_determinism scenario matrix;
#   * a multi-seed `--chaos-profile mixed` batch, which drives the message
#     protocol (delegate rounds, retransmits, failover) end to end;
#   * the JSONL event trace of one direct run (the `anu_sim --example`
#     config) and of one chaos run (`--chaos-seed 1`). The scalar
#     artifacts above cannot see a reordered or dropped trace emit; these
#     two traces, one per experiment driver, can.
#
# The cli_* ctest checks only compare --jobs 8 against --jobs 1 of one
# build; this script is what shows a refactor kept the parent's behaviour.
# Each artifact's top-level "git" field names the build's revision, so it
# is deleted before comparing.
#
# Usage: scripts/parity_vs_parent.sh <base-ref>     (e.g. HEAD~1, main)
# The head side is the working tree, uncommitted changes included. The base
# side is exported with `git archive`, so the repository's .git is never
# modified. Environment:
#   PARITY_WORK_DIR  scratch directory for both builds and the artifacts
#                    (default: a fresh mktemp -d, removed on exit)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
BASE_REF="$1"
git rev-parse --verify --quiet "$BASE_REF^{commit}" >/dev/null || {
  echo "error: '$BASE_REF' is not a commit" >&2
  exit 2
}

if [ -n "${PARITY_WORK_DIR:-}" ]; then
  WORK="$PARITY_WORK_DIR"
  mkdir -p "$WORK"
else
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
fi
# Artifacts are byte-identical at any --jobs (cli_batch_determinism), so
# the level only sets how long the runs take.
JOBS=4
GENERATOR=()
command -v ninja >/dev/null 2>&1 && GENERATOR=(-G Ninja)

build() {  # build <source-dir> <build-dir>
  echo "=== building $1 (Release) ==="
  cmake -S "$1" -B "$2" "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Release \
    >"$2.configure.log" 2>&1 || { tail -n 30 "$2.configure.log" >&2; exit 1; }
  cmake --build "$2" --target anu_sim_tool >"$2.build.log" 2>&1 \
    || { tail -n 30 "$2.build.log" >&2; exit 1; }
}

run_artifacts() {  # run_artifacts <anu_sim> <out-dir>
  local sim="$1" out="$2"
  mkdir -p "$out"
  "$sim" --seeds 64 --jobs "$JOBS" --json-out "$out/batch.json" >/dev/null
  "$sim" --matrix --profiles paper --servers 4 --loads 0.5 \
    --strategies jsqd,jiq --seeds 2 --jobs "$JOBS" \
    --matrix-out "$out/matrix" >/dev/null
  "$sim" --seeds 8 --chaos-seed 1 --chaos-profile mixed --jobs "$JOBS" \
    --json-out "$out/chaos.json" >/dev/null
  "$sim" --example >"$out/example.cfg"
  "$sim" --trace-out "$out/direct.trace.jsonl" "$out/example.cfg" >/dev/null
  "$sim" --chaos-seed 1 --trace-out "$out/chaos.trace.jsonl" >/dev/null
  # Drop the per-revision "git" field (top level, one line) in place.
  find "$out" -name '*.json' -exec sed -i '/^  "git": /d' {} +
}

mkdir -p "$WORK/base-src"
git archive "$BASE_REF" | tar -x -C "$WORK/base-src"
build "$WORK/base-src" "$WORK/base-build"
# Configuring re-points the source root's compile_commands.json symlink at
# the new build tree; put the developer's link back afterwards.
ccdb="$(readlink compile_commands.json || true)"
build "$PWD" "$WORK/head-build"
if [ -n "$ccdb" ]; then ln -sfn "$ccdb" compile_commands.json; else rm -f compile_commands.json; fi

run_artifacts "$WORK/base-build/tools/anu_sim" "$WORK/base-out"
run_artifacts "$WORK/head-build/tools/anu_sim" "$WORK/head-out"

status=0
for artifact in batch.json chaos.json direct.trace.jsonl chaos.trace.jsonl; do
  if cmp "$WORK/base-out/$artifact" "$WORK/head-out/$artifact"; then
    echo "parity: $artifact identical"
  else
    status=1
  fi
done
if diff -r "$WORK/base-out/matrix" "$WORK/head-out/matrix"; then
  echo "parity: matrix identical"
else
  status=1
fi
if [ "$status" -ne 0 ]; then
  echo "FAIL: artifacts differ from $BASE_REF" >&2
else
  echo "PASS: batch, matrix, chaos and trace artifacts match $BASE_REF byte for byte"
fi
exit "$status"
