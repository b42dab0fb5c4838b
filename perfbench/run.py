#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <paper_sim|retune_10k|serve_route> \
        --seed N --seconds S --trace <0|1>

Run it from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt: the ANU sources, the
anu_serve demo and the perfbench driver) in Release mode under
.bench_build/; later runs only rebuild what changed. The driver's output
is passed through; its last stdout line is the JSON result. The names and
units of the metrics it prints are checked against BENCHMARK.json.

Exit status: the driver's (0 = every output check passed), 1 when the
build fails, the result is malformed or the run times out, 2 on bad
arguments or when the ANU sources are missing.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench", "build")
OUT_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("paper_sim", "retune_10k", "serve_route")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    for needed in ("src/common/types.h", "examples/anu_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("ANU sources not found (%s is missing); run from a full "
                 "checkout of the repository" % needed, 2)
    if shutil.which("cmake") is None:
        fail("cmake is required to build the benchmark", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench", "build.log")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD_DIR)
                os.makedirs(BUILD_DIR)
    steps = []
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path, encoding="utf-8", errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (full log: %s)" % log_path)


def stop_session(pid):
    """Kills whatever is left of the driver's session, such as an anu_serve
    child of a driver that crashed."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def expected_metrics(trace):
    """(name, unit) pairs the run must print, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build()
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", OUT_DIR]
    sys.stdout.flush()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_session(proc.pid)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    stop_session(proc.pid)
    lines = out.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    if body:
        print("\n".join(body))
    try:
        result = json.loads(last)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        sys.stderr.write(last + "\n")
        fail("the driver's last line is not a result (exit %d)"
             % proc.returncode)
    expected = expected_metrics(args.trace == "1")
    if printed != expected:
        sys.stderr.write(last + "\n")
        fail("printed metrics %s do not match BENCHMARK.json %s"
             % (sorted(printed.items()), sorted(expected.items())))
    print(last)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
