#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (which pulls the library in from the repository root)
into .bench_build/ with CMake, then runs one workload. Build output goes
to stderr; the benchmark's stdout is passed through, and its last line is
the JSON result. Exits non-zero on a build failure, a refused
environment, a failed output check, or a result that does not list
exactly the metrics BENCHMARK.json names.
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
WORKLOADS = ("spmv-cache", "serve-churn")
RUN_TIMEOUT_S = 175


def spc_overrides():
    return sorted(k for k in os.environ if k.startswith("SPC_"))


def build(build_dir):
    """Configures (once) and builds; returns False on any failure."""
    if not os.path.exists(os.path.join(HERE, "..", "CMakeLists.txt")):
        print("perfbench: the library sources are not next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The last stdout line must be the result object with BENCHMARK.json's
    metric names and units; returns an error string or None."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(res)
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items()))
    return None


def main():
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # benchmark before this script exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    overrides = spc_overrides()
    if overrides:
        print("perfbench: refusing to run with SPC_* overrides set: "
              + " ".join(overrides), file=sys.stderr)
        return 2

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S).returncode

    out_dir = os.path.join(out_root, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1]:
        sys.stdout.write(proc.stdout)
        print("perfbench: exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    err = check_result(lines[-1], args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if err:
        print("perfbench: " + err, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
