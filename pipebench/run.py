#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark (see pipebench/README.md).

    python3 pipebench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run it from the repository root. The first run configures and builds
pipebench/ (which compiles ../src) into .bench_build/ ($CARGO_TARGET_DIR when
set); later runs only rebuild what changed. Build output goes to stderr. The
last line of stdout is the benchmark's JSON result, which this script checks
against the metric lists in BENCHMARK.json before passing it on.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = "4"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "pipebench")


def build(out):
    """Configures (once) and builds the pipebench target; True on success."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree for the next run to trust.
            shutil.rmtree(out, ignore_errors=True)
            return False
    compile_ = ["cmake", "--build", out, "--target", "pipebench", "-j", JOBS]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message for a malformed result line, else ''."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line of output is not JSON"
    if set(result) != RESULT_KEYS:
        return "result keys are %s" % sorted(result)
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        return "metrics differ from BENCHMARK.json (missing %s, extra %s)" % (
            missing, extra)
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "oracle-net", "specgen"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("pipebench: build failed", file=sys.stderr)
        return 1

    scratch = os.path.join(out, "scratch", "%s-%d" % (args.workload, os.getpid()))
    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [os.path.join(out, "pipebench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        command += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("pipebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("pipebench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    error = check_result(lines[-1], args.trace)
    if error:
        print("pipebench: " + error, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
