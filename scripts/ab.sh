#!/usr/bin/env bash
# Same-host A/B comparison of the pipeline benchmark (pipebench/) between
# a base commit and the working tree.
#
#   scripts/ab.sh BASE [workload...]
#
# Checks BASE out in a git worktree under a temporary directory and builds
# both pipebench binaries: the working tree's into .bench_build/, BASE's
# into the temporary directory. Then, per workload (default: every
# workload BENCHMARK.json lists):
#   1. one traced run per side at seed 1. Exits 1 when a run is not
#      "correct": true or when any per-layer metric whose unit is "count"
#      differs between the sides. The traced per-layer values are printed
#      side by side (one run each, so without a spread).
#   2. AB_PAIRS alternating pairs at seed 1, then at the held-out seed
#      1009; the side that runs first alternates pair by pair. Exits 1
#      when a run is not "correct": true.
# For each end-to-end metric and seed it prints each side's median and
# quartiles, the working-tree/base ratio of the medians, the pairs the
# working tree won by the metric's "better" direction (ties count for
# neither) and the base's quartile distance over its median.
#
# Env: AB_PAIRS   pairs per workload and seed (default 10)
#      AB_SECONDS seconds per run (default: run_seconds in BENCHMARK.json)
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${1:?usage: scripts/ab.sh BASE [workload...]}"
shift
ROOT="$(pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

TMP="$(mktemp -d)"
cleanup() {
  git worktree remove --force "${TMP}/base" >/dev/null 2>&1 || true
  git worktree prune >/dev/null 2>&1 || true
  rm -rf "${TMP}"
}
trap cleanup EXIT

git worktree add --detach "${TMP}/base" "${BASE}" >/dev/null

# The same configure and build pipebench/run.py performs, done up front so
# the timed runs only find both trees up to date.
build() {
  local src="$1" out="$2"
  echo "== building pipebench from ${src} ==" >&2
  if [ ! -f "${out}/pipebench/CMakeCache.txt" ]; then
    cmake -S "${src}/pipebench" -B "${out}/pipebench" \
      -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "${out}/pipebench" --target pipebench -j"${JOBS}" >&2
}
build "${ROOT}" "${ROOT}/.bench_build"
build "${TMP}/base" "${TMP}/build"

python3 - "${ROOT}" "${TMP}/base" "${TMP}/build" "$@" <<'PYEOF'
import json
import os
import statistics
import subprocess
import sys

root, base_root, base_build = sys.argv[1:4]
with open(os.path.join(root, "BENCHMARK.json")) as f:
    spec = json.load(f)
workloads = sys.argv[4:] or [w["name"] for w in spec["workloads"]]
pairs = int(os.environ.get("AB_PAIRS", "10"))
seconds = float(os.environ.get("AB_SECONDS", spec["run_seconds"]))
seeds = [1, 1009]
sides = {
    "base": (base_root, base_build),
    "head": (root, os.path.join(root, ".bench_build")),
}


def run(side, workload, seed, trace):
    """One pipebench run; returns its metrics as a name -> value map."""
    tree, build = sides[side]
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "pipebench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    what = "%s %s seed %d trace %d" % (side, workload, seed, trace)
    if proc.returncode != 0 or not lines:
        sys.exit("%s\nab: %s exited with %d" %
                 (proc.stderr[-4000:], what, proc.returncode))
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit("%s\nab: %s is not correct" % (proc.stderr[-4000:], what))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def ratio(a, b):
    return "%.3f" % (a / b) if b else "n/a"


counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
for workload in workloads:
    print("== %s: traced run at seed 1 ==" % workload)
    traced = {side: run(side, workload, 1, 1) for side in sides}
    print("%-30s %-6s %16s %16s %9s" %
          ("metric", "unit", "base", "head", "head/base"))
    for name in sorted(traced["base"]):
        b, h = traced["base"][name], traced["head"].get(name)
        if h is None:
            continue
        print("%-30s %-6s %16.6g %16.6g %9s" %
              (name, units.get(name, ""), b, h, ratio(h, b)))
    differing = [n for n in counts
                 if traced["base"].get(n) != traced["head"].get(n)]
    if differing:
        for n in differing:
            print("COUNT DIFFERS %s: base %s, head %s" %
                  (n, traced["base"].get(n), traced["head"].get(n)))
        sys.exit(1)
    print("every count metric is identical")

    for seed in seeds:
        runs = {"base": [], "head": []}
        for i in range(pairs):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                runs[side].append(run(side, workload, seed, 0))
        print("\n== %s: seed %d, %d pairs of %g-s runs ==" %
              (workload, seed, pairs, seconds))
        print("%-12s %-5s %-32s %-32s %9s %9s %11s" %
              ("metric", "unit", "base median [q1, q3]",
               "head median [q1, q3]", "head/base", "head won",
               "base IQR/med"))
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            b = [r[name] for r in runs["base"]]
            h = [r[name] for r in runs["head"]]
            bq, hq = quartiles(b), quartiles(h)
            won = sum(1 for x, y in zip(h, b)
                      if (x < y if lower else x > y))
            spread = "%.3f" % ((bq[2] - bq[0]) / bq[1]) if bq[1] else "n/a"
            print("%-12s %-5s %-32s %-32s %9s %9s %11s" %
                  (name, metric["unit"],
                   "%.6g [%.6g, %.6g]" % (bq[1], bq[0], bq[2]),
                   "%.6g [%.6g, %.6g]" % (hq[1], hq[0], hq[2]),
                   ratio(hq[1], bq[1]), "%d/%d" % (won, pairs), spread))
    print()
PYEOF
