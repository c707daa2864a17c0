#!/usr/bin/env bash
# Perf trajectory harness: runs the perf_micro hot-path benchmarks and
# either records a BENCH_prN.json trajectory file or gates against a
# previously recorded baseline.
#
# Record: scripts/bench.sh [output.json]
#   Default output is the newest BENCH_pr<N>.json in the repo plus one
#   (BENCH_pr8.json present -> records BENCH_pr9.json).
# Gate:   scripts/bench.sh --check baseline.json
#   Re-measures fuzz throughput (higher is better), the coverage merge
#   path, and the snapshot round trip (both lower is better) and fails
#   (exit 1) when any metric regresses more than BENCH_TOLERANCE_PCT
#   percent (default 25) past the baseline, or when nothing could be
#   compared. Override the tolerance for noisy shared runners, e.g.
#   BENCH_TOLERANCE_PCT=40 in CI. Fuzz throughput is read from the
#   baseline's fuzz_throughput.execs_per_sec, or from the older
#   execs_per_sec_unbatched key of earlier trajectory files.
#
# Env: BUILD_DIR (default: build), BENCH_TOLERANCE_PCT (default: 25)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BENCH_BIN="${BUILD_DIR}/bench/bench_perf_micro"
JOBS="$(nproc 2>/dev/null || echo 2)"

MODE="record"
OUT=""
BASELINE=""
if [ "${1:-}" = "--check" ]; then
  MODE="check"
  BASELINE="${2:?usage: bench.sh --check baseline.json}"
  [ -f "${BASELINE}" ] || { echo "no such baseline: ${BASELINE}" >&2; exit 2; }
elif [ -n "${1:-}" ]; then
  OUT="$1"
else
  # Default to the next PR slot after the newest recorded trajectory.
  LAST="$(ls BENCH_pr*.json 2>/dev/null \
          | sed -E 's/^BENCH_pr([0-9]+)\.json$/\1/' | sort -n | tail -1)"
  OUT="BENCH_pr$(( ${LAST:-0} + 1 )).json"
fi

if [ ! -x "${BENCH_BIN}" ]; then
  echo "== building ${BENCH_BIN} =="
  # Explicit optimized build type; never benchmark -O0 code. (The
  # "library_build_type: debug" google-benchmark prints refers to the
  # system libbenchmark, not this project.)
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${BUILD_DIR}" -j"${JOBS}" --target bench_perf_micro
fi

BUILD_TYPE="$(grep -E '^CMAKE_BUILD_TYPE:' "${BUILD_DIR}/CMakeCache.txt" | cut -d= -f2 || true)"
case "${BUILD_TYPE}" in
  Release|RelWithDebInfo) ;;
  *)
    echo "refusing to measure a perf trajectory from a '${BUILD_TYPE:-unset}' build;"
    echo "reconfigure ${BUILD_DIR} with -DCMAKE_BUILD_TYPE=RelWithDebInfo" >&2
    exit 1
    ;;
esac

RAW="$(mktemp)"
trap 'rm -f "${RAW}"' EXIT

if [ "${MODE}" = "check" ]; then
  echo "== perf gate: throughput + coverage merge + snapshot vs ${BASELINE} =="
  "${BENCH_BIN}" \
    --benchmark_filter='BM_FuzzThroughput|BM_CoverageMerge|BM_SnapshotSaveLoad' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "${RAW}"

  python3 - "${RAW}" "${BASELINE}" <<'PYEOF'
import json
import os
import sys

raw_path, baseline_path = sys.argv[1], sys.argv[2]
tolerance_pct = float(os.environ.get("BENCH_TOLERANCE_PCT", "25"))

with open(raw_path) as f:
    raw = json.load(f)
with open(baseline_path) as f:
    baseline = json.load(f)

means = {
    b["run_name"]: b["items_per_second"]
    for b in raw["benchmarks"]
    if b.get("aggregate_name") == "mean"
}

def ns_of(run_name):
    ips = means.get(run_name)
    return 1e9 / ips if ips else None

# Snapshot: the KGPB suite round trip, the one snapshot codec.
snapshot_ns = ns_of("BM_SnapshotSaveLoad")

fuzz = baseline.get("fuzz_throughput", {})
fuzz_execs = fuzz.get("execs_per_sec", fuzz.get("execs_per_sec_unbatched"))

# (label, measured value, baseline value, higher_is_better)
checks = [
    ("fuzz execs/sec", means.get("BM_FuzzThroughput/2000"), fuzz_execs, True),
    ("merge ns (256 blocks)", ns_of("BM_CoverageMerge/256"),
     baseline.get("coverage_merge", {}).get("ns_per_merge_256_blocks"),
     False),
    ("merge ns (4096 blocks)", ns_of("BM_CoverageMerge/4096"),
     baseline.get("coverage_merge", {}).get("ns_per_merge_4096_blocks"),
     False),
    ("snapshot us/program",
     snapshot_ns / 1e3 if snapshot_ns else None,
     baseline.get("snapshot", {}).get("us_per_corpus_program"), False),
]

failed = False
compared = 0
for label, measured, recorded, higher_is_better in checks:
    if recorded is None or measured is None:
        print("SKIP %-22s (missing in %s)" %
              (label, "baseline" if recorded is None else "measurement"))
        continue
    compared += 1
    if higher_is_better:
        limit = recorded * (1.0 - tolerance_pct / 100.0)
        ok = measured >= limit
    else:
        limit = recorded * (1.0 + tolerance_pct / 100.0)
        ok = measured <= limit
    delta_pct = 100.0 * (measured - recorded) / recorded
    if not ok:
        failed = True
    print("%s %-22s measured %12.1f  baseline %12.1f  (%+.1f%%, limit %s%g%%)" %
          ("OK  " if ok else "FAIL", label, measured, recorded, delta_pct,
           "-" if higher_is_better else "+", tolerance_pct))

if failed:
    print("perf gate FAILED: a hot-path metric regressed more than "
          "%g%% past %s" % (tolerance_pct, baseline_path))
    sys.exit(1)
if compared == 0:
    # A gate that measured nothing must not pass: renamed baseline keys
    # or a benchmark filter drift would otherwise disable it silently.
    print("perf gate FAILED: no comparable metrics between the "
          "measurement and %s" % baseline_path)
    sys.exit(1)
print("perf gate OK (tolerance %g%%)" % tolerance_pct)
PYEOF
  exit 0
fi

echo "== running hot-path benchmarks =="
# BM_OrchestratorThroughput is intentionally excluded: its items/sec
# accounting is not comparable across worker counts on shared runners
# (and is meaningless on 1-CPU containers), so it would poison the
# trajectory file.
"${BENCH_BIN}" \
  --benchmark_filter='BM_FuzzThroughput|BM_NetStackThroughput|BM_NetStateTransition|BM_ExecutorDispatch|BM_CoverageMerge|BM_CoverageCountNotIn|BM_CoverageHit|BM_Distill|BM_KernelOpenClose|BM_KernelBoot|BM_SnapshotSaveLoad|BM_FaultPointDisarmed|BM_FleetRoundOverhead|BM_DiffRunnerOverhead|BM_FullGenerationPipeline|BM_Generate|BM_BuildIndex|BM_CParseDriver' \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "${RAW}"

python3 - "${RAW}" "${OUT}" <<'PYEOF'
import json
import re
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

pr_match = re.search(r"pr(\d+)", out_path)
pr = int(pr_match.group(1)) if pr_match else None

means = {
    b["run_name"]: b
    for b in raw["benchmarks"]
    if b.get("aggregate_name") == "mean"
}

def items_per_sec(name):
    b = means.get(name)
    return round(b["items_per_second"], 1) if b else None

def ns_per_item(name):
    b = means.get(name)
    return round(1e9 / b["items_per_second"], 2) if b and b["items_per_second"] else None

def mb_per_sec(name):
    b = means.get(name)
    return round(b["bytes_per_second"] / 1e6, 2) if b and b.get("bytes_per_second") else None

def ms_per_iteration(name):
    b = means.get(name)
    if not b:
        return None
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[b["time_unit"]]
    return round(b["real_time"] * scale, 2)

result = {
    "schema": "kernelgpt-bench/1",
    "pr": pr,
    "source": "scripts/bench.sh (bench/perf_micro.cc, google-benchmark mean of 3 reps)",
    "context": raw.get("context", {}),
    "fuzz_throughput": {
        "execs_per_sec": items_per_sec("BM_FuzzThroughput/2000"),
    },
    # The same campaign loop over the vnet TCP/UDP specs alone, and one
    # full TCP lifecycle (socket pair, bind/listen/connect/accept, close
    # through TIME_WAIT, per-program reset) driven straight at the kernel.
    "net_stack": {
        "execs_per_sec": items_per_sec("BM_NetStackThroughput/2000"),
        "ns_per_tcp_lifecycle": ns_per_item("BM_NetStateTransition"),
    },
    # Full replay cost per dispatched syscall (opcode switch + kernel +
    # driver-model handler + coverage), not the switch in isolation.
    "executor_dispatch": {
        "calls_per_sec": items_per_sec("BM_ExecutorDispatch"),
        "ns_per_replayed_call": ns_per_item("BM_ExecutorDispatch"),
    },
    # Coverage hot path (PR 9: SIMD merge-join over physically key-sorted
    # pages, AVX2 when the host has it). CountNotIn is the distiller's
    # novelty probe; Hit is the per-executed-block steady-state cost.
    "coverage_merge": {
        "ns_per_merge_256_blocks": ns_per_item("BM_CoverageMerge/256"),
        "ns_per_merge_4096_blocks": ns_per_item("BM_CoverageMerge/4096"),
        "ns_per_count_not_in_256_blocks": ns_per_item("BM_CoverageCountNotIn/256"),
        "ns_per_count_not_in_4096_blocks": ns_per_item("BM_CoverageCountNotIn/4096"),
        "ns_per_hit": ns_per_item("BM_CoverageHit"),
    },
    # vkernel open path (PR 4): one program's open/close round trip of a
    # model device, with the handler pool serving steady-state opens.
    "kernel_open_close": {
        "opens_per_sec": items_per_sec("BM_KernelOpenClose"),
        "ns_per_open_close": ns_per_item("BM_KernelOpenClose"),
    },
    # Kernel boot: a fresh strict Kernel plus Corpus::RegisterAll
    # and its teardown. The driver/socket tables are built once per
    # process and shared, so a boot only allocates thin per-kernel drivers.
    "kernel_boot": {
        "us_per_boot": (
            round(ns_per_item("BM_KernelBoot") / 1000.0, 2)
            if ns_per_item("BM_KernelBoot") else None
        ),
    },
    # Session persistence: one in-memory KGPB suite-snapshot round
    # trip (serialize + parse of coverage, crashes, corpus, reproducers,
    # trend records), per persisted corpus program.
    "snapshot": {
        "corpus_programs_per_sec": items_per_sec("BM_SnapshotSaveLoad"),
        "us_per_corpus_program": (
            round(ns_per_item("BM_SnapshotSaveLoad") / 1000.0, 2)
            if ns_per_item("BM_SnapshotSaveLoad") else None
        ),
    },
    # Fault-injection substrate (PR 7): cost of one disarmed
    # KERNELGPT_FAULT_POINT (one relaxed atomic load + predicted branch)
    # and the fleet supervisor's per-round overhead versus a bare
    # Session round. Both must stay ~free: the disarmed probe at
    # sub-nanosecond scale, the fleet/bare ratio at ~1.0.
    "fault_injection": {
        "disarmed_fault_point_ns": ns_per_item("BM_FaultPointDisarmed"),
        "session_round_execs_per_sec": items_per_sec("BM_FleetRoundOverhead/0"),
        "fleet_round_execs_per_sec": items_per_sec("BM_FleetRoundOverhead/1"),
        "fleet_over_session_ratio": (
            round(items_per_sec("BM_FleetRoundOverhead/0") /
                  items_per_sec("BM_FleetRoundOverhead/1"), 3)
            if items_per_sec("BM_FleetRoundOverhead/0")
            and items_per_sec("BM_FleetRoundOverhead/1") else None
        ),
    },
    # Differential oracle (PR 8): the same corpus through a pre-booted
    # bare Executor batch vs a full strict-vs-permissive DiffRunner pass
    # (minimization off). The ratio is the per-pass overhead factor —
    # dual execution + per-call trace comparison + booting both model
    # pairs, which dominates at the benchmark's corpus size.
    "differential": {
        "bare_programs_per_sec": items_per_sec("BM_DiffRunnerOverhead/0"),
        "diff_programs_per_sec": items_per_sec("BM_DiffRunnerOverhead/1"),
        "diff_over_bare_ratio": (
            round(items_per_sec("BM_DiffRunnerOverhead/0") /
                  items_per_sec("BM_DiffRunnerOverhead/1"), 2)
            if items_per_sec("BM_DiffRunnerOverhead/0")
            and items_per_sec("BM_DiffRunnerOverhead/1") else None
        ),
    },
    # Program generation over the full suite: one warm Generator, and a
    # fresh Generator every 256 programs (pipebench's layer timing).
    "generator": {
        "ns_per_prog": ns_per_item("BM_Generate/0"),
        "ns_per_prog_fresh_per_256": ns_per_item("BM_Generate/1"),
    },
    # Spec generation: one ExperimentContext built from scratch (corpus
    # index, handler extraction, then KernelGpt generation with
    # validation and repair plus the SyzDescribe baseline for every
    # loaded module), wall time per context.
    "spec_generation": {
        "ms_per_context": ms_per_iteration("BM_FullGenerationPipeline"),
    },
    # Kernel-source index: Corpus::BuildIndex (render, lex and parse all
    # 69 corpus files, index them, resolve macros), wall time per index;
    # and CParse throughput over one rendered driver file.
    "ksrc": {
        "build_index_ms": ms_per_iteration("BM_BuildIndex"),
        "cparse_mb_per_s": mb_per_sec("BM_CParseDriver"),
    },
    # Between-campaign corpus distillation: dedup + replay + greedy
    # cover + crash minimization, per merged-corpus program.
    "distill": {
        "corpus_programs_per_sec": items_per_sec("BM_Distill"),
        "us_per_corpus_program": (
            round(ns_per_item("BM_Distill") / 1000.0, 2)
            if ns_per_item("BM_Distill") else None
        ),
    },
}

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print("wrote %s" % out_path)
PYEOF

python3 -m json.tool "${OUT}" > /dev/null
echo "bench OK: ${OUT}"
