#!/usr/bin/env bash
# Canonical CI check (referenced from CHANGES.md): tier-1 verify plus a
# mini-campaign determinism gate on the sharded orchestrator and the
# corpus distiller.
#
# Env:
#   KERNELGPT_CMAKE_ARGS  extra cmake configure args (compiler, build
#                         type, ccache launcher — used by the CI matrix)
#   BUILD_DIR             build tree (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
BUILD_DIR="${BUILD_DIR:-build}"

echo "== Tier-1 verify: configure + build + ctest =="
# shellcheck disable=SC2086  # word-splitting of the extra args is intended
cmake -B "${BUILD_DIR}" -S . ${KERNELGPT_CMAKE_ARGS:-}
cmake --build "${BUILD_DIR}" -j"${JOBS}"
(cd "${BUILD_DIR}" && ctest --output-on-failure --no-tests=error -j"${JOBS}")

echo
echo "== Determinism gate (orchestrator + distiller + service + session + diff) =="
# Two back-to-back sharded campaigns must produce identical merged
# coverage bitmaps and deduplicated crash maps, a 1-worker run on the dm
# spec and on the full suite must match its pinned outcome (programs,
# corpus, crashes, coverage and corpus hashes) and be bit-identical
# whether its budget runs in 100-program epochs or in one (the
# epoch-chunking identity, orchestrator_test), distilling the same merged
# corpus twice must yield byte-identical corpora and reproducers, the
# spec-generation service must emit byte-identical specs at 1 and 4
# worker threads (service_test), a Save/Resume'd fuzzing session must
# be bit-identical to an uninterrupted run of the same rounds
# (session_test), every damaged session file must be refused without
# touching the directory while the intact one resumes the last committed
# save exactly (snapshot_test), and a fleet supervisor must produce
# byte-identical reports and tenant states at 1 and 4 supervisor threads
# (fleet_test), and the differential oracle must render byte-identical
# divergence reports at 1 and 4 DiffRunner workers and across session
# save/resume (diff_test), and kernels booted concurrently from the
# shared boot image must each reproduce the serial run while every
# program behaves on a long-lived kernel exactly as on a freshly booted
# one (boot_image_test), and a program stream that dispatches every
# opcode, each call that takes a descriptor also on a never-valid and on
# a closed fd, must hash to its pinned outcome on strict and permissive
# kernels, while the generator's and mutator's output over a spec with
# every type shape must hash to its pinned stream, down to the next RNG
# draw (hotpath_test).
# Rerun through ctest so the gate stays in sync with the suites instead
# of a hand-picked gtest filter.
(cd "${BUILD_DIR}" && ctest --output-on-failure --no-tests=error -j"${JOBS}" \
    -R '^(orchestrator_test|distiller_test|service_test|session_test|snapshot_test|fleet_test|diff_test|vnet_test|boot_image_test|hotpath_test)$')

echo
echo "== Cross-process resume (kill mid-save, recover, compare) =="
# The only check that a snapshot written by one process is resumed by
# another: 2 rounds, a process that dies (exit 42) between the manifest's
# durable tmp file and its rename, a process that recovers and runs 2
# more, and a process that compares the result with a straight 4-round
# session. The example re-executes itself for each phase and fails on any
# unexpected exit code or state mismatch.
RESUME_DIR="$(mktemp -d)"
"${BUILD_DIR}/examples/example_resumable_campaign" "${RESUME_DIR}/snapshot"
rm -rf "${RESUME_DIR}"

echo
echo "== Fleet-recovery soak (armed fault plan) =="
# fleet_test's env-soak case with a hostile environment plan: a burst of
# worker exceptions plus one ENOSPC on the first session-file write (a
# tenant's autosave). The case arms $KERNELGPT_FAULT_PLAN through
# Fleet::Run's own env path, requires bit-identical convergence with the
# fault-free baseline, and checks that the disk fault fired once and was
# reported as a degraded tenant. Bounded nth/times windows — never p= —
# keep the gate deterministic.
(cd "${BUILD_DIR}" && \
    KERNELGPT_FAULT_PLAN='seed=7;site=orchestrator.worker,kind=throw,nth=1,times=2;site=fileio.atomic_write,kind=errno,errno=ENOSPC,nth=1,times=1' \
    ./fleet_test --gtest_filter='FleetTest.EnvPlanSoakConvergesToTheFaultFreeResult')

echo
echo "CI OK"
