#!/usr/bin/env bash
# Bench-regression gate: run the micro benchmarks in smoke mode and
# compare their tracked metrics against the blessed baselines in
# bench_results/.
#
#   scripts/bench_gate.sh            -- gate: fail on regression
#   BLESS=1 scripts/bench_gate.sh    -- re-bless: overwrite the
#                                       baselines with this run's
#                                       numbers (commit the diff)
#
# Smoke mode (`cargo bench ... -- --test`) runs every criterion target
# single-shot, so the whole gate takes seconds. Candidate JSONs land in
# a scratch directory via AUTOKERNEL_BENCH_DIR — the committed
# baselines are never written unless BLESS=1. The tracked metrics and
# their tolerances live in crates/bench/src/bin/bench_gate.rs; the
# rationale is documented in DESIGN.md §12.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline_dir="bench_results"
candidate_dir="target/bench_gate"
rm -rf "${candidate_dir}"
mkdir -p "${candidate_dir}"

echo "==> collecting candidate bench numbers (smoke mode) into ${candidate_dir}"
AUTOKERNEL_BENCH_DIR="${PWD}/${candidate_dir}" \
    cargo bench -q -p autokernel-bench --bench micro_selection -- --test
AUTOKERNEL_BENCH_DIR="${PWD}/${candidate_dir}" \
    cargo bench -q -p autokernel-bench --bench micro_online -- --test
AUTOKERNEL_BENCH_DIR="${PWD}/${candidate_dir}" \
    cargo bench -q -p autokernel-bench --bench micro_ingress -- --test
AUTOKERNEL_BENCH_DIR="${PWD}/${candidate_dir}" \
    cargo bench -q -p autokernel-bench --bench micro_persist -- --test
AUTOKERNEL_BENCH_DIR="${PWD}/${candidate_dir}" \
    cargo bench -q -p autokernel-bench --bench micro_analytical -- --test

if [ "${BLESS:-0}" = "1" ]; then
    echo "==> BLESS=1: overwriting baselines in ${baseline_dir}/"
    for candidate in "${candidate_dir}"/*.json; do
        cp -v "${candidate}" "${baseline_dir}/$(basename "${candidate}")"
    done
    echo "re-blessed; review and commit the ${baseline_dir}/ diff"
    exit 0
fi

echo "==> comparing against ${baseline_dir}/ baselines"
cargo run -q --release -p autokernel-bench --bin bench_gate -- \
    "${baseline_dir}" "${candidate_dir}"
