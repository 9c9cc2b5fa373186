#!/usr/bin/env bash
# Repo-wide hygiene gate, in two tiers:
#
#   scripts/check.sh fast   -- formatting, clippy, unit tests (~seconds
#                              after a warm build; the inner-loop gate)
#   scripts/check.sh full   -- everything: the whole test suite (root
#                              package and every workspace crate), the
#                              hot-path lint and its must-fail fixtures,
#                              the analyzer self-check, the concurrency
#                              audit (atomic roles, lock order, model
#                              checker), the serving examples, the
#                              end-to-end benchmark's build, tests, a
#                              short run of each gated workload, a
#                              traced run of each against the golden of
#                              its deterministic counts and its
#                              allocation ceilings
#                              (scripts/perfbench_counts.sh), and the
#                              bench-regression gate (the default, and
#                              what CI runs)
set -euo pipefail
cd "$(dirname "$0")/.."

tier="${1:-full}"
case "${tier}" in
fast | full) ;;
*)
    echo "usage: scripts/check.sh [fast|full]" >&2
    exit 2
    ;;
esac

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [ "${tier}" = "fast" ]; then
    echo "==> unit tests (cargo test -q --lib)"
    cargo test -q --lib
    echo "All fast-tier checks passed."
    exit 0
fi

echo "==> cargo test -q"
cargo test -q

echo "==> workspace crate tests (cargo test --workspace -q)"
cargo test --workspace -q

echo "==> fault-injection suite (cargo test -q --test resilient_executor)"
cargo test -q --test resilient_executor

echo "==> sharded scheduler suite (cargo test -q --test sharded_scheduler)"
cargo test -q --test sharded_scheduler

echo "==> ingress + bounded-cache suite (cargo test -q --test ingress_serving)"
cargo test -q --test ingress_serving

echo "==> hot-path lint (must pass clean, < 2s)"
cargo build -q --release --bin hotpath_lint
lint_start=$(date +%s%N)
./target/release/hotpath_lint
lint_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "    lint wall time: ${lint_ms} ms"
if [ "${lint_ms}" -ge 2000 ]; then
    echo "    FAIL: hot-path lint exceeded the 2s budget" >&2
    exit 1
fi

echo "==> hot-path lint (must fail on the seeded fixture)"
if ./target/release/hotpath_lint crates/analyze/tests/fixtures/violations.rs > /dev/null; then
    echo "    FAIL: linter accepted the deliberately violating fixture" >&2
    exit 1
fi
echo "    fixture correctly rejected"

echo "==> hot-path lint (must fail on the NaN-sweep fixture)"
if ./target/release/hotpath_lint crates/analyze/tests/fixtures/sweep/crates/mlkit/src/eigen.rs > /dev/null; then
    echo "    FAIL: linter accepted partial_cmp in a swept comparator" >&2
    exit 1
fi
echo "    sweep fixture correctly rejected"

echo "==> hot-path lint (must fail on the decide-path allocation fixture)"
if ./target/release/hotpath_lint crates/analyze/tests/fixtures/alloc/cache.rs > /dev/null; then
    echo "    FAIL: linter accepted allocations on the decide path" >&2
    exit 1
fi
echo "    allocation fixture correctly rejected"

echo "==> kernel-space analyzer self-check (analyzer vs validate_launch)"
cargo run -q --release --bin analyze_space

echo "==> analytical selector head-to-head (geomean floor + golden report)"
cargo run -q --release --bin analytical_eval

echo "==> concurrency audit (atomic roles + lock order + model checker, < 60s)"
cargo build -q --release --bin concurrency_audit
conc_start=$(date +%s%N)
./target/release/concurrency_audit
conc_ms=$(( ($(date +%s%N) - conc_start) / 1000000 ))
echo "    audit wall time: ${conc_ms} ms"
if [ "${conc_ms}" -ge 60000 ]; then
    echo "    FAIL: concurrency audit exceeded the 60s budget" >&2
    exit 1
fi

echo "==> serving cache example (cargo run --release --example serving_cache)"
cargo run --release --example serving_cache

echo "==> resilient serving example (cargo run --release --example resilient_serving)"
cargo run --release --example resilient_serving

echo "==> adaptive serving example (cargo run --release --example adaptive_serving)"
cargo run --release --example adaptive_serving

echo "==> sharded serving example (cargo run --release --example sharded_serving)"
cargo run --release --example sharded_serving

echo "==> ingress serving example (cargo run --release --example ingress_serving)"
cargo run --release --example ingress_serving

echo "==> crash recovery example (cargo run --release --example crash_recovery)"
cargo run --release --example crash_recovery

echo "==> end-to-end benchmark tests (perfbench, --locked)"
cargo test --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> end-to-end benchmark smoke runs (must print \"correct\": true)"
for workload in resnet50_hot shape_churn; do
    if ! out=$(cargo run --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
        --seed 1 --workload "${workload}" --seconds 2) ||
        ! grep -q '"correct": true' <<< "${out}"; then
        echo "${out}"
        echo "    FAIL: ${workload} must exit 0 and print \"correct\": true" >&2
        exit 1
    fi
    echo "    ${workload}: correct"
done

echo "==> end-to-end benchmark traced counts golden + allocation ceilings (scripts/perfbench_counts.sh)"
scripts/perfbench_counts.sh

echo "==> bench-regression gate (scripts/bench_gate.sh)"
scripts/bench_gate.sh

echo "All checks passed."
