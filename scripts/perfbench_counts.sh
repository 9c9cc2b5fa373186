#!/usr/bin/env bash
# Deterministic-count golden for the end-to-end benchmark's traced run.
#
#   scripts/perfbench_counts.sh           -- gate: compare against the
#                                            golden
#   BLESS=1 scripts/perfbench_counts.sh   -- re-bless: rewrite the
#                                            golden from this run
#                                            (commit the diff)
#
# For resnet50_hot and shape_churn this runs the traced benchmark
# (`--seed 1 --trace 1`, `--locked`) and requires "correct": true. The
# counts that the serving logic alone determines -- simulated device
# time, selection quality, coalescing and routing, cache behaviour and
# resilient outcomes -- must equal reports/perfbench_counts.json:
# integers exactly, other values to 10 significant digits, because
# libm can differ in the last bit between machines. Allocation counts
# depend on the toolchain's growth policies, so sched.allocs_per_req and
# resilient.allocs_per_launch stay under per-workload ceilings instead
# (checked in both modes): the traced figures plus room for a few stray
# allocations.
set -euo pipefail
cd "$(dirname "$0")/.."

golden="reports/perfbench_counts.json"
out_dir="target/perfbench_counts"
candidate="${out_dir}/candidate.json"
# workload:sched.allocs_per_req ceiling:resilient.allocs_per_launch ceiling.
# Traced at seed 1: 0.0912 and 1.0000 on resnet50_hot, 0.5210 and 1.0000
# on shape_churn (a kernel name per batch, a small constant per chunk).
gates=(resnet50_hot:0.2:1.05 shape_churn:0.7:1.05)
keys=(
    sim.device_busy_s
    select.oracle_ratio
    sched.coalesce_ratio
    sched.batches_per_wave
    sched.imbalance
    sched.stolen_ratio
    cache.hit_ratio
    cache.footprint
    cache.evictions_per_kreq
    cache.admission_rejects_per_kreq
    resilient.clean_ratio
    resilient.retries
    resilient.breaker_trips
    resilient.fallback_next_best
    resilient.fallback_reference
)

rm -rf "${out_dir}"
mkdir -p "${out_dir}"

# The value of metric $1 in the benchmark's JSON line on stdin.
metric() {
    grep -o "\"$1\": {\"value\": [^,}]*" | awk '{print $NF}' || true
}

for gate in "${gates[@]}"; do
    workload="${gate%%:*}"
    echo "==> traced ${workload} (seed 1)"
    if ! cargo run --quiet --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
        --seed 1 --workload "${workload}" --trace 1 > "${out_dir}/${workload}.out" ||
        ! grep -q '"correct": true' "${out_dir}/${workload}.out"; then
        cat "${out_dir}/${workload}.out"
        echo "    FAIL: traced ${workload} must exit 0 and print \"correct\": true" >&2
        exit 1
    fi
done

# One key per line, workloads in gate order, so the comparison below
# can walk the golden and the candidate line by line.
{
    echo "{"
    for i in "${!gates[@]}"; do
        workload="${gates[$i]%%:*}"
        echo "  \"${workload}\": {"
        for j in "${!keys[@]}"; do
            value=$(metric "${keys[$j]}" < "${out_dir}/${workload}.out")
            if [ -z "${value}" ]; then
                echo "    FAIL: ${workload} printed no ${keys[$j]}" >&2
                exit 1
            fi
            comma=","
            [ "$j" -eq $((${#keys[@]} - 1)) ] && comma=""
            echo "    \"${keys[$j]}\": ${value}${comma}"
        done
        comma=","
        [ "$i" -eq $((${#gates[@]} - 1)) ] && comma=""
        echo "  }${comma}"
    done
    echo "}"
} > "${candidate}"

if [ "${BLESS:-0}" = "1" ]; then
    cp "${candidate}" "${golden}"
    echo "==> BLESS=1: rewrote ${golden}; review and commit the diff"
else
    echo "==> comparing against ${golden}"
    if [ ! -f "${golden}" ] || [ "$(wc -l < "${golden}")" -ne "$(wc -l < "${candidate}")" ]; then
        diff "${golden}" "${candidate}" || true
        echo "    FAIL: ${golden} is missing or lists other keys" >&2
        exit 1
    fi
    if ! paste -d '\t' "${golden}" "${candidate}" | awk -F '\t' '
        function value(line) { sub(/,$/, "", line); sub(/.*: /, "", line); return line }
        function key(line) { sub(/:.*/, "", line); gsub(/[ "]/, "", line); return line }
        $1 == $2 { next }
        {
            want = value($1); got = value($2)
            integers = want ~ /^-?[0-9]+$/ && got ~ /^-?[0-9]+$/
            if (key($1) == key($2) && !integers && sprintf("%.9e", want + 0) == sprintf("%.9e", got + 0)) { next }
            printf "    mismatch: %s golden %s, run %s\n", key($1), want, got
            failed = 1
        }
        END { exit failed }'; then
        echo "    FAIL: deterministic counts differ from ${golden}" >&2
        exit 1
    fi
    echo "    every count matches"
fi

echo "==> traced allocation ceilings"
for gate in "${gates[@]}"; do
    IFS=: read -r workload sched_ceiling launch_ceiling <<< "${gate}"
    for ceiling in "sched.allocs_per_req:${sched_ceiling}" "resilient.allocs_per_launch:${launch_ceiling}"; do
        key="${ceiling%%:*}"
        max="${ceiling##*:}"
        allocs=$(metric "${key}" < "${out_dir}/${workload}.out")
        if [ -z "${allocs}" ] || ! awk -v v="${allocs}" -v max="${max}" 'BEGIN { exit !(v <= max) }'; then
            echo "    FAIL: ${workload} ${key} ${allocs:-missing} exceeds ${max}" >&2
            exit 1
        fi
        echo "    ${workload}: ${key} ${allocs} <= ${max}"
    done
done
