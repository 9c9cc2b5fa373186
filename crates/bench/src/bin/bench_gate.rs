//! Bench-regression gate: compare candidate bench JSONs against the
//! blessed baselines in `bench_results/`.
//!
//! Usage: `bench_gate <baseline_dir> <candidate_dir>`
//!
//! The tracked metrics and their tolerances live in [`MANIFEST`].
//! Deterministic simulation metrics (drift trip point, oracle-relative
//! geomeans, regrets) get the tight default tolerance: they are pure
//! functions of seeded simulation, so any drift beyond rounding is a
//! real behaviour change. Wall-clock nanosecond metrics are tracked
//! with a deliberately wide tolerance — in smoke mode on shared CI
//! runners they swing with the machine, so the gate only catches
//! order-of-magnitude cliffs (an accidental `O(n^2)`, a lock on the
//! pick path), not percent-level noise. DESIGN.md §12 documents the
//! knobs; `scripts/bench_gate.sh` wires this into CI and re-blesses
//! baselines with `BLESS=1`.
//!
//! Exit status: 0 when every tracked metric is within tolerance,
//! 1 on any regression, 2 on a malformed or missing input.

use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

/// Which way a metric is allowed to move.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Bigger is better (scores): fail when the candidate drops.
    HigherBetter,
    /// Smaller is better (latencies, regrets): fail when it grows.
    LowerBetter,
}

/// Relative regression allowed on deterministic simulation metrics.
const DEFAULT_TOLERANCE: f64 = 0.15;
/// Relative regression allowed on machine-dependent ns timings.
const TIMING_TOLERANCE: f64 = 3.0;

/// (file stem, metric key, direction, tolerance)
const MANIFEST: &[(&str, &str, Direction, f64)] = &[
    // micro_online: deterministic adaptation quality.
    (
        "micro_online",
        "drift_trip_after_launches",
        Direction::LowerBetter,
        DEFAULT_TOLERANCE,
    ),
    (
        "micro_online",
        "adaptive_final_geomean",
        Direction::HigherBetter,
        DEFAULT_TOLERANCE,
    ),
    (
        "micro_online",
        "static_final_geomean",
        Direction::HigherBetter,
        DEFAULT_TOLERANCE,
    ),
    (
        "micro_online",
        "adaptive_final_epoch_regret_s",
        Direction::LowerBetter,
        DEFAULT_TOLERANCE,
    ),
    // micro_online: wall-clock pick latencies (smoke guardrails).
    (
        "micro_online",
        "mirror_pick_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    (
        "micro_online",
        "adaptive_pick_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    // micro_resilience (saved by the micro_selection target):
    // wall-clock serving-path latencies (smoke guardrails).
    (
        "micro_resilience",
        "plain_submit_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    (
        "micro_resilience",
        "resilient_primary_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    (
        "micro_resilience",
        "breaker_open_fallback_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    (
        "micro_resilience",
        "reference_degrade_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    // micro_ingress: deterministic accounting and memory-bound checks.
    // `silent_drops` has a baseline of exactly 0, so with the relative
    // tolerance computed against max(|baseline|, 1e-12) any candidate
    // that loses even one request fails the gate outright.
    (
        "micro_ingress",
        "silent_drops",
        Direction::LowerBetter,
        DEFAULT_TOLERANCE,
    ),
    (
        "micro_ingress",
        "cache_entries",
        Direction::LowerBetter,
        DEFAULT_TOLERANCE,
    ),
    // micro_ingress: wall-clock end-to-end latency quantiles and host
    // cost per request (smoke guardrails).
    (
        "micro_ingress",
        "p50_latency_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    (
        "micro_ingress",
        "p99_latency_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    (
        "micro_ingress",
        "per_request_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    // micro_persist: deterministic recovery economics. Both
    // `warm_recovery_launches` and `restore_dropped_sections` have a
    // baseline of exactly 0, so (relative tolerance against
    // max(|baseline|, 1e-12)) any warm restart that relearns, or any
    // clean-snapshot section drop, fails the gate outright.
    (
        "micro_persist",
        "warm_recovery_launches",
        Direction::LowerBetter,
        DEFAULT_TOLERANCE,
    ),
    (
        "micro_persist",
        "cold_recovery_launches",
        Direction::LowerBetter,
        DEFAULT_TOLERANCE,
    ),
    (
        "micro_persist",
        "restore_dropped_sections",
        Direction::LowerBetter,
        DEFAULT_TOLERANCE,
    ),
    // micro_persist: wall-clock save/restore guardrails (these carry
    // an fsync, so only order-of-magnitude cliffs are interesting).
    (
        "micro_persist",
        "snapshot_save_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    (
        "micro_persist",
        "snapshot_restore_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    // micro_analytical: deterministic zero-benchmark selection quality
    // (pure functions of the device model + seeded split), plus the
    // wall-clock cost of one analytical decision — the ISSUE's sub-µs
    // serving claim is additionally hard-asserted inside the bench.
    (
        "micro_analytical",
        "analytical_test_geomean",
        Direction::HigherBetter,
        DEFAULT_TOLERANCE,
    ),
    (
        "micro_analytical",
        "analytical_oracle_fraction",
        Direction::HigherBetter,
        DEFAULT_TOLERANCE,
    ),
    (
        "micro_analytical",
        "select_among_shipped_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    (
        "micro_analytical",
        "rank_all_640_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    // micro_decide: the sub-20 ns decision hot path. Wall-clock numbers
    // sit in the wide timing band (shared runners swing), but the op
    // proxies — table probes + atomic RMWs per pick — are deterministic
    // functions of the code, so they get the tight band: a regression
    // that hides inside the 300 % wall-clock tolerance still moves the
    // counters and fails here.
    (
        "micro_decide",
        "single_pick_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    (
        "micro_decide",
        "batch_pick_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    (
        "micro_decide",
        "legacy_select_ns",
        Direction::LowerBetter,
        TIMING_TOLERANCE,
    ),
    (
        "micro_decide",
        "single_pick_ops",
        Direction::LowerBetter,
        DEFAULT_TOLERANCE,
    ),
    (
        "micro_decide",
        "batch_pick_ops_per_kilopick",
        Direction::LowerBetter,
        DEFAULT_TOLERANCE,
    ),
];

fn load(dir: &Path, stem: &str) -> Result<Value, String> {
    let path = dir.join(format!("{stem}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e:?}", path.display()))
}

fn metric(doc: &Value, stem: &str, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{stem}.json has no numeric metric `{key}`"))
}

/// Relative regression of `candidate` vs `baseline` in the bad
/// direction (0 when the candidate is equal or better).
fn regression(direction: Direction, baseline: f64, candidate: f64) -> f64 {
    let scale = baseline.abs().max(1e-12);
    match direction {
        Direction::LowerBetter => (candidate - baseline) / scale,
        Direction::HigherBetter => (baseline - candidate) / scale,
    }
    .max(0.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (baseline_dir, candidate_dir) = match (args.get(1), args.get(2)) {
        (Some(b), Some(c)) => (Path::new(b).to_path_buf(), Path::new(c).to_path_buf()),
        _ => {
            eprintln!("usage: bench_gate <baseline_dir> <candidate_dir>");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    let mut errors = 0usize;
    println!(
        "{:<16} {:<30} {:>12} {:>12} {:>9} {:>7}  status",
        "file", "metric", "baseline", "candidate", "delta", "tol"
    );
    for &(stem, key, direction, tolerance) in MANIFEST {
        let row = (|| -> Result<(f64, f64), String> {
            let base = metric(&load(&baseline_dir, stem)?, stem, key)?;
            let cand = metric(&load(&candidate_dir, stem)?, stem, key)?;
            Ok((base, cand))
        })();
        match row {
            Ok((base, cand)) => {
                let delta = regression(direction, base, cand);
                let status = if delta > tolerance {
                    failures += 1;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "{:<16} {:<30} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}%  {status}",
                    stem,
                    key,
                    base,
                    cand,
                    delta * 100.0,
                    tolerance * 100.0
                );
            }
            Err(e) => {
                errors += 1;
                println!("{stem:<16} {key:<30} ERROR: {e}");
            }
        }
    }

    if errors > 0 {
        eprintln!("\nbench_gate: {errors} metric(s) unreadable");
        return ExitCode::from(2);
    }
    if failures > 0 {
        eprintln!(
            "\nbench_gate: {failures} metric(s) regressed beyond tolerance \
             (re-bless with BLESS=1 scripts/bench_gate.sh if intentional)"
        );
        return ExitCode::from(1);
    }
    println!(
        "\nbench_gate: all {} tracked metrics within tolerance",
        MANIFEST.len()
    );
    ExitCode::SUCCESS
}
