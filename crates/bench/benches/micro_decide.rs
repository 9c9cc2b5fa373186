//! Micro-benchmarks of the sub-20 ns decision hot path.
//!
//! Two families of numbers land in `bench_results/micro_decide.json`:
//!
//! * **Wall-clock picks** — one warm `decide` through the open-addressed
//!   L1 shape table (hard-asserted `< 20 ns`), the amortised per-pick
//!   cost of `decide_batch` (hard-asserted `< 10 ns`), and the legacy
//!   map-backed `select` path for the before/after table in DESIGN.md
//!   §17. Wide-tolerance gated: shared runners swing.
//! * **Deterministic op proxies** — table probes and atomic RMWs per
//!   pick, counted from the table's actual probe length and the decide
//!   path's published cost model. These are pure functions of the code,
//!   so the gate holds them at the tight 15 % band; a "small" wall-clock
//!   regression that hides inside the 300 % timing band still moves
//!   these counters and fails the gate.

use autokernel_bench::{paper_dataset, save_result};
use autokernel_core::{OnlineConfig, PipelineConfig, TuningPipeline};
use autokernel_gemm::GemmShape;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// Hard ceiling on one warm decide, nanoseconds.
const SINGLE_PICK_BUDGET_NS: f64 = 20.0;
/// Hard ceiling on the amortised per-pick cost of a warm batch.
const BATCH_PICK_BUDGET_NS: f64 = 10.0;
/// Requests per `decide_batch` call.
const BATCH_LEN: usize = 256;

#[derive(serde::Serialize)]
struct MicroDecideResult {
    /// One warm `OnlineSelector::decide` (L1 hit), best-of-rounds ns.
    single_pick_ns: f64,
    /// Amortised per-pick ns of a warm `decide_batch` over `batch_len`.
    batch_pick_ns: f64,
    /// The pre-L1 `select` path (sharded map + full telemetry), for the
    /// before/after table.
    legacy_select_ns: f64,
    /// Deterministic proxy: key probes + fixed loads + atomic RMWs for
    /// one warm single pick.
    single_pick_ops: f64,
    /// Deterministic proxy: total probes/loads/RMWs per 1000 batched
    /// picks (batch flush RMWs amortise; stack-local counting adds no
    /// atomics per pick).
    batch_pick_ops_per_kilopick: f64,
    /// Key words examined by the L1 probe for the probe shape.
    probe_length: u64,
    batch_len: usize,
    single_pick_budget_ns: f64,
    batch_pick_budget_ns: f64,
}

/// Best-of-`rounds` average ns over `reps` calls — the minimum is the
/// standard scheduler-noise filter for nanosecond-scale timings.
fn time_ns(rounds: usize, reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / reps as f64);
    }
    best
}

fn bench_decide(c: &mut Criterion) {
    let ds = paper_dataset();
    let pool: Vec<GemmShape> = ds.shapes.clone();
    let pipeline =
        TuningPipeline::from_dataset(ds, PipelineConfig::default()).expect("pipeline trains");
    let online = pipeline
        .online_selector(OnlineConfig::default())
        .expect("online selector builds");
    let probe = GemmShape::new(3136, 576, 192);

    // Warm every pool shape through the L1 install path, and pin that
    // the u16 fast path agrees with the legacy usize path.
    for shape in pool.iter().chain(std::iter::once(&probe)) {
        let fast = online.decide(shape).expect("decide");
        let slow = online.select(shape).expect("select");
        assert_eq!(fast as usize, slow, "decide diverged from select");
    }

    let mut group = c.benchmark_group("decide_pick");
    group.bench_function("single_l1_hit", |bench| {
        bench.iter(|| black_box(online.decide(black_box(&probe)).unwrap()));
    });
    let batch: Vec<GemmShape> = (0..BATCH_LEN).map(|i| pool[i % pool.len()]).collect();
    let mut out = vec![0u16; BATCH_LEN];
    group.bench_function("batch_256", |bench| {
        bench.iter(|| {
            online.decide_batch(black_box(&batch), &mut out).unwrap();
            black_box(out[0])
        });
    });
    group.finish();

    let single_pick_ns = time_ns(7, 20_000, || {
        black_box(online.decide(black_box(&probe)).unwrap());
    });
    let batch_pick_ns = time_ns(7, 200, || {
        online.decide_batch(black_box(&batch), &mut out).unwrap();
        black_box(out[0]);
    }) / BATCH_LEN as f64;
    let legacy_select_ns = time_ns(7, 20_000, || {
        black_box(online.select(black_box(&probe)).unwrap());
    });

    // The ISSUE's acceptance bars, hard-asserted so the bench itself is
    // the gate even before the JSON comparison runs.
    assert!(
        single_pick_ns < SINGLE_PICK_BUDGET_NS,
        "single warm pick took {single_pick_ns:.1} ns (budget {SINGLE_PICK_BUDGET_NS} ns)"
    );
    assert!(
        batch_pick_ns < BATCH_PICK_BUDGET_NS,
        "amortised batch pick took {batch_pick_ns:.1} ns (budget {BATCH_PICK_BUDGET_NS} ns)"
    );

    // Deterministic op proxies, straight from the shipped cost model
    // and the table's measured probe chain.
    use autokernel_core::decide::cost;
    let table = online.cached().cache().fast_table();
    let probe_length = table
        .probe_length(probe.stable_hash())
        .expect("probe shape installed");
    let single_pick_ops = (probe_length + cost::HIT_EXTRA_LOADS + cost::SINGLE_HIT_RMWS) as f64;
    let batch_probe_ops: u64 = batch
        .iter()
        .map(|s| {
            table
                .probe_length(s.stable_hash())
                .expect("batch shape installed")
                + cost::HIT_EXTRA_LOADS
        })
        .sum();
    let batch_pick_ops_per_kilopick =
        (batch_probe_ops + cost::BATCH_FLUSH_RMWS) as f64 / BATCH_LEN as f64 * 1000.0;

    let result = MicroDecideResult {
        single_pick_ns,
        batch_pick_ns,
        legacy_select_ns,
        single_pick_ops,
        batch_pick_ops_per_kilopick,
        probe_length,
        batch_len: BATCH_LEN,
        single_pick_budget_ns: SINGLE_PICK_BUDGET_NS,
        batch_pick_budget_ns: BATCH_PICK_BUDGET_NS,
    };
    println!(
        "decide: single {single_pick_ns:.1} ns (budget {SINGLE_PICK_BUDGET_NS}), \
         batch {batch_pick_ns:.2} ns/pick (budget {BATCH_PICK_BUDGET_NS}), \
         legacy select {legacy_select_ns:.1} ns, probe length {probe_length}, \
         {single_pick_ops:.0} ops/pick"
    );
    save_result("micro_decide", &result);
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_decide
);
criterion_main!(benches);
