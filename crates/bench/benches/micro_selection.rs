//! Criterion micro-benchmarks of runtime selection latency — the
//! paper's Section IV argument: "there is little to be gained by
//! choosing a complex process to achieve slightly better performance if
//! this leads to significantly more time being spent in that selection
//! process."
//!
//! Compares the cost of one selection decision across classifier
//! families, plus the compiled (nested-`if`) decision tree a library
//! would actually ship, and the serving layer on top: the decision
//! cache (`selection_cache` group, warm-hit vs model
//! inference — the headline is the cached/uncached ratio printed after
//! the group) and batch throughput (`selection_throughput` group,
//! decisions/second via `Throughput::Elements`).

use autokernel_bench::{paper_dataset, save_result, standard_split, MODEL_SEED};
use autokernel_core::cache::CachedSelector;
use autokernel_core::codegen::CompiledTree;
use autokernel_core::resilient::{BreakerState, ResilientExecutor, ResilientPolicy};
use autokernel_core::select::Selector;
use autokernel_core::{PipelineConfig, PruneMethod, SelectorKind, TuningPipeline};
use autokernel_gemm::{GemmShape, KernelConfig, TiledGemmKernel};
use autokernel_sycl_sim::fault::FaultPlan;
use autokernel_sycl_sim::{Buffer, DeviceSpec, Queue};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn bench_selection_latency(c: &mut Criterion) {
    let ds = paper_dataset();
    let split = standard_split(&ds);
    let configs = PruneMethod::DecisionTree
        .select(&ds, &split.train, 8, MODEL_SEED)
        .unwrap();

    let probe = GemmShape::new(3136, 576, 192);
    let mut group = c.benchmark_group("selection_latency");

    for kind in SelectorKind::all() {
        let sel = Selector::train(kind, &ds, &split.train, &configs, MODEL_SEED).unwrap();
        group.bench_with_input(
            BenchmarkId::new("estimator", kind.name()),
            &kind,
            |bench, _| {
                bench.iter(|| black_box(sel.select_shape(black_box(&probe)).unwrap()));
            },
        );
    }

    // The deployed artefact: the flattened nested-if tree.
    let tree = Selector::train(
        SelectorKind::DecisionTree,
        &ds,
        &split.train,
        &configs,
        MODEL_SEED,
    )
    .unwrap();
    let compiled = CompiledTree::from_selector(&tree).unwrap();
    group.bench_function("compiled_nested_ifs", |bench| {
        bench.iter(|| black_box(compiled.select(black_box(&probe))));
    });
    group.finish();
}

fn bench_selection_cache(c: &mut Criterion) {
    let ds = paper_dataset();
    let split = standard_split(&ds);
    let configs = PruneMethod::DecisionTree
        .select(&ds, &split.train, 8, MODEL_SEED)
        .unwrap();
    // The forest is the most expensive model to consult — the regime
    // where caching pays the most.
    let sel = Arc::new(
        Selector::train(
            SelectorKind::RandomForest,
            &ds,
            &split.train,
            &configs,
            MODEL_SEED,
        )
        .unwrap(),
    );
    let probe = GemmShape::new(3136, 576, 192);

    let mut group = c.benchmark_group("selection_cache");
    group.bench_function("uncached_forest", |bench| {
        bench.iter(|| black_box(sel.select_shape(black_box(&probe)).unwrap()));
    });
    let cached = CachedSelector::new(Arc::clone(&sel));
    cached.select(&probe).unwrap(); // warm the one probe shape
    group.bench_function("cached_forest_warm", |bench| {
        bench.iter(|| black_box(cached.select(black_box(&probe)).unwrap()));
    });
    group.finish();

    // Headline number for the serving layer: how much a warm hit saves.
    let reps = 3000u32;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(sel.select_shape(black_box(&probe)).unwrap());
    }
    let uncached_ns = start.elapsed().as_nanos() as f64 / reps as f64;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(cached.select(black_box(&probe)).unwrap());
    }
    let cached_ns = start.elapsed().as_nanos() as f64 / reps as f64;
    println!(
        "selection_cache/speedup: warm hit {cached_ns:.0} ns vs model {uncached_ns:.0} ns -> {:.0}x",
        uncached_ns / cached_ns.max(1.0)
    );
}

fn bench_selection_throughput(c: &mut Criterion) {
    let ds = paper_dataset();
    let split = standard_split(&ds);
    let configs = PruneMethod::DecisionTree
        .select(&ds, &split.train, 8, MODEL_SEED)
        .unwrap();
    // Forest again: batch parallelism only pays when one decision costs
    // microseconds — for the ~100 ns tree, thread fan-out loses.
    let sel = Arc::new(
        Selector::train(
            SelectorKind::RandomForest,
            &ds,
            &split.train,
            &configs,
            MODEL_SEED,
        )
        .unwrap(),
    );
    // A serving batch: 256 decisions over a 16-shape working set.
    let working_set: Vec<GemmShape> = (0..16)
        .map(|i| GemmShape::new(64 + i * 31, 128 + i * 7, 32 + i * 13))
        .collect();
    let batch: Vec<GemmShape> = (0..256)
        .map(|i| working_set[i % working_set.len()])
        .collect();

    let mut group = c.benchmark_group("selection_throughput");
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("sequential_uncached", |bench| {
        bench.iter(|| {
            for shape in &batch {
                black_box(sel.select_shape(black_box(shape)).unwrap());
            }
        });
    });
    group.bench_function("parallel_uncached_select_batch", |bench| {
        bench.iter(|| black_box(sel.select_batch(black_box(&batch)).unwrap()));
    });
    let cached = CachedSelector::new(Arc::clone(&sel));
    for shape in &working_set {
        cached.select(shape).unwrap(); // warm the working set
    }
    group.bench_function("sequential_cached", |bench| {
        bench.iter(|| {
            for shape in &batch {
                black_box(cached.select(black_box(shape)).unwrap());
            }
        });
    });
    group.finish();
}

/// Host-side latency of serving one launch down each level of the
/// resilient fallback chain, against plain (unguarded) submission. All
/// queues are timing-only so kernel bodies never run: the numbers are
/// pure serving overhead — selection, breaker checks, kernel assembly,
/// launch pricing.
#[derive(serde::Serialize)]
struct MicroResilienceResult {
    probe_shape: String,
    plain_submit_ns: f64,
    resilient_primary_ns: f64,
    breaker_open_fallback_ns: f64,
    reference_degrade_ns: f64,
}

fn bench_resilience(c: &mut Criterion) {
    let pipeline = TuningPipeline::from_dataset(paper_dataset(), PipelineConfig::default())
        .expect("pipeline trains");
    let device = Arc::new(DeviceSpec::amd_r9_nano());
    let probe = GemmShape::new(3136, 576, 192);
    let a = Buffer::new_filled(probe.m * probe.k, 1.0f32);
    let b = Buffer::new_filled(probe.k * probe.n, 1.0f32);
    let cbuf = Buffer::new_filled(probe.m * probe.n, 0.0f32);
    let doomed = pipeline.select(&probe).expect("selection succeeds");
    // Breakers must stay open once tripped for a steady-state
    // measurement, so cooldowns are effectively infinite.
    let policy = ResilientPolicy {
        breaker_cooldown_s: 1e12,
        ..ResilientPolicy::default()
    };

    // Plain submission, as an unguarded caller would do it: a bare
    // memoised selector over the pipeline's model, then the queue.
    let plain_queue = Queue::timing_only(device.clone());
    let plain_cache = CachedSelector::new(Arc::clone(pipeline.selector()));
    let run_plain = || {
        let index = plain_cache.select(&probe).expect("selection succeeds");
        let cfg = KernelConfig::from_index(index).expect("a shipped config");
        let kernel = TiledGemmKernel::new(cfg, probe, a.clone(), b.clone(), cbuf.clone())
            .expect("kernel assembles");
        plain_queue
            .submit(&kernel, kernel.preferred_range().expect("valid range"))
            .expect("launch completes")
    };

    // Level 0: healthy device, primary pick runs first try.
    let healthy = pipeline.resilient_executor(Queue::timing_only(device.clone()), policy.clone());

    // Level 1: the primary pick's breaker is open, traffic is served by
    // the next-best shipped config after a quarantine skip.
    let open_plan = Arc::new(FaultPlan::new(3).doom_kernels_matching(format!("gemm_{doomed}_")));
    let open_queue = Queue::timing_only(device.clone()).with_fault_plan(open_plan);
    let breaker_open = pipeline.resilient_executor(open_queue, policy.clone());

    // Level 2: every tiled config is quarantined; only the reference
    // GEMM on the fault-free path can serve.
    let melt_plan = Arc::new(FaultPlan::new(3).doom_kernels_matching("gemm_T"));
    let melt_queue = Queue::timing_only(device).with_fault_plan(melt_plan);
    let degraded = pipeline.resilient_executor(melt_queue, policy);

    // Trip the breakers (threshold failures per doomed config), then
    // confirm the steady state each executor is meant to measure.
    let trip = |executor: &ResilientExecutor| {
        for _ in 0..8 {
            executor
                .launch(probe, &a, &b, &cbuf)
                .expect("resilient launch always completes");
        }
    };
    trip(&breaker_open);
    trip(&degraded);
    assert_eq!(
        breaker_open.breaker_state(doomed.index()),
        Some(BreakerState::Open)
    );
    assert!(!degraded.quarantined().is_empty());

    let mut group = c.benchmark_group("resilience");
    group.bench_function("plain_submit", |bench| {
        bench.iter(|| black_box(run_plain()));
    });
    group.bench_function("resilient_primary", |bench| {
        bench.iter(|| black_box(healthy.launch(probe, &a, &b, &cbuf).unwrap()));
    });
    group.bench_function("breaker_open_fallback", |bench| {
        bench.iter(|| black_box(breaker_open.launch(probe, &a, &b, &cbuf).unwrap()));
    });
    group.bench_function("reference_degrade", |bench| {
        bench.iter(|| black_box(degraded.launch(probe, &a, &b, &cbuf).unwrap()));
    });
    group.finish();

    // Headline + persisted numbers for EXPERIMENTS.md.
    let time_ns = |f: &dyn Fn()| {
        let reps = 2000u32;
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_nanos() as f64 / reps as f64
    };
    let result = MicroResilienceResult {
        probe_shape: probe.to_string(),
        plain_submit_ns: time_ns(&|| {
            black_box(run_plain());
        }),
        resilient_primary_ns: time_ns(&|| {
            black_box(healthy.launch(probe, &a, &b, &cbuf).unwrap());
        }),
        breaker_open_fallback_ns: time_ns(&|| {
            black_box(breaker_open.launch(probe, &a, &b, &cbuf).unwrap());
        }),
        reference_degrade_ns: time_ns(&|| {
            black_box(degraded.launch(probe, &a, &b, &cbuf).unwrap());
        }),
    };
    println!(
        "resilience/launch overhead: plain {:.0} ns, resilient primary {:.0} ns, \
         breaker-open fallback {:.0} ns, reference degrade {:.0} ns",
        result.plain_submit_ns,
        result.resilient_primary_ns,
        result.breaker_open_fallback_ns,
        result.reference_degrade_ns
    );
    save_result("micro_resilience", &result);
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_selection_latency, bench_selection_cache, bench_selection_throughput,
        bench_resilience
);
criterion_main!(benches);
