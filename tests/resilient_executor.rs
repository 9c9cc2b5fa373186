//! Integration tests of the resilient execution layer: the circuit
//! breaker's state machine under arbitrary event sequences, the
//! executor under 8-thread traffic with injected faults, the acceptance
//! scenario over the full 170-shape paper dataset, bit-identity of
//! the zero-fault path with plain submission, and batched launches
//! against the same requests launched one by one.

use autokernel::core::cache::{BoundedCacheConfig, CachedSelector};
use autokernel::core::resilient::{
    BreakerState, CircuitBreaker, LaunchReport, ResilientExecutor, ResilientPolicy,
};
use autokernel::core::{
    OnlineConfig, OnlineSelector, PerformanceDataset, PipelineConfig, TuningPipeline,
};
use autokernel::gemm::reference::{max_abs_diff, reference_gemm, test_matrices};
use autokernel::gemm::{GemmShape, TiledGemmKernel};
use autokernel::sim::fault::FaultPlan;
use autokernel::sim::trace::{FallbackLevel, TraceRecorder};
use autokernel::sim::{Buffer, Context, DeviceSpec, Event, Queue};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};

/// The paper dataset, collected once for the whole test binary.
fn paper_dataset() -> &'static PerformanceDataset {
    static DS: OnceLock<PerformanceDataset> = OnceLock::new();
    DS.get_or_init(|| {
        PerformanceDataset::collect_paper_dataset(&DeviceSpec::amd_r9_nano())
            .expect("dataset collects")
    })
}

/// A quick-to-collect dataset for tests that really execute kernel
/// bodies.
fn small_dataset() -> &'static PerformanceDataset {
    static DS: OnceLock<PerformanceDataset> = OnceLock::new();
    DS.get_or_init(|| {
        let shapes: Vec<(GemmShape, String)> = [
            (64, 64, 64),
            (512, 512, 512),
            (1, 4096, 1000),
            (12544, 27, 64),
            (196, 2304, 256),
            (3136, 144, 24),
            (49, 960, 160),
            (784, 1152, 128),
            (32, 4096, 4096),
            (2, 2048, 1000),
            (6272, 576, 128),
            (1024, 1024, 1024),
        ]
        .iter()
        .map(|&(m, k, n)| (GemmShape::new(m, k, n), "T".to_string()))
        .collect();
        PerformanceDataset::collect(&DeviceSpec::amd_r9_nano(), &shapes).expect("dataset collects")
    })
}

fn train(dataset: &PerformanceDataset) -> TuningPipeline {
    TuningPipeline::from_dataset(dataset.clone(), PipelineConfig::default())
        .expect("pipeline trains")
}

/// The pipelines, trained once for the whole test binary. A pipeline
/// holds no serving state: every executor built from it gets its own
/// cache, telemetry and breakers.
fn small_pipeline() -> &'static TuningPipeline {
    static PIPELINE: OnceLock<TuningPipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| train(small_dataset()))
}

fn paper_pipeline() -> &'static TuningPipeline {
    static PIPELINE: OnceLock<TuningPipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| train(paper_dataset()))
}

/// One request's `A`, `B` and `C`.
type Operands = (Buffer<f32>, Buffer<f32>, Buffer<f32>);

fn operand_buffers(shape: GemmShape, seed: u64) -> Operands {
    let (a, b) = test_matrices(shape, seed);
    (
        Buffer::from_vec(a),
        Buffer::from_vec(b),
        Buffer::new_filled(shape.m * shape.n, 0.0f32),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// The two breaker invariants, under arbitrary sequences of time
    /// steps, outcomes and hung probes: an open breaker never admits a
    /// launch, and a half-open breaker admits exactly one probe until
    /// that probe reports back.
    #[test]
    fn breaker_state_machine_invariants(
        ops in proptest::collection::vec(
            (any::<bool>(), any::<bool>(), 0u32..40), 1..=80),
        threshold in 1u32..5,
    ) {
        let b = CircuitBreaker::new(threshold, 1.0);
        let mut now = 0.0f64;
        let mut probe_outstanding = false;
        for (fail, report, dt) in ops {
            now += dt as f64 * 0.1; // steps of 0..4s against a 1s cooldown
            let before = b.state(now);
            let admitted = b.admit(now);
            match before {
                BreakerState::Open => {
                    prop_assert!(!admitted, "quarantined config was served while open");
                }
                BreakerState::Closed => prop_assert!(admitted, "closed breaker must admit"),
                BreakerState::HalfOpen => {
                    prop_assert_eq!(
                        admitted, !probe_outstanding,
                        "half-open must admit exactly one probe"
                    );
                }
            }
            if admitted {
                if before == BreakerState::HalfOpen {
                    probe_outstanding = true;
                }
                if report {
                    if fail {
                        b.on_failure(now);
                    } else {
                        b.on_success();
                    }
                    probe_outstanding = false;
                }
            }
        }
    }
}

#[test]
fn eight_threads_of_faulty_traffic_all_complete_with_correct_results() {
    const THREADS: usize = 8;
    const LAUNCHES_PER_THREAD: usize = 6;

    let pipeline = small_pipeline();
    let device = Arc::new(DeviceSpec::amd_r9_nano());
    let plan = Arc::new(FaultPlan::new(97).with_transient_rate(0.30));
    let queue = Context::new(device).create_queue().with_fault_plan(plan);
    let executor = pipeline.resilient_executor(queue, ResilientPolicy::default());

    let shapes: Vec<GemmShape> = (0..THREADS)
        .map(|i| GemmShape::new(24 + i * 7, 16 + i * 5, 20 + i * 3))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let executor = &executor;
            let shapes = &shapes;
            scope.spawn(move || {
                for i in 0..LAUNCHES_PER_THREAD {
                    let shape = shapes[(t + i) % shapes.len()];
                    let (a, b, c) = operand_buffers(shape, (t * 100 + i) as u64);
                    let report = executor
                        .launch(shape, &a, &b, &c)
                        .expect("resilient launch always completes");
                    assert!(!report.event.is_failed());
                    let (av, bv) = (a.to_vec(), b.to_vec());
                    let mut expect = vec![0.0f32; shape.m * shape.n];
                    reference_gemm(shape, &av, &bv, &mut expect);
                    assert!(
                        max_abs_diff(&c.to_vec(), &expect) < 1e-3,
                        "thread {t} launch {i} produced a wrong product on {shape}"
                    );
                }
            });
        }
    });

    let telemetry = executor.selector().telemetry().snapshot();
    let total = (THREADS * LAUNCHES_PER_THREAD) as u64;
    assert_eq!(telemetry.resilient_launches, total);
    assert!(
        telemetry.launch_failures > 0,
        "a 30% fault rate must produce failures over {total} launches"
    );
    assert!(telemetry.retries > 0, "transient faults must be retried");
}

#[test]
fn paper_dataset_run_survives_faults_and_quarantines_the_bad_config() {
    let pipeline = paper_pipeline();

    // Find the configuration the selector leans on hardest: dooming it
    // guarantees primary-path failures.
    let shapes: Vec<GemmShape> = paper_dataset().shapes.clone();
    let mut counts = std::collections::HashMap::new();
    for shape in &shapes {
        let cfg = pipeline.select(shape).expect("selection succeeds");
        *counts.entry(cfg).or_insert(0usize) += 1;
    }
    let (&doomed, &doomed_picks) = counts.iter().max_by_key(|&(_, &n)| n).unwrap();
    assert!(doomed_picks >= 4, "most-picked config must recur");
    let doomed_index = doomed.index();

    // 30% transient launch failures plus one permanently failing
    // shipped config — the acceptance scenario.
    let plan = Arc::new(
        FaultPlan::new(42)
            .with_transient_rate(0.30)
            .doom_kernels_matching(format!("gemm_{doomed}_")),
    );
    let device = Arc::new(DeviceSpec::amd_r9_nano());
    let queue = Queue::timing_only(device).with_fault_plan(plan);
    let executor = pipeline.resilient_executor(queue, ResilientPolicy::default());

    let mut trace = TraceRecorder::new();
    let mut degraded = 0usize;
    for (i, &shape) in shapes.iter().enumerate() {
        // Timing-only queue: bodies never run, so zeroed operands are
        // enough and the 170 launches stay cheap.
        let a = Buffer::new_filled(shape.m * shape.k, 0.0f32);
        let b = Buffer::new_filled(shape.k * shape.n, 0.0f32);
        let c = Buffer::new_filled(shape.m * shape.n, 0.0f32);
        let report = executor
            .launch_traced(shape, &a, &b, &c, &mut trace, "serve")
            .unwrap_or_else(|e| panic!("launch {i} for {shape} must complete: {e}"));
        assert!(!report.event.is_failed());
        if report.decision.fallback.is_degraded() {
            degraded += 1;
            assert_ne!(
                report.config.map(|c| c.index()),
                Some(doomed_index),
                "a degraded launch must not land on the doomed config"
            );
        }
    }

    // Every launch completed; the doomed config is quarantined.
    let telemetry = executor.selector().telemetry().snapshot();
    assert_eq!(telemetry.resilient_launches, shapes.len() as u64);
    assert!(telemetry.retries > 0, "transient faults must be retried");
    assert!(
        telemetry.breaker_trips >= 1,
        "the doomed config must trip its breaker"
    );
    assert!(
        telemetry.quarantine_skips > 0,
        "later picks of the doomed config are skipped"
    );
    assert!(
        telemetry.fallback_next_best > 0,
        "doomed picks must fall back"
    );
    assert!(degraded > 0);
    assert_ne!(
        executor.breaker_state(doomed_index),
        Some(BreakerState::Closed),
        "the doomed config's breaker must not be healthy after the run"
    );

    // The trace shows the failures and the fallbacks.
    assert_eq!(trace.failed_launches() as u64, telemetry.launch_failures);
    assert!(trace.failed_launches() > 0);
    assert_eq!(trace.degraded_launches(), degraded);
    let json = trace.to_chrome_trace();
    assert!(json.contains("\"fault\":\"resource_starvation\""));
    assert!(json.contains("\"fault\":\"transient_launch\""));
    assert!(json.contains("\"fallback\":\"next_best_"));
    serde_json::from_str::<serde_json::Value>(&json).expect("trace stays valid JSON");
}

#[test]
fn zero_fault_plan_is_bit_identical_to_plain_submission() {
    let pipeline = small_pipeline();
    let device = Arc::new(DeviceSpec::amd_r9_nano());
    let shapes: Vec<GemmShape> = (0..8)
        .map(|i| GemmShape::new(16 + i * 9, 12 + i * 5, 14 + i * 7))
        .collect();

    // Resilient path with an inert plan, against plain submission
    // exactly as PR 1 serves launches. Both queues start their private
    // timelines at zero.
    let guarded_queue = Queue::new(device.clone()).with_fault_plan(Arc::new(FaultPlan::none()));
    let executor = pipeline.resilient_executor(guarded_queue, ResilientPolicy::default());
    let plain_queue = Queue::new(device);

    for (i, &shape) in shapes.iter().enumerate() {
        let (ra, rb, rc) = operand_buffers(shape, i as u64);
        let report = executor
            .launch(shape, &ra, &rb, &rc)
            .expect("launch completes");
        assert!(report.is_clean(), "no faults: the pick must run first try");
        assert_eq!(report.decision.attempts, 0);
        assert_eq!(report.decision.fallback, FallbackLevel::Primary);

        let (pa, pb, pc) = operand_buffers(shape, i as u64);
        let config = pipeline.select(&shape).expect("selection succeeds");
        assert_eq!(report.config, Some(config));
        let kernel = TiledGemmKernel::new(config, shape, pa, pb, pc.clone()).unwrap();
        let event = plain_queue
            .submit(&kernel, kernel.preferred_range().unwrap())
            .unwrap();

        assert_eq!(
            report.event, event,
            "events must be bit-identical on {shape}"
        );
        let (got, want) = (rc.to_vec(), pc.to_vec());
        assert_eq!(got.len(), want.len());
        assert!(
            got.iter()
                .zip(&want)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "results must be bit-identical on {shape}"
        );
    }
}

/// Shapes with an empty `C` (4×4×0, 0×4×4) or an empty reduction
/// (4×0×4) run their kernel bodies on an executing queue and complete
/// with the product `reference_gemm` computes: nothing, or zeros.
#[test]
fn zero_width_shapes_complete_with_the_reference_product() {
    let pipeline = small_pipeline();
    let queue = Queue::new(Arc::new(DeviceSpec::amd_r9_nano()));
    let executor = pipeline.resilient_executor(queue, ResilientPolicy::default());
    for (m, k, n) in [(4, 4, 0), (0, 4, 4), (4, 0, 4)] {
        let shape = GemmShape::new(m, k, n);
        let (a, b, _) = operand_buffers(shape, 3);
        let c = Buffer::new_filled(m * n, f32::NAN);
        let report = executor
            .launch(shape, &a, &b, &c)
            .unwrap_or_else(|e| panic!("{shape} must complete: {e}"));
        assert!(!report.event.is_failed());
        let mut expect = vec![f32::NAN; m * n];
        reference_gemm(shape, &a.to_vec(), &b.to_vec(), &mut expect);
        assert_eq!(c.to_vec(), expect, "{shape}");
    }
}

/// An attached online layer owns every counter: an executor built over
/// a cache of its own adopts the online layer's cache on `with_online`,
/// so each launch's decision and its outcome land in one telemetry
/// block and the executor's first cache counts nothing.
#[test]
fn an_attached_online_layer_owns_every_counter() {
    const LAUNCHES: usize = 12;
    let pipeline = small_pipeline();
    let own = Arc::new(CachedSelector::new(Arc::clone(pipeline.selector())));
    let online = pipeline
        .online_selector(OnlineConfig::default())
        .expect("online layer builds");
    let executor = ResilientExecutor::new(
        Arc::clone(&own),
        Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano())),
        pipeline.shipped_configs().to_vec(),
        ResilientPolicy::default(),
    )
    .with_online(Arc::clone(&online));
    for i in 0..LAUNCHES {
        let (a, b, c) = &diff_operands()[i % DIFF_POOL.len()];
        executor
            .launch(diff_shape(i), a, b, c)
            .expect("launch completes");
    }
    assert!(std::ptr::eq(executor.selector(), online.cached()));
    let telemetry = online.cached().telemetry().snapshot();
    assert_eq!(telemetry.resilient_launches, LAUNCHES as u64);
    assert_eq!(
        telemetry.hits + telemetry.misses,
        LAUNCHES as u64,
        "one decision per launch"
    );
    let own = own.telemetry().snapshot();
    assert_eq!(own.resilient_launches, 0);
    assert_eq!(own.hits + own.misses, 0);
}

/// Every telemetry capture is consistent while the block is being
/// written: seven threads launch through one mirror-stage executor,
/// single and in batches, while an eighth keeps taking `snapshot()` and
/// `export_state()`. Each capture must see the picks sum to `hits +
/// misses`, and no more launches than decisions. The launchers keep
/// going until the reader has captured often, so every check runs
/// mid-stream.
#[test]
fn telemetry_captures_are_consistent_while_serving() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const LAUNCHERS: usize = 7;
    const ROUNDS: usize = 100;
    const CAPTURES: usize = 200;
    let (executor, online) = small_pipeline()
        .adaptive_executor(
            Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano())),
            ResilientPolicy::default(),
            OnlineConfig::default(),
        )
        .expect("executor builds");
    let telemetry = executor.selector().telemetry();
    let captured = AtomicUsize::new(0);
    let check = |hits: u64, misses: u64, picks: u64, launches: u64, adaptive: u64| {
        assert_eq!(picks, hits + misses, "picks must sum to hits + misses");
        assert!(
            launches <= hits + misses + adaptive,
            "{launches} launches counted before their decisions ({hits} + {misses} + {adaptive})"
        );
    };
    let launches: u64 = std::thread::scope(|scope| {
        let launchers: Vec<_> = (0..LAUNCHERS)
            .map(|t| {
                let (executor, captured) = (&executor, &captured);
                scope.spawn(move || {
                    let mut launches = 0u64;
                    let mut round = 0;
                    while round < ROUNDS || captured.load(Ordering::Acquire) < CAPTURES {
                        let index = t + round;
                        let (a, b, c) = &diff_operands()[index % DIFF_POOL.len()];
                        if round % 2 == 0 {
                            executor
                                .launch(diff_shape(index), a, b, c)
                                .expect("launch completes");
                            launches += 1;
                        } else {
                            let operands = std::iter::repeat_n((a, b, c), 4);
                            executor
                                .launch_batch(diff_shape(index), operands, |_| {
                                    ControlFlow::Continue(())
                                })
                                .expect("batch completes");
                            launches += 4;
                        }
                        round += 1;
                    }
                    launches
                })
            })
            .collect();
        while !launchers.iter().all(|launcher| launcher.is_finished()) {
            let snap = telemetry.snapshot();
            let picks = snap.picks.iter().map(|p| p.count).sum();
            check(
                snap.hits,
                snap.misses,
                picks,
                snap.resilient_launches,
                snap.adaptive_picks,
            );
            let state = telemetry.export_state();
            let picks = state.picks.iter().sum();
            check(
                state.hits,
                state.misses,
                picks,
                state.resilient_launches,
                state.adaptive_picks,
            );
            captured.fetch_add(1, Ordering::Release);
        }
        launchers
            .into_iter()
            .map(|launcher| launcher.join().expect("launcher finishes"))
            .sum()
    });
    assert!(!online.is_adaptive(), "no drift on a fault-free queue");
    let snap = telemetry.snapshot();
    assert_eq!(snap.resilient_launches, launches);
    assert_eq!(snap.hits + snap.misses, launches);
}

/// The fallback-chain pruning an executor counted at construction moves
/// with it when it adopts an online layer's cache.
#[test]
fn with_online_carries_the_chain_pruning_count() {
    let pipeline = small_pipeline();
    let edge = Queue::timing_only(Arc::new(DeviceSpec::edge_dsp()));
    let executor = pipeline
        .device_executor(edge, ResilientPolicy::default())
        .expect("executor builds");
    let pruned = executor
        .selector()
        .telemetry()
        .snapshot()
        .fallback_skipped_invalid;
    assert!(pruned > 0, "the edge DSP rejects part of the shipped set");
    let online = pipeline
        .online_selector(OnlineConfig::default())
        .expect("online layer builds");
    let _executor = executor.with_online(Arc::clone(&online));
    assert_eq!(
        online
            .cached()
            .telemetry()
            .snapshot()
            .fallback_skipped_invalid,
        pruned
    );
}

// ---------------------------------------------------------------------------
// Batched launches against per-request launches
// ---------------------------------------------------------------------------

/// Shapes the differential replays draw batches from.
const DIFF_POOL: [(usize, usize, usize); 8] = [
    (64, 64, 64),
    (512, 512, 512),
    (196, 2304, 256),
    (3136, 144, 24),
    (49, 960, 160),
    (784, 1152, 128),
    (2, 2048, 1000),
    (100, 37, 53),
];

fn diff_shape(index: usize) -> GemmShape {
    let (m, k, n) = DIFF_POOL[index % DIFF_POOL.len()];
    GemmShape::new(m, k, n)
}

/// Zeroed operands per pool shape. The replays run on timing-only
/// queues, so no body reads or writes them.
fn diff_operands() -> &'static [Operands] {
    static OPERANDS: OnceLock<Vec<Operands>> = OnceLock::new();
    OPERANDS.get_or_init(|| {
        (0..DIFF_POOL.len())
            .map(|i| {
                let shape = diff_shape(i);
                (
                    Buffer::new_filled(shape.m * shape.k, 0.0f32),
                    Buffer::new_filled(shape.k * shape.n, 0.0f32),
                    Buffer::new_filled(shape.m * shape.n, 0.0f32),
                )
            })
            .collect()
    })
}

/// The shipped configuration the selector picks most often over the
/// pool: dooming it guarantees primary-path failures.
fn most_picked_config() -> String {
    let mut counts = std::collections::HashMap::new();
    for i in 0..DIFF_POOL.len() {
        let config = small_pipeline().select(&diff_shape(i)).expect("selects");
        *counts.entry(config.to_string()).or_insert(0usize) += 1;
    }
    let (config, _) = counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("non-empty pool");
    config
}

/// A timing-only queue with transient faults, one doomed shipped
/// configuration and a fault onset. Each call builds its own plan, so
/// two replicas count submissions independently.
fn faulty_queue(seed: u64, onset: u64) -> Queue {
    let plan = FaultPlan::new(seed)
        .with_transient_rate(0.2)
        .doom_kernels_matching(format!("gemm_{}_", most_picked_config()))
        .with_onset(onset);
    Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano())).with_fault_plan(Arc::new(plan))
}

/// Serve `batches` through `launch_batch`, one call per batch. `after`
/// sees each report's position in its batch and the batch size.
fn serve_batched(
    executor: &ResilientExecutor,
    batches: &[(usize, usize)],
    mut after: impl FnMut(usize, usize),
) -> Vec<LaunchReport> {
    let mut reports = Vec::new();
    for &(pool_index, size) in batches {
        let (a, b, c) = &diff_operands()[pool_index];
        let mut position = 0;
        executor
            .launch_batch(
                diff_shape(pool_index),
                std::iter::repeat_n((a, b, c), size),
                |report| {
                    reports.push(report);
                    after(position, size);
                    position += 1;
                    ControlFlow::Continue(())
                },
            )
            .expect("a batch always completes");
    }
    reports
}

/// Serve the same requests through one `launch` each.
fn serve_one_by_one(executor: &ResilientExecutor, batches: &[(usize, usize)]) -> Vec<LaunchReport> {
    let mut reports = Vec::new();
    for &(pool_index, size) in batches {
        let (a, b, c) = &diff_operands()[pool_index];
        for _ in 0..size {
            let report = executor
                .launch(diff_shape(pool_index), a, b, c)
                .expect("a launch always completes");
            reports.push(report);
        }
    }
    reports
}

fn same_event(a: &Event, b: &Event) -> bool {
    a.kernel_name() == b.kernel_name()
        && a.start_s().to_bits() == b.start_s().to_bits()
        && a.end_s().to_bits() == b.end_s().to_bits()
        && a.status() == b.status()
}

fn assert_same_reports(
    batched: &[LaunchReport],
    single: &[LaunchReport],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(batched.len(), single.len());
    for (i, (x, y)) in batched.iter().zip(single).enumerate() {
        prop_assert!(
            same_event(&x.event, &y.event),
            "request {}: {:?} vs {:?}",
            i,
            x.event,
            y.event
        );
        prop_assert_eq!(x.decision, y.decision, "request {}", i);
        prop_assert_eq!(x.config, y.config, "request {}", i);
        prop_assert_eq!(x.failures.len(), y.failures.len(), "request {}", i);
        for (f, g) in x.failures.iter().zip(&y.failures) {
            prop_assert_eq!(f.config_index, g.config_index, "request {}", i);
            prop_assert_eq!(&f.error, &g.error, "request {}", i);
            let events_match = match (&f.event, &g.event) {
                (Some(e), Some(h)) => same_event(e, h),
                (None, None) => true,
                _ => false,
            };
            prop_assert!(events_match, "request {}: failure events differ", i);
        }
    }
    Ok(())
}

/// Every telemetry counter, with the wall-clock decision latencies
/// (which no two runs share) zeroed.
fn counters(executor: &ResilientExecutor) -> String {
    let mut snapshot = executor.selector().telemetry().snapshot();
    snapshot.mean_hit_nanos = 0.0;
    snapshot.mean_miss_nanos = 0.0;
    snapshot.decision_p50_ns = 0.0;
    snapshot.decision_p99_ns = 0.0;
    serde_json::to_string(&snapshot).expect("telemetry serialises")
}

fn assert_same_state(
    batched: &ResilientExecutor,
    single: &ResilientExecutor,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        batched.queue().now_s().to_bits(),
        single.queue().now_s().to_bits()
    );
    prop_assert_eq!(batched.ranking(), single.ranking());
    for config in 0..640 {
        prop_assert_eq!(
            batched.breaker_state(config),
            single.breaker_state(config),
            "breaker of config {}",
            config
        );
    }
    prop_assert_eq!(counters(batched), counters(single));
    let (x, y) = (batched.selector().cache(), single.selector().cache());
    prop_assert_eq!(x.footprint(), y.footprint());
    prop_assert_eq!(x.evictions(), y.evictions());
    prop_assert_eq!(x.admission_rejects(), y.admission_rejects());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A batch launches exactly what its requests launched one by one
    /// would: the same events on the same timeline, the same decisions,
    /// fallbacks and absorbed failures, and afterwards the same
    /// breakers, clock and counters.
    #[test]
    fn batched_launches_match_per_request_launches(
        batches in proptest::collection::vec((0..DIFF_POOL.len(), 1usize..=6), 1..=16),
        seed in 0u64..1000,
        onset in 0u64..24,
        bounded in any::<bool>(),
    ) {
        // The bounded cache holds four shapes and admits a shape on its
        // second miss, so batches also replay misses the cache refused
        // to memoise and decisions it evicted.
        let build = || {
            let queue = faulty_queue(seed, onset);
            let policy = ResilientPolicy::default();
            let cache = BoundedCacheConfig {
                capacity: 4,
                admit_threshold: 2,
                ..BoundedCacheConfig::default()
            };
            if bounded {
                small_pipeline().device_bounded_executor(queue, policy, cache)
            } else {
                small_pipeline().device_executor(queue, policy)
            }
            .expect("executor builds")
        };
        let (batched, single) = (build(), build());
        let batched_reports = serve_batched(&batched, &batches, |_, _| {});
        let single_reports = serve_one_by_one(&single, &batches);
        assert_same_reports(&batched_reports, &single_reports)?;
        assert_same_state(&batched, &single)?;
        let telemetry = batched.selector().telemetry().snapshot();
        prop_assert_eq!(
            telemetry.hits + telemetry.misses,
            telemetry.resilient_launches,
            "every launch counts one decision"
        );
    }
}

/// The same equivalence with an online layer whose drift detector trips
/// in the middle of a batch: the requests after the trip must take the
/// adaptive stage's picks, exactly as per-request launches do.
#[test]
fn batched_launches_match_per_request_launches_across_a_drift_trip() {
    let config = OnlineConfig {
        fault_slowdown: 12.0,
        ..OnlineConfig::default()
    };
    let build = |seed: u64| -> (ResilientExecutor, Arc<OnlineSelector>) {
        small_pipeline()
            .device_adaptive_executor(faulty_queue(seed, 4), ResilientPolicy::default(), config)
            .expect("executor builds")
    };
    let batches: Vec<(usize, usize)> = (0..24).map(|i| (i % DIFF_POOL.len(), 6)).collect();
    let mut tripped_mid_batch = 0;
    for seed in 0..4 {
        let (batched, batched_online) = build(seed);
        let (single, single_online) = build(seed);
        let mut generation = batched_online.generation();
        let batched_reports = serve_batched(&batched, &batches, |position, size| {
            let now = batched_online.generation();
            if now != generation && position + 1 < size {
                tripped_mid_batch += 1;
            }
            generation = now;
        });
        let single_reports = serve_one_by_one(&single, &batches);
        assert_same_reports(&batched_reports, &single_reports).unwrap();
        assert_same_state(&batched, &single).unwrap();
        assert_eq!(batched_online.generation(), single_online.generation());
        assert_eq!(
            serde_json::to_string(&batched_online.stats()).unwrap(),
            serde_json::to_string(&single_online.stats()).unwrap()
        );
    }
    assert!(
        tripped_mid_batch > 0,
        "the scenario must trip drift in the middle of a batch"
    );
}
