//! Integration tests of the resilient execution layer: the circuit
//! breaker's state machine under arbitrary event sequences, the
//! executor under 8-thread traffic with injected faults, the acceptance
//! scenario over the full 170-shape paper dataset, and bit-identity of
//! the zero-fault path with plain submission.

use autokernel::core::resilient::{BreakerState, CircuitBreaker, ResilientPolicy};
use autokernel::core::{PerformanceDataset, PipelineConfig, TuningPipeline};
use autokernel::gemm::reference::{max_abs_diff, reference_gemm, test_matrices};
use autokernel::gemm::{GemmShape, TiledGemmKernel};
use autokernel::sim::fault::FaultPlan;
use autokernel::sim::trace::{FallbackLevel, TraceRecorder};
use autokernel::sim::{Buffer, Context, DeviceSpec, Queue};
use proptest::prelude::*;
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

/// Each test builds its own pipeline (training is cheap next to
/// collection) so telemetry assertions never observe another test's
/// launches.
fn pipeline_over(dataset: &PerformanceDataset) -> TuningPipeline {
    TuningPipeline::from_dataset(dataset.clone(), PipelineConfig::default())
        .expect("pipeline trains")
}

fn operand_buffers(shape: GemmShape, seed: u64) -> (Buffer<f32>, Buffer<f32>, Buffer<f32>) {
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

    let pipeline = pipeline_over(small_dataset());
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

    let telemetry = pipeline.telemetry();
    let total = (THREADS * LAUNCHES_PER_THREAD) as u64;
    assert_eq!(telemetry.resilient_launches(), total);
    assert!(
        telemetry.launch_failures() > 0,
        "a 30% fault rate must produce failures over {total} launches"
    );
    assert!(telemetry.retries() > 0, "transient faults must be retried");
}

#[test]
fn paper_dataset_run_survives_faults_and_quarantines_the_bad_config() {
    let pipeline = pipeline_over(paper_dataset());

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
    let telemetry = pipeline.telemetry();
    assert_eq!(telemetry.resilient_launches(), shapes.len() as u64);
    assert!(telemetry.retries() > 0, "transient faults must be retried");
    assert!(
        telemetry.breaker_trips() >= 1,
        "the doomed config must trip its breaker"
    );
    assert!(
        telemetry.quarantine_skips() > 0,
        "later picks of the doomed config are skipped"
    );
    assert!(
        telemetry.fallback_next_best() > 0,
        "doomed picks must fall back"
    );
    assert!(degraded > 0);
    assert_ne!(
        executor.breaker_state(doomed_index),
        Some(BreakerState::Closed),
        "the doomed config's breaker must not be healthy after the run"
    );

    // The trace shows the failures and the fallbacks.
    assert_eq!(trace.failed_launches() as u64, telemetry.launch_failures());
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
    let pipeline = pipeline_over(small_dataset());
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
