//! Integration tests for the sharded serving scheduler: routing must be
//! a pure function of the stream, the seed and the shard configuration
//! — and of nothing a trace recorder does — a device failing
//! mid-stream must drain to the survivors without dropping a request,
//! and every member of a coalesced batch must compute its own product.

use autokernel::core::resilient::ResilientPolicy;
use autokernel::core::sched::{
    DeviceShard, GemmRequest, RoutingPolicy, SchedConfig, SchedReport, ShardedScheduler,
};
use autokernel::core::{PerformanceDataset, PipelineConfig, TuningPipeline};
use autokernel::gemm::reference::{reference_gemm, test_matrices};
use autokernel::gemm::GemmShape;
use autokernel::sim::trace::TraceRecorder;
use autokernel::sim::{Buffer, DeviceSpec, FaultPlan, Queue};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::{Arc, OnceLock};

/// Shapes the shared pipeline trains on; also the pool streams draw
/// from, so every request is in-distribution for the selector.
const POOL: [(usize, usize, usize); 12] = [
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
];

fn pipeline() -> &'static TuningPipeline {
    static PIPELINE: OnceLock<TuningPipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        let shapes: Vec<(GemmShape, String)> = POOL
            .iter()
            .map(|&(m, k, n)| (GemmShape::new(m, k, n), "T".to_string()))
            .collect();
        let ds = PerformanceDataset::collect(&DeviceSpec::amd_r9_nano(), &shapes).unwrap();
        TuningPipeline::from_dataset(ds, PipelineConfig::default()).unwrap()
    })
}

fn shape(index: usize) -> GemmShape {
    let (m, k, n) = POOL[index % POOL.len()];
    GemmShape::new(m, k, n)
}

/// A fresh three-device fleet (every call starts from zeroed clocks,
/// cold caches and closed breakers, so two fleets given the same
/// stream are exact replicas).
fn fleet() -> Vec<DeviceShard> {
    let devices = [
        (DeviceSpec::amd_r9_nano(), "nano", 1.0),
        (DeviceSpec::desktop_gpu(), "desktop", 0.8),
        (DeviceSpec::host_cpu(), "cpu", 0.3),
    ];
    devices
        .into_iter()
        .map(|(device, label, fitness)| {
            let queue = Queue::timing_only(Arc::new(device));
            let executor = pipeline()
                .device_executor(queue, ResilientPolicy::default())
                .unwrap();
            DeviceShard::new(label, executor).with_fitness(fitness)
        })
        .collect()
}

fn run(stream: &[GemmRequest], config: SchedConfig) -> (SchedReport, ShardedScheduler) {
    let mut sched = ShardedScheduler::new(fleet(), config).unwrap();
    let report = sched.serve(stream).unwrap();
    (report, sched)
}

fn arb_policy() -> impl Strategy<Value = RoutingPolicy> {
    prop_oneof![
        Just(RoutingPolicy::RoundRobin),
        Just(RoutingPolicy::LeastLoaded),
        Just(RoutingPolicy::PerfAware),
    ]
}

fn arb_stream() -> impl Strategy<Value = Vec<GemmRequest>> {
    proptest::collection::vec((0usize..POOL.len(), 1usize..4), 1..12).prop_map(|bursts| {
        bursts
            .iter()
            .flat_map(|&(idx, burst)| (0..burst).map(move |_| GemmRequest::zeroed(shape(idx))))
            .collect()
    })
}

fn arb_config() -> impl Strategy<Value = SchedConfig> {
    (arb_policy(), 0u64..1000, 1usize..5, 1usize..5).prop_map(
        |(policy, seed, queue_capacity, batch_window)| SchedConfig {
            policy,
            queue_capacity,
            batch_window,
            seed,
            ..SchedConfig::default()
        },
    )
}

/// Two reports of the same stream on replica fleets agree on every
/// routing decision, the wave count, the per-device counts and the
/// simulated makespan, bit for bit.
fn assert_same_outcome(a: &SchedReport, b: &SchedReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.assignments, &b.assignments);
    prop_assert_eq!(a.waves, b.waves);
    prop_assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    prop_assert_eq!(a.devices.len(), b.devices.len());
    for (x, y) in a.devices.iter().zip(&b.devices) {
        prop_assert_eq!(x.served, y.served);
        prop_assert_eq!(x.batches, y.batches);
        prop_assert_eq!(x.reference_fallbacks, y.reference_fallbacks);
        prop_assert_eq!(x.busy_s.to_bits(), y.busy_s.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With a fixed seed, routing, telemetry and even the simulated
    /// makespan are identical across repeat runs on fresh fleets: each
    /// device's launch order (and so its clock history) is fixed by
    /// the plan.
    #[test]
    fn routing_is_deterministic_under_fixed_seed(
        stream in arb_stream(),
        config in arb_config(),
    ) {
        let (report_a, sched_a) = run(&stream, config.clone());
        let (report_b, sched_b) = run(&stream, config);

        prop_assert_eq!(report_a.served, stream.len());
        prop_assert_eq!(report_a.dropped, 0);
        prop_assert_eq!(sched_a.telemetry(), sched_b.telemetry());
        assert_same_outcome(&report_a, &report_b)?;
    }

    /// Tracing only observes: serving the same stream on replica fleets
    /// with and without a trace recorder gives the same plan, the same
    /// per-device counts and a bit-identical makespan, and the trace
    /// holds one decided launch per served request.
    #[test]
    fn traced_serving_matches_untraced_serving(
        stream in arb_stream(),
        config in arb_config(),
    ) {
        let (report, sched) = run(&stream, config.clone());
        let mut traced_sched = ShardedScheduler::new(fleet(), config).unwrap();
        let mut trace = TraceRecorder::new();
        let traced = traced_sched.serve_traced(&stream, &mut trace).unwrap();

        prop_assert_eq!(traced.served, stream.len());
        prop_assert_eq!(trace.decided_launches(), traced.served);
        prop_assert_eq!(sched.telemetry(), traced_sched.telemetry());
        assert_same_outcome(&report, &traced)?;
    }
}

/// The e2e drain scenario the module exists for: three devices serve a
/// stream, and one of them starts failing every kernel mid-stream (a
/// fault plan with an onset, i.e. the first launches are clean). The
/// scheduler must detect the meltdown, drain the shard, re-route its
/// unfinished work and finish the stream with zero drops.
#[test]
fn mid_stream_device_failure_drains_without_drops() {
    // Device 0 is poisoned from its 12th submission on; retries and
    // fallbacks burn through the breaker budget quickly after that.
    let doomed_queue =
        Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano())).with_fault_plan(Arc::new(
            FaultPlan::new(41)
                .doom_kernels_matching("gemm")
                .with_onset(12),
        ));
    let doomed = DeviceShard::new(
        "doomed",
        pipeline()
            .device_executor(doomed_queue, ResilientPolicy::default())
            .unwrap(),
    );
    let survivors = [
        (DeviceSpec::amd_r9_nano(), "nano"),
        (DeviceSpec::desktop_gpu(), "desktop"),
    ]
    .into_iter()
    .map(|(device, label)| {
        let queue = Queue::timing_only(Arc::new(device));
        let executor = pipeline()
            .device_executor(queue, ResilientPolicy::default())
            .unwrap();
        DeviceShard::new(label, executor)
    });

    let mut shards = vec![doomed];
    shards.extend(survivors);
    let mut sched = ShardedScheduler::new(
        shards,
        SchedConfig {
            // Round-robin keeps feeding the doomed shard until its
            // meltdown is detected — the worst case for draining.
            policy: RoutingPolicy::RoundRobin,
            queue_capacity: 4,
            batch_window: 1,
            meltdown_threshold: 2,
            ..SchedConfig::default()
        },
    )
    .unwrap();

    let stream: Vec<GemmRequest> = (0..60).map(|i| GemmRequest::zeroed(shape(i))).collect();
    let report = sched.serve(&stream).unwrap();

    assert_eq!(
        report.served,
        stream.len(),
        "graceful degradation, not loss"
    );
    assert_eq!(report.dropped, 0);
    assert!(
        !sched.is_healthy(0),
        "the poisoned shard must be drained mid-stream"
    );
    assert!(sched.is_healthy(1) && sched.is_healthy(2));
    let per_device: u64 = report.devices.iter().map(|d| d.served).sum();
    assert_eq!(
        per_device as usize,
        stream.len(),
        "every request accounted for"
    );
    assert!(
        report.devices[0].served < stream.len() as u64 / 3,
        "the doomed shard must not have carried its full round-robin share"
    );
    assert!(
        sched.telemetry().rebalanced > 0,
        "work left in the dead shard's queue must be re-routed, not dropped"
    );
    // The survivors absorbed the drained traffic.
    assert!(report.devices[1].served + report.devices[2].served > 40);
}

/// Serving twice through the same scheduler keeps working after a
/// drain: the dead shard stays out of rotation and new streams still
/// complete.
#[test]
fn scheduler_keeps_serving_after_a_drain() {
    let doomed_queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()))
        .with_fault_plan(Arc::new(FaultPlan::new(7).doom_kernels_matching("gemm")));
    let doomed = DeviceShard::new(
        "doomed",
        pipeline()
            .device_executor(doomed_queue, ResilientPolicy::default())
            .unwrap(),
    );
    let healthy = DeviceShard::new(
        "healthy",
        pipeline()
            .device_executor(
                Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano())),
                ResilientPolicy::default(),
            )
            .unwrap(),
    );
    let mut sched = ShardedScheduler::new(
        vec![doomed, healthy],
        SchedConfig {
            policy: RoutingPolicy::RoundRobin,
            meltdown_threshold: 2,
            batch_window: 1,
            ..SchedConfig::default()
        },
    )
    .unwrap();

    let first: Vec<GemmRequest> = (0..20).map(|i| GemmRequest::zeroed(shape(i))).collect();
    let report = sched.serve(&first).unwrap();
    assert_eq!(report.served, 20);
    assert!(!sched.is_healthy(0));

    let second: Vec<GemmRequest> = (0..10).map(|i| GemmRequest::zeroed(shape(i))).collect();
    let report = sched.serve(&second).unwrap();
    assert_eq!(report.served, 10);
    assert_eq!(report.dropped, 0);
    assert_eq!(
        report.devices[0].served, 0,
        "a drained shard receives no traffic in later streams"
    );
}

/// Coalesced batches share one decision and one prepared launch, but
/// each member runs the kernel on its own operands, on every rung. One
/// shard dooms the shape's primary pick, so its batches fall back to
/// next-best configurations; the other dooms every tiled kernel, so
/// its batches run the reference GEMM. Each `C` starts as NaN and must
/// end as its own product.
#[test]
fn every_member_of_a_coalesced_batch_computes_its_own_product() {
    let shape = GemmShape::new(48, 40, 56);
    let primary = pipeline().select(&shape).unwrap();
    let shard = |label: &str, doomed: String| {
        let queue = Queue::new(Arc::new(DeviceSpec::amd_r9_nano()))
            .with_fault_plan(Arc::new(FaultPlan::new(3).doom_kernels_matching(doomed)));
        let executor = pipeline()
            .device_executor(queue, ResilientPolicy::default())
            .unwrap();
        DeviceShard::new(label, executor)
    };
    let mut sched = ShardedScheduler::new(
        vec![
            shard("next-best", format!("gemm_{primary}_")),
            shard("reference", "gemm_T".to_string()),
        ],
        SchedConfig {
            policy: RoutingPolicy::RoundRobin,
            batch_window: 4,
            meltdown_threshold: 64,
            ..SchedConfig::default()
        },
    )
    .unwrap();
    let stream: Vec<GemmRequest> = (0..16)
        .map(|i| {
            let (a, b) = test_matrices(shape, 100 + i);
            GemmRequest::new(
                shape,
                Buffer::from_vec(a),
                Buffer::from_vec(b),
                Buffer::new_filled(shape.m * shape.n, f32::NAN),
            )
        })
        .collect();
    let report = sched.serve(&stream).unwrap();

    assert_eq!(report.served, stream.len());
    assert!(
        sched.telemetry().batched > 0,
        "same-shape requests must coalesce"
    );
    assert!(report.devices.iter().all(|d| d.served > 0));
    let next_best = sched.shard(0).unwrap().executor().selector().telemetry();
    assert!(
        next_best.snapshot().fallback_next_best > 0,
        "next-best rung ran"
    );
    assert!(
        report.devices[1].reference_fallbacks > 0,
        "reference rung ran"
    );
    for (i, request) in stream.iter().enumerate() {
        let mut expect = vec![0.0f32; shape.m * shape.n];
        reference_gemm(shape, &request.a.to_vec(), &request.b.to_vec(), &mut expect);
        let got = request.c.to_vec();
        assert!(
            got.iter().zip(&expect).all(|(x, y)| (x - y).abs() < 1e-4),
            "request {i} did not compute its own product"
        );
    }
}
