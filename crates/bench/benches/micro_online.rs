//! Micro-benchmarks of the online adaptation layer: host-side decision
//! latency of the two policy stages (Mirror delegation vs the
//! per-cluster UCB scan), and the acceptance scenario in numbers — a
//! nano → edge_dsp device swap mid-stream, reporting drift-detection
//! latency, adaptation latency (launches until the rolling geomean
//! recovers to 95 % of the post-swap shipped-set oracle), cumulative
//! regret against that oracle, and per-epoch recovery curves for the
//! adaptive and static stacks.

use autokernel_bench::{paper_dataset, save_result};
use autokernel_core::resilient::ResilientPolicy;
use autokernel_core::{OnlineConfig, PipelineConfig, TuningPipeline};
use autokernel_gemm::{model, GemmShape, KernelConfig};
use autokernel_sycl_sim::{Buffer, DeviceSpec, Queue};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Simulated duration of `config_index` on `shape` for `queue`'s
/// device, or `None` when the device rejects the launch.
fn priced(queue: &Queue, shape: &GemmShape, config_index: usize) -> Option<f64> {
    let cfg = KernelConfig::from_index(config_index)?;
    let range = model::launch_range(&cfg, shape).ok()?;
    let profile = model::profile(&cfg, shape, queue.device());
    queue
        .price(&profile, &range, model::noise_seed(&cfg, shape))
        .ok()
        .map(|(_, duration)| duration)
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The acceptance scenario's numbers, persisted for EXPERIMENTS.md.
#[derive(serde::Serialize)]
struct MicroOnlineResult {
    /// Host-side cost of one Mirror-stage decision (cached delegation).
    mirror_pick_ns: f64,
    /// Host-side cost of one adaptive-stage decision (UCB scan under
    /// the cluster mutex).
    adaptive_pick_ns: f64,
    /// Launches after the swap until Page–Hinkley declared drift.
    drift_trip_after_launches: usize,
    /// Launches after the swap until the rolling geomean (one full
    /// 170-shape window) first reached 95 % of the shipped-set oracle.
    adaptation_latency_launches: Option<usize>,
    nano_epochs: usize,
    edge_epochs: usize,
    /// Post-swap per-epoch geomean of oracle/achieved for the adaptive
    /// stack (the recovery curve).
    adaptive_epoch_geomeans: Vec<f64>,
    /// Same stream served by the static pipeline.
    static_epoch_geomeans: Vec<f64>,
    adaptive_final_geomean: f64,
    static_final_geomean: f64,
    /// Post-swap simulated seconds spent above the oracle, cumulative
    /// over the whole edge stream (the adaptive number includes the
    /// bandit's forced-exploration cost).
    adaptive_cumulative_regret_s: f64,
    static_cumulative_regret_s: f64,
    /// Same regret over the final epoch only — the steady state after
    /// exploration is exhausted.
    adaptive_final_epoch_regret_s: f64,
    static_final_epoch_regret_s: f64,
    oracle_definition: String,
}

fn bench_online(c: &mut Criterion) {
    const NANO_EPOCHS: usize = 2;
    const EDGE_EPOCHS: usize = 8;
    const RECOVERY_TARGET: f64 = 0.95;

    let ds = paper_dataset();
    let shapes: Vec<GemmShape> = ds.shapes.clone();
    let nano = Arc::new(DeviceSpec::amd_r9_nano());
    let edge = Arc::new(DeviceSpec::edge_dsp());

    // One trained pipeline; every stack built from it below has its own
    // decision cache and telemetry.
    let pipeline =
        TuningPipeline::from_dataset(ds, PipelineConfig::default()).expect("pipeline trains");

    // Decision-latency group: one pick through each policy stage.
    let probe = GemmShape::new(3136, 576, 192);
    let mirror = pipeline
        .online_selector(OnlineConfig::default())
        .expect("online selector builds");
    mirror.select(&probe).expect("warms the cache");
    let adaptive = pipeline
        .online_selector(OnlineConfig::default())
        .expect("online selector builds");
    adaptive.force_drift();
    adaptive.select(&probe).expect("warms the cluster");

    let mut group = c.benchmark_group("online_pick");
    group.bench_function("mirror_cached", |bench| {
        bench.iter(|| black_box(mirror.select(black_box(&probe)).unwrap()));
    });
    group.bench_function("adaptive_ucb", |bench| {
        bench.iter(|| black_box(adaptive.select(black_box(&probe)).unwrap()));
    });
    group.finish();

    let time_ns = |f: &dyn Fn()| {
        let reps = 3000u32;
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_nanos() as f64 / reps as f64
    };
    let mirror_pick_ns = time_ns(&|| {
        black_box(mirror.select(black_box(&probe)).unwrap());
    });
    let adaptive_pick_ns = time_ns(&|| {
        black_box(adaptive.select(black_box(&probe)).unwrap());
    });

    // The swap scenario. Timing-only queues: every number below is
    // simulated device time, the host never runs kernel bodies.
    let policy = ResilientPolicy::default();
    let (nano_exec, online) = pipeline
        .adaptive_executor(
            Queue::timing_only(Arc::clone(&nano)),
            policy.clone(),
            OnlineConfig::default(),
        )
        .expect("adaptive executor builds");
    let edge_exec = pipeline
        .resilient_executor(Queue::timing_only(Arc::clone(&edge)), policy.clone())
        .with_online(Arc::clone(&online));
    let static_exec = pipeline.resilient_executor(Queue::timing_only(Arc::clone(&edge)), policy);

    let buffers: Vec<_> = shapes
        .iter()
        .map(|&s| {
            (
                Buffer::new_filled(s.m * s.k, 0.0f32),
                Buffer::new_filled(s.k * s.n, 0.0f32),
                Buffer::new_filled(s.m * s.n, 0.0f32),
            )
        })
        .collect();

    for _ in 0..NANO_EPOCHS {
        for (shape, (a, b, cbuf)) in shapes.iter().zip(&buffers) {
            nano_exec.launch(*shape, a, b, cbuf).expect("nano launch");
        }
    }

    // Post-swap shipped-set oracle per shape: best launchable shipped
    // configuration on the edge device.
    let oracle_queue = Queue::timing_only(Arc::clone(&edge));
    let oracle: Vec<f64> = shapes
        .iter()
        .map(|shape| {
            pipeline
                .shipped_configs()
                .iter()
                .filter_map(|&cfg| priced(&oracle_queue, shape, cfg))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();

    let mut drift_trip_after_launches = None;
    let mut adaptation_latency_launches = None;
    let mut ratios: Vec<f64> = Vec::new();
    let mut adaptive_epoch_geomeans = Vec::new();
    let mut adaptive_cumulative_regret_s = 0.0;
    let mut adaptive_final_epoch_regret_s = 0.0;
    for epoch in 0..EDGE_EPOCHS {
        let epoch_start = ratios.len();
        for (i, (shape, (a, b, cbuf))) in shapes.iter().zip(&buffers).enumerate() {
            let report = edge_exec.launch(*shape, a, b, cbuf).expect("edge launch");
            let duration = report.event.duration_s();
            ratios.push(oracle[i] / duration);
            adaptive_cumulative_regret_s += duration - oracle[i];
            if epoch + 1 == EDGE_EPOCHS {
                adaptive_final_epoch_regret_s += duration - oracle[i];
            }
            if drift_trip_after_launches.is_none() && online.is_adaptive() {
                drift_trip_after_launches = Some(ratios.len());
            }
            if adaptation_latency_launches.is_none() && ratios.len() >= shapes.len() {
                let window = &ratios[ratios.len() - shapes.len()..];
                if geomean(window) >= RECOVERY_TARGET {
                    adaptation_latency_launches = Some(ratios.len());
                }
            }
        }
        adaptive_epoch_geomeans.push(geomean(&ratios[epoch_start..]));
    }

    let mut static_epoch_geomeans = Vec::new();
    let mut static_cumulative_regret_s = 0.0;
    let mut static_final_epoch_regret_s = 0.0;
    for epoch in 0..EDGE_EPOCHS {
        let mut epoch_ratios = Vec::new();
        for (i, (shape, (a, b, cbuf))) in shapes.iter().zip(&buffers).enumerate() {
            let report = static_exec
                .launch(*shape, a, b, cbuf)
                .expect("static launch");
            let duration = report.event.duration_s();
            epoch_ratios.push(oracle[i] / duration);
            static_cumulative_regret_s += duration - oracle[i];
            if epoch + 1 == EDGE_EPOCHS {
                static_final_epoch_regret_s += duration - oracle[i];
            }
        }
        static_epoch_geomeans.push(geomean(&epoch_ratios));
    }

    let result = MicroOnlineResult {
        mirror_pick_ns,
        adaptive_pick_ns,
        drift_trip_after_launches: drift_trip_after_launches.unwrap_or(usize::MAX),
        adaptation_latency_launches,
        nano_epochs: NANO_EPOCHS,
        edge_epochs: EDGE_EPOCHS,
        adaptive_final_geomean: *adaptive_epoch_geomeans.last().expect("epochs ran"),
        static_final_geomean: *static_epoch_geomeans.last().expect("epochs ran"),
        adaptive_epoch_geomeans,
        static_epoch_geomeans,
        adaptive_cumulative_regret_s,
        static_cumulative_regret_s,
        adaptive_final_epoch_regret_s,
        static_final_epoch_regret_s,
        oracle_definition: "per-shape minimum simulated duration over the shipped \
            configurations the edge device accepts"
            .to_string(),
    };
    println!(
        "online/swap: drift tripped after {} launches, recovered to {:.0}% of oracle \
         after {:?} launches; final geomean adaptive {:.4} vs static {:.4}; \
         cumulative regret {:.3}s vs {:.3}s (final epoch {:.3}s vs {:.3}s)",
        result.drift_trip_after_launches,
        RECOVERY_TARGET * 100.0,
        result.adaptation_latency_launches,
        result.adaptive_final_geomean,
        result.static_final_geomean,
        result.adaptive_cumulative_regret_s,
        result.static_cumulative_regret_s,
        result.adaptive_final_epoch_regret_s,
        result.static_final_epoch_regret_s,
    );
    save_result("micro_online", &result);
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_online
);
criterion_main!(benches);
