//! Micro-benchmark of the durable-state layer: snapshot capture +
//! atomic save, load + corruption-checked restore, and the recovery
//! value itself — how many launches a warm restart needs to reach
//! sustained oracle-level serving versus a cold start on the same
//! device.
//!
//! Reported and gated: the deterministic recovery economics
//! (`cold_recovery_launches`, `warm_recovery_launches` — baseline 0,
//! so a warm restart that has to relearn anything fails the gate —
//! and `restore_dropped_sections`, also 0: a clean snapshot must
//! restore whole) plus wall-clock smoke guardrails for the save and
//! restore paths (wide tolerance: they carry an fsync).

use autokernel_bench::save_result;
use autokernel_core::resilient::ResilientPolicy;
use autokernel_core::{
    OnlineConfig, PerformanceDataset, PipelineConfig, RestoreOutcome, Snapshot, TuningPipeline,
};
use autokernel_gemm::GemmShape;
use autokernel_sycl_sim::{Buffer, DeviceSpec, Queue};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Serving rounds per recovery measurement (12 shapes each).
const ROUNDS: usize = 16;

fn shapes() -> Vec<(GemmShape, String)> {
    [
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
    .map(|&(m, k, n)| (GemmShape::new(m, k, n), "conv/fc".to_string()))
    .collect()
}

/// Evidence-decisive bandit config: once every arm is measured the
/// pick is the measured-best arm, so "launches until sustained
/// oracle-level serving" is deterministic and well-defined.
fn learn_config() -> OnlineConfig {
    OnlineConfig {
        exploration: 0.02,
        prior_weight: 0.0,
        ..OnlineConfig::default()
    }
}

fn zero_buffers(shape: GemmShape) -> (Buffer<f32>, Buffer<f32>, Buffer<f32>) {
    (
        Buffer::new_filled(shape.m * shape.k, 0.0f32),
        Buffer::new_filled(shape.k * shape.n, 0.0f32),
        Buffer::new_filled(shape.m * shape.n, 0.0f32),
    )
}

/// Per-shape best shipped-config duration on `device`.
fn shipped_oracle(pipeline: &TuningPipeline, device: &Arc<DeviceSpec>) -> Vec<f64> {
    use autokernel_gemm::{model, KernelConfig};
    let queue = Queue::timing_only(Arc::clone(device));
    pipeline
        .dataset()
        .shapes
        .iter()
        .map(|shape| {
            pipeline
                .shipped_configs()
                .iter()
                .filter_map(|&c| {
                    let cfg = KernelConfig::from_index(c)?;
                    let range = model::launch_range(&cfg, shape).ok()?;
                    let profile = model::profile(&cfg, shape, queue.device());
                    queue
                        .price(&profile, &range, model::noise_seed(&cfg, shape))
                        .ok()
                        .map(|(_, d)| d)
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Launches until every later launch serves at >= 99% of the oracle.
fn launches_until_stable(ratios: &[f64]) -> usize {
    let mut first = ratios.len();
    while first > 0 && ratios[first - 1] >= 0.99 {
        first -= 1;
    }
    first
}

#[derive(serde::Serialize)]
struct MicroPersistResult {
    /// Launches a cold (post-drift, empty bandit) stack needs before
    /// sustained oracle-level serving.
    cold_recovery_launches: u64,
    /// Same measurement for a stack warm-restarted from the snapshot.
    /// Gated at 0: restored evidence must make relearning unnecessary.
    warm_recovery_launches: u64,
    /// Sections the restore of a clean snapshot had to drop. Gated at
    /// 0: any positive value is corruption tolerance firing on healthy
    /// data.
    restore_dropped_sections: u64,
    /// Snapshot file size for the 12-shape learned stack.
    snapshot_bytes: u64,
    /// Capture + encode + atomic write (tmp, fsync, rename).
    snapshot_save_ns: f64,
    /// Read + per-section CRC verification + apply into a live stack.
    snapshot_restore_ns: f64,
}

fn bench_persist(c: &mut Criterion) {
    let nano = DeviceSpec::amd_r9_nano();
    let gpu = Arc::new(DeviceSpec::desktop_gpu());
    let dataset = PerformanceDataset::collect(&nano, &shapes()).expect("dataset collects");
    let pool: Vec<GemmShape> = dataset.shapes.clone();
    let buffers: Vec<_> = pool.iter().map(|&s| zero_buffers(s)).collect();
    let dir = std::env::temp_dir().join(format!("autokernel-micro-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("serving.snap");

    let serve = |exec: &autokernel_core::ResilientExecutor, oracle: &[f64]| -> Vec<f64> {
        let mut ratios = Vec::with_capacity(ROUNDS * pool.len());
        for _ in 0..ROUNDS {
            for ((shape, (a, b, c)), &best) in pool.iter().zip(&buffers).zip(oracle) {
                let report = exec.launch(*shape, a, b, c).expect("launch completes");
                assert!(!report.event.is_failed());
                ratios.push(best / report.event.duration_s());
            }
        }
        ratios
    };

    // Cold: a fresh post-drift stack pays the full adaptation price.
    let pipeline = TuningPipeline::from_dataset(dataset.clone(), PipelineConfig::default())
        .expect("pipeline trains");
    let oracle = shipped_oracle(&pipeline, &gpu);
    let (exec, online) = pipeline
        .adaptive_executor(
            Queue::timing_only(Arc::clone(&gpu)),
            ResilientPolicy::default(),
            learn_config(),
        )
        .expect("adaptive executor builds");
    online.force_drift();
    let cold = launches_until_stable(&serve(&exec, &oracle));

    // Snapshot the converged stack, crash it, warm-restart a fresh one.
    Snapshot::new(&gpu)
        .capture_stack(&online)
        .save(&path)
        .expect("snapshot saves");
    drop((exec, online, pipeline));

    let restored = Snapshot::load(&path).expect("snapshot loads");
    let fresh = TuningPipeline::from_dataset(dataset.clone(), PipelineConfig::default())
        .expect("pipeline trains");
    let (exec, online) = fresh
        .adaptive_executor(
            Queue::timing_only(Arc::clone(&gpu)),
            ResilientPolicy::default(),
            learn_config(),
        )
        .expect("adaptive executor builds");
    let outcome = restored.restore_stack(&online, &gpu);
    let dropped = match &outcome {
        RestoreOutcome::Full => 0,
        RestoreOutcome::Partial { dropped } => dropped.len() as u64,
        RestoreOutcome::ColdStart { error } => panic!("clean snapshot cold-started: {error}"),
    };
    let warm = launches_until_stable(&serve(&exec, &oracle));
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot stat").len();

    // Wall-clock of the two durable-state primitives, on the live
    // (post-recovery) stack.
    let time_ns = |f: &mut dyn FnMut(), reps: u32| {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_nanos() as f64 / reps as f64
    };
    let snapshot_save_ns = time_ns(
        &mut || {
            Snapshot::new(&gpu)
                .capture_stack(&online)
                .save(&path)
                .expect("snapshot saves");
        },
        200,
    );
    let snapshot_restore_ns = time_ns(
        &mut || {
            let snapshot = Snapshot::load(&path).expect("snapshot loads");
            black_box(snapshot.restore_stack(&online, &gpu));
        },
        200,
    );

    let mut group = c.benchmark_group("persist");
    group.bench_function("capture_encode", |bench| {
        bench.iter(|| {
            black_box(Snapshot::new(&gpu).capture_stack(&online).to_json()).expect("encodes")
        });
    });
    group.bench_function("decode_verify", |bench| {
        let json = Snapshot::new(&gpu)
            .capture_stack(&online)
            .to_json()
            .expect("encodes");
        bench.iter(|| black_box(Snapshot::from_json(black_box(&json))).expect("decodes"));
    });
    group.finish();

    let result = MicroPersistResult {
        cold_recovery_launches: cold as u64,
        warm_recovery_launches: warm as u64,
        restore_dropped_sections: dropped,
        snapshot_bytes,
        snapshot_save_ns,
        snapshot_restore_ns,
    };
    println!(
        "persist: cold {} launches to oracle, warm {}, {} dropped section(s), \
         snapshot {} bytes, save {:.1} us, load+restore {:.1} us",
        result.cold_recovery_launches,
        result.warm_recovery_launches,
        result.restore_dropped_sections,
        result.snapshot_bytes,
        result.snapshot_save_ns / 1e3,
        result.snapshot_restore_ns / 1e3,
    );
    save_result("micro_persist", &result);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_persist
);
criterion_main!(benches);
