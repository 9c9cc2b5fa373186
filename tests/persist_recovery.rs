//! Integration tests of `core::persist`: the crash-recovery acceptance
//! scenario (drift trips mid-stream, the process dies, the warm
//! restart reaches the shipped-set oracle in a tenth of the cold-start
//! launches), corruption-tolerant restore under every injected fault
//! (typed outcomes, zero panics, zero silent drops), exact ingress
//! accounting across a restart, concurrent snapshot-while-serving
//! consistency, and cross-device transplant warm start.

use autokernel::core::persist::{
    self, ArmState, CacheEntryState, CacheShardState, CacheState, ClusterSnapshot, OnlineState,
    TelemetryState,
};
use autokernel::core::resilient::ResilientPolicy;
use autokernel::core::telemetry::LATENCY_BUCKETS;
use autokernel::core::{
    DeviceShard, GemmRequest, Ingress, IngressConfig, IngressRequest, OnlineConfig,
    PerformanceDataset, PipelineConfig, RestoreOutcome, SchedConfig, ShardedScheduler, Snapshot,
    SnapshotError, SnapshotFault, SnapshotFaultInjector, SnapshotterConfig, TuningPipeline,
};
use autokernel::gemm::{model, GemmShape, KernelConfig};
use autokernel::sim::{Buffer, DeviceSpec, Queue};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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
    .map(|&(m, k, n)| (GemmShape::new(m, k, n), "T".to_string()))
    .collect()
}

/// The small dataset, collected once for the whole test binary.
fn dataset() -> &'static PerformanceDataset {
    static DS: OnceLock<PerformanceDataset> = OnceLock::new();
    DS.get_or_init(|| {
        PerformanceDataset::collect(&DeviceSpec::amd_r9_nano(), &shapes())
            .expect("dataset collects")
    })
}

/// A freshly trained pipeline. Crash tests drop the old stack, model
/// included, and restart from nothing but the snapshot file.
fn pipeline() -> TuningPipeline {
    TuningPipeline::from_dataset(dataset().clone(), PipelineConfig::default())
        .expect("pipeline trains")
}

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
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn zero_buffers(shape: GemmShape) -> (Buffer<f32>, Buffer<f32>, Buffer<f32>) {
    (
        Buffer::new_filled(shape.m * shape.k, 0.0f32),
        Buffer::new_filled(shape.k * shape.n, 0.0f32),
        Buffer::new_filled(shape.m * shape.n, 0.0f32),
    )
}

/// A unique scratch directory for a test's snapshot files.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("autokernel-persist-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Per-shape best shipped-config duration on `queue`'s device.
fn shipped_oracle(pipeline: &TuningPipeline, queue: &Queue, shapes: &[GemmShape]) -> Vec<f64> {
    shapes
        .iter()
        .map(|shape| {
            pipeline
                .shipped_configs()
                .iter()
                .filter_map(|&c| priced(queue, shape, c))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Serve `rounds` passes over `shapes` on `exec`, returning each
/// launch's oracle-relative ratio (1.0 = oracle-fast) in launch order.
fn serve_rounds(
    exec: &autokernel::core::resilient::ResilientExecutor,
    shapes: &[GemmShape],
    buffers: &[(Buffer<f32>, Buffer<f32>, Buffer<f32>)],
    oracle: &[f64],
    rounds: usize,
) -> Vec<f64> {
    let mut ratios = Vec::with_capacity(rounds * shapes.len());
    for _ in 0..rounds {
        for ((shape, (a, b, c)), &best) in shapes.iter().zip(buffers).zip(oracle) {
            let report = exec.launch(*shape, a, b, c).expect("launch completes");
            assert!(!report.event.is_failed(), "every launch must complete");
            ratios.push(best / report.event.duration_s());
        }
    }
    ratios
}

/// The smallest launch index from which every later launch stays at or
/// above `bar` — "launches needed before sustained oracle-level
/// serving". `None` if the run never settles.
fn launches_until_stable(ratios: &[f64], bar: f64) -> Option<usize> {
    let mut first = ratios.len();
    while first > 0 && ratios[first - 1] >= bar {
        first -= 1;
    }
    (first < ratios.len()).then_some(first)
}

/// The acceptance scenario. Phase 1: a nano-trained adaptive stack
/// serves on the nano (bit-identical mirror), then the queue is
/// swapped for an edge DSP — drift trips naturally and the bandit
/// relearns, which costs a measurable number of launches (the *cold*
/// adaptation price). The converged state is snapshotted to disk and
/// the stack is dropped (the crash). Phase 2: a completely fresh stack
/// warm-restarts from the snapshot and must reach sustained ≥ 0.99 of
/// the shipped-set oracle within a tenth of the cold launches.
#[test]
fn crash_recovery_reaches_oracle_in_a_tenth_of_cold_launches() {
    const ROUNDS: usize = 30;
    let shapes: Vec<GemmShape> = dataset().shapes.clone();
    let buffers: Vec<_> = shapes.iter().map(|&s| zero_buffers(s)).collect();
    let nano = Arc::new(DeviceSpec::amd_r9_nano());
    let gpu = Arc::new(DeviceSpec::desktop_gpu());
    let dir = scratch("crash-recovery");
    let path = dir.join("serving.snap");

    // --- Phase 1: learn on the replacement device the hard way. ---
    // A small exploration coefficient and a zero prior weight keep
    // this UCB but make live evidence decisive: once every arm is
    // measured the bandit *stays* at the oracle, so "launches until
    // sustained oracle-level serving" is well-defined — and the whole
    // point of persistence is that those measurements survive.
    let learn = OnlineConfig {
        exploration: 0.02,
        prior_weight: 0.0,
        ..OnlineConfig::default()
    };
    let pipe = pipeline();
    let policy = ResilientPolicy::default();
    let (nano_exec, online) = pipe
        .adaptive_executor(Queue::timing_only(Arc::clone(&nano)), policy.clone(), learn)
        .expect("adaptive executor builds");
    for (shape, (a, b, c)) in shapes.iter().zip(&buffers) {
        nano_exec.launch(*shape, a, b, c).expect("nano launch");
    }
    assert!(!online.is_adaptive(), "no drift on the training device");

    // The nano dies and is replaced by an edge DSP: structural
    // rejections and order-of-magnitude slowdowns trip Page–Hinkley
    // within a few launches. Stop the moment it trips — the drift
    // transition has just reset the bandit for relearning.
    let edge_exec = pipe
        .resilient_executor(
            Queue::timing_only(Arc::new(DeviceSpec::edge_dsp())),
            policy.clone(),
        )
        .with_online(Arc::clone(&online));
    'trip: for _ in 0..5 {
        for (shape, (a, b, c)) in shapes.iter().zip(&buffers) {
            edge_exec.launch(*shape, a, b, c).expect("edge launch");
            if online.is_adaptive() {
                break 'trip;
            }
        }
    }
    assert!(online.is_adaptive(), "the device swap must trip drift");
    drop(edge_exec);

    // The replacement fleet lands on a desktop GPU, where four of the
    // shipped configurations launch with a real performance spread —
    // the bandit has to pay a measurable cold adaptation price.
    let gpu_exec = pipe
        .resilient_executor(Queue::timing_only(Arc::clone(&gpu)), policy.clone())
        .with_online(Arc::clone(&online));
    let probe = Queue::timing_only(Arc::clone(&gpu));
    let oracle = shipped_oracle(&pipe, &probe, &shapes);
    assert!(oracle.iter().all(|d| d.is_finite()));

    let cold_ratios = serve_rounds(&gpu_exec, &shapes, &buffers, &oracle, ROUNDS);
    let cold_launches = launches_until_stable(&cold_ratios, 0.99)
        .expect("cold adaptation must eventually settle at the oracle");
    assert!(
        cold_launches > 0,
        "a cold start must pay a real adaptation price"
    );

    // The last snapshot before the crash, exactly as the background
    // snapshotter would have written it.
    Snapshot::new(&gpu)
        .with_seq(7)
        .capture_stack(&online)
        .save(&path)
        .expect("snapshot saves");
    drop(gpu_exec);
    drop(nano_exec);
    drop(online);
    drop(pipe); // the crash: nothing survives but the snapshot file

    // --- Phase 2: warm restart into a completely fresh stack. ---
    let restored = Snapshot::load(&path).expect("snapshot loads");
    assert_eq!(restored.seq, 7);
    let fresh_pipe = pipeline();
    let (warm_exec, warm_online) = fresh_pipe
        .adaptive_executor(Queue::timing_only(Arc::clone(&gpu)), policy.clone(), learn)
        .expect("adaptive executor builds");
    let outcome = restored.restore_stack(&warm_online, &gpu);
    assert_eq!(outcome, RestoreOutcome::Full, "every section must apply");
    assert!(
        warm_online.is_adaptive(),
        "a restored selector resumes in the adaptive stage"
    );
    assert!(
        warm_online.generation() >= 1,
        "the drift generation survives the restart"
    );
    assert!(
        warm_exec.selector().telemetry().snapshot().drift_events >= 1,
        "restart-spanning telemetry stays cumulative"
    );

    let warm_ratios = serve_rounds(&warm_exec, &shapes, &buffers, &oracle, ROUNDS);
    let warm_launches =
        launches_until_stable(&warm_ratios, 0.99).expect("warm restart must serve at oracle level");
    let first_round = &warm_ratios[..shapes.len()];
    println!(
        "cold launches to oracle: {cold_launches}, warm: {warm_launches}, \
         warm first-round geomean {:.4}",
        geomean(first_round)
    );
    assert!(
        geomean(first_round) >= 0.99,
        "the warm stack's first round must already serve at >= 99% of the oracle"
    );
    assert!(
        warm_launches * 10 <= cold_launches,
        "warm restart must cost <= 10% of cold adaptation \
         (warm {warm_launches}, cold {cold_launches})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn adaptive_shard(pipe: &TuningPipeline, label: &str) -> DeviceShard {
    let queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()));
    let (exec, _online) = pipe
        .device_adaptive_executor(queue, ResilientPolicy::default(), OnlineConfig::default())
        .expect("adaptive shard builds");
    DeviceShard::new(label, exec)
}

/// A fleet snapshot whose shard carries one malformed bandit cluster
/// restores `Partial`, naming the dropped cluster as a stack restore
/// names it, under the shard's label — never silently `Full`.
#[test]
fn fleet_restore_names_a_dropped_bandit_cluster() {
    let nano = DeviceSpec::amd_r9_nano();
    let pipe = pipeline();
    let (exec, online) = pipe
        .device_adaptive_executor(
            Queue::timing_only(Arc::new(nano.clone())),
            ResilientPolicy::default(),
            OnlineConfig::default(),
        )
        .expect("adaptive shard builds");
    online.force_drift();
    let mut sched =
        ShardedScheduler::new(vec![DeviceShard::new("nano", exec)], SchedConfig::default())
            .expect("scheduler builds");
    let requests: Vec<GemmRequest> = dataset()
        .shapes
        .iter()
        .take(6)
        .map(|&shape| GemmRequest::zeroed(shape))
        .collect();
    sched.serve(&requests).expect("the fleet serves");

    let mut fleet = sched.export_state();
    let arm = fleet.shards[0]
        .online
        .as_mut()
        .and_then(|state| state.clusters.first_mut())
        .and_then(|cluster| cluster.arms.first_mut())
        .expect("adaptive serving grew a bandit cluster");
    arm.completions = arm.pulls + 1;
    let mut snapshot = Snapshot::new(&nano);
    snapshot.fleet = Some(fleet);

    let mut fresh =
        ShardedScheduler::new(vec![adaptive_shard(&pipe, "nano")], SchedConfig::default())
            .expect("scheduler builds");
    assert_eq!(
        snapshot.restore_fleet(&mut fresh, &nano),
        RestoreOutcome::Partial {
            dropped: vec!["fleet.nano.online:1-clusters".to_string()]
        }
    );
}

/// A snapshot written while the decision cache still kept a generation
/// restores whole: the cache section's extra `generation` field is
/// ignored, so the format needs no new version.
#[test]
fn cache_section_with_a_generation_field_restores_full() {
    let nano = DeviceSpec::amd_r9_nano();
    let pipe = pipeline();
    let (exec, online) = pipe
        .adaptive_executor(
            Queue::timing_only(Arc::new(nano.clone())),
            ResilientPolicy::default(),
            OnlineConfig::default(),
        )
        .expect("adaptive executor builds");
    for &shape in dataset().shapes.iter().take(6) {
        let (a, b, c) = zero_buffers(shape);
        exec.launch(shape, &a, &b, &c).expect("launch");
    }
    let snapshot = Snapshot::new(&nano).capture_stack(&online);

    // Rewrite the cache section as the older format encoded it, with a
    // CRC over the older body.
    let section = |body: &str| {
        serde_json::to_string(&serde_json::Value::Object(vec![
            (
                "name".to_string(),
                serde_json::Value::Str("cache".to_string()),
            ),
            (
                "crc".to_string(),
                serde_json::Value::Num(persist::crc32(body.as_bytes()) as f64),
            ),
            ("body".to_string(), serde_json::Value::Str(body.to_string())),
        ]))
        .expect("encodes")
    };
    let body = serde_json::to_string(snapshot.cache.as_ref().expect("captured")).expect("encodes");
    assert!(!body.contains("generation"));
    let older_body = body.replacen('{', "{\"generation\":3,", 1);
    let json = snapshot.to_json().expect("encodes");
    let older = json.replacen(&section(&body), &section(&older_body), 1);
    assert_ne!(older, json, "the cache section must have been rewritten");

    let loaded = Snapshot::from_json(&older).expect("loads");
    assert!(loaded.dropped.is_empty(), "{:?}", loaded.dropped);
    let (_, fresh_online) = pipeline()
        .adaptive_executor(
            Queue::timing_only(Arc::new(nano.clone())),
            ResilientPolicy::default(),
            OnlineConfig::default(),
        )
        .expect("adaptive executor builds");
    assert_eq!(
        loaded.restore_stack(&fresh_online, &nano),
        RestoreOutcome::Full
    );
    assert_eq!(
        fresh_online.cached().cached_shapes(),
        online.cached().cached_shapes()
    );
}

/// Ingress accounting across a restart: phase 1 serves through a
/// snapshotting ingress and is *dropped* (the crash — its report is
/// lost, only the on-drain snapshot survives); phase 2 warm-restarts a
/// fresh scheduler from the snapshot and keeps serving. The restored
/// shard's cumulative served counter spans both phases, and phase 2's
/// report satisfies `submitted == served + shed` exactly.
#[test]
fn ingress_accounting_is_exact_across_snapshot_restart() {
    let dir = scratch("ingress-restart");
    let path = dir.join("fleet.snap");
    let nano = DeviceSpec::amd_r9_nano();
    let pipe = pipeline();
    let config = IngressConfig {
        dispatch_chunk: 8,
        ..IngressConfig::default()
    };
    let snapshots = SnapshotterConfig::new(&path, nano.clone()).with_cadence(1);
    let pool: Vec<GemmShape> = dataset().shapes.clone();

    // --- Phase 1: serve 48 requests, then crash (drop). ---
    let sched = ShardedScheduler::new(vec![adaptive_shard(&pipe, "nano")], SchedConfig::default())
        .expect("scheduler builds");
    let ingress = Ingress::start_with_snapshots(sched, config, snapshots.clone());
    for i in 0..48usize {
        let request = IngressRequest::new(GemmRequest::zeroed(pool[i % pool.len()]));
        assert!(ingress.submit(request).expect("submit").is_enqueued());
    }
    drop(ingress); // crash: Drop joins the dispatcher, the report is lost
    assert!(
        path.exists(),
        "the on-drain snapshot must have been written"
    );

    // --- Phase 2: warm restart a fresh scheduler from the snapshot. ---
    let fresh_pipe = pipeline();
    let sched2 = ShardedScheduler::new(
        vec![adaptive_shard(&fresh_pipe, "nano")],
        SchedConfig::default(),
    )
    .expect("scheduler builds");
    let (ingress2, outcome) = Ingress::start_restored(sched2, config, snapshots);
    assert!(
        outcome.is_warm(),
        "the snapshot must restore warm, got {outcome:?}"
    );
    for i in 0..32usize {
        let request = IngressRequest::new(GemmRequest::zeroed(pool[i % pool.len()]));
        assert!(ingress2.submit(request).expect("submit").is_enqueued());
    }
    let (report, sched2) = ingress2.finish().expect("finish");
    assert!(report.accounted(), "submitted == served + shed: {report:?}");
    assert_eq!(report.submitted, 32);
    assert_eq!(report.served, 32);
    assert!(
        report.snapshots_written >= 1,
        "the restarted ingress keeps snapshotting"
    );
    let fleet = sched2.export_state();
    assert_eq!(
        fleet.shards[0].served, 80,
        "the served counter must span the restart (48 before + 32 after)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every injected corruption produces a typed `RestoreOutcome` and the
/// serving stack still completes all launches — zero panics, zero
/// silent drops, and a torn rename never costs the previous snapshot.
#[test]
fn every_injected_fault_degrades_typed_and_serving_continues() {
    let dir = scratch("fault-matrix");
    let pristine = dir.join("pristine.snap");
    let shapes: Vec<GemmShape> = dataset().shapes.clone();
    let buffers: Vec<_> = shapes.iter().map(|&s| zero_buffers(s)).collect();
    let nano = Arc::new(DeviceSpec::amd_r9_nano());

    // Build real learned state to snapshot.
    let pipe = pipeline();
    let (exec, online) = pipe
        .adaptive_executor(
            Queue::timing_only(Arc::clone(&nano)),
            ResilientPolicy::default(),
            OnlineConfig::default(),
        )
        .expect("adaptive executor builds");
    online.force_drift();
    for (shape, (a, b, c)) in shapes.iter().zip(&buffers) {
        exec.launch(*shape, a, b, c).expect("launch");
    }
    Snapshot::new(&nano)
        .capture_stack(&online)
        .save(&pristine)
        .expect("snapshot saves");
    let original_online =
        serde_json::to_string(&Snapshot::load(&pristine).expect("pristine loads").online)
            .expect("encodes");

    let injector = SnapshotFaultInjector::new(0xC0FFEE);
    let faults = [
        SnapshotFault::Truncate { keep_fraction: 0.5 },
        SnapshotFault::BitFlips { count: 8 },
        SnapshotFault::TornRename,
        SnapshotFault::StaleVersion,
        SnapshotFault::WrongDevice,
    ];
    for fault in &faults {
        let label = fault.label();
        let path = dir.join(format!("{label}.snap"));
        std::fs::copy(&pristine, &path).expect("copy");
        injector.inject(&path, fault).expect("injection applies");

        // A fresh stack attempts a warm restart from the corrupted file.
        let fresh = pipeline();
        let (fresh_exec, fresh_online) = fresh
            .adaptive_executor(
                Queue::timing_only(Arc::clone(&nano)),
                ResilientPolicy::default(),
                OnlineConfig::default(),
            )
            .expect("fresh executor builds");
        let outcome = match Snapshot::load(&path) {
            Ok(snapshot) => snapshot.restore_stack(&fresh_online, &nano),
            Err(error) => RestoreOutcome::ColdStart { error },
        };
        match *fault {
            SnapshotFault::Truncate { .. } => assert!(
                matches!(
                    outcome,
                    RestoreOutcome::ColdStart {
                        error: SnapshotError::Malformed(_)
                    }
                ),
                "truncation: {outcome:?}"
            ),
            SnapshotFault::BitFlips { .. } => {
                // Wherever the flips landed, the outcome is typed and —
                // when the online section survived — byte-identical to
                // the original (the CRC catches every silent change).
                if let Ok(snapshot) = Snapshot::load(&path) {
                    if snapshot.online.is_some() && !snapshot.dropped.iter().any(|d| d == "online")
                    {
                        assert_eq!(
                            serde_json::to_string(&snapshot.online).expect("encodes"),
                            original_online,
                            "a surviving online section must be unmodified"
                        );
                    }
                }
            }
            SnapshotFault::TornRename => {
                assert!(
                    path.with_extension("snap.tmp").exists()
                        || dir.join(format!("{label}.snap.tmp")).exists(),
                    "a torn rename leaves a stray tmp file"
                );
                assert_eq!(
                    outcome,
                    RestoreOutcome::Full,
                    "the previous snapshot survives a torn rename"
                );
            }
            SnapshotFault::StaleVersion => assert!(
                matches!(
                    outcome,
                    RestoreOutcome::ColdStart {
                        error: SnapshotError::VersionSkew { .. }
                    }
                ),
                "stale version: {outcome:?}"
            ),
            SnapshotFault::WrongDevice => assert!(
                matches!(
                    outcome,
                    RestoreOutcome::ColdStart {
                        error: SnapshotError::DeviceMismatch { .. }
                    }
                ),
                "wrong device: {outcome:?}"
            ),
        }

        // Whatever the outcome, the stack completes every launch.
        for (shape, (a, b, c)) in shapes.iter().zip(&buffers) {
            let report = fresh_exec.launch(*shape, a, b, c).expect("launch");
            assert!(!report.event.is_failed(), "{label}: launches must complete");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A synthetic snapshot with every section populated, for corruption
/// proptests (no serving stack needed).
fn synthetic_snapshot() -> Snapshot {
    let mut snapshot = Snapshot::new(&DeviceSpec::amd_r9_nano()).with_seq(9);
    snapshot.online = Some(OnlineState {
        adaptive: true,
        generation: 2,
        shipped: vec![3, 5, 8],
        ph_n: 17,
        ph_mean_x: 1.01,
        ph_m: 0.4,
        ph_min_m: -0.2,
        clusters: vec![ClusterSnapshot {
            key: [6, 6, 6],
            arms: vec![
                ArmState {
                    prior: 0.9,
                    pulls: 12,
                    completions: 12,
                    sum_duration_s: 0.0012,
                    disabled: false,
                },
                ArmState {
                    prior: 0.5,
                    pulls: 3,
                    completions: 2,
                    sum_duration_s: 0.0009,
                    disabled: false,
                },
                ArmState {
                    prior: 0.1,
                    pulls: 1,
                    completions: 0,
                    sum_duration_s: 0.0,
                    disabled: true,
                },
            ],
        }],
    });
    snapshot.cache = Some(CacheState {
        shards: vec![CacheShardState {
            tick: 41,
            entries: vec![CacheEntryState {
                shape: GemmShape::new(64, 64, 64),
                config_index: 5,
                last_used: 40,
            }],
        }],
        bloom: None,
    });
    snapshot.telemetry = Some(TelemetryState {
        hits: 10,
        misses: 3,
        hit_nanos: 1000,
        miss_nanos: 9000,
        shipped: vec![3, 5, 8],
        picks: vec![7, 4, 2],
        resilient_launches: 13,
        launch_failures: 1,
        retries: 1,
        breaker_trips: 0,
        quarantine_skips: 0,
        fallback_next_best: 1,
        fallback_reference: 0,
        fallback_skipped_invalid: 0,
        reward_updates: 12,
        drift_events: 1,
        adaptive_picks: 9,
        stale_rewards_dropped: 0,
        latency_buckets: vec![0; LATENCY_BUCKETS],
    });
    snapshot
}

fn pristine_json() -> &'static String {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| synthetic_snapshot().to_json().expect("encodes"))
}

fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The surviving-section property: any section a corrupted parse still
/// reports (present, not dropped) must be byte-identical to the
/// original — the per-section CRC turns every silent modification into
/// a typed drop.
fn assert_survivors_unmodified(corrupted: &[u8]) {
    let text = String::from_utf8_lossy(corrupted);
    let pristine = synthetic_snapshot();
    match Snapshot::from_json(&text) {
        Err(_) => {} // typed cold start
        Ok(snapshot) => {
            let dropped = |name: &str| snapshot.dropped.iter().any(|d| d == name);
            assert_eq!(snapshot.device, pristine.device, "device is CRC-verified");
            if snapshot.online.is_some() && !dropped("online") {
                assert_eq!(
                    serde_json::to_string(&snapshot.online).expect("encodes"),
                    serde_json::to_string(&pristine.online).expect("encodes")
                );
            }
            if snapshot.cache.is_some() && !dropped("cache") {
                assert_eq!(
                    serde_json::to_string(&snapshot.cache).expect("encodes"),
                    serde_json::to_string(&pristine.cache).expect("encodes")
                );
            }
            if snapshot.telemetry.is_some() && !dropped("telemetry") {
                assert_eq!(
                    serde_json::to_string(&snapshot.telemetry).expect("encodes"),
                    serde_json::to_string(&pristine.telemetry).expect("encodes")
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any truncation of a valid snapshot yields a typed outcome —
    /// never a panic, never silently-wrong state.
    #[test]
    fn any_truncation_is_typed_or_unmodified(cut in 0usize..=4096) {
        let bytes = pristine_json().as_bytes();
        let cut = cut.min(bytes.len());
        assert_survivors_unmodified(&bytes[..cut]);
    }

    /// Any combination of bit flips yields a typed outcome, and every
    /// section that still parses is byte-identical to the original.
    #[test]
    fn any_bit_flips_are_typed_or_unmodified(seed in any::<u64>(), count in 1u64..24) {
        let mut bytes = pristine_json().as_bytes().to_vec();
        let len = bytes.len() as u64;
        for i in 0..count {
            let r = splitmix(seed, i);
            bytes[(r % len) as usize] ^= 1 << ((r >> 48) % 8);
        }
        assert_survivors_unmodified(&bytes);
    }
}

/// Eight threads hammer one adaptive stack — seven serving, one
/// snapshotting concurrently. Every captured snapshot must be
/// internally consistent (arm invariants hold, the envelope
/// round-trips) and the final state must restore into a fresh stack.
#[test]
fn snapshot_while_serving_stays_consistent_across_8_threads() {
    let shapes: Vec<GemmShape> = dataset().shapes.clone();
    let nano = Arc::new(DeviceSpec::amd_r9_nano());
    let pipe = pipeline();
    let (exec, online) = pipe
        .adaptive_executor(
            Queue::timing_only(Arc::clone(&nano)),
            ResilientPolicy::default(),
            OnlineConfig::default(),
        )
        .expect("adaptive executor builds");
    online.force_drift();

    std::thread::scope(|scope| {
        for worker in 0..7usize {
            let exec = &exec;
            let shapes = &shapes;
            scope.spawn(move || {
                for i in 0..40usize {
                    let shape = shapes[(worker * 5 + i) % shapes.len()];
                    let (a, b, c) = zero_buffers(shape);
                    exec.launch(shape, &a, &b, &c).expect("launch");
                }
            });
        }
        let online = &online;
        let nano = &nano;
        scope.spawn(move || {
            for _ in 0..60usize {
                let state = online.export_state();
                for cluster in &state.clusters {
                    assert_eq!(cluster.arms.len(), state.shipped.len());
                    for arm in &cluster.arms {
                        assert!(arm.completions <= arm.pulls, "torn arm stats");
                        assert!(arm.sum_duration_s.is_finite() && arm.sum_duration_s >= 0.0);
                        assert!(arm.prior.is_finite());
                    }
                }
                let snapshot = Snapshot::new(nano).capture_stack(online);
                let json = snapshot.to_json().expect("encodes mid-serving");
                let back = Snapshot::from_json(&json).expect("round-trips mid-serving");
                assert!(back.dropped.is_empty());
                std::thread::yield_now();
            }
        });
    });

    // The final concurrent capture restores cleanly into a fresh stack.
    let snapshot = Snapshot::new(&nano).capture_stack(&online);
    let fresh = pipeline();
    let (_, fresh_online) = fresh
        .adaptive_executor(
            Queue::timing_only(Arc::clone(&nano)),
            ResilientPolicy::default(),
            OnlineConfig::default(),
        )
        .expect("adaptive executor builds");
    let outcome = snapshot.restore_stack(&fresh_online, &nano);
    assert_eq!(outcome, RestoreOutcome::Full);
    assert_eq!(fresh_online.stats().clusters, online.stats().clusters);
}

/// Cross-device warm start (ROADMAP item 1): `nearest` picks the donor
/// whose device spec is closest in log-feature space, and the
/// transplanted snapshot re-seeds a fresh device's bandit priors from
/// the donor's measured evidence — adaptive from launch one, device
/// sections deliberately dropped.
#[test]
fn transplant_seeds_a_fresh_device_from_the_nearest_donor() {
    let shapes: Vec<GemmShape> = dataset().shapes.clone();
    let buffers: Vec<_> = shapes.iter().map(|&s| zero_buffers(s)).collect();
    let nano = Arc::new(DeviceSpec::amd_r9_nano());
    let pipe = pipeline();
    let (exec, online) = pipe
        .adaptive_executor(
            Queue::timing_only(Arc::clone(&nano)),
            ResilientPolicy::default(),
            OnlineConfig::default(),
        )
        .expect("adaptive executor builds");
    online.force_drift();
    for _ in 0..4 {
        for (shape, (a, b, c)) in shapes.iter().zip(&buffers) {
            exec.launch(*shape, a, b, c).expect("launch");
        }
    }
    let learned = Snapshot::new(&nano).capture_stack(&online);
    let idle = Snapshot::new(&DeviceSpec::host_cpu());
    let fleet = vec![idle, learned];

    // The desktop GPU's nearest profiled neighbour is the nano (also a
    // GPU), not the host CPU.
    let gpu = DeviceSpec::desktop_gpu();
    let donor = persist::nearest(&fleet, &gpu).expect("a donor exists");
    assert_eq!(donor.device, *nano);

    let transplanted = donor.transplant(&gpu);
    assert_eq!(transplanted.device_crc, persist::device_fingerprint(&gpu));
    let fresh = pipeline();
    let (gpu_exec, gpu_online) = fresh
        .adaptive_executor(
            Queue::timing_only(Arc::new(gpu.clone())),
            ResilientPolicy::default(),
            OnlineConfig::default(),
        )
        .expect("gpu executor builds");
    let outcome = transplanted.restore_stack(&gpu_online, &gpu);
    assert!(
        outcome.is_warm(),
        "transplant must restore warm: {outcome:?}"
    );
    assert!(
        outcome.dropped().iter().any(|d| d.starts_with("cache"))
            && outcome.dropped().iter().any(|d| d.starts_with("telemetry")),
        "device-specific sections must be reported dropped: {outcome:?}"
    );
    assert!(gpu_online.is_adaptive(), "transplant starts adaptive");
    assert!(gpu_online.stats().clusters > 0, "priors arrived");
    for (shape, (a, b, c)) in shapes.iter().zip(&buffers) {
        let report = gpu_exec.launch(*shape, a, b, c).expect("gpu launch");
        assert!(!report.event.is_failed());
    }
}

/// Graceful shutdown semantics: a pre-expired drain deadline sheds the
/// whole queue typed (never silently), a generous one serves it all,
/// and `Drop` without `finish` no longer leaks the dispatcher thread.
#[test]
fn shutdown_sheds_typed_and_drop_joins_the_dispatcher() {
    let pipe = pipeline();
    let pool: Vec<GemmShape> = dataset().shapes.clone();

    // Expired drain deadline: everything queued sheds as Shutdown.
    let sched = ShardedScheduler::new(vec![adaptive_shard(&pipe, "nano")], SchedConfig::default())
        .expect("scheduler builds");
    let ingress = Ingress::start(sched, IngressConfig::default());
    ingress.handle().shutdown(Duration::ZERO);
    for i in 0..16usize {
        let request = IngressRequest::new(GemmRequest::zeroed(pool[i % pool.len()]));
        assert!(ingress.submit(request).expect("submit").is_enqueued());
    }
    let (report, _) = ingress.finish().expect("finish");
    assert!(report.accounted(), "shed work is counted: {report:?}");
    assert_eq!(report.shed_shutdown, 16, "typed Shutdown sheds");
    assert_eq!(report.served, 0);

    // Generous deadline: the queue drains fully before the join.
    let sched = ShardedScheduler::new(vec![adaptive_shard(&pipe, "nano")], SchedConfig::default())
        .expect("scheduler builds");
    let ingress = Ingress::start(sched, IngressConfig::default());
    for i in 0..16usize {
        let request = IngressRequest::new(GemmRequest::zeroed(pool[i % pool.len()]));
        assert!(ingress.submit(request).expect("submit").is_enqueued());
    }
    let (report, _) = ingress.shutdown(Duration::from_secs(60)).expect("shutdown");
    assert!(report.accounted());
    assert_eq!(report.served, 16, "a generous drain serves everything");
    assert_eq!(report.shed_shutdown, 0);

    // Drop without finish: returns (thread joined), nothing leaks.
    let sched = ShardedScheduler::new(vec![adaptive_shard(&pipe, "nano")], SchedConfig::default())
        .expect("scheduler builds");
    let ingress = Ingress::start(sched, IngressConfig::default());
    for i in 0..8usize {
        let request = IngressRequest::new(GemmRequest::zeroed(pool[i % pool.len()]));
        ingress.submit(request).expect("submit");
    }
    drop(ingress);
}

/// Non-finite arm statistics (the NaN a div-by-zero mean can mint)
/// survive the serde_json round trip via the tagged encoding and are
/// then rejected *typed* at restore: the poisoned cluster is dropped,
/// the healthy one applies.
#[test]
fn nan_arm_state_roundtrips_and_is_dropped_typed_at_restore() {
    let pipe = pipeline();
    let online = pipe
        .online_selector(OnlineConfig::default())
        .expect("online selector builds");
    let shipped = online.shipped().to_vec();
    let healthy_arms: Vec<ArmState> = shipped
        .iter()
        .map(|_| ArmState {
            prior: 0.5,
            pulls: 4,
            completions: 4,
            sum_duration_s: 0.004,
            disabled: false,
        })
        .collect();
    let mut poisoned_arms = healthy_arms.clone();
    poisoned_arms[0].sum_duration_s = f64::NAN;

    let nano = DeviceSpec::amd_r9_nano();
    let mut snapshot = Snapshot::new(&nano);
    snapshot.online = Some(OnlineState {
        adaptive: true,
        generation: 1,
        shipped: shipped.clone(),
        ph_n: 0,
        ph_mean_x: 0.0,
        ph_m: 0.0,
        ph_min_m: 0.0,
        clusters: vec![
            ClusterSnapshot {
                key: [1, 1, 1],
                arms: healthy_arms,
            },
            ClusterSnapshot {
                key: [2, 2, 2],
                arms: poisoned_arms,
            },
        ],
    });

    // The NaN must survive the envelope round trip (satellite: tagged
    // non-finite encoding in the serde_json shim), not crash it.
    let json = snapshot.to_json().expect("NaN encodes");
    let back = Snapshot::from_json(&json).expect("NaN decodes");
    let back_online = back.online.as_ref().expect("online section survives");
    assert!(back_online.clusters[1].arms[0].sum_duration_s.is_nan());

    let outcome = back.restore_stack(&online, &nano);
    match &outcome {
        RestoreOutcome::Partial { dropped } => {
            assert!(
                dropped.iter().any(|d| d == "online:1-clusters"),
                "the poisoned cluster is dropped by name: {dropped:?}"
            );
        }
        other => panic!("expected Partial, got {other:?}"),
    }
    assert!(online.is_adaptive());
    assert_eq!(
        online.stats().clusters,
        1,
        "only the healthy cluster survives"
    );
}
