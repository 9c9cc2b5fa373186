//! Building the deployment from nothing: the paper-dataset sweep, the
//! tuning pipeline, one executor per device (each with its own static
//! analysis), the scheduler and the ingress.

use crate::workload::{real_gemm_shapes, Spec, Workload};
use autokernel_core::resilient::ResilientPolicy;
use autokernel_core::{
    DeviceShard, Ingress, OnlineConfig, PerformanceDataset, PipelineConfig, ShardedScheduler,
    SnapshotterConfig, TuningPipeline,
};
use autokernel_gemm::KernelConfig;
use autokernel_sycl_sim::{DeviceSpec, FaultPlan, Queue, SimClock};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Transient-fault rate on the faulty `real_gemm` device after onset:
/// enough for retries, low enough that the bandit's view of each arm (and
/// so the configurations the host executes) hardly depends on the seed.
pub const TRANSIENT_RATE: f64 = 0.02;
/// The `real_gemm` shard whose fault plan has an onset.
pub const FAULTY_SHARD: usize = 1;

/// Wall time of each set-up stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Paper-dataset sweep (`PerformanceDataset::collect_paper_dataset`).
    pub collect_s: f64,
    /// `TuningPipeline::from_dataset`: split, prune, train.
    pub train_s: f64,
    /// Executors with static analysis, scheduler and a started ingress.
    pub fleet_s: f64,
}

/// The trained pipeline and how long collecting and training took.
pub fn pipeline() -> (TuningPipeline, f64, f64) {
    let start = Instant::now();
    let dataset = PerformanceDataset::collect_paper_dataset(&DeviceSpec::amd_r9_nano())
        .expect("the paper dataset collects on the R9 Nano model");
    let collect_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let pipeline = TuningPipeline::from_dataset(dataset, PipelineConfig::default())
        .expect("the default pipeline trains on the paper dataset");
    (pipeline, collect_s, start.elapsed().as_secs_f64())
}

/// The configuration the faulty `real_gemm` device dooms: of the shipped
/// configurations the selector picks for some `real_gemm` shape, the one
/// it picks for the fewest. Its shapes fall back to next-best, while most
/// traffic keeps its pick, so the kernels the host runs (and with them
/// host time) barely depend on how the bandit re-learns after drift.
pub fn doomed_config(pipeline: &TuningPipeline) -> KernelConfig {
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for shape in real_gemm_shapes() {
        let config = pipeline.select(&shape).expect("the selector picks");
        *counts.entry(config.index()).or_insert(0) += 1;
    }
    let (&index, _) = counts
        .iter()
        .min_by_key(|&(&index, &n)| (n, index))
        .expect("real_gemm has shapes");
    KernelConfig::from_index(index).expect("a shipped index decodes")
}

/// The `real_gemm` fault plan: healthy until `onset` submissions, then
/// transient faults plus one permanently failing shipped configuration.
pub fn fault_plan(pipeline: &TuningPipeline, seed: u64, onset: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_transient_rate(TRANSIENT_RATE)
        .doom_kernels_matching(format!("gemm_{}_", doomed_config(pipeline)))
        .with_onset(onset)
}

/// The online layer of the `real_gemm` fleet: a failed launch counts as a
/// twelvefold slowdown, so the doomed configuration's first three failures
/// trip drift right at onset rather than after a seed-dependent run of
/// transient faults.
pub fn online_config() -> OnlineConfig {
    OnlineConfig {
        fault_slowdown: 12.0,
        ..OnlineConfig::default()
    }
}

/// One shard per device of `spec`. `fault_onset` applies to `real_gemm`.
pub fn fleet(
    pipeline: &TuningPipeline,
    spec: &Spec,
    seed: u64,
    fault_onset: u64,
) -> Vec<DeviceShard> {
    spec.devices
        .iter()
        .enumerate()
        .map(|(i, (label, device))| {
            let device = Arc::new(device.clone());
            let executor = match spec.cache {
                Some(cache) => pipeline
                    .device_bounded_executor(
                        Queue::timing_only(device),
                        ResilientPolicy::default(),
                        cache,
                    )
                    .expect("bounded executor builds"),
                None => {
                    let mut queue = Queue::new(device);
                    if i == FAULTY_SHARD {
                        queue = queue.with_fault_plan(Arc::new(fault_plan(
                            pipeline,
                            seed,
                            fault_onset,
                        )));
                    }
                    pipeline
                        .device_adaptive_executor(
                            queue,
                            ResilientPolicy::default(),
                            online_config(),
                        )
                        .expect("adaptive executor builds")
                        .0
                }
            };
            DeviceShard::new(*label, executor)
        })
        .collect()
}

/// A scheduler over a fresh fleet, plus handles on every device clock.
pub fn scheduler(
    pipeline: &TuningPipeline,
    spec: &Spec,
    seed: u64,
    fault_onset: u64,
) -> (ShardedScheduler, Vec<SimClock>) {
    let shards = fleet(pipeline, spec, seed, fault_onset);
    let clocks = shards.iter().map(DeviceShard::clock).collect();
    let scheduler =
        ShardedScheduler::new(shards, spec.sched.clone()).expect("a non-empty fleet schedules");
    (scheduler, clocks)
}

/// A started deployment.
pub struct Deployment {
    /// The trained pipeline (kept for selection-quality scoring).
    pub pipeline: TuningPipeline,
    /// Device clocks, taken before the scheduler moved into the ingress.
    pub clocks: Vec<SimClock>,
    /// The started ingress.
    pub ingress: Ingress,
    /// Per-stage set-up times.
    pub stages: Stages,
}

/// Build `workload`'s deployment from nothing and start its ingress.
/// `snapshot` is the snapshotter's file when the workload has one.
pub fn start(workload: Workload, seed: u64, fault_onset: u64, snapshot: &Path) -> Deployment {
    let spec = workload.spec();
    let (pipeline, collect_s, train_s) = pipeline();
    let start = Instant::now();
    let (scheduler, clocks) = self::scheduler(&pipeline, &spec, seed, fault_onset);
    let ingress = if spec.snapshot_every_chunks > 0 {
        Ingress::start_with_snapshots(
            scheduler,
            spec.ingress,
            SnapshotterConfig {
                path: snapshot.to_path_buf(),
                every_chunks: spec.snapshot_every_chunks,
                device: DeviceSpec::amd_r9_nano(),
            },
        )
    } else {
        Ingress::start(scheduler, spec.ingress)
    };
    let stages = Stages {
        collect_s,
        train_s,
        fleet_s: start.elapsed().as_secs_f64(),
    };
    Deployment {
        pipeline,
        clocks,
        ingress,
        stages,
    }
}
