//! Sharded serving demo: one trained pipeline, a fleet of devices.
//!
//! A pipeline trains once on the AMD R9 Nano, then serves the full
//! 170-shape paper workload two ways:
//!
//! 1. **Baseline** — a single resilient executor on one R9 Nano,
//!    launching every request in arrival order.
//! 2. **Fleet** — a [`ShardedScheduler`] over three devices (one R9
//!    Nano plus two desktop GPUs, a realistic mixed-SKU rack), with
//!    same-shape bursts batched into single decisions, perf-aware
//!    routing driven by each device's static shipped-set fitness,
//!    bounded per-device wave queues with stealing, and failure drain.
//!
//! The score is served requests per unit *simulated* time: the fleet
//! must clear at least 2x the single-device throughput on the same
//! stream (the two extra desktop GPUs bring ~1.26x of a Nano's
//! throughput, so the fleet's capacity is ~2.28x — routing only has to
//! not squander it).
//!
//! This file is on the hot-path lint allowlist: no unwraps, no panics,
//! no non-literal indexing.
//!
//! Run with: `cargo run --release --example sharded_serving`

use autokernel::analyze::KernelSpaceAnalyzer;
use autokernel::core::resilient::ResilientPolicy;
use autokernel::core::{
    DeviceShard, GemmRequest, PerformanceDataset, PipelineConfig, RoutingPolicy, SchedConfig,
    ShardedScheduler, TuningPipeline,
};
use autokernel::sim::{DeviceSpec, Queue};
use autokernel::workloads::dataset::paper_shapes;
use std::sync::Arc;

/// Same-shape burst length in the request stream — consecutive
/// arrivals of one shape, as an inference server batching per layer
/// would produce. The scheduler coalesces each burst into one routing
/// and selection decision.
const BURST: usize = 2;
/// Full passes over the 170-shape paper workload.
const EPOCHS: usize = 3;
/// The fleet throughput bar, relative to the single-device baseline.
const REQUIRED_SPEEDUP: f64 = 2.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nano = Arc::new(DeviceSpec::amd_r9_nano());
    let desktop = Arc::new(DeviceSpec::desktop_gpu());

    println!("training the pipeline on {} (paper dataset) ...", nano.name);
    let dataset = PerformanceDataset::collect_paper_dataset(&nano)?;
    let pipeline = TuningPipeline::from_dataset(dataset, PipelineConfig::default())?;

    // The serving stream: EPOCHS passes over the paper workload, each
    // shape arriving in a burst of BURST identical requests.
    let shapes = paper_shapes();
    let mut requests: Vec<GemmRequest> = Vec::with_capacity(shapes.len() * BURST * EPOCHS);
    for _ in 0..EPOCHS {
        for shape in &shapes {
            for _ in 0..BURST {
                requests.push(GemmRequest::zeroed(*shape));
            }
        }
    }
    println!(
        "stream: {} requests ({} shapes x burst {} x {} epochs)\n",
        requests.len(),
        shapes.len(),
        BURST,
        EPOCHS
    );

    // Baseline: one R9 Nano behind a single resilient executor.
    let policy = ResilientPolicy::default();
    let baseline =
        pipeline.device_executor(Queue::timing_only(Arc::clone(&nano)), policy.clone())?;
    let baseline_clock = baseline.queue().clock();
    let baseline_start = baseline_clock.now_s();
    for request in &requests {
        let report = baseline.launch(request.shape, &request.a, &request.b, &request.c)?;
        assert!(!report.event.is_failed());
    }
    let baseline_s = baseline_clock.now_s() - baseline_start;
    let baseline_throughput = requests.len() as f64 / baseline_s;
    println!(
        "baseline ({}): {} requests in {:.3} sim-s -> {:.1} req/sim-s",
        nano.name,
        requests.len(),
        baseline_s,
        baseline_throughput
    );

    // The fleet: each shard is a full selector/executor stack on its
    // own queue, with perf-aware fitness from static analysis of the
    // shipped set on that shard's device.
    let mut shards = Vec::new();
    for (label, device) in [
        ("nano-0", Arc::clone(&nano)),
        ("desktop-0", Arc::clone(&desktop)),
        ("desktop-1", Arc::clone(&desktop)),
    ] {
        let analysis = KernelSpaceAnalyzer::new(device.as_ref().clone()).analyze()?;
        let executor = pipeline.device_executor(Queue::timing_only(device), policy.clone())?;
        let shard = DeviceShard::new(label, executor)
            .with_shipped_analysis(&analysis, pipeline.shipped_configs());
        println!(
            "  shard {label}: shipped-set fitness {:.2}",
            shard.fitness()
        );
        shards.push(shard);
    }

    let mut scheduler = ShardedScheduler::new(
        shards,
        SchedConfig {
            policy: RoutingPolicy::PerfAware,
            queue_capacity: 64,
            batch_window: 4,
            seed: 7,
            ..SchedConfig::default()
        },
    )?;
    let report = scheduler.serve(&requests)?;

    println!(
        "\nfleet: {} requests in {:.3} sim-s over {} waves -> {:.1} req/sim-s",
        report.served,
        report.makespan_s,
        report.waves,
        report.throughput()
    );
    for device in &report.devices {
        println!(
            "  {:>10}: {:>4} served in {:>3} batches, {:.3} sim-s busy, healthy={}",
            device.label, device.served, device.batches, device.busy_s, device.healthy
        );
    }
    let telemetry = scheduler.telemetry();
    println!(
        "telemetry: {} batches routed, {} requests coalesced, {} steals, \
         {} rebalanced, {} served",
        telemetry.routed,
        telemetry.batched,
        telemetry.stolen,
        telemetry.rebalanced,
        telemetry.served
    );

    let speedup = report.throughput() / baseline_throughput;
    println!(
        "\nthroughput speedup over the single-device baseline: {speedup:.2}x \
         (required: >= {REQUIRED_SPEEDUP:.1}x)"
    );

    assert_eq!(report.served, requests.len(), "every request must complete");
    assert_eq!(report.dropped, 0, "the scheduler never drops requests");
    assert!(
        telemetry.batched > 0,
        "bursts must coalesce into shared decisions"
    );
    assert!(
        report.devices.iter().all(|d| d.served > 0),
        "every shard must carry traffic"
    );
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "fleet throughput {speedup:.2}x below the {REQUIRED_SPEEDUP:.1}x bar"
    );
    println!("\nsharded_serving OK");
    Ok(())
}
