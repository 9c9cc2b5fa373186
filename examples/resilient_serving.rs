//! Resilience demo: fault injection, retries, circuit breakers and the
//! fallback chain.
//!
//! A trained pipeline serves kernel launches on a device that has
//! started misbehaving: 30% of submissions fail transiently, and the
//! configuration the selector likes most has become permanently
//! unlaunchable (think a driver regression for one code path). This
//! example:
//!
//! 1. trains the default pipeline,
//! 2. serves a recurring traffic mix through a [`ResilientExecutor`]
//!    on the faulty queue — every launch completes,
//! 3. prints the resilience telemetry (failures absorbed, retries,
//!    breaker trips, quarantine skips, fallback depths) and the
//!    breaker's verdict on the doomed configuration,
//! 4. melts the device down entirely (every tiled kernel doomed) and
//!    shows traffic degrading to the reference GEMM rather than
//!    failing,
//! 5. dumps a Chrome-trace snippet with the fault/fallback annotations.
//!
//! Run with: `cargo run --release --example resilient_serving`

use autokernel::core::resilient::ResilientPolicy;
use autokernel::core::{PipelineConfig, TuningPipeline};
use autokernel::gemm::GemmShape;
use autokernel::sim::fault::FaultPlan;
use autokernel::sim::trace::TraceRecorder;
use autokernel::sim::{Buffer, DeviceSpec, Queue};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shapes: Vec<(GemmShape, String)> = [
        (12544, 27, 64),
        (3136, 144, 24),
        (784, 1152, 128),
        (196, 2304, 256),
        (49, 960, 160),
        (1, 4096, 1000),
        (8, 25088, 4096),
        (64, 64, 64),
        (512, 512, 512),
        (1024, 1024, 1024),
        (32, 4096, 4096),
        (6272, 576, 128),
        (2, 2048, 1000),
        (128, 128, 1000),
        (25088, 576, 128),
        (3136, 576, 192),
    ]
    .iter()
    .map(|&(m, k, n)| (GemmShape::new(m, k, n), "serving".to_string()))
    .collect();

    let device = Arc::new(DeviceSpec::amd_r9_nano());
    println!("training the pipeline on {} ...", device.name);
    let pipeline = TuningPipeline::run(&device, &shapes, PipelineConfig::default())?;

    // The recurring traffic an inference server would see.
    let working_set: Vec<GemmShape> = (0..8)
        .map(|i| GemmShape::new(96 + i * 37, 64 + i * 11, 48 + i * 23))
        .collect();

    // Doom the configuration the selector leans on hardest, so the
    // primary path keeps running into it.
    let mut counts = std::collections::HashMap::new();
    for shape in &working_set {
        *counts.entry(pipeline.select(shape)?).or_insert(0usize) += 1;
    }
    let (&doomed, _) = counts.iter().max_by_key(|&(_, &n)| n).unwrap();
    println!(
        "shipped configs: {:?}; dooming the selector's favourite: {doomed}",
        pipeline
            .shipped_kernel_configs()
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
    );

    // A device that fails 30% of submissions transiently and can never
    // launch the doomed configuration.
    let plan = Arc::new(
        FaultPlan::new(7)
            .with_transient_rate(0.30)
            .doom_kernels_matching(format!("gemm_{doomed}_")),
    );
    let queue = Queue::new(device.clone()).with_fault_plan(plan);
    let executor = pipeline.resilient_executor(queue, ResilientPolicy::default());

    const ROUNDS: usize = 8;
    println!(
        "\nserving {} launches ({ROUNDS} rounds over {} shapes) on the faulty device ...",
        ROUNDS * working_set.len(),
        working_set.len()
    );
    let mut trace = TraceRecorder::new();
    let mut completed = 0usize;
    for round in 0..ROUNDS {
        for shape in &working_set {
            let a = Buffer::new_filled(shape.m * shape.k, 1.0f32);
            let b = Buffer::new_filled(shape.k * shape.n, 1.0f32);
            let c = Buffer::new_filled(shape.m * shape.n, 0.0f32);
            let report = executor.launch_traced(*shape, &a, &b, &c, &mut trace, "resilient")?;
            assert!(!report.event.is_failed());
            completed += 1;
            if round == 0 && report.decision.fallback.is_degraded() {
                println!(
                    "  {shape}: primary pick unavailable, served as {} after {} failed attempt(s)",
                    report.decision.fallback.label(),
                    report.decision.attempts
                );
            }
        }
    }

    let t = executor.selector().telemetry().snapshot();
    assert_eq!(t.resilient_launches, completed as u64);
    println!("\nall {completed} launches completed. resilience telemetry:");
    println!(
        "  {} failures absorbed across {} launches ({} retries)",
        t.launch_failures, t.resilient_launches, t.retries
    );
    println!(
        "  breaker trips: {}, quarantine skips: {}",
        t.breaker_trips, t.quarantine_skips
    );
    println!(
        "  fallbacks: {} to the next-best config, {} to the reference GEMM",
        t.fallback_next_best, t.fallback_reference
    );
    println!(
        "  doomed config {doomed} breaker state: {:?}; quarantined set: {:?}",
        executor.breaker_state(doomed.index()).unwrap(),
        executor.quarantined()
    );

    // Meltdown: every tiled kernel is now unlaunchable. The executor
    // still completes every launch by degrading to the reference GEMM
    // on the fault-free host path.
    let meltdown_plan = Arc::new(FaultPlan::new(11).doom_kernels_matching("gemm_T"));
    let meltdown_queue = Queue::new(device).with_fault_plan(meltdown_plan);
    let meltdown = pipeline.resilient_executor(meltdown_queue, ResilientPolicy::default());
    let mut reference_served = 0usize;
    for shape in &working_set {
        let a = Buffer::new_filled(shape.m * shape.k, 1.0f32);
        let b = Buffer::new_filled(shape.k * shape.n, 1.0f32);
        let c = Buffer::new_filled(shape.m * shape.n, 0.0f32);
        let report = meltdown.launch(*shape, &a, &b, &c)?;
        assert!(!report.event.is_failed());
        if report.decision.fallback.label() == "reference" {
            reference_served += 1;
        }
    }
    println!(
        "\nmeltdown (every tiled config doomed): {reference_served}/{} launches degraded to the \
         reference GEMM, none failed",
        working_set.len()
    );

    let json = trace.to_chrome_trace();
    let snippet = json
        .find("\"fault\"")
        .map(|i| &json[i.saturating_sub(80)..(i + 60).min(json.len())])
        .unwrap_or(&json[..140.min(json.len())]);
    println!(
        "\ntrace: {} events, {} failed, {} degraded; around the first fault annotation:",
        trace.len(),
        trace.failed_launches(),
        trace.degraded_launches()
    );
    println!("  ...{snippet}...");

    println!("\nresilient_serving OK");
    Ok(())
}
