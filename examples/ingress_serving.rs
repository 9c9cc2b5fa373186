//! SLO-aware ingress demo: concurrent producers in front of the fleet.
//!
//! A pipeline trains once on the AMD R9 Nano, then a three-device
//! fleet (one Nano plus two desktop GPUs) serves the paper workload
//! through the [`Ingress`] layer in two phases:
//!
//! 1. **Steady state** — 8 producer threads submit mixed-priority
//!    traffic (interactive / standard / batch) for five tenants into a
//!    roomy queue. Everything is served; per-class end-to-end latency
//!    comes out of the dispatcher's log2-bucket histograms, and every
//!    shard's decision cache stays under its configured capacity.
//! 2. **Overload** — the same producers flood a 16-slot queue with a
//!    quota-limited noisy tenant in the mix. Excess load is shed with
//!    *typed* reasons (tenant quota, queue full, deadline expired) —
//!    never silently dropped — and the accounting identity
//!    `submitted == served + shed` closes exactly.
//!
//! This file is on the hot-path lint allowlist: no unwraps, no panics,
//! no non-literal indexing.
//!
//! Run with: `cargo run --release --example ingress_serving`

use autokernel::core::resilient::ResilientPolicy;
use autokernel::core::{
    BoundedCacheConfig, CoreError, DeviceShard, GemmRequest, Ingress, IngressConfig, IngressReport,
    IngressRequest, PerformanceDataset, PipelineConfig, Priority, RoutingPolicy, SchedConfig,
    ShardedScheduler, TenantQuota, TuningPipeline,
};
use autokernel::sim::{DeviceSpec, Queue};
use autokernel::workloads::dataset::paper_shapes;
use std::sync::Arc;
use std::time::Duration;

/// Producer threads per phase.
const PRODUCERS: usize = 8;
/// Requests per producer in the steady-state phase.
const STEADY_PER_PRODUCER: usize = 500;
/// Requests per producer in the overload phase.
const OVERLOAD_PER_PRODUCER: usize = 300;
/// Per-shard decision-cache capacity (entries).
const CACHE_CAPACITY: usize = 256;

fn fleet(pipeline: &TuningPipeline) -> Result<Vec<DeviceShard>, CoreError> {
    let mut shards = Vec::new();
    for (label, device) in [
        ("nano-0", DeviceSpec::amd_r9_nano()),
        ("desktop-0", DeviceSpec::desktop_gpu()),
        ("desktop-1", DeviceSpec::desktop_gpu()),
    ] {
        let executor = pipeline.device_bounded_executor(
            Queue::timing_only(Arc::new(device)),
            ResilientPolicy::default(),
            BoundedCacheConfig {
                capacity: CACHE_CAPACITY,
                ..BoundedCacheConfig::default()
            },
        )?;
        shards.push(DeviceShard::new(label, executor));
    }
    Ok(shards)
}

fn scheduler(pipeline: &TuningPipeline) -> Result<ShardedScheduler, CoreError> {
    ShardedScheduler::new(
        fleet(pipeline)?,
        SchedConfig {
            policy: RoutingPolicy::LeastLoaded,
            queue_capacity: 64,
            batch_window: 8,
            seed: 7,
            ..SchedConfig::default()
        },
    )
}

/// Run `per_producer` submissions from each of [`PRODUCERS`] threads
/// through `ingress`, with `deadline` optionally attached to batch
/// traffic. Returns the finished report and the scheduler.
fn drive(
    ingress: Ingress,
    per_producer: usize,
    deadline: Option<Duration>,
) -> Result<(IngressReport, ShardedScheduler), Box<dyn std::error::Error>> {
    let shapes = paper_shapes();
    let mut failed_producers = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let handle = ingress.handle();
                let shapes = &shapes;
                scope.spawn(move || -> Result<(), CoreError> {
                    for i in 0..per_producer {
                        let index = producer * per_producer + i;
                        let shape = shapes
                            .get(index % shapes.len())
                            .copied()
                            .ok_or(CoreError::Dataset("empty paper workload".to_string()))?;
                        let priority = match index % 3 {
                            0 => Priority::Interactive,
                            1 => Priority::Standard,
                            _ => Priority::Batch,
                        };
                        let mut request = IngressRequest::new(GemmRequest::zeroed(shape))
                            .with_tenant((index % 5) as u32)
                            .with_priority(priority);
                        if let (Some(d), Priority::Batch) = (deadline, priority) {
                            request = request.with_deadline_in(d);
                        }
                        handle.submit(request)?;
                    }
                    Ok(())
                })
            })
            .collect();
        for handle in handles {
            if !matches!(handle.join(), Ok(Ok(()))) {
                failed_producers += 1;
            }
        }
    });
    if failed_producers > 0 {
        return Err(format!("{failed_producers} producer thread(s) failed").into());
    }
    Ok(ingress.finish()?)
}

fn print_report(title: &str, report: &IngressReport) {
    println!(
        "\n{title}: submitted {} -> served {} + shed {} over {} waves \
         (tenant-quota {}, queue-full {}, deadline {})",
        report.submitted,
        report.served,
        report.shed_total(),
        report.waves,
        report.shed_tenant_quota,
        report.shed_queue_full,
        report.shed_deadline,
    );
    for class in &report.classes {
        println!(
            "  class {}: {:>5} submitted, {:>5} served, {:>5} shed, \
             e2e p50 {:>9.1} us, p99 {:>9.1} us",
            class.class,
            class.submitted,
            class.served,
            class.shed,
            class.p50_ns / 1e3,
            class.p99_ns / 1e3,
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nano = DeviceSpec::amd_r9_nano();
    println!("training the pipeline on {} (paper dataset) ...", nano.name);
    let dataset = PerformanceDataset::collect_paper_dataset(&nano)?;
    let pipeline = TuningPipeline::from_dataset(dataset, PipelineConfig::default())?;

    // Phase 1 — steady state: a queue deep enough that nothing sheds.
    let steady = Ingress::start(
        scheduler(&pipeline)?,
        IngressConfig {
            queue_capacity: 8192,
            dispatch_chunk: 256,
            tenant_quota: TenantQuota { max_queued: 8192 },
            ..IngressConfig::default()
        },
    );
    let (report, sched) = drive(steady, STEADY_PER_PRODUCER, None)?;
    print_report("steady state", &report);

    let total = (PRODUCERS * STEADY_PER_PRODUCER) as u64;
    assert!(report.accounted(), "submitted == served + shed must hold");
    assert_eq!(report.served, total, "a roomy queue serves everything");
    assert_eq!(report.shed_total(), 0);
    assert!(!report.fleet_degraded);
    for i in 0..3 {
        if let Some(shard) = sched.shard(i) {
            let cache = shard.executor().selector().cache();
            println!(
                "  shard {i}: decision cache {} / {CACHE_CAPACITY} entries, \
                 {} evictions",
                cache.footprint(),
                cache.evictions(),
            );
            assert!(
                cache.footprint() <= CACHE_CAPACITY,
                "decision cache must respect its capacity bound"
            );
        }
    }

    // Phase 2 — overload: a 16-slot queue, a noisy quota-limited
    // tenant, and tight deadlines on batch traffic.
    let overload = Ingress::start(
        scheduler(&pipeline)?,
        IngressConfig {
            queue_capacity: 16,
            dispatch_chunk: 16,
            tenant_quota: TenantQuota { max_queued: 4 },
            batch_headroom: 0.5,
        },
    );
    let (report, _) = drive(
        overload,
        OVERLOAD_PER_PRODUCER,
        Some(Duration::from_micros(1)),
    )?;
    print_report("overload", &report);

    assert!(report.accounted(), "shedding must never break the identity");
    assert!(
        report.shed_total() > 0,
        "an overloaded 16-slot queue must shed"
    );
    assert!(report.served > 0, "admitted work is still served");
    assert_eq!(
        report.shed_total(),
        report.shed_tenant_quota + report.shed_queue_full + report.shed_deadline,
        "every shed carries exactly one typed reason"
    );

    println!("\ningress_serving OK");
    Ok(())
}
