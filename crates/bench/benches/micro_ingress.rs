//! Micro-benchmark of the SLO-aware ingress layer: one million
//! requests streamed through the MPMC ingress queue into the
//! three-device fleet (one R9 Nano plus two desktop GPUs), every
//! shard's decision cache capacity-bounded. The stream is a hot head
//! (eight paper shapes carrying 90 % of traffic) over a 2000-shape
//! long tail, so the bounded caches churn while the coalescer keeps
//! amortising hot-shape decisions.
//!
//! Reported and gated: silent drops (must stay zero — the accounting
//! identity `submitted == served + shed` is the whole point), the
//! final bounded-cache footprint (must sit at its configured ceiling,
//! proving the bound engaged), end-to-end p50/p99 from the lock-free
//! log2-bucket histograms, and host-side cost per request.

use autokernel_bench::{paper_dataset, save_result};
use autokernel_core::resilient::ResilientPolicy;
use autokernel_core::{
    BoundedCacheConfig, DecisionCache, DeviceShard, GemmRequest, Ingress, IngressConfig,
    IngressRequest, LatencyHistogram, PipelineConfig, Priority, RoutingPolicy, SchedConfig,
    ShardedScheduler, TenantQuota, TuningPipeline,
};
use autokernel_gemm::GemmShape;
use autokernel_sycl_sim::{DeviceSpec, Queue};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Total requests streamed through the ingress (the issue's floor).
const REQUESTS: usize = 1_000_000;
/// Hot-head shapes (90 % of traffic).
const HOT_SHAPES: usize = 8;
/// Long-tail distinct shapes (10 % of traffic, uniformly).
const TAIL_SHAPES: usize = 2000;
/// Per-shard decision-cache capacity — far below the distinct-shape
/// count, so the bound must actually evict.
const CACHE_CAPACITY: usize = 512;

#[derive(serde::Serialize)]
struct MicroIngressResult {
    requests: u64,
    served: u64,
    shed: u64,
    /// `submitted - served - shed`: any non-zero value is a silently
    /// lost request. Gated at zero.
    silent_drops: u64,
    waves: u64,
    hot_shapes: usize,
    tail_shapes: usize,
    cache_capacity: usize,
    /// Final decision-cache footprint summed over the three shards;
    /// deterministic once every cache has saturated its ceiling.
    cache_entries: u64,
    /// End-to-end (submit → completion) latency quantiles, from the
    /// per-class lock-free histograms.
    p50_latency_ns: f64,
    p99_latency_ns: f64,
    /// Host wall-clock per request over the whole run (submission,
    /// queueing, dispatch, selection, simulated pricing).
    per_request_ns: f64,
    /// Host-side cost of the two ingress hot-path primitives.
    histogram_record_ns: f64,
    cache_hit_ns: f64,
}

/// Deterministic splitmix64 for the stream order.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn tail_shape(i: usize) -> GemmShape {
    GemmShape::new(
        8 + (i % 41) * 3,
        8 + (i / 41 % 43) * 3,
        8 + (i / 1763 % 47) * 3,
    )
}

fn fleet(pipeline: &TuningPipeline) -> Vec<DeviceShard> {
    [
        ("nano-0", DeviceSpec::amd_r9_nano()),
        ("desktop-0", DeviceSpec::desktop_gpu()),
        ("desktop-1", DeviceSpec::desktop_gpu()),
    ]
    .into_iter()
    .map(|(label, device)| {
        let executor = pipeline
            .device_bounded_executor(
                Queue::timing_only(Arc::new(device)),
                ResilientPolicy::default(),
                BoundedCacheConfig {
                    capacity: CACHE_CAPACITY,
                    admit_threshold: 1,
                    ..BoundedCacheConfig::default()
                },
            )
            .expect("bounded executor builds");
        DeviceShard::new(label, executor)
    })
    .collect()
}

fn bench_ingress(c: &mut Criterion) {
    // Hot-path primitives first: these run once per request on the
    // serving path, so their host cost is worth tracking on its own.
    let mut histogram = LatencyHistogram::new();
    let cache = DecisionCache::bounded(BoundedCacheConfig {
        capacity: CACHE_CAPACITY,
        admit_threshold: 1,
        ..BoundedCacheConfig::default()
    });
    let probe = GemmShape::new(512, 512, 512);
    cache.insert(probe, 123);

    let mut group = c.benchmark_group("ingress_hotpath");
    group.bench_function("histogram_record", |bench| {
        let mut nanos = 1u64;
        bench.iter(|| {
            nanos = nanos.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram.record(black_box(nanos >> 20));
        });
    });
    group.bench_function("bounded_cache_hit", |bench| {
        bench.iter(|| black_box(cache.get(black_box(&probe))));
    });
    group.finish();

    let time_ns = |f: &mut dyn FnMut()| {
        let reps = 100_000u32;
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_nanos() as f64 / reps as f64
    };
    let histogram_record_ns = time_ns(&mut || {
        histogram.record(black_box(4096));
    });
    let cache_hit_ns = time_ns(&mut || {
        black_box(cache.get(black_box(&probe)));
    });

    // The million-request run. Templates are built once; cloning a
    // GemmRequest only bumps the SYCL-style shared-buffer refcounts, so
    // the stream itself is memory-bounded by construction and the only
    // per-shape state that can grow is the decision caches — which are
    // capacity-bounded and asserted below.
    let ds = paper_dataset();
    let pipeline =
        TuningPipeline::from_dataset(ds.clone(), PipelineConfig::default()).expect("pipeline");
    let hot: Vec<GemmRequest> = ds
        .shapes
        .iter()
        .take(HOT_SHAPES)
        .map(|&s| GemmRequest::zeroed(s))
        .collect();
    let tail: Vec<GemmRequest> = (0..TAIL_SHAPES)
        .map(|i| GemmRequest::zeroed(tail_shape(i)))
        .collect();

    let scheduler = ShardedScheduler::new(
        fleet(&pipeline),
        SchedConfig {
            policy: RoutingPolicy::LeastLoaded,
            queue_capacity: 64,
            batch_window: 32,
            seed: 11,
            ..SchedConfig::default()
        },
    )
    .expect("scheduler builds");
    let ingress = Ingress::start(
        scheduler,
        IngressConfig {
            queue_capacity: 8192,
            dispatch_chunk: 2048,
            tenant_quota: TenantQuota {
                max_queued: REQUESTS,
            },
            ..IngressConfig::default()
        },
    );

    let start = Instant::now();
    let handle = ingress.handle();
    for i in 0..REQUESTS {
        let r = mix(i as u64);
        let template = if r % 10 < 9 {
            &hot[(r / 16) as usize % HOT_SHAPES]
        } else {
            &tail[(r / 16) as usize % TAIL_SHAPES]
        };
        // Interactive priority blocks instead of shedding: the gated
        // run must account for every single request as served.
        let outcome = handle
            .submit(
                IngressRequest::new(template.clone())
                    .with_tenant((r % 16) as u32)
                    .with_priority(Priority::Interactive),
            )
            .expect("ingress is open");
        assert!(
            outcome.is_enqueued(),
            "nothing sheds at Interactive priority"
        );
    }
    // The cloned handle must drop before finish(): the dispatcher only
    // drains to completion once every sender has disconnected.
    drop(handle);
    let (report, scheduler) = ingress.finish().expect("dispatcher drains");
    let elapsed = start.elapsed();

    assert!(report.accounted(), "submitted == served + shed must hold");
    assert_eq!(report.served, REQUESTS as u64);
    let mut cache_entries = 0u64;
    for i in 0..3 {
        let shard = scheduler.shard(i).expect("three shards");
        let footprint = shard.executor().selector().cache().footprint();
        assert!(
            footprint <= CACHE_CAPACITY,
            "shard {i} decision cache exceeded its ceiling"
        );
        cache_entries += footprint as u64;
    }

    let interactive = &report.classes[0];
    let result = MicroIngressResult {
        requests: REQUESTS as u64,
        served: report.served,
        shed: report.shed_total(),
        silent_drops: report.submitted - report.served - report.shed_total(),
        waves: report.waves,
        hot_shapes: HOT_SHAPES,
        tail_shapes: TAIL_SHAPES,
        cache_capacity: CACHE_CAPACITY,
        cache_entries,
        p50_latency_ns: interactive.p50_ns,
        p99_latency_ns: interactive.p99_ns,
        per_request_ns: elapsed.as_nanos() as f64 / REQUESTS as f64,
        histogram_record_ns,
        cache_hit_ns,
    };
    println!(
        "ingress/1M: {} served + {} shed in {:.2}s ({:.0} ns/request, {} waves), \
         e2e p50 {:.1} us / p99 {:.1} us, caches {}/{} entries, \
         histogram record {:.1} ns, cache hit {:.1} ns",
        result.served,
        result.shed,
        elapsed.as_secs_f64(),
        result.per_request_ns,
        result.waves,
        result.p50_latency_ns / 1e3,
        result.p99_latency_ns / 1e3,
        result.cache_entries,
        3 * CACHE_CAPACITY,
        result.histogram_record_ns,
        result.cache_hit_ns,
    );
    save_result("micro_ingress", &result);
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_ingress
);
criterion_main!(benches);
