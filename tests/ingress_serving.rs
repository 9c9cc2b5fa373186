//! Integration tests for the SLO-aware ingress layer and the bounded
//! decision-cache mode behind it: LRU safety (a hot entry is never the
//! eviction victim), hit-rate monotonicity in capacity (the LRU stack
//! property the bounded mode was chosen for), the counting-Bloom
//! false-positive bound, 8-thread submit/dispatch with exact
//! served-plus-shed accounting, typed load-shedding under overload,
//! and the all-shards-poisoned meltdown path degrading to the
//! reference kernel with zero drops.

use autokernel::core::cache::{BoundedCacheConfig, CountingBloom, DecisionCache};
use autokernel::core::resilient::ResilientPolicy;
use autokernel::core::sched::{
    DeviceShard, GemmRequest, RoutingPolicy, SchedConfig, ShardedScheduler,
};
use autokernel::core::{
    Ingress, IngressConfig, IngressRequest, PerformanceDataset, PipelineConfig, Priority,
    ShedReason, SubmitOutcome, TenantQuota, TuningPipeline,
};
use autokernel::gemm::GemmShape;
use autokernel::sim::{DeviceSpec, FaultPlan, Queue};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Bounded cache: LRU safety, monotonicity, Bloom bound
// ---------------------------------------------------------------------------

/// A deterministic pool of distinct shapes for cache traces.
fn pool_shape(i: usize) -> GemmShape {
    GemmShape::new(
        8 + (i % 97) * 3,
        8 + (i / 97 % 89) * 5,
        8 + (i / 8633 % 83) * 7,
    )
}

fn bounded(capacity: usize) -> DecisionCache {
    DecisionCache::bounded(BoundedCacheConfig {
        capacity,
        bloom_counters: 1 << 14,
        bloom_hashes: 4,
        admit_threshold: 1,
    })
}

/// An entry that is read on every round is never the LRU victim: each
/// read refreshes its stamp, so churn evicts the stalest entry, not
/// the one in active use.
#[test]
fn hot_entry_survives_cache_churn() {
    let cache = bounded(8);
    let hot = GemmShape::new(512, 512, 512);
    cache.insert(hot, 7);
    for i in 0..1000 {
        assert_eq!(
            cache.get(&hot),
            Some(7),
            "round {i}: the entry being read must never be evicted"
        );
        cache.insert(pool_shape(i), i % 640);
        assert!(cache.footprint() <= 8, "capacity bound violated");
    }
    assert!(cache.evictions() > 900, "churn must actually evict");
}

/// The victim is the least recently used entry of the whole table, not
/// of whatever slice of it the arriving shape hashes into: after a, b,
/// c and d fill a 4-entry cache and a is read, inserting e evicts b.
#[test]
fn eviction_is_least_recently_used_across_the_whole_table() {
    let cache = bounded(4);
    let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(pool_shape);
    for (i, shape) in [a, b, c, d].into_iter().enumerate() {
        cache.insert(shape, i);
    }
    assert_eq!(cache.get(&a), Some(0));
    cache.insert(e, 4);
    assert_eq!(cache.evictions(), 1);
    assert_eq!(cache.get(&b), None, "b was the least recently used");
    for (shape, config) in [(a, 0), (c, 2), (d, 3), (e, 4)] {
        assert_eq!(cache.get(&shape), Some(config));
    }
}

/// Replay one trace through a small and a double-size cache: LRU's
/// stack (inclusion) property makes hits monotone in capacity. This is
/// exactly why the bounded mode evicts LRU rather than CLOCK, which
/// has no such guarantee. Every access must also hit exactly when a
/// reference LRU list over the whole table holds the shape.
fn replay_hits(trace: &[usize], capacity: usize) -> u64 {
    let cache = bounded(capacity);
    let mut reference: Vec<usize> = Vec::new();
    let mut hits = 0u64;
    for &i in trace {
        let shape = pool_shape(i);
        let expected = reference.iter().position(|&r| r == i);
        let hit = cache.get(&shape).is_some();
        assert_eq!(hit, expected.is_some(), "access {i} disagrees with LRU");
        if let Some(at) = expected {
            reference.remove(at);
        } else if reference.len() == capacity {
            reference.remove(0);
        }
        reference.push(i);
        if hit {
            hits += 1;
        } else {
            cache.insert(shape, i % 640);
        }
        let bound = cache.capacity().unwrap_or(usize::MAX);
        assert!(cache.footprint() <= bound);
    }
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hit_rate_is_monotone_in_capacity(
        trace in proptest::collection::vec(0usize..48, 64..512),
        capacity in 8usize..32,
    ) {
        let small = replay_hits(&trace, capacity);
        let large = replay_hits(&trace, capacity * 2);
        prop_assert!(
            large >= small,
            "doubling capacity lost hits: {large} < {small} (LRU inclusion violated)"
        );
    }
}

/// Querying shapes the filter has never seen reads a non-zero counter
/// with at most (a small multiple of) the classic Bloom bound.
#[test]
fn bloom_false_positive_rate_stays_under_bound() {
    let mut bloom = CountingBloom::new(1 << 14, 4);
    let inserted = 2000usize;
    for i in 0..inserted {
        bloom.observe(&pool_shape(i));
    }
    let probes = 4000usize;
    let mut false_positives = 0usize;
    for i in 0..probes {
        // Disjoint from the inserted range by construction.
        if bloom.estimate(&pool_shape(1_000_000 + i)) > 0 {
            false_positives += 1;
        }
    }
    let measured = false_positives as f64 / probes as f64;
    let bound = bloom.false_positive_bound(inserted as u64);
    assert!(
        measured <= bound * 2.0 + 0.01,
        "measured FPR {measured:.4} exceeds 2x theoretical bound {bound:.4}"
    );
}

/// 8 threads hammer one bounded cache: every hit must return the value
/// inserted for that exact shape (no torn or cross-shape reads), the
/// footprint must respect the bound throughout, and a shape read by
/// every thread on every iteration must stay resident virtually
/// always.
#[test]
fn bounded_cache_is_consistent_under_8_threads() {
    let cache = Arc::new(bounded(64));
    let hot = GemmShape::new(512, 512, 512);
    cache.insert(hot, (hot.stable_hash() % 640) as usize);
    let threads = 8usize;
    let iterations = 10_000usize;
    let mut hot_hits = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let mut local_hot_hits = 0u64;
                    for i in 0..iterations {
                        if let Some(v) = cache.get(&hot) {
                            assert_eq!(v, (hot.stable_hash() % 640) as usize);
                            local_hot_hits += 1;
                        } else {
                            cache.insert(hot, (hot.stable_hash() % 640) as usize);
                        }
                        let shape = pool_shape(t * iterations + i);
                        let expected = (shape.stable_hash() % 640) as usize;
                        match cache.get(&shape) {
                            Some(v) => assert_eq!(v, expected, "hit returned a foreign value"),
                            None => {
                                cache.insert(shape, expected);
                            }
                        }
                        assert!(cache.footprint() <= 64);
                    }
                    local_hot_hits
                })
            })
            .collect();
        for handle in handles {
            hot_hits += handle.join().expect("cache thread panicked");
        }
    });
    let hot_reads = (threads * iterations) as u64;
    assert!(
        hot_hits as f64 / hot_reads as f64 > 0.95,
        "constantly-read entry was evicted too often: {hot_hits}/{hot_reads}"
    );
}

// ---------------------------------------------------------------------------
// Ingress end-to-end over a real fleet
// ---------------------------------------------------------------------------

const POOL: [(usize, usize, usize); 8] = [
    (64, 64, 64),
    (512, 512, 512),
    (196, 2304, 256),
    (49, 960, 160),
    (784, 1152, 128),
    (2, 2048, 1000),
    (1024, 1024, 1024),
    (32, 4096, 4096),
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

fn request(i: usize) -> GemmRequest {
    let (m, k, n) = POOL[i % POOL.len()];
    GemmRequest::zeroed(GemmShape::new(m, k, n))
}

/// A fleet whose decision caches are capacity-bounded — the executor
/// mode the ingress layer is designed to sit in front of.
fn bounded_fleet(cache_capacity: usize) -> Vec<DeviceShard> {
    [
        (DeviceSpec::amd_r9_nano(), "nano"),
        (DeviceSpec::desktop_gpu(), "desktop-0"),
        (DeviceSpec::desktop_gpu(), "desktop-1"),
    ]
    .into_iter()
    .map(|(device, label)| {
        let queue = Queue::timing_only(Arc::new(device));
        let executor = pipeline()
            .device_bounded_executor(
                queue,
                ResilientPolicy::default(),
                BoundedCacheConfig {
                    capacity: cache_capacity,
                    admit_threshold: 1,
                    ..BoundedCacheConfig::default()
                },
            )
            .unwrap();
        DeviceShard::new(label, executor)
    })
    .collect()
}

fn scheduler(shards: Vec<DeviceShard>) -> ShardedScheduler {
    ShardedScheduler::new(
        shards,
        SchedConfig {
            policy: RoutingPolicy::LeastLoaded,
            queue_capacity: 64,
            batch_window: 8,
            seed: 11,
            ..SchedConfig::default()
        },
    )
    .unwrap()
}

/// 8 producer threads, three priorities, five tenants: everything is
/// served (the queue is large enough that nothing sheds), the
/// accounting identity holds exactly, per-class latency histograms
/// fill, and every shard's decision cache stays under its bound.
#[test]
fn eight_thread_ingress_serves_everything_with_exact_accounting() {
    let cache_capacity = 128usize;
    let ingress = Ingress::start(
        scheduler(bounded_fleet(cache_capacity)),
        IngressConfig {
            queue_capacity: 8192,
            dispatch_chunk: 256,
            tenant_quota: TenantQuota { max_queued: 8192 },
            ..IngressConfig::default()
        },
    );
    let threads = 8usize;
    let per_thread = 400usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let handle = ingress.handle();
            scope.spawn(move || {
                for i in 0..per_thread {
                    let index = t * per_thread + i;
                    let priority = match index % 3 {
                        0 => Priority::Interactive,
                        1 => Priority::Standard,
                        _ => Priority::Batch,
                    };
                    let outcome = handle
                        .submit(
                            IngressRequest::new(request(index))
                                .with_tenant((index % 5) as u32)
                                .with_priority(priority),
                        )
                        .expect("ingress is open");
                    assert!(
                        outcome.is_enqueued(),
                        "nothing sheds under a roomy queue: {outcome:?}"
                    );
                }
            });
        }
    });
    let (report, scheduler) = ingress.finish().expect("dispatcher drains cleanly");

    let total = (threads * per_thread) as u64;
    assert_eq!(report.submitted, total);
    assert_eq!(report.served, total);
    assert_eq!(report.shed_total(), 0);
    assert!(report.accounted(), "submitted == served + shed must hold");
    assert!(!report.fleet_degraded);
    assert!(report.waves > 0);
    for class in &report.classes {
        assert!(class.served > 0, "class {} starved", class.class);
        assert_eq!(class.submitted, class.served + class.shed);
        assert!(class.p99_ns >= class.p50_ns);
        assert!(class.p50_ns > 0.0);
    }
    assert_eq!(scheduler.telemetry().served, total);
    for i in 0..3 {
        let shard = scheduler.shard(i).expect("three shards");
        let cache = shard.executor().selector().cache();
        assert!(
            cache.footprint() <= cache_capacity,
            "shard {i} cache grew past its bound"
        );
    }
}

/// A live report is consistent while the dispatcher serves: taken
/// mid-stream, its per-class served counts always sum to `served`. The
/// producers hold back half their requests until the reader has seen
/// the stream part-served.
#[test]
fn live_reports_split_served_exactly_by_class() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let ingress = Ingress::start(
        scheduler(bounded_fleet(128)),
        IngressConfig {
            queue_capacity: 8192,
            dispatch_chunk: 16,
            tenant_quota: TenantQuota { max_queued: 8192 },
            ..IngressConfig::default()
        },
    );
    let (producers, per_producer) = (4usize, 1000usize);
    let total = (producers * per_producer) as u64;
    let part_served = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..producers {
            let (handle, part_served) = (ingress.handle(), &part_served);
            scope.spawn(move || {
                for i in 0..per_producer {
                    if i == per_producer / 2 {
                        while !part_served.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                    let index = t * per_producer + i;
                    let priority = Priority::ALL[index % 3];
                    let request = IngressRequest::new(request(index)).with_priority(priority);
                    assert!(handle.submit(request).expect("open").is_enqueued());
                }
            });
        }
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            assert!(Instant::now() < deadline, "the stream stalled");
            let report = ingress.report();
            let by_class: u64 = report.classes.iter().map(|c| c.served).sum();
            assert_eq!(by_class, report.served, "classes must sum to served");
            if report.served == total {
                break;
            }
            if report.served > 0 {
                part_served.store(true, Ordering::Release);
            }
        }
    });
    let (report, _) = ingress.finish().expect("dispatcher drains cleanly");
    assert!(report.accounted());
    assert_eq!(report.served, total);
}

/// One tenant with a quota of 1 flooding from 8 threads: overflow is
/// shed with the typed `TenantQuota` reason, and the accounting
/// identity still holds exactly — load is never silently dropped.
#[test]
fn noisy_tenant_is_shed_with_typed_reason() {
    let ingress = Ingress::start(
        scheduler(bounded_fleet(128)),
        IngressConfig {
            queue_capacity: 4096,
            dispatch_chunk: 64,
            tenant_quota: TenantQuota { max_queued: 1 },
            ..IngressConfig::default()
        },
    );
    let threads = 8usize;
    let per_thread = 250usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let handle = ingress.handle();
            scope.spawn(move || {
                for i in 0..per_thread {
                    let outcome = handle
                        .submit(IngressRequest::new(request(t * per_thread + i)))
                        .expect("ingress is open");
                    if let SubmitOutcome::Shed(reason) = outcome {
                        assert_eq!(reason, ShedReason::TenantQuota);
                    }
                }
            });
        }
    });
    let (report, _) = ingress.finish().expect("dispatcher drains");
    assert!(report.accounted());
    assert!(
        report.shed_tenant_quota > 0,
        "8 concurrent producers against a quota of 1 must shed"
    );
    assert_eq!(report.shed_queue_full, 0, "quota sheds before the queue");
    assert!(report.served > 0, "the tenant still gets its quota served");
}

/// Batch-priority flood against a 4-slot queue: overload sheds batch
/// work early (headroom), everything shed is typed `QueueFull`, and
/// the identity holds.
#[test]
fn overload_sheds_batch_work_before_the_queue_fills() {
    let ingress = Ingress::start(
        scheduler(bounded_fleet(128)),
        IngressConfig {
            queue_capacity: 4,
            dispatch_chunk: 4,
            tenant_quota: TenantQuota {
                max_queued: 100_000,
            },
            batch_headroom: 0.5,
        },
    );
    let threads = 8usize;
    let per_thread = 250usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let handle = ingress.handle();
            scope.spawn(move || {
                for i in 0..per_thread {
                    let outcome = handle
                        .submit(
                            IngressRequest::new(request(t * per_thread + i))
                                .with_tenant(t as u32)
                                .with_priority(Priority::Batch),
                        )
                        .expect("ingress is open");
                    if let SubmitOutcome::Shed(reason) = outcome {
                        assert_eq!(reason, ShedReason::QueueFull);
                    }
                }
            });
        }
    });
    let (report, _) = ingress.finish().expect("dispatcher drains");
    assert!(report.accounted());
    assert!(
        report.shed_queue_full > 0,
        "a 4-slot queue under an 8-thread flood must shed batch work"
    );
    assert!(report.served > 0);
}

/// The dispatcher releases the queue occupancy it dequeues, so Batch
/// work is admitted again once the queue drains. With capacity 4 and
/// half kept free at most two Batch requests are queued at a time, so
/// twenty admissions take at least ten dispatcher releases; an ingress
/// that never released would shed every Batch request after the first
/// two. The deadline only bounds a failing run.
#[test]
fn batch_admission_recovers_as_the_dispatcher_drains() {
    let ingress = Ingress::start(
        scheduler(bounded_fleet(128)),
        IngressConfig {
            queue_capacity: 4,
            dispatch_chunk: 4,
            tenant_quota: TenantQuota::default(),
            batch_headroom: 0.5,
        },
    );
    let give_up = Instant::now() + Duration::from_secs(30);
    let mut admitted = 0u64;
    let mut i = 0;
    while admitted < 20 {
        assert!(
            Instant::now() < give_up,
            "Batch work stayed shed after {admitted} admissions"
        );
        let batch = IngressRequest::new(request(i)).with_priority(Priority::Batch);
        let outcome = ingress.submit(batch).expect("ingress is open");
        if outcome.is_enqueued() {
            admitted += 1;
        } else {
            std::thread::yield_now();
        }
        i += 1;
    }
    let (report, _) = ingress.finish().expect("dispatcher drains");
    assert_eq!(report.served, admitted);
    assert!(report.accounted());
}

/// A deadline that is already expired at submit is shed immediately
/// and deterministically, with the typed reason.
#[test]
fn expired_deadline_sheds_at_submit() {
    let ingress = Ingress::start(scheduler(bounded_fleet(128)), IngressConfig::default());
    let mut doomed = IngressRequest::new(request(0));
    doomed = doomed.with_deadline_in(Duration::from_secs(0));
    let outcome = ingress.submit(doomed).expect("ingress is open");
    assert_eq!(outcome, SubmitOutcome::Shed(ShedReason::DeadlineExpired));
    let ok = ingress
        .submit(IngressRequest::new(request(1)))
        .expect("ingress is open");
    assert!(ok.is_enqueued());
    let (report, _) = ingress.finish().expect("dispatcher drains");
    assert_eq!(report.shed_deadline, 1);
    assert_eq!(report.served, 1);
    assert!(report.accounted());
}

// ---------------------------------------------------------------------------
// All-shards-poisoned meltdown: degrade, never drop
// ---------------------------------------------------------------------------

fn poisoned_fleet() -> Vec<DeviceShard> {
    (0..2)
        .map(|i| {
            let queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano())).with_fault_plan(
                Arc::new(FaultPlan::new(17 + i).doom_kernels_matching("gemm")),
            );
            let executor = pipeline()
                .device_executor(queue, ResilientPolicy::default())
                .unwrap();
            DeviceShard::new(format!("poisoned-{i}"), executor)
        })
        .collect()
}

/// Every shard melts down: the scheduler revives the most recently
/// condemned shard, degrades the stream onto its reference-kernel
/// rung, serves everything, and reports the degradation typed — no
/// panic, no spin, no drops.
#[test]
fn all_shards_poisoned_degrades_to_reference_with_zero_drops() {
    let mut sched = ShardedScheduler::new(
        poisoned_fleet(),
        SchedConfig {
            policy: RoutingPolicy::RoundRobin,
            meltdown_threshold: 2,
            batch_window: 1,
            ..SchedConfig::default()
        },
    )
    .unwrap();
    let stream: Vec<GemmRequest> = (0..40).map(request).collect();
    let report = sched.serve(&stream).unwrap();

    assert_eq!(report.served, 40, "degradation, not loss");
    assert_eq!(report.dropped, 0);
    assert!(
        report.fleet_degraded,
        "the typed degradation signal must be raised"
    );
    let reference: u64 = report.devices.iter().map(|d| d.reference_fallbacks).sum();
    assert!(reference > 0, "the work went through the reference rung");
    let per_device: u64 = report.devices.iter().map(|d| d.served).sum();
    assert_eq!(per_device, 40, "every request accounted for per device");
    assert!(
        sched.is_healthy(0) || sched.is_healthy(1),
        "exactly the revived shard stays live"
    );
}

/// The same meltdown through the full ingress path: the dispatcher's
/// report carries the degradation flag and the accounting identity
/// still closes at zero silent drops.
#[test]
fn ingress_over_poisoned_fleet_completes_and_reports_degradation() {
    let sched = ShardedScheduler::new(
        poisoned_fleet(),
        SchedConfig {
            policy: RoutingPolicy::RoundRobin,
            meltdown_threshold: 2,
            batch_window: 1,
            ..SchedConfig::default()
        },
    )
    .unwrap();
    let ingress = Ingress::start(sched, IngressConfig::default());
    for i in 0..30 {
        let outcome = ingress
            .submit(IngressRequest::new(request(i)))
            .expect("ingress is open");
        assert!(outcome.is_enqueued());
    }
    let (report, _) = ingress.finish().expect("dispatcher survives the meltdown");
    assert_eq!(report.submitted, 30);
    assert_eq!(report.served, 30);
    assert!(report.accounted());
    assert!(report.fleet_degraded, "degradation must be surfaced");
}

/// A request whose `C` is empty (4×4×0) reaches a kernel body on an
/// executing fleet. It must complete like any other request rather
/// than take the dispatcher down, and the request behind it must still
/// be served.
#[test]
fn zero_width_request_does_not_kill_the_dispatcher() {
    let queue = Queue::new(Arc::new(DeviceSpec::amd_r9_nano()));
    let executor = pipeline()
        .device_executor(queue, ResilientPolicy::default())
        .unwrap();
    let ingress = Ingress::start(
        scheduler(vec![DeviceShard::new("nano", executor)]),
        IngressConfig::default(),
    );
    for shape in [GemmShape::new(4, 4, 0), GemmShape::new(16, 8, 12)] {
        let outcome = ingress
            .submit(IngressRequest::new(GemmRequest::zeroed(shape)))
            .expect("ingress is open");
        assert!(outcome.is_enqueued());
    }
    let (report, _) = ingress
        .finish()
        .expect("the dispatcher survives an empty product");
    assert_eq!(report.served, 2);
    assert!(report.accounted());
}
