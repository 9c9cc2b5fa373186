//! The dispatch path's allocation budget, counted by a thread-local
//! counting global allocator.
//!
//! Between `ShardedScheduler::serve` and the simulated queue, a warm
//! fleet allocates a small constant per chunk (the report's assignment
//! and device lists, each device's label, the per-call baselines) plus
//! at most one kernel name per prepared launch — and a launch is
//! prepared at most once per batch. Nothing is allocated per request,
//! and a decision-cache miss (tree inference, Bloom admission, LRU
//! eviction) adds nothing of its own once the decision table is full.

use autokernel::core::cache::BoundedCacheConfig;
use autokernel::core::resilient::ResilientPolicy;
use autokernel::core::sched::{DeviceShard, GemmRequest, SchedConfig, ShardedScheduler};
use autokernel::core::{PipelineConfig, TuningPipeline};
use autokernel::gemm::GemmShape;
use autokernel::sim::{DeviceSpec, Queue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting this thread's allocations (and
/// reallocations): tests run on parallel threads, and the scheduler
/// runs every wave on its caller's.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the count is a plain thread-local statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread made while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// What one chunk may allocate besides kernel names: the report's
/// assignment and device lists, three device labels and the per-call
/// clock and counter baselines are six; the rest is slack.
const PER_CHUNK: u64 = 8;

const CHUNK: usize = 1024;

fn pipeline() -> TuningPipeline {
    let shapes: Vec<(GemmShape, String)> = [
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
    .collect();
    TuningPipeline::run(
        &DeviceSpec::amd_r9_nano(),
        &shapes,
        PipelineConfig::default(),
    )
    .expect("the pipeline trains on a dozen shapes")
}

/// Three timing-only devices, each behind a bounded, Bloom-admitted
/// decision cache of `capacity` entries.
fn fleet(pipeline: &TuningPipeline, capacity: usize) -> ShardedScheduler {
    let devices = [
        ("nano-0", DeviceSpec::amd_r9_nano()),
        ("desktop-0", DeviceSpec::desktop_gpu()),
        ("desktop-1", DeviceSpec::desktop_gpu()),
    ];
    let shards = devices
        .into_iter()
        .map(|(label, device)| {
            let executor = pipeline
                .device_bounded_executor(
                    Queue::timing_only(Arc::new(device)),
                    ResilientPolicy::default(),
                    BoundedCacheConfig {
                        capacity,
                        admit_threshold: 1,
                        ..BoundedCacheConfig::default()
                    },
                )
                .expect("a bounded executor builds");
            DeviceShard::new(label, executor)
        })
        .collect();
    ShardedScheduler::new(shards, SchedConfig::default()).expect("a fleet schedules")
}

/// `count` requests cycling over `shapes`; requests of one shape share
/// their operands (a timing-only fleet never reads them).
fn chunk(shapes: &[GemmShape], count: usize) -> Vec<GemmRequest> {
    let requests: Vec<GemmRequest> = shapes.iter().map(|&s| GemmRequest::zeroed(s)).collect();
    (0..count)
        .map(|i| requests[i % requests.len()].clone())
        .collect()
}

/// A distinct small shape per `i`.
fn fresh_shape(i: usize) -> GemmShape {
    GemmShape::new(1 + i % 61, 2 + i / 61 % 59, 3 + i / 3599 % 53)
}

/// Serve `requests` once, checking the chunk stays within its budget.
/// Returns the chunk's batch count.
fn serve_within_budget(scheduler: &mut ShardedScheduler, requests: &[GemmRequest]) -> usize {
    let (report, allocs) = allocations(|| scheduler.serve(requests));
    let report = report.expect("the fleet serves the chunk");
    assert_eq!(report.served, requests.len());
    let batches = report.assignments.len();
    assert!(
        allocs <= PER_CHUNK + batches as u64,
        "{allocs} allocations for {} requests in {batches} batches",
        requests.len()
    );
    batches
}

#[test]
fn a_warm_chunk_allocates_per_chunk_and_per_launch_only() {
    let pipeline = pipeline();
    let mut scheduler = fleet(&pipeline, 1024);
    let shapes: Vec<GemmShape> = (0..12).map(fresh_shape).collect();
    let requests = chunk(&shapes, CHUNK);
    for _ in 0..3 {
        scheduler.serve(&requests).expect("warm-up serves");
    }
    for _ in 0..3 {
        let batches = serve_within_budget(&mut scheduler, &requests);
        assert!(
            batches * 4 <= CHUNK,
            "same-shape requests coalesce: {batches} batches"
        );
    }
}

#[test]
fn a_miss_adds_no_allocation_once_the_table_is_full() {
    let pipeline = pipeline();
    let capacity = 32;
    let mut scheduler = fleet(&pipeline, capacity);
    // Fill every device's table, and churn it until its index has
    // reached its steady size.
    for round in 0..8 {
        let shapes: Vec<GemmShape> = (0..512).map(|i| fresh_shape(round * 512 + i)).collect();
        scheduler
            .serve(&chunk(&shapes, CHUNK))
            .expect("warm-up serves");
    }
    let misses = |scheduler: &ShardedScheduler| -> u64 {
        (0..3)
            .filter_map(|i| scheduler.shard(i))
            .map(|shard| shard.executor().selector().telemetry().snapshot().misses)
            .sum()
    };
    for round in 8..11 {
        // 256 never-seen shapes, four requests each.
        let shapes: Vec<GemmShape> = (0..256).map(|i| fresh_shape(round * 512 + i)).collect();
        let requests = chunk(&shapes, CHUNK);
        let before = misses(&scheduler);
        let batches = serve_within_budget(&mut scheduler, &requests);
        assert_eq!(batches, shapes.len(), "one batch per shape");
        assert!(
            misses(&scheduler) - before >= shapes.len() as u64,
            "every new shape misses"
        );
        for i in 0..3 {
            let cache = scheduler
                .shard(i)
                .expect("three shards")
                .executor()
                .selector();
            assert_eq!(cache.cache().footprint(), capacity, "the table stays full");
        }
    }
}
