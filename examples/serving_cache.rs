//! Serving-layer demo: the concurrent shape→kernel decision cache.
//!
//! A trained pipeline sits behind an inference server. The same few
//! layer shapes recur on every request, so after the first touch every
//! dispatch decision is a locked hash-map lookup instead of a model
//! inference. This example:
//!
//! 1. trains the default pipeline and wraps its model in a
//!    `CachedSelector`,
//! 2. serves a recurring traffic mix from 8 threads through the cache,
//! 3. prints the telemetry (hit rate, per-kernel pick counts, hit/miss
//!    latency) and the measured cached-vs-uncached speedup,
//! 4. launches one kernel per distinct shape with its decision attached
//!    to the simulator's Chrome-trace timeline.
//!
//! Run with: `cargo run --release --example serving_cache`

use autokernel::core::cache::CachedSelector;
use autokernel::core::{PipelineConfig, SelectorKind, TuningPipeline};
use autokernel::gemm::{GemmShape, TiledGemmKernel};
use autokernel::sim::trace::TraceRecorder;
use autokernel::sim::{Buffer, DeviceType, Platform, Queue};
use std::sync::Arc;
use std::time::Instant;

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

    let platform = Platform::standard();
    let device = platform.device_by_type(DeviceType::Gpu)?;

    println!("training the pipeline on {} ...", device.name);
    // Serve a random forest: the most expensive selector to consult,
    // i.e. the regime where the decision cache pays the most. (With the
    // paper's recommended plain decision tree, a single inference is
    // already ~as cheap as a cache hit — the cache then only buys the
    // telemetry.)
    let pipeline = TuningPipeline::run(
        &device,
        &shapes,
        PipelineConfig {
            selector: SelectorKind::RandomForest,
            ..PipelineConfig::default()
        },
    )?;
    // The serving cache: a memo of the pipeline's model, with telemetry.
    let serving = CachedSelector::new(Arc::clone(pipeline.selector()));

    // The recurring traffic mix an inference server would see: a small
    // working set of unseen shapes, requested over and over.
    let working_set: Vec<GemmShape> = (0..8)
        .map(|i| GemmShape::new(100 + i * 37, 256 + i * 11, 64 + i * 23))
        .collect();
    const THREADS: usize = 8;
    const REQUESTS_PER_THREAD: usize = 250;

    println!(
        "\nserving {} requests ({THREADS} threads x {REQUESTS_PER_THREAD}) over {} distinct shapes ...",
        THREADS * REQUESTS_PER_THREAD,
        working_set.len()
    );
    let served = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let serving = &serving;
            let working_set = &working_set;
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_THREAD {
                    let shape = &working_set[(t + i) % working_set.len()];
                    serving.select(shape).expect("selection succeeds");
                }
            });
        }
    });
    let served = served.elapsed();

    let t = serving.telemetry().snapshot();
    let decisions = t.hits + t.misses;
    let picked: u64 = t.picks.iter().map(|p| p.count).sum();
    println!("served in {:.2} ms wall clock", served.as_secs_f64() * 1e3);
    println!(
        "telemetry: {} hits / {} misses (hit rate {:.1}%), {picked} picks",
        t.hits,
        t.misses,
        t.hits as f64 * 100.0 / decisions.max(1) as f64
    );
    assert_eq!(
        decisions,
        (THREADS * REQUESTS_PER_THREAD) as u64,
        "every decision is counted"
    );
    assert_eq!(picked, decisions, "every decision counts one pick");
    println!(
        "mean decision latency: {:.0} ns on a hit vs {:.0} ns on a miss ({:.0}x)",
        t.mean_hit_nanos,
        t.mean_miss_nanos,
        t.mean_miss_nanos / t.mean_hit_nanos.max(1.0)
    );
    println!("picks per shipped kernel:");
    for pick in &t.picks {
        if pick.count > 0 {
            println!("  config {:>3}: {} picks", pick.config_index, pick.count);
        }
    }

    // Direct cached-vs-uncached comparison on one warm shape.
    let probe = working_set[0];
    let reps = 2000u32;
    let start = Instant::now();
    for _ in 0..reps {
        pipeline.selector().select_shape(&probe)?;
    }
    let uncached = start.elapsed() / reps;
    let start = Instant::now();
    for _ in 0..reps {
        serving.select(&probe)?;
    }
    let cached = start.elapsed() / reps;
    println!(
        "\nwarm-shape decision: {:.0} ns cached vs {:.0} ns uncached ({:.0}x faster)",
        cached.as_nanos() as f64,
        uncached.as_nanos() as f64,
        uncached.as_nanos() as f64 / cached.as_nanos().max(1) as f64
    );

    // Launch one kernel per distinct shape, tracing the decision that
    // picked it.
    let queue = Queue::new(device);
    let mut trace = TraceRecorder::new();
    for shape in &working_set {
        let outcome = serving.select_outcome(shape)?;
        let config = autokernel::gemm::config::KernelConfig::from_index(outcome.config_index)
            .expect("valid index");
        let a = Buffer::from_vec(vec![1.0f32; shape.m * shape.k]);
        let b = Buffer::from_vec(vec![1.0f32; shape.k * shape.n]);
        let c = Buffer::from_vec(vec![0.0f32; shape.m * shape.n]);
        let kernel = TiledGemmKernel::new(config, *shape, a, b, c)?;
        let event = queue.submit(&kernel, kernel.preferred_range()?)?;
        trace.record_with_decision("serving", event, outcome.into());
    }
    println!(
        "\ntraced {} launches ({} served from cache); first 120 chars of the Chrome trace:",
        trace.decided_launches(),
        trace.cache_hit_launches()
    );
    let json = trace.to_chrome_trace();
    println!("  {}...", &json[..120.min(json.len())]);

    println!("\nserving_cache OK");
    Ok(())
}
