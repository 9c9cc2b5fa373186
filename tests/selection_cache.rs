//! Integration tests of the concurrent serving layer: the decision
//! cache must behave as a pure memoisation of the selector under
//! multi-threaded traffic, its telemetry must reconcile exactly, and
//! decisions must flow into the simulator's launch traces.

use autokernel::core::cache::CachedSelector;
use autokernel::core::{PerformanceDataset, PruneMethod, Selector, SelectorKind};
use autokernel::gemm::{GemmShape, TiledGemmKernel};
use autokernel::sim::trace::{LaunchDecision, TraceRecorder};
use autokernel::sim::{Buffer, DeviceSpec, DeviceType, Platform, Queue};
use std::sync::{Arc, OnceLock};

const THREADS: usize = 8;
const SELECTIONS_PER_THREAD: usize = 25;

fn trained() -> Arc<Selector> {
    static SEL: OnceLock<Arc<Selector>> = OnceLock::new();
    Arc::clone(SEL.get_or_init(|| {
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
        let ds = PerformanceDataset::collect(&DeviceSpec::amd_r9_nano(), &shapes).unwrap();
        let train: Vec<usize> = (0..ds.n_shapes()).collect();
        let configs = PruneMethod::TopN.select(&ds, &train, 6, 0).unwrap();
        Arc::new(Selector::train(SelectorKind::DecisionTree, &ds, &train, &configs, 0).unwrap())
    }))
}

/// Shapes a serving thread would see: a small working set that recurs.
fn traffic() -> Vec<GemmShape> {
    (0..10)
        .map(|i| GemmShape::new(32 + i * 61, 64 + i * 13, 48 + i * 29))
        .collect()
}

#[test]
fn concurrent_selection_is_coherent_and_reconciles() {
    let selector = trained();
    let cached = CachedSelector::new(Arc::clone(&selector));
    let shapes = traffic();

    // Uncached reference decisions, computed single-threaded.
    let expected: Vec<usize> = shapes
        .iter()
        .map(|s| selector.select_shape(s).unwrap())
        .collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cached = &cached;
            let shapes = &shapes;
            let expected = &expected;
            scope.spawn(move || {
                for i in 0..SELECTIONS_PER_THREAD {
                    let j = (t + i) % shapes.len();
                    let got = cached.select(&shapes[j]).unwrap();
                    assert_eq!(
                        got, expected[j],
                        "thread {t} selection {i} diverged from the uncached selector"
                    );
                }
            });
        }
    });

    let t = cached.telemetry().snapshot();
    let total = (THREADS * SELECTIONS_PER_THREAD) as u64;
    assert_eq!(t.hits + t.misses, total, "every selection must be counted");
    // Each distinct shape misses at least once; concurrent first
    // touches may miss more than once (benign race), but never more
    // often than total threads per shape.
    assert!(t.misses >= shapes.len() as u64);
    assert!(t.misses <= (shapes.len() * THREADS) as u64);
    assert!(t.hits > 0, "warm traffic must produce hits");
    assert_eq!(cached.cached_shapes(), shapes.len());
    let picked: u64 = t.picks.iter().map(|p| p.count).sum();
    assert_eq!(picked, total, "every selection picks a shipped config");
}

#[test]
fn selection_decisions_annotate_launch_traces() {
    let selector = trained();
    let cached = CachedSelector::new(Arc::clone(&selector));
    let shape = GemmShape::new(256, 256, 256);

    let platform = Platform::standard();
    let queue = Queue::new(platform.device_by_type(DeviceType::Gpu).unwrap());
    let mut trace = TraceRecorder::new();

    // Serve the same shape twice: one model inference, one cache hit.
    for _ in 0..2 {
        let outcome = cached.select_outcome(&shape).unwrap();
        let config = autokernel::gemm::config::KernelConfig::from_index(outcome.config_index)
            .expect("selector returns valid indices");
        let a = Buffer::from_vec(vec![1.0f32; shape.m * shape.k]);
        let b = Buffer::from_vec(vec![1.0f32; shape.k * shape.n]);
        let c = Buffer::from_vec(vec![0.0f32; shape.m * shape.n]);
        let kernel = TiledGemmKernel::new(config, shape, a, b, c).unwrap();
        let event = queue
            .submit(&kernel, kernel.preferred_range().unwrap())
            .unwrap();
        trace.record_with_decision("serving", event, LaunchDecision::from(outcome));
    }

    assert_eq!(trace.decided_launches(), 2);
    assert_eq!(trace.cache_hit_launches(), 1);
    let parsed: serde_json::Value = serde_json::from_str(&trace.to_chrome_trace()).unwrap();
    let events = parsed["traceEvents"].as_array().unwrap();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0]["args"]["cache_hit"], false);
    assert_eq!(events[1]["args"]["cache_hit"], true);
    assert_eq!(
        events[0]["args"]["config_index"],
        events[1]["args"]["config_index"]
    );
}
