//! One seed gives the same layer-by-layer replay, counts and allocation
//! counts included; another seed gives another stream.
//!
//! This file holds a single test: the allocation counter is global, so no
//! other test may allocate while it counts.

use perfbench::host;
use perfbench::run::{self, Inputs};
use perfbench::traced::{self, Replay, Tracer};
use perfbench::workload::Workload;

fn replay(workload: Workload, seed: u64, warmup: usize, n: usize) -> Replay {
    let (pipeline, _, _) = perfbench::deploy::pipeline();
    let inputs = Inputs::new(workload, seed, warmup + n);
    let onset = run::fault_onset(warmup, n, workload.spec().devices.len());
    let mut tracer = Tracer::new();
    host::set_counting(true);
    let (replay, _, _) = traced::replay(
        workload,
        seed,
        &pipeline,
        &inputs,
        warmup,
        n,
        onset,
        &mut tracer,
    );
    host::set_counting(false);
    replay
}

#[test]
fn replays_repeat_exactly_for_a_seed() {
    for (workload, warmup, n) in [
        (Workload::Resnet50Hot, 2_000, 3_000),
        (Workload::ShapeChurn, 2_000, 4_000),
        (Workload::RealGemm, 48, 48),
    ] {
        let a = replay(workload, 21, warmup, n);
        let b = replay(workload, 21, warmup, n);
        assert_eq!(a.counts(), b.counts(), "{}", workload.name());
        assert!(
            a.serve_allocs > 0 && a.launch_allocs > 0,
            "the allocator counted"
        );
        assert!(a.makespan_s > 0.0, "the replay advanced the device clocks");

        let other = replay(workload, 22, warmup, n);
        assert_ne!(
            a.counts(),
            other.counts(),
            "{}: another seed, another replay",
            workload.name()
        );
    }
}
