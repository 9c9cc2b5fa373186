//! Concurrency tests: the runtime must behave under parallel submission
//! from many host threads (libraries tune from thread pools).

use autokernel_sycl_sim::perf::KernelProfile;
use autokernel_sycl_sim::{Buffer, DeviceSpec, NDRange, Queue, SimKernel};
use std::sync::Arc;

struct AddOne {
    buf: Buffer<u32>,
}

impl SimKernel for AddOne {
    fn name(&self) -> Arc<str> {
        "add_one".into()
    }
    fn profile(&self, _d: &DeviceSpec, _r: &NDRange) -> KernelProfile {
        KernelProfile {
            flops_per_item: 1.0,
            bytes_per_item: 8.0,
            cache_reuse: 0.0,
            registers_per_item: 8,
            lds_bytes_per_group: 0,
            coalescing: 1.0,
            useful_items: self.buf.len() as f64,
            ilp: 1.0,
        }
    }
    fn execute(&self, _r: &NDRange) -> autokernel_sycl_sim::Result<()> {
        let mut data = self.buf.write();
        for v in data.iter_mut() {
            *v += 1;
        }
        Ok(())
    }
}

#[test]
fn parallel_submissions_serialise_on_the_in_order_queue() {
    let queue = Arc::new(Queue::new(Arc::new(DeviceSpec::amd_r9_nano())));
    let buf = Buffer::from_vec(vec![0u32; 256]);
    let range = NDRange::new([256, 1], [64, 1]).unwrap();
    let n_threads = 8;
    let per_thread = 25;

    std::thread::scope(|s| {
        for _ in 0..n_threads {
            let queue = Arc::clone(&queue);
            let buf = buf.clone();
            s.spawn(move || {
                let kernel = AddOne { buf };
                for _ in 0..per_thread {
                    queue.submit(&kernel, range).unwrap();
                }
            });
        }
    });

    // Every increment must be visible (buffer writes are exclusive).
    let expect = (n_threads * per_thread) as u32;
    assert!(buf.to_vec().iter().all(|&v| v == expect));

    // The simulated clock advanced by exactly the sum of all launches:
    // identical launches have identical durations on this queue.
    let kernel = AddOne {
        buf: Buffer::from_vec(vec![0u32; 256]),
    };
    let probe = Queue::new(Arc::new(DeviceSpec::amd_r9_nano()));
    let one = probe.submit(&kernel, range).unwrap().duration_s();
    let total = queue.now_s();
    let runs = (n_threads * per_thread) as f64;
    assert!(
        (total - one * runs).abs() < 1e-9 * total,
        "clock {total} vs {runs} x {one}"
    );
}

#[test]
fn events_from_parallel_submissions_do_not_overlap() {
    let queue = Arc::new(Queue::timing_only(Arc::new(DeviceSpec::desktop_gpu())));
    let range = NDRange::new([128, 1], [64, 1]).unwrap();

    let events: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let queue = Arc::clone(&queue);
                s.spawn(move || {
                    let kernel = AddOne {
                        buf: Buffer::from_vec(vec![0u32; 128]),
                    };
                    (0..20)
                        .map(|_| queue.submit(&kernel, range).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let mut sorted = events;
    sorted.sort_by(|a, b| a.start_s().partial_cmp(&b.start_s()).unwrap());
    for pair in sorted.windows(2) {
        assert!(
            pair[1].start_s() >= pair[0].end_s() - 1e-15,
            "events overlap: {}..{} then {}..{}",
            pair[0].start_s(),
            pair[0].end_s(),
            pair[1].start_s(),
            pair[1].end_s()
        );
    }
}

#[test]
fn queues_sharing_a_context_serialise_against_each_other() {
    use autokernel_sycl_sim::Context;
    let ctx = Context::new(Arc::new(DeviceSpec::amd_r9_nano()));
    let q1 = ctx.create_timing_queue();
    let q2 = ctx.create_timing_queue();
    let kernel = AddOne {
        buf: Buffer::from_vec(vec![0u32; 128]),
    };
    let range = NDRange::new([128, 1], [64, 1]).unwrap();

    let e1 = q1.submit(&kernel, range).unwrap();
    let e2 = q2.submit(&kernel, range).unwrap();
    // The second launch (on a *different* queue) starts after the first:
    // one device, one timeline.
    assert!(e2.start_s() >= e1.end_s() - 1e-18);
    assert!((ctx.now_s() - e2.end_s()).abs() < 1e-18);
}

#[test]
fn independent_queues_have_independent_timelines() {
    let device = Arc::new(DeviceSpec::amd_r9_nano());
    let q1 = Queue::timing_only(device.clone());
    let q2 = Queue::timing_only(device);
    let kernel = AddOne {
        buf: Buffer::from_vec(vec![0u32; 128]),
    };
    let range = NDRange::new([128, 1], [64, 1]).unwrap();
    let e1 = q1.submit(&kernel, range).unwrap();
    let e2 = q2.submit(&kernel, range).unwrap();
    // Both start at t=0 on their own clocks.
    assert_eq!(e1.start_s(), 0.0);
    assert_eq!(e2.start_s(), 0.0);
}
