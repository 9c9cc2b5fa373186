//! Property-based integration tests: invariants that must hold for
//! arbitrary shapes and configurations across the whole stack.

use autokernel::core::cache::CachedSelector;
use autokernel::core::{PerformanceDataset, PruneMethod, Selector, SelectorKind};
use autokernel::gemm::config::{KernelConfig, WORK_GROUPS};
use autokernel::gemm::reference::{max_abs_diff, reference_gemm, test_matrices};
use autokernel::gemm::{model, GemmShape, TiledGemmKernel};
use autokernel::sim::{perf, Buffer, DeviceSpec, DeviceType, Platform, Queue};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn arb_shape() -> impl Strategy<Value = GemmShape> {
    (1usize..200, 1usize..300, 1usize..200).prop_map(|(m, k, n)| GemmShape::new(m, k, n))
}

/// A selector trained once and shared across property cases (training
/// is far too slow to repeat per case, and the properties only concern
/// inference).
fn shared_selector() -> Arc<Selector> {
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

fn arb_config() -> impl Strategy<Value = KernelConfig> {
    (0usize..KernelConfig::count()).prop_map(|i| KernelConfig::from_index(i).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every configuration computes the same product as the reference,
    /// on arbitrary (including awkward) shapes.
    #[test]
    fn any_config_matches_reference(shape in arb_shape(), cfg in arb_config()) {
        let (a, b) = test_matrices(shape, 11);
        let mut expect = vec![0.0f32; shape.m * shape.n];
        reference_gemm(shape, &a, &b, &mut expect);

        let bc = Buffer::from_vec(vec![0.0f32; shape.m * shape.n]);
        let kernel = TiledGemmKernel::new(
            cfg, shape, Buffer::from_vec(a), Buffer::from_vec(b), bc.clone(),
        ).unwrap();
        let platform = Platform::standard();
        let queue = Queue::new(platform.device_by_type(DeviceType::Gpu).unwrap());
        queue.submit(&kernel, kernel.preferred_range().unwrap()).unwrap();
        let err = max_abs_diff(&bc.to_vec(), &expect);
        prop_assert!(err < 1e-3, "config {cfg} on {shape}: err {err}");
    }

    /// The launch range always covers the useful grid and is padded to
    /// exact work-group multiples.
    #[test]
    fn launch_range_covers_and_pads(shape in arb_shape(), cfg in arb_config()) {
        let grid = model::useful_grid(&cfg, &shape);
        let range = model::launch_range(&cfg, &shape).unwrap();
        prop_assert!(range.global()[0] >= grid[0]);
        prop_assert!(range.global()[1] >= grid[1]);
        prop_assert_eq!(range.global()[0] % cfg.work_group.rows, 0);
        prop_assert_eq!(range.global()[1] % cfg.work_group.cols, 0);
        // Padding never exceeds one work-group per dimension.
        prop_assert!(range.global()[0] - grid[0] < cfg.work_group.rows);
        prop_assert!(range.global()[1] - grid[1] < cfg.work_group.cols);
    }

    /// Cost-model outputs are finite, positive and bounded sanely for
    /// every (config, shape, device) triple.
    #[test]
    fn cost_model_outputs_are_physical(shape in arb_shape(), cfg in arb_config()) {
        for device in [
            DeviceSpec::amd_r9_nano(),
            DeviceSpec::desktop_gpu(),
            DeviceSpec::embedded_accelerator(),
        ] {
            let profile = model::profile(&cfg, &shape, &device);
            let range = model::launch_range(&cfg, &shape).unwrap();
            let cost = perf::estimate_cost(&device, &profile, &range);
            prop_assert!(cost.total_s.is_finite() && cost.total_s > 0.0);
            prop_assert!(cost.total_s >= device.launch_overhead);
            prop_assert!((0.0..=1.0).contains(&cost.occupancy));
            prop_assert!((0.0..=1.0).contains(&cost.utilization));
            // Achieved FLOP/s never exceeds peak.
            let achieved = cost.achieved_flops(shape.flops());
            prop_assert!(achieved <= device.peak_flops * 1.001,
                "{cfg} on {shape}: {achieved} > peak");
        }
    }

    /// Pricing is deterministic: two queues on the same device price a
    /// launch identically.
    #[test]
    fn pricing_is_deterministic(shape in arb_shape(), cfg in arb_config()) {
        let device = std::sync::Arc::new(DeviceSpec::amd_r9_nano());
        let q1 = Queue::timing_only(device.clone());
        let q2 = Queue::timing_only(device.clone());
        let profile = model::profile(&cfg, &shape, &device);
        let range = model::launch_range(&cfg, &shape).unwrap();
        let seed = model::noise_seed(&cfg, &shape);
        prop_assert_eq!(
            q1.price(&profile, &range, seed).unwrap().1,
            q2.price(&profile, &range, seed).unwrap().1
        );
    }

    /// Work-group shape is a runtime parameter: changing it never
    /// changes results, only timing.
    #[test]
    fn work_group_does_not_change_results(shape in arb_shape(), tile_idx in 0usize..64) {
        let (tr, tc, ad) = KernelConfig::compile_time_variants()[tile_idx];
        let (a, b) = test_matrices(shape, 5);
        let mut outputs = Vec::new();
        for wg in [WORK_GROUPS[0], WORK_GROUPS[6], WORK_GROUPS[9]] {
            let cfg = KernelConfig::new(tr, tc, ad, wg).unwrap();
            let bc = Buffer::from_vec(vec![0.0f32; shape.m * shape.n]);
            let kernel = TiledGemmKernel::new(
                cfg, shape, Buffer::from_vec(a.clone()), Buffer::from_vec(b.clone()), bc.clone(),
            ).unwrap();
            let platform = Platform::standard();
            let queue = Queue::new(platform.device_by_type(DeviceType::Gpu).unwrap());
            queue.submit(&kernel, kernel.preferred_range().unwrap()).unwrap();
            outputs.push(bc.to_vec());
        }
        prop_assert_eq!(max_abs_diff(&outputs[0], &outputs[1]), 0.0);
        prop_assert_eq!(max_abs_diff(&outputs[0], &outputs[2]), 0.0);
    }

    /// The serving cache is a pure memoisation: for arbitrary shapes,
    /// cold lookups, warm lookups and lookups after concurrent warm-up
    /// from several threads all equal the uncached selector's answer.
    #[test]
    fn cached_selection_equals_uncached(shapes in proptest::collection::vec(arb_shape(), 1..8)) {
        let selector = shared_selector();
        let cached = CachedSelector::new(Arc::clone(&selector));
        for shape in &shapes {
            let direct = selector.select_shape(shape).unwrap();
            prop_assert_eq!(cached.select(shape).unwrap(), direct, "cold lookup for {}", shape);
            prop_assert_eq!(cached.select(shape).unwrap(), direct, "warm lookup for {}", shape);
        }

        // Concurrent warm-up of a fresh cache must not change decisions.
        let fresh = CachedSelector::new(Arc::clone(&selector));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let fresh = &fresh;
                let shapes = &shapes;
                scope.spawn(move || {
                    for shape in shapes {
                        fresh.select(shape).unwrap();
                    }
                });
            }
        });
        for shape in &shapes {
            prop_assert_eq!(
                fresh.select(shape).unwrap(),
                selector.select_shape(shape).unwrap(),
                "post-concurrent-warm-up lookup for {}",
                shape
            );
        }
        let t = fresh.telemetry().snapshot();
        let picked: u64 = t.picks.iter().map(|p| p.count).sum();
        prop_assert_eq!(t.hits + t.misses, 5 * shapes.len() as u64);
        prop_assert_eq!(picked, t.hits + t.misses);
    }
}
