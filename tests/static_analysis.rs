//! Integration tests of the static kernel-space analyzer: exhaustive
//! analyzer/runtime agreement on every shipped device model, golden
//! SARIF report bytes, static pre-pruning inside the tuning pipeline,
//! and the resilient executor's invalid/dominated fallback filtering.

use autokernel::analyze::{KernelSpaceAnalyzer, SpaceAnalysis, Verdict};
use autokernel::core::cache::CachedSelector;
use autokernel::core::resilient::{ResilientExecutor, ResilientPolicy};
use autokernel::core::{
    PerformanceDataset, PipelineConfig, Selector, SelectorKind, TuningPipeline,
};
use autokernel::gemm::reference::{max_abs_diff, reference_gemm, test_matrices};
use autokernel::gemm::{model, GemmShape, KernelConfig};
use autokernel::sim::trace::FallbackLevel;
use autokernel::sim::{validate_launch, Buffer, DeviceSpec, Queue, SimError};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn shipped_devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::amd_r9_nano(),
        DeviceSpec::desktop_gpu(),
        DeviceSpec::embedded_accelerator(),
        DeviceSpec::host_cpu(),
        DeviceSpec::edge_dsp(),
    ]
}

/// Host-CPU analysis, computed once: the interesting device for pruning
/// tests (its 64 total lanes reject every 128/256-wide work-group).
fn host_analysis() -> &'static SpaceAnalysis {
    static A: OnceLock<SpaceAnalysis> = OnceLock::new();
    A.get_or_init(|| {
        KernelSpaceAnalyzer::new(DeviceSpec::host_cpu())
            .analyze()
            .expect("analysis succeeds")
    })
}

/// A small host-CPU dataset shared by the resilient-filtering tests.
fn host_dataset() -> &'static PerformanceDataset {
    static DS: OnceLock<PerformanceDataset> = OnceLock::new();
    DS.get_or_init(|| {
        let shapes: Vec<(GemmShape, String)> = [
            (64, 64, 64),
            (512, 512, 512),
            (196, 2304, 256),
            (49, 960, 160),
            (32, 4096, 4096),
            (1024, 1024, 1024),
        ]
        .iter()
        .map(|&(m, k, n)| (GemmShape::new(m, k, n), "T".to_string()))
        .collect();
        PerformanceDataset::collect(&DeviceSpec::host_cpu(), &shapes).expect("dataset collects")
    })
}

fn operand_buffers(shape: GemmShape, seed: u64) -> (Buffer<f32>, Buffer<f32>, Buffer<f32>) {
    let (a, b) = test_matrices(shape, seed);
    (
        Buffer::from_vec(a),
        Buffer::from_vec(b),
        Buffer::new_filled(shape.m * shape.n, 0.0f32),
    )
}

/// The tentpole guarantee: on every shipped device model, every one of
/// the 640 configurations gets an analyzer verdict that agrees *exactly*
/// with what the runtime's launch validation would decide — including
/// the resource kind and the requested/limit numbers in the rejection.
#[test]
fn analyzer_agrees_with_runtime_on_all_devices_and_all_640_configs() {
    let shape = GemmShape::new(1024, 1024, 1024);
    for device in shipped_devices() {
        let analysis = KernelSpaceAnalyzer::new(device.clone())
            .analyze()
            .expect("analysis succeeds");
        assert_eq!(analysis.configs.len(), KernelConfig::count());
        for (cfg, result) in KernelConfig::all().iter().zip(&analysis.configs) {
            let range = model::launch_range(cfg, &shape).expect("launch range");
            let profile = model::profile(cfg, &shape, &device);
            match (&result.verdict, validate_launch(&device, &profile, &range)) {
                (
                    Verdict::Invalid {
                        resource,
                        requested,
                        limit,
                    },
                    Err(SimError::Exhausted(e)),
                ) => {
                    assert_eq!(*resource, e.resource, "{}/{cfg}", device.name);
                    assert_eq!(*requested, e.requested, "{}/{cfg}", device.name);
                    assert_eq!(*limit, e.limit, "{}/{cfg}", device.name);
                }
                (Verdict::Valid | Verdict::Degraded { .. }, Ok(())) => {}
                (verdict, runtime) => panic!(
                    "{}/{cfg}: analyzer says {verdict:?}, runtime says {runtime:?}",
                    device.name
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Launch validity is a *static* property: the analyzer's verdict
    /// (computed at the canonical 1024³ shape) predicts the runtime's
    /// accept/reject decision for arbitrary problem shapes too, because
    /// all three resource checks read only the work-group geometry.
    #[test]
    fn invalid_verdicts_hold_for_arbitrary_shapes(
        m in 1usize..400,
        k in 1usize..400,
        n in 1usize..400,
        idx in 0usize..640,
    ) {
        let shape = GemmShape::new(m, k, n);
        let device = DeviceSpec::host_cpu();
        let cfg = KernelConfig::from_index(idx).unwrap();
        let range = model::launch_range(&cfg, &shape).unwrap();
        let profile = model::profile(&cfg, &shape, &device);
        let runtime_accepts = validate_launch(&device, &profile, &range).is_ok();
        prop_assert_eq!(
            !host_analysis().configs[idx].verdict.is_invalid(),
            runtime_accepts,
            "config {} on shape {}", cfg, shape
        );
    }
}

/// The SARIF report for the edge DSP (the device exercising all three
/// invalid kinds) is byte-identical to the checked-in golden file.
/// Regenerate intentionally with `BLESS=1 cargo test -q golden`.
#[test]
fn edge_dsp_sarif_report_matches_golden_file() {
    let analysis = KernelSpaceAnalyzer::new(DeviceSpec::edge_dsp())
        .analyze()
        .expect("analysis succeeds");
    assert!(analysis.invalid_count() > 0, "edge DSP must reject configs");
    assert!(analysis.dominated_count() > 0);
    let rendered =
        autokernel::analyze::render_report(std::slice::from_ref(&analysis)).expect("renders");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/edge_dsp_analysis.json"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &rendered).expect("bless writes golden file");
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing: regenerate with BLESS=1 cargo test");
    assert_eq!(
        rendered, golden,
        "SARIF report drifted from tests/golden/edge_dsp_analysis.json \
         (re-bless with BLESS=1 if the change is intentional)"
    );
}

/// With `static_prune` (the default), the pipeline never benchmarks a
/// configuration the analyzer proved unlaunchable: the dataset carries
/// `inf` for those entries (normalising to score 0), the prune stats
/// account for every skipped launch, and no invalid config can ship.
#[test]
fn pipeline_prunes_statically_invalid_configs_before_benchmarking() {
    let shapes: Vec<(GemmShape, String)> = [
        (64, 64, 64),
        (512, 512, 512),
        (196, 2304, 256),
        (784, 1152, 128),
        (32, 4096, 4096),
        (2, 2048, 1000),
        (128, 128, 1000),
        (1024, 1024, 1024),
    ]
    .iter()
    .map(|&(m, k, n)| (GemmShape::new(m, k, n), "T".to_string()))
    .collect();

    let pipeline = TuningPipeline::run(&DeviceSpec::host_cpu(), &shapes, PipelineConfig::default())
        .expect("pipeline trains");

    let stats = *pipeline.prune_stats().expect("run() records prune stats");
    let analysis = pipeline.space_analysis();
    assert_eq!(stats.pruned_configs, analysis.invalid_count());
    assert!(
        stats.pruned_configs > 0,
        "the host CPU's 64 lanes must reject wide work-groups"
    );
    assert_eq!(stats.skipped_launches, stats.pruned_configs * shapes.len());
    assert!(stats.sim_seconds_saved > 0.0);

    let mask = analysis.invalid_mask();
    let ds = pipeline.dataset();
    for shape in 0..ds.n_shapes() {
        for (config, &invalid) in mask.iter().enumerate() {
            if invalid {
                assert!(ds.raw_seconds(shape, config).is_infinite());
                assert_eq!(ds.normalized(shape, config), 0.0);
            } else {
                assert!(ds.raw_seconds(shape, config).is_finite());
            }
        }
    }
    for &shipped in pipeline.shipped_configs() {
        assert!(!mask[shipped], "an unlaunchable config must never ship");
    }
}

/// On a device where every configuration is launchable (the R9 Nano),
/// pre-pruning is a provable no-op: bit-identical timings and the same
/// shipped set as a pipeline with pruning disabled.
#[test]
fn pruning_is_a_noop_where_every_config_is_valid() {
    let shapes: Vec<(GemmShape, String)> = [
        (64, 64, 64),
        (512, 512, 512),
        (196, 2304, 256),
        (49, 960, 160),
        (32, 4096, 4096),
        (1024, 1024, 1024),
    ]
    .iter()
    .map(|&(m, k, n)| (GemmShape::new(m, k, n), "T".to_string()))
    .collect();
    let device = DeviceSpec::amd_r9_nano();

    let pruned = TuningPipeline::run(&device, &shapes, PipelineConfig::default()).unwrap();
    let plain = TuningPipeline::run(
        &device,
        &shapes,
        PipelineConfig {
            static_prune: false,
            ..PipelineConfig::default()
        },
    )
    .unwrap();

    let stats = *pruned.prune_stats().expect("stats recorded");
    assert_eq!(stats.pruned_configs, 0);
    assert_eq!(stats.skipped_launches, 0);
    assert_eq!(stats.sim_seconds_saved, 0.0);
    assert!(plain.prune_stats().is_none(), "disabled path records none");

    for shape in 0..pruned.dataset().n_shapes() {
        for config in 0..pruned.dataset().n_configs() {
            assert_eq!(
                pruned.dataset().raw_seconds(shape, config).to_bits(),
                plain.dataset().raw_seconds(shape, config).to_bits(),
                "timings must be bit-identical at ({shape}, {config})"
            );
        }
    }
    assert_eq!(pruned.shipped_configs(), plain.shipped_configs());
    assert_eq!(pruned.test_score().unwrap(), plain.test_score().unwrap());
}

/// `with_static_analysis` drops unlaunchable configurations from the
/// fallback chain outright, and dominated ones whenever their dominator
/// is also in the chain — each drop counted in telemetry.
#[test]
fn fallback_chain_excludes_invalid_and_dominated_configs() {
    let analysis = host_analysis();
    let invalid_idx = analysis
        .configs
        .iter()
        .position(|c| c.verdict.is_invalid())
        .expect("host CPU has invalid configs");
    let (dominated_idx, dominator_idx) = analysis
        .configs
        .iter()
        .find_map(|c| c.dominated_by.map(|d| (c.config_index, d)))
        .expect("host CPU has dominated configs");

    let ds = host_dataset();
    let train: Vec<usize> = (0..ds.n_shapes()).collect();
    let shipped = vec![dominator_idx, dominated_idx, invalid_idx];
    let selector = Arc::new(
        Selector::train(SelectorKind::DecisionTree, ds, &train, &shipped, 0).expect("trains"),
    );
    let serving = Arc::new(CachedSelector::new(selector));
    let queue = Queue::new(Arc::new(DeviceSpec::host_cpu()));

    let executor = ResilientExecutor::with_static_analysis(
        Arc::clone(&serving),
        queue,
        shipped,
        ResilientPolicy::default(),
        analysis,
    );
    assert_eq!(
        executor.ranking(),
        &[dominator_idx],
        "only the undominated, launchable config survives"
    );
    assert_eq!(serving.telemetry().snapshot().fallback_skipped_invalid, 2);
}

/// A statically invalid *primary* pick (a model artefact disagreeing
/// with the serving device) is skipped without burning a launch attempt:
/// the report shows zero failures and a depth-1 fallback.
#[test]
fn invalid_primary_pick_is_skipped_without_a_launch_attempt() {
    let analysis = host_analysis();
    let invalid_idx = analysis
        .configs
        .iter()
        .position(|c| c.verdict.is_invalid())
        .expect("host CPU has invalid configs");
    let valid_idx = analysis
        .configs
        .iter()
        .position(|c| !c.verdict.is_invalid() && !c.is_dominated())
        .expect("host CPU has valid configs");

    // A single-config shipped set: the selector can only ever pick the
    // config that is unlaunchable on the serving device.
    let ds = host_dataset();
    let train: Vec<usize> = (0..ds.n_shapes()).collect();
    let selector = Arc::new(
        Selector::train(SelectorKind::DecisionTree, ds, &train, &[invalid_idx], 0).expect("trains"),
    );
    let serving = Arc::new(CachedSelector::new(selector));
    let queue = Queue::new(Arc::new(DeviceSpec::host_cpu()));
    let executor = ResilientExecutor::with_static_analysis(
        Arc::clone(&serving),
        queue,
        vec![valid_idx],
        ResilientPolicy::default(),
        analysis,
    );

    let shape = GemmShape::new(40, 24, 32);
    let (a, b, c) = operand_buffers(shape, 3);
    let report = executor.launch(shape, &a, &b, &c).expect("completes");
    assert!(
        report.failures.is_empty(),
        "the invalid pick must be skipped statically, never attempted"
    );
    assert!(!report.event.is_failed());
    assert_eq!(report.decision.fallback, FallbackLevel::NextBest(1));
    assert_eq!(report.config.map(|c| c.index()), Some(valid_idx));
    assert!(serving.telemetry().snapshot().fallback_skipped_invalid >= 1);

    let (av, bv) = (a.to_vec(), b.to_vec());
    let mut expect = vec![0.0f32; shape.m * shape.n];
    reference_gemm(shape, &av, &bv, &mut expect);
    assert!(max_abs_diff(&c.to_vec(), &expect) < 1e-3);
}

/// The `hotpath_lint` binary: exit 0 on the repo's own serving modules,
/// exit 1 (with rule ids on stdout) on the seeded fixture violation.
#[test]
fn hotpath_lint_binary_passes_repo_and_fails_fixture() {
    let bin = env!("CARGO_BIN_EXE_hotpath_lint");
    let repo = env!("CARGO_MANIFEST_DIR");

    let clean = std::process::Command::new(bin)
        .current_dir(repo)
        .output()
        .expect("binary runs");
    assert!(
        clean.status.success(),
        "repo hot paths must lint clean:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );

    let fixture = format!("{repo}/crates/analyze/tests/fixtures/violations.rs");
    let dirty = std::process::Command::new(bin)
        .arg(&fixture)
        .current_dir(repo)
        .output()
        .expect("binary runs");
    assert_eq!(
        dirty.status.code(),
        Some(1),
        "seeded violations must fail the lint"
    );
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    for rule in [
        "no-unwrap",
        "no-expect",
        "no-panic",
        "no-index",
        "no-partial-cmp",
        "no-todo",
        "no-unimplemented",
    ] {
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "missing {rule}:\n{stdout}"
        );
    }

    let missing = std::process::Command::new(bin)
        .arg("does/not/exist.rs")
        .current_dir(repo)
        .output()
        .expect("binary runs");
    assert_eq!(missing.status.code(), Some(2), "unreadable file is exit 2");
}
