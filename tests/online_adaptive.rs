//! Integration tests of the online adaptation layer: Mirror-stage
//! bit-identity over the full 170-shape paper dataset, bandit
//! convergence to the oracle configuration on stationary reward
//! streams, and the acceptance scenario — a nano → edge_dsp device swap
//! mid-stream, where the adaptive selector must recover to ≥ 95 % of
//! the post-swap shipped-set oracle while the static classifier's picks
//! stay measurably below it.

use autokernel::core::resilient::ResilientPolicy;
use autokernel::core::{OnlineConfig, PerformanceDataset, PipelineConfig, TuningPipeline};
use autokernel::gemm::{model, GemmShape, KernelConfig};
use autokernel::sim::{Buffer, DeviceSpec, Queue};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The paper dataset, collected once for the whole test binary.
fn paper_dataset() -> &'static PerformanceDataset {
    static DS: OnceLock<PerformanceDataset> = OnceLock::new();
    DS.get_or_init(|| {
        PerformanceDataset::collect_paper_dataset(&DeviceSpec::amd_r9_nano())
            .expect("dataset collects")
    })
}

/// The pipeline trained on the paper dataset, shared by the whole test
/// binary: it holds no serving state, and every stack built from it
/// counts in its own telemetry block.
fn pipeline() -> &'static TuningPipeline {
    static PIPELINE: OnceLock<TuningPipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        TuningPipeline::from_dataset(paper_dataset().clone(), PipelineConfig::default())
            .expect("pipeline trains")
    })
}

/// Simulated duration of `config_index` on `shape` for `queue`'s
/// device, or `None` when the device rejects the launch.
fn priced(queue: &Queue, shape: &GemmShape, config_index: usize) -> Option<f64> {
    let cfg = KernelConfig::from_index(config_index)?;
    let range = model::launch_range(&cfg, shape).ok()?;
    let profile = model::profile(&cfg, shape, queue.device());
    queue
        .price(&profile, &range, model::noise_seed(&cfg, shape))
        .ok()
        .map(|(_, duration)| duration)
}

fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Zeroed operand buffers for a timing-only launch (bodies never run).
fn zero_buffers(shape: GemmShape) -> (Buffer<f32>, Buffer<f32>, Buffer<f32>) {
    (
        Buffer::new_filled(shape.m * shape.k, 0.0f32),
        Buffer::new_filled(shape.k * shape.n, 0.0f32),
        Buffer::new_filled(shape.m * shape.n, 0.0f32),
    )
}

#[test]
fn mirror_stage_is_bit_identical_over_the_paper_dataset() {
    let pipeline = pipeline();
    let online = pipeline
        .online_selector(OnlineConfig::default())
        .expect("online selector builds");

    for shape in &paper_dataset().shapes {
        let offline = pipeline.select(shape).expect("offline pick").index();
        let picked = online.select(shape).expect("online pick");
        assert_eq!(
            picked, offline,
            "mirror stage must be bit-identical to the classifier on {shape}"
        );
    }

    assert!(!online.is_adaptive(), "no drift was injected");
    let t = online.cached().telemetry().snapshot();
    assert_eq!(t.adaptive_picks, 0);
    assert_eq!(t.drift_events, 0);
    assert_eq!(
        t.hits + t.misses,
        paper_dataset().shapes.len() as u64,
        "mirror picks flow through the serving cache"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On a stationary reward stream with well-separated arm durations,
    /// the post-drift bandit converges to the oracle (minimum-duration)
    /// configuration, whatever the durations are and however they
    /// disagree with the offline priors.
    #[test]
    fn bandit_converges_to_oracle_on_stationary_stream(
        perm_seed in 0u64..1000,
        base_us in 50.0f64..500.0,
    ) {
        let pipeline = pipeline();
        let online = pipeline
            .online_selector(OnlineConfig::default())
            .expect("online selector builds");
        let shipped = online.shipped().to_vec();

        // A deterministic permutation of arm ranks from the seed, with a
        // 1.8x duration gap between consecutive ranks.
        let mut ranks: Vec<usize> = (0..shipped.len()).collect();
        let mut state = perm_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for i in (1..ranks.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ranks.swap(i, (state >> 33) as usize % (i + 1));
        }
        let durations: Vec<f64> = ranks
            .iter()
            .map(|&r| base_us * 1e-6 * 1.8f64.powi(r as i32))
            .collect();
        let oracle = shipped[ranks
            .iter()
            .enumerate()
            .min_by_key(|&(_, &r)| r)
            .map(|(slot, _)| slot)
            .expect("non-empty shipped set")];

        let shape = GemmShape::new(512, 512, 512);
        online.force_drift();
        prop_assert!(online.is_adaptive());

        let mut tail = Vec::new();
        for round in 0..250 {
            let pick = online.select(&shape).expect("adaptive pick");
            let slot = shipped.iter().position(|&c| c == pick).expect("shipped pick");
            online.record_success(&shape, pick, durations[slot], online.generation());
            if round >= 230 {
                tail.push(pick);
            }
        }
        prop_assert!(
            tail.iter().all(|&p| p == oracle),
            "last picks {tail:?} must all equal oracle {oracle} (durations {durations:?})"
        );
        prop_assert!(!online.stats().adaptive || online.stats().ph_statistic < 25.0);
        prop_assert_eq!(
            online.cached().telemetry().snapshot().drift_events, 1,
            "a stationary stream must not re-trip drift"
        );
    }
}

/// Regression test for the stale-reward poisoning bug: a measurement
/// captured before a drift trip (its launch straddles the reset) must
/// be discarded, not folded into the freshly reset arm statistics.
/// Before the fix, a pre-drift duration delivered after the reset
/// seeded the new bandit epoch with a reward measured under the old
/// device regime.
#[test]
fn stale_generation_reward_is_discarded_after_drift() {
    let pipeline = pipeline();
    let online = pipeline
        .online_selector(OnlineConfig::default())
        .expect("online selector builds");
    let shape = GemmShape::new(512, 512, 512);

    // An in-flight measurement: the pick and the generation are
    // captured here, but the reward is only delivered after drift.
    let held_generation = online.generation();
    let held_pick = online.select(&shape).expect("mirror pick");

    online.force_drift();
    assert!(online.is_adaptive());
    assert!(
        online.generation() > held_generation,
        "drift must open a new reward generation"
    );

    // The straddling measurement lands late: it must be dropped whole,
    // leaving the freshly reset bandit and detector untouched.
    online.record_success(&shape, held_pick, 123.0e-6, held_generation);
    online.record_failure(&shape, held_pick, true, held_generation);
    let stats = online.stats();
    assert_eq!(
        stats.clusters, 0,
        "no arm state may grow from stale rewards"
    );
    assert_eq!(stats.ph_samples, 0, "the reset detector must stay empty");
    assert_eq!(
        online.cached().telemetry().snapshot().reward_updates,
        0,
        "a discarded reward must not count as an update"
    );
    assert_eq!(
        online.cached().telemetry().snapshot().stale_rewards_dropped,
        2,
        "dropped rewards are counted, never silent"
    );

    // A measurement from the current generation is consumed normally.
    let fresh_pick = online.select(&shape).expect("adaptive pick");
    online.record_success(&shape, fresh_pick, 123.0e-6, online.generation());
    assert_eq!(
        online.cached().telemetry().snapshot().reward_updates,
        1,
        "a current-generation reward must be accepted"
    );
    assert_eq!(online.stats().clusters, 1);
}

/// The acceptance scenario: two epochs of nano serving (bit-identical
/// to the static stack), then the queue is swapped for an edge DSP the
/// offline model has never seen. Four of the six shipped configurations
/// cannot launch there at all. The drift detector must trip, the online
/// layer must open a new generation, and the bandit must recover to
/// ≥ 95 % of the post-swap shipped-set oracle — while a static pipeline
/// serving the same stream keeps choosing unlaunchable kernels and
/// stays below the adaptive geomean even with the resilient fallback
/// chain rescuing every launch.
#[test]
fn device_swap_drift_recovers_to_near_oracle_while_static_stays_below() {
    // Each cluster tries at most one new arm per epoch (the fallback
    // chain completes on the first launchable candidate), so with six
    // shipped arms the bandit needs six epochs to exhaust forced
    // exploration; two more land the measurement in the settled regime.
    const NANO_EPOCHS: usize = 2;
    const EDGE_EPOCHS: usize = 8;

    let shapes: Vec<GemmShape> = paper_dataset().shapes.clone();
    let nano = Arc::new(DeviceSpec::amd_r9_nano());
    let edge = Arc::new(DeviceSpec::edge_dsp());

    let pipeline = pipeline();
    let policy = ResilientPolicy::default();
    let (nano_exec, online) = pipeline
        .adaptive_executor(
            Queue::timing_only(Arc::clone(&nano)),
            policy.clone(),
            OnlineConfig::default(),
        )
        .expect("adaptive executor builds");
    // The device swap: a second executor on the edge queue sharing the
    // same online layer (and so its serving cache and telemetry).
    let edge_exec = pipeline
        .resilient_executor(Queue::timing_only(Arc::clone(&edge)), policy.clone())
        .with_online(Arc::clone(&online));

    // A static stack serving the identical post-swap stream, for the
    // comparison baseline.
    let static_exec =
        pipeline.resilient_executor(Queue::timing_only(Arc::clone(&edge)), policy.clone());
    let telemetry = online.cached().telemetry();

    let buffers: Vec<_> = shapes.iter().map(|&s| zero_buffers(s)).collect();

    // Phase 1 — nano serving. Epoch 0 doubles as the load-bearing
    // bit-identity check: every report must carry the classifier's own
    // pick, clean on the first attempt.
    for epoch in 0..NANO_EPOCHS {
        for (shape, (a, b, c)) in shapes.iter().zip(&buffers) {
            let report = nano_exec.launch(*shape, a, b, c).expect("nano launch");
            if epoch == 0 {
                let offline = pipeline.select(shape).expect("offline pick");
                assert_eq!(
                    report.config,
                    Some(offline),
                    "pre-drift serving must be bit-identical to the classifier on {shape}"
                );
                assert!(report.is_clean(), "no faults on the training device");
            }
        }
    }
    assert!(
        !online.is_adaptive(),
        "two epochs on the training device must not read as drift"
    );
    let t = telemetry.snapshot();
    assert_eq!(t.drift_events, 0);
    assert_eq!(t.adaptive_picks, 0);
    let generation_before = online.generation();
    let cached_before = online.cached().cached_shapes();
    assert!(cached_before > 0, "mirror picks memoise their shapes");

    // Phase 2 — the swap. Serve the same stream from the edge queue.
    let mut final_epoch_durations: Vec<f64> = Vec::new();
    for epoch in 0..EDGE_EPOCHS {
        for (shape, (a, b, c)) in shapes.iter().zip(&buffers) {
            let report = edge_exec.launch(*shape, a, b, c).expect("edge launch");
            assert!(!report.event.is_failed());
            if epoch + 1 == EDGE_EPOCHS {
                final_epoch_durations.push(report.event.duration_s());
            }
        }
        if epoch == 0 {
            assert!(
                online.is_adaptive(),
                "one epoch of 10-100x slowdowns and structural rejections must trip Page-Hinkley"
            );
        }
    }

    let t = telemetry.snapshot();
    assert!(t.drift_events >= 1, "drift must be recorded");
    assert!(
        t.adaptive_picks > 0,
        "post-drift picks come from the bandit"
    );
    assert!(
        t.reward_updates > 0,
        "launch outcomes must feed the reward estimates"
    );
    assert!(
        online.generation() > generation_before,
        "drift must open a new online generation"
    );
    assert_eq!(
        online.cached().cached_shapes(),
        cached_before,
        "drift leaves the decision cache's entries in place"
    );

    // The post-swap shipped-set oracle: best launchable shipped config
    // per shape on the edge device.
    let probe = Queue::timing_only(Arc::clone(&edge));
    let oracle: Vec<f64> = shapes
        .iter()
        .map(|shape| {
            pipeline
                .shipped_configs()
                .iter()
                .filter_map(|&c| priced(&probe, shape, c))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    assert!(oracle.iter().all(|d| d.is_finite()));

    // Static pipeline serves the same post-swap stream.
    let mut static_final: Vec<f64> = Vec::new();
    let mut static_unlaunchable_picks = 0usize;
    for epoch in 0..EDGE_EPOCHS {
        for (shape, (a, b, c)) in shapes.iter().zip(&buffers) {
            let report = static_exec.launch(*shape, a, b, c).expect("static launch");
            if epoch + 1 == EDGE_EPOCHS {
                static_final.push(report.event.duration_s());
                let pick = pipeline.select(shape).expect("static pick").index();
                if priced(&probe, shape, pick).is_none() {
                    static_unlaunchable_picks += 1;
                }
            }
        }
    }

    let adaptive_ratio: Vec<f64> = oracle
        .iter()
        .zip(&final_epoch_durations)
        .map(|(&o, &d)| o / d)
        .collect();
    let static_ratio: Vec<f64> = oracle
        .iter()
        .zip(&static_final)
        .map(|(&o, &d)| o / d)
        .collect();
    let adaptive_geomean = geomean(&adaptive_ratio);
    let static_geomean = geomean(&static_ratio);
    println!(
        "adaptive geomean {adaptive_geomean:.4}, static geomean {static_geomean:.4}, \
         static unlaunchable picks {static_unlaunchable_picks}/170"
    );

    assert!(
        adaptive_geomean >= 0.95,
        "adaptive serving must recover to >= 95% of the shipped-set oracle \
         (got {adaptive_geomean:.4})"
    );
    assert!(
        static_geomean < adaptive_geomean,
        "the static stack must stay below the adaptive one \
         (static {static_geomean:.4}, adaptive {adaptive_geomean:.4})"
    );
    // The static classifier itself never recovers: a majority of its
    // picks remain configurations the edge device refuses to launch at
    // all — only the resilient fallback chain keeps it serving.
    assert!(
        static_unlaunchable_picks * 2 > shapes.len(),
        "most static picks must be unlaunchable on the edge device \
         (got {static_unlaunchable_picks}/{})",
        shapes.len()
    );
}

/// The analytically-seeded bandit must recover from the nano → edge_dsp
/// swap at least as fast as the offline-rank-seeded one. The priors
/// set the bandit's forced-exploration scan order after the drift
/// reset: offline priors rank the training device's favourites first
/// (mostly unlaunchable on the DSP), while the analytical priors are
/// computed for the *edge* device model with zero benchmark launches,
/// so launchable configurations are explored first.
#[test]
fn analytically_seeded_bandit_recovers_at_least_as_fast_as_offline_seeded() {
    const NANO_EPOCHS: usize = 2;
    const EDGE_EPOCHS: usize = 8;
    const RECOVERED: f64 = 0.95;

    let shapes: Vec<GemmShape> = paper_dataset().shapes.clone();
    let nano = Arc::new(DeviceSpec::amd_r9_nano());
    let edge = Arc::new(DeviceSpec::edge_dsp());
    let edge_device = DeviceSpec::edge_dsp();
    let policy = ResilientPolicy::default();
    let buffers: Vec<_> = shapes.iter().map(|&s| zero_buffers(s)).collect();

    // The post-swap shipped-set oracle is prior-independent (both
    // stacks serve the one pipeline's shipped set).
    let probe = Queue::timing_only(Arc::clone(&edge));

    // Serve the identical nano → edge stream through one adaptive
    // stack, returning the per-edge-epoch oracle-relative geomeans.
    let serve = |analytical: bool| -> Vec<f64> {
        let pipeline = pipeline();
        let online = if analytical {
            pipeline
                .analytical_online_selector(&edge_device, OnlineConfig::default())
                .expect("analytical online selector builds")
        } else {
            pipeline
                .online_selector(OnlineConfig::default())
                .expect("offline online selector builds")
        };
        let nano_exec = pipeline
            .resilient_executor(Queue::timing_only(Arc::clone(&nano)), policy.clone())
            .with_online(Arc::clone(&online));
        let edge_exec = pipeline
            .resilient_executor(Queue::timing_only(Arc::clone(&edge)), policy.clone())
            .with_online(Arc::clone(&online));

        let oracle: Vec<f64> = shapes
            .iter()
            .map(|shape| {
                pipeline
                    .shipped_configs()
                    .iter()
                    .filter_map(|&c| priced(&probe, shape, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        assert!(oracle.iter().all(|d| d.is_finite()));

        for _ in 0..NANO_EPOCHS {
            for (shape, (a, b, c)) in shapes.iter().zip(&buffers) {
                nano_exec.launch(*shape, a, b, c).expect("nano launch");
            }
        }
        assert!(
            !online.is_adaptive(),
            "priors must not affect the pre-drift mirror stage"
        );

        let mut per_epoch = Vec::with_capacity(EDGE_EPOCHS);
        for _ in 0..EDGE_EPOCHS {
            let mut ratios = Vec::with_capacity(shapes.len());
            for ((shape, (a, b, c)), &oracle_s) in shapes.iter().zip(&buffers).zip(&oracle) {
                let report = edge_exec.launch(*shape, a, b, c).expect("edge launch");
                assert!(!report.event.is_failed());
                ratios.push(oracle_s / report.event.duration_s());
            }
            per_epoch.push(geomean(&ratios));
        }
        assert!(online.is_adaptive(), "the swap must trip drift");
        per_epoch
    };

    let offline_epochs = serve(false);
    let analytical_epochs = serve(true);
    let recovery = |per_epoch: &[f64]| {
        per_epoch
            .iter()
            .position(|&g| g >= RECOVERED)
            .unwrap_or(usize::MAX)
    };
    let offline_at = recovery(&offline_epochs);
    let analytical_at = recovery(&analytical_epochs);
    println!(
        "offline-seeded epochs {offline_epochs:?} (recovered at {offline_at}), \
         analytical-seeded epochs {analytical_epochs:?} (recovered at {analytical_at})"
    );

    assert!(
        *analytical_epochs.last().unwrap() >= RECOVERED,
        "the analytically-seeded bandit must recover to >= {RECOVERED} of the \
         shipped-set oracle (got {:.4})",
        analytical_epochs.last().unwrap()
    );
    assert!(
        analytical_at <= offline_at,
        "analytical seeding must recover at least as fast: analytical epoch \
         {analytical_at} vs offline epoch {offline_at}"
    );
}
