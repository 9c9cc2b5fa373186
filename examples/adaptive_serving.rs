//! Adaptive serving demo: closed-loop kernel selection surviving a
//! device swap the offline model never saw.
//!
//! A pipeline trains on the AMD R9 Nano, then serves a recurring
//! traffic mix through an adaptive [`ResilientExecutor`] — the online
//! layer mirrors the offline classifier bit-for-bit while measuring
//! every launch. Mid-stream, the queue is swapped for an edge DSP whose
//! performance profile (and launch limits) disagree with the training
//! substrate: most shipped configurations cannot launch there at all.
//! The Page–Hinkley drift detector trips within a few launches, the
//! online layer opens a new generation, and the per-cluster UCB bandit
//! re-learns the best shipped configuration per shape from live
//! completion times, recovering near-oracle throughput. Both executors
//! count in the online layer's one telemetry block.
//!
//! Run with: `cargo run --release --example adaptive_serving`

use autokernel::core::resilient::ResilientPolicy;
use autokernel::core::{OnlineConfig, PerformanceDataset, PipelineConfig, TuningPipeline};
use autokernel::gemm::{model, GemmShape, KernelConfig};
use autokernel::sim::{Buffer, DeviceSpec, Queue};
use std::sync::Arc;

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nano = Arc::new(DeviceSpec::amd_r9_nano());
    let edge = Arc::new(DeviceSpec::edge_dsp());
    // The full paper dataset: its shipped set spans the work-group
    // spectrum, so a slice of it survives even the edge DSP's launch
    // limits — exactly the regime where online adaptation has room to
    // work (a shipped set with nothing launchable can only degrade to
    // the reference GEMM).
    println!("training the pipeline on {} (paper dataset) ...", nano.name);
    let dataset = PerformanceDataset::collect_paper_dataset(&nano)?;
    let pipeline = TuningPipeline::from_dataset(dataset, PipelineConfig::default())?;
    println!(
        "shipped configs: {:?}",
        pipeline
            .shipped_kernel_configs()
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
    );

    // The recurring traffic an inference server would see.
    let working_set: Vec<GemmShape> = [
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
    .map(|&(m, k, n)| GemmShape::new(m, k, n))
    .collect();
    let buffers: Vec<_> = working_set
        .iter()
        .map(|&s| {
            (
                Buffer::new_filled(s.m * s.k, 0.0f32),
                Buffer::new_filled(s.k * s.n, 0.0f32),
                Buffer::new_filled(s.m * s.n, 0.0f32),
            )
        })
        .collect();

    // Phase 1 — serve on the training device through the adaptive
    // executor. The online layer is in its Mirror stage: picks are
    // bit-identical to the offline classifier while every completion
    // time builds the drift detector's baselines.
    let policy = ResilientPolicy::default();
    let (nano_exec, online) = pipeline.adaptive_executor(
        Queue::timing_only(Arc::clone(&nano)),
        policy.clone(),
        OnlineConfig::default(),
    )?;
    const NANO_EPOCHS: usize = 2;
    let mut mirrored = 0usize;
    for _ in 0..NANO_EPOCHS {
        for (shape, (a, b, c)) in working_set.iter().zip(&buffers) {
            let report = nano_exec.launch(*shape, a, b, c)?;
            if report.config == Some(pipeline.select(shape)?) {
                mirrored += 1;
            }
        }
    }
    let stats = online.stats();
    println!(
        "\nphase 1 ({} launches on {}): {mirrored} bit-identical to the classifier, \
         adaptive={}, {} drift samples (statistic {:.2})",
        NANO_EPOCHS * working_set.len(),
        nano.name,
        stats.adaptive,
        stats.ph_samples,
        stats.ph_statistic,
    );

    // Phase 2 — the swap: same online layer, and so the same serving
    // cache and telemetry, but the queue now belongs to an edge DSP.
    // Shipped configurations the DSP rejects outright feed the drift
    // detector as structural failures; completions arrive 10-100x
    // slower than their baselines.
    let edge_exec = pipeline
        .resilient_executor(Queue::timing_only(Arc::clone(&edge)), policy)
        .with_online(Arc::clone(&online));
    let generation_before = online.generation();

    // The post-swap shipped-set oracle, for scoring recovery.
    let probe = Queue::timing_only(Arc::clone(&edge));
    let oracle: Vec<f64> = working_set
        .iter()
        .map(|shape| {
            pipeline
                .shipped_configs()
                .iter()
                .filter_map(|&cfg| priced(&probe, shape, cfg))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let launchable = pipeline
        .shipped_configs()
        .iter()
        .filter(|&&cfg| {
            working_set
                .iter()
                .all(|shape| priced(&probe, shape, cfg).is_some())
        })
        .count();
    println!(
        "\nswapping the queue to {}: {launchable}/{} shipped configs still launch there",
        edge.name,
        pipeline.shipped_configs().len()
    );

    const EDGE_EPOCHS: usize = 8;
    let mut tripped_at = None;
    for epoch in 0..EDGE_EPOCHS {
        let mut ratios = Vec::new();
        for (i, (shape, (a, b, c))) in working_set.iter().zip(&buffers).enumerate() {
            let report = edge_exec.launch(*shape, a, b, c)?;
            assert!(!report.event.is_failed());
            ratios.push(oracle[i] / report.event.duration_s());
            if tripped_at.is_none() && online.is_adaptive() {
                tripped_at = Some(epoch * working_set.len() + i + 1);
            }
        }
        println!(
            "  epoch {epoch}: geomean {:.3} of the shipped-set oracle{}",
            geomean(&ratios),
            if epoch == 0 {
                tripped_at
                    .map(|n| format!(" (drift tripped after {n} launches)"))
                    .unwrap_or_default()
            } else {
                String::new()
            }
        );
    }

    let t = online.cached().telemetry().snapshot();
    let stats = online.stats();
    println!(
        "\nonline layer after the swap: adaptive={}, {} shape-clusters, \
         generation {} -> {}, {} decisions still cached",
        stats.adaptive,
        stats.clusters,
        generation_before,
        online.generation(),
        online.cached().cached_shapes(),
    );
    println!(
        "telemetry: {} drift events, {} adaptive picks, {} reward updates \
         ({} launches, {} absorbed failures)",
        t.drift_events, t.adaptive_picks, t.reward_updates, t.resilient_launches, t.launch_failures,
    );

    assert!(online.is_adaptive(), "the swap must be detected as drift");
    assert!(t.drift_events >= 1);
    assert!(online.generation() > generation_before);
    assert_eq!(
        t.resilient_launches,
        ((NANO_EPOCHS + EDGE_EPOCHS) * working_set.len()) as u64,
        "both executors count in the online layer's telemetry"
    );
    println!("\nadaptive_serving OK");
    Ok(())
}
