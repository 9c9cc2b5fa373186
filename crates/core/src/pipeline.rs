//! The end-to-end tuning pipeline: collect → split → prune → train →
//! evaluate → deploy, tying Sections II-IV together behind one call.

use crate::cache::CachedSelector;
use crate::codegen::{emit_rust_source, CompiledTree};
use crate::dataset::{PerformanceDataset, StaticPruneStats};
use crate::evaluate;
use crate::online::{OnlineConfig, OnlineSelector};
use crate::prune::PruneMethod;
use crate::resilient::{ResilientExecutor, ResilientPolicy};
use crate::select::{Selector, SelectorKind};
use crate::{CoreError, Result};
use autokernel_analyze::{AnalyticalScorer, KernelSpaceAnalyzer, SpaceAnalysis};
use autokernel_gemm::{GemmShape, KernelConfig};
use autokernel_mlkit::model_selection::train_test_split;
use autokernel_sycl_sim::{DeviceSpec, Queue};
use std::sync::Arc;

/// Pipeline hyper-parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum number of shipped kernel configurations.
    pub budget: usize,
    /// Pruning strategy (Figure 4 winner by default).
    pub prune: PruneMethod,
    /// Runtime classifier (the paper's deployment recommendation).
    pub selector: SelectorKind,
    /// Held-out fraction for evaluation (the paper uses 0.2 → 136/34).
    pub test_fraction: f64,
    /// Master seed: split, clustering restarts and ensembles derive
    /// from it.
    pub seed: u64,
    /// Pre-prune statically invalid configurations before benchmarking:
    /// the kernel-space analyzer proves which launches the runtime
    /// would reject, and the sweep never prices them (see
    /// [`TuningPipeline::prune_stats`]).
    pub static_prune: bool,
    /// Opt-in analytical pruning oracle: with `Some(n)`, the
    /// zero-benchmark [`AnalyticalScorer`] ranks the space per dataset
    /// shape and the sweep only prices configurations inside the union
    /// of the per-shape analytical top-`n` sets (plus everything the
    /// static analyzer already rejected). `None` (the default) prices
    /// the full launchable space — bit-identical to previous releases.
    pub analytical_prune: Option<usize>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            budget: 6,
            prune: PruneMethod::DecisionTree,
            selector: SelectorKind::DecisionTree,
            test_fraction: 0.2,
            seed: 42,
            static_prune: true,
            analytical_prune: None,
        }
    }
}

/// A fully-trained kernel-selection pipeline.
///
/// ```
/// use autokernel_core::{PipelineConfig, TuningPipeline};
/// use autokernel_gemm::GemmShape;
/// use autokernel_sycl_sim::DeviceSpec;
///
/// let shapes: Vec<_> = [(64, 64, 64), (512, 512, 512), (1, 4096, 1000),
///     (12544, 27, 64), (196, 2304, 256), (49, 960, 160), (784, 1152, 128),
///     (32, 4096, 4096), (2, 2048, 1000), (1024, 1024, 1024)]
///     .iter()
///     .map(|&(m, k, n)| (GemmShape::new(m, k, n), "demo".to_string()))
///     .collect();
/// let pipeline = TuningPipeline::run(
///     &DeviceSpec::amd_r9_nano(), &shapes, PipelineConfig::default(),
/// ).unwrap();
/// assert!(!pipeline.shipped_configs().is_empty());
/// let chosen = pipeline.select(&GemmShape::new(300, 300, 300)).unwrap();
/// assert!(pipeline.shipped_kernel_configs().contains(&chosen));
/// ```
pub struct TuningPipeline {
    dataset: PerformanceDataset,
    train_rows: Vec<usize>,
    test_rows: Vec<usize>,
    shipped: Vec<usize>,
    /// The trained model. Every serving stack the pipeline builds wraps
    /// it in a cache of its own; the pipeline keeps no serving state.
    selector: Arc<Selector>,
    /// Static view of the configuration space on the dataset's device —
    /// consulted when building resilient fallback chains so a meltdown
    /// can never fall back onto a statically unlaunchable kernel.
    analysis: SpaceAnalysis,
    prune_stats: Option<StaticPruneStats>,
    config: PipelineConfig,
}

impl TuningPipeline {
    /// Run the pipeline on an already-collected dataset.
    pub fn from_dataset(dataset: PerformanceDataset, config: PipelineConfig) -> Result<Self> {
        let analysis = KernelSpaceAnalyzer::new(dataset.device.clone())
            .analyze()
            .map_err(CoreError::Sim)?;
        let split = train_test_split(dataset.n_shapes(), config.test_fraction, config.seed);
        let shipped = config
            .prune
            .select(&dataset, &split.train, config.budget, config.seed)?;
        let selector = Arc::new(Selector::train(
            config.selector,
            &dataset,
            &split.train,
            &shipped,
            config.seed,
        )?);
        Ok(TuningPipeline {
            dataset,
            train_rows: split.train,
            test_rows: split.test,
            shipped,
            selector,
            analysis,
            prune_stats: None,
            config,
        })
    }

    /// Collect the dataset for `shapes` on `device`, then run. With
    /// `config.static_prune` set (the default), the kernel-space
    /// analyzer runs first and the sweep never prices configurations it
    /// proves unlaunchable — see [`TuningPipeline::prune_stats`]. With
    /// `config.analytical_prune = Some(n)` the zero-benchmark
    /// [`AnalyticalScorer`] additionally restricts the sweep to the
    /// union over dataset shapes of each shape's analytical top-`n`
    /// launchable configurations.
    pub fn run(
        device: &DeviceSpec,
        shapes: &[(GemmShape, String)],
        config: PipelineConfig,
    ) -> Result<Self> {
        if config.static_prune || config.analytical_prune.is_some() {
            let analysis = KernelSpaceAnalyzer::new(device.clone())
                .analyze()
                .map_err(CoreError::Sim)?;
            let mut skip = if config.static_prune {
                analysis.invalid_mask()
            } else {
                vec![false; KernelConfig::count()]
            };
            if let Some(n) = config.analytical_prune {
                let scorer = AnalyticalScorer::new(device);
                let mut keep = vec![false; KernelConfig::count()];
                for (shape, _) in shapes {
                    for idx in scorer.top_n(shape, n) {
                        keep[idx] = true;
                    }
                }
                for (skip_it, kept) in skip.iter_mut().zip(&keep) {
                    *skip_it = *skip_it || !kept;
                }
            }
            let (dataset, stats) = PerformanceDataset::collect_pruned(device, shapes, &skip)?;
            let mut pipeline = Self::from_dataset(dataset, config)?;
            pipeline.prune_stats = Some(stats);
            Ok(pipeline)
        } else {
            let dataset = PerformanceDataset::collect(device, shapes)?;
            Self::from_dataset(dataset, config)
        }
    }

    /// The shipped configuration indices.
    pub fn shipped_configs(&self) -> &[usize] {
        &self.shipped
    }

    /// The shipped configurations, decoded.
    pub fn shipped_kernel_configs(&self) -> Vec<KernelConfig> {
        self.shipped
            .iter()
            .filter_map(|&i| KernelConfig::from_index(i))
            .collect()
    }

    /// Select a configuration for an arbitrary shape. This always runs
    /// the model; the serving stacks the pipeline builds memoise their
    /// decisions in caches of their own.
    pub fn select(&self, shape: &GemmShape) -> Result<KernelConfig> {
        let idx = self.selector.select_shape(shape)?;
        KernelConfig::from_index(idx).ok_or(CoreError::BadConfigIndex(idx))
    }

    /// Mean normalised performance of every configuration over the
    /// *training* rows (never the held-out ones: this ranking is part
    /// of the deployed artefact), each in `[0, 1]`.
    fn train_config_means(&self) -> Vec<f64> {
        let m = self.dataset.normalized_matrix_of(&self.train_rows);
        let mut means = vec![0.0f64; self.dataset.n_configs()];
        for i in 0..m.rows() {
            for (mean, &v) in means.iter_mut().zip(m.row(i)) {
                *mean += v;
            }
        }
        if m.rows() > 0 {
            let inv = 1.0 / m.rows() as f64;
            for mean in &mut means {
                *mean *= inv;
            }
        }
        means
    }

    /// The shipped set in fallback order: best mean normalised
    /// training-set performance first.
    fn fallback_ranking(&self) -> Vec<usize> {
        let means = self.train_config_means();
        let mut ranked = self.shipped.clone();
        ranked.sort_by(|&a, &b| means[b].total_cmp(&means[a]));
        ranked
    }

    /// Offline bandit priors: each shipped configuration's mean
    /// normalised training-set performance, in `Selector::configs()`
    /// order.
    fn offline_priors(&self) -> Vec<f64> {
        let means = self.train_config_means();
        self.selector
            .configs()
            .iter()
            .map(|&c| means.get(c).copied().unwrap_or(0.0))
            .collect()
    }

    /// A fresh decision cache over the trained model. Every builder
    /// takes one, so no two stacks share a cache or a telemetry block.
    fn fresh_cache(&self) -> Arc<CachedSelector> {
        Arc::new(CachedSelector::new(Arc::clone(&self.selector)))
    }

    /// Build a [`ResilientExecutor`] serving this pipeline's model on
    /// `queue` through a fresh decision cache, with the fallback chain
    /// ranked by the shipped set's mean normalised performance on the
    /// training rows and filtered by the *training* device's static
    /// analysis (see [`TuningPipeline::device_executor`] for a serving
    /// device that differs).
    pub fn resilient_executor(&self, queue: Queue, policy: ResilientPolicy) -> ResilientExecutor {
        ResilientExecutor::with_static_analysis(
            self.fresh_cache(),
            queue,
            self.fallback_ranking(),
            policy,
            &self.analysis,
        )
    }

    /// Build an [`OnlineSelector`] over a fresh decision cache, with
    /// bandit priors seeded from each shipped configuration's mean
    /// normalised training-set performance — the offline classifier's
    /// own ranking, so the cold-start behaviour is bit-identical to the
    /// static stack until drift is detected.
    pub fn online_selector(&self, config: OnlineConfig) -> Result<Arc<OnlineSelector>> {
        Ok(Arc::new(OnlineSelector::new(
            self.fresh_cache(),
            self.offline_priors(),
            config,
        )?))
    }

    /// Analytical bandit priors for the shipped set on `device`: each
    /// shipped configuration's zero-benchmark [`AnalyticalScorer`]
    /// score, averaged over the *training* shapes after per-shape
    /// normalisation by the best shipped score (so priors live in
    /// `[0, 1]` like the measured rewards they stand in for). Unlike
    /// [`TuningPipeline::online_selector`]'s offline-rank priors these
    /// need no benchmark data for `device` at all — the right seed when
    /// the serving device differs from the training device.
    pub fn analytical_priors(&self, device: &DeviceSpec) -> Vec<f64> {
        let scorer = AnalyticalScorer::new(device);
        let configs = self.selector.configs().to_vec();
        let mut priors = vec![0.0f64; configs.len()];
        let mut rows = 0usize;
        for &row in &self.train_rows {
            let shape = &self.dataset.shapes[row];
            let scores: Vec<f64> = configs
                .iter()
                .map(|&c| scorer.score_index(c, shape))
                .collect();
            let best = scores.iter().fold(0.0f64, |a, &b| a.max(b));
            if best > 0.0 {
                rows += 1;
                for (prior, &s) in priors.iter_mut().zip(&scores) {
                    *prior += s / best;
                }
            }
        }
        if rows > 0 {
            let inv = 1.0 / rows as f64;
            for prior in &mut priors {
                *prior *= inv;
            }
        }
        priors
    }

    /// [`TuningPipeline::online_selector`] seeded with
    /// [`TuningPipeline::analytical_priors`] for `device` instead of the
    /// offline training ranking: the bandit starts from what the
    /// roofline model predicts *this* device will reward, with zero
    /// benchmark launches spent on the seed.
    pub fn analytical_online_selector(
        &self,
        device: &DeviceSpec,
        config: OnlineConfig,
    ) -> Result<Arc<OnlineSelector>> {
        Ok(Arc::new(OnlineSelector::new(
            self.fresh_cache(),
            self.analytical_priors(device),
            config,
        )?))
    }

    /// [`TuningPipeline::resilient_executor`] with the online layer
    /// attached: primary picks flow through `online`, and every launch
    /// outcome (including fallback rungs) feeds its reward estimates
    /// and drift detector. The executor adopts the online layer's fresh
    /// decision cache, so the two count in one telemetry block.
    pub fn adaptive_executor(
        &self,
        queue: Queue,
        policy: ResilientPolicy,
        config: OnlineConfig,
    ) -> Result<(ResilientExecutor, Arc<OnlineSelector>)> {
        let online = self.online_selector(config)?;
        let executor = self
            .resilient_executor(queue, policy)
            .with_online(Arc::clone(&online));
        Ok((executor, online))
    }

    /// Build a [`ResilientExecutor`] for a *serving* device that may
    /// differ from the training device: the kernel-space analyzer runs
    /// on `queue`'s device so the fallback chain is filtered against
    /// the hardware the launches will actually hit. Like every builder,
    /// it gets a fresh decision cache over the shared trained model —
    /// per-device cache and telemetry, one model. This is the per-shard
    /// stack a multi-device scheduler composes.
    pub fn device_executor(
        &self,
        queue: Queue,
        policy: ResilientPolicy,
    ) -> Result<ResilientExecutor> {
        self.device_executor_with(self.fresh_cache(), queue, policy)
    }

    /// [`TuningPipeline::device_executor`] with a *capacity-bounded*,
    /// Bloom-admitted decision cache — the right executor behind an
    /// ingress layer, where the shape stream is unbounded and the
    /// decision cache must not be.
    pub fn device_bounded_executor(
        &self,
        queue: Queue,
        policy: ResilientPolicy,
        cache: crate::cache::BoundedCacheConfig,
    ) -> Result<ResilientExecutor> {
        let serving = Arc::new(CachedSelector::with_bounded_cache(
            Arc::clone(&self.selector),
            cache,
        ));
        self.device_executor_with(serving, queue, policy)
    }

    /// Shared builder: wrap a per-device decision cache in a resilient
    /// executor whose fallback chain is filtered by a fresh analysis of
    /// `queue`'s device.
    fn device_executor_with(
        &self,
        serving: Arc<CachedSelector>,
        queue: Queue,
        policy: ResilientPolicy,
    ) -> Result<ResilientExecutor> {
        let analysis = KernelSpaceAnalyzer::new(queue.device().clone())
            .analyze()
            .map_err(CoreError::Sim)?;
        Ok(ResilientExecutor::with_static_analysis(
            serving,
            queue,
            self.fallback_ranking(),
            policy,
            &analysis,
        ))
    }

    /// [`TuningPipeline::device_executor`] with a per-device online
    /// layer attached. The executor adopts the online layer's fresh
    /// decision cache; the shard's bandit state, drift detector, cache
    /// and telemetry are all private to its device, so one device
    /// drifting leaves its siblings alone.
    pub fn device_adaptive_executor(
        &self,
        queue: Queue,
        policy: ResilientPolicy,
        config: OnlineConfig,
    ) -> Result<(ResilientExecutor, Arc<OnlineSelector>)> {
        let online = self.online_selector(config)?;
        let executor = self
            .device_executor(queue, policy)?
            .with_online(Arc::clone(&online));
        Ok((executor, online))
    }

    /// Static analysis of the full configuration space on the dataset's
    /// device (the same verdicts `analyze_space` reports).
    pub fn space_analysis(&self) -> &SpaceAnalysis {
        &self.analysis
    }

    /// Benchmarking work avoided by static pre-pruning. `Some` only when
    /// the pipeline was built via [`TuningPipeline::run`] with
    /// `static_prune` enabled; `None` for pre-collected datasets.
    pub fn prune_stats(&self) -> Option<&StaticPruneStats> {
        self.prune_stats.as_ref()
    }

    /// Best geometric-mean performance *achievable* with the shipped set
    /// on the held-out rows (the Figure 4 number).
    pub fn achievable_ceiling(&self) -> f64 {
        evaluate::achievable_score(&self.dataset, &self.test_rows, &self.shipped)
    }

    /// Geometric-mean performance of the selector's choices on the
    /// held-out rows (the Table I number).
    pub fn test_score(&self) -> Result<f64> {
        let chosen = self.selector.select_rows(&self.dataset, &self.test_rows)?;
        Ok(evaluate::selection_score(
            &self.dataset,
            &self.test_rows,
            &chosen,
        ))
    }

    /// Selector score on the training rows (overfitting diagnostic).
    pub fn train_score(&self) -> Result<f64> {
        let chosen = self.selector.select_rows(&self.dataset, &self.train_rows)?;
        Ok(evaluate::selection_score(
            &self.dataset,
            &self.train_rows,
            &chosen,
        ))
    }

    /// Export the selector as Rust source (decision trees only).
    pub fn export_rust(&self) -> Result<String> {
        let compiled = CompiledTree::from_selector(&self.selector)?;
        Ok(emit_rust_source(&compiled, &self.shipped))
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &PerformanceDataset {
        &self.dataset
    }

    /// Training / held-out row indices.
    pub fn split(&self) -> (&[usize], &[usize]) {
        (&self.train_rows, &self.test_rows)
    }

    /// The trained selector, shared by every stack the pipeline builds.
    /// A caller that wants a bare memoised selector wraps it:
    /// `CachedSelector::new(Arc::clone(pipeline.selector()))`.
    pub fn selector(&self) -> &Arc<Selector> {
        &self.selector
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<(GemmShape, String)> {
        [
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
            (25088, 576, 128),
            (8, 25088, 4096),
            (128, 128, 1000),
            (3136, 576, 192),
        ]
        .iter()
        .map(|&(m, k, n)| (GemmShape::new(m, k, n), "T".to_string()))
        .collect()
    }

    #[test]
    fn end_to_end_defaults() {
        let p = TuningPipeline::run(
            &DeviceSpec::amd_r9_nano(),
            &shapes(),
            PipelineConfig::default(),
        )
        .unwrap();
        assert!(!p.shipped_configs().is_empty());
        assert!(p.shipped_configs().len() <= 6);
        let ceiling = p.achievable_ceiling();
        assert!(ceiling > 0.0 && ceiling <= 1.0);
        let score = p.test_score().unwrap();
        assert!(
            score > 0.0 && score <= ceiling + 1e-12,
            "score {score} ceiling {ceiling}"
        );
    }

    #[test]
    fn select_returns_shipped_kernels() {
        let p = TuningPipeline::run(
            &DeviceSpec::amd_r9_nano(),
            &shapes(),
            PipelineConfig::default(),
        )
        .unwrap();
        let cfg = p.select(&GemmShape::new(300, 300, 300)).unwrap();
        assert!(p.shipped_kernel_configs().contains(&cfg));
    }

    #[test]
    fn export_rust_for_tree_selector() {
        let p = TuningPipeline::run(
            &DeviceSpec::amd_r9_nano(),
            &shapes(),
            PipelineConfig::default(),
        )
        .unwrap();
        let src = p.export_rust().unwrap();
        assert!(src.contains("pub fn select_kernel"));
    }

    #[test]
    fn non_tree_selector_cannot_export() {
        let p = TuningPipeline::run(
            &DeviceSpec::amd_r9_nano(),
            &shapes(),
            PipelineConfig {
                selector: SelectorKind::LinearSvm,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert!(p.export_rust().is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = PipelineConfig::default();
        let a = TuningPipeline::run(&DeviceSpec::amd_r9_nano(), &shapes(), cfg.clone()).unwrap();
        let b = TuningPipeline::run(&DeviceSpec::amd_r9_nano(), &shapes(), cfg).unwrap();
        assert_eq!(a.shipped_configs(), b.shipped_configs());
        assert_eq!(a.test_score().unwrap(), b.test_score().unwrap());
    }

    #[test]
    fn analytical_prune_shrinks_the_sweep_and_still_ships() {
        let device = DeviceSpec::amd_r9_nano();
        let baseline = TuningPipeline::run(&device, &shapes(), PipelineConfig::default()).unwrap();
        let pruned = TuningPipeline::run(
            &device,
            &shapes(),
            PipelineConfig {
                analytical_prune: Some(64),
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        let base_stats = baseline.prune_stats().unwrap();
        let pruned_stats = pruned.prune_stats().unwrap();
        assert!(
            pruned_stats.pruned_configs > base_stats.pruned_configs,
            "analytical oracle must prune beyond static invalidity: {} vs {}",
            pruned_stats.pruned_configs,
            base_stats.pruned_configs
        );
        assert!(!pruned.shipped_configs().is_empty());
        let score = pruned.test_score().unwrap();
        assert!(score > 0.0 && score <= 1.0, "score {score}");
    }

    #[test]
    fn analytical_prune_without_static_prune_also_works() {
        let p = TuningPipeline::run(
            &DeviceSpec::amd_r9_nano(),
            &shapes(),
            PipelineConfig {
                static_prune: false,
                analytical_prune: Some(32),
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert!(p.prune_stats().unwrap().pruned_configs > 0);
        assert!(!p.shipped_configs().is_empty());
    }

    #[test]
    fn analytical_priors_are_normalised_rewards() {
        let device = DeviceSpec::amd_r9_nano();
        let p = TuningPipeline::run(&device, &shapes(), PipelineConfig::default()).unwrap();
        let priors = p.analytical_priors(&device);
        assert_eq!(priors.len(), p.selector().configs().len());
        assert!(priors.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert!(
            priors.iter().any(|&x| x > 0.0),
            "at least one shipped config must score on its own training device"
        );
        // The best shipped config should hold a meaningfully non-zero
        // prior once averaged over the training shapes.
        let best = priors.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(best > 0.5, "best shipped prior {best}");
    }

    #[test]
    fn analytical_online_selector_builds_for_a_foreign_device() {
        let p = TuningPipeline::run(
            &DeviceSpec::amd_r9_nano(),
            &shapes(),
            PipelineConfig::default(),
        )
        .unwrap();
        let online = p
            .analytical_online_selector(&DeviceSpec::edge_dsp(), OnlineConfig::default())
            .unwrap();
        let shape = GemmShape::new(300, 300, 300);
        let idx = online.select(&shape).unwrap();
        assert!(p.shipped_configs().contains(&idx));
    }

    #[test]
    fn split_respects_fraction() {
        let p = TuningPipeline::run(
            &DeviceSpec::amd_r9_nano(),
            &shapes(),
            PipelineConfig {
                test_fraction: 0.25,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        let (train, test) = p.split();
        assert_eq!(train.len() + test.len(), 16);
        assert_eq!(test.len(), 4);
    }
}
