//! Runtime kernel selection: classifiers mapping a GEMM shape to one of
//! the shipped configurations (Section IV / Table I of the paper).
//!
//! Feature handling matters here. The paper's released code feeds the
//! raw matrix sizes straight into scikit-learn classifiers with no
//! scaling — harmless for trees and forests (they are invariant to
//! monotone feature transforms) but crippling for the RBF SVM, whose
//! kernel distances explode on 10⁰..10⁶-magnitude features; that is why
//! Table I shows the radial SVM collapsing to ~55 %. [`FeatureSpace`]
//! makes the choice explicit: [`FeatureSpace::RawSizes`] reproduces the
//! paper's setup, [`FeatureSpace::ScaledLog`] is the fixed variant the
//! `ablation_features` bench compares against.

use crate::dataset::PerformanceDataset;
use crate::{CoreError, Result};
use autokernel_analyze::AnalyticalScorer;
use autokernel_gemm::{GemmShape, KernelConfig};
use autokernel_mlkit::preprocess::StandardScaler;
use autokernel_mlkit::tree::{DecisionTreeClassifier, TreeParams};
use autokernel_mlkit::{KNearestNeighbors, Matrix, RandomForestClassifier, Svc, SvmKernel};
use autokernel_sycl_sim::DeviceSpec;
use serde::{Deserialize, Serialize};

/// The six classifiers compared in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectorKind {
    /// CART decision tree — the paper's deployment recommendation.
    DecisionTree,
    /// Random forest ensemble.
    RandomForest,
    /// 1-nearest-neighbour.
    OneNearestNeighbor,
    /// 3-nearest-neighbours.
    ThreeNearestNeighbors,
    /// Linear-kernel SVM.
    LinearSvm,
    /// RBF-kernel SVM.
    RadialSvm,
}

impl SelectorKind {
    /// All kinds in Table I order.
    pub fn all() -> [SelectorKind; 6] {
        [
            SelectorKind::DecisionTree,
            SelectorKind::RandomForest,
            SelectorKind::OneNearestNeighbor,
            SelectorKind::ThreeNearestNeighbors,
            SelectorKind::LinearSvm,
            SelectorKind::RadialSvm,
        ]
    }

    /// Display name matching the paper's table rows.
    pub fn name(&self) -> &'static str {
        match self {
            SelectorKind::DecisionTree => "DecisionTree",
            SelectorKind::RandomForest => "RandomForest",
            SelectorKind::OneNearestNeighbor => "1NearestNeighbor",
            SelectorKind::ThreeNearestNeighbors => "3NearestNeighbors",
            SelectorKind::LinearSvm => "LinearSVM",
            SelectorKind::RadialSvm => "RadialSVM",
        }
    }
}

/// Feature representation given to the classifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureSpace {
    /// Raw `(m, k, n)` — the paper's setup (scikit-learn defaults, no
    /// preprocessing). Scale-sensitive classifiers suffer.
    RawSizes,
    /// Standardised `log₂(m, k, n)` — the sensible engineering choice.
    ScaledLog,
}

enum Model {
    Tree(DecisionTreeClassifier),
    Forest(RandomForestClassifier),
    Knn(KNearestNeighbors),
    Svm(Svc),
}

/// A trained runtime selector: shape in, shipped configuration out.
pub struct Selector {
    kind: SelectorKind,
    space: FeatureSpace,
    configs: Vec<usize>,
    scaler: Option<StandardScaler>,
    /// Internal standardisation applied before the model for linear
    /// SVMs only: liblinear-class solvers are robust to feature scale,
    /// and the simplified SMO here needs equivalent conditioning to
    /// converge on raw size features. The RBF kernel does NOT get this
    /// (its scale sensitivity is intrinsic to the kernel and is exactly
    /// what Table I exposes).
    precondition: Option<StandardScaler>,
    model: Model,
}

impl Selector {
    /// Train a paper-faithful selector ([`FeatureSpace::RawSizes`]).
    pub fn train(
        kind: SelectorKind,
        ds: &PerformanceDataset,
        train: &[usize],
        configs: &[usize],
        seed: u64,
    ) -> Result<Selector> {
        Self::train_in_space(kind, ds, train, configs, seed, FeatureSpace::RawSizes)
    }

    /// Train a selector with an explicit feature representation.
    ///
    /// Labels are the best shipped configuration per training shape.
    // lint:allow-fn(no-alloc) training is offline; the decide path never runs it
    pub fn train_in_space(
        kind: SelectorKind,
        ds: &PerformanceDataset,
        train: &[usize],
        configs: &[usize],
        seed: u64,
        space: FeatureSpace,
    ) -> Result<Selector> {
        if configs.is_empty() || train.is_empty() {
            return Err(CoreError::Dataset(
                "empty training set or config set".into(),
            ));
        }
        let labels: Vec<usize> = train
            .iter()
            .map(|&i| {
                ds.best_config_among(i, configs)
                    .map(|(_, cfg)| cfg)
                    .ok_or_else(|| {
                        CoreError::Dataset(format!("no best config for training row {i}"))
                    })
            })
            .collect::<Result<_>>()?;

        let (mut x, scaler) = match space {
            FeatureSpace::RawSizes => (ds.raw_features_of(train), None),
            FeatureSpace::ScaledLog => {
                let mut scaler = StandardScaler::new();
                let x = scaler.fit_transform(&ds.features_of(train))?;
                (x, Some(scaler))
            }
        };

        let precondition = if kind == SelectorKind::LinearSvm {
            let mut pre = StandardScaler::new();
            x = pre.fit_transform(&x)?;
            Some(pre)
        } else {
            None
        };

        let model = match kind {
            SelectorKind::DecisionTree => {
                let mut clf = DecisionTreeClassifier::new(TreeParams {
                    min_samples_leaf: 1,
                    ..TreeParams::default()
                });
                clf.fit(&x, &labels)?;
                Model::Tree(clf)
            }
            SelectorKind::RandomForest => {
                let mut rf = RandomForestClassifier::new(100, seed);
                rf.fit(&x, &labels)?;
                Model::Forest(rf)
            }
            SelectorKind::OneNearestNeighbor => {
                let mut knn = KNearestNeighbors::new(1);
                knn.fit(&x, &labels)?;
                Model::Knn(knn)
            }
            SelectorKind::ThreeNearestNeighbors => {
                let mut knn = KNearestNeighbors::new(3.min(train.len()));
                knn.fit(&x, &labels)?;
                Model::Knn(knn)
            }
            SelectorKind::LinearSvm => {
                let mut svm = Svc::new(SvmKernel::Linear, 10.0, seed).with_max_passes(20);
                svm.fit(&x, &labels)?;
                Model::Svm(svm)
            }
            SelectorKind::RadialSvm => {
                // gamma = 1/n_features, scikit-learn's historical "auto"
                // default (what the paper's era of sklearn used).
                let gamma = 1.0 / x.cols() as f64;
                let mut svm = Svc::new(SvmKernel::Rbf { gamma }, 10.0, seed);
                svm.fit(&x, &labels)?;
                Model::Svm(svm)
            }
        };
        Ok(Selector {
            kind,
            space,
            configs: configs.to_vec(),
            scaler,
            precondition,
            model,
        })
    }

    fn apply_precondition(&self, m: Matrix) -> Result<Matrix> {
        match &self.precondition {
            Some(pre) => Ok(pre.transform(&m)?),
            None => Ok(m),
        }
    }

    // lint:allow-fn(no-alloc) model-run path: executes once per distinct shape
    // (cache misses only), and the Matrix API takes owned rows
    fn featurise_shape(&self, shape: &GemmShape) -> Result<Matrix> {
        let raw = match self.space {
            FeatureSpace::RawSizes => shape.features(),
            FeatureSpace::ScaledLog => shape.log_features(),
        };
        let m = Matrix::from_rows(&[raw.to_vec()])?;
        let m = match &self.scaler {
            Some(s) => s.transform(&m)?,
            None => m,
        };
        self.apply_precondition(m)
    }

    fn featurise_rows(&self, ds: &PerformanceDataset, rows: &[usize]) -> Result<Matrix> {
        let m = match self.space {
            FeatureSpace::RawSizes => ds.raw_features_of(rows),
            FeatureSpace::ScaledLog => ds.features_of(rows),
        };
        let m = match &self.scaler {
            Some(s) => s.transform(&m)?,
            None => m,
        };
        self.apply_precondition(m)
    }

    /// Select a configuration index for a batch of dataset rows.
    pub fn select_rows(&self, ds: &PerformanceDataset, rows: &[usize]) -> Result<Vec<usize>> {
        let x = self.featurise_rows(ds, rows)?;
        self.predict(&x)
    }

    /// Select a configuration for one arbitrary shape.
    pub fn select_shape(&self, shape: &GemmShape) -> Result<usize> {
        let x = self.featurise_shape(shape)?;
        Ok(self.predict(&x)?[0])
    }

    /// Select configurations for many arbitrary shapes in parallel.
    ///
    /// Equivalent to mapping [`Selector::select_shape`] over `shapes`
    /// (the models are immutable after training, so per-shape inference
    /// is embarrassingly parallel); output order matches input order.
    pub fn select_batch(&self, shapes: &[GemmShape]) -> Result<Vec<usize>> {
        use rayon::prelude::*;
        shapes.par_iter().map(|s| self.select_shape(s)).collect()
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<usize>> {
        let preds = match &self.model {
            Model::Tree(m) => m.predict(x)?,
            Model::Forest(m) => m.predict(x)?,
            Model::Knn(m) => m.predict(x)?,
            Model::Svm(m) => m.predict(x)?,
        };
        Ok(preds)
    }

    /// The shipped configuration set this selector chooses from.
    pub fn configs(&self) -> &[usize] {
        &self.configs
    }

    /// The classifier family.
    pub fn kind(&self) -> SelectorKind {
        self.kind
    }

    /// The feature representation this selector was trained in.
    pub fn feature_space(&self) -> FeatureSpace {
        self.space
    }

    /// Borrow the underlying decision tree, when this selector is one
    /// (used by the deployment codegen).
    pub fn as_tree(&self) -> Option<&DecisionTreeClassifier> {
        match &self.model {
            Model::Tree(t) => Some(t),
            _ => None,
        }
    }

    /// The feature scaler, if the space uses one.
    pub fn scaler(&self) -> Option<&StandardScaler> {
        self.scaler.as_ref()
    }
}

/// Zero-benchmark cold-start selector: ranks candidates with the
/// analytical roofline scorer ([`AnalyticalScorer`]) instead of a
/// trained classifier, so a never-profiled device gets sane picks with
/// **zero** benchmark launches and no training data. Drop-in where a
/// trained [`Selector`] (or `CachedSelector`) sits today: it exposes
/// the same `select_shape`/`configs` surface.
///
/// Selection is allocation-free arithmetic over the candidate set —
/// O(candidates) per pick, well under a microsecond for a shipped set
/// of six.
pub struct AnalyticalSelector {
    scorer: AnalyticalScorer,
    configs: Vec<usize>,
}

impl AnalyticalSelector {
    /// Cold-start selector over the **full** 640-config space on
    /// `device`.
    // lint:allow-fn(no-alloc) construction is offline; the decide path never runs it
    pub fn new(device: &DeviceSpec) -> Self {
        let scorer = AnalyticalScorer::new(device);
        let configs: Vec<usize> = (0..scorer.len()).collect();
        AnalyticalSelector { scorer, configs }
    }

    /// Cold-start selector restricted to `candidates` (e.g. the shipped
    /// set of an existing pipeline, for head-to-head comparison with
    /// the learned classifiers). Indices outside the 640-config space
    /// are rejected; an empty candidate set is rejected.
    // lint:allow-fn(no-alloc) construction is offline; the decide path never runs it
    pub fn with_candidates(device: &DeviceSpec, candidates: &[usize]) -> Result<Self> {
        if candidates.is_empty() {
            return Err(CoreError::NoLaunchableConfig);
        }
        for &c in candidates {
            if c >= KernelConfig::count() {
                return Err(CoreError::BadConfigIndex(c));
            }
        }
        Ok(AnalyticalSelector {
            scorer: AnalyticalScorer::new(device),
            configs: candidates.to_vec(),
        })
    }

    /// Select the analytically best launchable candidate for `shape`.
    /// Errors with [`CoreError::NoLaunchableConfig`] when the device
    /// rejects every candidate.
    pub fn select_shape(&self, shape: &GemmShape) -> Result<usize> {
        self.scorer
            .pick_among(shape, &self.configs)
            .ok_or(CoreError::NoLaunchableConfig)
    }

    /// The candidate configuration set this selector chooses from.
    pub fn configs(&self) -> &[usize] {
        &self.configs
    }

    /// The underlying analytical scorer.
    pub fn scorer(&self) -> &AnalyticalScorer {
        &self.scorer
    }

    /// The device this selector models.
    pub fn device(&self) -> &DeviceSpec {
        self.scorer.device()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> PerformanceDataset {
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
        PerformanceDataset::collect(&DeviceSpec::amd_r9_nano(), &shapes).unwrap()
    }

    #[test]
    fn every_kind_trains_and_predicts_within_shipped_set() {
        let ds = ds();
        let train: Vec<usize> = (0..ds.n_shapes()).collect();
        let configs = crate::prune::PruneMethod::TopN
            .select(&ds, &train, 5, 0)
            .unwrap();
        for space in [FeatureSpace::RawSizes, FeatureSpace::ScaledLog] {
            for kind in SelectorKind::all() {
                let sel = Selector::train_in_space(kind, &ds, &train, &configs, 1, space).unwrap();
                let preds = sel.select_rows(&ds, &train).unwrap();
                assert_eq!(preds.len(), train.len());
                for p in preds {
                    assert!(
                        configs.contains(&p),
                        "{} predicted unshipped config {p}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn tree_memorises_training_data() {
        let ds = ds();
        let train: Vec<usize> = (0..ds.n_shapes()).collect();
        let configs = crate::prune::PruneMethod::TopN
            .select(&ds, &train, 6, 0)
            .unwrap();
        let sel = Selector::train(SelectorKind::DecisionTree, &ds, &train, &configs, 0).unwrap();
        let preds = sel.select_rows(&ds, &train).unwrap();
        for (&row, &pred) in train.iter().zip(&preds) {
            let best = ds.best_config_among(row, &configs).unwrap().1;
            assert_eq!(pred, best, "tree should fit its own training data");
        }
    }

    #[test]
    fn tree_invariant_to_feature_space() {
        // Monotone transforms never change an axis-aligned tree's training
        // predictions.
        let ds = ds();
        let train: Vec<usize> = (0..ds.n_shapes()).collect();
        let configs = crate::prune::PruneMethod::TopN
            .select(&ds, &train, 5, 0)
            .unwrap();
        let raw = Selector::train_in_space(
            SelectorKind::DecisionTree,
            &ds,
            &train,
            &configs,
            0,
            FeatureSpace::RawSizes,
        )
        .unwrap();
        let log = Selector::train_in_space(
            SelectorKind::DecisionTree,
            &ds,
            &train,
            &configs,
            0,
            FeatureSpace::ScaledLog,
        )
        .unwrap();
        assert_eq!(
            raw.select_rows(&ds, &train).unwrap(),
            log.select_rows(&ds, &train).unwrap()
        );
    }

    #[test]
    fn select_shape_single_consistent_with_batch() {
        let ds = ds();
        let train: Vec<usize> = (0..ds.n_shapes()).collect();
        let configs = crate::prune::PruneMethod::TopN
            .select(&ds, &train, 4, 0)
            .unwrap();
        for space in [FeatureSpace::RawSizes, FeatureSpace::ScaledLog] {
            let sel = Selector::train_in_space(
                SelectorKind::DecisionTree,
                &ds,
                &train,
                &configs,
                0,
                space,
            )
            .unwrap();
            let batch = sel.select_rows(&ds, &[3]).unwrap();
            let single = sel.select_shape(&ds.shapes[3]).unwrap();
            assert_eq!(batch[0], single);
        }
    }

    #[test]
    fn select_batch_matches_sequential_selection() {
        let ds = ds();
        let train: Vec<usize> = (0..ds.n_shapes()).collect();
        let configs = crate::prune::PruneMethod::TopN
            .select(&ds, &train, 5, 0)
            .unwrap();
        let sel = Selector::train(SelectorKind::DecisionTree, &ds, &train, &configs, 0).unwrap();
        let shapes: Vec<GemmShape> = (1..=40).map(|i| GemmShape::new(i * 13, 96, 48)).collect();
        let batch = sel.select_batch(&shapes).unwrap();
        let sequential: Vec<usize> = shapes
            .iter()
            .map(|s| sel.select_shape(s).unwrap())
            .collect();
        assert_eq!(batch, sequential);
    }

    #[test]
    fn rejects_empty_inputs() {
        let ds = ds();
        let train: Vec<usize> = (0..ds.n_shapes()).collect();
        assert!(Selector::train(SelectorKind::DecisionTree, &ds, &train, &[], 0).is_err());
        assert!(Selector::train(SelectorKind::DecisionTree, &ds, &[], &[1], 0).is_err());
    }

    #[test]
    fn as_tree_only_for_trees() {
        let ds = ds();
        let train: Vec<usize> = (0..ds.n_shapes()).collect();
        let configs = crate::prune::PruneMethod::TopN
            .select(&ds, &train, 4, 0)
            .unwrap();
        let tree = Selector::train(SelectorKind::DecisionTree, &ds, &train, &configs, 0).unwrap();
        assert!(tree.as_tree().is_some());
        let knn =
            Selector::train(SelectorKind::OneNearestNeighbor, &ds, &train, &configs, 0).unwrap();
        assert!(knn.as_tree().is_none());
    }

    #[test]
    fn analytical_selector_picks_within_candidates_with_zero_launches() {
        let device = DeviceSpec::amd_r9_nano();
        let candidates = [0, 17, 300, 512, 639];
        let sel = AnalyticalSelector::with_candidates(&device, &candidates).unwrap();
        for shape in [
            GemmShape::new(64, 64, 64),
            GemmShape::new(12544, 27, 64),
            GemmShape::new(1, 4096, 1000),
        ] {
            let pick = sel.select_shape(&shape).unwrap();
            assert!(candidates.contains(&pick));
        }
        assert_eq!(sel.configs(), &candidates);
    }

    #[test]
    fn analytical_selector_full_space_matches_scorer_top_pick() {
        let device = DeviceSpec::amd_r9_nano();
        let sel = AnalyticalSelector::new(&device);
        let shape = GemmShape::new(784, 1152, 128);
        let pick = sel.select_shape(&shape).unwrap();
        let top = sel.scorer().rank_all(&shape)[0].0;
        assert_eq!(pick, top);
    }

    #[test]
    fn analytical_selector_rejects_bad_inputs() {
        let device = DeviceSpec::amd_r9_nano();
        assert!(matches!(
            AnalyticalSelector::with_candidates(&device, &[]),
            Err(CoreError::NoLaunchableConfig)
        ));
        assert!(matches!(
            AnalyticalSelector::with_candidates(&device, &[9999]),
            Err(CoreError::BadConfigIndex(9999))
        ));
    }

    #[test]
    fn analytical_selector_errors_when_nothing_can_launch() {
        // The edge DSP rejects large work-groups; find some rejected
        // configs and restrict the selector to them.
        let device = DeviceSpec::edge_dsp();
        let probe = AnalyticalScorer::new(&device);
        let rejected: Vec<usize> = (0..probe.len()).filter(|&i| !probe.launchable(i)).collect();
        assert!(!rejected.is_empty());
        let sel = AnalyticalSelector::with_candidates(&device, &rejected[..4]).unwrap();
        assert!(matches!(
            sel.select_shape(&GemmShape::new(256, 256, 256)),
            Err(CoreError::NoLaunchableConfig)
        ));
    }

    #[test]
    fn kind_names_match_table_one() {
        let names: Vec<&str> = SelectorKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "DecisionTree",
                "RandomForest",
                "1NearestNeighbor",
                "3NearestNeighbors",
                "LinearSVM",
                "RadialSVM"
            ]
        );
    }
}
