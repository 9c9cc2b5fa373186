//! CART decision trees: classification (Gini) and multi-output regression
//! (variance reduction), with sklearn-compatible growth controls.
//!
//! Two growth strategies are provided, matching the two ways the paper
//! uses trees:
//!
//! - depth-first growth bounded by `max_depth` (runtime classifiers), and
//! - **best-first** growth bounded by `max_leaf_nodes` (the pruning
//!   regressor: limiting leaves limits the number of distinct predicted
//!   performance vectors, which become the cluster representatives).
//!
//! Both estimators share one builder; classification one-hot encodes its
//! labels so that Gini and multi-output MSE reduce to the same
//! sufficient statistics (per-output sums and squared sums).

use crate::matrix::Matrix;
use crate::{MlError, Result};

/// Node of a fitted tree. Exposed publicly so the deployment codegen in
/// `autokernel-core` can serialise trees as nested `if` statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Internal split: `feature <= threshold` goes left, else right.
    Split {
        /// Feature index tested at this node.
        feature: usize,
        /// Split threshold (midpoint between adjacent sorted values).
        threshold: f64,
        /// Index of the left child in the node arena.
        left: usize,
        /// Index of the right child in the node arena.
        right: usize,
        /// Impurity decrease achieved by this split (criterion units),
        /// accumulated into feature importances.
        gain: f64,
    },
    /// Leaf carrying the mean target vector (regression) or class-count
    /// distribution (classification) of its training samples.
    Leaf {
        /// Mean target / class distribution.
        value: Vec<f64>,
        /// Training samples that reached this leaf.
        n_samples: usize,
    },
}

/// Split criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Criterion {
    /// Sum of per-output squared deviations (multi-output MSE).
    Mse,
    /// Gini impurity over one-hot encoded class labels.
    Gini,
}

/// Growth hyper-parameters shared by both tree estimators.
#[derive(Debug, Clone)]
pub struct TreeParams {
    /// Maximum depth (`None` = unbounded).
    pub max_depth: Option<usize>,
    /// Maximum number of leaves; when set, growth is best-first.
    pub max_leaf_nodes: Option<usize>,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Number of features examined per split (`None` = all). Used by
    /// random forests for feature subsampling.
    pub max_features: Option<usize>,
    /// Seed for feature subsampling order.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: None,
            max_leaf_nodes: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

/// The fitted tree shared by classifier and regressor.
#[derive(Debug, Clone)]
pub struct FittedTree {
    nodes: Vec<Node>,
    n_features: usize,
    n_outputs: usize,
}

impl FittedTree {
    /// The node arena; node 0 is the root.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the tree (root-only tree has depth 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// Route one sample to its leaf value.
    pub fn decide(&self, sample: &[f64]) -> &[f64] {
        let mut id = 0usize;
        loop {
            match &self.nodes[id] {
                Node::Leaf { value, .. } => return value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    id = if sample[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Gini/variance importance of each feature: total impurity decrease
    /// contributed by splits on that feature, normalised to sum to 1
    /// (all-zero when the tree is a single leaf).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0f64; self.n_features];
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                imp[*feature] += gain.max(0.0);
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// All distinct leaf values, in arena order.
    pub fn leaf_values(&self) -> Vec<&[f64]> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf { value, .. } => Some(value.as_slice()),
                _ => None,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Sufficient statistics of a sample set: per-output sum and square-sum.
#[derive(Clone)]
struct Stats {
    n: usize,
    sum: Vec<f64>,
    sumsq: Vec<f64>,
}

impl Stats {
    fn new(n_outputs: usize) -> Self {
        Stats {
            n: 0,
            sum: vec![0.0; n_outputs],
            sumsq: vec![0.0; n_outputs],
        }
    }
    fn add(&mut self, y: &[f64]) {
        self.n += 1;
        for ((s, q), &v) in self.sum.iter_mut().zip(&mut self.sumsq).zip(y) {
            *s += v;
            *q += v * v;
        }
    }
    fn remove(&mut self, y: &[f64]) {
        self.n -= 1;
        for ((s, q), &v) in self.sum.iter_mut().zip(&mut self.sumsq).zip(y) {
            *s -= v;
            *q -= v * v;
        }
    }
    /// Node impurity times n (so it is additive across children).
    fn impurity_n(&self, criterion: Criterion) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        match criterion {
            // Σ_k (Σy² - (Σy)²/n) — total SSE across outputs.
            Criterion::Mse => self
                .sum
                .iter()
                .zip(&self.sumsq)
                .map(|(&s, &q)| (q - s * s / n).max(0.0))
                .sum(),
            // Gini·n = n - Σ_k count_k²/n  (targets are one-hot).
            Criterion::Gini => (n - self.sum.iter().map(|&c| c * c).sum::<f64>() / n).max(0.0),
        }
    }
    fn mean(&self) -> Vec<f64> {
        let n = (self.n.max(1)) as f64;
        self.sum.iter().map(|&s| s / n).collect()
    }
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
    left_idx: Vec<usize>,
    right_idx: Vec<usize>,
}

fn find_best_split(
    x: &Matrix,
    y: &Matrix,
    idx: &[usize],
    params: &TreeParams,
    criterion: Criterion,
    node_seed: u64,
) -> Option<BestSplit> {
    let n_features = x.cols();
    let n_outputs = y.cols();
    if idx.len() < params.min_samples_split || idx.len() < 2 * params.min_samples_leaf {
        return None;
    }

    let mut parent = Stats::new(n_outputs);
    for &i in idx {
        parent.add(y.row(i));
    }
    let parent_imp = parent.impurity_n(criterion);
    if parent_imp <= 1e-12 {
        return None; // Pure node.
    }

    // Feature subset (random forests); full set otherwise.
    let features: Vec<usize> = match params.max_features {
        Some(m) if m < n_features => {
            let mut order: Vec<usize> = (0..n_features).collect();
            // Deterministic Fisher-Yates driven by a splitmix-style hash so
            // each node sees a different subset without carrying an RNG.
            let mut state = params.seed ^ node_seed ^ 0x9e37_79b9_7f4a_7c15;
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            order.truncate(m.max(1));
            order
        }
        _ => (0..n_features).collect(),
    };

    let mut best: Option<BestSplit> = None;
    let mut sorted = idx.to_vec();

    for &f in &features {
        sorted.sort_by(|&a, &b| x[(a, f)].total_cmp(&x[(b, f)]));
        let mut left = Stats::new(n_outputs);
        let mut right = parent.clone();

        for pos in 0..sorted.len() - 1 {
            let i = sorted[pos];
            left.add(y.row(i));
            right.remove(y.row(i));

            let v_here = x[(i, f)];
            let v_next = x[(sorted[pos + 1], f)];
            // `total_cmp` sorts NaNs to the tail, so a NaN `v_next` must be
            // skipped explicitly: a NaN midpoint threshold would route
            // *every* row to the same side — no-progress recursion, an
            // infinite loop.
            if v_next.is_nan() || v_next <= v_here + 1e-12 {
                continue; // Can't split between equal (or NaN) values.
            }
            if left.n < params.min_samples_leaf || right.n < params.min_samples_leaf {
                continue;
            }
            let gain = parent_imp - left.impurity_n(criterion) - right.impurity_n(criterion);
            // Ties at zero gain are still taken (as in sklearn's splitter):
            // an impure node may need a gain-free split before a useful one
            // becomes visible (the XOR pattern).
            if gain > best.as_ref().map_or(-1e-9, |b| b.gain) {
                let threshold = 0.5 * (v_here + v_next);
                best = Some(BestSplit {
                    feature: f,
                    threshold,
                    gain,
                    left_idx: Vec::new(),
                    right_idx: Vec::new(),
                });
            }
        }
    }

    best.and_then(|mut b| {
        for &i in idx {
            if x[(i, b.feature)] <= b.threshold {
                b.left_idx.push(i);
            } else {
                b.right_idx.push(i);
            }
        }
        // A split that moves nothing cannot make progress; growing on it
        // would recurse forever on the same index set.
        if b.left_idx.is_empty() || b.right_idx.is_empty() {
            return None;
        }
        Some(b)
    })
}

fn leaf_node(y: &Matrix, idx: &[usize], n_outputs: usize) -> Node {
    let mut stats = Stats::new(n_outputs);
    for &i in idx {
        stats.add(y.row(i));
    }
    Node::Leaf {
        value: stats.mean(),
        n_samples: idx.len(),
    }
}

/// Grow a tree. Best-first when `max_leaf_nodes` is set, depth-first
/// otherwise; both respect `max_depth`.
fn build_tree(x: &Matrix, y: &Matrix, params: &TreeParams, criterion: Criterion) -> FittedTree {
    let n_outputs = y.cols();
    let all: Vec<usize> = (0..x.rows()).collect();
    let mut nodes: Vec<Node> = Vec::new();

    if let Some(max_leaves) = params.max_leaf_nodes {
        // Best-first: a frontier of expandable leaves ordered by gain.
        struct Frontier {
            node_id: usize,
            depth: usize,
            split: Option<BestSplit>,
        }
        nodes.push(leaf_node(y, &all, n_outputs));
        let mut frontier = vec![Frontier {
            node_id: 0,
            depth: 0,
            split: find_best_split(x, y, &all, params, criterion, 0),
        }];
        let mut n_leaves = 1usize;

        while n_leaves < max_leaves.max(1) {
            // Pick the frontier entry with the largest gain.
            let pick = frontier
                .iter()
                .enumerate()
                .filter(|(_, f)| f.split.is_some())
                .max_by(|(_, a), (_, b)| {
                    let ga = a.split.as_ref().unwrap().gain;
                    let gb = b.split.as_ref().unwrap().gain;
                    ga.total_cmp(&gb)
                })
                .map(|(i, _)| i);
            let Some(pos) = pick else { break };
            let fr = frontier.swap_remove(pos);
            let split = fr.split.unwrap();
            let depth = fr.depth + 1;
            let over_depth = params.max_depth.is_some_and(|d| depth > d);
            if over_depth {
                continue;
            }

            let left_id = nodes.len();
            nodes.push(leaf_node(y, &split.left_idx, n_outputs));
            let right_id = nodes.len();
            nodes.push(leaf_node(y, &split.right_idx, n_outputs));
            nodes[fr.node_id] = Node::Split {
                feature: split.feature,
                threshold: split.threshold,
                left: left_id,
                right: right_id,
                gain: split.gain,
            };
            n_leaves += 1; // One leaf became a split + two leaves.

            for (child_id, child_idx) in [(left_id, split.left_idx), (right_id, split.right_idx)] {
                let split = find_best_split(x, y, &child_idx, params, criterion, child_id as u64);
                frontier.push(Frontier {
                    node_id: child_id,
                    depth,
                    split,
                });
            }
        }
    } else {
        // Depth-first recursion via an explicit stack.
        struct Work {
            idx: Vec<usize>,
            depth: usize,
            /// Where to write this node's id in the parent.
            slot: Option<(usize, bool)>,
        }
        let mut stack = vec![Work {
            idx: all,
            depth: 0,
            slot: None,
        }];
        while let Some(w) = stack.pop() {
            let id = nodes.len();
            if let Some((parent, is_left)) = w.slot {
                if let Node::Split { left, right, .. } = &mut nodes[parent] {
                    if is_left {
                        *left = id;
                    } else {
                        *right = id;
                    }
                }
            }
            let over_depth = params.max_depth.is_some_and(|d| w.depth >= d);
            let split = if over_depth {
                None
            } else {
                find_best_split(x, y, &w.idx, params, criterion, id as u64)
            };
            match split {
                Some(s) => {
                    nodes.push(Node::Split {
                        feature: s.feature,
                        threshold: s.threshold,
                        left: usize::MAX,
                        right: usize::MAX,
                        gain: s.gain,
                    });
                    // Push right first so left is laid out immediately after
                    // its parent (cache-friendly and deterministic).
                    stack.push(Work {
                        idx: s.right_idx,
                        depth: w.depth + 1,
                        slot: Some((id, false)),
                    });
                    stack.push(Work {
                        idx: s.left_idx,
                        depth: w.depth + 1,
                        slot: Some((id, true)),
                    });
                }
                None => nodes.push(leaf_node(y, &w.idx, n_outputs)),
            }
        }
    }

    FittedTree {
        nodes,
        n_features: x.cols(),
        n_outputs,
    }
}

// ---------------------------------------------------------------------------
// Public estimators
// ---------------------------------------------------------------------------

/// Multi-output decision-tree regressor.
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    /// Growth hyper-parameters.
    pub params: TreeParams,
    tree: Option<FittedTree>,
}

impl DecisionTreeRegressor {
    /// New regressor with default parameters.
    pub fn new(params: TreeParams) -> Self {
        DecisionTreeRegressor { params, tree: None }
    }

    /// Fit on features `x` and (multi-output) targets `y`.
    pub fn fit(&mut self, x: &Matrix, y: &Matrix) -> Result<&mut Self> {
        check_xy(x, y)?;
        self.tree = Some(build_tree(x, y, &self.params, Criterion::Mse));
        Ok(self)
    }

    /// Predict target vectors for each row of `x`.
    pub fn predict(&self, x: &Matrix) -> Result<Matrix> {
        let tree = self.tree.as_ref().ok_or(MlError::NotFitted)?;
        check_features(x, tree)?;
        let mut out = Matrix::zeros(x.rows(), tree.n_outputs);
        for (i, row) in x.rows_iter().enumerate() {
            out.row_mut(i).copy_from_slice(tree.decide(row));
        }
        Ok(out)
    }

    /// The fitted tree.
    pub fn tree(&self) -> Result<&FittedTree> {
        self.tree.as_ref().ok_or(MlError::NotFitted)
    }
}

/// Decision-tree classifier (Gini).
#[derive(Debug, Clone)]
pub struct DecisionTreeClassifier {
    /// Growth hyper-parameters.
    pub params: TreeParams,
    tree: Option<FittedTree>,
    classes: Vec<usize>,
}

impl DecisionTreeClassifier {
    /// New classifier with the given parameters.
    pub fn new(params: TreeParams) -> Self {
        DecisionTreeClassifier {
            params,
            tree: None,
            classes: Vec::new(),
        }
    }

    /// Fit on features `x` and class labels `y`.
    pub fn fit(&mut self, x: &Matrix, y: &[usize]) -> Result<&mut Self> {
        if x.rows() != y.len() || x.rows() == 0 {
            return Err(MlError::BadShape(
                "x rows must equal y length (nonzero)".into(),
            ));
        }
        let (onehot, classes) = one_hot(y);
        self.classes = classes;
        self.tree = Some(build_tree(x, &onehot, &self.params, Criterion::Gini));
        Ok(self)
    }

    /// Predict a class label for each row of `x`.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<usize>> {
        let tree = self.tree.as_ref().ok_or(MlError::NotFitted)?;
        check_features(x, tree)?;
        Ok(x.rows_iter().map(|row| self.classify(tree, row)).collect())
    }

    /// Predict the class label of one sample, walking the tree on the
    /// caller's slice: no matrix and no allocation.
    pub fn predict_one(&self, sample: &[f64]) -> Result<usize> {
        let tree = self.tree.as_ref().ok_or(MlError::NotFitted)?;
        if sample.len() != tree.n_features {
            return Err(MlError::BadShape("feature count differs from fit".into()));
        }
        Ok(self.classify(tree, sample))
    }

    fn classify(&self, tree: &FittedTree, sample: &[f64]) -> usize {
        self.classes[argmax(tree.decide(sample))]
    }

    /// Class-probability estimates (leaf class frequencies).
    pub fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        let tree = self.tree.as_ref().ok_or(MlError::NotFitted)?;
        check_features(x, tree)?;
        let mut out = Matrix::zeros(x.rows(), self.classes.len());
        for (i, row) in x.rows_iter().enumerate() {
            out.row_mut(i).copy_from_slice(tree.decide(row));
        }
        Ok(out)
    }

    /// Class labels in the order used by [`predict_proba`].
    ///
    /// [`predict_proba`]: DecisionTreeClassifier::predict_proba
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }

    /// The fitted tree.
    pub fn tree(&self) -> Result<&FittedTree> {
        self.tree.as_ref().ok_or(MlError::NotFitted)
    }
}

fn check_xy(x: &Matrix, y: &Matrix) -> Result<()> {
    if x.rows() != y.rows() || x.rows() == 0 {
        return Err(MlError::BadShape(
            "x and y must have the same nonzero row count".into(),
        ));
    }
    Ok(())
}

fn check_features(x: &Matrix, tree: &FittedTree) -> Result<()> {
    if x.cols() != tree.n_features {
        return Err(MlError::BadShape("feature count differs from fit".into()));
    }
    Ok(())
}

/// One-hot encode labels; returns the encoding and the sorted class list.
fn one_hot(y: &[usize]) -> (Matrix, Vec<usize>) {
    let mut classes: Vec<usize> = y.to_vec();
    classes.sort_unstable();
    classes.dedup();
    let mut m = Matrix::zeros(y.len(), classes.len());
    for (i, &label) in y.iter().enumerate() {
        let c = classes.binary_search(&label).unwrap();
        m[(i, c)] = 1.0;
    }
    (m, classes)
}

/// Index of the maximum element (first on ties).
pub(crate) fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<usize>) {
        // XOR with 4 clusters of points — not linearly separable, tree food.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (cx, cy, l) in [
            (0.0, 0.0, 0),
            (10.0, 10.0, 0),
            (0.0, 10.0, 1),
            (10.0, 0.0, 1),
        ] {
            for i in 0..8 {
                rows.push(vec![cx + (i % 3) as f64 * 0.1, cy + (i % 2) as f64 * 0.1]);
                labels.push(l);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn classifier_learns_xor() {
        let (x, y) = xor_data();
        let mut clf = DecisionTreeClassifier::new(TreeParams::default());
        clf.fit(&x, &y).unwrap();
        assert_eq!(clf.predict(&x).unwrap(), y);
        let one: Vec<usize> = x
            .rows_iter()
            .map(|row| clf.predict_one(row).unwrap())
            .collect();
        assert_eq!(one, y, "one sample at a time agrees with the batch");
        assert!(clf.predict_one(&[0.0]).is_err());
    }

    #[test]
    fn classifier_respects_max_depth() {
        let (x, y) = xor_data();
        let mut clf = DecisionTreeClassifier::new(TreeParams {
            max_depth: Some(1),
            ..TreeParams::default()
        });
        clf.fit(&x, &y).unwrap();
        assert!(clf.tree().unwrap().depth() <= 1);
        // Depth-1 tree cannot solve XOR.
        let pred = clf.predict(&x).unwrap();
        assert_ne!(pred, y);
    }

    #[test]
    fn nan_poisoned_features_do_not_panic_tree_growth() {
        // NaN feature values used to panic the per-feature sort comparator
        // (and, under best-first growth, the frontier gain comparator).
        // Fitting must complete and predictions must stay valid classes.
        let (mut x_rows, mut y) = {
            let (x, y) = xor_data();
            (x.rows_iter().map(|r| r.to_vec()).collect::<Vec<_>>(), y)
        };
        x_rows.push(vec![f64::NAN, 0.05]);
        y.push(0);
        x_rows.push(vec![f64::NAN, f64::NAN]);
        y.push(1);
        let x = Matrix::from_rows(&x_rows).unwrap();

        let mut clf = DecisionTreeClassifier::new(TreeParams::default());
        clf.fit(&x, &y).unwrap();
        let pred = clf.predict(&x).unwrap();
        assert_eq!(pred.len(), y.len());
        assert!(pred.iter().all(|&p| p == 0 || p == 1));

        // Best-first growth exercises the frontier comparator too.
        let mut best_first = DecisionTreeClassifier::new(TreeParams {
            max_leaf_nodes: Some(4),
            ..TreeParams::default()
        });
        best_first.fit(&x, &y).unwrap();
        assert!(best_first.tree().unwrap().n_leaves() <= 4);
    }

    #[test]
    fn regressor_fits_step_function() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let targets: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                if i < 10 {
                    vec![1.0, 0.0]
                } else {
                    vec![5.0, 2.0]
                }
            })
            .collect();
        let y = Matrix::from_rows(&targets).unwrap();
        let mut reg = DecisionTreeRegressor::new(TreeParams::default());
        reg.fit(&x, &y).unwrap();
        let pred = reg.predict(&x).unwrap();
        for i in 0..20 {
            let expect = if i < 10 { [1.0, 0.0] } else { [5.0, 2.0] };
            assert!((pred[(i, 0)] - expect[0]).abs() < 1e-12);
            assert!((pred[(i, 1)] - expect[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn max_leaf_nodes_bounds_leaves_and_distinct_predictions() {
        // A target with 8 distinct plateaus; cap at 3 leaves.
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let targets: Vec<Vec<f64>> = (0..64).map(|i| vec![(i / 8) as f64 * 10.0]).collect();
        let y = Matrix::from_rows(&targets).unwrap();
        let mut reg = DecisionTreeRegressor::new(TreeParams {
            max_leaf_nodes: Some(3),
            ..TreeParams::default()
        });
        reg.fit(&x, &y).unwrap();
        assert_eq!(reg.tree().unwrap().n_leaves(), 3);
        let pred = reg.predict(&x).unwrap();
        let mut distinct: Vec<i64> = pred.as_slice().iter().map(|v| (v * 512.0) as i64).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 3);
    }

    #[test]
    fn best_first_growth_picks_highest_gain_first() {
        // Feature 0 splits targets 0 vs 100 (huge gain); feature 1 splits
        // 0 vs 1 (tiny gain). With 2 leaves only feature 0 may be used.
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for i in 0..16 {
            let big = (i % 2) as f64;
            let small = ((i / 2) % 2) as f64;
            rows.push(vec![big, small]);
            targets.push(vec![big * 100.0 + small]);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let y = Matrix::from_rows(&targets).unwrap();
        let mut reg = DecisionTreeRegressor::new(TreeParams {
            max_leaf_nodes: Some(2),
            ..TreeParams::default()
        });
        reg.fit(&x, &y).unwrap();
        match &reg.tree().unwrap().nodes()[0] {
            Node::Split { feature, .. } => assert_eq!(*feature, 0),
            _ => panic!("root should be a split"),
        }
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = xor_data();
        let mut clf = DecisionTreeClassifier::new(TreeParams {
            min_samples_leaf: 5,
            ..TreeParams::default()
        });
        clf.fit(&x, &y).unwrap();
        for node in clf.tree().unwrap().nodes() {
            if let Node::Leaf { n_samples, .. } = node {
                assert!(*n_samples >= 5);
            }
        }
    }

    #[test]
    fn leaf_values_count_matches_n_leaves() {
        let (x, y) = xor_data();
        let mut clf = DecisionTreeClassifier::new(TreeParams::default());
        clf.fit(&x, &y).unwrap();
        let t = clf.tree().unwrap();
        assert_eq!(t.leaf_values().len(), t.n_leaves());
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let (x, y) = xor_data();
        let mut clf = DecisionTreeClassifier::new(TreeParams::default());
        clf.fit(&x, &y).unwrap();
        let p = clf.predict_proba(&x).unwrap();
        for i in 0..p.rows() {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn errors_on_unfitted_or_mismatched() {
        let clf = DecisionTreeClassifier::new(TreeParams::default());
        assert!(clf.predict(&Matrix::zeros(1, 2)).is_err());
        let (x, y) = xor_data();
        let mut clf = DecisionTreeClassifier::new(TreeParams::default());
        clf.fit(&x, &y).unwrap();
        assert!(clf.predict(&Matrix::zeros(1, 5)).is_err());
        let mut reg = DecisionTreeRegressor::new(TreeParams::default());
        assert!(reg.fit(&Matrix::zeros(3, 2), &Matrix::zeros(4, 1)).is_err());
    }

    #[test]
    fn feature_importances_identify_the_informative_feature() {
        // Labels depend only on feature 1; feature 0 is noise.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            rows.push(vec![(i % 7) as f64, (i / 20) as f64 * 10.0]);
            labels.push(i / 20);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut clf = DecisionTreeClassifier::new(TreeParams::default());
        clf.fit(&x, &labels).unwrap();
        let imp = clf.tree().unwrap().feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            imp[1] > 0.95,
            "informative feature should dominate: {imp:?}"
        );
    }

    #[test]
    fn single_leaf_tree_has_zero_importances() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let mut clf = DecisionTreeClassifier::new(TreeParams::default());
        clf.fit(&x, &[3, 3]).unwrap();
        assert_eq!(clf.tree().unwrap().feature_importances(), vec![0.0]);
    }

    #[test]
    fn classifier_preserves_original_label_values() {
        // Labels are arbitrary usizes (e.g. config indices), not 0..k.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<usize> = (0..10).map(|i| if i < 5 { 137 } else { 42 }).collect();
        let mut clf = DecisionTreeClassifier::new(TreeParams::default());
        clf.fit(&x, &y).unwrap();
        let pred = clf.predict(&x).unwrap();
        assert_eq!(pred, y);
        assert_eq!(clf.classes(), &[42, 137]);
    }
}
