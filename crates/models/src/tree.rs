//! CART trees: the one tree learner behind every tree family in this crate.
//!
//! A tree is an arena of `Node`s grown depth-first by one grower. At each
//! node the best (feature, threshold) pair over an optionally subsampled
//! feature set is found either by one sweep over every boundary between
//! distinct values of the node's rows in feature order (classic CART), or by
//! scoring one uniform-random threshold per feature (extra-trees). The
//! feature order comes from a `Presort`: each feature is sorted once per
//! fit, with ties in ascending row order, and every split stably partitions
//! that order between the children, so no node sorts. Boosting builds one
//! presort and shares it across all the trees it grows on the same rows.
//! What the rows at a node are summarised by, and how a partition is scored,
//! is a `Stat`:
//!
//! * `ClassCounts` — per-class sample weights scored by gini/entropy
//!   impurity decrease. [`DecisionTree`] uses it, and through it the forests
//!   and AdaBoost. Leaves store the class distribution of their training
//!   samples, so `predict_proba_row` is calibrated to training frequencies.
//! * `SquaredError` — (sum, count) of real targets scored by squared-error
//!   reduction: the regression trees inside
//!   [`GradientBoosting`](crate::gbdt::GradientBoosting).

use crate::model::{check_training, map_rows, normalize, Classifier};
use crate::{ModelError, Result};
use aml_dataset::Dataset;
use aml_rng::rngs::StdRng;
use aml_rng::seq::SliceRandom;
use aml_rng::{Rng, SeedableRng};

/// Node-impurity criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Gini impurity `1 − Σ pᵢ²`.
    Gini,
    /// Shannon entropy `−Σ pᵢ log₂ pᵢ`.
    Entropy,
}

impl Criterion {
    fn impurity(&self, counts: &[f64], total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        match self {
            Criterion::Gini => {
                1.0 - counts
                    .iter()
                    .map(|&c| (c / total) * (c / total))
                    .sum::<f64>()
            }
            Criterion::Entropy => counts
                .iter()
                .filter(|&&c| c > 0.0)
                .map(|&c| {
                    let p = c / total;
                    -p * p.log2()
                })
                .sum(),
        }
    }
}

/// How thresholds are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Splitter {
    /// Exhaustive sweep over sorted values (classic CART).
    Best,
    /// One uniform-random threshold per candidate feature (extra-trees).
    Random,
}

/// Hyperparameters for [`DecisionTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (root has depth 0). `0` means a single leaf.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must retain.
    pub min_samples_leaf: usize,
    /// Impurity criterion.
    pub criterion: Criterion,
    /// Threshold selection strategy.
    pub splitter: Splitter,
    /// Number of features to consider per split (`None` = all).
    pub max_features: Option<usize>,
    /// Seed for feature subsampling / random thresholds.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            criterion: Criterion::Gini,
            splitter: Splitter::Best,
            max_features: None,
            seed: 0,
        }
    }
}

impl TreeParams {
    pub(crate) fn validate(&self, n_features: usize) -> Result<()> {
        if self.min_samples_split < 2 {
            return Err(ModelError::InvalidHyperparameter(
                "min_samples_split must be >= 2".into(),
            ));
        }
        if self.min_samples_leaf == 0 {
            return Err(ModelError::InvalidHyperparameter(
                "min_samples_leaf must be >= 1".into(),
            ));
        }
        if let Some(mf) = self.max_features {
            if mf == 0 || mf > n_features {
                return Err(ModelError::InvalidHyperparameter(format!(
                    "max_features {mf} outside 1..={n_features}"
                )));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node<L> {
    Leaf(L),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted tree: a node arena whose root is node 0, with leaf payload `L`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tree<L> {
    nodes: Vec<Node<L>>,
}

impl<L> Tree<L> {
    /// Grow a tree over every row of `ds`, summarising nodes with `stat`.
    /// `Best` splits sweep `presort`, which must be [`Presort::new`] of `ds`;
    /// `Random` splits read no presort and may be given none.
    pub(crate) fn fit<S: Stat<Leaf = L>>(
        ds: &Dataset,
        presort: Option<&Presort>,
        stat: &S,
        params: &TreeParams,
    ) -> Self {
        let n = ds.n_rows();
        let order = match params.splitter {
            Splitter::Best => {
                let presort = presort.expect("best splits sweep a presort");
                debug_assert_eq!(presort.order.len(), n * ds.n_features());
                presort.order.clone()
            }
            Splitter::Random => Vec::new(),
        };
        let mut grower = Grower {
            ds,
            stat,
            params,
            rng: StdRng::seed_from_u64(params.seed),
            nodes: Vec::new(),
            rows: (0..n).collect(),
            order,
            goes_left: vec![false; n],
            scratch: Vec::with_capacity(n),
        };
        let root = grower.grow(0, n, 0);
        debug_assert_eq!(root, 0, "root is always the first node");
        Tree {
            nodes: grower.nodes,
        }
    }

    /// Id of the leaf that `row` falls into.
    pub(crate) fn leaf_id(&self, row: &[f64]) -> usize {
        let mut node = 0usize;
        while let Node::Split {
            feature,
            threshold,
            left,
            right,
        } = &self.nodes[node]
        {
            node = if row[*feature] <= *threshold {
                *left
            } else {
                *right
            };
        }
        node
    }

    /// Payload of the leaf that `row` falls into.
    pub(crate) fn leaf(&self, row: &[f64]) -> &L {
        match &self.nodes[self.leaf_id(row)] {
            Node::Leaf(payload) => payload,
            Node::Split { .. } => unreachable!("leaf_id stops at a leaf"),
        }
    }

    /// Replace each leaf's payload with `f(rows)`, where `rows` are the rows
    /// of `ds` that fall into it, in ascending order. Routing the training
    /// rows again reproduces the fit-time membership exactly, because the
    /// grower partitions with the same `row[feature] <= threshold` test.
    pub(crate) fn relabel_leaves(&mut self, ds: &Dataset, f: impl Fn(&[usize]) -> L) {
        let mut members = vec![Vec::new(); self.nodes.len()];
        for i in 0..ds.n_rows() {
            members[self.leaf_id(ds.row(i))].push(i);
        }
        for (node, rows) in self.nodes.iter_mut().zip(&members) {
            if let Node::Leaf(payload) = node {
                *payload = f(rows);
            }
        }
    }

    fn depth(&self, node: usize) -> usize {
        match &self.nodes[node] {
            Node::Leaf(_) => 0,
            Node::Split { left, right, .. } => 1 + self.depth(*left).max(self.depth(*right)),
        }
    }

    #[cfg(test)]
    pub(crate) fn n_leaves(&self) -> usize {
        let leaves = self.nodes.iter().filter(|n| matches!(n, Node::Leaf(_)));
        leaves.count()
    }
}

/// Impurity, weight and leaf payload of the rows reaching one node.
pub(crate) struct NodeSummary<L> {
    impurity: f64,
    weight: f64,
    leaf: L,
}

/// What a tree fits: how the rows reaching a node are summarised, and how a
/// candidate partition of them into left and right is scored.
pub(crate) trait Stat {
    /// Payload stored in a leaf.
    type Leaf;
    /// Running statistic of a left/right partition of a node's rows.
    type Partition;
    /// A split is taken only if it scores strictly above this floor.
    const FLOOR: f64;
    /// Summary of the rows reaching a node.
    fn node(&self, rows: &[usize]) -> NodeSummary<Self::Leaf>;
    /// Partition of `rows` by `goes_left`, accumulated side by side, and
    /// the number of rows that go left.
    fn partition(
        &self,
        rows: &[usize],
        goes_left: impl Fn(usize) -> bool,
    ) -> (Self::Partition, usize);
    /// Partition with every row of `sorted` on the right.
    fn all_right(&self, sorted: &[usize]) -> Self::Partition {
        self.partition(sorted, |_| false).0
    }
    /// Move row `i` from the right side to the left.
    fn move_left(&self, part: &mut Self::Partition, i: usize);
    /// Score of a partition with `n_left`/`n_right` rows; higher is better.
    fn score(
        &self,
        node: &NodeSummary<Self::Leaf>,
        part: &Self::Partition,
        n_left: usize,
        n_right: usize,
    ) -> f64;
}

/// Per-class sample weights, scored by impurity decrease.
pub(crate) struct ClassCounts<'a> {
    ds: &'a Dataset,
    weights: &'a [f64],
    criterion: Criterion,
}

pub(crate) struct ClassPartition {
    left: Vec<f64>,
    right: Vec<f64>,
    left_weight: f64,
}

impl Stat for ClassCounts<'_> {
    type Leaf = Vec<f64>;
    type Partition = ClassPartition;
    const FLOOR: f64 = 1e-12;

    fn node(&self, rows: &[usize]) -> NodeSummary<Vec<f64>> {
        let mut proba = vec![0.0; self.ds.n_classes()];
        for &i in rows {
            proba[self.ds.label(i)] += self.weights[i];
        }
        normalize(&mut proba);
        let weight: f64 = rows.iter().map(|&i| self.weights[i]).sum();
        let counts: Vec<f64> = proba.iter().map(|p| p * weight).collect();
        NodeSummary {
            impurity: self.criterion.impurity(&counts, weight),
            weight,
            leaf: proba,
        }
    }

    fn move_left(&self, part: &mut ClassPartition, i: usize) {
        let (c, w) = (self.ds.label(i), self.weights[i]);
        part.left[c] += w;
        part.right[c] -= w;
        part.left_weight += w;
    }

    fn partition(
        &self,
        rows: &[usize],
        goes_left: impl Fn(usize) -> bool,
    ) -> (ClassPartition, usize) {
        let mut part = ClassPartition {
            left: vec![0.0; self.ds.n_classes()],
            right: vec![0.0; self.ds.n_classes()],
            left_weight: 0.0,
        };
        let mut n_left = 0;
        for &i in rows {
            let (c, w) = (self.ds.label(i), self.weights[i]);
            if goes_left(i) {
                part.left[c] += w;
                part.left_weight += w;
                n_left += 1;
            } else {
                part.right[c] += w;
            }
        }
        (part, n_left)
    }

    fn score(
        &self,
        node: &NodeSummary<Vec<f64>>,
        part: &ClassPartition,
        _: usize,
        _: usize,
    ) -> f64 {
        let (total, left_weight) = (node.weight, part.left_weight);
        let right_weight = total - left_weight;
        let imp_l = self.criterion.impurity(&part.left, left_weight);
        let imp_r = self.criterion.impurity(&part.right, right_weight);
        node.impurity - (left_weight * imp_l + right_weight * imp_r) / total
    }
}

/// Sum and count of real targets, scored by squared-error reduction.
pub(crate) struct SquaredError<'a> {
    pub(crate) y: &'a [f64],
}

/// Sum of the node's targets and of its left side.
pub(crate) struct SumPartition {
    total: f64,
    left: f64,
}

impl Stat for SquaredError<'_> {
    type Leaf = f64;
    type Partition = SumPartition;
    const FLOOR: f64 = f64::NEG_INFINITY;

    fn node(&self, rows: &[usize]) -> NodeSummary<f64> {
        let n = rows.len() as f64;
        let mean = rows.iter().map(|&i| self.y[i]).sum::<f64>() / n;
        let sse = rows
            .iter()
            .map(|&i| (self.y[i] - mean) * (self.y[i] - mean));
        NodeSummary {
            impurity: sse.sum(),
            weight: n,
            leaf: mean,
        }
    }

    fn partition(
        &self,
        rows: &[usize],
        goes_left: impl Fn(usize) -> bool,
    ) -> (SumPartition, usize) {
        let (mut left, mut n_left) = (0.0, 0);
        for &i in rows.iter().filter(|&&i| goes_left(i)) {
            left += self.y[i];
            n_left += 1;
        }
        let total = rows.iter().map(|&i| self.y[i]).sum();
        (SumPartition { total, left }, n_left)
    }

    fn move_left(&self, part: &mut SumPartition, i: usize) {
        part.left += self.y[i];
    }

    /// SSE reduction is `sum²_L/n_L + sum²_R/n_R − sum²/n`; the last term is
    /// the same for every candidate, so it is dropped.
    fn score(
        &self,
        _: &NodeSummary<f64>,
        part: &SumPartition,
        n_left: usize,
        n_right: usize,
    ) -> f64 {
        let right = part.total - part.left;
        part.left * part.left / n_left as f64 + right * right / n_right as f64
    }
}

/// Row ids sorted by each feature's value, ties in ascending row order:
/// `order[f * n_rows..(f + 1) * n_rows]` is a stable sort of `0..n_rows` by
/// feature `f`. Built once per fit and shared by every tree grown on the
/// same rows.
pub(crate) struct Presort {
    order: Vec<usize>,
}

impl Presort {
    pub(crate) fn new(ds: &Dataset) -> Self {
        let n = ds.n_rows();
        let mut order = Vec::with_capacity(n * ds.n_features());
        let mut keys: Vec<(u64, usize)> = Vec::with_capacity(n);
        for f in 0..ds.n_features() {
            keys.clear();
            keys.extend((0..n).map(|i| (order_key(ds.row(i)[f]), i)));
            // Row ids are distinct, so this order is total and equals that
            // of a stable sort of `0..n` by value.
            keys.sort_unstable();
            order.extend(keys.iter().map(|&(_, i)| i));
        }
        Presort { order }
    }
}

/// An integer that orders finite floats as `partial_cmp` does, with `-0.0`
/// equal to `0.0`: flip every bit of a negative number, and only the sign
/// bit of a positive one.
fn order_key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits(); // -0.0 + 0.0 is 0.0
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Move the ids of `ids` whose `goes_left` flag is set to the front, keeping
/// the relative order on both sides. `scratch` holds the right side
/// meanwhile; its capacity is reused from call to call.
fn stable_partition(ids: &mut [usize], goes_left: &[bool], scratch: &mut Vec<usize>) {
    scratch.clear();
    let mut n_left = 0;
    for j in 0..ids.len() {
        let i = ids[j];
        if goes_left[i] {
            ids[n_left] = i;
            n_left += 1;
        } else {
            scratch.push(i);
        }
    }
    ids[n_left..].copy_from_slice(scratch);
}

/// Depth-first grower state for one tree.
///
/// The node being grown owns the range `start..end` of `rows` and of each
/// feature's slice of `order`. Splitting a node stably partitions those
/// ranges, so each child owns a subrange in the same two orders.
struct Grower<'a, S: Stat> {
    ds: &'a Dataset,
    stat: &'a S,
    params: &'a TreeParams,
    rng: StdRng,
    nodes: Vec<Node<S::Leaf>>,
    /// Row ids, in ascending order within each node's range.
    rows: Vec<usize>,
    /// Working copy of the [`Presort`] (empty for `Random`): within each
    /// node's range, feature `f`'s slice is sorted by value, ties in
    /// ascending row order.
    order: Vec<usize>,
    /// Whether each row goes left under the split being applied.
    goes_left: Vec<bool>,
    /// Right side of a stable partition in progress.
    scratch: Vec<usize>,
}

impl<S: Stat> Grower<'_, S> {
    /// Grow a subtree over the rows in `start..end`, returning its node id.
    fn grow(&mut self, start: usize, end: usize, depth: usize) -> usize {
        let node = self.stat.node(&self.rows[start..end]);
        let p = self.params;
        let n_rows = end - start;
        let stop = depth >= p.max_depth
            || n_rows < p.min_samples_split
            || node.impurity <= 1e-12
            || node.weight <= 0.0;
        let split = if stop {
            None
        } else {
            self.best_split(start, end, &node)
        };
        let Some((feature, threshold)) = split else {
            return self.push(Node::Leaf(node.leaf));
        };
        let mut n_left = 0;
        for &i in &self.rows[start..end] {
            let left = self.ds.row(i)[feature] <= threshold;
            self.goes_left[i] = left;
            n_left += left as usize;
        }
        if n_left < p.min_samples_leaf || n_rows - n_left < p.min_samples_leaf {
            return self.push(Node::Leaf(node.leaf));
        }
        self.partition(start, end);
        // Reserve our slot before the children so the root is node 0.
        let id = self.push(Node::Leaf(node.leaf));
        let left = self.grow(start, start + n_left, depth + 1);
        let right = self.grow(start + n_left, end, depth + 1);
        self.nodes[id] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        id
    }

    fn push(&mut self, node: Node<S::Leaf>) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Split the range `start..end` of `rows` and of every feature's order
    /// by `goes_left`, left side first.
    fn partition(&mut self, start: usize, end: usize) {
        let (goes_left, scratch) = (&self.goes_left, &mut self.scratch);
        stable_partition(&mut self.rows[start..end], goes_left, scratch);
        for column in self.order.chunks_exact_mut(self.ds.n_rows()) {
            stable_partition(&mut column[start..end], goes_left, scratch);
        }
    }

    /// Candidate feature subset for a split.
    fn candidate_features(&mut self) -> Vec<usize> {
        let all: Vec<usize> = (0..self.ds.n_features()).collect();
        match self.params.max_features {
            Some(k) if k < all.len() => {
                let mut pool = all;
                pool.shuffle(&mut self.rng);
                pool.truncate(k);
                pool
            }
            _ => all,
        }
    }

    /// Highest-scoring (feature, threshold) over the candidate features for
    /// the rows in `start..end`.
    ///
    /// `Best` reads the node's rows in the feature's presorted order and
    /// sweeps every boundary between distinct values, thresholding at the
    /// midpoint. `Random` draws one uniform threshold in the node's range of
    /// the feature.
    fn best_split(
        &mut self,
        start: usize,
        end: usize,
        node: &NodeSummary<S::Leaf>,
    ) -> Option<(usize, f64)> {
        let (ds, stat, n) = (self.ds, self.stat, self.ds.n_rows());
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)
        let mut offer = |score: f64, feature: usize, threshold: f64| {
            if score > best.map_or(S::FLOOR, |(s, _, _)| s) {
                best = Some((score, feature, threshold));
            }
        };
        let features = self.candidate_features();
        let rows = &self.rows[start..end];
        for f in features {
            let x = |i: usize| ds.row(i)[f];
            match self.params.splitter {
                Splitter::Best => {
                    let sorted = &self.order[f * n + start..f * n + end];
                    let mut part = stat.all_right(sorted);
                    for pos in 0..sorted.len() - 1 {
                        stat.move_left(&mut part, sorted[pos]);
                        let (v_here, v_next) = (x(sorted[pos]), x(sorted[pos + 1]));
                        let (n_left, n_right) = (pos + 1, sorted.len() - pos - 1);
                        if v_here == v_next || n_left < min_leaf || n_right < min_leaf {
                            continue;
                        }
                        let score = stat.score(node, &part, n_left, n_right);
                        offer(score, f, 0.5 * (v_here + v_next));
                    }
                }
                Splitter::Random => {
                    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                    for &i in rows {
                        lo = lo.min(x(i));
                        hi = hi.max(x(i));
                    }
                    if hi <= lo {
                        continue; // constant feature at this node
                    }
                    let threshold = self.rng.gen_range(lo..hi);
                    let (part, n_left) = stat.partition(rows, |i| x(i) <= threshold);
                    let n_right = rows.len() - n_left;
                    if n_left < min_leaf || n_right < min_leaf {
                        continue;
                    }
                    offer(stat.score(node, &part, n_left, n_right), f, threshold);
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

/// A fitted CART decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    tree: Tree<Vec<f64>>,
    n_classes: usize,
    n_features: usize,
    params: TreeParams,
}

impl DecisionTree {
    /// Fit a tree on `ds` with uniform sample weights.
    pub fn fit(ds: &Dataset, params: TreeParams) -> Result<Self> {
        let w = vec![1.0; ds.n_rows()];
        Self::fit_weighted(ds, params, &w)
    }

    /// Fit a tree with per-sample weights (all weights must be positive or
    /// zero; zero-weight samples are ignored for split scoring but still
    /// routed, matching standard implementations).
    pub fn fit_weighted(ds: &Dataset, params: TreeParams, weights: &[f64]) -> Result<Self> {
        let presort = (params.splitter == Splitter::Best).then(|| Presort::new(ds));
        Self::fit_weighted_presorted(ds, presort.as_ref(), params, weights)
    }

    /// [`fit_weighted`](Self::fit_weighted) sweeping a presort of `ds` that
    /// the caller built once, so boosting rounds share it.
    pub(crate) fn fit_weighted_presorted(
        ds: &Dataset,
        presort: Option<&Presort>,
        params: TreeParams,
        weights: &[f64],
    ) -> Result<Self> {
        check_training(ds)?;
        params.validate(ds.n_features())?;
        if weights.len() != ds.n_rows() {
            return Err(ModelError::DimensionMismatch {
                expected: ds.n_rows(),
                got: weights.len(),
            });
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(ModelError::InvalidHyperparameter(
                "sample weights must be finite and non-negative".into(),
            ));
        }
        let stat = ClassCounts {
            ds,
            weights,
            criterion: params.criterion,
        };
        Ok(DecisionTree {
            tree: Tree::fit(ds, presort, &stat, &params),
            n_classes: ds.n_classes(),
            n_features: ds.n_features(),
            params,
        })
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.tree.depth(0)
    }

    /// Number of nodes (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        self.tree.nodes.len()
    }

    /// Parameters used at fit time.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// Class distribution of the leaf `row` falls into, without the
    /// dimension check or the copy of [`Classifier::predict_proba_into`].
    pub(crate) fn leaf_proba(&self, row: &[f64]) -> &[f64] {
        self.tree.leaf(row)
    }
}

impl Classifier for DecisionTree {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn predict_proba_into(&self, rows: &[f64], out: &mut [f64]) -> Result<()> {
        map_rows(rows, out, self.n_features, self.n_classes, |row, p| {
            p.copy_from_slice(self.leaf_proba(row));
        })
    }

    fn name(&self) -> &'static str {
        "decision_tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use aml_dataset::synth;

    #[test]
    fn fits_xor_perfectly_with_small_depth() {
        // Noise-free XOR is separable by a depth-2 tree in principle, but
        // greedy axis-aligned splitting has near-zero gain at the root and
        // may place early thresholds off 0.5, so a couple of extra levels
        // are needed to clean up the boundary slivers (this draw needs 5).
        let ds = synth::noisy_xor(400, 0.0, 3).unwrap();
        let tree = DecisionTree::fit(
            &ds,
            TreeParams {
                max_depth: 6,
                ..Default::default()
            },
        )
        .unwrap();
        let pred = tree.predict(&ds).unwrap();
        assert_eq!(accuracy(ds.labels(), &pred).unwrap(), 1.0);
        assert!(tree.depth() <= 6);
    }

    #[test]
    fn max_depth_zero_gives_prior_leaf() {
        let ds = synth::gaussian_blobs(30, 2, 3, 1.0, 1).unwrap();
        let tree = DecisionTree::fit(
            &ds,
            TreeParams {
                max_depth: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(tree.n_nodes(), 1);
        let p = tree.predict_proba_row(ds.row(0)).unwrap();
        // Balanced 3-class data → uniform prior.
        for v in p {
            assert!((v - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn respects_max_depth() {
        let ds = synth::two_moons(300, 0.25, 5).unwrap();
        for d in [1, 2, 3, 5] {
            let tree = DecisionTree::fit(
                &ds,
                TreeParams {
                    max_depth: d,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(tree.depth() <= d, "depth {} > max {d}", tree.depth());
        }
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let ds = synth::two_moons(100, 0.2, 7).unwrap();
        let tree = DecisionTree::fit(
            &ds,
            TreeParams {
                min_samples_leaf: 20,
                ..Default::default()
            },
        )
        .unwrap();
        // A tree with >= 20 samples per leaf on 100 samples has <= 5 leaves,
        // i.e. <= 9 nodes.
        assert!(tree.n_nodes() <= 9, "{} nodes", tree.n_nodes());
    }

    #[test]
    fn entropy_criterion_also_learns() {
        let ds = synth::gaussian_blobs(150, 2, 3, 0.5, 11).unwrap();
        let tree = DecisionTree::fit(
            &ds,
            TreeParams {
                criterion: Criterion::Entropy,
                ..Default::default()
            },
        )
        .unwrap();
        let pred = tree.predict(&ds).unwrap();
        assert!(accuracy(ds.labels(), &pred).unwrap() > 0.95);
    }

    #[test]
    fn random_splitter_learns_blobs() {
        let ds = synth::gaussian_blobs(200, 2, 2, 0.5, 13).unwrap();
        let tree = DecisionTree::fit(
            &ds,
            TreeParams {
                splitter: Splitter::Random,
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let pred = tree.predict(&ds).unwrap();
        assert!(accuracy(ds.labels(), &pred).unwrap() > 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = synth::two_moons(200, 0.2, 17).unwrap();
        let p = TreeParams {
            splitter: Splitter::Random,
            max_features: Some(1),
            seed: 9,
            ..Default::default()
        };
        let a = DecisionTree::fit(&ds, p.clone()).unwrap();
        let b = DecisionTree::fit(&ds, p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_hyperparameters() {
        let ds = synth::two_moons(50, 0.1, 0).unwrap();
        assert!(DecisionTree::fit(
            &ds,
            TreeParams {
                min_samples_split: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(DecisionTree::fit(
            &ds,
            TreeParams {
                max_features: Some(99),
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn rejects_single_class() {
        let ds = aml_dataset::Dataset::from_rows(&[vec![0.0], vec![1.0]], &[1, 1], 2).unwrap();
        assert_eq!(
            DecisionTree::fit(&ds, TreeParams::default()),
            Err(ModelError::SingleClass)
        );
    }

    #[test]
    fn weighted_fit_shifts_the_prior() {
        // Upweighting class 1 samples should raise its leaf probability.
        let ds = aml_dataset::Dataset::from_rows(
            &[vec![0.0], vec![0.1], vec![0.2], vec![0.3]],
            &[0, 0, 0, 1],
            2,
        )
        .unwrap();
        let params = TreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let uniform = DecisionTree::fit(&ds, params.clone()).unwrap();
        let weighted = DecisionTree::fit_weighted(&ds, params, &[1.0, 1.0, 1.0, 9.0]).unwrap();
        let pu = uniform.predict_proba_row(&[0.0]).unwrap()[1];
        let pw = weighted.predict_proba_row(&[0.0]).unwrap()[1];
        assert!(pw > pu, "weighted {pw} should exceed uniform {pu}");
        assert!((pw - 0.75).abs() < 1e-9);
    }

    /// Rows whose feature values repeat, so most of the order is ties.
    fn tied_rows() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                vec![
                    (i % 3) as f64,
                    ((7 * i) % 5) as f64 * 0.5,
                    -((i % 2) as f64),
                ]
            })
            .collect();
        let labels: Vec<usize> = (0..40).map(|i| (i / 3 + i % 4) % 3).collect();
        Dataset::from_rows(&rows, &labels, 3).unwrap()
    }

    #[test]
    fn stable_partition_keeps_relative_order_on_both_sides() {
        let mut ids = vec![9, 2, 7, 0, 5, 3, 8, 1, 6, 4];
        let goes_left: Vec<bool> = (0..10).map(|i| i % 3 == 0).collect();
        let mut scratch = Vec::new();
        stable_partition(&mut ids, &goes_left, &mut scratch);
        assert_eq!(ids, vec![9, 0, 3, 6, 2, 7, 5, 8, 1, 4]);
        // All left or all right leaves the order as it was.
        stable_partition(&mut ids, &[true; 10], &mut scratch);
        assert_eq!(ids, vec![9, 0, 3, 6, 2, 7, 5, 8, 1, 4]);
        stable_partition(&mut ids, &[false; 10], &mut scratch);
        assert_eq!(ids, vec![9, 0, 3, 6, 2, 7, 5, 8, 1, 4]);
    }

    #[test]
    fn order_key_orders_like_partial_cmp() {
        let xs = [
            -1e300, -2.5, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 3.0, 1e300,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(order_key(a).cmp(&order_key(b)), a.partial_cmp(&b).unwrap());
            }
        }
    }

    #[test]
    fn presort_orders_by_value_then_row_id() {
        let ds = tied_rows();
        let n = ds.n_rows();
        let presort = Presort::new(&ds);
        assert_eq!(presort.order.len(), n * ds.n_features());
        for (f, column) in presort.order.chunks_exact(n).enumerate() {
            let mut ids = column.to_vec();
            ids.sort_unstable();
            assert_eq!(
                ids,
                (0..n).collect::<Vec<_>>(),
                "feature {f} is a permutation"
            );
            for pair in column.windows(2) {
                let (a, b) = (ds.row(pair[0])[f], ds.row(pair[1])[f]);
                assert!(
                    a < b || (a == b && pair[0] < pair[1]),
                    "feature {f}: {pair:?}"
                );
            }
        }
    }

    #[test]
    fn a_shared_presort_grows_the_trees_of_fresh_fits() {
        let ds = tied_rows();
        let presort = Presort::new(&ds);
        let params = TreeParams {
            max_depth: 5,
            ..Default::default()
        };
        for weights in [
            vec![1.0; 40],
            (0..40).map(|i| 1.0 / (1 + i % 6) as f64).collect(),
        ] {
            let shared =
                DecisionTree::fit_weighted_presorted(&ds, Some(&presort), params.clone(), &weights)
                    .unwrap();
            let fresh = DecisionTree::fit_weighted(&ds, params.clone(), &weights).unwrap();
            assert!(shared.n_nodes() > 1);
            assert_eq!(shared, fresh);
        }
    }

    #[test]
    fn predict_dimension_checked() {
        let ds = synth::two_moons(50, 0.1, 2).unwrap();
        let tree = DecisionTree::fit(&ds, TreeParams::default()).unwrap();
        assert!(tree.predict_proba_row(&[1.0]).is_err());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use aml_dataset::synth;
    use aml_propcheck::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Leaf probabilities always form a distribution, on arbitrary query
        /// points far outside the training range.
        #[test]
        fn prop_proba_is_distribution(
            seed in 0u64..500,
            x in -100f64..100.0,
            y in -100f64..100.0,
        ) {
            let ds = synth::two_moons(60, 0.3, seed).unwrap();
            let tree = DecisionTree::fit(
                &ds,
                TreeParams { max_depth: 6, seed, ..Default::default() },
            ).unwrap();
            let p = tree.predict_proba_row(&[x, y]).unwrap();
            prop_assert_eq!(p.len(), 2);
            prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }

        /// Depth bound always holds, for both splitters.
        #[test]
        fn prop_depth_bounded(
            seed in 0u64..200,
            depth in 1usize..8,
            random in aml_propcheck::bool::ANY,
        ) {
            let ds = synth::gaussian_blobs(80, 3, 3, 2.0, seed).unwrap();
            let tree = DecisionTree::fit(&ds, TreeParams {
                max_depth: depth,
                splitter: if random { Splitter::Random } else { Splitter::Best },
                seed,
                ..Default::default()
            }).unwrap();
            prop_assert!(tree.depth() <= depth);
        }
    }
}
