//! C4.5-style decision-tree classifier.
//!
//! Continuous attributes are split at midpoints between adjacent distinct
//! values; splits are chosen by **gain ratio** among candidates whose
//! information gain is at least the average positive gain (Quinlan's
//! guard against the gain-ratio bias towards unbalanced splits). Subtrees
//! are pruned with C4.5's pessimistic error estimate (confidence factor
//! 0.25).
//!
//! Training runs on one column-major grower: [`Presorted`] sorts each
//! feature column once, and every node is a range of the trained examples'
//! sorted blocks, split by stable in-place partition, with entropy terms
//! looked up in a per-thread table. DESIGN.md §19 argues why
//! its trees are bit-identical to the straightforward recursive trainer,
//! which the tests keep as a reference oracle.
//!
//! [`DecisionTree::predict_traced`] additionally records the decision path,
//! which the experiment harness uses to print the Figure 3 / Figure 4 style
//! path listings.

use crate::data::Dataset;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;

/// Training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth of the tree.
    pub max_depth: usize,
    /// Minimum number of examples required to attempt a split.
    pub min_split: usize,
    /// Whether to apply pessimistic post-pruning.
    pub prune: bool,
    /// z-value of the pruning confidence bound (0.6925 ≈ CF 0.25, C4.5's
    /// default).
    pub prune_z: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_split: 4,
            prune: true,
            prune_z: 0.6925,
        }
    }
}

/// One step of a traced prediction: the split consulted and the direction
/// taken.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathStep {
    /// Index of the feature consulted.
    pub feature: usize,
    /// Split threshold.
    pub threshold: f64,
    /// `true` when the example went left (`value <= threshold`).
    pub went_left: bool,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        label: usize,
        /// Training examples that reached this leaf.
        n: usize,
        /// Of which misclassified.
        errors: usize,
        /// Class histogram of the training examples at this leaf.
        dist: Vec<usize>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// Per-feature example orderings computed once per dataset.
///
/// C4.5 spends most of its time sorting candidate-split columns: the naive
/// implementation re-sorts every feature at every node of the recursion.
/// `Presorted` sorts each feature column **once**; training then keeps each
/// node's examples sorted by order-preserving partition (O(n) per node
/// instead of O(n log n) per node *per feature*), and cross-validation
/// folds restrict the same orderings by membership instead of re-sorting
/// the fold.
///
/// Thresholds are only placed between *distinct* adjacent values and split
/// statistics are cumulative label counts, so the relative order of equal
/// values never affects a split decision: training through `Presorted`
/// produces trees identical to the re-sorting implementation.
#[derive(Debug, Clone, Default)]
pub struct Presorted {
    /// One sorted column per feature, in feature order.
    columns: Vec<SortedColumn>,
}

/// One feature column in ascending value order.
#[derive(Debug, Clone)]
struct SortedColumn {
    /// Example indices sorted by value under `f64::total_cmp` (ties in
    /// example order), so NaNs sort deterministically: `-NaN` before
    /// `-inf`, `NaN` after `+inf`. (`partial_cmp(..).unwrap_or(Equal)` is
    /// not a total order once a NaN slips in, which made the sort, and so
    /// the learned tree, nondeterministic.)
    order: Vec<u32>,
    /// `values[k]` is the value of example `order[k]`.
    values: Vec<f64>,
}

impl Presorted {
    /// Sorts every feature column of `data` once.
    pub fn new(data: &Dataset) -> Presorted {
        Presorted {
            columns: (0..data.n_features())
                .map(|f| SortedColumn::new(data.len(), |i| data.row(i)[f]))
                .collect(),
        }
    }

    /// Sorts `column` (one value per example) and appends it as the next
    /// feature. Presorting a dataset's columns one by one gives exactly
    /// [`Presorted::new`], so a caller that grows a dataset a column at a
    /// time sorts only the new column.
    pub fn push_column(&mut self, column: &[f64]) {
        self.columns
            .push(SortedColumn::new(column.len(), |i| column[i]));
    }

    /// Number of presorted feature columns.
    fn n_features(&self) -> usize {
        self.columns.len()
    }
}

impl SortedColumn {
    /// Sorts the `n` values `value(0..n)`.
    fn new(n: usize, value: impl Fn(usize) -> f64) -> SortedColumn {
        // A stable sort on keys that order like `total_cmp`: the same
        // order as a stable `total_cmp` sort of the values, without a float
        // comparison (or a row lookup) per step. The key is a bijection of
        // the value's bits, so it also gives the value back.
        let keys: Vec<u64> = (0..n).map(|i| total_order_key(value(i))).collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| keys[i as usize]);
        let values = order
            .iter()
            .map(|&i| from_total_order_key(keys[i as usize]))
            .collect();
        SortedColumn { order, values }
    }
}

/// An unsigned key that orders like `f64::total_cmp` (the same bit
/// transform, with the sign bit flipped so `u64` order matches).
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits() as i64;
    let key = bits ^ ((((bits >> 63) as u64) >> 1) as i64);
    (key as u64) ^ (1 << 63)
}

/// The value whose [`total_order_key`] is `key`.
fn from_total_order_key(key: u64) -> f64 {
    let bits = (key ^ (1 << 63)) as i64;
    f64::from_bits((bits ^ ((((bits >> 63) as u64) >> 1) as i64)) as u64)
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
    n_features: usize,
}

impl DecisionTree {
    /// Trains a tree on `data`.
    ///
    /// An empty dataset yields a tree that always predicts class 0.
    pub fn train(data: &Dataset, config: &TreeConfig) -> DecisionTree {
        let presorted = Presorted::new(data);
        let indices: Vec<usize> = (0..data.len()).collect();
        DecisionTree::train_on(data, &presorted, &indices, config)
    }

    /// Trains a tree on the examples of `data` selected by `indices`,
    /// reusing the dataset-wide `presorted` orderings.
    ///
    /// Equivalent to `train(&data.subset(indices), config)` but without
    /// copying rows or re-sorting feature columns — the intended entry point
    /// for cross-validation, where every fold shares one [`Presorted`].
    /// `indices` must not contain duplicates.
    pub fn train_on(
        data: &Dataset,
        presorted: &Presorted,
        indices: &[usize],
        config: &TreeConfig,
    ) -> DecisionTree {
        debug_assert_eq!(presorted.n_features(), data.n_features());
        let mut root = if presorted.n_features() == 0 {
            // No feature, no split: the root is the leaf.
            let mut counts = vec![0usize; data.n_classes()];
            for &i in indices {
                counts[data.label(i)] += 1;
            }
            leaf(counts)
        } else {
            ENTROPY_MEMO.with(|memo| {
                let mut memo = memo.borrow_mut();
                memo.ensure(indices.len());
                Grower::new(data, presorted, indices, config, &memo).grow(0, indices.len(), 0)
            })
        };
        if config.prune {
            prune(&mut root, config.prune_z);
        }
        DecisionTree {
            root,
            n_features: data.n_features(),
        }
    }

    /// Predicts the class of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the training feature count.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label, .. } => return *label,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Predicts the class of `row`, recording every split consulted.
    pub fn predict_traced(&self, row: &[f64]) -> (usize, Vec<PathStep>) {
        let mut node = &self.root;
        let mut path = Vec::new();
        loop {
            match node {
                Node::Leaf { label, .. } => return (*label, path),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let went_left = row[*feature] <= *threshold;
                    path.push(PathStep {
                        feature: *feature,
                        threshold: *threshold,
                        went_left,
                    });
                    node = if went_left { left } else { right };
                }
            }
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Depth of the tree (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        fn depth(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        depth(&self.root)
    }

    /// Number of features the tree was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Renders the tree as an indented `if (fK <= t)` listing, in the style
    /// of the paper's Figure 3(b), with `names[k]` naming feature `k`
    /// (falls back to `fK`).
    pub fn render(&self, names: &[String]) -> String {
        fn name(names: &[String], k: usize) -> String {
            names.get(k).cloned().unwrap_or_else(|| format!("f{k}"))
        }
        fn go(n: &Node, names: &[String], out: &mut String, indent: usize) {
            use std::fmt::Write;
            let pad = "  ".repeat(indent);
            match n {
                Node::Leaf { label, .. } => {
                    let _ = writeln!(out, "{pad}predict {label};");
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let _ = writeln!(out, "{pad}if( {} <= {} )", name(names, *feature), threshold);
                    go(left, names, out, indent + 1);
                    let _ = writeln!(out, "{pad}else");
                    go(right, names, out, indent + 1);
                }
            }
        }
        let mut out = String::new();
        go(&self.root, names, &mut out, 0);
        out
    }
}

impl fmt::Display for DecisionTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(&[]))
    }
}

/// Largest node size whose entropy terms are tabled. The table for sizes up
/// to `t` holds about `t² / 2` terms: 4.2 MB per thread at this cap, 2.5 MB
/// for the search's fitness trees (≈790 examples). Larger nodes compute the
/// same expression directly.
const MEMO_MAX_TOTAL: usize = 1024;

thread_local! {
    /// Entropy terms shared by every tree trained on this thread.
    static ENTROPY_MEMO: RefCell<EntropyMemo> = const { RefCell::new(EntropyMemo::new()) };
}

/// The entropy term `-p * log2(p)` for `p = c / t`, tabled per `(c, t)`.
///
/// Row `t` holds the terms for `c = 0..=t` and starts at `(t - 1)(t + 2) / 2`;
/// entry `c = 0` is `0.0`, standing for the empty class the untabled sum
/// skips. Rows are built on first use, in order, and never change
/// afterwards. A tabled term is the bits the expression evaluates to.
struct EntropyMemo {
    terms: Vec<f64>,
    /// Rows `1..=rows` are built.
    rows: usize,
}

impl EntropyMemo {
    const fn new() -> EntropyMemo {
        EntropyMemo {
            terms: Vec::new(),
            rows: 0,
        }
    }

    /// Builds the rows up to node size `total` (at most [`MEMO_MAX_TOTAL`]).
    fn ensure(&mut self, total: usize) {
        let total = total.min(MEMO_MAX_TOTAL);
        if total <= self.rows {
            return;
        }
        self.terms
            .reserve((total - 1) * (total + 2) / 2 + total + 1 - self.terms.len());
        for t in self.rows + 1..=total {
            let total_f = t as f64;
            self.terms.push(0.0);
            self.terms.extend((1..=t).map(|c| {
                let p = c as f64 / total_f;
                -p * p.log2()
            }));
        }
        self.rows = total;
    }

    /// Entropy (bits) of a class histogram over `total` examples: the terms
    /// of the non-empty classes summed in class order.
    ///
    /// Tabled rows add `0.0` for an empty class instead of branching
    /// around it. That changes no partial sum except a zero's sign (a pure
    /// histogram's entropy may come out `0.0` where the untabled sum gives
    /// `-0.0`), and the sign of a zero entropy cannot reach a split's gain;
    /// see DESIGN.md §19.
    fn entropy(&self, counts: impl Iterator<Item = usize>, total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        if total <= self.rows {
            let start = (total - 1) * (total + 2) / 2;
            let row = &self.terms[start..=start + total];
            counts.map(|c| row[c]).sum()
        } else {
            let total_f = total as f64;
            counts
                .filter(|&c| c > 0)
                .map(|c| {
                    let p = c as f64 / total_f;
                    -p * p.log2()
                })
                .sum()
        }
    }
}

/// A leaf predicting the majority class of `dist` (ties to the lower class).
fn leaf(dist: Vec<usize>) -> Node {
    let n: usize = dist.iter().sum();
    let (label, &n_max) = dist
        .iter()
        .enumerate()
        .max_by_key(|(i, &c)| (c, usize::MAX - i))
        .unwrap_or((0, &0));
    Node::Leaf {
        label,
        n,
        errors: n - n_max,
        dist,
    }
}

struct SplitChoice {
    feature: usize,
    threshold: f64,
    gain: f64,
    gain_ratio: f64,
}

/// One trained example in a feature's sorted block.
#[derive(Clone, Copy, Default)]
struct Entry {
    /// The example's value of the block's feature.
    value: f64,
    /// The example's index in the dataset.
    row: u32,
    label: u32,
}

/// Column-major tree grower for one `train_on` call.
///
/// The trained examples of feature `f` occupy block `[f * m, (f + 1) * m)`
/// of `entries`, sorted by value. A node is a range `[lo, hi)` that holds
/// the same examples in every block; splitting a node stably partitions
/// each block's range into `[lo, mid)` and `[mid, hi)`, so both children
/// stay sorted. Every buffer is sized once here: growing a node allocates
/// nothing but its output.
struct Grower<'a> {
    config: &'a TreeConfig,
    memo: &'a EntropyMemo,
    /// Examples per block.
    m: usize,
    entries: Vec<Entry>,
    /// First membership in the trained subset, then, per split, whether an
    /// example goes left; indexed by example.
    mask: Vec<bool>,
    /// The right-going part of the range being partitioned.
    spill: Vec<Entry>,
    /// The node's class histogram.
    total: Vec<usize>,
    /// The classes present at the node being split, ascending.
    present: Vec<usize>,
    /// Class histogram left of the threshold being scanned.
    left: Vec<usize>,
    /// Each feature's best split at the node being split.
    candidates: Vec<SplitChoice>,
}

impl<'a> Grower<'a> {
    /// Restricts `presorted` to `indices` (which must hold no duplicates),
    /// copying the values and labels into the blocks.
    fn new(
        data: &Dataset,
        presorted: &Presorted,
        indices: &[usize],
        config: &'a TreeConfig,
        memo: &'a EntropyMemo,
    ) -> Grower<'a> {
        let m = indices.len();
        let n_features = presorted.n_features();
        let mut mask = vec![false; data.len()];
        for &i in indices {
            mask[i] = true;
        }
        let mut entries = Vec::with_capacity(n_features * m);
        for column in &presorted.columns {
            for (&row, &value) in column.order.iter().zip(&column.values) {
                if mask[row as usize] {
                    let label = data.label(row as usize) as u32;
                    entries.push(Entry { value, row, label });
                }
            }
        }
        Grower {
            config,
            memo,
            m,
            entries,
            mask,
            spill: vec![Entry::default(); m],
            total: vec![0; data.n_classes()],
            present: Vec::with_capacity(data.n_classes()),
            left: vec![0; data.n_classes()],
            candidates: Vec::with_capacity(n_features),
        }
    }

    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        let n = hi - lo;
        self.total.fill(0);
        for e in &self.entries[lo..hi] {
            self.total[e.label as usize] += 1;
        }
        let pure = self.total.contains(&n);
        if n == 0 || n < self.config.min_split || depth >= self.config.max_depth || pure {
            return leaf(self.total.clone());
        }
        let Some((feature, threshold)) = self.best_split(lo, hi) else {
            return leaf(self.total.clone());
        };

        let block = feature * self.m;
        let mut n_left = 0;
        for e in &self.entries[block + lo..block + hi] {
            let goes_left = e.value <= threshold;
            self.mask[e.row as usize] = goes_left;
            n_left += usize::from(goes_left);
        }
        if n_left == 0 || n_left == n {
            return leaf(self.total.clone());
        }
        for block in (0..self.entries.len()).step_by(self.m) {
            self.partition(block + lo, block + hi);
        }
        let mid = lo + n_left;
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.grow(lo, mid, depth + 1)),
            right: Box::new(self.grow(mid, hi, depth + 1)),
        }
    }

    /// Stable partition of `[start, end)` by `mask`: left-goers move to the
    /// front in place, right-goers go through the spill buffer. Branch-free:
    /// every entry is written to both places and only the matching cursor
    /// advances. Writing at `write <= k` is safe because that slot has been
    /// read already, and a stale write there is overwritten later.
    fn partition(&mut self, start: usize, end: usize) {
        let mut write = start;
        let mut spill = 0;
        for k in start..end {
            let entry = self.entries[k];
            let goes_left = self.mask[entry.row as usize];
            self.entries[write] = entry;
            self.spill[spill] = entry;
            write += usize::from(goes_left);
            spill += usize::from(!goes_left);
        }
        self.entries[write..end].copy_from_slice(&self.spill[..spill]);
    }

    /// Finds the best (feature, threshold) by gain ratio among splits with
    /// at least average positive gain. `self.total` must hold the node's
    /// class histogram.
    fn best_split(&mut self, lo: usize, hi: usize) -> Option<(usize, f64)> {
        let n = hi - lo;
        let Grower {
            memo,
            m,
            entries,
            total,
            present,
            left,
            candidates,
            ..
        } = self;
        let base_entropy = memo.entropy(total.iter().copied(), n);
        // A class absent from the node has empty counts on both sides of
        // every threshold, and the entropy sums skip empty counts anyway:
        // summing over the present classes adds the same terms in the same
        // order.
        present.clear();
        present.extend((0..total.len()).filter(|&c| total[c] > 0));

        candidates.clear();
        for feature in 0..entries.len() / *m {
            let block = feature * *m;
            let node = &entries[block + lo..block + hi];
            // Sorted by value: equal ends mean no two adjacent values
            // differ, so the feature offers no threshold here.
            if node[0].value == node[n - 1].value {
                continue;
            }
            left.fill(0);
            let mut best_for_feature: Option<SplitChoice> = None;
            for (k, pair) in node.windows(2).enumerate() {
                let (this, next) = (pair[0].value, pair[1].value);
                left[pair[0].label as usize] += 1;
                // Candidate threshold only between distinct values.
                if this == next {
                    continue;
                }
                let threshold = (this + next) / 2.0;
                // NaN rejection: a NaN or infinite feature value produces a
                // non-finite threshold (NaN ≠ NaN, so the distinct-values
                // guard above does not catch it); such a split can never be
                // applied meaningfully at prediction time.
                if !threshold.is_finite() {
                    continue;
                }
                let n_left = k + 1;
                let n_right = n - n_left;
                let left_counts = present.iter().map(|&c| left[c]);
                let right_counts = present.iter().map(|&c| total[c] - left[c]);
                let split_entropy = (n_left as f64 / n as f64) * memo.entropy(left_counts, n_left)
                    + (n_right as f64 / n as f64) * memo.entropy(right_counts, n_right);
                let gain = base_entropy - split_entropy;
                if gain <= 1e-12 {
                    continue;
                }
                let p_left = n_left as f64 / n as f64;
                let split_info = -(p_left * p_left.log2() + (1.0 - p_left) * (1.0 - p_left).log2());
                let gain_ratio = gain / split_info.max(1e-12);
                if !gain_ratio.is_finite() {
                    continue;
                }
                if best_for_feature
                    .as_ref()
                    .is_none_or(|b| gain_ratio > b.gain_ratio)
                {
                    best_for_feature = Some(SplitChoice {
                        feature,
                        threshold,
                        gain,
                        gain_ratio,
                    });
                }
            }
            if let Some(c) = best_for_feature {
                candidates.push(c);
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let avg_gain: f64 =
            candidates.iter().map(|c| c.gain).sum::<f64>() / candidates.len() as f64;
        candidates
            .iter()
            // C4.5: restrict gain-ratio selection to at-least-average gain.
            .filter(|c| c.gain >= avg_gain - 1e-12)
            // Total order: candidates all carry finite gain ratios (enforced
            // at construction), and `total_cmp` keeps the selection
            // deterministic even if that invariant is ever violated.
            .max_by(|a, b| a.gain_ratio.total_cmp(&b.gain_ratio))
            .map(|c| (c.feature, c.threshold))
    }
}

/// C4.5 pessimistic error: upper confidence bound on the leaf error rate.
fn pessimistic_errors(n: usize, errors: usize, z: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let f = errors as f64 / nf;
    let z2 = z * z;
    let ucb = (f + z2 / (2.0 * nf)
        + z * (f * (1.0 - f) / nf + z2 / (4.0 * nf * nf)).sqrt())
        / (1.0 + z2 / nf);
    ucb * nf
}

/// Bottom-up subtree replacement (C4.5's pessimistic pruning): collapse a
/// split when the upper confidence bound on the error of a leaf covering
/// the same examples is no worse than the sum over its children. Returns
/// `(class_histogram, pessimistic_errors)` for the subtree.
fn prune(node: &mut Node, z: f64) -> (Vec<usize>, f64) {
    match node {
        Node::Leaf {
            n, errors, dist, ..
        } => (dist.clone(), pessimistic_errors(*n, *errors, z)),
        Node::Split { left, right, .. } => {
            let (dl, pl) = prune(left, z);
            let (dr, pr) = prune(right, z);
            let dist: Vec<usize> = dl.iter().zip(&dr).map(|(a, b)| a + b).collect();
            let n: usize = dist.iter().sum();
            let (label, &n_max) = dist
                .iter()
                .enumerate()
                .max_by_key(|(i, &c)| (c, usize::MAX - i))
                .expect("non-empty class histogram");
            let leaf_errors = n - n_max;
            let as_leaf = pessimistic_errors(n, leaf_errors, z);
            if as_leaf <= pl + pr + 0.1 {
                *node = Node::Leaf {
                    label,
                    n,
                    errors: leaf_errors,
                    dist,
                };
                let p = pessimistic_errors(n, leaf_errors, z);
                let dist = match node {
                    Node::Leaf { dist, .. } => dist.clone(),
                    _ => unreachable!(),
                };
                (dist, p)
            } else {
                (dist, pl + pr)
            }
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;

    fn xor_like() -> Dataset {
        // Two features; class = (x0 > 0.5) XOR (x1 > 0.5): needs depth 2.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let x0 = i as f64 / 8.0;
                let x1 = j as f64 / 8.0;
                xs.push(vec![x0, x1]);
                ys.push(usize::from((x0 > 0.5) != (x1 > 0.5)));
            }
        }
        Dataset::new(xs, ys, 2).unwrap()
    }

    #[test]
    fn learns_threshold_split() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..30).map(|i| usize::from(i >= 17)).collect();
        let d = Dataset::new(xs, ys, 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.predict(&[3.0]), 0);
        assert_eq!(t.predict(&[16.4]), 0);
        assert_eq!(t.predict(&[16.6]), 1);
        assert_eq!(t.predict(&[29.0]), 1);
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let d = xor_like();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        let correct = (0..d.len())
            .filter(|&i| t.predict(d.row(i)) == d.label(i))
            .count();
        assert!(
            correct as f64 / d.len() as f64 > 0.95,
            "xor accuracy {}/{}",
            correct,
            d.len()
        );
    }

    #[test]
    fn pure_dataset_yields_single_leaf() {
        let d = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![1, 1, 1], 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.predict(&[100.0]), 1);
    }

    #[test]
    fn empty_dataset_predicts_class_zero() {
        let d = Dataset::new(vec![], vec![], 4).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.predict(&[1.0, 2.0]), 0);
    }

    #[test]
    fn constant_features_yield_majority_leaf() {
        let d = Dataset::new(vec![vec![1.0]; 5], vec![0, 1, 1, 1, 0], 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.predict(&[1.0]), 1);
    }

    #[test]
    fn max_depth_is_respected() {
        let d = xor_like();
        let cfg = TreeConfig {
            max_depth: 1,
            prune: false,
            ..TreeConfig::default()
        };
        let t = DecisionTree::train(&d, &cfg);
        assert!(t.depth() <= 2, "depth {}", t.depth());
    }

    #[test]
    fn traced_prediction_matches_plain() {
        let d = xor_like();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        for i in 0..d.len() {
            let (label, path) = t.predict_traced(d.row(i));
            assert_eq!(label, t.predict(d.row(i)));
            // Path must be consistent with the row.
            for step in &path {
                assert_eq!(step.went_left, d.row(i)[step.feature] <= step.threshold);
            }
        }
    }

    #[test]
    fn pruning_shrinks_noisy_trees() {
        // Random labels: an unpruned tree overfits into many leaves; the
        // pruned tree must be no larger.
        let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![(i * 37 % 64) as f64]).collect();
        let ys: Vec<usize> = (0..64).map(|i| (i * 13 + 5) % 2).collect();
        let d = Dataset::new(xs, ys, 2).unwrap();
        let unpruned = DecisionTree::train(
            &d,
            &TreeConfig {
                prune: false,
                ..TreeConfig::default()
            },
        );
        let pruned = DecisionTree::train(&d, &TreeConfig::default());
        assert!(
            pruned.n_leaves() <= unpruned.n_leaves(),
            "pruned {} vs unpruned {}",
            pruned.n_leaves(),
            unpruned.n_leaves()
        );
    }

    #[test]
    fn render_mentions_feature_names() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let d = Dataset::new(xs, ys, 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        let rendered = t.render(&["ninsns".to_owned()]);
        assert!(rendered.contains("if( ninsns <="), "{rendered}");
    }

    #[test]
    fn train_on_subset_matches_training_on_copied_subset() {
        // The presorted fold path must produce exactly the tree that a
        // fresh `train` over a row-copied subset would (same structure,
        // thresholds and leaf statistics), including under ties.
        let xs: Vec<Vec<f64>> = (0..48)
            .map(|i| {
                vec![
                    (i * 37 % 16) as f64, // many repeated values
                    (i % 7) as f64,
                    (i * 13 % 48) as f64 / 4.0,
                ]
            })
            .collect();
        let ys: Vec<usize> = (0..48).map(|i| (i * 11 + 3) % 3).collect();
        let d = Dataset::new(xs, ys, 3).unwrap();
        let pre = Presorted::new(&d);
        for (lo, hi) in [(0, 48), (0, 31), (9, 40), (17, 23)] {
            let indices: Vec<usize> = (lo..hi).collect();
            let fast = DecisionTree::train_on(&d, &pre, &indices, &TreeConfig::default());
            let slow = DecisionTree::train(&d.subset(&indices), &TreeConfig::default());
            assert_eq!(fast, slow, "subset {lo}..{hi}");
        }
    }

    #[test]
    fn multiclass_prediction() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let d = Dataset::new(xs, ys, 3).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.predict(&[5.0]), 0);
        assert_eq!(t.predict(&[15.0]), 1);
        assert_eq!(t.predict(&[25.0]), 2);
    }

    /// Regression test for the `partial_cmp(..).unwrap_or(Equal)`
    /// comparators: a NaN attribute value used to make presorting (and so
    /// the learned tree) order-dependent, and could smuggle a NaN threshold
    /// into the tree. Training must be deterministic, ignore the poisoned
    /// feature, and still learn from the clean one.
    #[test]
    fn nan_features_are_rejected_deterministically() {
        // Feature 0 is poisoned with NaNs placed to sit between distinct
        // values; feature 1 cleanly separates the classes.
        let xs: Vec<Vec<f64>> = (0..24)
            .map(|i| {
                let poisoned = if i % 3 == 0 { f64::NAN } else { (i % 5) as f64 };
                vec![poisoned, i as f64]
            })
            .collect();
        let ys: Vec<usize> = (0..24).map(|i| usize::from(i >= 12)).collect();
        let d = Dataset::new(xs, ys, 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        // The clean feature still drives prediction.
        assert_eq!(t.predict(&[f64::NAN, 2.0]), 0);
        assert_eq!(t.predict(&[f64::NAN, 20.0]), 1);
        // Determinism: retraining and training through the presorted path
        // give the identical tree.
        assert_eq!(t, DecisionTree::train(&d, &TreeConfig::default()));
        let pre = Presorted::new(&d);
        let indices: Vec<usize> = (0..24).collect();
        assert_eq!(
            t,
            DecisionTree::train_on(&d, &pre, &indices, &TreeConfig::default())
        );
        // No split may carry a non-finite threshold.
        fn thresholds_finite(node: &Node) -> bool {
            match node {
                Node::Leaf { .. } => true,
                Node::Split {
                    threshold,
                    left,
                    right,
                    ..
                } => threshold.is_finite() && thresholds_finite(left) && thresholds_finite(right),
            }
        }
        assert!(thresholds_finite(&t.root));
    }

    /// An all-NaN feature matrix offers no usable split: training must not
    /// panic and must fall back to the majority leaf.
    #[test]
    fn all_nan_features_fall_back_to_majority() {
        let xs: Vec<Vec<f64>> = (0..9).map(|_| vec![f64::NAN, f64::NAN]).collect();
        let ys: Vec<usize> = (0..9).map(|i| usize::from(i < 3)).collect();
        let d = Dataset::new(xs, ys, 2).unwrap();
        let t = DecisionTree::train(&d, &TreeConfig::default());
        assert_eq!(t.predict(&[f64::NAN, f64::NAN]), 0);
        assert_eq!(t.predict(&[1.0, 1.0]), 0);
    }
}
