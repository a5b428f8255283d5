//! The recursive, row-major C4.5 trainer that preceded the column-major
//! grower in the parent module, kept verbatim as a reference oracle: the
//! differential tests below demand that both produce `==` trees.
//!
//! Compiled only for tests. Nothing outside them may call it.

use super::{prune, DecisionTree, Node, TreeConfig};
use crate::data::Dataset;

/// Per-feature example orderings, sorted with a stable comparison sort on
/// `f64::total_cmp` (ties keep example order).
pub(super) fn presort(data: &Dataset) -> Vec<Vec<u32>> {
    let n = data.len();
    (0..data.n_features())
        .map(|f| {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by(|&a, &b| data.row(a as usize)[f].total_cmp(&data.row(b as usize)[f]));
            order
        })
        .collect()
}

/// The orderings restricted to the examples in `indices` (order within
/// each feature is preserved, so the result stays sorted by value).
fn restrict(by_feature: &[Vec<u32>], n: usize, indices: &[usize]) -> Vec<Vec<u32>> {
    let mut member = vec![false; n];
    for &i in indices {
        member[i] = true;
    }
    by_feature
        .iter()
        .map(|order| {
            order
                .iter()
                .copied()
                .filter(|&i| member[i as usize])
                .collect()
        })
        .collect()
}

/// The reference counterpart of [`DecisionTree::train_on`].
pub(super) fn train_on(data: &Dataset, indices: &[usize], config: &TreeConfig) -> DecisionTree {
    let sorted = restrict(&presort(data), data.len(), indices);
    let mut root = grow(data, indices, &sorted, config, 0);
    if config.prune {
        prune(&mut root, config.prune_z);
    }
    DecisionTree {
        root,
        n_features: data.n_features(),
    }
}

fn entropy(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let total_f = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total_f;
            -p * p.log2()
        })
        .sum()
}

struct SplitChoice {
    feature: usize,
    threshold: f64,
    gain: f64,
    gain_ratio: f64,
}

fn grow(
    data: &Dataset,
    indices: &[usize],
    sorted: &[Vec<u32>],
    config: &TreeConfig,
    depth: usize,
) -> Node {
    let make_leaf = |indices: &[usize]| -> Node {
        let mut counts = vec![0usize; data.n_classes()];
        for &i in indices {
            counts[data.label(i)] += 1;
        }
        let (label, &n_max) = counts
            .iter()
            .enumerate()
            .max_by_key(|(i, &c)| (c, usize::MAX - i))
            .unwrap_or((0, &0));
        Node::Leaf {
            label,
            n: indices.len(),
            errors: indices.len() - n_max,
            dist: counts,
        }
    };

    if indices.len() < config.min_split || depth >= config.max_depth {
        return make_leaf(indices);
    }
    let first_label = data.label(indices[0]);
    if indices.iter().all(|&i| data.label(i) == first_label) {
        return make_leaf(indices);
    }

    let Some(best) = best_split(data, indices, sorted) else {
        return make_leaf(indices);
    };

    let goes_left = |i: usize| data.row(i)[best.feature] <= best.threshold;
    let (left, right): (Vec<usize>, Vec<usize>) = indices.iter().partition(|&&i| goes_left(i));
    if left.is_empty() || right.is_empty() {
        return make_leaf(indices);
    }
    // Order-preserving partition keeps each child's orderings sorted by
    // value without re-sorting.
    let mut left_sorted = Vec::with_capacity(sorted.len());
    let mut right_sorted = Vec::with_capacity(sorted.len());
    for order in sorted {
        let (l, r): (Vec<u32>, Vec<u32>) = order.iter().partition(|&&i| goes_left(i as usize));
        left_sorted.push(l);
        right_sorted.push(r);
    }
    Node::Split {
        feature: best.feature,
        threshold: best.threshold,
        left: Box::new(grow(data, &left, &left_sorted, config, depth + 1)),
        right: Box::new(grow(data, &right, &right_sorted, config, depth + 1)),
    }
}

/// Finds the best (feature, threshold) by gain ratio among splits with at
/// least average positive gain. `sorted[f]` must list the node's examples
/// sorted ascending by feature `f`.
fn best_split(data: &Dataset, indices: &[usize], sorted: &[Vec<u32>]) -> Option<SplitChoice> {
    let n = indices.len();
    let n_classes = data.n_classes();
    let mut total_counts = vec![0usize; n_classes];
    for &i in indices {
        total_counts[data.label(i)] += 1;
    }
    let base_entropy = entropy(&total_counts, n);

    let mut candidates: Vec<SplitChoice> = Vec::new();
    for (feature, order) in sorted.iter().enumerate() {
        let value = |k: usize| data.row(order[k] as usize)[feature];
        let mut left_counts = vec![0usize; n_classes];
        let mut best_for_feature: Option<SplitChoice> = None;
        for k in 0..n - 1 {
            left_counts[data.label(order[k] as usize)] += 1;
            // Candidate threshold only between distinct values.
            if value(k) == value(k + 1) {
                continue;
            }
            let n_left = k + 1;
            let n_right = n - n_left;
            let mut right_counts = vec![0usize; n_classes];
            for (c, (&t, &l)) in right_counts
                .iter_mut()
                .zip(total_counts.iter().zip(left_counts.iter()))
            {
                *c = t - l;
            }
            let split_entropy = (n_left as f64 / n as f64) * entropy(&left_counts, n_left)
                + (n_right as f64 / n as f64) * entropy(&right_counts, n_right);
            let gain = base_entropy - split_entropy;
            if gain <= 1e-12 {
                continue;
            }
            let p_left = n_left as f64 / n as f64;
            let split_info = -(p_left * p_left.log2() + (1.0 - p_left) * (1.0 - p_left).log2());
            let gain_ratio = gain / split_info.max(1e-12);
            let threshold = (value(k) + value(k + 1)) / 2.0;
            // NaN rejection: a NaN or infinite feature value produces a
            // non-finite threshold (NaN ≠ NaN, so the distinct-values guard
            // above does not catch it); such a split can never be applied
            // meaningfully at prediction time, so it is not a candidate.
            if !threshold.is_finite() || !gain_ratio.is_finite() {
                continue;
            }
            let cand = SplitChoice {
                feature,
                threshold,
                gain,
                gain_ratio,
            };
            if best_for_feature
                .as_ref()
                .is_none_or(|b| cand.gain_ratio > b.gain_ratio)
            {
                best_for_feature = Some(cand);
            }
        }
        if let Some(c) = best_for_feature {
            candidates.push(c);
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let avg_gain: f64 = candidates.iter().map(|c| c.gain).sum::<f64>() / candidates.len() as f64;
    candidates
        .into_iter()
        // C4.5: restrict gain-ratio selection to at-least-average gain.
        .filter(|c| c.gain >= avg_gain - 1e-12)
        // Total order: candidates all carry finite gain ratios (enforced at
        // construction), and `total_cmp` keeps the selection deterministic
        // even if that invariant is ever violated.
        .max_by(|a, b| a.gain_ratio.total_cmp(&b.gain_ratio))
}

/// Differential tests: the column-major grower against this oracle.
mod differential {
    use super::super::{DecisionTree, EntropyMemo, Presorted, TreeConfig, MEMO_MAX_TOTAL};
    use crate::data::Dataset;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Values that stress the split rules: signed zeros and NaNs, infinities,
    /// extremes whose midpoints overflow, and adjacent floats whose midpoint
    /// rounds onto one of them.
    const SPECIALS: [f64; 12] = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MAX,
        -f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
        1.0,
        1.000_000_000_000_000_2,
    ];

    /// A dataset of `n` rows whose columns mix tie-heavy small integers,
    /// the special values above and continuous draws, with labels from a
    /// random subset of `n_classes` that partly follow feature 0.
    fn dataset(rng: &mut StdRng, n: usize, n_features: usize, n_classes: usize) -> Dataset {
        let used: Vec<usize> = (0..rng.gen_range(1..=n_classes))
            .map(|_| rng.gen_range(0..n_classes))
            .collect();
        let styles: Vec<(u32, u32)> = (0..n_features)
            .map(|_| (rng.gen_range(0u32..4), rng.gen_range(1u32..12)))
            .collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                styles
                    .iter()
                    .map(|&(style, distinct)| match style {
                        0 => f64::from(rng.gen_range(0..distinct)),
                        1 => SPECIALS[rng.gen_range(0..SPECIALS.len())],
                        2 if rng.gen_bool(0.2) => SPECIALS[rng.gen_range(0..SPECIALS.len())],
                        _ => f64::from(rng.gen_range(0..distinct)) * rng.gen_range(-1.0..1.0),
                    })
                    .collect()
            })
            .collect();
        let labels = rows
            .iter()
            .map(|row| {
                let follow = rng.gen_bool(0.7) && row.first().is_some_and(|v| v.is_finite());
                let slot = if follow {
                    row[0].abs() as usize
                } else {
                    rng.gen_range(0..used.len())
                };
                used[slot % used.len()]
            })
            .collect();
        Dataset::new(rows, labels, n_classes).expect("rectangular, labels in range")
    }

    fn config(rng: &mut StdRng) -> TreeConfig {
        TreeConfig {
            max_depth: rng.gen_range(0..14),
            min_split: rng.gen_range(1..8),
            prune: rng.gen_bool(0.5),
            prune_z: [0.6925, 0.0, 1.5][rng.gen_range(0usize..3)],
        }
    }

    /// `==` on the trees, and the same `Debug` text, which also tells
    /// `0.0` from `-0.0`.
    fn assert_same(data: &Dataset, presorted: &Presorted, indices: &[usize], cfg: &TreeConfig) {
        let fast = DecisionTree::train_on(data, presorted, indices, cfg);
        let slow = super::train_on(data, indices, cfg);
        assert_eq!(fast, slow, "indices {indices:?}, config {cfg:?}");
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    }

    fn assert_presorted_matches(data: &Dataset, presorted: &Presorted) {
        let orders = super::presort(data);
        assert_eq!(presorted.columns.len(), orders.len());
        for (f, (column, order)) in presorted.columns.iter().zip(&orders).enumerate() {
            assert_eq!(&column.order, order, "feature {f}");
            for (&i, &v) in column.order.iter().zip(&column.values) {
                assert_eq!(v.to_bits(), data.row(i as usize)[f].to_bits());
            }
        }
    }

    // Release builds run the full case count (CI runs this crate's tests
    // in release); debug builds a smoke-sized share of it.
    const CASES: u32 = if cfg!(debug_assertions) { 48 } else { 768 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn grower_matches_reference_on_random_subsets(
            seed in 0u64..u64::MAX,
            n in prop_oneof![3 => 0usize..40, 2 => 40usize..160],
            n_features in 1usize..5,
            n_classes in 1usize..17,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = dataset(&mut rng, n, n_features, n_classes);
            let presorted = Presorted::new(&data);
            assert_presorted_matches(&data, &presorted);
            let cfg = config(&mut rng);
            let all: Vec<usize> = (0..n).collect();
            assert_same(&data, &presorted, &all, &cfg);
            // Fold-style subsets sharing the one `Presorted`, in shuffled
            // order (train_on must not depend on the order of `indices`).
            for _ in 0..3 {
                let keep = rng.gen_range(0.0..1.0);
                let mut subset: Vec<usize> = (0..n).filter(|_| rng.gen_bool(keep)).collect();
                rand::seq::SliceRandom::shuffle(subset.as_mut_slice(), &mut rng);
                assert_same(&data, &presorted, &subset, &cfg);
            }
        }

        #[test]
        fn push_column_matches_new(
            seed in 0u64..u64::MAX,
            n in 1usize..64,
            n_features in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data = dataset(&mut rng, n, n_features, 3);
            let mut pushed = Presorted::default();
            for f in 0..n_features {
                let column: Vec<f64> = (0..n).map(|i| data.row(i)[f]).collect();
                pushed.push_column(&column);
            }
            assert_presorted_matches(&data, &pushed);
        }
    }

    #[test]
    fn empty_indices_give_the_reference_leaf() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = dataset(&mut rng, 30, 3, 5);
        let presorted = Presorted::new(&data);
        for cfg in [
            TreeConfig::default(),
            TreeConfig {
                min_split: 1,
                prune: false,
                ..TreeConfig::default()
            },
        ] {
            assert_same(&data, &presorted, &[], &cfg);
        }
        let empty = Dataset::new(vec![], vec![], 4).unwrap();
        assert_same(&empty, &Presorted::new(&empty), &[], &TreeConfig::default());
    }

    #[test]
    fn zero_feature_dataset_gives_the_reference_leaf() {
        let labels = vec![2, 0, 2, 1, 2, 0, 0, 2];
        let data = Dataset::new(vec![vec![]; labels.len()], labels, 3).unwrap();
        let presorted = Presorted::new(&data);
        assert_eq!(presorted.n_features(), 0);
        let all: Vec<usize> = (0..data.len()).collect();
        assert_same(&data, &presorted, &all, &TreeConfig::default());
        assert_same(&data, &presorted, &[1, 3, 5], &TreeConfig::default());
        assert_eq!(
            DecisionTree::train(&data, &TreeConfig::default()).predict(&[]),
            2
        );
    }

    #[test]
    fn shallow_depths_match_the_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = dataset(&mut rng, 120, 4, 16);
        let presorted = Presorted::new(&data);
        let all: Vec<usize> = (0..data.len()).collect();
        for max_depth in [0, 1, 2] {
            for prune in [false, true] {
                let cfg = TreeConfig {
                    max_depth,
                    prune,
                    ..TreeConfig::default()
                };
                assert_same(&data, &presorted, &all, &cfg);
            }
        }
    }

    /// Every tabled term is the bits of the untabled expression, and a
    /// tabled entropy differs from the skipping sum at most in a zero's sign.
    #[test]
    fn entropy_table_holds_the_expression() {
        let mut memo = EntropyMemo::new();
        memo.ensure(300);
        memo.ensure(200); // never shrinks
        memo.ensure(400);
        assert_eq!(memo.rows, 400);
        for t in 1..=400usize {
            let start = (t - 1) * (t + 2) / 2;
            assert_eq!(memo.terms[start].to_bits(), 0.0f64.to_bits());
            for c in 1..=t {
                let p = c as f64 / t as f64;
                assert_eq!(memo.terms[start + c].to_bits(), (-p * p.log2()).to_bits());
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let counts: Vec<usize> = (0..rng.gen_range(1usize..17))
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        0
                    } else {
                        rng.gen_range(1..40)
                    }
                })
                .collect();
            let total: usize = counts.iter().sum();
            let tabled = memo.entropy(counts.iter().copied(), total);
            let skipping = super::entropy(&counts, total);
            assert!(tabled == skipping, "{counts:?}: {tabled} vs {skipping}");
        }
    }

    /// Nodes larger than the entropy table compute the terms directly; the
    /// root of this tree is one.
    #[test]
    fn nodes_beyond_the_entropy_table_match_the_reference() {
        let n = MEMO_MAX_TOTAL + 300;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i * 37 % 97) as f64, (i % 13) as f64])
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 37 % 97) / 7 % 16).collect();
        let data = Dataset::new(rows, labels, 16).unwrap();
        let presorted = Presorted::new(&data);
        let all: Vec<usize> = (0..n).collect();
        assert_same(&data, &presorted, &all, &TreeConfig::default());
    }
}
