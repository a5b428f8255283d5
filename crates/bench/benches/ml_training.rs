//! Micro-benchmark: learner training and prediction costs. The decision
//! tree is trained inside every GP fitness evaluation, so its training
//! time bounds the whole search throughput (the paper chose C4.5 "for its
//! speed" for exactly this reason).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use fegen_ml::data::Dataset;
use fegen_ml::svm::{Svm, SvmConfig};
use fegen_ml::tree::{DecisionTree, Presorted, TreeConfig};

/// Synthetic but structured dataset: labels depend on thresholds of a few
/// features plus noise, similar in shape to the unroll-factor task.
fn dataset(n: usize, d: usize, classes: usize) -> Dataset {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    let mut state = 0x12345678u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| (next() % 1000) as f64 / 10.0).collect();
        let label = ((row[0] / 25.0) as usize + (row[1] > 50.0) as usize) % classes;
        xs.push(row);
        ys.push(label);
    }
    Dataset::new(xs, ys, classes).expect("rectangular")
}

fn bench_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree");
    for n in [200usize, 800] {
        let data = dataset(n, 8, 16);
        group.bench_function(format!("train_n{n}"), |b| {
            b.iter(|| DecisionTree::train(black_box(&data), &TreeConfig::default()))
        });
    }
    let data = dataset(800, 8, 16);
    let tree = DecisionTree::train(&data, &TreeConfig::default());
    group.bench_function("predict_800", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..data.len() {
                acc += tree.predict(black_box(data.row(i)));
            }
            acc
        })
    });
    group.finish();
}

/// The search's fitness shape: 887 loops (≈790 training rows per internal
/// split) with `width` tie-heavy feature columns — trip counts and small
/// node counts repeat across loops — and 16 unroll-factor classes, skewed
/// towards the low factors.
fn fitness_dataset(width: usize) -> Dataset {
    let n = 887;
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let distinct = [24u64, 7, 60, 12];
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = distinct[..width]
            .iter()
            .map(|&d| ((next() % d) * (next() % 3 + 1)) as f64)
            .collect();
        let signal = row[0] as u64 / 6 + row.get(1).map_or(0, |&v| v as u64 % 3);
        let noise = next() % 16;
        let label = if next() % 4 == 0 {
            noise
        } else {
            signal % 6 + noise / 8
        };
        xs.push(row);
        ys.push(label as usize % 16);
    }
    Dataset::new(xs, ys, 16).expect("rectangular")
}

/// One fitness evaluation's training: three internal splits (each holding
/// out a different ninth) trained through `train_on` over one shared
/// `Presorted`, at base widths 1–4. `presort_w*` times the per-candidate
/// presort of the whole dataset.
fn bench_fitness_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("fitness");
    for width in [1usize, 2, 4] {
        let data = fitness_dataset(width);
        let presorted = Presorted::new(&data);
        let splits: Vec<Vec<usize>> = (0..3)
            .map(|k| (0..data.len()).filter(|i| i % 9 != k).collect())
            .collect();
        let config = TreeConfig::default();
        group.bench_function(format!("train_on_3_splits_w{width}"), |b| {
            b.iter(|| {
                splits
                    .iter()
                    .map(|idx| {
                        DecisionTree::train_on(black_box(&data), &presorted, idx, &config)
                            .n_leaves()
                    })
                    .sum::<usize>()
            })
        });
        group.bench_function(format!("presort_w{width}"), |b| {
            b.iter(|| Presorted::new(black_box(&data)))
        });
    }
    group.finish();
}

fn bench_svm(c: &mut Criterion) {
    let mut group = c.benchmark_group("svm");
    group.sample_size(10);
    let data = dataset(150, 8, 4);
    let stats = data.feature_stats();
    let std = data.standardized(&stats);
    group.bench_function("train_150x8_4class", |b| {
        b.iter_batched(
            || std.clone(),
            |d| Svm::train(&d, &SvmConfig::default()),
            BatchSize::SmallInput,
        )
    });
    let svm = Svm::train(&std, &SvmConfig::default());
    group.bench_function("predict_150", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..std.len() {
                acc += svm.predict(black_box(std.row(i)));
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tree, bench_fitness_shape, bench_svm);
criterion_main!(benches);
