//! Micro-benchmark: the compiled feature-evaluation engine against the
//! tree-walking interpreter, on the exact workload the GP search runs —
//! one feature evaluated over every training loop — plus decision-tree
//! training, the other half of a fitness evaluation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fegen_core::ir::{IrArena, IrNode};
use fegen_core::lang::parse_feature;
use fegen_core::{EvalEngine, EvalPool, Program};
use fegen_ml::data::Dataset;
use fegen_ml::tree::{DecisionTree, Presorted, TreeConfig};
use fegen_rtl::export::export_loop;
use fegen_rtl::lower::lower_program;

const BUDGET: u64 = 200_000;

fn exported_loops() -> Vec<IrNode> {
    let suite = fegen_suite::generate_suite(&fegen_suite::SuiteConfig::tiny());
    let mut out = Vec::new();
    for b in &suite {
        let rtl = lower_program(&b.program).expect("suite lowers");
        for f in &rtl.functions {
            for region in &f.loops {
                out.push(export_loop(f, region, &rtl.layout));
            }
        }
    }
    out
}

fn feature_set() -> Vec<(&'static str, &'static str)> {
    vec![
        ("count_desc", "count(//*)"),
        ("count_filter_type", "count(filter(//*, is-type(reg)))"),
        (
            "negated_filter",
            "count(filter(//*, !(is-type(wide-int) || is-type(const_double))))",
        ),
        (
            "nested_aggregate",
            "max(filter(/*, is-type(basic-block)), count(filter(//*, is-type(insn))))",
        ),
        (
            "arith_over_aggregates",
            "count(filter(//*, is-type(insn))) / (1 + count(filter(//*, is-type(basic-block))))",
        ),
    ]
}

/// Interpreter vs compiled VM on the same features over the same loops.
/// The VM side measures pure execution: programs are compiled and loops
/// flattened outside the timed region, exactly as the search amortises
/// them (one compile per candidate, one flatten per loop).
fn bench_engines(c: &mut Criterion) {
    let loops = exported_loops();
    let arenas: Vec<IrArena> = loops.iter().map(IrArena::from_tree).collect();
    let mut group = c.benchmark_group("eval");
    for (name, src) in feature_set() {
        let f = parse_feature(src).expect("valid feature");
        let program = Program::compile(&f);
        group.bench_function(format!("interp/{name}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for ir in &loops {
                    acc += f.eval_with_budget(black_box(ir), BUDGET).unwrap_or(0.0);
                }
                acc
            })
        });
        group.bench_function(format!("vm/{name}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for arena in &arenas {
                    acc += program.eval(black_box(arena), BUDGET).unwrap_or(0.0);
                }
                acc
            })
        });
    }
    // The pool as the search uses it: loops are flattened and programs
    // compiled once, so a steady-state column is one plan walk per loop.
    let pool = EvalPool::new(loops.iter(), EvalEngine::Compiled);
    let features: Vec<_> = feature_set()
        .iter()
        .map(|(_, src)| parse_feature(src).expect("valid feature"))
        .collect();
    group.bench_function("pool_warm/all_features", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for f in &features {
                for v in pool.column(black_box(f), BUDGET).unwrap_or_default() {
                    acc += v;
                }
            }
            acc
        })
    });
    group.finish();
}

/// One bench per plan shape, both engines: leaf sums over postings and the
/// inner-edge closed form, nested children-base aggregates gathered as
/// columns, and predicate covers take their own forms; leaf-comparison
/// and child-probe counts time the general element loop and the
/// predicate scan. A regression in any one of them is visible in
/// isolation.
fn shape_set() -> Vec<(&'static str, &'static str)> {
    vec![
        ("leaf_sum_attr", "sum(//*, get-attr(@n-insns))"),
        ("leaf_sum_childcount", "sum(//*, count(/*))"),
        ("count_leaf_compare", "count(filter(//*, 2 < count(/*)))"),
        (
            "count_child_probe",
            "count(filter(//*, /[1][is-type(insn)]))",
        ),
        (
            "nested_columnar",
            "min(//*, sum(/*, avg(/*, count(/*)) + sum(/*, get-attr(@n-insns))))",
        ),
        (
            "cover_filtered_min",
            "min(filter(filter(//*, is-type(mem)), is-type(reg) || has-attr(@n-insns)), count(/*))",
        ),
    ]
}

/// Per-shape engine comparison over the deep/nested aggregate forms the
/// generated-feature mix is dominated by.
fn bench_shapes(c: &mut Criterion) {
    let loops = exported_loops();
    let arenas: Vec<IrArena> = loops.iter().map(IrArena::from_tree).collect();
    let mut group = c.benchmark_group("eval_shapes");
    for (name, src) in shape_set() {
        let f = parse_feature(src).expect("valid feature");
        let program = Program::compile(&f);
        group.bench_function(format!("interp/{name}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for ir in &loops {
                    acc += f.eval_with_budget(black_box(ir), BUDGET).unwrap_or(0.0);
                }
                acc
            })
        });
        group.bench_function(format!("vm/{name}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for arena in &arenas {
                    acc += program.eval(black_box(arena), BUDGET).unwrap_or(0.0);
                }
                acc
            })
        });
    }
    group.finish();
}

/// Decision-tree training: one-shot training (presort amortised inside)
/// and fold-style training where one `Presorted` serves many subsets — the
/// shape of the search's internal cross-validation.
fn bench_tree_training(c: &mut Criterion) {
    let n = 120;
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..6).map(|j| ((i * (7 + j) % 31) as f64) / 3.0).collect())
        .collect();
    let ys: Vec<usize> = (0..n).map(|i| (i * 13 + 5) % 4).collect();
    let data = Dataset::new(xs, ys, 4).unwrap();
    let config = TreeConfig::default();

    c.bench_function("tree/train_full", |b| {
        b.iter(|| DecisionTree::train(black_box(&data), &config))
    });

    let presorted = Presorted::new(&data);
    let folds: Vec<Vec<usize>> = (0..3)
        .map(|k| (0..n).filter(|i| i % 3 != k).collect())
        .collect();
    c.bench_function("tree/train_folds_presorted", |b| {
        b.iter(|| {
            folds
                .iter()
                .map(|idx| {
                    DecisionTree::train_on(black_box(&data), &presorted, idx, &config).n_leaves()
                })
                .sum::<usize>()
        })
    });
    c.bench_function("tree/train_folds_subset_copy", |b| {
        b.iter(|| {
            folds
                .iter()
                .map(|idx| DecisionTree::train(&data.subset(black_box(idx)), &config).n_leaves())
                .sum::<usize>()
        })
    });
}

criterion_group!(benches, bench_engines, bench_shapes, bench_tree_training);
criterion_main!(benches);
