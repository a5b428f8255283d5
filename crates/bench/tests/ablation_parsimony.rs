//! Ablation: parsimony pressure on vs off.
//!
//! The paper (§III): "Genetic programming can quickly generate very long
//! feature expressions. If two features have the same quality we prefer the
//! shorter one. This selection pressure prevents expressions becoming
//! needlessly long." This test runs the same GP search with the pressure
//! enabled and disabled over twenty seeds, on a fitness whose plateaus leave
//! parsimony (not quality) to decide, and prints the best-expression sizes
//! (`--nocapture`); EXPERIMENTS.md records them.

use fegen_core::gp::{GpConfig, GpEngine};
use fegen_core::ir::IrNode;
use fegen_core::lang::FeatureExpr;
use fegen_core::Grammar;
use fegen_rtl::export::export_loop;
use fegen_rtl::lower::lower_program;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: std::ops::Range<u64> = 0..20;

fn grammar_and_ir() -> (Grammar, Vec<IrNode>) {
    let suite = fegen_suite::generate_suite(&fegen_suite::SuiteConfig::tiny());
    let mut irs = Vec::new();
    for b in &suite {
        let rtl = lower_program(&b.program).expect("suite lowers");
        for f in &rtl.functions {
            for region in &f.loops {
                irs.push(export_loop(f, region, &rtl.layout));
            }
        }
    }
    (Grammar::derive(irs.iter()), irs)
}

/// A deliberately plateau-heavy fitness: many expressions achieve the same
/// quality, so parsimony (not quality) decides — the regime where bloat
/// happens.
fn fitness(irs: &[IrNode]) -> impl Fn(&FeatureExpr) -> Option<f64> + Sync + '_ {
    move |e: &FeatureExpr| {
        let v = e.eval_with_budget(&irs[0], 50_000).ok()?;
        // Bucketised objective: a plateau of equal-quality solutions.
        Some(-((v - 10.0).abs() / 5.0).floor())
    }
}

/// The best expression's size for every seed of [`SEEDS`].
fn best_sizes(grammar: &Grammar, irs: &[IrNode], parsimony: bool) -> Vec<usize> {
    let cfg = GpConfig {
        parsimony,
        max_generations: 30,
        stagnation_limit: 30,
        ..GpConfig::quick()
    };
    SEEDS
        .map(|seed| {
            let engine = GpEngine::new(grammar, cfg.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            let best = engine.run(&fitness(irs), &mut rng).best;
            best.expect("the plateau fitness always has a valid individual")
                .size
        })
        .collect()
}

fn mean(sizes: &[usize]) -> f64 {
    sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
}

#[test]
fn parsimony_never_grows_the_best_expression_and_shrinks_some() {
    let (grammar, irs) = grammar_and_ir();
    let on = best_sizes(&grammar, &irs, true);
    let off = best_sizes(&grammar, &irs, false);
    println!("parsimony on:  sizes {on:?} (mean {:.1})", mean(&on));
    println!("parsimony off: sizes {off:?} (mean {:.1})", mean(&off));
    for ((seed, a), b) in SEEDS.zip(&on).zip(&off) {
        assert!(a <= b, "seed {seed}: size {a} with parsimony, {b} without");
    }
    assert!(
        on.iter().zip(&off).any(|(a, b)| a < b),
        "parsimony shrank no seed's best expression: {on:?} vs {off:?}"
    );
}
