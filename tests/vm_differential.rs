//! Differential tests: the compiled loop-nest plan evaluator against the
//! tree-walking interpreter, which stays in the codebase as the reference
//! oracle.
//!
//! The compiled engine is only admissible because it is *extensionally
//! identical* to the interpreter — same values, same [`EvalError`]s, and
//! the same step-budget exhaustion points, feature by feature, loop by
//! loop. These tests check that equivalence on grammar-generated features
//! over both real exported loops and randomly generated IR trees, and then
//! prove the end-to-end consequence: a search run on the compiled engine —
//! including one interrupted and resumed mid-GP — reproduces the
//! interpreter run byte for byte at any island worker count.

use fegen::core::grammar::Grammar;
use fegen::core::ir::{IrArena, IrNode};
use fegen::core::lang::{parse_feature, EvalError, Evaluator, FeatureExpr, Program};
use fegen::core::search::TrainingExample;
use fegen::core::{
    CancelToken, EvalEngine, EvalPool, FaultInjector, FaultKind, FaultPlan, FaultTrigger,
    FeatureSearch, IslandTopology, SearchConfig, SearchError,
};
use fegen::rtl::export::export_loop;
use fegen::rtl::lower::lower_program;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// Real exported loops plus the grammar derived from them.
fn corpus() -> (Grammar, Vec<IrNode>) {
    let src = "\
        int a[128]; float f[128]; int idx[64]; int tab[32]; int m[8][8];\n\
        int k1(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + a[i]; } return s; }\n\
        void k2(int n) { int i; for (i = 1; i < 100; i = i + 1) { f[i] = f[i] * 0.5 + f[i - 1] * 0.25; } }\n\
        void k3() { int i; int j; for (i = 0; i < 8; i = i + 1) { for (j = 0; j < 8; j = j + 1) { m[i][j] = i * j; } } }\n\
        void k4(int n) { int i; for (i = 0; i < n; i = i + 1) { tab[a[idx[i % 64]] % 32] = i; } }\n";
    let ast = fegen::lang::parse_program(src).unwrap();
    let rtl = lower_program(&ast).unwrap();
    let mut irs = Vec::new();
    for func in &rtl.functions {
        for region in &func.loops {
            irs.push(export_loop(func, region, &rtl.layout));
        }
    }
    let grammar = Grammar::derive(irs.iter());
    (grammar, irs)
}

/// A random IR tree: node kinds, attribute shapes and fan-out all drawn
/// from the RNG, so the differential check is not limited to the shapes the
/// RTL exporter happens to produce.
fn random_ir(rng: &mut StdRng, depth: usize) -> IrNode {
    const KINDS: [&str; 5] = ["loop", "insn", "jump_insn", "mem_ref", "expr"];
    let kind = KINDS[rng.gen_range(0..KINDS.len())];
    let mut node = IrNode::new(kind);
    fill(rng, &mut node, depth);
    node
}

fn fill(rng: &mut StdRng, node: &mut IrNode, depth: usize) {
    const KINDS: [&str; 5] = ["loop", "insn", "jump_insn", "mem_ref", "expr"];
    const ENUMS: [&str; 4] = ["SI", "DF", "QI", "none"];
    for (name, p) in [("weight", 0.8), ("depth", 0.4), ("stride", 0.3)] {
        if rng.gen_bool(p) {
            node.attr_num(name, rng.gen_range(-8i32..64) as f64);
        }
    }
    if rng.gen_bool(0.6) {
        let mode = ENUMS[rng.gen_range(0..ENUMS.len())];
        node.attr_enum("mode", mode);
    }
    if rng.gen_bool(0.3) {
        let innermost = rng.gen_bool(0.5);
        node.attr_bool("innermost", innermost);
    }
    if depth > 0 {
        for _ in 0..rng.gen_range(0..4usize) {
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            node.child(kind, |c| fill(rng, c, depth - 1));
        }
    }
}

/// Evaluates `f` both ways on `ir` and asserts identical outcomes.
fn assert_agree(f: &FeatureExpr, ir: &IrNode, budget: u64) {
    let interp = f.eval_with_budget(ir, budget);
    let arena = IrArena::from_tree(ir);
    let compiled = Program::compile(f).eval(&arena, budget);
    assert_eq!(
        interp, compiled,
        "engines disagree on `{f}` (budget {budget})"
    );
}

/// Exact steps the interpreter spends on `f` over `ir` (unbounded budget).
fn interpreter_cost(f: &FeatureExpr, ir: &IrNode) -> u64 {
    let mut ev = Evaluator::new(u64::MAX / 2);
    let before = ev.remaining();
    let _ = ev.eval(f, ir);
    before - ev.remaining()
}

// Release builds run the full case count (CI runs this suite in
// release); debug builds a smoke-sized share of it.
const CASES: u32 = if cfg!(debug_assertions) { 48 } else { 768 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Equal values and equal errors on real exported loops.
    #[test]
    fn vm_matches_interpreter_on_exported_loops(seed in 0u64..10_000, depth in 2usize..7) {
        let (grammar, irs) = corpus();
        let mut rng = StdRng::seed_from_u64(seed);
        let f = grammar.gen_feature(&mut rng, depth);
        for ir in &irs {
            assert_agree(&f, ir, 500_000);
        }
    }

    /// Equal values and equal errors on randomly generated IR trees, with
    /// the grammar derived from those same trees so features reference
    /// their actual kinds and attributes.
    #[test]
    fn vm_matches_interpreter_on_random_ir(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5);
        let irs: Vec<IrNode> = (0..4).map(|_| random_ir(&mut rng, 3)).collect();
        let grammar = Grammar::derive(irs.iter());
        for _ in 0..4 {
            let f = grammar.gen_feature(&mut rng, 5);
            for ir in &irs {
                assert_agree(&f, ir, 200_000);
            }
        }
    }

    /// The engines exhaust the step budget at exactly the same point: for
    /// every generated feature, probing budgets around the interpreter's
    /// measured cost yields identical outcomes — including the flip from
    /// `BudgetExceeded` to success at precisely the same budget.
    #[test]
    fn budget_exhaustion_points_agree(seed in 0u64..10_000, depth in 2usize..6) {
        let (grammar, irs) = corpus();
        let mut rng = StdRng::seed_from_u64(seed);
        let f = grammar.gen_feature(&mut rng, depth);
        let ir = &irs[seed as usize % irs.len()];
        let spent = interpreter_cost(&f, ir);
        for budget in [0, 1, spent.saturating_sub(1), spent, spent + 1] {
            assert_agree(&f, ir, budget);
        }
    }

    /// Per-loop evaluation through pools agrees between engines, and the
    /// column-level discard rule (`None` on any failure) agrees too.
    #[test]
    fn pools_agree_between_engines(seed in 0u64..10_000) {
        let (grammar, irs) = corpus();
        let mut rng = StdRng::seed_from_u64(seed);
        let compiled = EvalPool::new(irs.iter(), EvalEngine::Compiled);
        let interp = EvalPool::new(irs.iter(), EvalEngine::Interpreter);
        for _ in 0..3 {
            let f = grammar.gen_feature(&mut rng, 5);
            for budget in [300, 60_000] {
                for i in 0..irs.len() {
                    prop_assert_eq!(
                        compiled.eval(&f, i, budget),
                        interp.eval(&f, i, budget),
                        "loop {} of `{}`", i, &f
                    );
                }
                prop_assert_eq!(compiled.column(&f, budget), interp.column(&f, budget));
            }
            // Repeating an evaluation with a warm program cache must not
            // change outcomes.
            for i in 0..irs.len() {
                prop_assert_eq!(
                    compiled.eval(&f, i, 60_000),
                    interp.eval(&f, i, 60_000)
                );
            }
        }
    }

    /// The amortized columnar sweep is extensionally identical to
    /// evaluating every cell individually: equal values when all loops
    /// succeed, and `None` exactly when any per-cell evaluation fails
    /// (budget exhaustion or a non-finite value).
    #[test]
    fn columnar_sweep_matches_per_cell_eval(seed in 0u64..10_000) {
        let (grammar, irs) = corpus();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc01);
        let pool = EvalPool::new(irs.iter(), EvalEngine::Compiled);
        for depth in [3usize, 5] {
            let f = grammar.gen_feature(&mut rng, depth);
            for budget in [300, 60_000] {
                let cells: Result<Vec<f64>, EvalError> =
                    (0..irs.len()).map(|i| pool.eval(&f, i, budget)).collect();
                prop_assert_eq!(
                    pool.column(&f, budget),
                    cells.ok(),
                    "column/per-cell divergence on `{}` (budget {})", &f, budget
                );
            }
        }
    }

    /// An installed but untriggered cancellation token leaves
    /// `column_cancellable` identical to `column`; once the token flips,
    /// the cancellable sweep bails out with `None` while the plain sweep
    /// is deliberately unaffected.
    #[test]
    fn cancellation_gates_only_the_cancellable_sweep(seed in 0u64..10_000) {
        let (grammar, irs) = corpus();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xca7);
        let mut pool = EvalPool::new(irs.iter(), EvalEngine::Compiled);
        let token = CancelToken::new();
        pool.set_cancel(token.clone());
        let f = grammar.gen_feature(&mut rng, 4);
        for budget in [300u64, 60_000] {
            prop_assert_eq!(
                pool.column_cancellable(&f, budget),
                pool.column(&f, budget),
                "uncancelled token perturbed the sweep of `{}`", &f
            );
        }
        token.cancel();
        prop_assert_eq!(pool.column_cancellable(&f, 60_000), None);
        let cells: Result<Vec<f64>, EvalError> =
            (0..irs.len()).map(|i| pool.eval(&f, i, 60_000)).collect();
        prop_assert_eq!(
            pool.column(&f, 60_000),
            cells.ok(),
            "plain column sweep must ignore cancellation (`{}`)", &f
        );
    }
}

#[test]
fn non_finite_outcomes_agree() {
    let (_, irs) = corpus();
    let overflow = parse_feature(&format!("sum(//*, {0} * {0})", f64::MAX)).unwrap();
    for ir in &irs {
        let interp = overflow.eval_with_budget(ir, 1_000_000);
        assert_eq!(interp, Err(EvalError::NonFinite));
        let arena = IrArena::from_tree(ir);
        assert_eq!(Program::compile(&overflow).eval(&arena, 1_000_000), interp);
        // And through a pool, including a repeat of the failure.
        let pool = EvalPool::new([ir], EvalEngine::Compiled);
        assert_eq!(pool.eval(&overflow, 0, 1_000_000), interp);
        assert_eq!(pool.eval(&overflow, 0, 1_000_000), interp);
    }
}

// ---------------------------------------------------------------------------
// End-to-end: the compiled engine reproduces the interpreter search exactly.
// ---------------------------------------------------------------------------

fn synthetic_examples(n: usize) -> Vec<TrainingExample> {
    (0..n)
        .map(|i| {
            let insns = 1 + i % 5;
            let best = insns % 4;
            let ir = IrNode::build("loop", |l| {
                l.attr_num("decoy", (i * 7 % 3) as f64);
                for _ in 0..insns {
                    l.child("insn", |x| {
                        x.attr_enum("mode", "SI");
                    });
                }
                l.child("jump_insn", |_| {});
            });
            let cycles = (0..4)
                .map(|k| {
                    if k == best {
                        80.0
                    } else {
                        100.0 + (k as f64 - best as f64).abs()
                    }
                })
                .collect();
            TrainingExample { ir, cycles }
        })
        .collect()
}

fn small_config() -> SearchConfig {
    let mut config = SearchConfig::quick();
    config.seed = 41;
    config.max_features = 2;
    config.max_total_generations = 24;
    config.gp.population = 14;
    config.gp.max_generations = 6;
    config.gp.stagnation_limit = 6;
    config
}

/// [`small_config`] on a two-island ring, with the outer budget doubled so
/// each island gets as many generations as the single population.
fn ring_config() -> SearchConfig {
    let mut config = small_config();
    config.max_total_generations = 48;
    config.topology = IslandTopology::ring(2);
    config
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fegen-vmdiff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The full search is byte-identical between the interpreter and the
/// compiled engine: on one population, and on a two-island ring at one
/// island worker slot and at two — the four ring runs must produce one
/// single outcome.
#[test]
fn search_outcome_is_engine_and_thread_invariant() {
    let examples = synthetic_examples(40);
    let run = |config: &SearchConfig, engine: EvalEngine, workers: usize| {
        FeatureSearch::from_examples(&examples, config.clone())
            .with_engine(engine)
            .driver()
            .workers(workers)
            .run(&examples)
            .expect("search completes")
    };
    let single = small_config();
    let reference = run(&single, EvalEngine::Interpreter, 1);
    assert!(
        !reference.features.is_empty(),
        "the synthetic task must be solvable, or the test proves nothing"
    );
    assert_eq!(run(&single, EvalEngine::Compiled, 1), reference);

    let ring = ring_config();
    let reference = run(&ring, EvalEngine::Interpreter, 1);
    assert!(!reference.features.is_empty(), "the ring must solve it too");
    assert_eq!(run(&ring, EvalEngine::Compiled, 1), reference);
    assert_eq!(run(&ring, EvalEngine::Compiled, 2), reference);
    assert_eq!(run(&ring, EvalEngine::Interpreter, 2), reference);
}

/// Kill-and-resume on the compiled engine: an injected mid-GP cancellation
/// followed by a resume reproduces, byte for byte, the outcome of an
/// *uninterrupted interpreter* run — checkpoint/resume and the compiled
/// engine compose, here on a two-island ring stepped by two worker slots.
#[test]
fn compiled_engine_kill_and_resume_matches_interpreter_reference() {
    let examples = synthetic_examples(40);
    let config = ring_config();

    let reference = FeatureSearch::from_examples(&examples, config.clone())
        .with_engine(EvalEngine::Interpreter)
        .try_run(&examples)
        .expect("reference run completes");
    assert!(!reference.features.is_empty());

    let compiled =
        FeatureSearch::from_examples(&examples, config).with_engine(EvalEngine::Compiled);
    let dir = temp_dir("resume");
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnCall(25),
        kind: FaultKind::Cancel,
    }]);
    let err = compiled
        .driver()
        .workers(2)
        .checkpoint(&dir, 2)
        .fault_injector(&injector)
        .run(&examples)
        .expect_err("the injected cancellation must interrupt the run");
    let SearchError::Interrupted {
        checkpoint: Some(checkpoint),
        ..
    } = err
    else {
        panic!("expected Interrupted with a checkpoint path, got {err}");
    };

    let resumed = compiled
        .driver()
        .workers(2)
        .resume(&checkpoint, &examples)
        .expect("resume completes");
    assert_eq!(
        resumed, reference,
        "compiled kill-and-resume must not fork the interpreter trajectory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
