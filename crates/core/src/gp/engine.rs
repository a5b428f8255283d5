//! The generational GP engine.
//!
//! One [`GpEngine::run`] performs the search for a *single* new feature (the
//! outer greedy loop in [`crate::search`] calls it repeatedly). The engine
//! follows the paper's §VI settings, available as [`GpConfig::paper`]:
//! population 100, stop after 15 generations without improvement or 200
//! generations total.
//!
//! # Fault tolerance
//!
//! The engine is built to survive misbehaving fitness functions:
//!
//! - Every fitness call is wrapped in [`std::panic::catch_unwind`]; a panic
//!   costs that one candidate (it is memoised as invalid, exactly like a
//!   timeout) and increments [`GpState::panics`], never the whole run.
//! - Non-finite fitness values are sanitized to "invalid" so a NaN can never
//!   poison tournament comparisons or the best-so-far record.
//!
//! Evaluation within a generation is sequential; concurrency lives one layer
//! up, in the island worker slots of [`crate::gp::island`].
//!
//! # Stepping and checkpointing
//!
//! The run loop is exposed one generation at a time: [`GpEngine::init_state`]
//! builds a [`GpState`], [`GpEngine::step`] advances it by one generation,
//! and [`GpState::snapshot`] / [`GpState::from_snapshot`] convert the full
//! mid-run state (population, memoised fitness cache, RNG stream, counters)
//! to and from a serializable form. Resuming from a snapshot provably
//! continues the same deterministic trajectory — see the `checkpoint_resume`
//! integration tests.

use crate::faults::CancelToken;
use crate::gp::ops;
use crate::grammar::Grammar;
use crate::lang::FeatureExpr;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fitness oracle for candidate features.
///
/// Returns `None` when the feature is invalid — its evaluation timed out on
/// some program or produced a non-finite value. Invalid features "cannot
/// contribute to the gene pool" (§VI): they lose every tournament and are
/// never recorded as best.
pub trait FitnessFn: Sync {
    /// Quality of `expr`; higher is better. `None` marks an invalid feature.
    fn fitness(&self, expr: &FeatureExpr) -> Option<f64>;
}

impl<F> FitnessFn for F
where
    F: Fn(&FeatureExpr) -> Option<f64> + Sync,
{
    fn fitness(&self, expr: &FeatureExpr) -> Option<f64> {
        self(expr)
    }
}

/// Configuration of one GP run. Serializable because it travels in the
/// [`crate::gp::worker_proc::WireMsg::Begin`] that starts each run on
/// process-level island workers; the checkpoint identity fingerprint still hashes the `Debug`
/// form, so the derive changes no existing bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpConfig {
    /// Number of individuals per generation.
    pub population: usize,
    /// Hard cap on generations (paper: 200).
    pub max_generations: usize,
    /// Stop after this many generations without improvement (paper: 15).
    pub stagnation_limit: usize,
    /// Tournament size for parent selection.
    pub tournament_size: usize,
    /// Probability that a child is produced by crossover.
    pub crossover_rate: f64,
    /// Probability that a child is (further) mutated.
    pub mutation_rate: f64,
    /// Maximum depth of freshly generated individuals.
    pub init_depth: usize,
    /// Maximum depth of subtrees regrown by mutation.
    pub regrow_depth: usize,
    /// Number of elite individuals copied unchanged into each generation.
    pub elitism: usize,
    /// Hard cap on individual size; larger candidates are regenerated.
    /// Parsimony already biases against bloat; the cap keeps printing and
    /// evaluation bounded.
    pub max_size: usize,
    /// Parsimony pressure: prefer the shorter of two equal-quality
    /// individuals (§III). Disable only for ablation studies.
    pub parsimony: bool,
}

impl GpConfig {
    /// The paper's settings (§VI): population 100, ≤200 generations,
    /// 15-generation stagnation window.
    pub fn paper() -> Self {
        GpConfig {
            population: 100,
            max_generations: 200,
            stagnation_limit: 15,
            tournament_size: 3,
            crossover_rate: 0.6,
            mutation_rate: 0.35,
            init_depth: 6,
            regrow_depth: 4,
            elitism: 2,
            max_size: 250,
            parsimony: true,
        }
    }

    /// A reduced preset for laptop-scale runs and tests; same algorithm,
    /// smaller budgets.
    pub fn quick() -> Self {
        GpConfig {
            population: 24,
            max_generations: 25,
            stagnation_limit: 6,
            ..GpConfig::paper()
        }
    }
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig::quick()
    }
}

/// An individual together with its fitness.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluated {
    /// The feature expression.
    pub expr: FeatureExpr,
    /// Fitness (higher is better).
    pub quality: f64,
    /// Cached `expr.size()` for parsimony comparison.
    pub size: usize,
}

impl Evaluated {
    /// Parsimony comparison: better quality wins; equal quality prefers the
    /// smaller expression ("if two features have the same quality we prefer
    /// the shorter one", §III).
    pub fn better_than(&self, other: &Evaluated) -> bool {
        if self.quality != other.quality {
            self.quality > other.quality
        } else {
            self.size < other.size
        }
    }

    /// Comparison with parsimony optionally disabled (ablation).
    pub fn better_than_with(&self, other: &Evaluated, parsimony: bool) -> bool {
        if parsimony {
            self.better_than(other)
        } else {
            self.quality > other.quality
        }
    }
}

/// Result of one GP run.
#[derive(Debug, Clone, PartialEq)]
pub struct GpRun {
    /// The best valid individual found, if any individual was valid.
    pub best: Option<Evaluated>,
    /// Number of generations executed (counted against the outer-loop
    /// budget of 2,500 total generations).
    pub generations: usize,
    /// Total fitness evaluations that were *not* served from the memo.
    pub evaluations: usize,
    /// Fitness calls that panicked and were isolated.
    pub panics: usize,
}

impl GpRun {
    /// The best individual, or a typed error when every candidate of every
    /// generation was invalid (all-timeout / all-panic populations).
    pub fn best(&self) -> Result<&Evaluated, crate::error::SearchError> {
        self.best
            .as_ref()
            .ok_or(crate::error::SearchError::NoViableCandidate {
                generations: self.generations,
                evaluations: self.evaluations,
            })
    }
}

/// Whether a [`GpEngine::step`] left the run able to continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpStatus {
    /// More generations may follow.
    Running,
    /// The run reached its generation cap or stagnation limit.
    Converged,
}

/// One memoised fitness record. The expression tree itself is stored (not
/// its printed text) so hash collisions are detected by structural equality
/// — strictly stronger than comparing printed forms, and allocation-free —
/// and so snapshots can still print the canonical text on demand.
#[derive(Debug, Clone)]
struct MemoEntry {
    expr: FeatureExpr,
    fit: Option<f64>,
}

/// Fitness memo keyed by the 64-bit structural hash of the canonical form
/// ([`FeatureExpr::structural_hash`]). Looking up a candidate hashes the
/// tree directly — no print, no allocation — where the old `String`-keyed
/// memo printed every individual every generation. Colliding hashes chain
/// into a short vector and are resolved by tree equality.
type Memo = HashMap<u64, Vec<MemoEntry>>;

fn memo_get(memo: &Memo, hash: u64, expr: &FeatureExpr) -> Option<Option<f64>> {
    memo.get(&hash)?
        .iter()
        .find(|e| e.expr == *expr)
        .map(|e| e.fit)
}

fn memo_insert(memo: &mut Memo, hash: u64, expr: FeatureExpr, fit: Option<f64>) {
    memo.entry(hash).or_default().push(MemoEntry { expr, fit });
}

/// Full mid-run state of a GP search, advanced by [`GpEngine::step`].
#[derive(Debug, Clone)]
pub struct GpState {
    /// Current population.
    pub population: Vec<FeatureExpr>,
    /// Best valid individual seen so far.
    pub best: Option<Evaluated>,
    /// Generations since the last strict quality improvement.
    pub stagnant: usize,
    /// Generations executed.
    pub generations: usize,
    /// Fitness evaluations not served from the memo.
    pub evaluations: usize,
    /// Fitness calls that panicked and were isolated.
    pub panics: usize,
    /// Fitness memo keyed by structural hash, shared across generations: a
    /// repeated candidate — panicked ones included — is never re-evaluated.
    memo: Memo,
    /// The run's private RNG stream.
    rng: StdRng,
    /// Summary of the most recent generation, for observability. Not part
    /// of [`GpSnapshot`]: telemetry must stay checkpoint-byte-neutral, and
    /// the value is recomputed by the first step after a resume anyway.
    pub last_gen: Option<GenStats>,
}

/// Per-generation observability summary; see [`GpState::last_gen`].
/// Serializable so a process-level worker can report it with the stepped
/// island.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenStats {
    /// Generation number this summarises (1-based, equals
    /// `GpState::generations` right after the step).
    pub generation: usize,
    /// Best-so-far quality after this generation (`NAN` when none valid).
    pub best: f64,
    /// Best valid quality scored within this generation (`NAN` when none).
    pub gen_best: f64,
    /// Mean valid quality within this generation (`NAN` when none).
    pub mean: f64,
    /// Individuals with a valid (finite) fitness this generation.
    pub valid: usize,
    /// Individuals scored invalid (discarded, non-finite or panicked).
    pub invalid: usize,
    /// Stagnation counter after this generation.
    pub stagnant: usize,
    /// Cumulative non-memoised fitness evaluations.
    pub evaluations: usize,
    /// Cumulative isolated panics.
    pub panics: usize,
}

/// Serializable form of [`GpState`]; expressions travel as their canonical
/// text (print/parse round-trips are exact — property-tested in
/// `feature_language_props`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpSnapshot {
    /// Population, printed.
    pub population: Vec<String>,
    /// Best individual as `(printed expression, quality)`.
    pub best: Option<(String, f64)>,
    /// Generations since the last strict improvement.
    pub stagnant: usize,
    /// Generations executed.
    pub generations: usize,
    /// Fitness evaluations not served from the memo.
    pub evaluations: usize,
    /// Panics isolated so far.
    pub panics: usize,
    /// Fitness memo, sorted by key for canonical output.
    pub memo: Vec<(String, Option<f64>)>,
    /// RNG stream state.
    pub rng: [u64; 4],
}

impl GpState {
    /// Captures the full state in serializable form. The memo travels as
    /// sorted `(canonical text, fitness)` pairs — printing happens only
    /// here, at checkpoint time, keeping the snapshot format byte-identical
    /// to the `String`-keyed memo it replaced.
    pub fn snapshot(&self) -> GpSnapshot {
        let mut memo: Vec<(String, Option<f64>)> = self
            .memo
            .values()
            .flatten()
            .map(|e| (e.expr.to_string(), e.fit))
            .collect();
        memo.sort_by(|(a, _), (b, _)| a.cmp(b));
        GpSnapshot {
            population: self.population.iter().map(|e| e.to_string()).collect(),
            best: self
                .best
                .as_ref()
                .map(|b| (b.expr.to_string(), b.quality)),
            stagnant: self.stagnant,
            generations: self.generations,
            evaluations: self.evaluations,
            panics: self.panics,
            memo,
            rng: self.rng.state(),
        }
    }

    /// Rebuilds a state from a snapshot. Fails with a description when an
    /// expression no longer parses (a corrupt or hand-edited snapshot).
    pub fn from_snapshot(snapshot: &GpSnapshot) -> Result<GpState, String> {
        let parse = |text: &str| {
            crate::lang::parse_feature(text)
                .map_err(|e| format!("unparseable expression `{text}`: {e}"))
        };
        let mut population = Vec::with_capacity(snapshot.population.len());
        for text in &snapshot.population {
            population.push(parse(text)?);
        }
        let best = match &snapshot.best {
            None => None,
            Some((text, quality)) => {
                let expr = parse(text)?;
                let size = expr.size();
                Some(Evaluated {
                    expr,
                    quality: *quality,
                    size,
                })
            }
        };
        let mut memo: Memo = HashMap::new();
        for (text, fit) in &snapshot.memo {
            let expr = parse(text)?;
            let hash = expr.structural_hash();
            memo_insert(&mut memo, hash, expr, *fit);
        }
        Ok(GpState {
            population,
            best,
            stagnant: snapshot.stagnant,
            generations: snapshot.generations,
            evaluations: snapshot.evaluations,
            panics: snapshot.panics,
            memo,
            rng: StdRng::from_state(snapshot.rng),
            last_gen: None,
        })
    }

    /// Finishes the run, extracting the result.
    pub fn into_run(self) -> GpRun {
        GpRun {
            best: self.best,
            generations: self.generations,
            evaluations: self.evaluations,
            panics: self.panics,
        }
    }
}

/// Generational GP engine over a feature grammar.
#[derive(Debug)]
pub struct GpEngine<'a> {
    grammar: &'a Grammar,
    config: GpConfig,
}

impl<'a> GpEngine<'a> {
    /// Creates an engine over `grammar` with the given configuration.
    pub fn new(grammar: &'a Grammar, config: GpConfig) -> Self {
        GpEngine { grammar, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpConfig {
        &self.config
    }

    /// Builds the initial state: a ramped-depth random population and the
    /// run's RNG stream.
    pub fn init_state(&self, mut rng: StdRng) -> GpState {
        let cfg = &self.config;
        let population: Vec<FeatureExpr> = (0..cfg.population)
            .map(|i| {
                // Ramped initial depths for structural diversity.
                let depth = 2 + i % cfg.init_depth.max(1);
                self.grammar.gen_feature(&mut rng, depth)
            })
            .collect();
        GpState {
            population,
            best: None,
            stagnant: 0,
            generations: 0,
            evaluations: 0,
            panics: 0,
            memo: HashMap::new(),
            rng,
            last_gen: None,
        }
    }

    /// Runs the search, maximising `fitness`.
    ///
    /// Deterministic for a given seed and fitness function: fitness values
    /// — including isolated panics — are memoised by structural hash.
    pub fn run<F: FitnessFn>(&self, fitness: &F, rng: &mut StdRng) -> GpRun {
        let mut state = self.init_state(rng.clone());
        while let GpStatus::Running = self.step(&mut state, fitness) {}
        *rng = StdRng::from_state(state.rng.state());
        state.into_run()
    }

    /// Advances the run by one generation: evaluate the current population,
    /// update the best-so-far record, and (unless converged) breed the next
    /// generation.
    pub fn step<F: FitnessFn>(&self, state: &mut GpState, fitness: &F) -> GpStatus {
        self.step_cancellable(state, fitness, None)
            .expect("a step without a cancel token always completes")
    }

    /// [`GpEngine::step`] with cooperative cancellation: returns `None` —
    /// with `state` completely untouched — when `cancel` flips before the
    /// generation's results are committed. Discarding the aborted
    /// generation is exact: a resumed run recomputes it identically, so
    /// cancellation only chooses *which* generation boundary a run stops
    /// at, never what the trajectory looks like.
    pub fn step_cancellable<F: FitnessFn>(
        &self,
        state: &mut GpState,
        fitness: &F,
        cancel: Option<&CancelToken>,
    ) -> Option<GpStatus> {
        let cfg = &self.config;
        if state.generations >= cfg.max_generations
            || (state.stagnant >= cfg.stagnation_limit && state.generations > 0)
        {
            return Some(GpStatus::Converged);
        }
        let scored = self.evaluate_all(state, fitness, cancel)?;
        state.generations += 1;

        // Track the best valid individual, with parsimony.
        let mut improved = false;
        for ev in scored.iter().flatten() {
            if state
                .best
                .as_ref()
                .is_none_or(|b| ev.better_than_with(b, cfg.parsimony))
            {
                // Only count strictly better quality as "improvement" for
                // the stagnation rule; shorter-at-equal-quality refines the
                // record without resetting the clock.
                if state.best.as_ref().is_none_or(|b| ev.quality > b.quality) {
                    improved = true;
                }
                state.best = Some(ev.clone());
            }
        }
        if improved {
            state.stagnant = 0;
        } else {
            state.stagnant += 1;
        }

        // Observability snapshot of this generation; never serialized, and
        // computed before the convergence returns so the final generation is
        // also recorded.
        let valid: Vec<f64> = scored.iter().flatten().map(|e| e.quality).collect();
        state.last_gen = Some(GenStats {
            generation: state.generations,
            best: state.best.as_ref().map_or(f64::NAN, |b| b.quality),
            gen_best: valid.iter().copied().fold(f64::NAN, f64::max),
            mean: if valid.is_empty() {
                f64::NAN
            } else {
                valid.iter().sum::<f64>() / valid.len() as f64
            },
            valid: valid.len(),
            invalid: scored.len() - valid.len(),
            stagnant: state.stagnant,
            evaluations: state.evaluations,
            panics: state.panics,
        });

        if !improved && state.stagnant >= cfg.stagnation_limit {
            return Some(GpStatus::Converged);
        }
        if state.generations >= cfg.max_generations {
            return Some(GpStatus::Converged);
        }

        let parents = std::mem::take(&mut state.population);
        state.population = self.breed(&parents, &scored, &mut state.rng);
        Some(GpStatus::Running)
    }

    /// Evaluates the population, reading and feeding the memo.
    ///
    /// Duplicate individuals are evaluated once, in first-appearance order;
    /// the memo is updated with every distinct new expression. Panicking
    /// fitness calls are caught and recorded as invalid.
    ///
    /// Returns `None` — without touching `state` — when `cancel` flips.
    /// The gate sits *after* result collection and *before* memo
    /// insertion: a cancelled evaluator may hand back `None` for
    /// candidates it never finished, and memoising such a value would
    /// fork the trajectory on resume. All-or-nothing commits keep the
    /// memo a pure function of the candidate set.
    fn evaluate_all<F: FitnessFn>(
        &self,
        state: &mut GpState,
        fitness: &F,
        cancel: Option<&CancelToken>,
    ) -> Option<Vec<Option<Evaluated>>> {
        // Structural hashes instead of printed text: no per-candidate
        // print+alloc. Collisions (same hash, different tree) are resolved
        // by tree equality everywhere the hash is consulted.
        let hashes: Vec<u64> = state
            .population
            .iter()
            .map(FeatureExpr::structural_hash)
            .collect();

        // Distinct not-yet-memoised expressions, in first-appearance order.
        let mut pending: Vec<usize> = Vec::new();
        for i in 0..state.population.len() {
            let expr = &state.population[i];
            if memo_get(&state.memo, hashes[i], expr).is_some() {
                continue;
            }
            let claimed = pending
                .iter()
                .any(|&j| hashes[j] == hashes[i] && state.population[j] == *expr);
            if !claimed {
                pending.push(i);
            }
        }

        // One guarded fitness call: a panic or a non-finite value both
        // cost exactly this candidate.
        let eval_one = |expr: &FeatureExpr| -> (Option<f64>, bool) {
            match catch_unwind(AssertUnwindSafe(|| fitness.fitness(expr))) {
                Ok(Some(q)) if q.is_finite() => (Some(q), false),
                Ok(_) => (None, false),
                Err(_) => (None, true),
            }
        };

        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let mut results: Vec<(Option<f64>, bool)> = Vec::with_capacity(pending.len());
        for &i in &pending {
            if cancelled() {
                return None;
            }
            results.push(eval_one(&state.population[i]));
        }

        // Commit gate: once the token flips, *nothing* from this
        // generation may reach the memo — some results above may be
        // cancellation artefacts, not true evaluations.
        if cancelled() {
            return None;
        }

        for (&i, (quality, panicked)) in pending.iter().zip(results) {
            memo_insert(
                &mut state.memo,
                hashes[i],
                state.population[i].clone(),
                quality,
            );
            state.evaluations += 1;
            if panicked {
                state.panics += 1;
            }
        }

        Some(
            hashes
                .iter()
                .zip(state.population.iter())
                .map(|(&hash, expr)| {
                    memo_get(&state.memo, hash, expr)
                        .flatten()
                        .map(|quality| Evaluated {
                            expr: expr.clone(),
                            quality,
                            size: expr.size(),
                        })
                })
                .collect(),
        )
    }

    /// Tournament selection over the scored population; invalid individuals
    /// lose every tournament.
    fn select<'p>(
        &self,
        population: &'p [FeatureExpr],
        scored: &[Option<Evaluated>],
        rng: &mut StdRng,
    ) -> &'p FeatureExpr {
        let mut winner = rng.gen_range(0..population.len());
        for _ in 1..self.config.tournament_size.max(1) {
            let i = rng.gen_range(0..population.len());
            winner = match (&scored[i], &scored[winner]) {
                (Some(a), Some(b)) => {
                    if a.better_than_with(b, self.config.parsimony) {
                        i
                    } else {
                        winner
                    }
                }
                (Some(_), None) => i,
                _ => winner,
            };
        }
        &population[winner]
    }

    fn breed(
        &self,
        population: &[FeatureExpr],
        scored: &[Option<Evaluated>],
        rng: &mut StdRng,
    ) -> Vec<FeatureExpr> {
        let cfg = &self.config;
        let mut next = Vec::with_capacity(cfg.population);

        // Elites: best valid individuals survive unchanged.
        let mut ranked: Vec<&Evaluated> = scored.iter().flatten().collect();
        ranked.sort_by(|a, b| {
            let quality = b
                .quality
                .partial_cmp(&a.quality)
                .unwrap_or(std::cmp::Ordering::Equal);
            if cfg.parsimony {
                quality.then(a.size.cmp(&b.size))
            } else {
                quality
            }
        });
        for e in ranked.iter().take(cfg.elitism) {
            next.push(e.expr.clone());
        }

        while next.len() < cfg.population {
            let mut child = if rng.gen_bool(cfg.crossover_rate) {
                let a = self.select(population, scored, rng);
                let b = self.select(population, scored, rng);
                let (c1, c2) = ops::crossover(a, b, rng);
                if next.len() + 1 < cfg.population && !self.too_big(&c2) {
                    next.push(self.cap(c2, rng));
                }
                c1
            } else {
                self.select(population, scored, rng).clone()
            };
            if rng.gen_bool(cfg.mutation_rate) {
                child = ops::mutate(self.grammar, &child, rng, cfg.regrow_depth);
            }
            next.push(self.cap(child, rng));
        }
        next.truncate(cfg.population);
        next
    }

    fn too_big(&self, expr: &FeatureExpr) -> bool {
        expr.size() > self.config.max_size
    }

    /// Replaces over-sized offspring with fresh random individuals.
    fn cap(&self, expr: FeatureExpr, rng: &mut StdRng) -> FeatureExpr {
        if self.too_big(&expr) {
            self.grammar.gen_feature(rng, self.config.init_depth)
        } else {
            expr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrNode;
    use rand::SeedableRng;

    fn grammar_and_ir() -> (Grammar, IrNode) {
        let ir = IrNode::build("loop", |l| {
            l.attr_num("num-iter", 12.0);
            l.attr_num("depth", 2.0);
            for _ in 0..3 {
                l.child("insn", |i| {
                    i.attr_enum("mode", "SI");
                    i.child("reg", |_| {});
                });
            }
            l.child("jump_insn", |_| {});
        });
        (Grammar::derive([&ir]), ir)
    }

    #[test]
    fn finds_a_target_value_feature() {
        // Fitness: how close the feature's value on the IR is to 12
        // (i.e. the engine should discover `get-attr(@num-iter)` or an
        // expression evaluating to 12).
        let (g, ir) = grammar_and_ir();
        let fit = |e: &FeatureExpr| -> Option<f64> {
            let v = e.eval_with_budget(&ir, 10_000).ok()?;
            Some(-(v - 12.0).abs())
        };
        let engine = GpEngine::new(&g, GpConfig::quick());
        let mut rng = StdRng::seed_from_u64(2);
        let run = engine.run(&fit, &mut rng);
        let best = run.best().expect("some individual must be valid");
        assert!(
            best.quality > -0.51,
            "expected near-perfect fitness, got {} for {}",
            best.quality,
            best.expr
        );
    }

    #[test]
    fn respects_generation_cap() {
        let (g, ir) = grammar_and_ir();
        let fit = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let cfg = GpConfig {
            max_generations: 3,
            stagnation_limit: 100,
            ..GpConfig::quick()
        };
        let engine = GpEngine::new(&g, cfg);
        let run = engine.run(&fit, &mut StdRng::seed_from_u64(0));
        assert_eq!(run.generations, 3);
    }

    #[test]
    fn stops_on_stagnation() {
        let (g, _ir) = grammar_and_ir();
        // Constant fitness: first generation sets the best, never improves.
        let fit = |_: &FeatureExpr| Some(1.0);
        let cfg = GpConfig {
            stagnation_limit: 4,
            max_generations: 100,
            ..GpConfig::quick()
        };
        let engine = GpEngine::new(&g, cfg);
        let run = engine.run(&fit, &mut StdRng::seed_from_u64(0));
        // Gen 1 may improve (first best); afterwards 4 stagnant generations.
        assert!(run.generations <= 6, "ran {} generations", run.generations);
    }

    #[test]
    fn all_invalid_population_yields_no_best() {
        let (g, _ir) = grammar_and_ir();
        let fit = |_: &FeatureExpr| -> Option<f64> { None };
        let cfg = GpConfig {
            max_generations: 2,
            ..GpConfig::quick()
        };
        let engine = GpEngine::new(&g, cfg);
        let run = engine.run(&fit, &mut StdRng::seed_from_u64(0));
        assert!(run.best.is_none());
        assert!(matches!(
            run.best(),
            Err(crate::error::SearchError::NoViableCandidate { .. })
        ));
    }

    #[test]
    fn parsimony_prefers_shorter_at_equal_quality() {
        let (g, _ir) = grammar_and_ir();
        let fit = |_: &FeatureExpr| Some(5.0);
        let engine = GpEngine::new(&g, GpConfig::quick());
        let run = engine.run(&fit, &mut StdRng::seed_from_u64(3));
        let best = run.best().expect("constant fitness validates everyone");
        // With constant fitness the best must be a minimal (size-1) feature.
        assert_eq!(best.size, 1, "parsimony should find a size-1 expression, got {}", best.expr);
    }

    #[test]
    fn memoisation_reduces_evaluations() {
        let (g, ir) = grammar_and_ir();
        let fit = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let cfg = GpConfig {
            max_generations: 10,
            stagnation_limit: 10,
            ..GpConfig::quick()
        };
        let engine = GpEngine::new(&g, cfg.clone());
        let run = engine.run(&fit, &mut StdRng::seed_from_u64(4));
        let naive = cfg.population * run.generations;
        assert!(
            run.evaluations < naive,
            "expected memo hits: {} evaluations for {} slots",
            run.evaluations,
            naive
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (g, ir) = grammar_and_ir();
        let fit = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let engine = GpEngine::new(&g, GpConfig::quick());
        let r1 = engine.run(&fit, &mut StdRng::seed_from_u64(9));
        let r2 = engine.run(&fit, &mut StdRng::seed_from_u64(9));
        assert_eq!(r1.best, r2.best);
        assert_eq!(r1.generations, r2.generations);
    }

    #[test]
    fn panicking_fitness_costs_one_candidate_not_the_run() {
        let (g, ir) = grammar_and_ir();
        // Panic on every expression mentioning `depth`; everything else
        // evaluates normally.
        let fit = |e: &FeatureExpr| -> Option<f64> {
            let text = e.to_string();
            if text.contains("depth") {
                panic!("injected: evaluator bug on {text}");
            }
            e.eval_with_budget(&ir, 10_000).ok()
        };
        let cfg = GpConfig {
            max_generations: 6,
            ..GpConfig::quick()
        };
        let engine = GpEngine::new(&g, cfg);
        let run = engine.run(&fit, &mut StdRng::seed_from_u64(14));
        // The run completes; whatever best it found does not mention the
        // poisoned attribute.
        assert_eq!(run.generations, 6);
        if let Some(best) = &run.best {
            assert!(!best.expr.to_string().contains("depth"));
        }
    }

    #[test]
    fn nan_fitness_is_sanitized_to_invalid() {
        let (g, _ir) = grammar_and_ir();
        let fit = |_: &FeatureExpr| Some(f64::NAN);
        let cfg = GpConfig {
            max_generations: 2,
            ..GpConfig::quick()
        };
        let run = GpEngine::new(&g, cfg).run(&fit, &mut StdRng::seed_from_u64(0));
        assert!(run.best.is_none(), "NaN must never become a best fitness");
    }

    #[test]
    fn snapshot_resume_continues_identically() {
        let (g, ir) = grammar_and_ir();
        let fit = |e: &FeatureExpr| e.eval_with_budget(&ir, 10_000).ok();
        let cfg = GpConfig {
            max_generations: 9,
            stagnation_limit: 9,
            ..GpConfig::quick()
        };
        let engine = GpEngine::new(&g, cfg);

        // Uninterrupted reference run.
        let mut reference = engine.init_state(StdRng::seed_from_u64(77));
        while let GpStatus::Running = engine.step(&mut reference, &fit) {}
        let reference = reference.into_run();

        // Run 4 generations, snapshot, round-trip through serialization,
        // resume to completion.
        let mut state = engine.init_state(StdRng::seed_from_u64(77));
        for _ in 0..4 {
            assert_eq!(engine.step(&mut state, &fit), GpStatus::Running);
        }
        let snapshot = state.snapshot();
        drop(state);
        let text = serde_json::to_string(&snapshot).expect("snapshot serializes");
        let back: GpSnapshot = serde_json::from_str(&text).expect("snapshot parses");
        assert_eq!(back, snapshot);
        let mut resumed = GpState::from_snapshot(&back).expect("snapshot restores");
        while let GpStatus::Running = engine.step(&mut resumed, &fit) {}
        let resumed = resumed.into_run();

        assert_eq!(resumed.best, reference.best);
        assert_eq!(resumed.generations, reference.generations);
        assert_eq!(resumed.evaluations, reference.evaluations);
    }
}
