//! The outer feature-search loop (the paper's Figures 5 and 6).
//!
//! "The search component finds the best such feature and, once it can no
//! longer improve upon it, adds that feature to the base feature set and
//! repeats. In this way, we build up a gradually improving set of features."
//! (§III)
//!
//! Fitness of a candidate feature (Figure 6): compute its value on every
//! training loop, append it to the base feature columns, train a decision
//! tree on an internal train split, predict unroll factors on an internal
//! validation split, and report the **speedup** those predictions attain.
//! The stopping rules follow §VI: a per-feature GP run stops after 15
//! stagnant generations or 200 generations; the outer loop stops after
//! 2,500 total generations or 5 consecutive failed additions.

use crate::checkpoint::{self, SearchCheckpoint, StepRecord, CHECKPOINT_VERSION};
use crate::error::{CheckpointError, SearchError};
use crate::faults::{CancelToken, FaultInjector};
use crate::gp::island::{
    InProcess, IslandCoordinator, IslandExecutor, IslandTopology, IslandsSnapshot, IslandsState,
    RoundStatus, Supervision,
};
use crate::gp::worker_proc::{Framed, WorkerLauncher, WorkerSpec};
use crate::gp::{GpConfig, GpEngine, GpRun};
use crate::grammar::Grammar;
use crate::ir::IrNode;
use crate::lang::{EvalEngine, EvalPool, FeatureExpr};
use crate::telemetry::Telemetry;
use fegen_ml::data::Dataset;
use fegen_ml::metrics;
use fegen_ml::tree::{DecisionTree, Presorted, TreeConfig};
use fegen_ml::KFold;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One training loop: its exported IR and the measured cycle table.
///
/// `cycles[k]` is the cycle count of the function containing the loop when
/// the loop is compiled with heuristic value `k` (unroll factor; `k = 0` is
/// no unrolling). Process-level island workers receive examples as
/// [`crate::training_rows::TrainingRows`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingExample {
    /// Exported IR of the loop.
    pub ir: IrNode,
    /// Measured cycles per heuristic value.
    pub cycles: Vec<f64>,
}

/// Relative tolerance used when deriving training labels from cycle
/// tables: factors within this fraction of the minimum are ties, broken
/// towards the smallest factor (the measurement-noise floor; see
/// [`metrics::oracle_choice_tolerant`]).
pub const LABEL_TOLERANCE: f64 = 0.01;

impl TrainingExample {
    /// The training label: the smallest heuristic value within
    /// [`LABEL_TOLERANCE`] of the cycle minimum.
    pub fn best_value(&self) -> usize {
        metrics::oracle_choice_tolerant(&self.cycles, LABEL_TOLERANCE)
    }

    /// Speedup of choosing heuristic value `k` over the baseline.
    pub fn speedup(&self, k: usize) -> f64 {
        metrics::speedup(&self.cycles, k)
    }
}

/// Configuration of a full feature search.
///
/// Serializable because process-level island workers receive it in their
/// [`crate::gp::worker_proc::WorkerSpec`]; the checkpoint identity
/// fingerprint still hashes the `Debug` form
/// ([`checkpoint::config_fingerprint`]), so the derive changes no
/// existing checkpoint bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Per-feature GP settings.
    pub gp: GpConfig,
    /// Total generation budget across all per-feature searches (paper:
    /// 2,500).
    pub max_total_generations: usize,
    /// Stop after this many consecutive additions that failed to improve
    /// (paper: 5).
    pub max_failed_additions: usize,
    /// Hard cap on the number of features collected (the paper reports 30
    /// found in one fold).
    pub max_features: usize,
    /// Step budget for evaluating one feature over one loop — the
    /// deterministic analogue of the paper's two-second timeout.
    pub eval_budget_per_example: u64,
    /// The internal split granularity: 1 part in `internal_k` is held out
    /// for validating candidate features (paper: train on 8 of 9 parts).
    pub internal_k: usize,
    /// Number of rotated internal holdouts averaged per fitness evaluation
    /// (1 = the paper's single 8:1 split; more folds lower the variance of
    /// the fitness signal on noisy data).
    pub internal_folds: usize,
    /// Decision-tree settings for the fitness model.
    pub tree: TreeConfig,
    /// Master RNG seed.
    pub seed: u64,
    /// Island topology of each per-feature GP run. Lives in the config —
    /// and therefore in the checkpoint identity fingerprint — because it
    /// defines the search *trajectory*; the worker thread count is a
    /// [`SearchDriver`] knob precisely because it must not.
    pub topology: IslandTopology,
}

impl SearchConfig {
    /// The paper's §VI settings.
    pub fn paper() -> Self {
        SearchConfig {
            gp: GpConfig::paper(),
            max_total_generations: 2_500,
            max_failed_additions: 5,
            max_features: 30,
            eval_budget_per_example: 200_000,
            internal_k: 9,
            internal_folds: 3,
            tree: TreeConfig::default(),
            seed: 0xfe9e,
            topology: IslandTopology::single(),
        }
    }

    /// Reduced preset for laptop-scale runs: same algorithm, smaller
    /// budgets.
    pub fn quick() -> Self {
        SearchConfig {
            gp: GpConfig::quick(),
            max_total_generations: 400,
            max_failed_additions: 3,
            max_features: 10,
            eval_budget_per_example: 60_000,
            internal_k: 9,
            internal_folds: 3,
            tree: TreeConfig::default(),
            seed: 0xfe9e,
            topology: IslandTopology::single(),
        }
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig::quick()
    }
}

/// Record of one accepted feature.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchStep {
    /// The feature added at this step.
    pub feature: FeatureExpr,
    /// Mean internal-validation speedup of the model with all features up
    /// to and including this one.
    pub speedup: f64,
    /// GP generations spent finding it.
    pub generations: usize,
}

/// Result of a feature search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The final feature list, in the order found.
    pub features: Vec<FeatureExpr>,
    /// Per-feature history (speedup after each addition).
    pub steps: Vec<SearchStep>,
    /// Speedup of the featureless baseline model (majority-class
    /// prediction) on the internal validation split.
    pub baseline_speedup: f64,
    /// Mean oracle speedup on the same internal validation splits — the
    /// maximum a perfect model could attain there (denominator of the
    /// Figure 16 "% of max" column).
    pub oracle_speedup: f64,
    /// Total GP generations used.
    pub total_generations: usize,
}

/// The feature search system: grammar + configuration.
#[derive(Debug, Clone)]
pub struct FeatureSearch {
    grammar: Grammar,
    config: SearchConfig,
    engine: EvalEngine,
}

impl FeatureSearch {
    /// Creates a search over `grammar`, evaluating features with the default
    /// engine (the compiled VM).
    pub fn new(grammar: Grammar, config: SearchConfig) -> Self {
        FeatureSearch {
            grammar,
            config,
            engine: EvalEngine::default(),
        }
    }

    /// Selects the feature-evaluation engine. The engine is an execution
    /// strategy, not a search parameter: both engines produce identical
    /// values, errors and budget decisions, so the search trajectory — and
    /// the checkpoint identity — is the same either way (which is why this
    /// lives outside [`SearchConfig`] and its fingerprint).
    pub fn with_engine(mut self, engine: EvalEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The feature-evaluation engine in use.
    pub fn engine(&self) -> EvalEngine {
        self.engine
    }

    /// Builds an evaluation pool over the examples' IR using this search's
    /// engine (flattens each loop once; compiles each feature once).
    pub fn pool<'e>(&self, examples: &'e [TrainingExample]) -> EvalPool<'e> {
        EvalPool::new(examples.iter().map(|e| &e.ir), self.engine)
    }

    /// Derives the grammar from the examples and creates the search.
    pub fn from_examples(examples: &[TrainingExample], config: SearchConfig) -> Self {
        let grammar = Grammar::derive(examples.iter().map(|e| &e.ir));
        FeatureSearch::new(grammar, config)
    }

    /// The grammar in use.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The configuration in use.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Runs the greedy feature-list construction over `examples`.
    ///
    /// Convenience wrapper over [`FeatureSearch::try_run`] for callers that
    /// cannot recover anyway.
    ///
    /// # Panics
    ///
    /// Panics if the search fails (e.g. `examples` is empty or an example
    /// has an empty cycle table). Use [`FeatureSearch::try_run`] or
    /// [`FeatureSearch::driver`] for typed errors.
    pub fn run(&self, examples: &[TrainingExample]) -> SearchOutcome {
        match self.try_run(examples) {
            Ok(outcome) => outcome,
            Err(e) => panic!("feature search failed: {e}"),
        }
    }

    /// Runs the greedy feature-list construction, reporting failures as
    /// typed [`SearchError`]s.
    pub fn try_run(&self, examples: &[TrainingExample]) -> Result<SearchOutcome, SearchError> {
        self.driver().run(examples)
    }

    /// A configurable runner for this search: checkpointing, cooperative
    /// cancellation and fault injection are opt-in per run.
    pub fn driver(&self) -> SearchDriver<'_> {
        SearchDriver {
            search: self,
            checkpoint_dir: None,
            checkpoint_every: 5,
            cancel: None,
            injector: None,
            telemetry: Telemetry::disabled(),
            workers: 1,
            launcher: None,
        }
    }

    /// Evaluates `expr` on every example, producing one column of the
    /// feature matrix. `None` when the feature times out or produces a
    /// non-finite value on any example (the paper's discard rule).
    ///
    /// This always uses the tree-walking interpreter — it is the reference
    /// oracle the compiled engine is validated against. The search itself
    /// evaluates through [`FeatureSearch::pool`].
    pub fn feature_column(
        &self,
        expr: &FeatureExpr,
        examples: &[TrainingExample],
    ) -> Option<Vec<f64>> {
        let mut column = Vec::with_capacity(examples.len());
        for e in examples {
            match expr.eval_with_budget(&e.ir, self.config.eval_budget_per_example) {
                Ok(v) => column.push(v),
                Err(_) => return None,
            }
        }
        Some(column)
    }

    /// Builds the full feature matrix for a fixed feature list (used when
    /// deploying the searched features on unseen loops).
    ///
    /// Features that fail on an example contribute `0.0` there — at
    /// deployment the compiler must produce *some* vector.
    pub fn feature_matrix(
        &self,
        features: &[FeatureExpr],
        examples: &[TrainingExample],
    ) -> Vec<Vec<f64>> {
        let pool = self.pool(examples);
        (0..examples.len())
            .map(|i| {
                features
                    .iter()
                    .map(|f| {
                        pool.eval(f, i, self.config.eval_budget_per_example)
                            .unwrap_or(0.0)
                    })
                    .collect()
            })
            .collect()
    }

    /// Builds the candidate-fitness harness over `examples`: pool, labels,
    /// cycle tables, internal splits — everything a fitness evaluation
    /// touches, with no base features yet. Both the in-process driver and
    /// process-level island workers construct their fitness through this
    /// one path, which is what makes the two modes byte-identical.
    pub(crate) fn harness<'e>(
        &self,
        examples: &'e [TrainingExample],
    ) -> Result<FitnessHarness<'e>, SearchError> {
        let cfg = &self.config;
        if examples.is_empty() {
            return Err(SearchError::EmptyTrainingSet);
        }
        let Some(n_classes) = examples.iter().map(|e| e.cycles.len()).max() else {
            return Err(SearchError::EmptyTrainingSet);
        };
        if n_classes == 0 {
            return Err(SearchError::InvalidConfig {
                detail: "training examples must have non-empty cycle tables".into(),
            });
        }
        Ok(FitnessHarness {
            pool: self.pool(examples),
            labels: examples.iter().map(|e| e.best_value()).collect(),
            tables: examples.iter().map(|e| e.cycles.clone()).collect(),
            splits: internal_splits(cfg, examples.len()),
            n_classes,
            tree: cfg.tree.clone(),
            budget: cfg.eval_budget_per_example,
            base_columns: Vec::new(),
            base_presorted: Presorted::default(),
            memo: Mutex::new(ColumnMemo::new(FITNESS_MEMO_BYTES)),
            judged: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        })
    }
}

/// Shared model-quality measure: train the decision tree on `train_idx`
/// and report the mean speedup of its predictions on `valid_idx`.
pub(crate) fn model_speedup(
    data: &Dataset,
    presorted: &Presorted,
    tables: &[Vec<f64>],
    train_idx: &[usize],
    valid_idx: &[usize],
    tree: &TreeConfig,
) -> f64 {
    let tree = DecisionTree::train_on(data, presorted, train_idx, tree);
    mean_speedup_at(tables, valid_idx, |i| tree.predict(data.row(i)))
}

/// Everything one candidate-fitness evaluation needs, prepared once per
/// search: the evaluation pool, derived labels and cycle tables, the fixed
/// internal splits and the accumulated base-feature columns. Fitness of a
/// candidate is a pure deterministic function of this state, so two
/// harnesses built from the same `(examples, config, base features)` —
/// whether in the driver's process or a worker process on the other end of
/// a pipe — produce the identical `f64` sequence.
///
/// Because fitness is a pure function of the candidate's column once the
/// base columns are fixed, the harness judges each distinct column once:
/// a map from the column's bits ([`memo_key`]; every constant column is
/// one key) to the fitness it was judged answers every later candidate
/// whose column repeats it. [`FitnessHarness::push_base_column`] clears
/// the map, since a new base column changes every judgment. Past
/// [`FITNESS_MEMO_BYTES`] of keys, new columns are still judged but no
/// longer stored. The map sits behind a mutex because island worker
/// threads share one harness; the lock is never held while judging.
pub(crate) struct FitnessHarness<'e> {
    pool: EvalPool<'e>,
    labels: Vec<usize>,
    tables: Vec<Vec<f64>>,
    splits: Vec<(Vec<usize>, Vec<usize>)>,
    n_classes: usize,
    tree: TreeConfig,
    budget: u64,
    base_columns: Vec<Vec<f64>>,
    /// The base columns' orderings, sorted once as each is accepted: a
    /// candidate then sorts only its own column.
    base_presorted: Presorted,
    /// The fitness each distinct column was judged against the current
    /// base columns.
    memo: Mutex<ColumnMemo>,
    /// Fitness calls that trained trees.
    judged: AtomicU64,
    /// Fitness calls answered from `memo`.
    reused: AtomicU64,
}

/// Past this many bytes of stored keys the harness stops remembering new
/// columns. A column costs 8 bytes per example (≈9 KB on a quick-suite
/// fold), and a paper-scale GP run can produce thousands of distinct ones.
const FITNESS_MEMO_BYTES: usize = 32 << 20;

/// The fitness judged for each distinct candidate column, with the bytes
/// its keys hold.
struct ColumnMemo {
    fitness: HashMap<Box<[u64]>, f64>,
    bytes: usize,
    budget: usize,
}

impl ColumnMemo {
    fn new(budget: usize) -> Self {
        ColumnMemo {
            fitness: HashMap::new(),
            bytes: 0,
            budget,
        }
    }

    /// The bytes one entry under `key` costs: the key and the map slot.
    fn entry_bytes(key: &[u64]) -> usize {
        std::mem::size_of_val(key) + std::mem::size_of::<(Box<[u64]>, f64)>()
    }

    /// Stores `fitness` under `key` unless that would pass the budget.
    fn insert(&mut self, key: Box<[u64]>, fitness: f64) {
        let cost = Self::entry_bytes(&key);
        if self.bytes + cost <= self.budget && self.fitness.insert(key, fitness).is_none() {
            self.bytes += cost;
        }
    }

    fn clear(&mut self) {
        self.fitness.clear();
        self.bytes = 0;
    }
}

/// A column's identity: the bits of its values. Columns with equal keys
/// are the same column, both for fitness reuse and for the driver's
/// duplicate-feature refusal.
fn bit_key(column: &[f64]) -> Box<[u64]> {
    column.iter().map(|v| v.to_bits()).collect()
}

/// The fitness-memo key of a candidate column: its [`bit_key`], except
/// that every constant column shares the empty key. The trainer skips a
/// feature whose first and last sorted values compare equal (DESIGN §19),
/// so a constant candidate never offers a threshold at any node: its trees
/// are the base-only trees whatever its value.
fn memo_key(column: &[f64]) -> Box<[u64]> {
    match column.first() {
        Some(&first) if column.iter().all(|&v| v == first) => Box::default(),
        _ => bit_key(column),
    }
}

impl<'e> FitnessHarness<'e> {
    /// Candidate fitness: evaluate the column, then judge it — or reuse
    /// the judgment of a column with the same [`memo_key`].
    ///
    /// The cancellable column may return a spurious `None` once the
    /// driver's token flips; the GP engine's commit gate then discards the
    /// whole in-flight generation, so the value can never be memoised.
    /// Without a token installed (worker processes) the path is identical
    /// and never cancels.
    pub(crate) fn fitness(&self, expr: &FeatureExpr) -> Option<f64> {
        let column = self.pool.column_cancellable(expr, self.budget)?;
        Some(self.column_fitness(&column))
    }

    /// The fitness of `column`: the stored judgment of its key, or a fresh
    /// one, stored while the budget allows.
    fn column_fitness(&self, column: &[f64]) -> f64 {
        let key = memo_key(column);
        let stored = self.memo.lock().fitness.get(&key).copied();
        if let Some(fitness) = stored {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return fitness;
        }
        let fitness = self.judge(column);
        self.judged.fetch_add(1, Ordering::Relaxed);
        self.memo.lock().insert(key, fitness);
        fitness
    }

    /// Judges `column`: append it to the base columns, train/validate on
    /// every internal split, average.
    fn judge(&self, column: &[f64]) -> f64 {
        let Some(data) = fitness_dataset(&self.base_columns, column, &self.labels, self.n_classes)
        else {
            return 0.0;
        };
        let mut presorted = self.base_presorted.clone();
        presorted.push_column(column);
        let total: f64 = self
            .splits
            .iter()
            .map(|(train_idx, valid_idx)| {
                model_speedup(&data, &presorted, &self.tables, train_idx, valid_idx, &self.tree)
            })
            .sum();
        total / self.splits.len() as f64
    }

    /// Fitness calls so far: `(judged, reused)`.
    pub(crate) fn fitness_counts(&self) -> (u64, u64) {
        (
            self.judged.load(Ordering::Relaxed),
            self.reused.load(Ordering::Relaxed),
        )
    }

    /// Uncancellable column of `expr` over all examples (base-feature
    /// derivation; must not depend on cancellation timing).
    pub(crate) fn column(&self, expr: &FeatureExpr) -> Option<Vec<f64>> {
        self.pool.column(expr, self.budget)
    }

    /// Whether `column` is bit-identical to an accepted base column.
    pub(crate) fn has_base_column(&self, column: &[f64]) -> bool {
        let key = bit_key(column);
        self.base_columns.iter().any(|base| bit_key(base) == key)
    }

    /// Appends an accepted feature's column to the base set, forgetting
    /// every judgment made against the old base.
    pub(crate) fn push_base_column(&mut self, column: Vec<f64>) {
        self.base_presorted.push_column(&column);
        self.base_columns.push(column);
        self.memo.get_mut().clear();
    }

    /// Routes the driver's cancel token into the pool (see
    /// [`EvalPool::set_cancel`]).
    pub(crate) fn set_cancel(&mut self, cancel: CancelToken) {
        self.pool.set_cancel(cancel);
    }

    /// The evaluation pool (telemetry, column reuse).
    pub(crate) fn pool(&self) -> &EvalPool<'e> {
        &self.pool
    }

    /// Per-example labels (best heuristic values).
    pub(crate) fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Per-example cycle tables.
    pub(crate) fn tables(&self) -> &[Vec<f64>] {
        &self.tables
    }

    /// The fixed internal train/validation splits.
    pub(crate) fn splits(&self) -> &[(Vec<usize>, Vec<usize>)] {
        &self.splits
    }

    /// Number of heuristic classes.
    pub(crate) fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// Assembles one candidate's fitness dataset: the base feature columns plus
/// the candidate column, as rows.
///
/// `None` when the dataset is malformed (the candidate then scores 0.0
/// instead of crashing the search); columns are rectangular by construction
/// so this does not happen in practice.
fn fitness_dataset(
    base_columns: &[Vec<f64>],
    candidate: &[f64],
    labels: &[usize],
    n_classes: usize,
) -> Option<Dataset> {
    let n = labels.len();
    let mut rows: Vec<Vec<f64>> = vec![Vec::with_capacity(base_columns.len() + 1); n];
    for col in base_columns.iter().map(Vec::as_slice).chain([candidate]) {
        for (row, &v) in rows.iter_mut().zip(col.iter()) {
            row.push(v);
        }
    }
    Dataset::new(rows, labels.to_vec(), n_classes).ok()
}

/// Fixed internal splits for the whole search, so every candidate is judged
/// on the same validation loops. With `internal_folds == 1` this is the
/// paper's single 8-of-9 train / 1-of-9 validate split; larger values rotate
/// the holdout and average, reducing fitness variance.
fn internal_splits(cfg: &SearchConfig, n: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    if cfg.internal_folds <= 1 {
        vec![KFold::new(cfg.internal_k, cfg.seed).single_split(n, 1)]
    } else {
        KFold::new(cfg.internal_folds.max(2), cfg.seed)
            .splits(n)
            .into_iter()
            .take(cfg.internal_folds)
            .collect()
    }
}

/// Configurable runner for a [`FeatureSearch`]: adds checkpoint/resume,
/// cooperative cancellation and fault injection to the plain greedy loop.
///
/// ```no_run
/// # use fegen_core::search::{FeatureSearch, SearchConfig, TrainingExample};
/// # let examples: Vec<TrainingExample> = vec![];
/// # let search = FeatureSearch::from_examples(&examples, SearchConfig::quick());
/// let outcome = search
///     .driver()
///     .checkpoint("ckpt-dir", 5)
///     .run(&examples);
/// // ... later, after an interruption:
/// let resumed = search.driver().resume("ckpt-dir", &examples);
/// ```
pub struct SearchDriver<'a> {
    search: &'a FeatureSearch,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    cancel: Option<CancelToken>,
    injector: Option<&'a FaultInjector>,
    telemetry: Telemetry,
    workers: usize,
    launcher: Option<WorkerLauncher>,
}

impl<'a> SearchDriver<'a> {
    /// Enables checkpointing into `dir`, writing a snapshot every `every`
    /// GP generations (and at every outer-loop boundary). The checkpoint
    /// file is removed when the search completes.
    pub fn checkpoint(mut self, dir: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self.checkpoint_every = every.max(1);
        self
    }

    /// Installs a cooperative cancellation token, polled between GP
    /// generations. When it flips, the run stops with
    /// [`SearchError::Interrupted`] — after writing a checkpoint, if
    /// checkpointing is enabled.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Routes every fitness evaluation through `injector`. If no cancel
    /// token was installed yet, the injector's own token is adopted, so
    /// [`crate::faults::FaultKind::Cancel`] plans interrupt the run.
    pub fn fault_injector(mut self, injector: &'a FaultInjector) -> Self {
        if self.cancel.is_none() {
            self.cancel = Some(injector.cancel_token());
        }
        self.injector = Some(injector);
        self
    }

    /// Attaches a telemetry handle. Telemetry is purely observational: it
    /// never draws randomness and never enters checkpoint serialization, so
    /// a run with telemetry is byte-identical to one without.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Worker slots the island coordinator steps islands with, in this
    /// process: slot 0 on the calling thread, the rest on scoped threads.
    /// An execution knob, not a search parameter: any value produces
    /// byte-identical results and checkpoints for a given
    /// [`SearchConfig::topology`] (which is why it lives on the driver,
    /// outside the config fingerprint).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self.launcher = None;
        self
    }

    /// Steps islands in `workers` separate worker processes (or loopback
    /// workers) spawned by `launcher`, one per worker slot. Like
    /// [`SearchDriver::workers`], this is an execution knob, not a search
    /// parameter: for a given [`SearchConfig::topology`] any worker count
    /// and any launcher — or none — produce byte-identical results and
    /// checkpoints.
    pub fn process_workers(mut self, workers: usize, launcher: WorkerLauncher) -> Self {
        self.workers = workers.max(1);
        self.launcher = Some(launcher);
        self
    }

    /// Runs the search from scratch.
    pub fn run(&self, examples: &[TrainingExample]) -> Result<SearchOutcome, SearchError> {
        self.run_inner(examples, None)
    }

    /// Resumes a search from a checkpoint written by an earlier run with
    /// the same configuration and training examples. `path` may be the
    /// checkpoint file or the directory containing it.
    ///
    /// A resumed run continues the exact deterministic trajectory of the
    /// interrupted one: checkpoints are only written at generation
    /// boundaries, and cancellation never perturbs search state, so the
    /// final [`SearchOutcome`] equals an uninterrupted run's.
    pub fn resume(
        &self,
        path: impl AsRef<Path>,
        examples: &[TrainingExample],
    ) -> Result<SearchOutcome, SearchError> {
        let resolved = checkpoint::resolve_path(path.as_ref());
        let ckpt = SearchCheckpoint::load(&resolved)?;
        self.run_inner(examples, Some((resolved, ckpt)))
    }

    fn run_inner(
        &self,
        examples: &[TrainingExample],
        resume: Option<(PathBuf, SearchCheckpoint)>,
    ) -> Result<SearchOutcome, SearchError> {
        let search = self.search;
        let cfg = &search.config;
        if examples.is_empty() {
            return Err(SearchError::EmptyTrainingSet);
        }
        if cfg.gp.population == 0 {
            return Err(SearchError::InvalidConfig {
                detail: "GP population must be positive".into(),
            });
        }
        if cfg.topology.islands == 0 {
            return Err(SearchError::InvalidConfig {
                detail: "island topology must hold at least one island".into(),
            });
        }
        if cfg.topology.migration_every == 0 {
            return Err(SearchError::InvalidConfig {
                detail: "island migration cadence must be at least one round".into(),
            });
        }
        // One harness for the whole run: every loop is arena-flattened once
        // and every candidate feature is compiled once, then executed over
        // all loops; a repeated candidate is answered by the GP's fitness
        // memo, not re-evaluated. The driver's cancel token reaches into the pool so a
        // shutdown interrupts in-flight fitness columns instead of waiting
        // them out (only the harness's `fitness` consults it; every other
        // column stays timing-independent).
        let mut harness = search.harness(examples)?;
        if let Some(token) = &self.cancel {
            harness.set_cancel(token.clone());
        }

        // Oracle ceiling on the validation loops.
        let oracle_speedup = harness
            .splits()
            .iter()
            .map(|(_, valid_idx)| {
                mean_speedup_at(harness.tables(), valid_idx, |i| {
                    metrics::oracle_choice(&harness.tables()[i])
                })
            })
            .sum::<f64>()
            / harness.splits().len() as f64;

        // Featureless baseline: majority best-factor of each training split.
        let baseline_speedup = harness
            .splits()
            .iter()
            .map(|(train_idx, valid_idx)| {
                let majority =
                    majority_label(train_idx, harness.labels(), harness.n_classes());
                mean_speedup_at(harness.tables(), valid_idx, |_| majority)
            })
            .sum::<f64>()
            / harness.splits().len() as f64;

        // Process workers get the training set as rows, built once here so
        // a loop they cannot take is refused before any worker spawns. The
        // workers themselves connect on the first step of the first GP run
        // and stay for the whole search (each run only sends a `Begin`);
        // `publish` shuts them down on every exit path after the loop.
        let workers = match &self.launcher {
            Some(launcher) => Some((
                WorkerSpec::new(cfg.clone(), search.engine(), &search.grammar, examples)?,
                launcher,
            )),
            None => None,
        };
        let fingerprint = checkpoint::config_fingerprint(cfg);
        // The examples digest identifies a checkpoint, so it is computed
        // only to write or resume one (from the workers' rows when there
        // are any); a search without either never reads it.
        let digest = if self.checkpoint_dir.is_some() || resume.is_some() {
            workers.as_ref().map_or_else(
                || checkpoint::examples_digest(examples),
                |(spec, _)| spec.examples.digest(),
            )
        } else {
            0
        };
        let mut framed = workers
            .map(|(spec, launcher)| {
                Framed::new(spec, launcher.clone(), self.workers, &self.telemetry)
            })
            .transpose()?;

        let _search_span = self.telemetry.span("search");
        self.telemetry
            .event("search_start")
            .u64("examples", examples.len() as u64)
            .u64("max_features", cfg.max_features as u64)
            .u64("max_total_generations", cfg.max_total_generations as u64)
            .f64("baseline_speedup", baseline_speedup)
            .f64("oracle_speedup", oracle_speedup)
            .bool("resumed", resume.is_some())
            .emit();
        self.telemetry.progress(&format!(
            "search: {} example(s), baseline {:.4}, oracle {:.4}",
            examples.len(),
            baseline_speedup,
            oracle_speedup
        ));
        if cfg.internal_folds > 1 {
            // `KFold::splits` clamps rather than yielding empty test folds;
            // surface the clamp (a quarantine-shrunk suite usually causes it).
            let kf = KFold::new(cfg.internal_folds.max(2), cfg.seed);
            let effective = kf.effective_k(examples.len());
            if effective != kf.k() {
                self.telemetry
                    .event("kfold_clamped")
                    .u64("requested", kf.k() as u64)
                    .u64("effective", effective as u64)
                    .u64("examples", examples.len() as u64)
                    .emit();
                self.telemetry.progress(&format!(
                    "warning: internal cross-validation clamped from {} to {} fold(s) \
                     ({} example(s))",
                    kf.k(),
                    effective,
                    examples.len()
                ));
            }
        }

        // Outer state: fresh, or restored from the checkpoint. Feature
        // columns, splits and the baseline are deterministic functions of
        // the inputs and are recomputed rather than stored.
        let mut rng;
        let mut features: Vec<FeatureExpr> = Vec::new();
        let mut steps: Vec<SearchStep> = Vec::new();
        let mut best_speedup = baseline_speedup;
        let mut failed = 0usize;
        let mut total_generations = 0usize;
        let mut pending_islands: Option<IslandsState> = None;
        let resumed_from: Option<PathBuf> = resume.as_ref().map(|(path, _)| path.clone());

        match resume {
            None => {
                rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15);
            }
            Some((path, ckpt)) => {
                ckpt.verify_identity(&path, cfg, digest)?;
                rng = StdRng::from_state(ckpt.rng);
                for text in &ckpt.features {
                    let expr = crate::lang::parse_feature(text).map_err(|e| {
                        CheckpointError::Corrupt {
                            path: path.clone(),
                            detail: format!("unparseable feature `{text}`: {e}"),
                        }
                    })?;
                    let Some(column) = harness.column(&expr) else {
                        return Err(CheckpointError::StateMismatch {
                            path: path.clone(),
                            detail: format!(
                                "checkpointed feature `{text}` no longer evaluates \
                                 on the training examples"
                            ),
                        }
                        .into());
                    };
                    harness.push_base_column(column);
                    features.push(expr);
                }
                for record in &ckpt.steps {
                    let feature =
                        crate::lang::parse_feature(&record.feature).map_err(|e| {
                            CheckpointError::Corrupt {
                                path: path.clone(),
                                detail: format!(
                                    "unparseable step feature `{}`: {e}",
                                    record.feature
                                ),
                            }
                        })?;
                    steps.push(SearchStep {
                        feature,
                        speedup: record.speedup,
                        generations: record.generations,
                    });
                }
                best_speedup = ckpt.best_speedup;
                failed = ckpt.failed;
                total_generations = ckpt.total_generations;
                pending_islands = match &ckpt.islands {
                    None => None,
                    Some(snapshot) => {
                        // The fingerprint already binds the topology, but a
                        // hand-edited snapshot can still disagree with its
                        // own fingerprint field — reject it explicitly
                        // rather than indexing out of step with the config.
                        if snapshot.islands.len() != cfg.topology.islands {
                            return Err(CheckpointError::StateMismatch {
                                path: path.clone(),
                                detail: format!(
                                    "checkpoint holds {} island(s), configuration expects {}",
                                    snapshot.islands.len(),
                                    cfg.topology.islands
                                ),
                            }
                            .into());
                        }
                        Some(IslandsState::from_snapshot(snapshot).map_err(|e| {
                            CheckpointError::Corrupt {
                                path: path.clone(),
                                detail: e,
                            }
                        })?)
                    }
                };
            }
        }

        self.telemetry
            .event("islands_start")
            .u64("islands", cfg.topology.islands as u64)
            .u64("migration_every", cfg.topology.migration_every as u64)
            .u64("restart_limit", cfg.topology.restart_limit as u64)
            .u64("workers", self.workers as u64)
            .str(
                "executor",
                self.launcher
                    .as_ref()
                    .map_or("in-process", WorkerLauncher::kind),
            )
            .bool("resumed_mid_round", pending_islands.is_some())
            .emit();

        while features.len() < cfg.max_features
            && failed < cfg.max_failed_additions
            && total_generations < cfg.max_total_generations
        {
            let mut gp = cfg.gp.clone();
            // Never exceed the outer generation budget.
            gp.max_generations = gp
                .max_generations
                .min(cfg.max_total_generations - total_generations);
            let engine = GpEngine::new(&search.grammar, gp);
            // A restored mid-GP state already consumed its seed draw(s)
            // before the checkpoint was written; drawing again would fork
            // the deterministic trajectory.
            let islands = match pending_islands.take() {
                Some(state) => state,
                None => IslandsState::init(&engine, &cfg.topology, &mut rng),
            };
            // The outer loop's progress, captured with the RNG state *after*
            // this run's seed draw so mid-GP checkpoints describe the
            // enclosing search.
            let progress = SearchCheckpoint {
                version: CHECKPOINT_VERSION,
                config_fingerprint: fingerprint,
                examples_digest: digest,
                rng: rng.state(),
                features: features.iter().map(|f| f.to_string()).collect(),
                steps: steps
                    .iter()
                    .map(|s| StepRecord {
                        feature: s.feature.to_string(),
                        speedup: s.speedup,
                        generations: s.generations,
                    })
                    .collect(),
                best_speedup,
                failed,
                total_generations,
                islands: None,
            };
            let run = self.drive(&engine, islands, &progress, &harness, framed.as_mut());
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    // Publish what the pool and the workers did before
                    // surfacing the interruption, so a killed run's log
                    // still carries its cache and frame statistics.
                    self.publish(framed.take(), &harness);
                    return Err(e);
                }
            };
            total_generations += run.generations;
            let step_generations = run.generations;
            let step_quality = run
                .best
                .as_ref()
                .map_or(f64::NAN, |b| b.quality);

            match run.best {
                Some(best) if best.quality > best_speedup + 1e-12 => {
                    // Re-derive the winning column; a feature that stops
                    // evaluating (flaky evaluator) costs this addition,
                    // not the search. So does a column bit-identical to an
                    // accepted one: it adds no information, so its gain can
                    // only come from the tree's tie-breaking.
                    match harness.column(&best.expr) {
                        Some(column) if !harness.has_base_column(&column) => {
                            best_speedup = best.quality;
                            harness.push_base_column(column);
                            steps.push(SearchStep {
                                feature: best.expr.clone(),
                                speedup: best.quality,
                                generations: run.generations,
                            });
                            features.push(best.expr);
                            failed = 0;
                        }
                        _ => failed += 1,
                    }
                }
                _ => {
                    failed += 1;
                }
            }

            self.telemetry
                .event("feature_step")
                .u64("features", features.len() as u64)
                .u64("generations", step_generations as u64)
                .u64("total_generations", total_generations as u64)
                .f64("candidate_speedup", step_quality)
                .f64("best_speedup", best_speedup)
                .u64("failed", failed as u64)
                .emit();
            self.telemetry.progress(&format!(
                "search: {} feature(s), best speedup {:.4}, {} generation(s), {} failed addition(s)",
                features.len(),
                best_speedup,
                total_generations,
                failed
            ));

            // Outer-boundary checkpoint: the completed step is durable even
            // if the next GP run never writes one.
            if self.checkpoint_dir.is_some() {
                let progress = SearchCheckpoint {
                    version: CHECKPOINT_VERSION,
                    config_fingerprint: fingerprint,
                    examples_digest: digest,
                    rng: rng.state(),
                    features: features.iter().map(|f| f.to_string()).collect(),
                    steps: steps
                        .iter()
                        .map(|s| StepRecord {
                            feature: s.feature.to_string(),
                            speedup: s.speedup,
                            generations: s.generations,
                        })
                        .collect(),
                    best_speedup,
                    failed,
                    total_generations,
                    islands: None,
                };
                if let Err(e) = self.write_checkpoint(&progress, None) {
                    self.publish(framed.take(), &harness);
                    return Err(e);
                }
            }
        }
        self.publish(framed.take(), &harness);

        // A completed search leaves no checkpoint behind; a crash after
        // this point re-runs the search, it does not resume a stale state.
        // This covers both the driver's own checkpoint directory and the
        // file a resumed run was loaded from.
        if let Some(dir) = &self.checkpoint_dir {
            let _ = std::fs::remove_file(dir.join(checkpoint::CHECKPOINT_FILE));
        }
        if let Some(path) = &resumed_from {
            let _ = std::fs::remove_file(path);
        }

        self.telemetry
            .event("search_done")
            .u64("features", features.len() as u64)
            .u64("total_generations", total_generations as u64)
            .f64("best_speedup", best_speedup)
            .f64("oracle_speedup", oracle_speedup)
            .emit();
        self.telemetry.progress(&format!(
            "search done: {} feature(s), speedup {:.4} of oracle {:.4}",
            features.len(),
            best_speedup,
            oracle_speedup
        ));

        Ok(SearchOutcome {
            features,
            steps,
            baseline_speedup,
            oracle_speedup,
            total_generations,
        })
    }

    /// Shuts the search's worker processes down, if any — tallying their
    /// frame counters — then publishes the pool statistics, this process's
    /// fitness reuse counts and every metric.
    fn publish(&self, framed: Option<Framed>, harness: &FitnessHarness<'_>) {
        if let Some(executor) = framed {
            executor.shutdown();
        }
        harness.pool().record_telemetry(&self.telemetry);
        let (judged, reused) = harness.fitness_counts();
        self.telemetry.gauge_set("fitness.judged", judged as f64);
        self.telemetry.gauge_set("fitness.reused", reused as f64);
        self.telemetry.emit_metrics("eval_pool");
    }

    /// Drives one per-feature GP run through the island round loop, on
    /// the search's worker processes when there are any and in process
    /// otherwise. In process, the fault injector wraps the fitness function
    /// as well as keying the island steps.
    fn drive(
        &self,
        engine: &GpEngine<'_>,
        state: IslandsState,
        progress: &SearchCheckpoint,
        harness: &FitnessHarness<'_>,
        framed: Option<&mut Framed>,
    ) -> Result<GpRun, SearchError> {
        let cancel = self.cancel.as_ref();
        let fitness = |expr: &FeatureExpr| harness.fitness(expr);
        match (framed, self.injector) {
            (Some(executor), _) => {
                // `Begin` ships the *effective* GP config — with
                // `max_generations` already clamped to the remaining outer
                // budget — so the worker's convergence decisions match the
                // ones this process would make.
                executor.begin(engine.config().clone(), progress.features.clone())?;
                self.rounds(&*executor, engine, state, progress)
            }
            (None, Some(injector)) => {
                let wrapped = injector.wrap(&fitness);
                self.rounds(
                    &InProcess::new(engine, &wrapped, cancel),
                    engine,
                    state,
                    progress,
                )
            }
            (None, None) => self.rounds(
                &InProcess::new(engine, &fitness, cancel),
                engine,
                state,
                progress,
            ),
        }
    }

    /// Runs rounds until every island converged, froze or the outer budget
    /// is spent, writing periodic checkpoints — always at round boundaries,
    /// so the checkpoint bytes are independent of the worker count, the
    /// executor, and where a kill landed inside the round.
    fn rounds<E: IslandExecutor>(
        &self,
        executor: &E,
        engine: &GpEngine<'_>,
        mut state: IslandsState,
        progress: &SearchCheckpoint,
    ) -> Result<GpRun, SearchError> {
        let cfg = &self.search.config;
        let mut coordinator = IslandCoordinator::new(
            executor,
            cfg.topology.clone(),
            engine.config().parsimony,
            Supervision {
                workers: self.workers,
                cancel: self.cancel.as_ref(),
                injector: self.injector,
                telemetry: self.telemetry.clone(),
            },
        );
        let mut since_checkpoint = 0usize;
        loop {
            if progress.total_generations + state.generations() >= cfg.max_total_generations {
                // Out of outer budget: merge what the islands found so far.
                return Ok(coordinator.merge(&state));
            }
            match coordinator.round(&mut state) {
                RoundStatus::Done => return Ok(coordinator.merge(&state)),
                RoundStatus::Interrupted => {
                    // Nothing from the broken round was committed: the
                    // state — and therefore the checkpoint — sits at the
                    // previous round boundary, whatever the worker count
                    // and wherever the interruption landed.
                    let checkpoint = self.write_checkpoint(progress, Some(state.snapshot()))?;
                    return Err(SearchError::Interrupted {
                        checkpoint,
                        total_generations: progress.total_generations + state.generations(),
                    });
                }
                RoundStatus::Running => {
                    since_checkpoint += 1;
                    if self.checkpoint_dir.is_some() && since_checkpoint >= self.checkpoint_every {
                        self.write_checkpoint(progress, Some(state.snapshot()))?;
                        since_checkpoint = 0;
                    }
                }
            }
        }
    }

    /// Writes `progress` with the in-flight GP run's `islands`, if
    /// checkpointing is enabled.
    fn write_checkpoint(
        &self,
        progress: &SearchCheckpoint,
        islands: Option<IslandsSnapshot>,
    ) -> Result<Option<PathBuf>, SearchError> {
        let Some(dir) = &self.checkpoint_dir else {
            return Ok(None);
        };
        let rounds = islands.as_ref().map(|i| i.round);
        let ckpt = SearchCheckpoint {
            islands,
            ..progress.clone()
        };
        let started = std::time::Instant::now();
        let path = ckpt.save(dir)?;
        self.telemetry
            .event("checkpoint")
            .u64("dur_us", started.elapsed().as_micros() as u64)
            .u64("features", ckpt.features.len() as u64)
            .u64("total_generations", ckpt.total_generations as u64)
            .u64("rounds", rounds.unwrap_or(0) as u64)
            .bool("mid_gp", rounds.is_some())
            .emit();
        Ok(Some(path))
    }
}

fn majority_label(indices: &[usize], labels: &[usize], n_classes: usize) -> usize {
    let mut counts = vec![0usize; n_classes];
    for &i in indices {
        counts[labels[i]] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(i, &c)| (c, usize::MAX - i))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn mean_speedup_at(
    tables: &[Vec<f64>],
    indices: &[usize],
    mut choose: impl FnMut(usize) -> usize,
) -> f64 {
    if indices.is_empty() {
        return 1.0;
    }
    indices
        .iter()
        .map(|&i| metrics::speedup(&tables[i], choose(i)))
        .sum::<f64>()
        / indices.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic task: loops whose best unroll factor is fully determined
    /// by a discoverable IR property (the number of `insn` children),
    /// while a decoy attribute is uninformative.
    fn synthetic_examples(n: usize) -> Vec<TrainingExample> {
        (0..n)
            .map(|i| {
                let insns = 1 + i % 5;
                let best = insns % 4; // best factor in 0..4 determined by insns
                let ir = IrNode::build("loop", |l| {
                    l.attr_num("decoy", (i * 7 % 3) as f64);
                    for _ in 0..insns {
                        l.child("insn", |x| {
                            x.attr_enum("mode", "SI");
                        });
                    }
                    l.child("jump_insn", |_| {});
                });
                // Cycle table: best factor costs 80, others 100 + distance.
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

    /// A harder variant of [`synthetic_examples`]: the best factor also
    /// depends on the loop's position in a cycle of three, and a second
    /// decoy-like attribute is present, so the GP often rediscovers a
    /// column it already accepted.
    fn rediscovery_examples(n: usize) -> Vec<TrainingExample> {
        (0..n)
            .map(|i| {
                let insns = 1 + i % 5;
                let best = (insns + i % 3) % 4;
                let ir = IrNode::build("loop", |l| {
                    l.attr_num("decoy", (i * 7 % 3) as f64);
                    l.attr_num("trip", ((i * 13 + 1) % 11) as f64);
                    for _ in 0..insns {
                        l.child("insn", |x| {
                            x.attr_enum("mode", if i % 2 == 0 { "SI" } else { "DI" });
                        });
                    }
                    l.child("jump_insn", |_| {});
                });
                let cycles = (0..4)
                    .map(|k| {
                        if k == best {
                            80.0 + (i % 7) as f64
                        } else {
                            100.0 + (k as f64 - best as f64).abs() * ((i % 5) as f64 + 1.0)
                        }
                    })
                    .collect();
                TrainingExample { ir, cycles }
            })
            .collect()
    }

    #[test]
    fn accepted_features_never_repeat_a_base_column() {
        // Without the acceptance check, seeds 0 and 3 accept
        // `get-attr(@decoy)` a second time: the duplicate column shifts
        // C4.5's tie-breaking enough to "improve" internal validation.
        let examples = rediscovery_examples(40);
        for seed in [0, 3] {
            let mut config = SearchConfig::quick();
            config.seed = seed;
            config.max_features = 6;
            config.max_total_generations = 60;
            config.gp.population = 14;
            config.gp.max_generations = 6;
            config.gp.stagnation_limit = 6;
            let search = FeatureSearch::from_examples(&examples, config);
            let outcome = search.run(&examples);
            assert!(!outcome.features.is_empty(), "seed {seed} finds nothing");
            let columns: Vec<Vec<u64>> = outcome
                .features
                .iter()
                .map(|f| {
                    let column = search
                        .feature_column(f, &examples)
                        .expect("accepted evaluates");
                    column.iter().map(|v| v.to_bits()).collect()
                })
                .collect();
            for (j, column) in columns.iter().enumerate() {
                if let Some(i) = columns[..j].iter().position(|c| c == column) {
                    panic!(
                        "seed {seed}: feature {j} `{}` repeats the column of feature {i} `{}`",
                        outcome.features[j], outcome.features[i]
                    );
                }
            }
        }
    }

    #[test]
    fn reused_fitness_equals_a_fresh_judgment() {
        let examples = rediscovery_examples(40);
        let mut config = SearchConfig::quick();
        config.gp.population = 14;
        config.gp.max_generations = 8;
        config.gp.stagnation_limit = 8;
        let search = FeatureSearch::from_examples(&examples, config.clone());
        let mut harness = search.harness(&examples).expect("harness");
        let mut rng = StdRng::seed_from_u64(3);
        // One GP run against an empty base, one against its winner.
        for run in 0..2 {
            let engine = GpEngine::new(&search.grammar, config.gp.clone());
            // The engine catches a panicking fitness, so the comparisons
            // are collected here and asserted after the run.
            let seen = Mutex::new(Vec::new());
            let fitness = |expr: &FeatureExpr| {
                let got = harness.fitness(expr)?;
                let column = harness.column(expr).expect("a judged column evaluates again");
                let fresh = harness.judge(&column);
                seen.lock().push((expr.to_string(), got.to_bits(), fresh.to_bits()));
                Some(got)
            };
            let best = engine.run(&fitness, &mut rng).best.expect("a valid winner");
            let seen = seen.into_inner();
            assert!(!seen.is_empty());
            for (expr, got, fresh) in &seen {
                assert_eq!(got, fresh, "run {run}: `{expr}` reused a stale fitness");
            }
            let (judged, reused) = harness.fitness_counts();
            assert!(judged > 0 && reused > 0, "run {run}: {judged} judged, {reused} reused");
            let column = harness.column(&best.expr).expect("the winner evaluates");
            harness.push_base_column(column);
        }
    }

    #[test]
    fn constant_columns_score_alike() {
        let examples = synthetic_examples(30);
        let n = examples.len();
        let search = FeatureSearch::from_examples(&examples, SearchConfig::quick());
        let mut harness = search.harness(&examples).expect("harness");
        let informative = crate::lang::parse_feature("count(filter(/*, is-type(insn)))").expect("parses");
        for base in [None, Some(informative)] {
            if let Some(expr) = base {
                let column = harness.column(&expr).expect("evaluates");
                harness.push_base_column(column);
            }
            let (judged, reused) = harness.fitness_counts();
            let expected = harness.judge(&vec![0.0; n]).to_bits();
            for value in [0.0, 7.0, -3.5] {
                let column = vec![value; n];
                assert_eq!(harness.judge(&column).to_bits(), expected, "fresh {value}");
                assert_eq!(harness.column_fitness(&column).to_bits(), expected, "{value}");
            }
            assert_eq!(harness.fitness_counts(), (judged + 1, reused + 2));
        }
    }

    #[test]
    fn a_new_base_column_forgets_every_judgment() {
        let examples = synthetic_examples(30);
        let search = FeatureSearch::from_examples(&examples, SearchConfig::quick());
        let mut harness = search.harness(&examples).expect("harness");
        let expr = crate::lang::parse_feature("count(filter(/*, is-type(insn)))").expect("parses");
        let first = harness.fitness(&expr).expect("evaluates");
        assert_eq!(harness.fitness(&expr), Some(first));
        assert_eq!(harness.fitness_counts(), (1, 1));
        let column = harness.column(&expr).expect("evaluates");
        harness.push_base_column(column.clone());
        let again = harness.fitness(&expr).expect("evaluates");
        assert_eq!(harness.fitness_counts(), (2, 1), "judged afresh");
        assert_eq!(again.to_bits(), harness.judge(&column).to_bits());
    }

    #[test]
    fn past_the_byte_budget_columns_are_judged_but_not_stored() {
        let examples = synthetic_examples(30);
        let n = examples.len();
        let search = FeatureSearch::from_examples(&examples, SearchConfig::quick());
        let mut harness = search.harness(&examples).expect("harness");
        let columns: Vec<Vec<f64>> = (2..6)
            .map(|k| (0..n).map(|i| (i * k % 7) as f64).collect())
            .collect();
        // Room for exactly one column.
        let entry = ColumnMemo::entry_bytes(&bit_key(&columns[0]));
        *harness.memo.get_mut() = ColumnMemo::new(entry);
        for _ in 0..2 {
            for column in &columns {
                let fresh = harness.judge(column).to_bits();
                assert_eq!(harness.column_fitness(column).to_bits(), fresh);
            }
        }
        assert_eq!(harness.fitness_counts(), (4 + 3, 1));
        let memo = harness.memo.get_mut();
        assert_eq!((memo.fitness.len(), memo.bytes), (1, entry));
    }

    #[test]
    fn training_example_helpers() {
        let e = TrainingExample {
            ir: IrNode::new("loop"),
            cycles: vec![100.0, 90.0, 120.0],
        };
        assert_eq!(e.best_value(), 1);
        assert!((e.speedup(1) - 100.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn search_finds_informative_feature_and_improves() {
        let examples = synthetic_examples(60);
        let mut config = SearchConfig::quick();
        config.max_features = 3;
        config.seed = 11;
        let search = FeatureSearch::from_examples(&examples, config);
        let outcome = search.run(&examples);
        assert!(
            !outcome.features.is_empty(),
            "search should find at least one improving feature"
        );
        let final_speedup = outcome.steps.last().unwrap().speedup;
        assert!(
            final_speedup > outcome.baseline_speedup,
            "final {final_speedup} must beat baseline {}",
            outcome.baseline_speedup
        );
    }

    #[test]
    fn speedups_are_monotone_across_steps() {
        let examples = synthetic_examples(50);
        let search = FeatureSearch::from_examples(&examples, SearchConfig::quick());
        let outcome = search.run(&examples);
        let mut prev = outcome.baseline_speedup;
        for step in &outcome.steps {
            assert!(step.speedup > prev, "non-improving step was accepted");
            prev = step.speedup;
        }
    }

    #[test]
    fn respects_total_generation_budget() {
        let examples = synthetic_examples(30);
        let mut config = SearchConfig::quick();
        config.max_total_generations = 10;
        let search = FeatureSearch::from_examples(&examples, config);
        let outcome = search.run(&examples);
        assert!(outcome.total_generations <= 10 + SearchConfig::quick().gp.max_generations);
    }

    #[test]
    fn feature_matrix_defaults_failures_to_zero() {
        let examples = synthetic_examples(5);
        let mut config = SearchConfig::quick();
        config.eval_budget_per_example = 1; // everything times out
        let search = FeatureSearch::from_examples(&examples, config);
        let f = crate::lang::parse_feature("count(//*)").unwrap();
        let m = search.feature_matrix(&[f], &examples);
        assert!(m.iter().all(|row| row == &vec![0.0]));
    }

    #[test]
    fn feature_column_rejects_timeouts() {
        let examples = synthetic_examples(5);
        let mut config = SearchConfig::quick();
        config.eval_budget_per_example = 1;
        let search = FeatureSearch::from_examples(&examples, config);
        let f = crate::lang::parse_feature("count(//*)").unwrap();
        assert_eq!(search.feature_column(&f, &examples), None);
    }

    #[test]
    fn engines_produce_identical_outcomes() {
        // The compiled VM is an execution strategy, not a semantic change:
        // the whole search — accepted features, speedups, generation counts
        // — must be equal between engines.
        let examples = synthetic_examples(40);
        let mut config = SearchConfig::quick();
        config.max_features = 2;
        config.seed = 7;
        let run = |engine: EvalEngine| {
            FeatureSearch::from_examples(&examples, config.clone())
                .with_engine(engine)
                .run(&examples)
        };
        let compiled = run(EvalEngine::Compiled);
        let interpreted = run(EvalEngine::Interpreter);
        assert_eq!(compiled, interpreted);
        assert!(!compiled.features.is_empty());
    }

    #[test]
    fn deterministic_outcome_for_fixed_seed() {
        let examples = synthetic_examples(40);
        let run = |seed: u64| {
            let mut config = SearchConfig::quick();
            config.seed = seed;
            config.max_features = 2;
            FeatureSearch::from_examples(&examples, config).run(&examples)
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.features, b.features);
        assert_eq!(a.total_generations, b.total_generations);
    }
}
