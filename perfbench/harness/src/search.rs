//! `search` and `search-islands`: one outer fold of the paper's protocol
//! (`methods::try_predict_cv_ours`) over the quick suite's measured loops:
//! derive the grammar from the training loops, run the GP feature search,
//! deploy a C4.5 tree over the found features and predict the held-out
//! loops.
//!
//! `search` runs a single population on one thread in process.
//! `search-islands` runs four islands over two `fegen island-worker`
//! processes on stdio, checkpointing at `SearchDriver`'s default cadence.

use crate::common::{
    fields_of, kind, last_metric, median, peak_rss_mib, quantile, ratio, repeated_setup,
    suite_data, telemetry_events,
};
use crate::{Args, Outcome};
use fegen_bench::ExperimentConfig;
use fegen_core::gp::engine::GpStatus;
use fegen_core::gp::GpEngine;
use fegen_core::{
    stable_hash, ChannelKind, EvalPool, FeatureExpr, FeatureSearch, Grammar, IslandTopology,
    SearchConfig, SearchOutcome, Telemetry, TelemetryConfig, TrainingExample, WorkerLauncher,
};
use fegen_ml::metrics::{mean_oracle_speedup, mean_speedup, percent_of_max, speedup};
use fegen_ml::{Dataset, DecisionTree, KFold, Presorted, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The outer fold both search workloads search.
const FOLD: usize = 1;
/// Unroll-factor classes (as `methods::N_CLASSES`).
const N_CLASSES: usize = 16;
/// Set-ups timed per run.
const SETUP_REPEATS: usize = 2;
/// Island topology of `search-islands`.
const ISLANDS: usize = 4;
const MIGRATION_EVERY: usize = 5;
/// Outer generation budget of `search-islands`: four islands at the quick
/// preset's 400 would run for over a minute per fold.
const ISLAND_GENERATIONS: usize = 40;
/// `fegen island-worker` processes.
const PROC_WORKERS: usize = 2;
/// Generations between checkpoints (`SearchDriver`'s default cadence).
const CHECKPOINT_EVERY: usize = 5;

/// Digest of the found feature list and bits of `search.pct_of_max` of
/// the seed commit, per mode.
const GOLDEN_SINGLE: (u64, u64) = (0xdf57_0fd4_a747_2259, 0x404a_e7dc_9498_de66);
const GOLDEN_ISLANDS: (u64, u64) = (0xa8d2_a543_4c91_dc2b, 0x4049_ff87_362c_f799);

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    Single,
    Islands,
}

/// How a fold's search is executed.
enum Runner<'a> {
    /// `SearchDriver`'s default: one population, in process.
    InProcess,
    /// Island rounds on worker threads.
    Threads,
    /// Island rounds on `fegen island-worker` processes, checkpointing.
    Procs {
        fegen: &'a Path,
        checkpoint: PathBuf,
    },
}

/// The searched fold: its training and held-out loops and its search
/// configuration.
struct Fold {
    train: Vec<TrainingExample>,
    test: Vec<TrainingExample>,
    cfg: SearchConfig,
}

/// One fold searched and deployed.
struct FoldRun {
    outcome: SearchOutcome,
    /// Seconds in the search (grammar derivation included).
    search_s: f64,
    /// Seconds deploying: final feature matrices, tree, held-out predict.
    deploy_s: f64,
    /// Share of the oracle's gain over no unrolling the deployed tree gets
    /// on the held-out loops, in percent.
    pct: f64,
}

impl FoldRun {
    fn total_s(&self) -> f64 {
        self.search_s + self.deploy_s
    }
}

pub fn run(args: &Args, out: &mut Outcome, mode: Mode) -> Result<(), String> {
    let dataset = args.work.join("dataset");
    let (fold, setup_s) = repeated_setup(SETUP_REPEATS, || setup(&dataset, mode))?;
    if args.trace {
        return match mode {
            Mode::Single => traced_single(args, out, &fold),
            Mode::Islands => traced_islands(args, out, &fold),
        };
    }
    let main = match mode {
        Mode::Single => Runner::InProcess,
        Mode::Islands => procs(args),
    };
    let started = Instant::now();
    let mut units = Vec::new();
    let mut rates = Vec::new();
    while units.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let r = search_fold(&fold, &main, None)?;
        out.op(gate(&r, mode));
        let candidates =
            r.outcome.total_generations * fold.cfg.gp.population * fold.cfg.topology.islands;
        units.push(r.total_s());
        rates.push(candidates as f64 / r.total_s());
    }
    out.metrics.set("setup_s", setup_s);
    out.metrics.set("unit_s", median(&units));
    out.metrics.set("items_per_s", median(&rates));
    out.metrics.set("peak_rss_mib", peak_rss_mib(None)?);
    Ok(())
}

/// The `search-islands` runner: `fegen island-worker` processes,
/// checkpointing under the run's work directory.
fn procs(args: &Args) -> Runner<'_> {
    Runner::Procs {
        fegen: &args.fegen,
        checkpoint: checkpoint_dir(args),
    }
}

fn checkpoint_dir(args: &Args) -> PathBuf {
    args.work.join("checkpoint")
}

/// Measures the suite, loads it and splits out the searched fold.
fn setup(dataset: &Path, mode: Mode) -> Result<Fold, String> {
    let (data, _) = suite_data(dataset)?;
    let config = ExperimentConfig::quick();
    let examples = data.training_examples();
    let (train, test) = KFold::new(config.folds, config.seed)
        .splits(examples.len())
        .into_iter()
        .nth(FOLD)
        .ok_or("the suite has fewer loops than folds")?;
    let mut cfg = config.search.clone();
    // The per-fold seed `try_predict_cv_ours` derives.
    cfg.seed = config.seed ^ (FOLD as u64).wrapping_mul(0x9e37);
    if mode == Mode::Islands {
        cfg.topology = IslandTopology {
            islands: ISLANDS,
            migration_every: MIGRATION_EVERY,
            ..IslandTopology::single()
        };
        cfg.max_total_generations = ISLAND_GENERATIONS;
    }
    let pick = |idx: &[usize]| idx.iter().map(|&i| examples[i].clone()).collect();
    Ok(Fold {
        train: pick(&train),
        test: pick(&test),
        cfg,
    })
}

/// Searches and deploys the fold, as one fold of `try_predict_cv_ours`.
fn search_fold(
    fold: &Fold,
    runner: &Runner,
    telemetry: Option<Telemetry>,
) -> Result<FoldRun, String> {
    let started = Instant::now();
    let fs = FeatureSearch::from_examples(&fold.train, fold.cfg.clone());
    let mut driver = fs.driver();
    if let Some(t) = telemetry {
        driver = driver.telemetry(t);
    }
    driver = match runner {
        Runner::InProcess => driver,
        Runner::Threads => driver.workers(PROC_WORKERS),
        Runner::Procs { fegen, checkpoint } => {
            let _ = std::fs::remove_dir_all(checkpoint);
            let launcher = WorkerLauncher::Command {
                argv: vec![fegen.display().to_string(), "island-worker".into()],
                channel: ChannelKind::Stdio,
            };
            driver
                .process_workers(PROC_WORKERS, launcher)
                .checkpoint(checkpoint.clone(), CHECKPOINT_EVERY)
        }
    };
    let outcome = driver
        .run(&fold.train)
        .map_err(|e| format!("fold {FOLD} search: {e}"))?;
    let search_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let pct = deploy(&fs, &outcome, fold);
    Ok(FoldRun {
        outcome,
        search_s,
        deploy_s: started.elapsed().as_secs_f64(),
        pct,
    })
}

/// Trains the final tree over the found features on the training loops
/// and scores its held-out predictions against the oracle, the way
/// `try_predict_cv_ours` deploys a fold.
fn deploy(fs: &FeatureSearch, outcome: &SearchOutcome, fold: &Fold) -> f64 {
    let labels: Vec<usize> = fold.train.iter().map(TrainingExample::best_value).collect();
    let model = if outcome.features.is_empty() {
        None
    } else {
        let matrix = fs.feature_matrix(&outcome.features, &fold.train);
        Dataset::new(matrix, labels.clone(), N_CLASSES)
            .ok()
            .map(|ds| DecisionTree::train(&ds, &fold.cfg.tree))
    };
    let majority = majority(&labels);
    let matrix = fs.feature_matrix(&outcome.features, &fold.test);
    let choices: Vec<usize> = matrix
        .iter()
        .map(|row| model.as_ref().map_or(majority, |m| m.predict(row)))
        .collect();
    let tables: Vec<Vec<f64>> = fold.test.iter().map(|e| e.cycles.clone()).collect();
    100.0
        * percent_of_max(
            mean_speedup(&tables, &choices),
            mean_oracle_speedup(&tables),
        )
}

/// The most frequent label, ties to the smallest.
fn majority(labels: &[usize]) -> usize {
    let mut counts = [0usize; N_CLASSES];
    for &y in labels {
        counts[y] += 1;
    }
    (0..N_CLASSES)
        .max_by_key(|&i| (counts[i], usize::MAX - i))
        .unwrap_or(0)
}

/// The search gate: the found features and the held-out score equal the
/// seed commit's, bit for bit.
fn gate(r: &FoldRun, mode: Mode) -> bool {
    let (want_features, want_pct) = match mode {
        Mode::Single => GOLDEN_SINGLE,
        Mode::Islands => GOLDEN_ISLANDS,
    };
    let got = feature_digest(&r.outcome.features);
    let ok = got == want_features && r.pct.to_bits() == want_pct;
    if !ok {
        eprintln!(
            "perfbench: search gate failed: features {got:#018x}, pct {} ({:#018x}); \
             want {want_features:#018x}, {want_pct:#018x}",
            r.pct,
            r.pct.to_bits()
        );
        for f in &r.outcome.features {
            eprintln!("perfbench:   {f}");
        }
    }
    ok
}

fn feature_digest(features: &[FeatureExpr]) -> u64 {
    let text: Vec<String> = features.iter().map(|f| f.to_string()).collect();
    stable_hash(text.join("\n").as_bytes())
}

/// A telemetry handle logging into `dir`.
fn telemetry_into(dir: &Path) -> Result<Telemetry, String> {
    TelemetryConfig {
        dir: Some(dir.to_path_buf()),
        ..TelemetryConfig::default()
    }
    .build()
    .map_err(|e| format!("telemetry: {e}"))
}

/// Per-candidate stage times of the replayed fitness function, in µs.
#[derive(Default)]
struct StageTimes {
    column: Vec<f64>,
    assemble: Vec<f64>,
    /// One entry per internal split trained.
    train: Vec<f64>,
    validate: Vec<f64>,
}

/// The search's fitness function rebuilt from public pieces, timing each:
/// evaluate the candidate's column (`lang`), assemble the row-major
/// dataset and presort it (`search`), then per internal split train the
/// tree (`ml`) and score its validation predictions.
struct Replay<'e> {
    pool: EvalPool<'e>,
    labels: Vec<usize>,
    tables: Vec<Vec<f64>>,
    splits: Vec<(Vec<usize>, Vec<usize>)>,
    n_classes: usize,
    tree: TreeConfig,
    budget: u64,
    base: Vec<Vec<f64>>,
    times: Mutex<StageTimes>,
}

impl<'e> Replay<'e> {
    fn new(fs: &FeatureSearch, examples: &'e [TrainingExample]) -> Replay<'e> {
        let cfg = fs.config();
        // The search's fixed internal splits.
        let splits = if cfg.internal_folds <= 1 {
            vec![KFold::new(cfg.internal_k, cfg.seed).single_split(examples.len(), 1)]
        } else {
            KFold::new(cfg.internal_folds.max(2), cfg.seed)
                .splits(examples.len())
                .into_iter()
                .take(cfg.internal_folds)
                .collect()
        };
        Replay {
            pool: fs.pool(examples),
            labels: examples.iter().map(TrainingExample::best_value).collect(),
            tables: examples.iter().map(|e| e.cycles.clone()).collect(),
            splits,
            n_classes: examples.iter().map(|e| e.cycles.len()).max().unwrap_or(0),
            tree: cfg.tree.clone(),
            budget: cfg.eval_budget_per_example,
            base: Vec::new(),
            times: Mutex::new(StageTimes::default()),
        }
    }

    /// Sets the base features the candidates extend.
    fn set_base(&mut self, features: &[FeatureExpr]) -> Result<(), String> {
        self.base = features
            .iter()
            .map(|f| {
                self.pool
                    .column(f, self.budget)
                    .ok_or_else(|| format!("base feature `{f}` no longer evaluates"))
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn fitness(&self, expr: &FeatureExpr) -> Option<f64> {
        let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
        let mut stages = [0.0f64; 3];
        let mut train = Vec::with_capacity(self.splits.len());
        let result = (|| {
            let t = Instant::now();
            let column = self.pool.column(expr, self.budget);
            stages[0] = us(t);
            let column = column?;
            let t = Instant::now();
            let mut rows: Vec<Vec<f64>> =
                vec![Vec::with_capacity(self.base.len() + 1); self.labels.len()];
            for col in self.base.iter().chain(std::iter::once(&column)) {
                for (row, &v) in rows.iter_mut().zip(col) {
                    row.push(v);
                }
            }
            let Ok(data) = Dataset::new(rows, self.labels.clone(), self.n_classes) else {
                stages[1] = us(t);
                return Some(0.0);
            };
            let presorted = Presorted::new(&data);
            stages[1] = us(t);
            let total: f64 = self
                .splits
                .iter()
                .map(|(train_idx, valid_idx)| {
                    let t = Instant::now();
                    let tree = DecisionTree::train_on(&data, &presorted, train_idx, &self.tree);
                    train.push(us(t));
                    let t = Instant::now();
                    let score =
                        mean_speedup_at(&self.tables, valid_idx, |i| tree.predict(data.row(i)));
                    stages[2] += us(t);
                    score
                })
                .sum();
            Some(total / self.splits.len() as f64)
        })();
        let mut times = self.times.lock().expect("stage times lock");
        times.column.push(stages[0]);
        times.assemble.push(stages[1]);
        times.validate.push(stages[2]);
        times.train.extend(train);
        result
    }

    fn take_times(&self) -> StageTimes {
        std::mem::take(&mut *self.times.lock().expect("stage times lock"))
    }
}

/// Mean speedup of `choose` over the loops at `indices` (the search's
/// validation score).
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
        .map(|&i| speedup(&tables[i], choose(i)))
        .sum::<f64>()
        / indices.len() as f64
}

/// Replay self-check: the rebuilt fitness of each accepted feature, over
/// the features accepted before it, equals the search's recorded step
/// score bit for bit — so the per-layer times describe the same function.
fn check_replay(replay: &mut Replay, outcome: &SearchOutcome) -> Result<bool, String> {
    let mut ok = true;
    for (i, step) in outcome.steps.iter().enumerate() {
        replay.set_base(&outcome.features[..i])?;
        let got = replay.fitness(&step.feature);
        if got.map(f64::to_bits) != Some(step.speedup.to_bits()) {
            eprintln!(
                "perfbench: replay of step {i} scored {got:?}, the search recorded {}",
                step.speedup
            );
            ok = false;
        }
    }
    replay.take_times();
    Ok(ok)
}

/// Replays the single-population search's outer loop — `SearchDriver`'s
/// RNG stream, one GP run per feature step, the acceptance rule — with the
/// rebuilt fitness function. Returns the accepted features and the fitness
/// evaluations spent; on the same inputs they must equal the real run's.
fn replay_search(
    fs: &FeatureSearch,
    replay: &mut Replay,
    baseline_speedup: f64,
) -> Result<(Vec<FeatureExpr>, usize), String> {
    let cfg = fs.config();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut features: Vec<FeatureExpr> = Vec::new();
    let (mut best, mut failed, mut generations, mut evaluations) = (baseline_speedup, 0, 0, 0);
    replay.set_base(&[])?;
    while features.len() < cfg.max_features
        && failed < cfg.max_failed_additions
        && generations < cfg.max_total_generations
    {
        let mut gp = cfg.gp.clone();
        gp.max_generations = gp
            .max_generations
            .min(cfg.max_total_generations - generations);
        let engine = GpEngine::new(fs.grammar(), gp);
        let mut state = engine.init_state(StdRng::seed_from_u64(rng.gen()));
        let fitness = |e: &FeatureExpr| replay.fitness(e);
        while let GpStatus::Running = engine.step(&mut state, &fitness) {}
        let run = state.into_run();
        generations += run.generations;
        evaluations += run.evaluations;
        match run.best {
            Some(b) if b.quality > best + 1e-12 => {
                best = b.quality;
                features.push(b.expr);
                replay.set_base(&features)?;
                failed = 0;
            }
            _ => failed += 1,
        }
    }
    Ok((features, evaluations))
}

/// Median duration of `f` over three calls, in ms.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The traced `search` run: an untraced and a traced fold (telemetry
/// overhead, program counters), then the whole search replayed with the
/// rebuilt fitness function, each stage timed. The replay evaluates the
/// same candidates as the real run, so its stage times need no scaling.
fn traced_single(args: &Args, out: &mut Outcome, fold: &Fold) -> Result<(), String> {
    let irs = || fold.train.iter().map(|e| &e.ir);
    let derive_ms = time_ms(|| {
        std::hint::black_box(Grammar::derive(irs()));
    });
    let fs = FeatureSearch::from_examples(&fold.train, fold.cfg.clone());
    let flatten_ms = time_ms(|| {
        std::hint::black_box(fs.pool(&fold.train));
    });

    let plain = search_fold(fold, &Runner::InProcess, None)?;
    out.op(gate(&plain, Mode::Single));
    let tel_dir = args.work.join("telemetry");
    let traced = search_fold(fold, &Runner::InProcess, Some(telemetry_into(&tel_dir)?))?;
    out.op(gate(&traced, Mode::Single));
    out.gate(
        plain.outcome == traced.outcome,
        "telemetry changed the search outcome",
    );
    let events = telemetry_events(&tel_dir)?;

    // The whole search again on a fresh pool, each fitness stage timed.
    let mut replay = Replay::new(&fs, &fold.train);
    let (replayed, evaluations) = replay_search(&fs, &mut replay, plain.outcome.baseline_speedup)?;
    out.gate(
        replayed == plain.outcome.features,
        "the replayed search found other features",
    );
    let t = replay.take_times();
    let replay_ok = check_replay(&mut replay, &plain.outcome)?;
    out.gate(
        replay_ok,
        "search replay fitness differs from the recorded steps",
    );
    let total_s = |xs: &[f64]| xs.iter().sum::<f64>() * 1e-6;
    let (lang_s, assemble_s) = (total_s(&t.column), total_s(&t.assemble));
    let (train_s, validate_s) = (total_s(&t.train), total_s(&t.validate));

    let generations: f64 = plain.outcome.total_generations as f64;
    let evaluations = evaluations as f64;
    let valid: f64 = fields_of(&events, "gp_generation", "valid").iter().sum();
    let invalid: f64 = fields_of(&events, "gp_generation", "invalid").iter().sum();
    let attributed = derive_ms * 1e-3
        + flatten_ms * 1e-3
        + lang_s
        + assemble_s
        + train_s
        + validate_s
        + plain.deploy_s;
    let program_hits = last_metric(&events, "eval.program_hits");
    let program_misses = last_metric(&events, "eval.program_misses");
    let result_hits = last_metric(&events, "eval.result_hits");
    let result_misses = last_metric(&events, "eval.result_misses");
    let m = &mut out.metrics;
    m.set("grammar.derive_ms", derive_ms);
    m.set("ir.flatten_ms", flatten_ms);
    m.set("lang.eval_s", lang_s);
    m.set("lang.column_us.p50", median(&t.column));
    m.set("lang.column_us.p99", quantile(&t.column, 0.99));
    m.set("lang.path_fast", last_metric(&events, "eval.path_fast"));
    m.set("lang.path_plan", last_metric(&events, "eval.path_plan"));
    m.set("lang.path_frame", last_metric(&events, "eval.path_frame"));
    m.set(
        "lang.program_hit_ratio",
        ratio(program_hits, program_hits + program_misses),
    );
    m.set(
        "lang.cse_hit_ratio",
        ratio(result_hits, result_hits + result_misses),
    );
    m.set("search.assemble_s", assemble_s);
    m.set("ml.train_s", train_s);
    m.set("ml.train_us.p50", median(&t.train));
    m.set("ml.validate_s", validate_s);
    m.set("gp.generations", generations);
    m.set("gp.evaluations", evaluations);
    m.set(
        "gp.memo_hit_ratio",
        1.0 - ratio(evaluations, generations * fold.cfg.gp.population as f64),
    );
    m.set("gp.invalid_ratio", ratio(invalid, valid + invalid));
    m.set("search.deploy_s", plain.deploy_s);
    m.set("search.pct_of_max", plain.pct);
    m.set(
        "search.unattributed_pct",
        100.0 * ratio(plain.total_s() - attributed, plain.total_s()),
    );
    m.set(
        "telemetry.overhead_pct",
        100.0 * ratio(traced.total_s() - plain.total_s(), plain.total_s()),
    );
    Ok(())
}

/// Largest checkpoint file and worker-process I/O seen while a search
/// runs, sampled from outside.
#[derive(Default)]
struct IoSample {
    checkpoint_bytes: u64,
    /// Per worker pid: bytes read plus bytes written.
    worker_bytes: std::collections::BTreeMap<u32, u64>,
}

/// Child pids of this process, over all its threads.
fn child_pids() -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|s| {
            s.split_whitespace()
                .filter_map(|p| p.parse().ok())
                .collect::<Vec<u32>>()
        })
        .collect()
}

/// `rchar + wchar` of process `pid`.
fn io_bytes(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/io")).ok()?;
    let field = |name: &str| -> Option<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
    };
    Some(field("rchar:")? + field("wchar:")?)
}

/// Runs `f` while a sampler thread records the checkpoint file's size and
/// the worker processes' I/O every millisecond.
fn sampled<T>(checkpoint: &Path, f: impl FnOnce() -> T) -> (T, IoSample) {
    let stop = AtomicBool::new(false);
    let file = checkpoint.join(fegen_core::CHECKPOINT_FILE);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut sample = IoSample::default();
            while !stop.load(Ordering::SeqCst) {
                if let Ok(meta) = std::fs::metadata(&file) {
                    sample.checkpoint_bytes = sample.checkpoint_bytes.max(meta.len());
                }
                for pid in child_pids() {
                    if let Some(b) = io_bytes(pid) {
                        let seen = sample.worker_bytes.entry(pid).or_default();
                        *seen = (*seen).max(b);
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            sample
        });
        let value = f();
        stop.store(true, Ordering::SeqCst);
        let sample = sampler.join().expect("the sampler thread does not panic");
        (value, sample)
    })
}

/// The traced `search-islands` run: the process-mode fold with the
/// program's telemetry on and the transport and checkpoint files sampled
/// from outside, then the same search on two worker threads, which must
/// find the same outcome.
fn traced_islands(args: &Args, out: &mut Outcome, fold: &Fold) -> Result<(), String> {
    let tel_dir = args.work.join("telemetry");
    let telemetry = telemetry_into(&tel_dir)?;
    let (proc_run, io) = sampled(&checkpoint_dir(args), || {
        search_fold(fold, &procs(args), Some(telemetry))
    });
    let proc_run = proc_run?;
    out.op(gate(&proc_run, Mode::Islands));
    let thread_run = search_fold(fold, &Runner::Threads, None)?;
    out.op(gate(&thread_run, Mode::Islands));
    out.gate(
        proc_run.outcome == thread_run.outcome,
        "island outcome on processes differs from threads",
    );
    let fs = FeatureSearch::from_examples(&fold.train, fold.cfg.clone());
    let mut replay = Replay::new(&fs, &fold.train);
    let replay_ok = check_replay(&mut replay, &proc_run.outcome)?;
    out.gate(
        replay_ok,
        "island replay fitness differs from the recorded steps",
    );

    let events = telemetry_events(&tel_dir)?;
    let count = |k: &str| events.iter().filter(|l| kind(l) == k).count() as f64;
    let step_s: f64 = fields_of(&events, "island_done", "step_us")
        .iter()
        .sum::<f64>()
        * 1e-6;
    let save_us = fields_of(&events, "checkpoint", "dur_us");
    let busy = step_s / PROC_WORKERS as f64 + save_us.iter().sum::<f64>() * 1e-6;
    let m = &mut out.metrics;
    m.set(
        "islands.proc_gap_s",
        proc_run.search_s - thread_run.search_s,
    );
    m.set("islands.step_s", step_s);
    m.set(
        "islands.unattributed_pct",
        100.0 * ratio(proc_run.search_s - busy, proc_run.search_s),
    );
    m.set(
        "island.migrations",
        last_metric(&events, "island.migrations"),
    );
    m.set(
        "transport.frames",
        last_metric(&events, "worker.frames_tx") + last_metric(&events, "worker.frames_rx"),
    );
    m.set(
        "transport.bytes",
        io.worker_bytes.values().sum::<u64>() as f64,
    );
    m.set("worker.respawns", count("worker_respawn"));
    m.set("worker.frozen", count("worker_frozen"));
    m.set("checkpoint.writes", save_us.len() as f64);
    m.set("checkpoint.bytes", io.checkpoint_bytes as f64);
    m.set("checkpoint.save_ms.p50", median(&save_us) * 1e-3);
    m.set("search.deploy_s", proc_run.deploy_s);
    m.set("search.pct_of_max", proc_run.pct);
    m.set("gp.generations", proc_run.outcome.total_generations as f64);
    Ok(())
}
