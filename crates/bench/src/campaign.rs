//! The fault-tolerant measurement-campaign runner.
//!
//! The paper's training data is a week-scale campaign — 57 benchmarks × 16
//! unroll factors × ≥100 noisy runs per loop site (§V) — and data
//! generation is the acknowledged bottleneck of compiler-ML work. This
//! module makes that campaign crash-proof, resumable and degradable:
//!
//! - **Panic-isolated parallel workers.** `--jobs` worker threads pull
//!   benchmarks from a shared queue; every measurement attempt runs under
//!   `catch_unwind`, so a panicking stage costs one attempt, never a
//!   worker and never the campaign (the same discipline as the GP engine's
//!   evaluator isolation).
//! - **Retry under bounded backoff and a deadline.** A failing site is
//!   retried up to `retry` times with exponential backoff; a per-site
//!   deadline bounds the total time sunk into a persistently failing or
//!   stalled site.
//! - **Quarantine, not abort.** A site that exhausts its attempts (or its
//!   deadline) is quarantined: recorded in the shard with the last error,
//!   excluded from the dataset, and the campaign continues. A benchmark
//!   accumulating `quarantine_after` quarantined sites (or failing to
//!   compile at all) is quarantined whole. The campaign completes on the
//!   surviving data and reports exactly what was dropped and why.
//! - **Adaptive sampling.** Each (site, factor) cell draws noisy runs from
//!   a stream seeded by the cell's identity — *not* by execution order —
//!   so results are bit-identical at any `--jobs` count and across
//!   resumes. Sampling starts at `base_runs` and doubles while the
//!   log-domain IQR stays above `target_log_iqr`, up to `max_runs`; a cell
//!   that never settles falls back to the paper's fixed ≥100-run protocol.
//! - **Exact resume.** Shards are atomic and checksummed
//!   ([`DatasetStore`]); a killed campaign re-runs only the benchmarks
//!   without a valid shard, and produces a dataset byte-identical to an
//!   uninterrupted run's. A corrupted shard is detected and re-measured,
//!   never loaded.

use crate::dataset::{
    dataset_fingerprint, BenchShard, DatasetError, DatasetStore, QuarantineEntry, SiteData,
    DATASET_VERSION,
};
use crate::pipeline::{
    try_compile, BenchmarkSnapshot, CompiledBenchmark, ExperimentConfig, LoopRecord,
    PipelineError, SuiteData,
};
use fegen_core::{stable_hash, CancelToken, FaultInjector, FaultKind, Telemetry};
use fegen_sim::measure::{robust_stats, NoiseModel};
use fegen_sim::oracle::{kernel_functions, loop_sites, measure_site, run_workload, LoopSite};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many noisy runs to draw per (site, factor) cell and when to stop.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingPolicy {
    /// The injected timing-noise model (the simulator itself is exact).
    pub noise: NoiseModel,
    /// Runs drawn before the first dispersion check.
    pub base_runs: usize,
    /// Escalation cap: runs double up to this count while the cell stays
    /// noisy.
    pub max_runs: usize,
    /// Accept the cell once the log-domain IQR is at or below this (≈
    /// relative spread; the default tolerates ~4% before escalating).
    pub target_log_iqr: f64,
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        SamplingPolicy {
            noise: NoiseModel::default(),
            base_runs: 40,
            max_runs: 160,
            target_log_iqr: 0.04,
        }
    }
}

impl SamplingPolicy {
    /// The identity string folded into the dataset fingerprint: every
    /// field changes the measured values, so every field is included.
    pub fn identity(&self) -> String {
        format!("{self:?}")
    }

    /// The paper's fallback when escalation never settles: at least 100
    /// runs (§V), or the cap if it is higher.
    fn fallback_runs(&self) -> usize {
        self.max_runs.max(100)
    }
}

/// How a campaign obtains the ground-truth cycle table of each
/// `(site, factor)` cell. Both modes are bit-identical by construction
/// (the fork path is proved against the scratch path in
/// `tests/campaign_resilience.rs`), so this is pure execution policy —
/// deliberately *not* part of the dataset fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeasureMode {
    /// Fork-once: compile, discover and warm up each benchmark exactly
    /// once into a [`BenchmarkSnapshot`], then fork every cell off that
    /// shared state. The fast path, and the default.
    #[default]
    Forked,
    /// Recompile and re-simulate from scratch for every cell — the
    /// original protocol, kept as the cross-check the fork path is
    /// validated against (`fegen bench measure`).
    Scratch,
}

/// Execution policy of one campaign run. None of these fields affect the
/// measured values — they are deliberately *not* part of the dataset
/// fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Parallel measurement workers.
    pub jobs: usize,
    /// Attempts per site (and per benchmark setup) before quarantine.
    pub retry: usize,
    /// Quarantine the whole benchmark once this many of its sites are
    /// quarantined.
    pub quarantine_after: usize,
    /// Base backoff between retries (doubles per attempt, capped at 2 s).
    pub backoff: Duration,
    /// Total time budget per site across all its attempts.
    pub site_deadline: Duration,
    /// Noisy-run sampling policy (part of the dataset identity).
    pub sampling: SamplingPolicy,
    /// Fork-once or from-scratch measurement (never changes a shard byte).
    pub measure: MeasureMode,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            jobs: 1,
            retry: 3,
            quarantine_after: 4,
            backoff: Duration::from_millis(50),
            site_deadline: Duration::from_secs(120),
            sampling: SamplingPolicy::default(),
            measure: MeasureMode::default(),
        }
    }
}

/// Content digest of the suite's pre-unroll RTL: every benchmark is
/// generated and lowered (deterministic and cheap — the simulation, not
/// the compilation, is the expensive part) and its program digest, or its
/// compile-error text, is chained into one value. Folding this into the
/// campaign fingerprint means a dataset records exactly which compile
/// state produced it — a lowering change that alters any benchmark's RTL
/// invalidates the dataset even when no configuration struct changed.
fn suite_rtl_digest(suite: &fegen_suite::SuiteConfig) -> u64 {
    let mut acc = stable_hash(b"suite-rtl");
    for b in fegen_suite::generate_suite(suite) {
        let token = match try_compile(&b) {
            Ok(cb) => format!("{}={:016x}", b.name, cb.rtl.content_digest()),
            Err(e) => format!("{}!{e}", b.name),
        };
        acc = stable_hash(format!("{acc:016x}|{token}").as_bytes());
    }
    acc
}

/// The dataset fingerprint of an experiment + sampling-policy pair:
/// [`dataset_fingerprint`] over the configuration, folded with the suite's
/// pre-unroll RTL [content digest](suite_rtl_digest). Search/fold settings
/// are excluded because they never change what is measured — figures with
/// different fold counts share one dataset. [`MeasureMode`] is excluded
/// because both modes produce bit-identical shards.
pub fn campaign_fingerprint(experiment: &ExperimentConfig, sampling: &SamplingPolicy) -> u64 {
    let config = dataset_fingerprint(
        &experiment.suite,
        &experiment.oracle,
        &sampling.identity(),
        experiment.seed,
    );
    let rtl = suite_rtl_digest(&experiment.suite);
    stable_hash(format!("{config:016x}|rtl:{rtl:016x}").as_bytes())
}

/// What one campaign run did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// Benchmarks in the suite.
    pub total: usize,
    /// Benchmarks measured by this run.
    pub measured: usize,
    /// Benchmarks whose valid shard was reused (resume).
    pub resumed: usize,
    /// Shards found corrupt and re-measured.
    pub remeasured_corrupt: Vec<String>,
    /// Quarantined sites and benchmarks.
    pub quarantined: Vec<QuarantineEntry>,
    /// Loop sites measured successfully.
    pub sites_measured: usize,
    /// Failed attempts that were retried.
    pub retries: usize,
    /// (site, factor) cells whose sampling escalated past `base_runs`.
    pub escalated_cells: usize,
    /// Benchmark snapshots built (fork-once mode; 0 in scratch mode).
    pub snapshot_builds: usize,
    /// (site, factor) cells measured by forking a snapshot.
    pub forks: u64,
    /// Forked cells that also reused the snapshot's pre-warmed init state
    /// instead of re-simulating the workload's init calls.
    pub init_forks: u64,
    /// RTL instructions the forked cells simulated.
    pub sim_insns: u64,
}

/// A typed failure of the campaign driver.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The dataset store failed (I/O, corruption of the meta file, foreign
    /// fingerprint).
    Dataset(DatasetError),
    /// The campaign stopped before every benchmark had a valid shard —
    /// cooperative cancellation, or a shard failed the final verification
    /// pass; re-run with resume to continue/repair.
    Interrupted {
        /// Benchmarks with a valid shard at the stop point.
        completed: usize,
        /// Benchmarks in the suite.
        total: usize,
    },
    /// The target directory already holds shards and resume was not
    /// requested.
    DatasetExists {
        /// The dataset directory.
        dir: std::path::PathBuf,
    },
    /// Reconstructing experiment inputs from a stored dataset failed.
    Pipeline(PipelineError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Dataset(e) => write!(f, "{e}"),
            CampaignError::Interrupted { completed, total } => write!(
                f,
                "campaign interrupted with {completed}/{total} benchmarks measured; \
                 re-run with --resume to continue"
            ),
            CampaignError::DatasetExists { dir } => write!(
                f,
                "dataset directory {} already holds shards; pass --resume to \
                 continue the campaign or choose an empty directory",
                dir.display()
            ),
            CampaignError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Dataset(e) => Some(e),
            CampaignError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DatasetError> for CampaignError {
    fn from(e: DatasetError) -> Self {
        CampaignError::Dataset(e)
    }
}

impl From<PipelineError> for CampaignError {
    fn from(e: PipelineError) -> Self {
        CampaignError::Pipeline(e)
    }
}

/// Extracts a printable message from a caught panic payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_owned()
    }
}

/// Shared campaign state the workers drain.
struct Shared<'a> {
    suite: &'a [fegen_suite::Benchmark],
    experiment: &'a ExperimentConfig,
    campaign: &'a CampaignConfig,
    store: &'a DatasetStore,
    faults: Option<&'a FaultInjector>,
    cancel: &'a CancelToken,
    telemetry: &'a Telemetry,
    next: AtomicUsize,
    /// Set when a worker hits a fatal store error: stop claiming work.
    fatal_stop: AtomicBool,
    fatal: Mutex<Option<DatasetError>>,
    report: Mutex<CampaignReport>,
    /// Cumulative decoded function images reused across every snapshot
    /// this run built (fork-once mode) — feeds the reuse-rate gauge.
    images_reused: AtomicU64,
    /// Cumulative function images decoded per fork.
    images_built: AtomicU64,
}

/// Runs (or resumes) a measurement campaign into `store`.
///
/// Benchmarks that already have a valid shard are skipped; corrupt shards
/// are re-measured. On cooperative cancellation the campaign stops at a
/// benchmark boundary and returns [`CampaignError::Interrupted`] — every
/// shard on disk remains valid, and a later run continues exactly where
/// this one stopped.
pub fn run_campaign(
    experiment: &ExperimentConfig,
    campaign: &CampaignConfig,
    store: &DatasetStore,
    faults: Option<&FaultInjector>,
    cancel: &CancelToken,
) -> Result<CampaignReport, CampaignError> {
    run_campaign_with_telemetry(
        experiment,
        campaign,
        store,
        faults,
        cancel,
        &Telemetry::disabled(),
    )
}

/// [`run_campaign`] with a telemetry handle. Telemetry is purely
/// observational: it never changes what is measured, which benchmarks run,
/// or a single byte of any shard — only what is logged about the run.
pub fn run_campaign_with_telemetry(
    experiment: &ExperimentConfig,
    campaign: &CampaignConfig,
    store: &DatasetStore,
    faults: Option<&FaultInjector>,
    cancel: &CancelToken,
    telemetry: &Telemetry,
) -> Result<CampaignReport, CampaignError> {
    let suite = fegen_suite::generate_suite(&experiment.suite);
    let workers = campaign.jobs.max(1).min(suite.len().max(1));
    let _campaign_span = telemetry.span("campaign");
    telemetry
        .event("campaign_start")
        .u64("total", suite.len() as u64)
        .u64("workers", workers as u64)
        .emit();
    telemetry.gauge_set("campaign.workers", workers as f64);
    telemetry.progress(&format!(
        "campaign: {} benchmark(s), {workers} worker(s)",
        suite.len()
    ));
    let shared = Shared {
        suite: &suite,
        experiment,
        campaign,
        store,
        faults,
        cancel,
        telemetry,
        next: AtomicUsize::new(0),
        fatal_stop: AtomicBool::new(false),
        fatal: Mutex::new(None),
        report: Mutex::new(CampaignReport {
            total: suite.len(),
            ..CampaignReport::default()
        }),
        images_reused: AtomicU64::new(0),
        images_built: AtomicU64::new(0),
    };
    if workers <= 1 {
        worker(&shared);
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| worker(&shared));
            }
        });
    }
    if let Some(e) = shared.fatal.into_inner().expect("fatal lock") {
        return Err(CampaignError::Dataset(e));
    }
    let report = shared.report.into_inner().expect("report lock");
    telemetry.emit_metrics("campaign");
    // Completion is judged by what is actually on disk, not by what this
    // run believes it did: a cancelled campaign may still have finished
    // everything.
    let completed = suite
        .iter()
        .filter(|b| matches!(store.load_shard(&b.name), Ok(Some(_))))
        .count();
    if completed < suite.len() {
        return Err(CampaignError::Interrupted {
            completed,
            total: suite.len(),
        });
    }
    Ok(report)
}

/// One worker: claim benchmarks off the shared queue until the queue is
/// empty, the campaign is cancelled, or a fatal store error stops it.
fn worker(shared: &Shared<'_>) {
    loop {
        if shared.fatal_stop.load(Ordering::SeqCst) || shared.cancel.is_cancelled() {
            return;
        }
        let idx = shared.next.fetch_add(1, Ordering::SeqCst);
        let Some(bench) = shared.suite.get(idx) else {
            return;
        };
        match shared.store.load_shard(&bench.name) {
            Ok(Some(_)) => {
                shared.report.lock().expect("report lock").resumed += 1;
                shared.telemetry.counter_add("campaign.benchmarks_resumed", 1);
                shared
                    .telemetry
                    .event("bench_done")
                    .str("bench", &bench.name)
                    .u64("dur_us", 0)
                    .bool("resumed", true)
                    .emit();
                continue;
            }
            Ok(None) => {}
            Err(DatasetError::Corrupt { .. }) => {
                shared
                    .report
                    .lock()
                    .expect("report lock")
                    .remeasured_corrupt
                    .push(bench.name.clone());
                shared.telemetry.counter_add("campaign.shards_remeasured_corrupt", 1);
            }
            Err(e) => {
                *shared.fatal.lock().expect("fatal lock") = Some(e);
                shared.fatal_stop.store(true, Ordering::SeqCst);
                return;
            }
        }
        let started = Instant::now();
        let Some(shard) = measure_benchmark(shared, bench, idx) else {
            // Cancelled mid-benchmark: no shard is written, resume will
            // re-measure it from scratch.
            return;
        };
        if let Err(e) = shared.store.write_shard(&shard, shared.faults) {
            *shared.fatal.lock().expect("fatal lock") = Some(e);
            shared.fatal_stop.store(true, Ordering::SeqCst);
            return;
        }
        let measured = {
            let mut report = shared.report.lock().expect("report lock");
            report.measured += 1;
            report.measured
        };
        let dur_us = started.elapsed().as_micros() as u64;
        shared.telemetry.counter_add("campaign.benchmarks_measured", 1);
        shared.telemetry.observe("campaign.bench_dur_us", dur_us as f64);
        shared
            .telemetry
            .event("bench_done")
            .str("bench", &bench.name)
            .u64("dur_us", dur_us)
            .bool("resumed", false)
            .emit();
        shared.telemetry.progress(&format!(
            "measured {} ({measured}/{} this run)",
            bench.name,
            shared.suite.len()
        ));
    }
}

/// Outcome of one guarded, retried stage.
enum Attempted<T> {
    Ok(T),
    /// (attempts made, last error)
    Failed(usize, String),
}

/// Runs `stage` under `catch_unwind` with retry, bounded backoff and the
/// per-site deadline. `key` is the fault-injection key prefix; the attempt
/// number is appended so an `OnKeyPrefix` plan can fail one attempt or
/// every attempt.
fn attempt_with_retry<T>(
    shared: &Shared<'_>,
    key: &str,
    mut stage: impl FnMut(bool) -> Result<T, String>,
) -> Attempted<T> {
    let config = shared.campaign;
    let deadline = Instant::now();
    let attempts = config.retry.max(1);
    let mut last = String::new();
    for attempt in 1..=attempts {
        let mut poison = false;
        let fault = shared
            .faults
            .and_then(|f| f.fire(&format!("{key}#a{attempt}")));
        let injected: Option<String> = match fault {
            Some(FaultKind::Panic) => {
                // Raised inside the catch_unwind below so the unwind path
                // is the one real panics take.
                None
            }
            Some(FaultKind::ExhaustBudget) => Some("injected budget exhaustion".into()),
            Some(FaultKind::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                Some(format!("stalled for {ms}ms (injected delay); attempt abandoned"))
            }
            Some(FaultKind::NanFitness) => {
                poison = true;
                None
            }
            Some(FaultKind::Cancel) => {
                shared.cancel.cancel();
                None
            }
            // Island-supervision and worker-transport kinds only mean
            // something to the GP island runtimes; campaign stages ignore
            // them.
            Some(
                FaultKind::CorruptWrite
                | FaultKind::IslandKill
                | FaultKind::IslandStall(_)
                | FaultKind::SlowHeartbeat(_)
                | FaultKind::TornFrame
                | FaultKind::DuplicateFrame
                | FaultKind::SlowHandshake(_),
            )
            | None => None,
        };
        let result: Result<T, String> = match injected {
            Some(e) => Err(e),
            None => {
                let panics = matches!(fault, Some(FaultKind::Panic));
                match catch_unwind(AssertUnwindSafe(|| {
                    if panics {
                        panic!("injected fault: measurement panic");
                    }
                    stage(poison)
                })) {
                    Ok(r) => r,
                    Err(payload) => Err(panic_text(payload)),
                }
            }
        };
        match result {
            Ok(v) => return Attempted::Ok(v),
            Err(e) => last = e,
        }
        if deadline.elapsed() > config.site_deadline {
            return Attempted::Failed(
                attempt,
                format!(
                    "deadline of {:?} exceeded after {attempt} attempt(s); last error: {last}",
                    config.site_deadline
                ),
            );
        }
        if attempt < attempts {
            shared.report.lock().expect("report lock").retries += 1;
            shared.telemetry.counter_add("campaign.retries", 1);
            shared
                .telemetry
                .event("retry")
                .str("key", key)
                .u64("attempt", attempt as u64)
                .str("error", &last)
                .emit();
            let backoff = config
                .backoff
                .saturating_mul(1u32 << (attempt - 1).min(5) as u32)
                .min(Duration::from_secs(2));
            std::thread::sleep(backoff);
        }
    }
    Attempted::Failed(attempts, last)
}

/// Emits one quarantine entry to telemetry (the report copy is handled by
/// the callers, which need different locking shapes).
fn emit_quarantine(shared: &Shared<'_>, entry: &QuarantineEntry) {
    shared.telemetry.counter_add("campaign.quarantines", 1);
    let mut ev = shared
        .telemetry
        .event("quarantine")
        .str("bench", &entry.bench)
        .u64("attempts", entry.attempts as u64)
        .str("reason", &entry.reason);
    if let Some(site) = &entry.site {
        ev = ev.str("site", site);
    }
    ev.emit();
    shared.telemetry.progress(&format!("quarantined {entry}"));
}

/// Per-benchmark compile state produced by the setup stage, in either
/// measurement mode. Both variants answer the same questions (sites,
/// baseline); they differ only in how a cell's ground truth is obtained.
enum Prepared {
    /// From-scratch mode: the compiled benchmark, re-unrolled and re-run
    /// per cell by [`measure_site`]. Boxed so the enum stays pointer-sized
    /// either way.
    Scratch(Box<ScratchState>),
    /// Fork-once mode: the shared snapshot every cell forks from.
    Forked(Arc<BenchmarkSnapshot>),
}

struct ScratchState {
    cb: CompiledBenchmark,
    kernel_funcs: Vec<String>,
    sites: Vec<LoopSite>,
    baseline: f64,
}

impl Prepared {
    fn sites(&self) -> &[LoopSite] {
        match self {
            Prepared::Scratch(s) => &s.sites,
            Prepared::Forked(snap) => &snap.sites,
        }
    }

    fn baseline(&self) -> f64 {
        match self {
            Prepared::Scratch(s) => s.baseline,
            Prepared::Forked(snap) => snap.baseline_cycles,
        }
    }
}

/// Measures one benchmark into a shard, quarantining what persistently
/// fails. Returns `None` only when the campaign was cancelled before the
/// shard was complete.
fn measure_benchmark(
    shared: &Shared<'_>,
    bench: &fegen_suite::Benchmark,
    index: usize,
) -> Option<BenchShard> {
    let experiment = shared.experiment;
    let fingerprint = shared.store.fingerprint();
    let mut shard = BenchShard {
        version: DATASET_VERSION,
        fingerprint,
        bench: bench.name.clone(),
        index,
        baseline_cycles: None,
        sites: Vec::new(),
        quarantined: Vec::new(),
    };

    // Stage 1: compile + baseline + site discovery (retried as one unit —
    // all deterministic, so retries only matter under injected faults).
    // In fork-once mode this is the *only* compile of the benchmark: every
    // (site, factor) cell is forked off the snapshot built here.
    let setup = attempt_with_retry(shared, &format!("setup:{}", bench.name), |_poison| {
        let cb = try_compile(bench).map_err(|e| e.to_string())?;
        match shared.campaign.measure {
            MeasureMode::Forked => {
                let snap = BenchmarkSnapshot::try_from_compiled(cb, &experiment.oracle)
                    .map_err(|e| e.to_string())?;
                Ok(Prepared::Forked(Arc::new(snap)))
            }
            MeasureMode::Scratch => {
                let kernel_funcs = kernel_functions(&cb.rtl, &cb.workload);
                let sites = loop_sites(&cb.rtl, &cb.workload);
                let baseline = run_workload(&cb.rtl, &cb.workload, &experiment.oracle.sim)
                    .map_err(|e| {
                        // Wrapped exactly as the snapshot path wraps it, so
                        // the quarantine record is byte-identical in both
                        // modes.
                        PipelineError::Baseline {
                            bench: cb.name.clone(),
                            detail: e.to_string(),
                        }
                        .to_string()
                    })? as f64;
                Ok(Prepared::Scratch(Box::new(ScratchState {
                    cb,
                    kernel_funcs,
                    sites,
                    baseline,
                })))
            }
        }
    });
    let setup = match setup {
        Attempted::Ok(s) => s,
        Attempted::Failed(attempts, reason) => {
            shard.quarantined.push(QuarantineEntry {
                bench: bench.name.clone(),
                site: None,
                attempts,
                reason: format!("benchmark setup failed: {reason}"),
            });
            for entry in &shard.quarantined {
                emit_quarantine(shared, entry);
            }
            let mut report = shared.report.lock().expect("report lock");
            report.quarantined.extend(shard.quarantined.iter().cloned());
            return Some(shard);
        }
    };
    shard.baseline_cycles = Some(setup.baseline());

    // Stage 2: every site, with per-site retry/quarantine. Cancellation is
    // honoured between sites: the shard is abandoned un-written, so resume
    // re-measures the whole benchmark.
    for site in setup.sites() {
        if shared.cancel.is_cancelled() || shared.fatal_stop.load(Ordering::SeqCst) {
            return None;
        }
        let key = format!("measure:{}:{}", bench.name, site);
        let site_span = shared
            .telemetry
            .span(&format!("site:{}:{site}", bench.name));
        let measured = attempt_with_retry(shared, &key, |poison| {
            measure_site_sampled(&setup, site, shared, &bench.name, poison)
        });
        drop(site_span);
        match measured {
            Attempted::Ok((data, escalated)) => {
                let mut report = shared.report.lock().expect("report lock");
                report.sites_measured += 1;
                report.escalated_cells += escalated;
                drop(report);
                shard.sites.push(data);
            }
            Attempted::Failed(attempts, reason) => {
                let entry = QuarantineEntry {
                    bench: bench.name.clone(),
                    site: Some(site.to_string()),
                    attempts,
                    reason,
                };
                emit_quarantine(shared, &entry);
                shared
                    .report
                    .lock()
                    .expect("report lock")
                    .quarantined
                    .push(entry.clone());
                shard.quarantined.push(entry);
            }
        }
        let site_quarantines = shard.quarantined.iter().filter(|q| q.site.is_some()).count();
        if site_quarantines >= shared.campaign.quarantine_after {
            let entry = QuarantineEntry {
                bench: bench.name.clone(),
                site: None,
                attempts: site_quarantines,
                reason: format!(
                    "{site_quarantines} of {} sites quarantined (threshold {})",
                    setup.sites().len(),
                    shared.campaign.quarantine_after
                ),
            };
            emit_quarantine(shared, &entry);
            shared
                .report
                .lock()
                .expect("report lock")
                .quarantined
                .push(entry.clone());
            shard.quarantined.push(entry);
            break;
        }
    }
    if let Prepared::Forked(snap) = &setup {
        account_snapshot(shared, snap);
    }
    Some(shard)
}

/// Folds one completed snapshot's fork accounting into the report, the
/// telemetry counters and the cumulative reuse-rate gauge. Observational
/// only — called after the shard's contents are final.
fn account_snapshot(shared: &Shared<'_>, snap: &BenchmarkSnapshot) {
    let stats = snap.stats();
    {
        let mut report = shared.report.lock().expect("report lock");
        report.snapshot_builds += 1;
        report.forks += stats.forks;
        report.init_forks += stats.init_forks;
        report.sim_insns += stats.sim_insns;
    }
    shared.telemetry.counter_add("campaign.snapshot_builds", 1);
    shared.telemetry.counter_add("campaign.forks", stats.forks);
    shared.telemetry.counter_add("campaign.init_forks", stats.init_forks);
    shared.telemetry.counter_add("campaign.sim_insns", stats.sim_insns);
    let reused = stats.images_reused
        + shared
            .images_reused
            .fetch_add(stats.images_reused, Ordering::SeqCst);
    let built = stats.images_built
        + shared
            .images_built
            .fetch_add(stats.images_built, Ordering::SeqCst);
    if reused + built > 0 {
        shared.telemetry.gauge_set(
            "campaign.snapshot_reuse_rate",
            reused as f64 / (reused + built) as f64,
        );
    }
}

/// Measures one site's cycle table through the paper's noisy-measurement
/// protocol: exact simulation per factor, seeded noise injection, robust
/// averaging with adaptive run-count escalation. Returns the site data and
/// how many factor cells escalated.
///
/// Every random draw is seeded by `(master seed, benchmark, site, factor)`
/// — never by execution order — so the result is bit-identical at any
/// worker count, attempt number and resume point.
fn measure_site_sampled(
    prepared: &Prepared,
    site: &LoopSite,
    shared: &Shared<'_>,
    bench_name: &str,
    poison: bool,
) -> Result<(SiteData, usize), String> {
    let experiment = shared.experiment;
    let policy = &shared.campaign.sampling;
    // Ground truth: both arms return the same `LoopMeasurement` through
    // the same `OracleError`, so success bytes *and* failure strings are
    // identical between the modes.
    let truth = match prepared {
        Prepared::Scratch(s) => measure_site(
            &s.cb.rtl,
            &s.cb.workload,
            &s.kernel_funcs,
            site,
            &experiment.oracle,
        ),
        Prepared::Forked(snap) => snap.measure_site(site),
    }
    .map_err(|e| e.to_string())?;
    let mut cycles = Vec::with_capacity(truth.cycles.len());
    let mut runs = Vec::with_capacity(truth.cycles.len());
    let mut escalated = 0usize;
    for (factor, &true_cycles) in truth.cycles.iter().enumerate() {
        let seed = stable_hash(
            format!(
                "{}|{bench_name}|{site}|{factor}",
                experiment.seed
            )
            .as_bytes(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = policy.noise.samples(&mut rng, true_cycles, policy.base_runs.max(1));
        if poison {
            // An injected NaN fault models a corrupted measurement
            // channel: every reading is garbage, the robust statistics
            // must refuse to produce a mean, and the attempt fails.
            samples.fill(f64::NAN);
        }
        loop {
            let stats = robust_stats(&samples)
                .ok_or_else(|| format!("factor {factor}: no finite samples"))?;
            if stats.log_iqr <= policy.target_log_iqr {
                break;
            }
            if samples.len() >= policy.max_runs {
                // Never settled: the paper's fixed ≥100-run protocol.
                let fallback = policy.fallback_runs();
                if samples.len() < fallback {
                    let extra = policy.noise.samples(
                        &mut rng,
                        true_cycles,
                        fallback - samples.len(),
                    );
                    samples.extend(extra);
                }
                break;
            }
            let extra_n = samples.len().min(policy.max_runs - samples.len());
            let extra = policy.noise.samples(&mut rng, true_cycles, extra_n.max(1));
            samples.extend(extra);
        }
        if samples.len() > policy.base_runs {
            escalated += 1;
        }
        let mean = robust_stats(&samples)
            .ok_or_else(|| format!("factor {factor}: no finite samples"))?
            .mean;
        cycles.push(mean);
        runs.push(samples.len());
    }
    Ok((
        SiteData {
            func: site.func.clone(),
            loop_id: site.loop_id,
            cycles,
            runs,
        },
        escalated,
    ))
}

/// Reconstructs [`SuiteData`] from a complete dataset: benchmarks are
/// regenerated and recompiled (deterministic, cheap), measured cycle
/// tables come from the shards, quarantined sites and benchmarks are
/// excluded. Returns the surviving data plus every quarantine entry so
/// callers can report what the figures are missing.
pub fn load_suite_data(
    experiment: &ExperimentConfig,
    store: &DatasetStore,
) -> Result<(SuiteData, Vec<QuarantineEntry>), CampaignError> {
    let suite = fegen_suite::generate_suite(&experiment.suite);
    let mut missing = Vec::new();
    let mut shards = Vec::with_capacity(suite.len());
    for b in &suite {
        match store.load_shard(&b.name)? {
            Some(shard) => shards.push(shard),
            None => missing.push(b.name.clone()),
        }
    }
    if !missing.is_empty() {
        return Err(CampaignError::Dataset(DatasetError::Incomplete { missing }));
    }
    let mut benchmarks = Vec::new();
    let mut loops = Vec::new();
    let mut baseline_cycles = Vec::new();
    let mut quarantined = Vec::new();
    for (b, shard) in suite.iter().zip(shards) {
        quarantined.extend(shard.quarantined.iter().cloned());
        if shard.quarantined.iter().any(|q| q.site.is_none()) {
            // Whole-benchmark quarantine: measured sites (if any) stay on
            // disk but are excluded from the experiments.
            continue;
        }
        let corrupt = |detail: String| {
            CampaignError::Dataset(DatasetError::Corrupt {
                path: store.shard_path(&b.name),
                detail,
            })
        };
        let cb = try_compile(b)?;
        let discovered = loop_sites(&cb.rtl, &cb.workload);
        let accounted = shard.sites.len()
            + shard.quarantined.iter().filter(|q| q.site.is_some()).count();
        if discovered.len() != accounted {
            return Err(corrupt(format!(
                "shard accounts for {accounted} sites, program has {}",
                discovered.len()
            )));
        }
        let baseline = shard
            .baseline_cycles
            .ok_or_else(|| corrupt("missing baseline cycles".into()))?;
        let bench_idx = benchmarks.len();
        for data in &shard.sites {
            let site = LoopSite {
                func: data.func.clone(),
                loop_id: data.loop_id,
            };
            let gcc = &experiment.oracle.gcc;
            let record = LoopRecord::export(bench_idx, &cb, site, data.cycles.clone(), gcc);
            loops.push(
                record.ok_or_else(|| {
                    corrupt(format!("no loop #{} in `{}`", data.loop_id, data.func))
                })?,
            );
        }
        baseline_cycles.push(baseline);
        benchmarks.push(cb);
    }
    Ok((
        SuiteData {
            benchmarks,
            loops,
            baseline_cycles,
        },
        quarantined,
    ))
}
