//! The fegen pipeline benchmark.
//!
//! Drives the system through its public crate APIs and the real `fegen`
//! binary on one of four seeded workloads (`measure`, `search`,
//! `search-islands`, `serve`), checks the outputs against the correctness
//! gates, and prints one JSON result line: the end-to-end metrics for an
//! untraced run (`--trace 0`), the per-layer metrics for a traced run
//! (`--trace 1`). `perfbench/run.py` builds this binary and `fegen`, then
//! calls it; see `perfbench/README.md` for the metric definitions.

mod common;
mod measure;
mod search;
mod serve;

use common::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every workload on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("unit_s", "s"),
    ("items_per_s", "1/s"),
];

/// Per-layer metrics, printed by every workload on a traced run. A layer a
/// workload does not run reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sim: fork-once measurement (Tiny-C lowering + RTL simulation)
    ("sim.snapshot_build_s", "s"),
    ("sim.cell_us.p50", "us"),
    ("sim.cell_us.p99", "us"),
    ("sim.init_reuse_ratio", "ratio"),
    // campaign scheduling and dataset shard I/O
    ("campaign.escalated_ratio", "ratio"),
    ("campaign.retries", "count"),
    ("campaign.quarantined", "count"),
    ("campaign.busy_ratio", "ratio"),
    ("dataset.shard_write_ms.p50", "ms"),
    ("measure.unattributed_pct", "%"),
    // grammar derivation and IR flattening
    ("grammar.derive_ms", "ms"),
    ("ir.flatten_ms", "ms"),
    // lang: feature evaluation through the eval pool
    ("lang.eval_s", "s"),
    ("lang.column_us.p50", "us"),
    ("lang.column_us.p99", "us"),
    ("lang.path_fast", "count"),
    ("lang.path_plan", "count"),
    ("lang.path_frame", "count"),
    ("lang.program_hit_ratio", "ratio"),
    ("lang.cse_hit_ratio", "ratio"),
    // search: fitness dataset assembly, deployment
    ("search.assemble_s", "s"),
    ("search.deploy_s", "s"),
    ("search.pct_of_max", "%"),
    ("search.unattributed_pct", "%"),
    ("telemetry.overhead_pct", "%"),
    // ml: C4.5 training and validation inside fitness
    ("ml.train_s", "s"),
    ("ml.train_us.p50", "us"),
    ("ml.validate_s", "s"),
    // gp: engine generations and memo
    ("gp.generations", "count"),
    ("gp.evaluations", "count"),
    ("gp.memo_hit_ratio", "ratio"),
    ("gp.invalid_ratio", "ratio"),
    // islands, transport and checkpoint (process-level island workers)
    ("islands.proc_gap_s", "s"),
    ("islands.step_s", "s"),
    ("islands.unattributed_pct", "%"),
    ("island.migrations", "count"),
    ("transport.frames", "count"),
    ("transport.bytes", "bytes"),
    ("worker.respawns", "count"),
    ("worker.frozen", "count"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_ms.p50", "ms"),
    // serve: wire decode/admit/encode, arena LRU, daemon
    ("serve.rtt_us.p50", "us"),
    ("serve.rtt_us.p99", "us"),
    ("serve.rtt_samples", "count"),
    ("serve.decode_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.to_ir_us", "us"),
    ("serve.key_us", "us"),
    ("serve.flatten_us", "us"),
    ("serve.eval_us", "us"),
    ("serve.predict_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.io_us", "us"),
    ("serve.arena_hit_ratio", "ratio"),
    ("serve.arena_evictions", "count"),
    ("serve.program_hit_ratio", "ratio"),
    ("serve.queue_depth_peak", "count"),
    ("serve.unattributed_pct", "%"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `fegen` binary (island workers and the serve daemon).
    pub fegen: PathBuf,
    /// Private scratch directory for datasets, models and checkpoints.
    pub work: PathBuf,
}

/// What a run did: operations attempted and failed, whether every
/// correctness gate held, and the metrics it measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Metrics,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Metrics::default(),
        }
    }

    /// Records one operation; a failed gate fails the operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
        }
    }

    /// Records a gate that is not tied to one operation.
    pub fn gate(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: correctness gate failed: {what}");
            self.correct = false;
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut fegen = None;
    let mut work = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--fegen" => fegen = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        fegen: fegen.ok_or("--fegen is required")?,
        work: work.ok_or("--work is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: creating {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let mut outcome = Outcome::new();
    let result = match args.workload.as_str() {
        "measure" => measure::run(&args, &mut outcome),
        "search" => search::run(&args, &mut outcome, search::Mode::Single),
        "search-islands" => search::run(&args, &mut outcome, search::Mode::Islands),
        "serve" => serve::run(&args, &mut outcome),
        other => Err(format!("unknown workload `{other}`")),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.metrics.to_json(&outcome, names));
    ExitCode::SUCCESS
}
