//! # fegen-bench — the experiment harness
//!
//! Reproduces every table and figure of the paper's evaluation. The crate
//! is a library (shared pipeline + methods + reporting, and [`figures`]:
//! the evaluation as one pass that measures the suite once and runs each
//! feature search once) plus one thin binary per paper artefact:
//!
//! | binary | artefact |
//! |---|---|
//! | `fig02_motivating` | Figure 2(b): the mesa loop, Baseline/Oracle/GCC/GCC-Tree/Ours |
//! | `fig03_04_tree_paths` | Figures 3–4: decision paths of the learned trees |
//! | `fig12_oracle_vs_gcc` | Figure 12: per-benchmark oracle vs GCC speedups (§VII-A limit study) |
//! | `fig13_comparison` | Figure 13: GCC vs stateML vs Ours, 10-fold CV |
//! | `fig14_stateml_features` | Figure 14: the 22 stateML features |
//! | `fig15_tree_comparison` | Figure 15: same learner (C4.5), different feature sets |
//! | `fig16_best_features` | Figure 16: the greedy feature list of one fold |
//! | `run_all` | everything, in order, from one [`figures::Pass`] |
//!
//! All binaries accept `--paper` for paper-scale budgets (hours) and
//! default to a `--quick` preset (minutes) that preserves the experimental
//! protocol at reduced scale. Pass `--seed N` to change the master seed,
//! `--dataset-dir DIR` to measure through the persistent dataset store
//! (see [`campaign`]) instead of re-measuring in memory, and
//! `--telemetry-dir DIR` to log the campaign's events.

// Library code must report through telemetry events or typed errors,
// never by printing; binaries are exempt (their crate roots are in bin/).
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod campaign;
pub mod dataset;
pub mod figures;
pub mod methods;
pub mod pipeline;
pub mod record;
pub mod report;
pub mod stages;

pub use campaign::{
    campaign_fingerprint, load_suite_data, run_campaign, run_campaign_with_telemetry,
    CampaignConfig, CampaignError, CampaignReport, MeasureMode, SamplingPolicy,
};
pub use dataset::{DatasetError, DatasetStore, QuarantineEntry};
pub use pipeline::{
    try_build_suite_data, BenchmarkSnapshot, ExperimentConfig, LoopRecord, PipelineError, SuiteData,
};

/// Parses the common CLI flags (`--paper`, `--quick`, `--seed N`,
/// `--folds N`, plus the undocumented `--tiny` smoke preset: the 3-program
/// suite at 2 folds, for tests that only need well-formed output fast).
pub fn config_from_args() -> ExperimentConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut config = if args.iter().any(|a| a == "--paper") {
        ExperimentConfig::paper()
    } else {
        ExperimentConfig::quick()
    };
    if args.iter().any(|a| a == "--tiny") {
        config.suite = fegen_suite::SuiteConfig::tiny();
        config.folds = 2;
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                    config.seed = v;
                }
            }
            "--folds" => {
                if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                    config.folds = v;
                }
            }
            _ => {}
        }
    }
    config
}

/// Builds [`SuiteData`] either in memory or through the persistent
/// dataset store, and returns it with the quarantine entries excluded from
/// it (always empty in memory). The two paths are different protocols and
/// are not meant to agree cycle for cycle:
///
/// - Without a directory, [`try_build_suite_data`] simulates every cell
///   once. The simulator is exact, so each table is the noise-free cycle
///   count.
/// - With a directory, the campaign opens (or creates) the dataset,
///   measures every benchmark not yet stored, and loads the stored tables.
///   Each stored cell is the median of seeded noisy runs, escalated while
///   the runs stay dispersed ([`SamplingPolicy`]), as a measurement on
///   real hardware would be.
///
/// Telemetry never changes a shard byte.
pub fn load_or_build_suite_data_with_telemetry(
    config: &ExperimentConfig,
    dataset_dir: Option<&std::path::Path>,
    telemetry: &fegen_core::Telemetry,
) -> Result<(SuiteData, Vec<QuarantineEntry>), CampaignError> {
    let Some(dir) = dataset_dir else {
        let data = try_build_suite_data(config)?;
        return Ok((data, Vec::new()));
    };
    let sampling = SamplingPolicy::default();
    let store = DatasetStore::open(dir, campaign_fingerprint(config, &sampling))?
        .with_telemetry(telemetry.clone());
    let campaign = CampaignConfig {
        sampling,
        ..CampaignConfig::default()
    };
    let cancel = fegen_core::CancelToken::new();
    let report =
        run_campaign_with_telemetry(config, &campaign, &store, None, &cancel, telemetry)?;
    if report.measured > 0 {
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "# dataset: measured {} benchmark(s), reused {}",
            report.measured,
            report.resumed
        );
    }
    load_suite_data(config, &store)
}
