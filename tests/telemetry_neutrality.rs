//! Telemetry neutrality proofs: turning observation on must never change
//! what is computed or stored.
//!
//! 1. **Checkpoint-fingerprint neutrality**: a search interrupted at the
//!    same injected point writes byte-identical checkpoint files with
//!    telemetry on and off, and both resume to the identical outcome.
//! 2. **Shard-byte neutrality**: a measurement campaign produces
//!    byte-identical dataset shards with telemetry on and off, sequential
//!    and parallel.
//! 3. **Merged-log integrity**: a killed-and-resumed run appending to one
//!    `events.jsonl` yields a log where every line parses and sequence
//!    numbers are strictly increasing across the kill point.

use fegen::bench::{
    campaign_fingerprint, run_campaign_with_telemetry, CampaignConfig, DatasetStore,
    ExperimentConfig, SamplingPolicy,
};
use fegen::core::ir::IrNode;
use fegen::core::search::TrainingExample;
use fegen::core::telemetry::report;
use fegen::core::{
    CancelToken, FaultInjector, FaultKind, FaultPlan, FaultTrigger, FeatureSearch, IslandTopology,
    SearchConfig, SearchError, Telemetry, WorkerLauncher,
};
use std::path::{Path, PathBuf};

/// Same synthetic task as the fault-tolerance suite: best factor is
/// determined by the `insn` count, so the search reliably improves.
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
    let dir = std::env::temp_dir().join(format!("fegen-tel-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The single checkpoint file inside a checkpoint directory.
fn checkpoint_bytes(path: &Path) -> Vec<u8> {
    std::fs::read(path).expect("checkpoint file readable")
}

/// Interrupted search on `workers` island worker slots (cancel injected on
/// the `on_call`th evaluation) with the given telemetry; returns the
/// checkpoint path.
fn interrupted_run(
    search: &FeatureSearch,
    examples: &[TrainingExample],
    workers: usize,
    ckpt_dir: &Path,
    telemetry: Telemetry,
    on_call: u64,
) -> PathBuf {
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnCall(on_call),
        kind: FaultKind::Cancel,
    }]);
    let err = search
        .driver()
        .workers(workers)
        .checkpoint(ckpt_dir, 2)
        .fault_injector(&injector)
        .telemetry(telemetry)
        .run(examples)
        .expect_err("injected cancellation must interrupt");
    match err {
        SearchError::Interrupted {
            checkpoint: Some(p),
            ..
        } => p,
        other => panic!("expected Interrupted with checkpoint, got {other}"),
    }
}

/// Neutrality proof #1 + #3: identical checkpoints with telemetry on/off,
/// identical resumed outcomes, and a well-formed merged JSONL across the
/// kill point — on one population, and on a two-island ring stepped by
/// `workers` worker slots.
fn checkpoint_neutral(config: SearchConfig, workers: usize, tag: &str) {
    let examples = synthetic_examples(40);
    let search = FeatureSearch::from_examples(&examples, config);
    let reference = search.try_run(&examples).expect("reference run completes");
    assert!(!reference.features.is_empty(), "task must be solvable");

    let dir_off = temp_dir(&format!("off-{tag}"));
    let dir_on = temp_dir(&format!("on-{tag}"));
    let tel_dir = temp_dir(&format!("events-{tag}"));
    std::fs::create_dir_all(&tel_dir).expect("telemetry dir");

    let ckpt_off = interrupted_run(
        &search,
        &examples,
        workers,
        &dir_off,
        Telemetry::disabled(),
        25,
    );
    let telemetry = Telemetry::to_dir(&tel_dir).expect("telemetry opens");
    let ckpt_on = interrupted_run(&search, &examples, workers, &dir_on, telemetry, 25);

    // The checkpoint fingerprint (and every byte around it) must not see
    // telemetry.
    assert_eq!(
        checkpoint_bytes(&ckpt_off),
        checkpoint_bytes(&ckpt_on),
        "telemetry changed the checkpoint bytes"
    );

    // Both resume to the reference outcome; the telemetry-on resume appends
    // to the same event log, exercising the killed-and-resumed path.
    let resumed_off = search
        .driver()
        .workers(workers)
        .resume(&ckpt_off, &examples)
        .expect("resume (off) completes");
    let telemetry = Telemetry::to_dir(&tel_dir).expect("telemetry reopens");
    let resumed_on = search
        .driver()
        .workers(workers)
        .telemetry(telemetry)
        .resume(&ckpt_on, &examples)
        .expect("resume (on) completes");
    assert_eq!(resumed_off, reference);
    assert_eq!(resumed_on, reference, "telemetry changed the outcome");

    // Merged log: every line parses, seq strictly increasing across the
    // kill/resume boundary, and the reader can render it.
    let verdict = report::check_integrity(&tel_dir).expect("events readable");
    let events = verdict.unwrap_or_else(|e| panic!("merged log not well-formed: {e}"));
    assert!(events > 0, "telemetry-on run must emit events");
    let (parsed, skipped) = report::read_events(&tel_dir).expect("events readable");
    assert_eq!(skipped, 0);
    for kind in ["search_start", "gp_generation", "checkpoint", "search_done", "metric"] {
        assert!(
            parsed.iter().any(|e| e.kind == kind),
            "expected at least one `{kind}` event"
        );
    }
    let summary = report::summarize_dir(&tel_dir).expect("report renders");
    assert!(summary.contains("event(s)"), "summary renders: {summary}");

    for d in [&dir_off, &dir_on, &tel_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn search_checkpoints_are_telemetry_neutral_sequential() {
    checkpoint_neutral(small_config(), 1, "seq");
}

#[test]
fn search_checkpoints_are_telemetry_neutral_parallel() {
    checkpoint_neutral(ring_config(), 2, "par");
}

/// Neutrality proof #1 for the *process-worker* supervisor: the same
/// interrupted-checkpoint byte identity and resumed-outcome identity, with
/// the islands stepped by supervised worker threads over the frame
/// transport. The cancel is keyed to an island step attempt (fitness runs
/// inside workers, out of the injector's reach), and the telemetry-on run
/// additionally proves the supervisor's events land in the log.
#[test]
fn process_worker_checkpoints_are_telemetry_neutral() {
    let examples = synthetic_examples(40);
    let mut config = small_config();
    config.max_total_generations = 48;
    config.topology = IslandTopology {
        islands: 2,
        migration_every: 1,
        restart_limit: 3,
    };
    let search = FeatureSearch::from_examples(&examples, config);
    let reference = search.try_run(&examples).expect("reference run completes");
    assert!(!reference.features.is_empty(), "task must be solvable");

    let interrupted_proc = |ckpt_dir: &Path, telemetry: Telemetry| -> PathBuf {
        let injector = FaultInjector::new(vec![FaultPlan {
            trigger: FaultTrigger::OnKeyPrefix("island:0:g2#a1".into()),
            kind: FaultKind::Cancel,
        }]);
        let err = search
            .driver()
            .process_workers(2, WorkerLauncher::Loopback)
            .checkpoint(ckpt_dir, 2)
            .fault_injector(&injector)
            .telemetry(telemetry)
            .run(&examples)
            .expect_err("injected cancellation must interrupt");
        match err {
            SearchError::Interrupted {
                checkpoint: Some(p),
                ..
            } => p,
            other => panic!("expected Interrupted with checkpoint, got {other}"),
        }
    };

    let dir_off = temp_dir("proc-off");
    let dir_on = temp_dir("proc-on");
    let tel_dir = temp_dir("proc-events");
    std::fs::create_dir_all(&tel_dir).expect("telemetry dir");

    let ckpt_off = interrupted_proc(&dir_off, Telemetry::disabled());
    let telemetry = Telemetry::to_dir(&tel_dir).expect("telemetry opens");
    let ckpt_on = interrupted_proc(&dir_on, telemetry);
    assert_eq!(
        checkpoint_bytes(&ckpt_off),
        checkpoint_bytes(&ckpt_on),
        "telemetry changed the process-worker checkpoint bytes"
    );

    // Both resume — in process mode — to the thread-mode reference.
    let resumed_off = search
        .driver()
        .process_workers(2, WorkerLauncher::Loopback)
        .resume(&ckpt_off, &examples)
        .expect("resume (off) completes");
    let telemetry = Telemetry::to_dir(&tel_dir).expect("telemetry reopens");
    let resumed_on = search
        .driver()
        .process_workers(2, WorkerLauncher::Loopback)
        .telemetry(telemetry)
        .resume(&ckpt_on, &examples)
        .expect("resume (on) completes");
    assert_eq!(resumed_off, reference);
    assert_eq!(resumed_on, reference, "telemetry changed the outcome");

    // The merged log is well-formed and carries the supervisor's events.
    let verdict = report::check_integrity(&tel_dir).expect("events readable");
    verdict.unwrap_or_else(|e| panic!("merged log not well-formed: {e}"));
    let (parsed, _) = report::read_events(&tel_dir).expect("events readable");
    for kind in [
        "islands_start",
        "gp_generation",
        "island_migration",
        "metric",
    ] {
        assert!(
            parsed.iter().any(|e| e.kind == kind),
            "expected at least one `{kind}` event"
        );
    }
    let summary = report::summarize_dir(&tel_dir).expect("report renders");
    assert!(
        summary.contains("executor loopback") && summary.contains("frames:"),
        "the islands section must render with its frame counters: {summary}"
    );

    for d in [&dir_off, &dir_on, &tel_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

fn tiny_experiment() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.suite = fegen::suite::SuiteConfig::tiny();
    config
}

fn tiny_campaign(jobs: usize) -> CampaignConfig {
    CampaignConfig {
        jobs,
        retry: 2,
        quarantine_after: 2,
        backoff: std::time::Duration::from_millis(1),
        site_deadline: std::time::Duration::from_secs(30),
        sampling: SamplingPolicy {
            base_runs: 8,
            max_runs: 16,
            target_log_iqr: 0.1,
            ..SamplingPolicy::default()
        },
        measure: fegen::bench::MeasureMode::default(),
    }
}

/// Neutrality proof #2: the campaign writes byte-identical shards with
/// telemetry on and off.
fn shards_neutral(jobs: usize, tag: &str) {
    let experiment = tiny_experiment();
    let campaign = tiny_campaign(jobs);
    let fp = campaign_fingerprint(&experiment, &campaign.sampling);
    let names: Vec<String> = fegen::suite::generate_suite(&experiment.suite)
        .iter()
        .map(|b| b.name.clone())
        .collect();

    let dir_off = temp_dir(&format!("shards-off-{tag}"));
    let store_off = DatasetStore::open(&dir_off, fp).expect("open store");
    run_campaign_with_telemetry(
        &experiment,
        &campaign,
        &store_off,
        None,
        &CancelToken::new(),
        &Telemetry::disabled(),
    )
    .expect("telemetry-off campaign completes");

    let dir_on = temp_dir(&format!("shards-on-{tag}"));
    let tel_dir = temp_dir(&format!("shards-events-{tag}"));
    std::fs::create_dir_all(&tel_dir).expect("telemetry dir");
    let telemetry = Telemetry::to_dir(&tel_dir).expect("telemetry opens");
    let store_on = DatasetStore::open(&dir_on, fp)
        .expect("open store")
        .with_telemetry(telemetry.clone());
    run_campaign_with_telemetry(
        &experiment,
        &campaign,
        &store_on,
        None,
        &CancelToken::new(),
        &telemetry,
    )
    .expect("telemetry-on campaign completes");

    for name in &names {
        let off = std::fs::read(store_off.shard_path(name)).expect("shard (off)");
        let on = std::fs::read(store_on.shard_path(name)).expect("shard (on)");
        assert_eq!(off, on, "telemetry changed shard bytes of {name}");
    }

    // The observed campaign emitted a parseable log covering the run.
    let verdict = report::check_integrity(&tel_dir).expect("events readable");
    verdict.unwrap_or_else(|e| panic!("campaign log not well-formed: {e}"));
    let (parsed, _) = report::read_events(&tel_dir).expect("events readable");
    for kind in ["campaign_start", "bench_done", "shard_write", "span"] {
        assert!(
            parsed.iter().any(|e| e.kind == kind),
            "expected at least one `{kind}` event"
        );
    }
    let done = parsed.iter().filter(|e| e.kind == "bench_done").count();
    assert_eq!(done, names.len(), "one bench_done per benchmark");

    for d in [&dir_off, &dir_on, &tel_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn campaign_shards_are_telemetry_neutral_sequential() {
    shards_neutral(1, "seq");
}

#[test]
fn campaign_shards_are_telemetry_neutral_parallel() {
    shards_neutral(3, "par");
}
