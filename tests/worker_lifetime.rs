//! The lifetime of process-level island workers across a search's exit
//! paths. The search owns one framed executor for its whole run; however
//! it ends, the executor is shut down: every worker is reaped and its
//! frame counters reach the published metrics.
//!
//! The file holds one test on purpose: it counts this process's threads,
//! which only means something when no other test runs beside it.

use fegen::core::ir::IrNode;
use fegen::core::search::TrainingExample;
use fegen::core::{
    FaultInjector, FaultKind, FaultPlan, FaultTrigger, FeatureSearch, IslandTopology,
    SearchConfig, SearchError, Telemetry, WorkerLauncher,
};

/// The best unroll factor follows the number of `insn` children.
fn examples(n: usize) -> Vec<TrainingExample> {
    (0..n)
        .map(|i| {
            let insns = 1 + i % 5;
            let best = insns % 4;
            let ir = IrNode::build("loop", |l| {
                for _ in 0..insns {
                    l.child("insn", |x| {
                        x.attr_enum("mode", "SI");
                    });
                }
            });
            let cycles = (0..4)
                .map(|k| if k == best { 80.0 } else { 100.0 + k as f64 })
                .collect();
            TrainingExample { ir, cycles }
        })
        .collect()
}

/// Threads of this process, where the OS reports them.
fn live_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// Threads of this process once they settle at `want` or two seconds
/// pass: a joined thread can still be counted for a moment after the
/// join returns, while the kernel finishes its exit.
fn settled_threads(want: Option<usize>) -> Option<usize> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let now = live_threads();
        if now == want || std::time::Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn a_cancelled_process_mode_search_still_shuts_its_workers_down() {
    let examples = examples(30);
    let mut config = SearchConfig::quick();
    config.seed = 41;
    config.gp.population = 12;
    config.gp.max_generations = 6;
    config.topology = IslandTopology {
        islands: 2,
        migration_every: 1,
        restart_limit: 3,
    };
    let search = FeatureSearch::from_examples(&examples, config);
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnKeyPrefix("island:0:g3#a1".into()),
        kind: FaultKind::Cancel,
    }]);
    let telemetry = Telemetry::memory();
    let before = live_threads();
    let err = search
        .driver()
        .process_workers(2, WorkerLauncher::Loopback)
        .fault_injector(&injector)
        .telemetry(telemetry.clone())
        .run(&examples)
        .expect_err("the keyed cancellation must interrupt the run mid-GP");
    assert!(
        matches!(err, SearchError::Interrupted { .. }),
        "expected Interrupted, got {err}"
    );
    assert_eq!(
        settled_threads(before),
        before,
        "every loopback worker thread must be joined when the search returns"
    );
    assert_eq!(telemetry.counter_value("worker.handshakes"), 2);
    assert!(telemetry.counter_value("worker.frames_tx") > 0);
    let published = telemetry.drain_memory().into_iter().any(|l| {
        l.contains("\"kind\":\"metric\"")
            && l.contains("\"metric\":\"worker.frames_tx\"")
            && !l.contains("\"value\":0")
    });
    assert!(
        published,
        "the interrupted search must publish its workers' frame counters"
    );
}
