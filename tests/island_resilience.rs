//! Resilience integration tests for the supervised island-model search.
//!
//! These prove the signature invariant of the island runtime end to end:
//! for a fixed `(seed, topology)` the search produces **byte-identical
//! results** regardless of worker count, kill points, injected island
//! crashes or stalls, and resume order. Concretely:
//!
//! 1. **Worker count is invisible**: the same outcome at 1, 2 and 4
//!    workers, and the same checkpoint *bytes* when interrupted at the
//!    same (content-addressed) point.
//! 2. **Kill-and-resume is exact** with a multi-island topology.
//! 3. **Island faults cost retries, not results**: a transient worker
//!    crash is retried from the island's committed state and is invisible
//!    in the outcome; a persistent crash freezes the island, which still
//!    merges — the search completes on the surviving islands.
//! 4. **Wall-clock events are report-only**: stalls and slow heartbeats
//!    surface in telemetry but never change results.
//! 5. **Foreign or corrupted island checkpoints are rejected with typed
//!    errors and never partially loaded** (property-tested).

use fegen::core::gp::island::ledger_digest;
use fegen::core::ir::IrNode;
use fegen::core::search::TrainingExample;
use fegen::core::{
    CheckpointError, FaultInjector, FaultKind, FaultPlan, FaultTrigger, FeatureSearch,
    IslandTopology, SearchCheckpoint, SearchConfig, SearchError, SearchOutcome, Telemetry,
};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Synthetic task: the best unroll factor is fully determined by the number
/// of `insn` children, so the search reliably finds improving features.
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

/// A small multi-island search configuration. The generation budget scales
/// with the island count because every island's generations bill against
/// the shared `max_total_generations`.
fn island_config(islands: usize) -> SearchConfig {
    let mut config = SearchConfig::quick();
    config.seed = 41;
    config.max_features = 2;
    config.max_total_generations = 24 * islands.max(1);
    config.gp.population = 14;
    config.gp.max_generations = 6;
    config.gp.stagnation_limit = 6;
    config.gp.threads = 1;
    config.topology = IslandTopology {
        islands,
        migration_every: 1,
        restart_limit: 3,
    };
    config
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fegen-isl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_clean(config: &SearchConfig, workers: usize) -> SearchOutcome {
    let examples = synthetic_examples(40);
    let search = FeatureSearch::from_examples(&examples, config.clone());
    search
        .driver()
        .workers(workers)
        .run(&examples)
        .expect("clean island run completes")
}

#[test]
fn outcome_is_identical_across_worker_counts() {
    let config = island_config(4);
    let one = run_clean(&config, 1);
    assert!(
        !one.features.is_empty(),
        "the synthetic task must be solvable, or the test proves nothing"
    );
    let two = run_clean(&config, 2);
    let four = run_clean(&config, 4);
    assert_eq!(one, two, "2 workers must not change the outcome");
    assert_eq!(one, four, "4 workers must not change the outcome");
}

/// Interrupts an island search at a *content-addressed* point (the step
/// attempt keyed `island:0:g2#…`), so every worker count stops at the same
/// round boundary, then compares the checkpoint files byte for byte.
#[test]
fn interrupted_checkpoint_bytes_are_identical_across_worker_counts() {
    let examples = synthetic_examples(40);
    let config = island_config(2);

    let checkpoint_bytes = |workers: usize| {
        let search = FeatureSearch::from_examples(&examples, config.clone());
        let dir = temp_dir(&format!("bytes-w{workers}"));
        let injector = FaultInjector::new(vec![FaultPlan {
            trigger: FaultTrigger::OnKeyPrefix("island:0:g2#".into()),
            kind: FaultKind::Cancel,
        }]);
        let err = search
            .driver()
            .workers(workers)
            .checkpoint(&dir, 2)
            .fault_injector(&injector)
            .run(&examples)
            .expect_err("the keyed cancellation must interrupt the run");
        let SearchError::Interrupted {
            checkpoint: Some(path),
            ..
        } = err
        else {
            panic!("expected Interrupted with a checkpoint path, got {err}");
        };
        let ckpt = SearchCheckpoint::load(&path).expect("checkpoint loads");
        let islands = ckpt.islands.expect("interrupted mid-islands");
        assert!(islands.round >= 1, "at least one round must have committed");
        assert!(
            !islands.ledger.is_empty(),
            "migration_every=1 must have produced ledger entries"
        );
        let bytes = std::fs::read(&path).expect("checkpoint readable");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };

    let one = checkpoint_bytes(1);
    let two = checkpoint_bytes(2);
    let four = checkpoint_bytes(4);
    assert_eq!(one, two, "checkpoint bytes must not depend on worker count");
    assert_eq!(one, four, "checkpoint bytes must not depend on worker count");
}

#[test]
fn kill_and_resume_with_islands_is_exact() {
    let examples = synthetic_examples(40);
    let config = island_config(2);
    let search = FeatureSearch::from_examples(&examples, config.clone());

    let reference = run_clean(&config, 2);

    let dir = temp_dir("resume");
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnCall(40),
        kind: FaultKind::Cancel,
    }]);
    let err = search
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
    assert!(injector.injected() >= 1);

    // Resume at a *different* worker count: the trajectory may not fork.
    let resumed = search
        .driver()
        .workers(4)
        .resume(&checkpoint, &examples)
        .expect("resume completes");
    assert_eq!(resumed, reference, "resume must not fork the trajectory");
    assert!(
        !checkpoint.exists(),
        "a completed search must clean up its checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_island_crash_is_retried_and_invisible() {
    let examples = synthetic_examples(40);
    let config = island_config(2);
    let reference = run_clean(&config, 2);

    // Crash exactly one attempt of island 1's generation-2 step; the
    // retry (attempt 2) must reproduce the committed trajectory.
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnKeyPrefix("island:1:g2#a1".into()),
        kind: FaultKind::IslandKill,
    }]);
    let search = FeatureSearch::from_examples(&examples, config);
    let outcome = search
        .driver()
        .workers(2)
        .fault_injector(&injector)
        .run(&examples)
        .expect("a transient island crash must not abort the search");
    assert!(injector.injected() >= 1, "the kill must have fired");
    assert_eq!(
        outcome, reference,
        "a retried island step must be invisible in the outcome"
    );
}

#[test]
fn persistent_island_crash_freezes_the_island_but_the_search_completes() {
    let examples = synthetic_examples(40);
    let config = island_config(2);

    // Kill *every* attempt of *every* generation step of island 0: the
    // coordinator must exhaust the restart budget, freeze the island, and
    // finish on island 1 alone (the frozen island still merges).
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnKeyPrefix("island:0:g".into()),
        kind: FaultKind::IslandKill,
    }]);
    let telemetry = Telemetry::memory();
    let search = FeatureSearch::from_examples(&examples, config);
    let outcome = search
        .driver()
        .workers(2)
        .fault_injector(&injector)
        .telemetry(telemetry.clone())
        .run(&examples)
        .expect("a dead island must degrade the search, not abort it");
    assert!(
        !outcome.features.is_empty(),
        "the surviving island must still deliver features"
    );
    let lines = telemetry.drain_memory();
    assert!(
        lines.iter().any(|l| l.contains("\"kind\":\"island_frozen\"")),
        "freezing must be reported"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"kind\":\"island_restart\"")),
        "the restart attempts must be reported"
    );
}

/// Island step keys are structured keys: a candidate-hash trigger that
/// matches every fitness call must never match them, so an `IslandKill`
/// armed by `OnMatch` is as benign as on the fitness path.
#[test]
fn candidate_hash_faults_never_hit_island_steps() {
    let examples = synthetic_examples(40);
    let config = island_config(2);
    let reference = run_clean(&config, 2);
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnMatch {
            modulus: 1,
            residue: 0,
        },
        kind: FaultKind::IslandKill,
    }]);
    let search = FeatureSearch::from_examples(&examples, config);
    let outcome = search
        .driver()
        .workers(2)
        .fault_injector(&injector)
        .run(&examples)
        .expect("fitness-path IslandKill faults are benign");
    assert!(injector.injected() >= 1, "every fitness call matches");
    assert_eq!(outcome, reference, "no island may freeze");
}

#[test]
fn stalls_and_slow_heartbeats_are_report_only() {
    let examples = synthetic_examples(40);
    let config = island_config(2);
    let reference = run_clean(&config, 2);

    let injector = FaultInjector::new(vec![
        FaultPlan {
            trigger: FaultTrigger::OnKeyPrefix("island:1:g1#a1".into()),
            kind: FaultKind::IslandStall(40),
        },
        FaultPlan {
            trigger: FaultTrigger::OnKeyPrefix("island:0:g2#a1".into()),
            kind: FaultKind::SlowHeartbeat(30),
        },
    ]);
    let telemetry = Telemetry::memory();
    let search = FeatureSearch::from_examples(&examples, config);
    let outcome = search
        .driver()
        .workers(2)
        .heartbeat_deadline_ms(8)
        .fault_injector(&injector)
        .telemetry(telemetry.clone())
        .run(&examples)
        .expect("stalls must never abort the search");
    assert!(injector.injected() >= 1, "the stall must have fired");
    assert_eq!(
        outcome, reference,
        "wall-clock faults must be invisible in the outcome"
    );
    let lines = telemetry.drain_memory();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"kind\":\"island_heartbeat_missed\"")),
        "the 40ms stall against an 8ms deadline must be reported"
    );
}

// ---------------------------------------------------------------------------
// Property tests: corrupted island checkpoints are rejected, never loaded.
// ---------------------------------------------------------------------------

/// Shared fixture: one real interrupted island run, built once.
struct Fixture {
    examples: Vec<TrainingExample>,
    config: SearchConfig,
    checkpoint: SearchCheckpoint,
    reference: SearchOutcome,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let examples = synthetic_examples(40);
        let config = island_config(2);
        let search = FeatureSearch::from_examples(&examples, config.clone());
        let reference = search.try_run(&examples).expect("reference run completes");

        let dir = temp_dir("fixture");
        let injector = FaultInjector::new(vec![FaultPlan {
            trigger: FaultTrigger::OnKeyPrefix("island:0:g2#".into()),
            kind: FaultKind::Cancel,
        }]);
        let err = search
            .driver()
            .checkpoint(&dir, 2)
            .fault_injector(&injector)
            .run(&examples)
            .expect_err("the keyed cancellation must interrupt the run");
        let SearchError::Interrupted {
            checkpoint: Some(path),
            ..
        } = err
        else {
            panic!("expected Interrupted with a checkpoint path, got {err}");
        };
        let checkpoint = SearchCheckpoint::load(&path).expect("checkpoint loads");
        let islands = checkpoint.islands.as_ref().expect("mid-islands checkpoint");
        assert!(!islands.ledger.is_empty(), "fixture needs a migration ledger");
        let _ = std::fs::remove_dir_all(&dir);
        Fixture {
            examples,
            config,
            checkpoint,
            reference,
        }
    })
}

/// The corruption cases the resume path must reject atomically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Corruption {
    /// One island missing: topology mismatch.
    DropIsland,
    /// One island too many: topology mismatch.
    DuplicateIsland,
    /// Checkpoint from a different configuration.
    ForeignFingerprint,
    /// Migration ledger truncated (digest no longer matches).
    TruncateLedger,
    /// Stored ledger digest flipped.
    FlipLedgerDigest,
    /// Island ids no longer contiguous with their slots.
    SwapIslandIds,
    /// Ledger record claims a round after the snapshot's (digest kept
    /// consistent, so only the range check can catch it).
    LedgerRoundOutOfRange,
}

impl Corruption {
    const ALL: [Corruption; 7] = [
        Corruption::DropIsland,
        Corruption::DuplicateIsland,
        Corruption::ForeignFingerprint,
        Corruption::TruncateLedger,
        Corruption::FlipLedgerDigest,
        Corruption::SwapIslandIds,
        Corruption::LedgerRoundOutOfRange,
    ];

    /// Applies the corruption to a pristine checkpoint.
    fn apply(self, ckpt: &mut SearchCheckpoint, salt: u64) {
        let islands = ckpt.islands.as_mut().expect("island checkpoint");
        match self {
            Corruption::DropIsland => {
                islands.islands.pop();
            }
            Corruption::DuplicateIsland => {
                let dup = islands.islands[0].clone();
                islands.islands.push(dup);
            }
            Corruption::ForeignFingerprint => {
                ckpt.config_fingerprint ^= 1 + salt;
            }
            Corruption::TruncateLedger => {
                let keep = salt as usize % islands.ledger.len();
                islands.ledger.truncate(keep);
            }
            Corruption::FlipLedgerDigest => {
                islands.ledger_digest ^= 1 + salt;
            }
            Corruption::SwapIslandIds => {
                islands.islands.swap(0, 1);
            }
            Corruption::LedgerRoundOutOfRange => {
                islands.ledger[0].round = islands.round + 1 + salt as usize % 7;
                // Keep the digest consistent so only the range check fires.
                islands.ledger_digest = ledger_digest(&islands.ledger);
            }
        }
    }

    /// Whether the rejection is an identity mismatch (`StateMismatch`) or
    /// integrity corruption (`Corrupt`).
    fn expects_mismatch(self) -> bool {
        matches!(
            self,
            Corruption::DropIsland | Corruption::DuplicateIsland | Corruption::ForeignFingerprint
        )
    }
}

mod corruption_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every corruption of a real mid-islands checkpoint is rejected
        /// with the matching *typed* error — never a panic, never a
        /// partially-applied resume.
        #[test]
        fn corrupted_island_checkpoints_are_rejected(
            which in 0usize..Corruption::ALL.len(),
            salt in 0u64..1000,
        ) {
            let corruption = Corruption::ALL[which];
            let fx = fixture();
            let mut ckpt = fx.checkpoint.clone();
            corruption.apply(&mut ckpt, salt);

            let dir = temp_dir(&format!("prop-{which}-{salt}"));
            let path = ckpt.save(&dir).expect("mutated checkpoint saves");
            let search = FeatureSearch::from_examples(&fx.examples, fx.config.clone());
            let err = search
                .driver()
                .resume(&path, &fx.examples)
                .expect_err("a corrupted checkpoint must be rejected");
            let _ = std::fs::remove_dir_all(&dir);
            match err {
                SearchError::Checkpoint(CheckpointError::StateMismatch { .. }) => {
                    prop_assert!(
                        corruption.expects_mismatch(),
                        "{corruption:?} should be Corrupt, got StateMismatch"
                    );
                }
                SearchError::Checkpoint(CheckpointError::Corrupt { .. }) => {
                    prop_assert!(
                        !corruption.expects_mismatch(),
                        "{corruption:?} should be StateMismatch, got Corrupt"
                    );
                }
                other => prop_assert!(false, "expected a typed checkpoint error, got {other}"),
            }
        }
    }
}

/// The flip side of the rejection property: the *pristine* checkpoint the
/// corruptions were derived from resumes to exactly the reference outcome,
/// so rejection is all-or-nothing, not "load what validates".
#[test]
fn the_pristine_fixture_checkpoint_still_resumes_exactly() {
    let fx = fixture();
    let dir = temp_dir("pristine");
    let path = fx.checkpoint.save(&dir).expect("checkpoint saves");
    let search = FeatureSearch::from_examples(&fx.examples, fx.config.clone());
    let resumed = search
        .driver()
        .resume(&path, &fx.examples)
        .expect("the unmodified checkpoint must resume");
    assert_eq!(resumed, fx.reference, "resume must not fork the trajectory");
    let _ = std::fs::remove_dir_all(&dir);
}
