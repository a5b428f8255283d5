//! Fault-tolerance integration tests for the search runtime.
//!
//! These prove the two load-bearing properties of the checkpoint/resume
//! design end to end, driven by the deterministic fault-injection harness:
//!
//! 1. **Kill-and-resume is exact**: a search interrupted by an injected
//!    cancellation and resumed from its checkpoint reaches the *identical*
//!    [`SearchOutcome`] an uninterrupted run produces — on one population,
//!    and on a two-island ring stepped by two worker slots.
//! 2. **Faulty evaluators cost candidates, not the search**: injected
//!    panics, exhausted budgets and NaN fitness values are isolated per
//!    candidate; the greedy loop always runs to completion, and results
//!    stay independent of the island worker count.

use fegen::core::ir::IrNode;
use fegen::core::search::TrainingExample;
use fegen::core::{
    FaultInjector, FaultKind, FaultPlan, FaultTrigger, FeatureSearch, IslandTopology, SearchConfig,
    SearchError,
};
use std::path::PathBuf;

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
    let dir = std::env::temp_dir().join(format!("fegen-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// FNV-1a, mirroring the injector's candidate hash for OnMatch assertions.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Interrupts a run on `workers` island worker slots via an injected
/// cancellation on the `on_call`th fitness evaluation, then resumes from
/// the written checkpoint on as many slots and checks the final outcome
/// against an uninterrupted single-slot reference run.
fn kill_and_resume(config: SearchConfig, workers: usize, on_call: u64, tag: &str) {
    let examples = synthetic_examples(40);
    let search = FeatureSearch::from_examples(&examples, config);

    let reference = search
        .try_run(&examples)
        .expect("uninterrupted run completes");
    assert!(
        !reference.features.is_empty(),
        "the synthetic task must be solvable, or the test proves nothing"
    );

    let dir = temp_dir(tag);
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnCall(on_call),
        kind: FaultKind::Cancel,
    }]);
    let err = search
        .driver()
        .workers(workers)
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
    assert!(checkpoint.exists());
    assert!(injector.injected() >= 1);

    let resumed = search
        .driver()
        .workers(workers)
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
fn kill_and_resume_is_exact_sequential() {
    kill_and_resume(small_config(), 1, 25, "seq");
}

#[test]
fn kill_and_resume_is_exact_parallel() {
    kill_and_resume(ring_config(), 2, 25, "par");
}

#[test]
fn kill_and_resume_is_exact_when_interrupted_late() {
    // A later interruption lands in a later outer iteration, exercising
    // resume with accepted features and recomputed base columns.
    kill_and_resume(small_config(), 1, 70, "late");
}

#[test]
fn injected_panics_cost_candidates_not_the_search() {
    let examples = synthetic_examples(40);
    let search = FeatureSearch::from_examples(&examples, small_config());
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnMatch {
            modulus: 5,
            residue: 2,
        },
        kind: FaultKind::Panic,
    }]);
    let outcome = search
        .driver()
        .fault_injector(&injector)
        .run(&examples)
        .expect("a panicking evaluator must not abort the search");
    assert!(injector.injected() > 0, "the fault pattern should have fired");
    // Poisoned candidates can never be accepted: they are isolated and
    // memoised as invalid, exactly like timeouts.
    for f in &outcome.features {
        assert_ne!(fnv1a(f.to_string().as_bytes()) % 5, 2, "accepted {f}");
    }
}

#[test]
fn search_is_deterministic_across_thread_counts_under_panics() {
    let examples = synthetic_examples(40);
    let search = FeatureSearch::from_examples(&examples, ring_config());
    let run_with = |workers: usize| {
        // OnMatch faults are a property of the candidate, not the call
        // order, so injection is identical whatever the worker count.
        let injector = FaultInjector::new(vec![FaultPlan {
            trigger: FaultTrigger::OnMatch {
                modulus: 5,
                residue: 2,
            },
            kind: FaultKind::Panic,
        }]);
        search
            .driver()
            .workers(workers)
            .fault_injector(&injector)
            .run(&examples)
            .expect("search completes under injected panics")
    };
    let seq = run_with(1);
    let par = run_with(2);
    assert_eq!(seq.features, par.features);
    assert_eq!(seq.steps, par.steps);
    assert_eq!(seq.total_generations, par.total_generations);
}

#[test]
fn budget_exhaustion_penalizes_only_the_candidate() {
    // Candidates whose evaluation "runs out of budget" (fitness None, the
    // same signal EvalError::BudgetExceeded produces in one internal-CV
    // fold) lose their slot; the greedy loop itself must run to completion
    // and still find clean features.
    let examples = synthetic_examples(40);
    let search = FeatureSearch::from_examples(&examples, small_config());
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnMatch {
            modulus: 3,
            residue: 1,
        },
        kind: FaultKind::ExhaustBudget,
    }]);
    let outcome = search
        .driver()
        .fault_injector(&injector)
        .run(&examples)
        .expect("budget exhaustion must never abort the greedy loop");
    assert!(injector.injected() > 0);
    for f in &outcome.features {
        assert_ne!(fnv1a(f.to_string().as_bytes()) % 3, 1, "accepted {f}");
    }
}

#[test]
fn nan_fitness_never_wins() {
    let examples = synthetic_examples(40);
    let search = FeatureSearch::from_examples(&examples, small_config());
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnMatch {
            modulus: 2,
            residue: 0,
        },
        kind: FaultKind::NanFitness,
    }]);
    let outcome = search
        .driver()
        .fault_injector(&injector)
        .run(&examples)
        .expect("NaN fitness must never abort the search");
    for f in &outcome.features {
        assert_ne!(fnv1a(f.to_string().as_bytes()) % 2, 0, "accepted {f}");
    }
}

#[test]
fn empty_training_set_is_a_typed_error() {
    let examples = synthetic_examples(10);
    let search = FeatureSearch::from_examples(&examples, small_config());
    assert!(matches!(
        search.try_run(&[]),
        Err(SearchError::EmptyTrainingSet)
    ));
}

/// A version-2 checkpoint, as a single-population search wrote it
/// mid-GP: the run's state under `gp`, which version 3 no longer has.
const V2_CHECKPOINT: &str = r#"{
  "version": 2,
  "config_fingerprint": 11,
  "examples_digest": 22,
  "rng": [1, 2, 3, 4],
  "features": [],
  "steps": [],
  "best_speedup": 1.0,
  "failed": 0,
  "total_generations": 0,
  "gp": {
    "population": ["count(//*)"],
    "best": null,
    "stagnant": 0,
    "generations": 1,
    "evaluations": 1,
    "panics": 0,
    "panic_generations": 0,
    "degraded": false,
    "memo": [["count(//*)", 1.0]],
    "rng": [5, 6, 7, 8]
  },
  "islands": null
}"#;

/// A version-3 checkpoint written mid-GP: each island's run carries the
/// panic bookkeeping of the in-generation thread pool, which version 4
/// no longer has.
const V3_CHECKPOINT: &str = r#"{
  "version": 3,
  "config_fingerprint": 11,
  "examples_digest": 22,
  "rng": [1, 2, 3, 4],
  "features": [],
  "steps": [],
  "best_speedup": 1.0,
  "failed": 0,
  "total_generations": 0,
  "islands": {
    "round": 1,
    "islands": [
      {
        "id": 0,
        "status": "Active",
        "gp": {
          "population": ["count(//*)"],
          "best": null,
          "stagnant": 0,
          "generations": 1,
          "evaluations": 1,
          "panics": 0,
          "panic_generations": 0,
          "degraded": false,
          "memo": [["count(//*)", 1.0]],
          "rng": [5, 6, 7, 8]
        }
      }
    ],
    "ledger": [],
    "ledger_digest": 14695981039346656037
  }
}"#;

#[test]
fn a_version_2_checkpoint_is_refused_by_library_and_cli() {
    let expected = fegen::core::CHECKPOINT_VERSION;
    for (version, text) in [(2u32, V2_CHECKPOINT), (3, V3_CHECKPOINT)] {
        let dir = temp_dir(&format!("v{version}"));
        std::fs::create_dir_all(&dir).expect("checkpoint dir");
        let path = dir.join(fegen::core::CHECKPOINT_FILE);
        std::fs::write(&path, text).expect("checkpoint written");

        let examples = synthetic_examples(10);
        let search = FeatureSearch::from_examples(&examples, small_config());
        let err = search
            .driver()
            .resume(&dir, &examples)
            .expect_err("an older checkpoint must be refused");
        assert!(
            matches!(
                err,
                SearchError::Checkpoint(fegen::core::CheckpointError::VersionMismatch {
                    found,
                    expected: e,
                    ..
                }) if found == version && e == expected
            ),
            "v{version}: {err}"
        );

        let program = dir.join("prog.tc");
        std::fs::write(
            &program,
            "int data[64];\n\
             void init() { int i; for (i = 0; i < 64; i = i + 1) { data[i] = i * 7 % 13; } }\n\
             int sum(int n) { int i; int s; s = 0; \
             for (i = 0; i < 48; i = i + 1) { s = s + data[i] * 3; } return s; }\n",
        )
        .expect("program written");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fegen"))
            .arg("search")
            .arg(&program)
            .arg("--resume")
            .arg(&dir)
            .output()
            .expect("fegen runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "v{version}: resume must fail, stderr: {stderr}"
        );
        let message = format!("has format version {version}, this build expects {expected}");
        assert!(
            stderr.contains(&message),
            "v{version}: expected the typed version error, got: {stderr}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resuming_a_foreign_checkpoint_is_rejected() {
    let examples = synthetic_examples(30);
    let config = small_config();
    let search = FeatureSearch::from_examples(&examples, config.clone());

    let dir = temp_dir("foreign");
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnCall(25),
        kind: FaultKind::Cancel,
    }]);
    let err = search
        .driver()
        .checkpoint(&dir, 2)
        .fault_injector(&injector)
        .run(&examples)
        .expect_err("interrupted");
    let SearchError::Interrupted {
        checkpoint: Some(checkpoint),
        ..
    } = err
    else {
        panic!("expected a checkpoint, got {err}");
    };

    // Different config → StateMismatch.
    let mut other_config = config.clone();
    other_config.seed ^= 0xdead;
    let other = FeatureSearch::from_examples(&examples, other_config);
    let err = other
        .driver()
        .resume(&checkpoint, &examples)
        .expect_err("foreign config must be rejected");
    assert!(
        matches!(
            err,
            SearchError::Checkpoint(fegen::core::CheckpointError::StateMismatch { .. })
        ),
        "{err}"
    );

    // Different examples → StateMismatch.
    let err = search
        .driver()
        .resume(&checkpoint, &synthetic_examples(31))
        .expect_err("foreign examples must be rejected");
    assert!(
        matches!(
            err,
            SearchError::Checkpoint(fegen::core::CheckpointError::StateMismatch { .. })
        ),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
