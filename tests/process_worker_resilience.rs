//! Resilience integration tests for the process-level island supervisor.
//!
//! These prove the tentpole invariant end to end: for a fixed `(seed,
//! topology)`, a search stepped by **worker processes** over the frame
//! transport produces results and checkpoints **byte-identical** to the
//! in-process executor on threads — at any worker count, over either
//! carrier (in-memory loopback pipes, child stdio pipes), and under any
//! injected transport fault schedule. Concretely:
//!
//! 1. **Channel and worker count are invisible**: loopback workers at 1, 2
//!    and 4 workers and stdio worker processes at 1 and 2 all reproduce
//!    the thread-mode outcome.
//! 2. **Interrupted checkpoints are byte-identical** across channels and
//!    worker counts, and resume — in either mode — to the thread-mode
//!    reference outcome.
//! 3. **Transient transport faults are byte-invisible**: kills, torn
//!    frames, duplicated frames and stalls at arbitrary round boundaries
//!    cost respawns (telemetry), never bytes.
//! 4. **Exhausting the restart budget degrades, not aborts**: the dead
//!    worker's islands freeze, the survivors complete the search, and the
//!    frozen islands still join the merge.
//! 5. **The worker binary is crash-only**: malformed handshake bytes and
//!    out-of-order conversations (a `Step` before any `Begin`, a `Begin`
//!    whose base features do not extend the adopted ones) make
//!    `fegen island-worker` exit nonzero with a typed error — it never
//!    hangs and never panics. So do `Hello`s whose training rows are
//!    hostile (a symbol index past the string table, a child count that
//!    overruns the rows, a tree past the depth cap); a training loop too
//!    deep for the rows is refused by the supervisor before any worker
//!    spawns.
//!
//! Workers live for the whole search: one handshake per worker, however
//! many GP runs it spans, and a worker respawned in a later run re-adopts
//! the search's `Hello` and the run's `Begin`.

use fegen::core::ir::IrNode;
use fegen::core::search::TrainingExample;
use fegen::core::{
    ChannelKind, FaultInjector, FaultKind, FaultPlan, FaultTrigger, FeatureSearch, IslandStatus,
    IslandTopology, SearchCheckpoint, SearchConfig, SearchError, SearchOutcome, Telemetry,
    WorkerLauncher,
};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

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

/// A task that needs two features: the best factor is the parity of the
/// `insn` count plus twice a flag carried only by the `trip` attribute.
/// Under [`two_feature_config`] the first GP run accepts one feature in 5
/// generations per island and the second accepts another in 10.
fn two_feature_examples(n: usize) -> Vec<TrainingExample> {
    (0..n)
        .map(|i| {
            let insns = 1 + i % 5;
            let flag = (i / 5) % 2;
            let best = insns % 2 + 2 * flag;
            let ir = IrNode::build("loop", |l| {
                l.attr_num("decoy", (i * 7 % 3) as f64);
                l.attr_num("trip", (10 * flag + i % 3) as f64);
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

fn two_feature_config() -> SearchConfig {
    let mut config = island_config(2);
    config.gp.max_generations = 10;
    config.gp.stagnation_limit = 4;
    config
}

/// The same small multi-island configuration the thread-mode resilience
/// suite uses, so the two suites prove properties of the same trajectory.
fn island_config(islands: usize) -> SearchConfig {
    let mut config = SearchConfig::quick();
    config.seed = 41;
    config.max_features = 2;
    config.max_total_generations = 24 * islands.max(1);
    config.gp.population = 14;
    config.gp.max_generations = 6;
    config.gp.stagnation_limit = 6;
    config.topology = IslandTopology {
        islands,
        migration_every: 1,
        restart_limit: 3,
    };
    config
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fegen-proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A launcher spawning this repository's real `fegen island-worker` binary.
fn command_launcher(channel: ChannelKind) -> WorkerLauncher {
    WorkerLauncher::Command {
        argv: vec![
            env!("CARGO_BIN_EXE_fegen").to_owned(),
            "island-worker".to_owned(),
        ],
        channel,
    }
}

/// In-process reference run on worker threads — the byte target everything
/// else must hit.
fn run_threads(config: &SearchConfig, workers: usize) -> SearchOutcome {
    let examples = synthetic_examples(40);
    let search = FeatureSearch::from_examples(&examples, config.clone());
    search
        .driver()
        .workers(workers)
        .run(&examples)
        .expect("thread-mode run completes")
}

fn run_proc(config: &SearchConfig, workers: usize, launcher: WorkerLauncher) -> SearchOutcome {
    let examples = synthetic_examples(40);
    let search = FeatureSearch::from_examples(&examples, config.clone());
    search
        .driver()
        .process_workers(workers, launcher)
        .run(&examples)
        .expect("process-mode run completes")
}

// ---------------------------------------------------------------------------
// 1. Channel and worker count are invisible.
// ---------------------------------------------------------------------------

#[test]
fn loopback_workers_reproduce_the_thread_outcome_at_any_count() {
    let config = island_config(4);
    let reference = run_threads(&config, 2);
    assert!(
        !reference.features.is_empty(),
        "the synthetic task must be solvable, or the test proves nothing"
    );
    for workers in [1, 2, 4] {
        let got = run_proc(&config, workers, WorkerLauncher::Loopback);
        assert_eq!(
            got, reference,
            "{workers} loopback worker(s) must not change the outcome"
        );
    }
}

#[test]
fn stdio_process_workers_reproduce_the_thread_outcome() {
    let config = island_config(4);
    let reference = run_threads(&config, 2);
    for workers in [1, 2] {
        let got = run_proc(&config, workers, command_launcher(ChannelKind::Stdio));
        assert_eq!(
            got, reference,
            "{workers} stdio worker process(es) must not change the outcome"
        );
    }
}

// ---------------------------------------------------------------------------
// 2. Interrupted checkpoints: byte-identical across channels and counts,
//    resumable in either mode.
// ---------------------------------------------------------------------------

/// Interrupts a process-mode run at a content-addressed point (the first
/// attempt of island 0's generation-2 step — every variant reaches it) and
/// returns the checkpoint's bytes and path.
fn interrupted_proc_checkpoint(
    config: &SearchConfig,
    workers: usize,
    launcher: WorkerLauncher,
    tag: &str,
) -> (Vec<u8>, PathBuf, PathBuf) {
    let examples = synthetic_examples(40);
    let search = FeatureSearch::from_examples(&examples, config.clone());
    let dir = temp_dir(tag);
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnKeyPrefix("island:0:g2#a1".into()),
        kind: FaultKind::Cancel,
    }]);
    let err = search
        .driver()
        .process_workers(workers, launcher)
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
    assert!(injector.injected() >= 1, "the cancel must have fired");
    let ckpt = SearchCheckpoint::load(&path).expect("checkpoint loads");
    let islands = ckpt.islands.expect("interrupted mid-islands");
    assert!(
        islands.round >= 1,
        "at least one committed round must precede the cancel"
    );
    let bytes = std::fs::read(&path).expect("checkpoint readable");
    (bytes, path, dir)
}

#[test]
fn interrupted_checkpoint_bytes_are_identical_across_channels_and_counts() {
    let config = island_config(2);
    let variants = [
        ("loop-w1", 1, WorkerLauncher::Loopback),
        ("loop-w2", 2, WorkerLauncher::Loopback),
        ("loop-w4", 4, WorkerLauncher::Loopback),
        ("stdio-w2", 2, command_launcher(ChannelKind::Stdio)),
    ];
    let mut first: Option<(String, Vec<u8>)> = None;
    for (tag, workers, launcher) in variants {
        let (bytes, _, dir) = interrupted_proc_checkpoint(&config, workers, launcher, tag);
        match &first {
            None => first = Some((tag.to_owned(), bytes)),
            Some((ref_tag, ref_bytes)) => assert_eq!(
                &bytes, ref_bytes,
                "checkpoint bytes of {tag} diverged from {ref_tag}"
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Cross-mode resume, both directions: a checkpoint cut with process
/// workers resumes in process on threads (and vice versa) to the
/// same reference outcome — the trajectory lives in the bytes, not in the
/// runtime that wrote them.
#[test]
fn checkpoints_resume_across_modes_to_the_same_outcome() {
    let examples = synthetic_examples(40);
    let config = island_config(2);
    let reference = run_threads(&config, 2);
    let search = FeatureSearch::from_examples(&examples, config.clone());

    // Proc-cut checkpoint → thread-mode resume.
    let (_, path, dir) =
        interrupted_proc_checkpoint(&config, 2, WorkerLauncher::Loopback, "xmode-proc");
    let resumed = search
        .driver()
        .workers(2)
        .resume(&path, &examples)
        .expect("thread-mode resume completes");
    assert_eq!(resumed, reference, "proc→thread resume forked the trajectory");
    let _ = std::fs::remove_dir_all(&dir);

    // Thread-cut checkpoint → proc-mode resume.
    let dir = temp_dir("xmode-thread");
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnKeyPrefix("island:0:g2#".into()),
        kind: FaultKind::Cancel,
    }]);
    let err = search
        .driver()
        .workers(2)
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
    let resumed = search
        .driver()
        .process_workers(2, WorkerLauncher::Loopback)
        .resume(&path, &examples)
        .expect("proc-mode resume completes");
    assert_eq!(resumed, reference, "thread→proc resume forked the trajectory");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 3. Transient transport faults are byte-invisible.
// ---------------------------------------------------------------------------

#[test]
fn kill_torn_stall_and_duplicate_schedules_converge_to_the_same_bytes() {
    let config = island_config(2);
    let reference = run_threads(&config, 2);
    let examples = synthetic_examples(40);

    // Each schedule hits a different round boundary with a different fault
    // kind; each costs at most `restart_limit` retries, so every island
    // still completes.
    let schedules: Vec<(&str, Vec<FaultPlan>)> = vec![
        (
            "kill-and-respawn",
            vec![FaultPlan {
                trigger: FaultTrigger::OnKeyPrefix("island:0:g1#a1".into()),
                kind: FaultKind::IslandKill,
            }],
        ),
        (
            "torn-frame",
            vec![FaultPlan {
                trigger: FaultTrigger::OnKeyPrefix("island:1:g2#a1".into()),
                kind: FaultKind::TornFrame,
            }],
        ),
        (
            "stall-then-kill",
            vec![
                FaultPlan {
                    trigger: FaultTrigger::OnKeyPrefix("island:0:g3#a1".into()),
                    kind: FaultKind::IslandStall(30),
                },
                FaultPlan {
                    trigger: FaultTrigger::OnKeyPrefix("island:0:g3#a1".into()),
                    kind: FaultKind::IslandKill,
                },
            ],
        ),
        (
            "duplicate-frames",
            vec![FaultPlan {
                trigger: FaultTrigger::OnKeyPrefix("island:1:g1#a1".into()),
                kind: FaultKind::DuplicateFrame,
            }],
        ),
        (
            "slow-handshake",
            vec![FaultPlan {
                trigger: FaultTrigger::OnKeyPrefix("island:0:g1#a1".into()),
                kind: FaultKind::SlowHandshake(20),
            }],
        ),
    ];
    for (tag, plans) in schedules {
        let injector = FaultInjector::new(plans);
        let telemetry = Telemetry::memory();
        let search = FeatureSearch::from_examples(&examples, config.clone());
        let outcome = search
            .driver()
            .process_workers(2, WorkerLauncher::Loopback)
            .fault_injector(&injector)
            .telemetry(telemetry.clone())
            .run(&examples)
            .unwrap_or_else(|e| panic!("schedule {tag} aborted the search: {e}"));
        assert!(injector.injected() >= 1, "schedule {tag} never fired");
        assert_eq!(
            outcome, reference,
            "schedule {tag} leaked into the result bytes"
        );
        if tag == "kill-and-respawn" {
            let lines = telemetry.drain_memory();
            assert!(
                lines.iter().any(|l| l.contains("\"kind\":\"worker_respawn\"")),
                "the kill must be visible in telemetry"
            );
        }
    }
}

/// The same transient kill, driven through real stdio worker processes:
/// the supervisor reaps the killed child and respawns a fresh one, and the
/// outcome still matches the thread-mode reference.
#[test]
fn killed_stdio_worker_process_is_respawned_and_byte_invisible() {
    let config = island_config(2);
    let reference = run_threads(&config, 2);
    let examples = synthetic_examples(40);
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnKeyPrefix("island:0:g2#a1".into()),
        kind: FaultKind::IslandKill,
    }]);
    let telemetry = Telemetry::memory();
    let search = FeatureSearch::from_examples(&examples, config);
    let outcome = search
        .driver()
        .process_workers(2, command_launcher(ChannelKind::Stdio))
        .fault_injector(&injector)
        .telemetry(telemetry.clone())
        .run(&examples)
        .expect("a killed worker process must not abort the search");
    assert!(injector.injected() >= 1, "the kill must have fired");
    assert_eq!(outcome, reference, "the respawn leaked into the bytes");
    assert!(
        telemetry.counter_value("worker.respawns") >= 1,
        "the respawn must be counted"
    );
}

/// Workers live for the whole search: a worker killed in the *second* GP
/// run — at island 0's sixth generation, which only that run reaches — is
/// respawned with the search's `Hello` and that run's `Begin`, which
/// carries the feature the first run accepted, and the outcome still
/// matches the thread-mode reference.
#[test]
fn a_worker_killed_in_a_later_gp_run_readopts_hello_and_begin() {
    let examples = two_feature_examples(45);
    let search = FeatureSearch::from_examples(&examples, two_feature_config());
    let reference = search
        .driver()
        .workers(2)
        .run(&examples)
        .expect("thread-mode run completes");
    assert!(
        reference.features.len() >= 2,
        "the search must span two accepting GP runs, or the test proves nothing"
    );
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnKeyPrefix("island:0:g6#a1".into()),
        kind: FaultKind::IslandKill,
    }]);
    let telemetry = Telemetry::memory();
    let outcome = search
        .driver()
        .process_workers(2, command_launcher(ChannelKind::Stdio))
        .fault_injector(&injector)
        .telemetry(telemetry.clone())
        .run(&examples)
        .expect("a worker killed in a later run must not abort the search");
    assert_eq!(
        injector.injected(),
        1,
        "only the second GP run reaches island 0's sixth generation"
    );
    assert_eq!(outcome, reference, "the later-run respawn leaked into the bytes");
    assert!(
        telemetry.counter_value("worker.respawns") >= 1,
        "the respawn must be counted"
    );
    assert_eq!(
        telemetry.counter_value("worker.handshakes"),
        3,
        "one handshake per worker for the search, plus the respawned one"
    );
    let lines = telemetry.drain_memory();
    let first_step = lines
        .iter()
        .position(|l| l.contains("\"kind\":\"feature_step\""))
        .expect("a feature step is reported");
    assert!(
        lines[first_step].contains("\"features\":1"),
        "the first GP run must accept a feature: {}",
        lines[first_step]
    );
    let respawn = lines
        .iter()
        .position(|l| l.contains("\"kind\":\"worker_respawn\""))
        .expect("the respawn is reported");
    assert!(
        respawn > first_step,
        "the kill must land after the first feature was accepted"
    );
}

/// A fault-free search hands each worker the training set once: exactly
/// one handshake per worker, however many GP runs the search spans.
#[test]
fn workers_handshake_once_per_search_not_once_per_gp_run() {
    let examples = two_feature_examples(45);
    let search = FeatureSearch::from_examples(&examples, two_feature_config());
    let reference = search
        .driver()
        .workers(2)
        .run(&examples)
        .expect("thread-mode run completes");
    let telemetry = Telemetry::memory();
    let outcome = search
        .driver()
        .process_workers(2, WorkerLauncher::Loopback)
        .telemetry(telemetry.clone())
        .run(&examples)
        .expect("process-mode run completes");
    assert_eq!(outcome, reference);
    assert!(
        outcome.features.len() >= 2,
        "the search must span at least two GP runs, or the test proves nothing"
    );
    assert_eq!(telemetry.counter_value("worker.handshakes"), 2);
    assert_eq!(telemetry.counter_value("worker.respawns"), 0);
}

// ---------------------------------------------------------------------------
// 4. Exhausting the restart budget freezes, the run completes.
// ---------------------------------------------------------------------------

#[test]
fn exhausted_reconnect_window_freezes_islands_but_the_search_completes() {
    let examples = synthetic_examples(40);
    let config = island_config(2);

    // Kill island 1's worker on *every* attempt of *every* step: the island
    // must freeze after `restart_limit + 1` attempts, and the search must
    // complete on island 0 alone, with the frozen island still merged.
    let injector = FaultInjector::new(vec![FaultPlan {
        trigger: FaultTrigger::OnKeyPrefix("island:1:g".into()),
        kind: FaultKind::IslandKill,
    }]);
    let telemetry = Telemetry::memory();
    let search = FeatureSearch::from_examples(&examples, config);
    let outcome = search
        .driver()
        .process_workers(2, WorkerLauncher::Loopback)
        .fault_injector(&injector)
        .telemetry(telemetry.clone())
        .run(&examples)
        .expect("a dead worker must degrade the search, not abort it");
    assert!(
        !outcome.features.is_empty(),
        "the surviving island must still deliver features"
    );
    assert!(
        telemetry.counter_value("island.frozen") >= 1,
        "the freeze must be counted"
    );
    let lines = telemetry.drain_memory();
    for kind in ["worker_frozen", "island_frozen", "worker_respawn"] {
        assert!(
            lines.iter().any(|l| l.contains(&format!("\"kind\":\"{kind}\""))),
            "expected a `{kind}` event in {} line(s)",
            lines.len()
        );
    }
}

/// Freezing must also be visible in the *state*: interrupt right after the
/// freeze and check the checkpoint records the island as frozen — that is
/// the one (deliberate, reported) divergence transport faults may cause.
#[test]
fn a_frozen_island_is_recorded_in_the_checkpoint() {
    let examples = synthetic_examples(40);
    let config = island_config(2);
    let search = FeatureSearch::from_examples(&examples, config);
    let dir = temp_dir("frozen-ckpt");
    let injector = FaultInjector::new(vec![
        // Island 1's worker never comes back...
        FaultPlan {
            trigger: FaultTrigger::OnKeyPrefix("island:1:g".into()),
            kind: FaultKind::IslandKill,
        },
        // ...and once round 2 starts (island 1 already frozen), cancel.
        FaultPlan {
            trigger: FaultTrigger::OnKeyPrefix("island:0:g2#a1".into()),
            kind: FaultKind::Cancel,
        },
    ]);
    let err = search
        .driver()
        .process_workers(2, WorkerLauncher::Loopback)
        .checkpoint(&dir, 1)
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
    assert_eq!(
        islands.islands[1].status,
        IslandStatus::Frozen,
        "the frozen island must be checkpointed as frozen"
    );
    assert_eq!(
        islands.islands[0].status,
        IslandStatus::Active,
        "the healthy island must stay active"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 5. The worker binary is crash-only on malformed handshakes.
// ---------------------------------------------------------------------------

/// Feeds `bytes` to a real `fegen island-worker` child and returns
/// `(exit_ok, stderr)`, failing the test if the child outlives the
/// deadline (a hang is exactly the bug this guards against).
fn drive_worker_with(bytes: &[u8]) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fegen"))
        .arg("island-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("island-worker spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(bytes)
        .expect("handshake bytes written");
    // stdin drops here: EOF after the garbage.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if std::time::Instant::now() > deadline => {
                let _ = child.kill();
                panic!("island-worker hung on malformed handshake");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("stderr readable");
    (status.success(), stderr)
}

#[test]
fn malformed_handshakes_exit_nonzero_with_typed_errors() {
    use fegen::core::gp::engine::GpSnapshot;
    use fegen::core::gp::island::IslandSnapshot;
    use fegen::core::gp::transport::encode_frame;
    use fegen::core::gp::worker_proc::{encode_msg, WireMsg, WorkerSpec};
    use fegen::core::serve::wire::MAX_IR_DEPTH;
    use fegen::core::training_rows::LoopRows;

    // Not a frame at all: the magic check must reject it.
    let garbage = b"this is not a frame, not even close, padding padding!".to_vec();
    // A pristine frame whose payload is not a message.
    let bad_payload = encode_frame(0, b"{\"NotAMessage\":{}}").expect("frame encodes");
    // A valid message that is not a handshake.
    let not_hello = encode_frame(
        0,
        &encode_msg(&WireMsg::HelloAck { spec_digest: 1 }).expect("message encodes"),
    )
    .expect("frame encodes");
    // Immediate EOF: zero handshake bytes.
    let eof = Vec::new();
    // A valid handshake, then a conversation out of order.
    let examples = synthetic_examples(40);
    let config = island_config(2);
    let search = FeatureSearch::from_examples(&examples, config.clone());
    let conversation = |msgs: &[WireMsg]| -> Vec<u8> {
        msgs.iter()
            .enumerate()
            .flat_map(|(seq, msg)| {
                encode_frame(seq as u64, &encode_msg(msg).expect("message encodes"))
                    .expect("frame encodes")
            })
            .collect()
    };
    let spec = WorkerSpec::new(config.clone(), search.grammar(), &examples).expect("rows build");
    // Hostile training rows inside an otherwise valid Hello.
    let hostile = |spoil: &dyn Fn(&mut LoopRows)| {
        let mut spec = spec.clone();
        spoil(&mut spec.examples.loops[0]);
        conversation(&[WireMsg::Hello { spec }])
    };
    let rows_symbol = hostile(&|l| l.nodes[0] = u32::MAX);
    let rows_overrun = hostile(&|l| l.nodes[1] = u32::MAX);
    let rows_too_deep = hostile(&|l| {
        let kind = l.nodes[0];
        l.nodes = (0..=MAX_IR_DEPTH)
            .flat_map(|level| [kind, u32::from(level < MAX_IR_DEPTH), 0])
            .collect();
        l.nums.clear();
    });
    let hello = WireMsg::Hello { spec };
    let begin = |base: &str| WireMsg::Begin {
        gp: config.gp.clone(),
        base_features: vec![base.to_owned()],
    };
    let step = WireMsg::Step {
        island: IslandSnapshot {
            id: 0,
            status: IslandStatus::Active,
            gp: GpSnapshot {
                population: vec!["count(//*)".to_owned()],
                best: None,
                stagnant: 0,
                generations: 0,
                evaluations: 0,
                panics: 0,
                memo: Vec::new(),
                rng: [1, 2, 3, 4],
            },
        },
    };
    let step_before_begin = conversation(&[hello.clone(), step]);
    let begin_not_extending =
        conversation(&[hello, begin("count(//*)"), begin("count(/*)")]);

    for (tag, bytes, needle) in [
        ("garbage", garbage, "transport"),
        ("bad-payload", bad_payload, "transport"),
        ("not-hello", not_hello, "handshake"),
        ("eof", eof, "transport"),
        ("step-before-begin", step_before_begin, "Step before Begin"),
        ("begin-not-extending", begin_not_extending, "do not extend"),
        ("rows-symbol-index", rows_symbol, "past the string table"),
        ("rows-child-overrun", rows_overrun, "runs out of node rows"),
        ("rows-too-deep", rows_too_deep, "nests deeper than"),
    ] {
        let (ok, stderr) = drive_worker_with(&bytes);
        assert!(!ok, "{tag}: the worker must exit nonzero, stderr: {stderr}");
        assert!(
            stderr.contains("island-worker") && stderr.contains(needle),
            "{tag}: expected a typed `{needle}` error on stderr, got: {stderr}"
        );
    }
}

#[test]
fn a_loop_too_deep_for_the_rows_is_refused_before_any_worker_spawns() {
    use fegen::core::serve::wire::MAX_IR_DEPTH;
    let mut examples = synthetic_examples(40);
    let mut deep = IrNode::new("insn");
    for _ in 0..MAX_IR_DEPTH {
        let mut parent = IrNode::new("loop");
        parent.push_child(deep);
        deep = parent;
    }
    examples.push(TrainingExample {
        ir: deep,
        cycles: vec![100.0, 90.0, 95.0, 99.0],
    });
    let config = island_config(2);
    let search = FeatureSearch::from_examples(&examples, config);
    let telemetry = Telemetry::memory();
    let err = search
        .driver()
        .telemetry(telemetry.clone())
        .process_workers(2, WorkerLauncher::Loopback)
        .run(&examples)
        .expect_err("the deep loop cannot travel to a worker");
    assert!(
        matches!(&err, SearchError::WireEncode { detail }
            if detail.contains("training example 40 nests deeper than")),
        "got {err}"
    );
    assert_eq!(telemetry.counter_value("worker.handshakes"), 0);
}
