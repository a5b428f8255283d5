//! Protocol abuse suite for `fegen serve`: everything a hostile or broken
//! client can put on the wire must end in a typed response or a dead
//! *connection* — never a dead daemon, never a panic — and the bounded
//! caches behind the daemon must stay observationally equivalent to the
//! unbounded ones they replaced.
//!
//! Three layers are exercised: the frame codec (torn frames, oversized
//! length prefixes), the JSON message layer (garbage payloads, absurd
//! nesting, interner-flooding symbol sets), and the model artifact
//! (version skew at startup, hot-reload mid-session).

use fegen::core::gp::transport::{
    duplex, SendFault, StreamTransport, TransportError, FRAME_MAGIC, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use fegen::core::ir::{IrNode, Symbol};
use fegen::core::serve::{
    decode_response, encode_request, serve_connection, ModelArtifact, ModelError,
    ServeEngine, ServeError, ServeOptions, ServeRequest, ServeResponse, WireAttr, WireNode,
    ERROR_ID_UNDECODABLE, MAX_IR_DEPTH, SERVE_PROTOCOL,
};
use fegen::core::{
    parse_feature, EvalEngine, EvalPool, FrameTransport, SearchConfig, Telemetry,
    TrainingExample,
};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fegen-serve-proto-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Synthetic training loops: no simulator involved, so artifact staging is
/// milliseconds, not seconds.
fn examples() -> Vec<TrainingExample> {
    (0..6)
        .map(|i| {
            let ir = IrNode::build("loop", |l| {
                l.attr_num("num-iter", 4.0 + i as f64);
                for _ in 0..=i {
                    l.child("insn", |n| {
                        n.attr_enum("mode", "SI");
                    });
                }
            });
            let cycles = (0..4)
                .map(|k| 100.0 + (k as f64 - (i % 4) as f64).abs() * 10.0)
                .collect();
            TrainingExample { ir, cycles }
        })
        .collect()
}

fn artifact_with(features: &[&str]) -> ModelArtifact {
    let parsed: Vec<_> = features
        .iter()
        .map(|s| parse_feature(s).expect("feature parses"))
        .collect();
    ModelArtifact::train(&SearchConfig::quick(), &parsed, &examples())
        .expect("artifact trains")
}

fn staged_model(dir: &Path) -> PathBuf {
    let path = dir.join("model.fgm");
    artifact_with(&["count(//*)", "count(filter(//*, is-type(insn)))"])
        .save(&path)
        .expect("artifact saves");
    path
}

fn engine_at(path: PathBuf) -> ServeEngine {
    ServeEngine::new(path, ServeOptions::default(), Telemetry::disabled())
        .expect("engine starts on a valid model")
}

fn frame(req: &ServeRequest) -> Vec<u8> {
    encode_request(req).expect("request encodes")
}

fn sample_loop() -> WireNode {
    WireNode {
        kind: "loop".into(),
        attrs: vec![("num-iter".into(), WireAttr::Num(8.0))],
        children: vec![WireNode {
            kind: "insn".into(),
            attrs: vec![("mode".into(), WireAttr::Enum("SI".into()))],
            children: vec![],
        }],
    }
}

fn hello<T: FrameTransport>(client: &mut T) {
    client
        .send(&frame(&ServeRequest::Hello {
            protocol: SERVE_PROTOCOL,
        }))
        .expect("hello sends");
    let ack = client.recv().expect("ack arrives");
    assert!(
        matches!(
            decode_response(&ack).expect("ack decodes"),
            ServeResponse::HelloAck { protocol, .. } if protocol == SERVE_PROTOCOL
        ),
        "handshake must ack"
    );
}

fn expect_decisions<T: FrameTransport>(client: &mut T, id: u64, n: usize) {
    let reply = client.recv().expect("decisions arrive");
    match decode_response(&reply).expect("decisions decode") {
        ServeResponse::Decisions { id: got, decisions } => {
            assert_eq!(got, id);
            assert_eq!(decisions.len(), n);
        }
        other => panic!("expected Decisions, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// 1. Frame-layer abuse: the connection dies, the engine survives.
// ---------------------------------------------------------------------------

#[test]
fn torn_frame_kills_the_connection_but_not_the_engine() {
    let dir = tmp_dir("torn");
    let engine = Arc::new(engine_at(staged_model(&dir)));

    // Connection 1: handshake, then a deliberately torn frame.
    let server_engine = Arc::clone(&engine);
    let (mut client, mut server) = duplex();
    let handle = std::thread::spawn(move || serve_connection(&mut server, &server_engine));
    hello(&mut client);
    client
        .send_with(
            &frame(&ServeRequest::Stats { id: 1 }),
            SendFault::Torn,
        )
        .expect("torn send reports success");
    drop(client);
    match handle.join().expect("server thread survives") {
        Err(ServeError::Transport(TransportError::TornFrame { .. })) => {}
        other => panic!("expected a torn-frame transport error, got {other:?}"),
    }

    // Connection 2 over the SAME engine: full service, untouched.
    let server_engine = Arc::clone(&engine);
    let (mut client, mut server) = duplex();
    let handle = std::thread::spawn(move || serve_connection(&mut server, &server_engine));
    hello(&mut client);
    client
        .send(&frame(&ServeRequest::Predict {
            id: 2,
            loops: vec![sample_loop()],
        }))
        .expect("predict sends");
    expect_decisions(&mut client, 2, 1);
    drop(client);
    handle.join().expect("thread").expect("clean close");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    // Hand-craft a header whose length field exceeds the hard cap; the
    // reader must refuse with OverLength instead of trying to allocate.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&FRAME_MAGIC);
    bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());

    let mut server = StreamTransport::new(std::io::Cursor::new(bytes), std::io::sink());
    match server.recv() {
        Err(TransportError::OverLength { len, max }) => {
            assert_eq!(len, MAX_FRAME_LEN + 1);
            assert_eq!(max, MAX_FRAME_LEN);
        }
        other => panic!("expected OverLength, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// 2. Message-layer abuse: typed error responses, connection keeps serving.
// ---------------------------------------------------------------------------

#[test]
fn garbage_json_then_normal_service() {
    let dir = tmp_dir("garbage");
    let engine = engine_at(staged_model(&dir));
    let (mut client, mut server) = duplex();
    let handle = std::thread::spawn(move || {
        let r = serve_connection(&mut server, &engine);
        (r, engine.stats())
    });
    hello(&mut client);
    for payload in [
        b"{ definitely not json".as_slice(),
        &[0xff, 0xfe, 0x00, 0x01],
        br#"{"Predict":{"id":"not a number"}}"#,
    ] {
        client.send(payload).expect("garbage sends");
        let reply = client.recv().expect("error arrives");
        match decode_response(&reply).expect("error decodes") {
            ServeResponse::Error { id, .. } => assert_eq!(id, ERROR_ID_UNDECODABLE),
            other => panic!("expected Error, got {other:?}"),
        }
    }
    client
        .send(&frame(&ServeRequest::Predict {
            id: 9,
            loops: vec![sample_loop()],
        }))
        .expect("predict sends");
    expect_decisions(&mut client, 9, 1);
    drop(client);
    let (result, stats) = handle.join().expect("thread");
    result.expect("clean close");
    assert_eq!(stats.errors, 3, "each garbage payload counted once");
    assert_eq!(stats.requests, 1, "only the real predict counted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deep_nesting_is_rejected_with_a_typed_error() {
    let dir = tmp_dir("deep");
    let engine = engine_at(staged_model(&dir));
    let (mut client, mut server) = duplex();
    let handle = std::thread::spawn(move || serve_connection(&mut server, &engine));
    hello(&mut client);
    let mut node = sample_loop();
    for _ in 0..MAX_IR_DEPTH {
        node = WireNode {
            kind: "loop".into(),
            attrs: vec![],
            children: vec![node],
        };
    }
    client
        .send(&frame(&ServeRequest::Predict {
            id: 4,
            loops: vec![node],
        }))
        .expect("deep predict sends");
    let reply = client.recv().expect("reply arrives");
    match decode_response(&reply).expect("reply decodes") {
        ServeResponse::Error { id, detail } => {
            assert_eq!(id, 4);
            assert!(detail.contains("deep"), "unexpected detail: {detail}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    drop(client);
    handle.join().expect("thread").expect("clean close");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn symbol_flood_is_rejected_without_growing_the_interner() {
    let dir = tmp_dir("flood");
    let engine = engine_at(staged_model(&dir));
    let (mut client, mut server) = duplex();
    let handle = std::thread::spawn(move || serve_connection(&mut server, &engine));
    hello(&mut client);
    // More fresh attribute names than the daemon's symbol headroom: the
    // whole batch must bounce before a single name is interned (the
    // interner leaks by design; admission is what bounds it).
    let flood: Vec<(String, WireAttr)> = (0..5000)
        .map(|i| (format!("hostile-attr-{i}"), WireAttr::Num(i as f64)))
        .collect();
    let node = WireNode {
        kind: "loop".into(),
        attrs: flood,
        children: vec![],
    };
    client
        .send(&frame(&ServeRequest::Predict {
            id: 5,
            loops: vec![node],
        }))
        .expect("flood sends");
    let reply = client.recv().expect("reply arrives");
    match decode_response(&reply).expect("reply decodes") {
        ServeResponse::Error { id, detail } => {
            assert_eq!(id, 5);
            assert!(detail.contains("symbol"), "unexpected detail: {detail}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // The interner is process-global and sibling tests intern on other
    // threads, so assert on the flooded names themselves, not on the
    // table's size: none of them may have been interned.
    for i in 0..5000 {
        let name = format!("hostile-attr-{i}");
        assert!(
            Symbol::lookup(&name).is_none(),
            "a rejected batch must not intern anything, but `{name}` was interned"
        );
    }
    drop(client);
    handle.join().expect("thread").expect("clean close");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 3. Model artifact: version skew refused, hot reload without dropping.
// ---------------------------------------------------------------------------

#[test]
fn version_skewed_artifact_is_refused_with_a_typed_error() {
    let dir = tmp_dir("skew");
    let path = dir.join("model.fgm");
    let mut artifact = artifact_with(&["count(//*)"]);
    artifact.version = 99;
    artifact.save(&path).expect("skewed artifact saves");
    match ServeEngine::new(path, ServeOptions::default(), Telemetry::disabled()) {
        Err(ModelError::VersionMismatch { found, expected, .. }) => {
            assert_eq!(found, 99);
            assert_eq!(expected, 1);
        }
        Ok(_) => panic!("engine must refuse a version-skewed artifact"),
        Err(other) => panic!("expected VersionMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_reload_swaps_the_model_without_dropping_the_session() {
    let dir = tmp_dir("reload");
    let path = staged_model(&dir);
    // Disable request-count polling so the explicit Reload is what we test.
    let opts = ServeOptions {
        reload_check_every: 0,
        ..ServeOptions::default()
    };
    let engine = Arc::new(
        ServeEngine::new(path.clone(), opts, Telemetry::disabled()).expect("engine starts"),
    );
    let digest_before = engine.model().digest;
    let server_engine = Arc::clone(&engine);
    let (mut client, mut server) = duplex();
    let handle = std::thread::spawn(move || serve_connection(&mut server, &server_engine));
    hello(&mut client);
    client
        .send(&frame(&ServeRequest::Predict {
            id: 1,
            loops: vec![sample_loop()],
        }))
        .expect("predict sends");
    expect_decisions(&mut client, 1, 1);

    // A new artifact lands at the same path (atomic rename), mid-session.
    artifact_with(&["count(//*)", "count(filter(//*, is-type(reg)))", "count(/*)"])
        .save(&path)
        .expect("replacement artifact saves");
    client
        .send(&frame(&ServeRequest::Reload { id: 2 }))
        .expect("reload sends");
    let reply = client.recv().expect("reload reply arrives");
    match decode_response(&reply).expect("reply decodes") {
        ServeResponse::ReloadDone {
            id,
            reloaded,
            model_digest,
        } => {
            assert_eq!(id, 2);
            assert!(reloaded, "the changed artifact must be adopted");
            assert_ne!(model_digest, digest_before, "digest must change");
        }
        other => panic!("expected ReloadDone, got {other:?}"),
    }

    // Same connection keeps predicting on the new model.
    client
        .send(&frame(&ServeRequest::Predict {
            id: 3,
            loops: vec![sample_loop()],
        }))
        .expect("predict sends");
    expect_decisions(&mut client, 3, 1);
    drop(client);
    handle.join().expect("thread").expect("clean close");
    assert_eq!(engine.model().features.len(), 3, "new model is active");
    assert_eq!(engine.stats().reloads, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_reload_keeps_the_old_model_serving() {
    let dir = tmp_dir("reload-fail");
    let path = staged_model(&dir);
    let opts = ServeOptions {
        reload_check_every: 0,
        ..ServeOptions::default()
    };
    let engine = Arc::new(
        ServeEngine::new(path.clone(), opts, Telemetry::disabled()).expect("engine starts"),
    );
    let digest_before = engine.model().digest;
    let server_engine = Arc::clone(&engine);
    let (mut client, mut server) = duplex();
    let handle = std::thread::spawn(move || serve_connection(&mut server, &server_engine));
    hello(&mut client);
    std::fs::write(&path, b"{ this is no artifact").expect("corrupt artifact writes");
    client
        .send(&frame(&ServeRequest::Reload { id: 1 }))
        .expect("reload sends");
    let reply = client.recv().expect("reply arrives");
    match decode_response(&reply).expect("reply decodes") {
        ServeResponse::Error { id, detail } => {
            assert_eq!(id, 1);
            assert!(
                detail.contains("old model stays active"),
                "unexpected detail: {detail}"
            );
        }
        other => panic!("expected Error, got {other:?}"),
    }
    client
        .send(&frame(&ServeRequest::Predict {
            id: 2,
            loops: vec![sample_loop()],
        }))
        .expect("predict sends");
    expect_decisions(&mut client, 2, 1);
    drop(client);
    handle.join().expect("thread").expect("clean close");
    assert_eq!(engine.model().digest, digest_before, "old model still active");
    assert_eq!(engine.stats().reload_failures, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The decisions `artifact` makes offline on `loops`: every feature
/// evaluated on the loop's tree, a failure as `0.0`, then the tree.
fn offline_decisions(artifact: &ModelArtifact, loops: &[WireNode]) -> Vec<usize> {
    let features = artifact.parsed_features().expect("features parse");
    loops
        .iter()
        .map(|wire| {
            let ir = wire.to_ir();
            let row: Vec<f64> = features
                .iter()
                .map(|f| f.eval_with_budget(&ir, artifact.eval_budget).unwrap_or(0.0))
                .collect();
            artifact.tree.predict(&row)
        })
        .collect()
}

/// Sends one `Predict` of `loops` and returns the unroll decisions.
fn served_decisions<T: FrameTransport>(client: &mut T, id: u64, loops: &[WireNode]) -> Vec<usize> {
    client
        .send(&frame(&ServeRequest::Predict {
            id,
            loops: loops.to_vec(),
        }))
        .expect("predict sends");
    let reply = client.recv().expect("decisions arrive");
    match decode_response(&reply).expect("decisions decode") {
        ServeResponse::Decisions { id: got, decisions } => {
            assert_eq!(got, id);
            decisions.iter().map(|d| d.unroll).collect()
        }
        other => panic!("expected Decisions, got {other:?}"),
    }
}

/// The default reload path: no `Reload` request, the daemon checks the
/// artifact's file every `reload_check_every` predicts. A changed artifact
/// is adopted at the next check; an unreadable one is counted as a failed
/// reload and the model in service keeps serving.
#[test]
fn polled_reload_adopts_a_new_model_and_survives_a_broken_one() {
    let dir = tmp_dir("reload-poll");
    let path = staged_model(&dir);
    let old = ModelArtifact::load(&path).expect("artifact loads");
    // A constant feature: the new tree predicts one class everywhere.
    let new = artifact_with(&["count(filter(//*, is-type(reg)))"]);
    let loops: Vec<WireNode> = (0..6)
        .map(|i| WireNode {
            kind: "loop".into(),
            attrs: vec![("num-iter".into(), WireAttr::Num(4.0 + i as f64))],
            children: (0..=i)
                .map(|_| WireNode {
                    kind: "insn".into(),
                    attrs: vec![("mode".into(), WireAttr::Enum("SI".into()))],
                    children: vec![],
                })
                .collect(),
        })
        .collect();
    let (old_decisions, new_decisions) = (
        offline_decisions(&old, &loops),
        offline_decisions(&new, &loops),
    );
    assert_ne!(old_decisions, new_decisions, "the models must differ");
    let opts = ServeOptions {
        reload_check_every: 2,
        ..ServeOptions::default()
    };
    let engine = Arc::new(
        ServeEngine::new(path.clone(), opts, Telemetry::disabled()).expect("engine starts"),
    );
    let server_engine = Arc::clone(&engine);
    let (mut client, mut server) = duplex();
    let handle = std::thread::spawn(move || serve_connection(&mut server, &server_engine));
    hello(&mut client);
    assert_eq!(served_decisions(&mut client, 1, &loops), old_decisions);

    // A new artifact lands; the check after predict 2 adopts it.
    new.save(&path).expect("replacement artifact saves");
    served_decisions(&mut client, 2, &loops);
    assert_eq!(served_decisions(&mut client, 3, &loops), new_decisions);
    assert_eq!(engine.stats().reloads, 1);
    assert_eq!(engine.model().features.len(), 1, "new model is active");

    // An unreadable artifact; the check after predict 4 fails.
    std::fs::write(&path, b"{ this is no artifact").expect("corrupt artifact writes");
    served_decisions(&mut client, 4, &loops);
    assert_eq!(served_decisions(&mut client, 5, &loops), new_decisions);
    client
        .send(&frame(&ServeRequest::Stats { id: 6 }))
        .expect("stats sends");
    match decode_response(&client.recv().expect("stats arrive")).expect("stats decode") {
        ServeResponse::StatsReport { stats, .. } => {
            assert_eq!((stats.reloads, stats.reload_failures), (1, 1));
        }
        other => panic!("expected StatsReport, got {other:?}"),
    }
    drop(client);
    handle.join().expect("thread").expect("clean close");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A feature that fails on some loops is answered with the deployment
/// default `0.0`: decisions equal the offline prediction on the defaulted
/// row, and every failing (loop, feature) pair is counted in `Stats`.
#[test]
fn failed_features_default_to_zero_and_are_counted() {
    let dir = tmp_dir("feature-failures");
    let path = dir.join("model.fgm");
    // The overflowing body raises `NonFinite` on every loop with at least
    // one descendant; a childless loop sums nothing and succeeds. Training
    // refuses a feature that fails on every loop, so the training set gets
    // one childless loop too.
    let features: Vec<_> = ["count(//*)", "sum(//*, 1.7e308 * 1.7e308)"]
        .iter()
        .map(|s| parse_feature(s).expect("feature parses"))
        .collect();
    let mut training = examples();
    training.push(TrainingExample {
        ir: IrNode::build("loop", |l| {
            l.attr_num("num-iter", 3.0);
        }),
        cycles: vec![100.0, 110.0, 120.0, 130.0],
    });
    ModelArtifact::train(&SearchConfig::quick(), &features, &training)
        .expect("artifact trains")
        .save(&path)
        .expect("artifact saves");
    let engine = Arc::new(engine_at(path));
    let model = engine.model();
    let loops: Vec<WireNode> = (0..5)
        .map(|i| WireNode {
            kind: "loop".into(),
            attrs: vec![("num-iter".into(), WireAttr::Num(4.0 + i as f64))],
            children: (0..i)
                .map(|_| WireNode {
                    kind: "insn".into(),
                    attrs: vec![("mode".into(), WireAttr::Enum("SI".into()))],
                    children: vec![],
                })
                .collect(),
        })
        .collect();
    let mut failing = 0u64;
    let offline: Vec<usize> = loops
        .iter()
        .map(|wire| {
            let ir = wire.to_ir();
            let row: Vec<f64> = model
                .features
                .iter()
                .map(|f| {
                    f.eval_with_budget(&ir, model.artifact.eval_budget)
                        .unwrap_or_else(|_| {
                            failing += 1;
                            0.0
                        })
                })
                .collect();
            model.artifact.tree.predict(&row)
        })
        .collect();
    assert_eq!(failing, 4, "every loop but the childless one fails");

    let server_engine = Arc::clone(&engine);
    let (mut client, mut server) = duplex();
    let handle = std::thread::spawn(move || serve_connection(&mut server, &server_engine));
    hello(&mut client);
    // Twice: the second batch hits the arena cache and must count again.
    for id in [1, 2] {
        client
            .send(&frame(&ServeRequest::Predict {
                id,
                loops: loops.clone(),
            }))
            .expect("predict sends");
        let reply = client.recv().expect("decisions arrive");
        match decode_response(&reply).expect("decisions decode") {
            ServeResponse::Decisions { decisions, .. } => {
                let got: Vec<usize> = decisions.iter().map(|d| d.unroll).collect();
                assert_eq!(got, offline, "batch {id}: decisions must be unchanged");
            }
            other => panic!("expected Decisions, got {other:?}"),
        }
    }
    client
        .send(&frame(&ServeRequest::Stats { id: 3 }))
        .expect("stats sends");
    let reply = client.recv().expect("stats arrive");
    match decode_response(&reply).expect("stats decode") {
        ServeResponse::StatsReport { stats, .. } => {
            assert_eq!(stats.feature_failures, 2 * failing);
        }
        other => panic!("expected StatsReport, got {other:?}"),
    }
    drop(client);
    handle.join().expect("thread").expect("clean close");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 4. The bounded program LRU is observationally invisible.
// ---------------------------------------------------------------------------

/// A tiny-capacity program cache must evict constantly yet produce columns
/// bit-identical to the default (effectively unbounded) cache — eviction
/// can cost recompiles, never answers.
#[test]
fn tiny_program_cache_is_byte_identical_to_the_default() {
    let loops: Vec<IrNode> = (0..8)
        .map(|i| {
            IrNode::build("loop", |l| {
                l.attr_num("num-iter", 3.0 + i as f64);
                for j in 0..=(i % 4) {
                    l.child("insn", |n| {
                        n.attr_num("uid", j as f64);
                        n.attr_enum("mode", if j % 2 == 0 { "SI" } else { "DI" });
                    });
                }
            })
        })
        .collect();
    let features: Vec<_> = [
        "count(//*)",
        "count(filter(//*, is-type(insn)))",
        "max(//*, count(//*))",
        "count(/*) + count(//*)",
        "count(filter(//*, is-type(loop)))",
    ]
    .iter()
    .map(|s| parse_feature(s).expect("feature parses"))
    .collect();

    let big = EvalPool::new(loops.iter(), EvalEngine::Compiled);
    let mut tiny = EvalPool::new(loops.iter(), EvalEngine::Compiled);
    tiny.set_program_cache_capacity(2);

    const BUDGET: u64 = 100_000;
    // Interleave twice so the tiny cache must re-admit evicted programs.
    for round in 0..2 {
        for f in &features {
            let a = big.column(f, BUDGET).expect("big column");
            let b = tiny.column(f, BUDGET).expect("tiny column");
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "round {round}, feature `{f}`, loop {i}: {x} vs {y}"
                );
            }
        }
    }
    assert!(
        tiny.stats().program_evictions > 0,
        "a capacity-2 cache over 5 features must evict"
    );
    assert_eq!(
        big.stats().program_evictions,
        0,
        "the default capacity must not evict on 5 features"
    );
}

// ---------------------------------------------------------------------------
// 5. The real binary: spawn `fegen serve --stdio` and drive it.
// ---------------------------------------------------------------------------

#[test]
fn real_daemon_serves_and_shuts_down_cleanly() {
    let dir = tmp_dir("real");
    let model = staged_model(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_fegen"))
        .arg("serve")
        .arg("--stdio")
        .arg("--model")
        .arg(&model)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let stdin = child.stdin.take().expect("stdin piped");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut wire = StreamTransport::new(stdout, stdin);
    hello(&mut wire);
    wire.send(&frame(&ServeRequest::Predict {
        id: 1,
        loops: vec![sample_loop(), sample_loop()],
    }))
    .expect("predict sends");
    expect_decisions(&mut wire, 1, 2);
    wire.send(&frame(&ServeRequest::Shutdown)).expect("shutdown sends");
    let bye = wire.recv().expect("bye arrives");
    assert!(matches!(
        decode_response(&bye).expect("bye decodes"),
        ServeResponse::Bye
    ));
    drop(wire);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean shutdown must exit zero: {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn real_daemon_refuses_garbage_stdin_without_hanging_or_panicking() {
    let dir = tmp_dir("real-garbage");
    let model = staged_model(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_fegen"))
        .arg("serve")
        .arg("--stdio")
        .arg("--model")
        .arg(&model)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"this is not a frame at all, just hostile bytes on the wire")
        .expect("garbage written");
    // stdin drops: EOF after the garbage.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if std::time::Instant::now() > deadline => {
                let _ = child.kill();
                panic!("daemon hung on garbage stdin");
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
    assert!(!status.success(), "bad magic must be a nonzero exit");
    assert!(
        !stderr.contains("panicked"),
        "must be a typed error, not a panic: {stderr}"
    );
    assert!(
        stderr.contains("serve"),
        "stderr names the failing subsystem: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn real_daemon_refuses_a_version_skewed_artifact_at_startup() {
    let dir = tmp_dir("real-skew");
    let model = dir.join("model.fgm");
    let mut artifact = artifact_with(&["count(//*)"]);
    artifact.version = 99;
    artifact.save(&model).expect("skewed artifact saves");
    let output = Command::new(env!("CARGO_BIN_EXE_fegen"))
        .arg("serve")
        .arg("--stdio")
        .arg("--model")
        .arg(&model)
        .stdin(Stdio::null())
        .output()
        .expect("daemon runs");
    assert!(!output.status.success(), "version skew must refuse startup");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("version") && !stderr.contains("panicked"),
        "typed version error expected: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
