//! Golden-corpus and hostile-input tests for the vendored JSON codec.
//!
//! The fixtures under `tests/fixtures/json_codec/` hold the compact and
//! pretty encodings of a fixed value of every derived shape the workspace
//! puts on the wire or on disk: island-worker messages, serve requests and
//! responses, a checkpoint, a dataset shard file, a model artifact, plus the
//! IR, feature-AST, RTL and ML types they are built from. Frame-payload
//! digests, checkpoint identities and shard checksums all hash these bytes,
//! so the codec must reproduce every fixture byte for byte and decode it
//! back to an equal value.

mod common;

use fegen::bench::dataset::{BenchShard, DatasetStore, SiteData};
use fegen::bench::QuarantineEntry;
use fegen::core::checkpoint::StepRecord;
use fegen::core::gp::engine::{GenStats, GpSnapshot};
use fegen::core::gp::island::IslandSnapshot;
use fegen::core::gp::worker_proc::{WireMsg, WorkerSpec};
use fegen::core::gp::GpConfig;
use fegen::core::serve::wire::{
    Decision, PoolStatsWire, ServeRequest, ServeResponse, ServeStatsSnapshot, WireAttr, WireNode,
};
use fegen::core::{
    parse_feature, AttrValue, EvalEngine, FeatureExpr, IrNode, IslandStatus, IslandTopology,
    IslandsSnapshot, MigrationRecord, ModelArtifact, SearchCheckpoint, SearchConfig,
    TrainingExample,
};
use fegen::ml::{Dataset, DecisionTree, Svm, SvmConfig, TreeConfig};
use fegen::rtl::RtlProgram;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/json_codec")
}

// ---------------------------------------------------------------------------
// The corpus: one fixed value of every derived shape.

fn ir_loop(seed: usize) -> IrNode {
    IrNode::build("loop", |l| {
        l.attr_num("num-iter", 12.0 + seed as f64);
        l.set_attr("simple", AttrValue::Bool(seed.is_multiple_of(2)));
        l.attr_enum("mode", "SI");
        l.child("basic-block", |b| {
            for i in 0..=seed {
                b.child("insn", |n| {
                    n.attr_num("cost", 0.5 + i as f64);
                    n.child("set", |s| {
                        s.attr_enum("mode", "DI");
                        s.child("reg", |_| {});
                    });
                });
            }
        });
    })
}

fn examples() -> Vec<TrainingExample> {
    (0..3)
        .map(|i| TrainingExample {
            ir: ir_loop(i),
            cycles: vec![100.0, 87.5 + i as f64, 91.25, 1.0 / 3.0, 120.0 - i as f64],
        })
        .collect()
}

fn gp_config() -> GpConfig {
    GpConfig {
        population: 24,
        max_generations: 25,
        stagnation_limit: 6,
        tournament_size: 3,
        crossover_rate: 0.6,
        mutation_rate: 0.35,
        init_depth: 6,
        regrow_depth: 4,
        elitism: 2,
        max_size: 250,
        parsimony: true,
    }
}

fn search_config() -> SearchConfig {
    SearchConfig {
        gp: gp_config(),
        max_total_generations: 400,
        max_failed_additions: 3,
        max_features: 10,
        eval_budget_per_example: 60_000,
        internal_k: 9,
        internal_folds: 3,
        tree: TreeConfig {
            max_depth: 12,
            min_split: 4,
            prune: true,
            prune_z: 0.6925,
        },
        seed: 0xfe9e,
        topology: IslandTopology {
            islands: 4,
            migration_every: 5,
            restart_limit: 3,
        },
    }
}

fn gp_snapshot(seed: u64) -> GpSnapshot {
    GpSnapshot {
        population: vec![
            "count(//*)".into(),
            "count(filter(//*, is-type(insn))) + get-attr(@num-iter)".into(),
        ],
        best: Some(("count(//*)".into(), 1.0625 + seed as f64)),
        stagnant: 2,
        generations: 7,
        evaluations: 168,
        panics: 0,
        memo: vec![
            ("count(//*)".into(), Some(1.0625)),
            ("get-attr(@mode)".into(), None),
        ],
        rng: [seed, u64::MAX, 1 << 63, 0x0123_4567_89ab_cdef],
    }
}

fn island(id: usize, status: IslandStatus) -> IslandSnapshot {
    IslandSnapshot {
        id,
        status,
        gp: gp_snapshot(id as u64),
    }
}

fn gen_stats() -> GenStats {
    GenStats {
        generation: 7,
        best: 1.0625,
        gen_best: 1.03125,
        mean: 0.1 + 0.2,
        valid: 20,
        invalid: 4,
        stagnant: 2,
        evaluations: 24,
        panics: 0,
    }
}

fn worker_spec() -> WorkerSpec {
    WorkerSpec {
        protocol: 3,
        config: search_config(),
        engine: EvalEngine::Compiled,
        grammar_digest: 0x9e37_79b9_7f4a_7c15,
        examples: examples(),
    }
}

fn wire_msgs() -> Vec<(&'static str, WireMsg)> {
    vec![
        (
            "wire_hello",
            WireMsg::Hello {
                spec: worker_spec(),
            },
        ),
        (
            "wire_hello_ack",
            WireMsg::HelloAck {
                spec_digest: u64::MAX - 1,
            },
        ),
        (
            "wire_begin",
            WireMsg::Begin {
                gp: gp_config(),
                base_features: vec!["count(//*)".into(), "get-attr(@num-iter)".into()],
            },
        ),
        ("wire_begin_ack", WireMsg::BeginAck { digest: 42 }),
        (
            "wire_step",
            WireMsg::Step {
                island: island(1, IslandStatus::Active),
            },
        ),
        (
            "wire_step_done",
            WireMsg::StepDone {
                island: island(2, IslandStatus::Converged),
                converged: true,
                stats: Some(gen_stats()),
            },
        ),
        (
            "wire_worker_error",
            WireMsg::WorkerError {
                detail: "quote \" backslash \\ newline \n tab \t bell \u{7} é".into(),
            },
        ),
        ("wire_shutdown", WireMsg::Shutdown),
    ]
}

fn wire_loop() -> WireNode {
    WireNode {
        kind: "loop".into(),
        attrs: vec![
            ("num-iter".into(), WireAttr::Num(64.0)),
            ("simple".into(), WireAttr::Bool(true)),
            ("mode".into(), WireAttr::Enum("SI".into())),
        ],
        children: vec![WireNode::from_ir(&ir_loop(1))],
    }
}

fn serve_requests() -> Vec<(&'static str, ServeRequest)> {
    vec![
        ("serve_req_hello", ServeRequest::Hello { protocol: 1 }),
        (
            "serve_req_predict",
            ServeRequest::Predict {
                id: 9,
                loops: vec![wire_loop(), WireNode::from_ir(&ir_loop(0))],
            },
        ),
        ("serve_req_stats", ServeRequest::Stats { id: 10 }),
        ("serve_req_reload", ServeRequest::Reload { id: 11 }),
        ("serve_req_shutdown", ServeRequest::Shutdown),
    ]
}

fn serve_responses() -> Vec<(&'static str, ServeResponse)> {
    vec![
        (
            "serve_resp_hello_ack",
            ServeResponse::HelloAck {
                protocol: 1,
                model_version: 1,
                model_digest: 0xfedc_ba98_7654_3210,
                n_features: 2,
                n_classes: 8,
            },
        ),
        (
            "serve_resp_decisions",
            ServeResponse::Decisions {
                id: 9,
                decisions: vec![
                    Decision {
                        unroll: 4,
                        cached: false,
                    },
                    Decision {
                        unroll: 0,
                        cached: true,
                    },
                ],
            },
        ),
        (
            "serve_resp_stats",
            ServeResponse::StatsReport {
                id: 10,
                stats: ServeStatsSnapshot {
                    requests: 5,
                    loops_evaluated: 40,
                    errors: 1,
                    arena_hits: 30,
                    arena_misses: 10,
                    arena_evictions: 2,
                    arena_entries: 8,
                    reloads: 1,
                    reload_failures: 0,
                    queue_depth_peak: 3,
                    feature_failures: 4,
                },
                pool: PoolStatsWire {
                    vm_evals: 80,
                    program_hits: 78,
                    program_misses: 2,
                    program_evictions: 0,
                },
            },
        ),
        (
            "serve_resp_reload_done",
            ServeResponse::ReloadDone {
                id: 11,
                reloaded: false,
                model_digest: 7,
            },
        ),
        (
            "serve_resp_error",
            ServeResponse::Error {
                id: u64::MAX,
                detail: "undecodable request: json error".into(),
            },
        ),
        ("serve_resp_bye", ServeResponse::Bye),
    ]
}

fn checkpoint() -> SearchCheckpoint {
    SearchCheckpoint {
        version: 4,
        config_fingerprint: 11,
        examples_digest: 0xdead_beef_dead_beef,
        rng: [1, 2, 3, u64::MAX],
        features: vec!["count(//*)".into()],
        steps: vec![StepRecord {
            feature: "count(//*)".into(),
            speedup: 1.25,
            generations: 9,
        }],
        best_speedup: 1.25,
        failed: 1,
        total_generations: 40,
        islands: Some(IslandsSnapshot {
            round: 3,
            islands: vec![
                island(0, IslandStatus::Active),
                island(1, IslandStatus::Frozen),
            ],
            ledger: vec![MigrationRecord {
                round: 2,
                from: 0,
                to: 1,
                feature: "count(//*)".into(),
                quality: 1.0625,
            }],
            ledger_digest: 0x1234_5678_9abc_def0,
        }),
    }
}

fn shard() -> BenchShard {
    BenchShard {
        version: 1,
        fingerprint: 0x63d6_f929_6a1d_9278,
        bench: "mesa".into(),
        index: 3,
        baseline_cycles: Some(12_345.0),
        sites: vec![
            SiteData {
                func: "stream48".into(),
                loop_id: 0,
                cycles: vec![1000.0, 812.5, 790.0, 801.0],
                runs: vec![3, 3, 5, 3],
            },
            SiteData {
                func: "init".into(),
                loop_id: 1,
                cycles: vec![],
                runs: vec![],
            },
        ],
        quarantined: vec![
            QuarantineEntry {
                bench: "mesa".into(),
                site: Some("stream12:0".into()),
                attempts: 3,
                reason: "simulator budget exhausted".into(),
            },
            QuarantineEntry {
                bench: "mesa".into(),
                site: None,
                attempts: 1,
                reason: "compile failed".into(),
            },
        ],
    }
}

fn features() -> Vec<FeatureExpr> {
    [
        "count(//*)",
        "count(filter(//*, is-type(insn))) + get-attr(@num-iter)",
        "count(filter(//*, is-type(jump_insn) && /[0][is-type(set)]))",
        "get-attr(@num-iter) * 2 - 7",
    ]
    .iter()
    .map(|text| parse_feature(text).expect("corpus feature parses"))
    .collect()
}

fn artifact() -> ModelArtifact {
    let features = features();
    ModelArtifact::train(&search_config(), &features[..2], &examples())
        .expect("corpus artifact trains")
}

fn ml_dataset() -> Dataset {
    Dataset::new(
        vec![
            vec![1.0, 0.0],
            vec![2.0, 1.0],
            vec![3.0, 0.0],
            vec![4.0, 1.0],
            vec![5.0, 0.0],
            vec![6.0, 1.0],
        ],
        vec![0, 0, 1, 1, 2, 2],
        3,
    )
    .expect("corpus dataset is well formed")
}

fn rtl_program() -> RtlProgram {
    let source = "int data[16];\n\
                  int out[16];\n\
                  int acc[4];\n\
                  void init() { int i; for (i = 0; i < 16; i = i + 1) { data[i] = i * 3; } }\n\
                  int sum(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + data[i]; } return s; }";
    let ast = fegen::lang::parse_program(source).expect("corpus program parses");
    fegen::rtl::lower::lower_program(&ast).expect("corpus program lowers")
}

fn float_specials() -> Vec<f64> {
    vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        1e300,
        -2.5e-17,
        0.1,
    ]
}

/// Every type the codec must round-trip.
trait Codec: Serialize + Deserialize + PartialEq + Debug {}
impl<T: Serialize + Deserialize + PartialEq + Debug> Codec for T {}

fn fixture(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Encodes `value` compact and pretty, compares with the recorded bytes,
/// and decodes both back to an equal value.
fn golden<T: Codec>(name: &str, value: &T) {
    for (file, text) in [
        (
            format!("{name}.json"),
            serde_json::to_string(value).unwrap(),
        ),
        (
            format!("{name}.pretty.json"),
            serde_json::to_string_pretty(value).unwrap(),
        ),
    ] {
        assert!(
            text == fixture(&file),
            "{file}: encoding differs from the recorded bytes"
        );
        let back: T = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{file}: recorded bytes do not decode: {e}"));
        assert_eq!(&back, value, "{file}: decodes to a different value");
    }
}

#[test]
fn golden_corpus_is_reproduced_byte_for_byte() {
    let mut cases = 0;
    for (name, msg) in wire_msgs() {
        golden(name, &msg);
        cases += 1;
    }
    for (name, req) in serve_requests() {
        golden(name, &req);
        cases += 1;
    }
    for (name, resp) in serve_responses() {
        golden(name, &resp);
        cases += 1;
    }
    golden("checkpoint_v4", &checkpoint());
    golden("dataset_shard", &shard());
    golden("model_artifact", &artifact());
    golden("training_examples", &examples());
    golden("feature_exprs", &features());
    golden("ml_dataset", &ml_dataset());
    golden(
        "decision_tree",
        &DecisionTree::train(&ml_dataset(), &TreeConfig::default()),
    );
    golden("svm", &Svm::train(&ml_dataset(), &SvmConfig::default()));
    golden("rtl_program", &rtl_program());
    golden(
        "scalars",
        &(u64::MAX, i64::MIN, (-0.0f64, 1.5f32, String::new())),
    );
    cases += 10;
    // Every recorded pair has its case (float_specials is checked below).
    let recorded = std::fs::read_dir(fixture_dir())
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".pretty.json")
        })
        .count();
    assert_eq!(cases + 1, recorded);
}

#[test]
fn non_finite_and_signed_zero_floats_are_bit_exact() {
    let values = float_specials();
    let text = serde_json::to_string(&values).unwrap();
    assert_eq!(text, fixture("float_specials.json"));
    assert_eq!(
        serde_json::to_string_pretty(&values).unwrap(),
        fixture("float_specials.pretty.json")
    );
    let back: Vec<f64> = serde_json::from_str(&text).unwrap();
    assert!(back[0].is_nan());
    for (a, b) in values.iter().zip(&back).skip(1) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a:?} came back as {b:?}");
    }
    let (big, small, (zero, _, _)): (u64, i64, (f64, f32, String)) =
        serde_json::from_str(&fixture("scalars.json")).unwrap();
    assert_eq!((big, small), (u64::MAX, i64::MIN));
    assert_eq!(zero.to_bits(), (-0.0f64).to_bits());
}

#[test]
fn on_disk_formats_still_load() {
    let dir = std::env::temp_dir().join(format!("fegen-json-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Dataset shard file: written byte for byte as recorded, and read back.
    let store = DatasetStore::open(&dir.join("ds"), 0x63d6_f929_6a1d_9278).unwrap();
    let path = store.write_shard(&shard(), None).unwrap();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        fixture("dataset_shard.file.json")
    );
    assert_eq!(store.load_shard("mesa").unwrap(), Some(shard()));
    // Checkpoint and model artifact: the recorded pretty files load.
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("search.ckpt.json");
    std::fs::write(&ckpt, fixture("checkpoint_v4.pretty.json")).unwrap();
    assert_eq!(SearchCheckpoint::load(&ckpt).unwrap(), checkpoint());
    let model = dir.join("model.json");
    std::fs::write(&model, fixture("model_artifact.pretty.json")).unwrap();
    let loaded = ModelArtifact::load(&model).unwrap();
    assert_eq!(loaded, artifact());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Hostile and unusual input.

fn decision(text: &str) -> Result<Decision, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

#[test]
fn field_order_is_free_and_unknown_fields_are_skipped() {
    let want = Decision {
        unroll: 4,
        cached: true,
    };
    assert_eq!(decision(r#"{"cached":true,"unroll":4}"#), Ok(want));
    assert_eq!(
        decision(
            r#" { "unroll" : 4 , "extra" : {"deep":[1,{"x":null},"]}"]}, "cached":true, "z":NaN } "#
        ),
        Ok(want)
    );
    let node: WireNode = serde_json::from_str(
        r#"{"children":[],"future":[[["x"]]],"attrs":[["a",{"Num":1.0}]],"kind":"loop"}"#,
    )
    .unwrap();
    assert_eq!(node.kind, "loop");
    assert_eq!(node.attrs, vec![("a".to_owned(), WireAttr::Num(1.0))]);
    let req: ServeRequest = serde_json::from_str(r#"{"Stats":{"pad":"\"}","id":3}}"#).unwrap();
    assert_eq!(req, ServeRequest::Stats { id: 3 });
}

#[test]
fn duplicate_and_missing_fields_are_typed_errors() {
    let err = decision(r#"{"unroll":4,"unroll":5,"cached":false}"#).unwrap_err();
    assert!(err.contains("duplicate field `unroll`"), "{err}");
    let err = decision(r#"{"unroll":4}"#).unwrap_err();
    assert!(err.contains("missing field `cached`"), "{err}");
    let err = serde_json::from_str::<ServeRequest>(r#"{"Stats":{"id":1,"id":1}}"#).unwrap_err();
    assert!(err.to_string().contains("duplicate field `id`"), "{err}");
    let err = serde_json::from_str::<ServeRequest>(r#"{"Predict":{"id":1}}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `loops`"), "{err}");
}

#[test]
fn malformed_documents_are_rejected() {
    for bad in [
        r#"{"unroll":4,"cached":false} x"#,
        r#"{"unroll":4,"cached":false}}"#,
        r#"{"unroll":4,"cached":false,}"#,
        r#"{"unroll":4.5,"cached":false}"#,
        r#"{"unroll":-1,"cached":false}"#,
        r#"{"unroll":4,"cached":"yes"}"#,
        r#"{"unroll":4 "cached":false}"#,
        r#"{"unroll":4,"cached":fals}"#,
        r#"["unroll",4]"#,
        "",
    ] {
        assert!(decision(bad).is_err(), "accepted {bad:?}");
    }
    for bad in [
        r#""Predict""#,
        r#"{"Nope":{}}"#,
        r#"{"Stats":{"id":1},"Reload":{"id":2}}"#,
        "{}",
    ] {
        assert!(
            serde_json::from_str::<ServeRequest>(bad).is_err(),
            "accepted {bad:?}"
        );
    }
    // Trailing whitespace is fine; trailing bytes are not.
    assert!(decision("{\"unroll\":4,\"cached\":false}\n\t ").is_ok());
}

#[test]
fn non_utf8_payloads_are_typed_errors() {
    use fegen::core::gp::worker_proc::decode_msg;
    use fegen::core::serve::wire::decode_request;
    let mut payload = br#"{"Stats":{"id":1}}"#.to_vec();
    payload.insert(3, 0xff);
    assert!(decode_request(&payload).unwrap_err().contains("non-UTF-8"));
    assert!(decode_msg(&payload).is_err());
}

#[test]
fn lone_surrogate_escapes_become_replacement_chars() {
    let s: String = serde_json::from_str(r#""a\ud800bé\n\"""#).unwrap();
    assert_eq!(s, "a\u{fffd}bé\n\"");
    assert!(serde_json::from_str::<String>(r#""\u12""#).is_err());
    assert!(serde_json::from_str::<String>(r#""\q""#).is_err());
    assert!(serde_json::from_str::<String>(r#""open"#).is_err());
}

#[test]
fn extreme_integers_survive() {
    for v in [u64::MAX, i64::MAX as u64 + 1, 0] {
        assert_eq!(
            serde_json::from_str::<u64>(&serde_json::to_string(&v).unwrap()).unwrap(),
            v
        );
    }
    for v in [i64::MIN, -1, i64::MAX] {
        assert_eq!(
            serde_json::from_str::<i64>(&serde_json::to_string(&v).unwrap()).unwrap(),
            v
        );
    }
    assert!(serde_json::from_str::<u32>("4294967296").is_err());
    assert!(serde_json::from_str::<i64>("9223372036854775808").is_err());
    assert_eq!(
        serde_json::from_str::<f64>("18446744073709551615").unwrap(),
        u64::MAX as f64
    );
}

// ---------------------------------------------------------------------------
// The depth limit against the deepest real payloads.

/// Deepest bracket nesting of JSON text (brackets inside strings skipped).
fn nesting(text: &str) -> usize {
    let (mut depth, mut max, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for b in text.bytes() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'[' | b'{' => {
                depth += 1;
                max = max.max(depth);
            }
            b']' | b'}' => depth -= 1,
            _ => {}
        }
    }
    max
}

#[test]
fn real_payloads_stay_under_the_depth_limit() {
    use fegen::core::serve::wire::MAX_JSON_DEPTH;
    let mut deepest = 0;
    for config in [
        fegen::suite::SuiteConfig::quick(),
        fegen::suite::SuiteConfig::paper(),
    ] {
        let mut loops = common::suite_loops(&config);
        // An IR node encodes two levels deeper than its children (its map
        // and the `children` sequence), so the deepest loops give the
        // deepest payloads: a request, and a Hello carrying them.
        loops.sort_by_key(|ir| std::cmp::Reverse(ir.depth()));
        loops.truncate(8);
        let req = ServeRequest::Predict {
            id: 1,
            loops: loops.iter().map(WireNode::from_ir).collect(),
        };
        let text = serde_json::to_string(&req).unwrap();
        deepest = deepest.max(nesting(&text));
        assert_eq!(serde_json::from_str::<ServeRequest>(&text).unwrap(), req);
        let spec = WorkerSpec {
            examples: loops
                .into_iter()
                .map(|ir| TrainingExample {
                    ir,
                    cycles: vec![1.0, 2.0],
                })
                .collect(),
            ..worker_spec()
        };
        let hello = WireMsg::Hello { spec };
        let text = serde_json::to_string(&hello).unwrap();
        deepest = deepest.max(nesting(&text));
        assert_eq!(serde_json::from_str::<WireMsg>(&text).unwrap(), hello);
    }
    let ckpt = serde_json::to_string_pretty(&checkpoint()).unwrap();
    deepest = deepest.max(nesting(&ckpt));
    // Real payloads use a small fraction of the limit.
    assert!(
        deepest * 4 <= MAX_JSON_DEPTH,
        "deepest real payload nests {deepest}"
    );
}

// ---------------------------------------------------------------------------
// Property tests.

mod props {
    use super::*;
    use proptest::prelude::*;

    fn text() -> impl Strategy<Value = String> {
        let pool = vec![
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', '😀', '{', ']',
        ];
        prop::collection::vec(prop::sample::select(pool), 0..8)
            .prop_map(|chars| chars.into_iter().collect())
    }

    /// Any `f64` bit pattern: NaNs, infinities, subnormals and `-0.0`.
    fn float() -> impl Strategy<Value = f64> {
        (0u64..u64::MAX).prop_map(f64::from_bits)
    }

    fn attr() -> impl Strategy<Value = WireAttr> {
        prop_oneof![
            float().prop_map(WireAttr::Num),
            (0u8..2).prop_map(|b| WireAttr::Bool(b == 1)),
            text().prop_map(WireAttr::Enum),
        ]
    }

    fn wire_node() -> BoxedStrategy<WireNode> {
        let leaf =
            (text(), prop::collection::vec((text(), attr()), 0..3)).prop_map(|(kind, attrs)| {
                WireNode {
                    kind,
                    attrs,
                    children: Vec::new(),
                }
            });
        leaf.prop_recursive(4, 32, 3, |inner| {
            (
                text(),
                prop::collection::vec((text(), attr()), 0..3),
                prop::collection::vec(inner, 0..3),
            )
                .prop_map(|(kind, attrs, children)| WireNode {
                    kind,
                    attrs,
                    children,
                })
        })
    }

    fn has_nan(node: &WireNode) -> bool {
        node.attrs
            .iter()
            .any(|(_, a)| matches!(a, WireAttr::Num(v) if v.is_nan()))
            || node.children.iter().any(has_nan)
    }

    /// Decoding then re-encoding reproduces the bytes; the value is equal
    /// too whenever `PartialEq` can say so (no NaN inside).
    fn roundtrip<T: Codec>(value: &T, comparable: bool) {
        for text in [
            serde_json::to_string(value).unwrap(),
            serde_json::to_string_pretty(value).unwrap(),
        ] {
            let back: T = serde_json::from_str(&text).unwrap();
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(value).unwrap()
            );
            if comparable {
                assert_eq!(&back, value);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn wire_nodes_roundtrip(node in wire_node()) {
            roundtrip(&node, !has_nan(&node));
        }

        #[test]
        fn training_examples_roundtrip(node in wire_node(), cycles in prop::collection::vec(float(), 0..6)) {
            // Training IR is interned: keep its vocabulary small and fixed.
            let mut node = node;
            let mut stack = vec![&mut node];
            while let Some(n) = stack.pop() {
                n.kind = format!("k{}", n.kind.len());
                for (name, value) in &mut n.attrs {
                    *name = format!("a{}", name.len());
                    if let WireAttr::Enum(s) = value {
                        *s = format!("e{}", s.len());
                    }
                }
                stack.extend(n.children.iter_mut());
            }
            let comparable = !has_nan(&node) && !cycles.iter().any(|c| c.is_nan());
            roundtrip(&TrainingExample { ir: node.to_ir(), cycles }, comparable);
        }
    }
}
