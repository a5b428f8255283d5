//! The daemon decodes a `Predict` payload in one pass, straight into the
//! evaluator's arena rows (`ServeEngine::decode`). That decoder must be
//! indistinguishable from the reference path it replaced — the derived
//! `decode_request`, then `validate_batch`, then `WireNode::to_ir`, then
//! `IrArena::from_tree` and `arena_key` of the tree:
//!
//! - an admitted loop's arena is the reference arena (kinds, subtree ends,
//!   attributes, child counts, postings) and its key is the reference key,
//!   whatever the field order, attribute order or duplicate attribute names
//!   on the wire;
//! - a refused batch gets the same `AdmissionError` and interns nothing;
//! - an undecodable payload gets the same error text.

mod common;

use fegen::core::ir::{self, AttrValue, IrArena, IrNode, Symbol};
use fegen::core::serve::engine::arena_key;
use fegen::core::serve::wire::{decode_inbound, validate_batch, AdmissionError, Inbound};
use fegen::core::serve::{
    decode_request, encode_request, ModelArtifact, ServeEngine, ServeOptions, ServeRequest,
    WireAttr, WireNode, MAX_BATCH, MAX_IR_DEPTH, MAX_REQUEST_NODES,
};
use fegen::core::{parse_feature, SearchConfig, Telemetry, TrainingExample};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Every test here interns strings or compares the interner's size before
/// and after a request, so they take turns.
fn interner_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One engine for the whole file, over a model trained on synthetic
/// loops, and its interner cap: the symbol count right after it loaded
/// plus its headroom, as `ServeEngine::new` anchors it. Taken on a turn,
/// so nothing else interns in between.
fn engine(turn: &MutexGuard<'static, ()>) -> &'static (ServeEngine, usize) {
    let _ = turn;
    static ENGINE: OnceLock<(ServeEngine, usize)> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let examples: Vec<TrainingExample> = (0..6)
            .map(|i| TrainingExample {
                ir: IrNode::build("loop", |l| {
                    l.attr_num("num-iter", 4.0 + i as f64);
                    for _ in 0..=i {
                        l.child("insn", |_| {});
                    }
                }),
                cycles: (0..4).map(|k| 100.0 + ((k + i) % 4) as f64).collect(),
            })
            .collect();
        let features = [parse_feature("count(//*)").expect("feature parses")];
        let artifact = ModelArtifact::train(&SearchConfig::quick(), &features, &examples)
            .expect("artifact trains");
        let dir = std::env::temp_dir().join(format!("fegen-serve-decode-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("model.fgm");
        artifact.save(&path).expect("artifact saves");
        let opts = ServeOptions::default();
        let headroom = opts.symbol_headroom;
        let engine = ServeEngine::new(path, opts, Telemetry::disabled()).expect("engine starts");
        let _ = std::fs::remove_dir_all(&dir);
        (engine, ir::symbol_count() + headroom)
    })
}

fn leaf(kind: &str) -> WireNode {
    WireNode {
        kind: kind.into(),
        attrs: Vec::new(),
        children: Vec::new(),
    }
}

fn predict(loops: Vec<WireNode>) -> Vec<u8> {
    encode_request(&ServeRequest::Predict { id: 42, loops }).expect("request encodes")
}

fn same_value(a: AttrValue, b: AttrValue) -> bool {
    match (a, b) {
        (AttrValue::Num(x), AttrValue::Num(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Everything an arena answers with, compared entry by entry.
fn assert_same_arena(got: &IrArena, want: &IrArena, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: node count");
    let n = want.len() as u32;
    let mut symbols = BTreeSet::new();
    for i in 0..n {
        assert_eq!(got.kind(i), want.kind(i), "{what}: kind of node {i}");
        assert_eq!(
            got.subtree_end(i),
            want.subtree_end(i),
            "{what}: end of node {i}"
        );
        assert_eq!(
            got.child_count(i),
            want.child_count(i),
            "{what}: children of node {i}"
        );
        let (a, b) = (got.attrs(i), want.attrs(i));
        assert_eq!(a.len(), b.len(), "{what}: attributes of node {i}");
        for (x, y) in a.iter().zip(b) {
            assert!(
                x.0 == y.0 && same_value(x.1, y.1),
                "{what}: node {i}: {x:?} vs {y:?}"
            );
        }
        symbols.insert(want.kind(i));
        symbols.extend(b.iter().map(|(name, _)| *name));
    }
    for s in symbols {
        assert_eq!(
            got.kind_nodes_in(s, 0, n),
            want.kind_nodes_in(s, 0, n),
            "{what}: `{s}` nodes"
        );
        assert_eq!(
            got.attr_nodes_in(s, 0, n),
            want.attr_nodes_in(s, 0, n),
            "{what}: `@{s}` nodes"
        );
    }
}

/// How the daemon answers a payload, in terms both paths can produce.
#[derive(Debug, PartialEq)]
enum Answer {
    Undecodable(String),
    Refused(u64, AdmissionError),
    /// The batch was admitted; the loops are checked separately.
    Admitted(u64, usize),
    Other(String),
}

/// The reference: `decode_request`, then `validate_batch` at `cap`.
/// Interns nothing.
fn reference(payload: &[u8], cap: usize) -> (Answer, Vec<WireNode>) {
    match decode_request(payload) {
        Err(detail) => (Answer::Undecodable(detail), Vec::new()),
        Ok(ServeRequest::Predict { id, loops }) => match validate_batch(&loops, cap) {
            Err(e) => (Answer::Refused(id, e), Vec::new()),
            Ok(()) => (Answer::Admitted(id, loops.len()), loops),
        },
        Ok(other) => (Answer::Other(format!("{other:?}")), Vec::new()),
    }
}

/// The daemon's one decode path against the reference, on one payload:
/// the same answer; an admitted loop's arena and key equal the reference
/// tree's; a refusal or an undecodable payload interns nothing.
fn assert_daemon_matches_reference(payload: &[u8], turn: &MutexGuard<'static, ()>) -> Answer {
    let (engine, cap) = engine(turn);
    assert_matches_reference(payload, *cap, |p| engine.decode(p))
}

/// [`assert_daemon_matches_reference`] for `decode`, which applies `cap`.
fn assert_matches_reference(
    payload: &[u8],
    cap: usize,
    decode: impl FnOnce(&[u8]) -> Result<Inbound, String>,
) -> Answer {
    let (want, wire) = reference(payload, cap);
    let before = ir::symbol_count();
    let got = match decode(payload) {
        Err(detail) => Answer::Undecodable(detail),
        Ok(Inbound::Predict { id, loops: Err(e) }) => Answer::Refused(id, e),
        Ok(Inbound::Predict {
            id,
            loops: Ok(loops),
        }) => {
            assert_eq!(loops.len(), wire.len());
            for (k, (got, w)) in loops.into_iter().zip(&wire).enumerate() {
                let tree = w.to_ir();
                assert_eq!(got.key, arena_key(&tree), "loop {k}: arena key");
                let want = IrArena::from_tree(&tree);
                assert_same_arena(&IrArena::from_rows(got.rows), &want, &format!("loop {k}"));
            }
            Answer::Admitted(id, wire.len())
        }
        Ok(Inbound::Hello { protocol }) => {
            Answer::Other(format!("{:?}", ServeRequest::Hello { protocol }))
        }
        Ok(Inbound::Stats { id }) => Answer::Other(format!("{:?}", ServeRequest::Stats { id })),
        Ok(Inbound::Reload { id }) => Answer::Other(format!("{:?}", ServeRequest::Reload { id })),
        Ok(Inbound::Shutdown) => Answer::Other(format!("{:?}", ServeRequest::Shutdown)),
    };
    assert_eq!(
        got,
        want,
        "payload {}",
        String::from_utf8_lossy(&payload[..payload.len().min(200)])
    );
    if !matches!(got, Answer::Admitted(..)) {
        assert_eq!(
            ir::symbol_count(),
            before,
            "a payload answered {got:?} interned something"
        );
    }
    got
}

// ---------------------------------------------------------------------------
// Admitted loops decode to the reference arena
// ---------------------------------------------------------------------------

#[test]
fn every_quick_suite_loop_decodes_to_the_arena_of_its_tree() {
    // Exporting the suite interns its vocabulary: do it on this test's turn.
    let turn = interner_turn();
    let loops = common::suite_loops(&fegen::suite::SuiteConfig::quick());
    assert!(
        loops.len() > 1000,
        "quick suite exported only {} loops",
        loops.len()
    );
    for chunk in loops.chunks(64) {
        let payload = predict(chunk.iter().map(WireNode::from_ir).collect());
        let answer = assert_daemon_matches_reference(&payload, &turn);
        assert_eq!(answer, Answer::Admitted(42, chunk.len()));
    }
}

#[test]
fn attribute_values_key_as_the_dump_prints_them() {
    let values = [
        0.0,
        -0.0,
        1.0,
        -5.0,
        0.5,
        -2.25,
        1e15 - 1.0,
        1e15,
        -1e15,
        9007199254740993.0,
        1e300,
        5e-324,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let node = WireNode {
        kind: "loop".into(),
        attrs: values
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("fegen-decode-num-{i}"), WireAttr::Num(*v)))
            .chain([
                ("fegen-decode-flag".into(), WireAttr::Bool(false)),
                ("fegen-decode-mode".into(), WireAttr::Enum("SI".into())),
            ])
            .collect(),
        children: vec![leaf("insn")],
    };
    let turn = interner_turn();
    let answer = assert_daemon_matches_reference(&predict(vec![node]), &turn);
    assert_eq!(answer, Answer::Admitted(42, 1));
}

mod props {
    use super::*;
    use proptest::prelude::*;

    /// Names from a small vocabulary, so attributes repeat within a node,
    /// plus strings nobody interned before, escapes included.
    fn name() -> impl Strategy<Value = String> {
        let pool: Vec<String> = [
            "insn",
            "reg",
            "mode",
            "uid",
            "num-iter",
            "SI",
            "fegen-decode-a",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let chars = vec!['a', 'Z', '"', '\\', '/', '\n', '\u{1}', 'é', '😀', '{'];
        prop_oneof![
            3 => prop::sample::select(pool),
            1 => prop::collection::vec(prop::sample::select(chars), 0..6)
                .prop_map(|c| format!("fegen-decode-{}", c.into_iter().collect::<String>())),
        ]
    }

    fn attr() -> impl Strategy<Value = WireAttr> {
        prop_oneof![
            (0u64..u64::MAX).prop_map(|bits| WireAttr::Num(f64::from_bits(bits))),
            (-40i64..40).prop_map(|v| WireAttr::Num(v as f64)),
            (0u8..2).prop_map(|b| WireAttr::Bool(b == 1)),
            name().prop_map(WireAttr::Enum),
        ]
    }

    fn wire_node() -> BoxedStrategy<WireNode> {
        let attrs = || prop::collection::vec((name(), attr()), 0..6);
        let leaf = (name(), attrs()).prop_map(|(kind, attrs)| WireNode {
            kind,
            attrs,
            children: Vec::new(),
        });
        leaf.prop_recursive(4, 40, 4, move |inner| {
            (name(), attrs(), prop::collection::vec(inner, 0..4)).prop_map(
                |(kind, attrs, children)| WireNode {
                    kind,
                    attrs,
                    children,
                },
            )
        })
    }

    fn json<T: serde::Serialize + ?Sized>(value: &T) -> String {
        serde_json::to_string(value).expect("encodes")
    }

    /// `node` as JSON with its fields in a random order and, sometimes, an
    /// unknown field the decoder must skip.
    fn write_node(node: &WireNode, rng: &mut StdRng) -> String {
        let children: Vec<String> = node.children.iter().map(|c| write_node(c, rng)).collect();
        let mut fields = vec![
            format!("\"kind\":{}", json(&node.kind)),
            format!("\"attrs\":{}", json(&node.attrs)),
            format!("\"children\":[{}]", children.join(",")),
        ];
        if rng.gen_bool(0.2) {
            fields.push(r#""note":{"children":[{"kind":1}],"attrs":"x"}"#.into());
        }
        fields.shuffle(rng);
        format!("{{{}}}", fields.join(","))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn shuffled_fields_and_duplicate_attrs_decode_to_the_reference_arena(
            loops in prop::collection::vec(wire_node(), 1..4),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let written: Vec<String> = loops.iter().map(|l| write_node(l, &mut rng)).collect();
            let mut fields = [format!("\"loops\":[{}]", written.join(",")), "\"id\":7".into()];
            fields.shuffle(&mut rng);
            let payload = format!("{{\"Predict\":{{{}}}}}", fields.join(","));
            // The hand-written JSON is the same request.
            match decode_request(payload.as_bytes()).expect("hand-written payload decodes") {
                ServeRequest::Predict { id, loops: got } => {
                    prop_assert_eq!(id, 7);
                    prop_assert_eq!(json(&got), json(&loops));
                }
                other => panic!("decoded {other:?}"),
            }
            let turn = interner_turn();
            let answer = assert_daemon_matches_reference(payload.as_bytes(), &turn);
            prop_assert_eq!(answer, Answer::Admitted(7, loops.len()));
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile batches: the same refusal, nothing interned
// ---------------------------------------------------------------------------

fn deep(depth: usize) -> WireNode {
    let mut node = leaf("insn");
    for _ in 1..depth {
        node = WireNode {
            kind: "loop".into(),
            attrs: Vec::new(),
            children: vec![node],
        };
    }
    node
}

/// `n` nodes: a root over `n - 1` leaves.
fn wide(n: usize) -> WireNode {
    WireNode {
        kind: "loop".into(),
        attrs: Vec::new(),
        children: (1..n).map(|_| leaf("x")).collect(),
    }
}

/// A loop over attribute names nobody interned, `n` of them.
fn flood(n: usize, tag: &str) -> WireNode {
    WireNode {
        kind: "loop".into(),
        attrs: (0..n)
            .map(|i| {
                let name = format!("fegen-decode-{tag}-{i}-{}", std::process::id());
                (name, WireAttr::Num(i as f64))
            })
            .collect(),
        children: Vec::new(),
    }
}

fn refused(payload: &[u8], want: AdmissionError, turn: &MutexGuard<'static, ()>) {
    let answer = assert_daemon_matches_reference(payload, turn);
    assert_eq!(answer, Answer::Refused(42, want));
}

fn undecodable(payload: &[u8], turn: &MutexGuard<'static, ()>) {
    let answer = assert_daemon_matches_reference(payload, turn);
    assert!(matches!(answer, Answer::Undecodable(_)), "{answer:?}");
}

#[test]
fn oversized_batches_are_refused_like_the_reference() {
    let turn = interner_turn();
    let over: Vec<WireNode> = (0..=MAX_BATCH).map(|_| leaf("insn")).collect();
    refused(
        &predict(over.clone()),
        AdmissionError::BatchTooLarge { got: MAX_BATCH + 1 },
        &turn,
    );
    refused(&predict(Vec::new()), AdmissionError::EmptyBatch, &turn);
    // The batch size outranks a too-deep loop inside it.
    let mut deep_inside = over;
    deep_inside[0] = deep(MAX_IR_DEPTH + 1);
    refused(
        &predict(deep_inside),
        AdmissionError::BatchTooLarge { got: MAX_BATCH + 1 },
        &turn,
    );
}

#[test]
fn too_many_nodes_are_refused_like_the_reference() {
    let turn = interner_turn();
    // Counted across the batch: the second loop crosses the cap.
    refused(
        &predict(vec![
            wide(MAX_REQUEST_NODES / 2),
            wide(MAX_REQUEST_NODES / 2 + 1),
        ]),
        AdmissionError::TooManyNodes {
            got: MAX_REQUEST_NODES + 1,
        },
        &turn,
    );
}

#[test]
fn too_deep_loops_are_refused_like_the_reference() {
    let turn = interner_turn();
    refused(
        &predict(vec![leaf("insn"), deep(MAX_IR_DEPTH + 1)]),
        AdmissionError::TooDeep {
            got: MAX_IR_DEPTH + 1,
        },
        &turn,
    );
    // The first loop over a cap decides: a deep loop before a huge one...
    refused(
        &predict(vec![deep(MAX_IR_DEPTH + 3), wide(MAX_REQUEST_NODES + 1)]),
        AdmissionError::TooDeep {
            got: MAX_IR_DEPTH + 3,
        },
        &turn,
    );
    // ...and a deep loop outranks a symbol flood before it.
    refused(
        &predict(vec![flood(5000, "before-deep"), deep(MAX_IR_DEPTH + 1)]),
        AdmissionError::TooDeep {
            got: MAX_IR_DEPTH + 1,
        },
        &turn,
    );
}

#[test]
fn symbol_floods_are_refused_like_the_reference() {
    let turn = interner_turn();
    let headroom = engine(&turn).1 - ir::symbol_count();
    let payload = predict(vec![flood(headroom + 1, "flood"), flood(3, "flood")]);
    refused(
        &payload,
        AdmissionError::SymbolBudget {
            fresh: headroom + 1,
            headroom,
        },
        &turn,
    );
    let name = format!("fegen-decode-flood-0-{}", std::process::id());
    assert!(
        Symbol::lookup(&name).is_none(),
        "a refused flood interned `{name}`"
    );
    // Exactly at the budget, the same names are admitted, and interned (at
    // a cap of its own: the engine's budget stays for the other tests).
    let cap = ir::symbol_count() + 3;
    let decode = |p: &[u8]| decode_inbound(p, cap);
    let answer = assert_matches_reference(&predict(vec![flood(4, "flood")]), cap, decode);
    assert_eq!(
        answer,
        Answer::Refused(
            42,
            AdmissionError::SymbolBudget {
                fresh: 4,
                headroom: 3
            }
        )
    );
    let answer = assert_matches_reference(&predict(vec![flood(3, "flood")]), cap, decode);
    assert_eq!(answer, Answer::Admitted(42, 1));
    assert!(Symbol::lookup(&name).is_some());
}

#[test]
fn a_breach_followed_by_malformed_json_is_undecodable() {
    let turn = interner_turn();
    let headroom = engine(&turn).1 - ir::symbol_count();
    for batch in [
        (0..=MAX_BATCH).map(|_| leaf("insn")).collect(),
        vec![deep(MAX_IR_DEPTH + 1)],
        vec![flood(headroom + 1, "malformed")],
        vec![flood(8, "malformed-small")],
    ] {
        let payload = predict(batch);
        // Cut before the closing brackets, with trailing garbage, and with
        // a node that lacks a field.
        undecodable(&payload[..payload.len() - 2], &turn);
        let mut trailing = payload.clone();
        trailing.extend_from_slice(b" x");
        undecodable(&trailing, &turn);
        let text = String::from_utf8(payload).expect("payload is UTF-8");
        let cut = text.rfind(r#","children":[]"#).expect("a leaf");
        let missing = format!(
            "{}{}",
            &text[..cut],
            &text[cut + r#","children":[]"#.len()..]
        );
        undecodable(missing.as_bytes(), &turn);
    }
}

// ---------------------------------------------------------------------------
// Undecodable payloads: the same error text
// ---------------------------------------------------------------------------

#[test]
fn every_truncation_and_byte_flip_is_answered_like_the_reference() {
    let node = WireNode {
        kind: "loop".into(),
        attrs: vec![
            ("num-iter".into(), WireAttr::Num(8.0)),
            ("fegen-decode-flip".into(), WireAttr::Bool(true)),
        ],
        children: vec![WireNode {
            kind: "insn".into(),
            attrs: vec![("mode".into(), WireAttr::Enum("SI".into()))],
            children: vec![leaf("reg")],
        }],
    };
    let payload = predict(vec![node]);
    let turn = interner_turn();
    for end in 0..payload.len() {
        assert_daemon_matches_reference(&payload[..end], &turn);
    }
    for at in 0..payload.len() {
        for b in *b"\"{}[],:x1\\" {
            let mut flipped = payload.clone();
            flipped[at] = b;
            assert_daemon_matches_reference(&flipped, &turn);
        }
    }
    assert_daemon_matches_reference(&[0xff, 0xfe], &turn);
}

#[test]
fn every_other_request_shape_is_answered_like_the_reference() {
    let turn = interner_turn();
    for text in [
        r#"{"Hello":{"protocol":2}}"#,
        r#"{"Hello":{"protocol":2,"protocol":3}}"#,
        r#"{"Hello":{"note":[1],"protocol":2}}"#,
        r#"{"Hello":{}}"#,
        r#"{"Hello":{"protocol":-1}}"#,
        r#""Hello""#,
        r#"{"Stats":{"id":1}}"#,
        r#"{"Reload":{"id":18446744073709551615}}"#,
        r#""Shutdown""#,
        r#"{"Shutdown":{"anything":[null]}}"#,
        r#"{"Stats":{"id":1},"Reload":{"id":2}}"#,
        r#"{"Nope":{}}"#,
        r#"{}"#,
        r#"[]"#,
        r#"{"Predict":{"id":1}}"#,
        r#"{"Predict":{"loops":[]}}"#,
        r#"{"Predict":{"id":1,"loops":[],"loops":[]}}"#,
        r#"{"Predict":{"id":1,"loops":[{"kind":"x","attrs":[["a"]],"children":[]}]}}"#,
        r#"{"Predict":{"id":1,"loops":[{"kind":"x","attrs":[["a",{"Num":1},3]],"children":[]}]}}"#,
        r#"{"Predict":{"id":1,"loops":[{"kind":"x","attrs":[["a","Num"]],"children":[]}]}}"#,
        r#"{"Predict":{"id":1,"loops":[{"kind":"x","attrs":[["a",{"Num":1,"Bool":true}]],"children":[]}]}}"#,
        r#"{"Predict":{"id":1,"loops":[{"kind":"x","kind":"y","attrs":[],"children":[]}]}}"#,
        r#"{"Predict":{"id":1,"loops":[{"kind":"","attrs":[["",{"Enum":""}]],"children":[]}]}}"#,
        r#"{"Predict":{"id":1,"loops":[{"kind":"xé\n","attrs":[["\"a\"",{"Enum":"\\"}]],"children":[]}]}}"#,
        "{\"Predict\":{\"id\":1,\"loops\":[{\"kind\":\"x\",\"attrs\":[],\"children\":[]}]}}\n ",
    ] {
        assert_daemon_matches_reference(text.as_bytes(), &turn);
    }
}
