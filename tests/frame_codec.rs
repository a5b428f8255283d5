//! Property tests of the supervisor↔worker frame codec: every frame kind
//! round-trips exactly, and every corruption a real transport can produce
//! — truncation, over-length claims, version skew, bit flips — is rejected
//! with a *typed* [`TransportError`], never a panic and never silently
//! accepted bytes. The payload digest itself is pinned by test vectors.

use fegen::core::gp::engine::GpSnapshot;
use fegen::core::gp::transport::{
    decode_frame, encode_frame, frame_digest, FrameTransport, StreamTransport, TransportError,
    FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use fegen::core::gp::worker_proc::{decode_msg, encode_msg, WireMsg, WorkerSpec};
use fegen::core::ir::IrNode;
use fegen::core::search::TrainingExample;
use fegen::core::stable_hash;
use fegen::core::{EvalEngine, Grammar, IslandTopology, SearchConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Fixtures: one concrete instance of every message kind.
// ---------------------------------------------------------------------------

fn tiny_examples() -> Vec<TrainingExample> {
    (0..4)
        .map(|i| {
            let ir = IrNode::build("loop", |l| {
                l.attr_num("num-iter", 4.0 + i as f64);
                for _ in 0..=i {
                    l.child("insn", |x| {
                        x.attr_enum("mode", "SI");
                    });
                }
            });
            TrainingExample {
                ir,
                // Deliberately awkward floats: the codec must round-trip
                // them bit-exactly, not just "close enough".
                cycles: vec![100.0, 90.0 + i as f64 / 3.0, 0.1 + 0.2],
            }
        })
        .collect()
}

fn tiny_spec() -> WorkerSpec {
    let examples = tiny_examples();
    let mut config = SearchConfig::quick();
    config.seed = 7;
    config.topology = IslandTopology {
        islands: 2,
        migration_every: 1,
        restart_limit: 1,
    };
    let grammar = Grammar::derive(examples.iter().map(|e| &e.ir));
    WorkerSpec::new(config, EvalEngine::Compiled, &grammar, &examples).expect("rows build")
}

/// One message of every wire kind, with a real (non-trivial) island
/// snapshot inside the `Step`/`StepDone` pair.
fn all_message_kinds() -> Vec<WireMsg> {
    let spec = tiny_spec();
    let island = fegen::core::gp::island::IslandSnapshot {
        id: 1,
        status: fegen::core::IslandStatus::Active,
        gp: GpSnapshot {
            population: vec!["count(//*)".to_owned(), "sum(//*, @num-iter)".to_owned()],
            best: Some(("count(//*)".to_owned(), 1.25)),
            stagnant: 1,
            generations: 3,
            evaluations: 40,
            panics: 1,
            memo: vec![
                ("count(//*)".to_owned(), Some(1.25)),
                ("sum(//*, @num-iter)".to_owned(), None),
            ],
            rng: [1, 2, 3, 4],
        },
    };
    vec![
        WireMsg::Begin {
            gp: spec.config.gp.clone(),
            base_features: vec!["count(//*)".to_owned()],
        },
        WireMsg::Hello { spec },
        WireMsg::HelloAck {
            spec_digest: 0x0123_4567_89ab_cdef,
        },
        WireMsg::BeginAck {
            digest: 0xfedc_ba98_7654_3210,
        },
        WireMsg::Step {
            island: island.clone(),
        },
        WireMsg::StepDone {
            island,
            converged: true,
            stats: Some(fegen::core::gp::GenStats {
                generation: 3,
                best: 1.25,
                gen_best: 1.25,
                mean: 1.0,
                valid: 2,
                invalid: 0,
                stagnant: 1,
                evaluations: 5,
                panics: 0,
            }),
        },
        WireMsg::WorkerError {
            detail: "grammar digest mismatch".to_owned(),
        },
        WireMsg::Shutdown,
    ]
}

/// Every message kind survives message-encode → frame-encode →
/// frame-decode → message-decode exactly, sequence number included.
#[test]
fn every_message_kind_round_trips_through_a_frame() {
    for (seq, msg) in all_message_kinds().into_iter().enumerate() {
        let payload = encode_msg(&msg).expect("message encodes");
        let frame = encode_frame(seq as u64, &payload).expect("frame encodes");
        let (got_seq, got_payload) = decode_frame(&frame).expect("frame decodes");
        assert_eq!(got_seq, seq as u64);
        assert_eq!(got_payload, payload);
        let got = decode_msg(&got_payload).expect("message decodes");
        assert_eq!(got, msg, "round-trip must be exact");
    }
}

/// The encode side of the over-length guard: a payload past
/// [`MAX_FRAME_LEN`] is refused before any bytes hit the wire.
#[test]
fn oversized_payloads_are_refused_at_encode_time() {
    let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
    match encode_frame(0, &payload) {
        Err(TransportError::OverLength { .. }) => {}
        other => panic!("expected OverLength, got {other:?}"),
    }
}

/// Garbage that passed the frame digest can still be hostile JSON; the
/// message decoder must reject it as `Malformed`, never panic.
#[test]
fn non_message_payloads_are_rejected_typed() {
    for payload in [
        &b""[..],
        b"{}",
        b"[1,2,3]",
        b"{\"NoSuchVariant\":{}}",
        b"\xff\xfe not utf-8",
    ] {
        match decode_msg(payload) {
            Err(TransportError::Malformed(_)) => {}
            other => panic!("payload {payload:?}: expected Malformed, got {other:?}"),
        }
    }
}

/// The payload digest is pinned: a change to it is a wire format change
/// and must bump [`PROTOCOL_VERSION`]. The vectors cover the empty payload,
/// every tail length of the first two words and a 4 KiB payload.
#[test]
fn frame_digest_test_vectors() {
    let nine = b"fegenwire";
    let expected: [u64; 10] = [
        0x1a4b_72c8_6fe0_0352,
        0x46d3_24bf_16b5_4733,
        0xe3ea_2ed6_a23f_1635,
        0x5612_78e2_fe81_288f,
        0x9666_6d19_c319_8944,
        0xad86_72ae_b5f9_3caa,
        0x9188_e364_d574_cea8,
        0x7629_f66e_c187_e235,
        0xc4a3_f116_95b9_93a8,
        0x41ed_2581_2ecf_e568,
    ];
    for (len, want) in expected.into_iter().enumerate() {
        let got = frame_digest(&nine[..len]);
        assert_eq!(got, want, "digest of {:?}: {got:#018x}", &nine[..len]);
    }
    let page: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(31) ^ (i >> 8)) as u8)
        .collect();
    let got = frame_digest(&page);
    assert_eq!(
        got, 0xb1f3_c4aa_aa26_b453,
        "digest of the 4 KiB page: {got:#018x}"
    );
}

/// A well-formed version-1 frame — FNV-1a digest and all — is refused
/// with a typed `VersionSkew` naming both versions, by the in-memory
/// decoder and by a stream reader.
#[test]
fn a_version_1_frame_is_refused_as_version_skew() {
    let payload = br#"{"Hello":{"protocol":2}}"#;
    let mut frame = Vec::new();
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&1u32.to_le_bytes());
    frame.extend_from_slice(&0u64.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&stable_hash(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    let skew = TransportError::VersionSkew {
        found: 1,
        expected: 2,
    };
    assert_eq!(PROTOCOL_VERSION, 2);
    assert_eq!(decode_frame(&frame), Err(skew.clone()));
    let mut reader = StreamTransport::new(std::io::Cursor::new(frame), std::io::sink());
    assert_eq!(reader.recv(), Err(skew));
}

// ---------------------------------------------------------------------------
// Properties over arbitrary payload bytes and corruptions.
// ---------------------------------------------------------------------------

/// An arbitrary byte (the vendored proptest drives ranges, not `any`).
fn byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|v| v as u8)
}

/// Up to 16 KiB of arbitrary bytes, at least one word long.
fn body() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(byte(), 8..16 * 1024 + 8)
}

/// `body` cut to whole words and then `tail` (0–7) bytes more: the
/// payloads of one case end in every partial word the digest pads.
fn with_tail(body: &[u8], tail: usize) -> &[u8] {
    &body[..(body.len() - 8) / 8 * 8 + tail]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any payload round-trips exactly under any sequence number.
    #[test]
    fn arbitrary_payloads_round_trip(
        seq in 0u64..u64::MAX,
        payload in prop::collection::vec(byte(), 0..512),
    ) {
        let frame = encode_frame(seq, &payload).expect("frame encodes");
        prop_assert_eq!(frame.len(), FRAME_HEADER_LEN + payload.len());
        let (got_seq, got_payload) = decode_frame(&frame).expect("frame decodes");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got_payload, payload);
    }

    /// Every possible truncation — mid-header or mid-payload — is a typed
    /// `TornFrame` naming how many bytes were expected and seen.
    #[test]
    fn every_truncation_is_a_typed_torn_frame(
        seq in 0u64..u64::MAX,
        body in body(),
        cut in 0.0f64..1.0,
    ) {
        for tail in 0..8 {
            let frame = encode_frame(seq, with_tail(&body, tail)).expect("frame encodes");
            let keep = (frame.len() as f64 * cut) as usize; // always < len
            match decode_frame(&frame[..keep]) {
                Err(TransportError::TornFrame { expected, got }) => {
                    prop_assert_eq!(got, keep);
                    prop_assert!(expected > keep, "expected must exceed what arrived");
                }
                other => prop_assert!(false, "truncation to {keep} gave {other:?}"),
            }
        }
    }

    /// Flipping any single bit anywhere in the frame is either caught with
    /// a typed error, or — only when the flip landed inside the sequence
    /// field, which carries no integrity of its own — yields the original
    /// payload under a different sequence number. No panic, no silent
    /// payload corruption. A flip in the digest field or the payload is
    /// always a `DigestMismatch`.
    #[test]
    fn any_single_bit_flip_is_caught_or_harmless(
        seq in 0u64..u64::MAX,
        body in body(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        for tail in 0..8 {
            let payload = with_tail(&body, tail);
            let good = encode_frame(seq, payload).expect("frame encodes");
            // Anywhere, and in the last byte: the padded partial word.
            let anywhere = ((good.len() as f64 * pos_frac) as usize).min(good.len() - 1);
            for pos in [anywhere, good.len() - 1] {
                let mut frame = good.clone();
                frame[pos] ^= 1 << bit;
                match decode_frame(&frame) {
                    Ok((got_seq, got_payload)) => {
                        // The seq field occupies header bytes 8..16.
                        prop_assert!((8..16).contains(&pos), "flip at {pos} slipped through");
                        prop_assert_ne!(got_seq, seq);
                        prop_assert_eq!(got_payload, payload);
                    }
                    Err(TransportError::DigestMismatch { .. }) => {}
                    Err(
                        TransportError::BadMagic { .. }
                        | TransportError::VersionSkew { .. }
                        | TransportError::OverLength { .. }
                        | TransportError::TornFrame { .. },
                    ) if pos < 20 => {}
                    Err(other) => prop_assert!(false, "flip at {pos} gave {other:?}"),
                }
            }
        }
    }

    /// Any protocol version other than ours is a typed `VersionSkew`
    /// reporting both sides' versions.
    #[test]
    fn every_foreign_version_is_a_typed_skew(
        version in prop_oneof![
            0u32..PROTOCOL_VERSION,
            PROTOCOL_VERSION + 1..u32::MAX,
        ],
        payload in prop::collection::vec(byte(), 0..64),
    ) {
        let mut frame = encode_frame(3, &payload).expect("frame encodes");
        frame[4..8].copy_from_slice(&version.to_le_bytes());
        match decode_frame(&frame) {
            Err(TransportError::VersionSkew { found, expected }) => {
                prop_assert_eq!(found, version);
                prop_assert_eq!(expected, PROTOCOL_VERSION);
            }
            other => prop_assert!(false, "version {version} gave {other:?}"),
        }
    }

    /// A length field past the cap is a typed `OverLength` even when the
    /// digest and magic are pristine — the bound is checked *before* the
    /// reader would try to allocate the claimed buffer.
    #[test]
    fn every_over_length_claim_is_typed(
        extra in 1u32..1_000_000,
        payload in prop::collection::vec(byte(), 0..64),
    ) {
        let mut frame = encode_frame(4, &payload).expect("frame encodes");
        let claimed = MAX_FRAME_LEN + extra;
        frame[16..20].copy_from_slice(&claimed.to_le_bytes());
        match decode_frame(&frame) {
            Err(TransportError::OverLength { len, max }) => {
                prop_assert_eq!(len, claimed);
                prop_assert_eq!(max, MAX_FRAME_LEN);
            }
            other => prop_assert!(false, "claimed {claimed} gave {other:?}"),
        }
    }

    /// Wrong magic is a typed `BadMagic` echoing the found bytes.
    #[test]
    fn every_foreign_magic_is_typed(
        raw in (0u16..256, 0u16..256, 0u16..256, 0u16..256),
        payload in prop::collection::vec(byte(), 0..64),
    ) {
        let magic = [raw.0 as u8, raw.1 as u8, raw.2 as u8, raw.3 as u8];
        if magic != FRAME_MAGIC {
            let mut frame = encode_frame(5, &payload).expect("frame encodes");
            frame[0..4].copy_from_slice(&magic);
            match decode_frame(&frame) {
                Err(TransportError::BadMagic { found }) => prop_assert_eq!(found, magic),
                other => prop_assert!(false, "magic {magic:?} gave {other:?}"),
            }
        }
    }
}
