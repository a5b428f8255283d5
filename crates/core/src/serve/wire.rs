//! The serve wire protocol: request/response vocabulary and hardened IR
//! ingestion.
//!
//! Messages travel as JSON payloads inside the digest-sealed frames of
//! [`crate::gp::transport`] — the daemon deliberately reuses the island
//! worker's codec (magic, version, sequence and FNV-1a digest checks, 64
//! MiB length cap) instead of inventing a second wire format. Frame-level
//! violations poison the connection; *payload*-level violations (garbage
//! JSON, hostile IR) are answered with a typed [`ServeResponse::Error`]
//! and the connection stays up.
//!
//! Loop IR arrives as [`WireNode`] — a string-keyed mirror of
//! [`IrNode`][crate::ir::IrNode] — and passes three hardening gates before
//! anything touches process-wide state:
//!
//! 1. **Nesting depth** is bounded inside the JSON decoder itself: it
//!    counts open brackets while it reads typed values and while it skips
//!    unknown ones (iteratively), and refuses input deeper than
//!    [`MAX_JSON_DEPTH`], so a 100k-bracket payload cannot blow the
//!    decoder's stack.
//! 2. **Node count and IR depth** are bounded after decoding, so one
//!    request cannot flatten an arbitrarily large arena.
//! 3. **Symbol budget**: the global interner leaks each distinct string
//!    permanently (by design — see [`crate::ir::Symbol`]), so the number
//!    of *new* strings a request may intern is counted first and capped.
//!    A hostile stream of unique kinds is rejected before it can grow the
//!    interner, which would otherwise be an unbounded memory leak in a
//!    long-lived daemon.
//!
//! Only after all three gates does conversion intern strings and rebuild
//! an `IrNode` via `set_attr` — which also re-sorts attribute lists, so a
//! client that ships unsorted attrs cannot silently break the arena's
//! binary-search lookups.

use crate::ir::{self, AttrValue, IrNode, Symbol};
use crate::lang::vm::PoolStats;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Serve protocol version, checked in the `Hello`/`HelloAck` handshake on
/// top of the per-frame transport version.
pub const SERVE_PROTOCOL: u32 = 2;

/// Maximum JSON bracket nesting any payload may have (the decoder's own
/// bound, on every decode path).
pub const MAX_JSON_DEPTH: usize = serde_json::MAX_DEPTH;

/// Maximum depth of one ingested IR tree.
pub const MAX_IR_DEPTH: usize = 64;

/// Maximum total nodes across the loops of one request.
pub const MAX_REQUEST_NODES: usize = 1 << 20;

/// Maximum loops in one `Predict` batch.
pub const MAX_BATCH: usize = 4096;

/// Attribute value on the wire (string-keyed mirror of
/// [`AttrValue`][crate::ir::AttrValue]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireAttr {
    /// Numeric attribute.
    Num(f64),
    /// Boolean flag.
    Bool(bool),
    /// Enumerated attribute.
    Enum(String),
}

/// One exported IR node on the wire. Strings instead of interned symbols:
/// interning is a side effect on process-global state, so it happens only
/// after the request passes every admission gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireNode {
    /// Node kind, e.g. `insn`.
    pub kind: String,
    /// Named attributes (any order; conversion re-sorts).
    pub attrs: Vec<(String, WireAttr)>,
    /// Ordered children.
    pub children: Vec<WireNode>,
}

impl WireNode {
    /// Converts an in-process tree to its wire form (client side).
    pub fn from_ir(node: &IrNode) -> WireNode {
        WireNode {
            kind: node.kind().as_str().to_owned(),
            attrs: node
                .attrs()
                .iter()
                .map(|(name, value)| {
                    let value = match value {
                        AttrValue::Num(v) => WireAttr::Num(*v),
                        AttrValue::Bool(b) => WireAttr::Bool(*b),
                        AttrValue::Enum(s) => WireAttr::Enum(s.as_str().to_owned()),
                    };
                    (name.as_str().to_owned(), value)
                })
                .collect(),
            children: node.children().iter().map(WireNode::from_ir).collect(),
        }
    }

    /// Nodes in this subtree (including `self`), iteratively — hostile
    /// shapes must not pick the recursion depth.
    pub fn node_count(&self) -> usize {
        let mut count = 0usize;
        let mut stack = vec![self];
        while let Some(n) = stack.pop() {
            count += 1;
            stack.extend(n.children.iter());
        }
        count
    }

    /// Maximum depth of this subtree (a leaf has depth 1), iteratively.
    pub fn depth(&self) -> usize {
        let mut max = 0usize;
        let mut stack = vec![(self, 1usize)];
        while let Some((n, d)) = stack.pop() {
            max = max.max(d);
            stack.extend(n.children.iter().map(|c| (c, d + 1)));
        }
        max
    }

    /// Collects every string this subtree would intern.
    fn collect_strings<'a>(&'a self, out: &mut HashSet<&'a str>) {
        let mut stack = vec![self];
        while let Some(n) = stack.pop() {
            out.insert(n.kind.as_str());
            for (name, value) in &n.attrs {
                out.insert(name.as_str());
                if let WireAttr::Enum(s) = value {
                    out.insert(s.as_str());
                }
            }
            stack.extend(n.children.iter());
        }
    }

    /// Converts to an [`IrNode`], interning strings. Only called after
    /// [`validate_batch`] admitted the request; `set_attr` re-sorts
    /// attribute lists, restoring the binary-search invariant regardless
    /// of wire order (duplicate attribute names collapse to the last one,
    /// matching builder semantics).
    pub fn to_ir(&self) -> IrNode {
        let mut node = IrNode::new(self.kind.as_str());
        for (name, value) in &self.attrs {
            let value = match value {
                WireAttr::Num(v) => AttrValue::Num(*v),
                WireAttr::Bool(b) => AttrValue::Bool(*b),
                WireAttr::Enum(s) => AttrValue::Enum(Symbol::intern(s)),
            };
            node.set_attr(name.as_str(), value);
        }
        for child in &self.children {
            node.push_child(child.to_ir());
        }
        node
    }
}

/// Why a structurally well-formed request was refused admission.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The batch holds more than [`MAX_BATCH`] loops.
    BatchTooLarge {
        /// Loops in the batch.
        got: usize,
    },
    /// The batch holds no loops at all.
    EmptyBatch,
    /// Total nodes across the batch exceed [`MAX_REQUEST_NODES`].
    TooManyNodes {
        /// Nodes counted.
        got: usize,
    },
    /// A loop nests deeper than [`MAX_IR_DEPTH`].
    TooDeep {
        /// Depth found.
        got: usize,
    },
    /// Admitting the request would grow the symbol interner past the
    /// daemon's budget (the interner leaks each distinct string forever).
    SymbolBudget {
        /// New strings the request would intern.
        fresh: usize,
        /// Interner headroom remaining.
        headroom: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::BatchTooLarge { got } => {
                write!(f, "batch of {got} loops exceeds the {MAX_BATCH} cap")
            }
            AdmissionError::EmptyBatch => write!(f, "batch holds no loops"),
            AdmissionError::TooManyNodes { got } => {
                write!(f, "{got} IR nodes exceed the {MAX_REQUEST_NODES} cap")
            }
            AdmissionError::TooDeep { got } => {
                write!(f, "IR nests {got} deep, cap is {MAX_IR_DEPTH}")
            }
            AdmissionError::SymbolBudget { fresh, headroom } => write!(
                f,
                "request would intern {fresh} new symbols but only {headroom} remain \
                 in the daemon's budget"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Admission control for one `Predict` batch: size, depth and symbol
/// budget, all checked *before* any string is interned or any arena
/// flattened. `symbol_cap` bounds the process-wide interner size.
pub fn validate_batch(loops: &[WireNode], symbol_cap: usize) -> Result<(), AdmissionError> {
    if loops.is_empty() {
        return Err(AdmissionError::EmptyBatch);
    }
    if loops.len() > MAX_BATCH {
        return Err(AdmissionError::BatchTooLarge { got: loops.len() });
    }
    let mut nodes = 0usize;
    for l in loops {
        nodes += l.node_count();
        if nodes > MAX_REQUEST_NODES {
            return Err(AdmissionError::TooManyNodes { got: nodes });
        }
        let depth = l.depth();
        if depth > MAX_IR_DEPTH {
            return Err(AdmissionError::TooDeep { got: depth });
        }
    }
    let mut strings = HashSet::new();
    for l in loops {
        l.collect_strings(&mut strings);
    }
    let fresh = strings
        .iter()
        .filter(|s| Symbol::lookup(s).is_none())
        .count();
    let headroom = symbol_cap.saturating_sub(ir::symbol_count());
    if fresh > headroom {
        return Err(AdmissionError::SymbolBudget { fresh, headroom });
    }
    Ok(())
}

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeRequest {
    /// Handshake; must be the first message on a connection.
    Hello {
        /// [`SERVE_PROTOCOL`] the client speaks.
        protocol: u32,
    },
    /// Predict unroll factors for a batch of exported loops.
    Predict {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// The loops, in response order.
        loops: Vec<WireNode>,
    },
    /// Snapshot the daemon's counters.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Re-check the model artifact on disk and swap it in if it changed.
    Reload {
        /// Correlation id.
        id: u64,
    },
    /// Close the connection (and, for a stdio daemon, the process).
    Shutdown,
}

/// One unroll decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decision {
    /// The predicted unroll factor (0 = don't unroll).
    pub unroll: usize,
    /// Whether the loop's flattened arena came from the LRU cache.
    pub cached: bool,
}

/// A point-in-time snapshot of the daemon's counters, as reported to
/// clients and mirrored into telemetry gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServeStatsSnapshot {
    /// Predict requests answered (including error answers).
    pub requests: u64,
    /// Loops evaluated across all batches.
    pub loops_evaluated: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Arena-cache hits.
    pub arena_hits: u64,
    /// Arena-cache misses (flattens).
    pub arena_misses: u64,
    /// Arenas evicted by the bounded LRU.
    pub arena_evictions: u64,
    /// Live arena-cache entries.
    pub arena_entries: u64,
    /// Successful model hot-reloads.
    pub reloads: u64,
    /// Reload attempts that kept the old model (new artifact unreadable).
    pub reload_failures: u64,
    /// Peak concurrent in-flight batches observed.
    pub queue_depth_peak: u64,
    /// (loop, feature) evaluations that failed (budget exhausted or a
    /// non-finite value) and were answered with the deployment default
    /// `0.0`.
    pub feature_failures: u64,
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeResponse {
    /// Handshake acknowledgement.
    HelloAck {
        /// [`SERVE_PROTOCOL`] the daemon speaks.
        protocol: u32,
        /// Loaded artifact's format version.
        model_version: u32,
        /// Loaded artifact's content digest.
        model_digest: u64,
        /// Features in the loaded model.
        n_features: usize,
        /// Decision classes in the loaded model.
        n_classes: usize,
    },
    /// Answers `Predict`; `decisions[i]` corresponds to `loops[i]`.
    Decisions {
        /// Echoed correlation id.
        id: u64,
        /// One decision per loop.
        decisions: Vec<Decision>,
    },
    /// Answers `Stats`.
    StatsReport {
        /// Echoed correlation id.
        id: u64,
        /// The counters.
        stats: ServeStatsSnapshot,
        /// The shared pool's evaluation counters.
        pool: PoolStatsWire,
    },
    /// Answers `Reload`.
    ReloadDone {
        /// Echoed correlation id.
        id: u64,
        /// Whether a new artifact was actually swapped in.
        reloaded: bool,
        /// Digest of the (possibly unchanged) active model.
        model_digest: u64,
    },
    /// Typed refusal. `id` echoes the request when it was decodable,
    /// [`ERROR_ID_UNDECODABLE`] when the payload never yielded one.
    Error {
        /// Correlation id, or [`ERROR_ID_UNDECODABLE`].
        id: u64,
        /// What was wrong.
        detail: String,
    },
    /// Acknowledges `Shutdown`; the connection closes after this.
    Bye,
}

/// `id` used in [`ServeResponse::Error`] when the offending payload could
/// not be decoded far enough to recover a correlation id.
pub const ERROR_ID_UNDECODABLE: u64 = u64::MAX;

/// Wire form of [`PoolStats`] (field-for-field; keeps the serde derive out
/// of the hot VM type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct PoolStatsWire {
    pub vm_evals: u64,
    pub program_hits: u64,
    pub program_misses: u64,
    pub program_evictions: u64,
}

impl From<PoolStats> for PoolStatsWire {
    fn from(s: PoolStats) -> PoolStatsWire {
        PoolStatsWire {
            vm_evals: s.vm_evals,
            program_hits: s.program_hits,
            program_misses: s.program_misses,
            program_evictions: s.program_evictions,
        }
    }
}

/// Encodes a request as a frame payload.
///
/// # Errors
///
/// Serialization failure (effectively unreachable for these types).
pub fn encode_request(msg: &ServeRequest) -> Result<Vec<u8>, String> {
    serde_json::to_string(msg)
        .map(String::into_bytes)
        .map_err(|e| format!("encode request: {e}"))
}

/// Encodes a response as a frame payload.
///
/// # Errors
///
/// Serialization failure (effectively unreachable for these types).
pub fn encode_response(msg: &ServeResponse) -> Result<Vec<u8>, String> {
    serde_json::to_string(msg)
        .map(String::into_bytes)
        .map_err(|e| format!("encode response: {e}"))
}

/// Decodes a frame payload as a request. Typed rejection, never a panic:
/// the payload already passed the frame digest, but digest-valid bytes can
/// still be hostile — non-UTF-8, nested deeper than [`MAX_JSON_DEPTH`], or
/// garbage JSON.
///
/// # Errors
///
/// A human-readable detail string; the daemon wraps it in
/// [`ServeResponse::Error`].
pub fn decode_request(payload: &[u8]) -> Result<ServeRequest, String> {
    let text =
        std::str::from_utf8(payload).map_err(|e| format!("non-UTF-8 payload: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("undecodable request: {e}"))
}

/// Decodes a frame payload as a response (client side).
///
/// # Errors
///
/// A human-readable detail string.
pub fn decode_response(payload: &[u8]) -> Result<ServeResponse, String> {
    let text =
        std::str::from_utf8(payload).map_err(|e| format!("non-UTF-8 payload: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("undecodable response: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deep_wire(depth: usize) -> WireNode {
        let mut node = WireNode {
            kind: "insn".into(),
            attrs: Vec::new(),
            children: Vec::new(),
        };
        for _ in 1..depth {
            node = WireNode {
                kind: "loop".into(),
                attrs: Vec::new(),
                children: vec![node],
            };
        }
        node
    }

    #[test]
    fn request_roundtrip() {
        let req = ServeRequest::Predict {
            id: 9,
            loops: vec![WireNode {
                kind: "loop".into(),
                attrs: vec![("num-iter".into(), WireAttr::Num(8.0))],
                children: vec![],
            }],
        };
        let bytes = encode_request(&req).unwrap();
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn garbage_and_non_utf8_are_typed() {
        assert!(decode_request(b"{ nope").is_err());
        assert!(decode_request(&[0xff, 0xfe, 0x01]).is_err());
    }

    #[test]
    fn decoder_bounds_nesting_depth() {
        let hostile = "[".repeat(MAX_JSON_DEPTH + 10);
        assert!(decode_request(hostile.as_bytes()).is_err());
        // A well-formed request whose IR nests too deep for the decoder.
        let req = ServeRequest::Predict {
            id: 1,
            loops: vec![deep_wire(MAX_JSON_DEPTH)],
        };
        let err = decode_request(&encode_request(&req).unwrap()).unwrap_err();
        assert!(err.contains("nests deeper"), "{err}");
        // Hidden in an unknown field, which the decoder skips unread.
        let hidden = format!(r#"{{"Stats":{{"id":1,"junk":{hostile}}}}}"#);
        let err = decode_request(hidden.as_bytes()).unwrap_err();
        assert!(err.contains("nests deeper"), "{err}");
        // Brackets inside strings do not count.
        let quoted = format!(r#"{{"Stats":{{"id":1,"junk":"{hostile}"}}}}"#);
        assert_eq!(
            decode_request(quoted.as_bytes()),
            Ok(ServeRequest::Stats { id: 1 })
        );
    }

    #[test]
    fn wire_ir_roundtrip_sorts_attrs() {
        let wire = WireNode {
            kind: "loop".into(),
            // Deliberately unsorted on the wire.
            attrs: vec![
                ("zz-late".into(), WireAttr::Bool(true)),
                ("aa-early".into(), WireAttr::Num(3.0)),
                ("mode".into(), WireAttr::Enum("SI".into())),
            ],
            children: vec![WireNode {
                kind: "insn".into(),
                attrs: vec![],
                children: vec![],
            }],
        };
        let ir = wire.to_ir();
        // Binary-search lookup works regardless of wire order.
        assert_eq!(
            ir.attr(Symbol::intern("aa-early")),
            Some(AttrValue::Num(3.0))
        );
        assert_eq!(
            ir.attr(Symbol::intern("zz-late")),
            Some(AttrValue::Bool(true))
        );
        // And the round trip through from_ir is stable (sorted) once.
        let back = WireNode::from_ir(&ir);
        assert_eq!(back.to_ir(), ir);
    }

    #[test]
    fn admission_caps_depth_and_batch() {
        let ok = deep_wire(4);
        assert!(validate_batch(std::slice::from_ref(&ok), usize::MAX).is_ok());
        let deep = deep_wire(MAX_IR_DEPTH + 1);
        assert!(matches!(
            validate_batch(&[deep], usize::MAX),
            Err(AdmissionError::TooDeep { .. })
        ));
        assert!(matches!(
            validate_batch(&[], usize::MAX),
            Err(AdmissionError::EmptyBatch)
        ));
        let big: Vec<WireNode> = (0..MAX_BATCH + 1).map(|_| ok.clone()).collect();
        assert!(matches!(
            validate_batch(&big, usize::MAX),
            Err(AdmissionError::BatchTooLarge { .. })
        ));
    }

    #[test]
    fn symbol_budget_blocks_interner_growth() {
        // A request full of never-seen strings must be rejected *without*
        // interning them.
        let hostile: Vec<WireNode> = (0..64)
            .map(|i| WireNode {
                kind: format!("fegen-test-hostile-kind-{i}-{}", std::process::id()),
                attrs: vec![],
                children: vec![],
            })
            .collect();
        let before = ir::symbol_count();
        let err = validate_batch(&hostile, before + 8).unwrap_err();
        assert!(matches!(err, AdmissionError::SymbolBudget { .. }), "{err}");
        // Sibling tests intern on other threads, so the global count may
        // move; the hostile names themselves must still be absent.
        for node in &hostile {
            assert!(
                Symbol::lookup(&node.kind).is_none(),
                "rejection must not intern `{}`",
                node.kind
            );
        }
        // With headroom the same batch is admitted.
        assert!(validate_batch(&hostile, before + 1024).is_ok());
    }
}
