//! The serve wire protocol: request/response vocabulary and hardened IR
//! ingestion.
//!
//! Messages travel as JSON payloads inside the digest-sealed frames of
//! [`crate::gp::transport`] — the daemon deliberately reuses the island
//! worker's codec (magic, version, sequence and payload digest checks,
//! 64 MiB length cap) instead of inventing a second wire format. Frame-level
//! violations poison the connection; *payload*-level violations (garbage
//! JSON, hostile IR) are answered with a typed [`ServeResponse::Error`]
//! and the connection stays up.
//!
//! Clients send loop IR as [`WireNode`] — a string-keyed mirror of
//! [`IrNode`]. The daemon never builds one: it reads a
//! `Predict` payload in one pass straight into the evaluator's preorder
//! arena rows ([`decode_inbound`]), and passes three hardening gates
//! before anything touches process-wide state:
//!
//! 1. **Nesting depth** is bounded inside the JSON decoder itself: it
//!    counts open brackets while it reads typed values and while it skips
//!    unknown ones (iteratively), and refuses input deeper than
//!    [`MAX_JSON_DEPTH`], so a 100k-bracket payload cannot blow the
//!    decoder's stack.
//! 2. **Batch size, node count and IR depth** are counted while the rows
//!    are read, so one request cannot flatten an arbitrarily large arena:
//!    once a cap trips the decoder stops building rows and only reads on
//!    to the end of the payload.
//! 3. **Symbol budget**: the global interner leaks each distinct string
//!    permanently (by design — see [`crate::ir::Symbol`]), so names are
//!    resolved without interning, under one read lock of the symbol table,
//!    and the *new* strings a request would intern are counted and capped.
//!    A hostile stream of unique kinds is rejected before it can grow the
//!    interner, which would otherwise be an unbounded memory leak in a
//!    long-lived daemon.
//!
//! Only an admitted batch has its new strings interned. Each node's
//! attributes are then sorted by name, the last of a duplicated name
//! winning as in `IrNode::set_attr`, so a client that ships unsorted attrs
//! cannot break the arena's binary-search lookups; and each loop is keyed
//! for the arena cache from its rows. The caps themselves live in one
//! counter, which [`validate_batch`] applies to decoded [`WireNode`]s too.

use super::engine::rows_key;
use crate::faults::fnv1a;
use crate::ir::{self, ArenaRows, AttrValue, IrNode, Symbol, SymbolTable};
use crate::lang::vm::PoolStats;
use serde::de::{
    begin_variant, element_with, end_tuple, end_variant, field, field_with, next_field,
    require_payload, required, Deserializer,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

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

/// One exported IR node on the wire, as clients build it. Strings instead
/// of interned symbols: interning is a side effect on process-global
/// state, so the daemon does it only after the request passes every
/// admission gate.
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

    /// Converts to an [`IrNode`], interning strings (call it only on
    /// IR [`validate_batch`] admitted); `set_attr` re-sorts attribute
    /// lists, restoring the binary-search invariant regardless of wire
    /// order (duplicate attribute names collapse to the last one, matching
    /// builder semantics). The daemon reads the same rows straight from
    /// the JSON instead ([`decode_inbound`]).
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

/// Counts one `Predict` batch against the admission caps. The daemon's
/// decoder feeds it loop by loop while it reads rows, and
/// [`validate_batch`] feeds it from decoded [`WireNode`]s, so both apply
/// one set of rules in one order: an empty or oversized batch, then the
/// first loop (in batch order) over the node or depth cap, then the symbol
/// budget.
#[derive(Debug, Default)]
struct AdmissionCount {
    loops: usize,
    nodes: usize,
    /// The first loop's node or depth breach.
    breach: Option<AdmissionError>,
}

impl AdmissionCount {
    /// Counts one whole loop of `nodes` nodes, `depth` deep.
    fn add_loop(&mut self, nodes: usize, depth: usize) {
        self.loops += 1;
        if self.breach.is_some() {
            return;
        }
        self.nodes += nodes;
        if self.nodes > MAX_REQUEST_NODES {
            self.breach = Some(AdmissionError::TooManyNodes { got: self.nodes });
        } else if depth > MAX_IR_DEPTH {
            self.breach = Some(AdmissionError::TooDeep { got: depth });
        }
    }

    /// True once the batch is refused whatever its strings are: the loop
    /// being read has `nodes` nodes and `depth` levels so far.
    fn refused(&self, nodes: usize, depth: usize) -> bool {
        self.loops >= MAX_BATCH
            || self.breach.is_some()
            || self.nodes + nodes > MAX_REQUEST_NODES
            || depth > MAX_IR_DEPTH
    }

    /// The verdict once every loop is counted, with `fresh` strings the
    /// interner lacks against `headroom`.
    fn verdict(&self, fresh: usize, headroom: usize) -> Result<(), AdmissionError> {
        if self.loops == 0 {
            return Err(AdmissionError::EmptyBatch);
        }
        if self.loops > MAX_BATCH {
            return Err(AdmissionError::BatchTooLarge { got: self.loops });
        }
        if let Some(breach) = &self.breach {
            return Err(breach.clone());
        }
        if fresh > headroom {
            return Err(AdmissionError::SymbolBudget { fresh, headroom });
        }
        Ok(())
    }
}

/// Admission control for one decoded `Predict` batch: size, depth and
/// symbol budget, all checked *before* any string is interned or any arena
/// flattened. `symbol_cap` bounds the process-wide interner size. The
/// daemon applies the same caps while it decodes ([`decode_inbound`]).
pub fn validate_batch(loops: &[WireNode], symbol_cap: usize) -> Result<(), AdmissionError> {
    let mut count = AdmissionCount::default();
    for l in loops {
        count.add_loop(l.node_count(), l.depth());
    }
    count.verdict(0, usize::MAX)?;
    let mut strings = HashSet::new();
    for l in loops {
        l.collect_strings(&mut strings);
    }
    let table = ir::symbol_table();
    let fresh = strings.iter().filter(|s| table.lookup(s).is_none()).count();
    count.verdict(fresh, symbol_cap.saturating_sub(table.len()))
}

/// One admitted loop as the daemon decoded it: its preorder arena rows
/// and its arena-cache key ([`arena_key`](super::engine::arena_key) of the
/// tree the rows flatten).
#[derive(Debug, Clone)]
pub struct AdmittedLoop {
    /// [`arena_key`](super::engine::arena_key) of the loop.
    pub key: u64,
    /// The loop's rows, every name interned, attributes sorted.
    pub rows: ArenaRows,
}

/// A client message as the daemon decodes it ([`decode_inbound`]): a
/// `Predict` batch arrives as admitted arena rows, or as the reason it was
/// refused. The other messages mirror [`ServeRequest`].
#[derive(Debug)]
pub enum Inbound {
    /// See [`ServeRequest::Hello`].
    Hello {
        /// [`SERVE_PROTOCOL`] the client speaks.
        protocol: u32,
    },
    /// See [`ServeRequest::Predict`].
    Predict {
        /// Client-chosen correlation id.
        id: u64,
        /// The loops in request order, or why the batch was refused.
        loops: Result<Vec<AdmittedLoop>, AdmissionError>,
    },
    /// See [`ServeRequest::Stats`].
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// See [`ServeRequest::Reload`].
    Reload {
        /// Correlation id.
        id: u64,
    },
    /// See [`ServeRequest::Shutdown`].
    Shutdown,
}

/// Where a name that is not interned yet goes once it is.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Kind(u32),
    AttrName(u32),
    AttrEnum(u32),
}

/// One loop's rows as they are read: attributes in wire order, names the
/// interner lacks left [`Symbol::UNRESOLVED`] with a fix-up each.
#[derive(Debug, Default)]
struct LoopRows {
    kinds: Vec<Symbol>,
    subtree_end: Vec<u32>,
    /// Node `i`'s attributes are `attrs[spans[i].0 .. spans[i].1]`.
    spans: Vec<(u32, u32)>,
    attrs: Vec<(Symbol, AttrValue)>,
    fixups: Vec<(Slot, u32)>,
}

/// Reads a `Predict`'s loops straight into [`LoopRows`], counting the
/// admission caps on the way. Names are resolved against the symbol table
/// it holds for the whole read; strings the table lacks are collected, not
/// interned. Once the batch is refused it stops building rows and only
/// counts to the end (the verdict still needs the whole batch, and a
/// malformed tail still makes the request undecodable).
struct RowReader {
    table: SymbolTable,
    /// Recently resolved names by hash: a request repeats a few dozen
    /// kinds and attribute names hundreds of times, and a hit here costs a
    /// fraction of a table lookup.
    recent: Box<[(Symbol, &'static str); RECENT_NAMES]>,
    headroom: usize,
    count: AdmissionCount,
    /// Distinct strings the table lacks, numbered in order of appearance.
    fresh: HashMap<String, u32>,
    loops: Vec<LoopRows>,
    /// The loop being read, its node count and depth so far.
    rows: LoopRows,
    nodes: usize,
    depth: usize,
    /// The caps refuse the batch: no more rows, no more fresh strings.
    refused: bool,
    /// The batch is refused at least for its symbols: no more rows.
    no_rows: bool,
}

/// Slots of [`RowReader`]'s recent-name memo.
const RECENT_NAMES: usize = 64;

/// The field numbers of a [`WireNode`] map.
fn node_field(key: &str) -> Option<usize> {
    match key {
        "kind" => Some(0),
        "attrs" => Some(1),
        "children" => Some(2),
        _ => None,
    }
}

impl RowReader {
    fn new(symbol_cap: usize) -> RowReader {
        let table = ir::symbol_table();
        let headroom = symbol_cap.saturating_sub(table.len());
        RowReader {
            table,
            recent: Box::new([(Symbol::UNRESOLVED, ""); RECENT_NAMES]),
            headroom,
            count: AdmissionCount::default(),
            fresh: HashMap::new(),
            loops: Vec::new(),
            rows: LoopRows::default(),
            nodes: 0,
            depth: 0,
            refused: false,
            no_rows: false,
        }
    }

    /// Resolves `name`, to go in `slot` of the current loop's rows.
    fn resolve(&mut self, name: &str, slot: Slot) -> Symbol {
        let recent = &mut self.recent[fnv1a(name.as_bytes()) as usize % RECENT_NAMES];
        if recent.1 == name && recent.0 != Symbol::UNRESOLVED {
            return recent.0;
        }
        if let Some(sym) = self.table.lookup(name) {
            *recent = (sym, self.table.name(sym));
            return sym;
        }
        if self.refused {
            return Symbol::UNRESOLVED;
        }
        let next = self.fresh.len() as u32;
        let id = *self.fresh.entry(name.to_owned()).or_insert(next);
        if self.fresh.len() > self.headroom {
            self.no_rows = true;
        }
        if !self.no_rows {
            self.rows.fixups.push((slot, id));
        }
        Symbol::UNRESOLVED
    }

    /// `Vec<WireNode>`.
    fn read_loops<D: Deserializer>(&mut self, d: &mut D) -> Result<(), D::Error> {
        d.begin_seq()?;
        while d.next_element()? {
            (self.nodes, self.depth) = (0, 0);
            self.read_node(d, 1)?;
            self.count.add_loop(self.nodes, self.depth);
            let rows = std::mem::take(&mut self.rows);
            if !self.no_rows {
                self.loops.push(rows);
            }
        }
        Ok(())
    }

    /// One [`WireNode`] at `depth`, its row opened before its fields are
    /// read (they come in any order).
    fn read_node<D: Deserializer>(&mut self, d: &mut D, depth: usize) -> Result<(), D::Error> {
        self.nodes += 1;
        self.depth = self.depth.max(depth);
        if !self.refused && self.count.refused(self.nodes, self.depth) {
            (self.refused, self.no_rows) = (true, true);
        }
        let row = (!self.no_rows).then(|| {
            let rows = &mut self.rows;
            let i = rows.kinds.len() as u32;
            rows.kinds.push(Symbol::UNRESOLVED);
            rows.subtree_end.push(i + 1);
            let end = rows.attrs.len() as u32;
            rows.spans.push((end, end));
            i
        });
        let (mut kind, mut attrs, mut children) = (None, None, None);
        d.begin_map()?;
        while let Some(field) = next_field(d, node_field)? {
            match field {
                0 => field_with(d, &mut kind, "kind", |d| {
                    let sym = self.resolve(d.parse_str()?, Slot::Kind(row.unwrap_or(0)));
                    if let (Some(i), false) = (row, self.no_rows) {
                        self.rows.kinds[i as usize] = sym;
                    }
                    Ok(())
                })?,
                1 => field_with(d, &mut attrs, "attrs", |d| self.read_attrs(d, row))?,
                _ => field_with(d, &mut children, "children", |d| {
                    d.begin_seq()?;
                    while d.next_element()? {
                        self.read_node(d, depth + 1)?;
                    }
                    Ok(())
                })?,
            }
        }
        required::<_, D::Error>(kind, "kind")?;
        required::<_, D::Error>(attrs, "attrs")?;
        required::<_, D::Error>(children, "children")?;
        if let (Some(i), false) = (row, self.no_rows) {
            self.rows.subtree_end[i as usize] = self.rows.kinds.len() as u32;
        }
        Ok(())
    }

    /// `Vec<(String, WireAttr)>` of node `row`.
    fn read_attrs<D: Deserializer>(&mut self, d: &mut D, row: Option<u32>) -> Result<(), D::Error> {
        let start = self.rows.attrs.len() as u32;
        d.begin_seq()?;
        while d.next_element()? {
            d.begin_seq()?;
            let at = Slot::AttrName(self.rows.attrs.len() as u32);
            let name = element_with(d, 0, 2, |d| Ok(self.resolve(d.parse_str()?, at)))?;
            let value = element_with(d, 1, 2, |d| self.read_attr_value(d))?;
            end_tuple(d, 2)?;
            if row.is_some() && !self.no_rows {
                self.rows.attrs.push((name, value));
            }
        }
        if let (Some(i), false) = (row, self.no_rows) {
            self.rows.spans[i as usize] = (start, self.rows.attrs.len() as u32);
        }
        Ok(())
    }

    /// A [`WireAttr`], read as the [`AttrValue`] it becomes.
    fn read_attr_value<D: Deserializer>(&mut self, d: &mut D) -> Result<AttrValue, D::Error> {
        let (variant, payload) = begin_variant(d, "WireAttr", |k| match k {
            "Num" => Some(0),
            "Bool" => Some(1),
            "Enum" => Some(2),
            _ => None,
        })?;
        let value = match variant {
            0 => {
                require_payload::<D::Error>(payload, "Num")?;
                AttrValue::Num(f64::deserialize(d)?)
            }
            1 => {
                require_payload::<D::Error>(payload, "Bool")?;
                AttrValue::Bool(bool::deserialize(d)?)
            }
            _ => {
                require_payload::<D::Error>(payload, "Enum")?;
                let at = Slot::AttrEnum(self.rows.attrs.len() as u32);
                AttrValue::Enum(self.resolve(d.parse_str()?, at))
            }
        };
        end_variant(d, payload)?;
        Ok(value)
    }

    /// The admission verdict on the whole batch; an admitted batch has its
    /// fresh strings interned (only now) and each loop's rows finished and
    /// keyed.
    fn finish(self) -> Result<Vec<AdmittedLoop>, AdmissionError> {
        let RowReader {
            table,
            headroom,
            count,
            fresh,
            loops,
            ..
        } = self;
        count.verdict(fresh.len(), headroom)?;
        drop(table);
        let mut interned = vec![Symbol::UNRESOLVED; fresh.len()];
        let mut fresh: Vec<(String, u32)> = fresh.into_iter().collect();
        fresh.sort_unstable_by_key(|&(_, id)| id);
        for (name, id) in fresh {
            interned[id as usize] = Symbol::intern(&name);
        }
        let rows: Vec<ArenaRows> = loops
            .into_iter()
            .map(|mut l| {
                for &(slot, id) in &l.fixups {
                    let sym = interned[id as usize];
                    match slot {
                        Slot::Kind(i) => l.kinds[i as usize] = sym,
                        Slot::AttrName(j) => l.attrs[j as usize].0 = sym,
                        Slot::AttrEnum(j) => l.attrs[j as usize].1 = AttrValue::Enum(sym),
                    }
                }
                ArenaRows::from_spans(l.kinds, l.subtree_end, &l.spans, l.attrs)
            })
            .collect();
        let table = ir::symbol_table();
        Ok(rows
            .into_iter()
            .map(|rows| AdmittedLoop {
                key: rows_key(&rows, &table),
                rows,
            })
            .collect())
    }
}

/// A struct variant's one field `name`, read as the derived decoder reads
/// it.
fn one_field<D: Deserializer, T: Deserialize>(d: &mut D, name: &str) -> Result<T, D::Error> {
    d.begin_map()?;
    let mut slot = None;
    while next_field(d, |k| (k == name).then_some(0))?.is_some() {
        field(d, &mut slot, name)?;
    }
    required(slot, name)
}

/// A request read off `d`, before the admission verdict on a `Predict`.
enum Read {
    Predict { id: u64, reader: Box<RowReader> },
    Other(Inbound),
}

/// Reads a [`ServeRequest`] as its derived decoder does (same shapes, same
/// errors), but a `Predict`'s loops into a [`RowReader`].
fn read_request<D: Deserializer>(d: &mut D, symbol_cap: usize) -> Result<Read, D::Error> {
    let (variant, payload) = begin_variant(d, "ServeRequest", |k| match k {
        "Hello" => Some(0),
        "Predict" => Some(1),
        "Stats" => Some(2),
        "Reload" => Some(3),
        "Shutdown" => Some(4),
        _ => None,
    })?;
    let read = match variant {
        0 => {
            require_payload::<D::Error>(payload, "Hello")?;
            Read::Other(Inbound::Hello {
                protocol: one_field(d, "protocol")?,
            })
        }
        1 => {
            require_payload::<D::Error>(payload, "Predict")?;
            let mut reader = Box::new(RowReader::new(symbol_cap));
            let (mut id, mut loops) = (None, None);
            d.begin_map()?;
            while let Some(f) = next_field(d, |k| match k {
                "id" => Some(0),
                "loops" => Some(1),
                _ => None,
            })? {
                match f {
                    0 => field(d, &mut id, "id")?,
                    _ => field_with(d, &mut loops, "loops", |d| reader.read_loops(d))?,
                }
            }
            let id = required::<_, D::Error>(id, "id")?;
            required::<_, D::Error>(loops, "loops")?;
            Read::Predict { id, reader }
        }
        2 => {
            require_payload::<D::Error>(payload, "Stats")?;
            Read::Other(Inbound::Stats {
                id: one_field(d, "id")?,
            })
        }
        3 => {
            require_payload::<D::Error>(payload, "Reload")?;
            Read::Other(Inbound::Reload {
                id: one_field(d, "id")?,
            })
        }
        _ => {
            if payload {
                d.skip_value()?;
            }
            Read::Other(Inbound::Shutdown)
        }
    };
    end_variant(d, payload)?;
    Ok(read)
}

/// Decodes a frame payload the way the daemon serves it, in one pass: a
/// `Predict`'s JSON goes straight into preorder arena rows while the
/// admission caps are counted and names resolved under one read lock of
/// the symbol table. Only when the whole payload has been read and the
/// batch admitted are its fresh strings interned; a refused batch interns
/// nothing. Accepts exactly what [`decode_request`] accepts, with the same
/// error text, and refuses exactly what [`validate_batch`] refuses.
///
/// # Errors
///
/// [`decode_request`]'s detail string for a payload it cannot decode.
pub fn decode_inbound(payload: &[u8], symbol_cap: usize) -> Result<Inbound, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("non-UTF-8 payload: {e}"))?;
    let mut d = serde_json::Deserializer::from_str(text);
    let read = read_request(&mut d, symbol_cap)
        .and_then(|read| d.end().map(|()| read))
        .map_err(|e| format!("undecodable request: {e}"))?;
    Ok(match read {
        Read::Predict { id, reader } => Inbound::Predict {
            id,
            loops: reader.finish(),
        },
        Read::Other(inbound) => inbound,
    })
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
