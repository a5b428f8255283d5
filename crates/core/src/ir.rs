//! The exported-IR data model.
//!
//! The paper's system "extracts the RTL representation of the loops,
//! augmenting it to include the structure of the basic blocks … \[and\] any
//! information GCC can compute at that time" (§VI). The export format here is
//! deliberately compiler-agnostic: a tree of nodes, each with an interned
//! *kind* (`insn`, `basic-block`, `reg`, `plus`, …), a set of named
//! *attributes* (`@num-iter`, `@loop-depth`, `@mode`, …) and ordered
//! children. Feature expressions (see [`crate::lang`]) navigate these trees.
//!
//! Kinds, attribute names and enum attribute values are interned in a global
//! [`Symbol`] table so that feature evaluation — the hot path of the GP
//! search — compares `u32`s, never strings.

use parking_lot::{RwLock, RwLockReadGuard};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned string. Two symbols are equal iff their strings are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    // Interned names are leaked once and live for the process lifetime, so
    // resolution hands out `&'static str` without allocating or holding the
    // lock. The table only ever grows (grammar vocabularies are tiny), so the
    // leak is bounded by the number of distinct symbols.
    names: Vec<&'static str>,
    map: HashMap<&'static str, Symbol>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::new(),
            map: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its unique symbol.
    ///
    /// ```
    /// use fegen_core::Symbol;
    /// assert_eq!(Symbol::intern("insn"), Symbol::intern("insn"));
    /// assert_ne!(Symbol::intern("insn"), Symbol::intern("reg"));
    /// ```
    pub fn intern(name: &str) -> Symbol {
        {
            let guard = interner().read();
            if let Some(sym) = guard.map.get(name) {
                return *sym;
            }
        }
        let mut guard = interner().write();
        if let Some(sym) = guard.map.get(name) {
            return *sym;
        }
        let sym = Symbol(guard.names.len() as u32);
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        guard.names.push(leaked);
        guard.map.insert(leaked, sym);
        sym
    }

    /// Returns the string this symbol was interned from.
    ///
    /// Resolution is allocation-free: the interner leaks each distinct name
    /// once, so the returned `&'static str` is just a table lookup under a
    /// briefly-held read lock.
    pub fn as_str(&self) -> &'static str {
        interner().read().names[self.0 as usize]
    }

    /// Index of this symbol in the intern table. Useful as a dense array key;
    /// note the index depends on interning order and is not stable across
    /// processes (hash the string for stable keys).
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// Looks `name` up *without* interning it. Interned names live for the
    /// process lifetime, so code that handles untrusted input (the serve
    /// daemon's IR ingestion) uses this to count how many genuinely new
    /// strings a request would pin before deciding to admit it.
    pub fn lookup(name: &str) -> Option<Symbol> {
        symbol_table().lookup(name)
    }

    /// Stands in for a name that is not interned yet; whoever writes it
    /// replaces it before the row reaches an arena.
    pub(crate) const UNRESOLVED: Symbol = Symbol(u32::MAX);
}

/// Number of distinct symbols interned so far. The interner leaks each
/// distinct string once by design; long-lived processes facing untrusted
/// input watch this to keep the leak bounded (see `serve`).
pub fn symbol_count() -> usize {
    symbol_table().len()
}

/// The symbol table under one read lock, for resolving many names in a row
/// without re-locking per name (the serve decoder resolves a whole request
/// under one). Interning waits until every table is dropped, so a holder
/// must not intern, nor call [`Symbol::as_str`], [`Symbol::lookup`] or
/// [`symbol_count`], while it holds one.
pub(crate) struct SymbolTable(RwLockReadGuard<'static, Interner>);

/// Takes the symbol table's read lock; see [`SymbolTable`].
pub(crate) fn symbol_table() -> SymbolTable {
    SymbolTable(interner().read())
}

impl SymbolTable {
    /// [`Symbol::lookup`] under this lock.
    pub(crate) fn lookup(&self, name: &str) -> Option<Symbol> {
        self.0.map.get(name).copied()
    }

    /// [`Symbol::as_str`] under this lock.
    pub(crate) fn name(&self, sym: Symbol) -> &'static str {
        self.0.names[sym.0 as usize]
    }

    /// [`symbol_count`] under this lock.
    pub(crate) fn len(&self) -> usize {
        self.0.names.len()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl Serialize for Symbol {
    fn serialize<S: serde::Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.serialize_str(self.as_str())
    }
}

impl Deserialize for Symbol {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Symbol, D::Error> {
        d.parse_str().map(Symbol::intern)
    }
}

/// The value of a node attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// Numeric attribute, e.g. `@num-iter`, `@freq`.
    Num(f64),
    /// Boolean flag, e.g. `@may-be-hot`, `@unchanging`.
    Bool(bool),
    /// Enumerated attribute, e.g. `@mode == SI`.
    Enum(Symbol),
}

impl AttrValue {
    /// Numeric view of the attribute (booleans are 0/1; enums have no
    /// numeric view and return `None`).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            AttrValue::Num(v) => Some(*v),
            AttrValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            AttrValue::Enum(_) => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Num(v) => write!(f, "{v}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Enum(s) => write!(f, "{s}"),
        }
    }
}

/// A node of exported compiler IR.
///
/// Attribute lists are kept sorted by attribute-name symbol so lookup is a
/// binary search and construction order does not affect equality.
#[derive(Debug, Clone, PartialEq)]
pub struct IrNode {
    kind: Symbol,
    attrs: Vec<(Symbol, AttrValue)>,
    children: Vec<IrNode>,
}

impl IrNode {
    /// Creates a leaf node of the given kind.
    pub fn new(kind: impl Into<Symbol>) -> IrNode {
        IrNode {
            kind: kind.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style construction used by exporters and tests.
    ///
    /// ```
    /// use fegen_core::ir::IrNode;
    /// let n = IrNode::build("insn", |i| {
    ///     i.attr_num("cost", 2.0);
    ///     i.child("reg", |r| { r.attr_enum("mode", "SI"); });
    /// });
    /// assert_eq!(n.children().len(), 1);
    /// ```
    pub fn build<R>(kind: impl Into<Symbol>, f: impl FnOnce(&mut IrNode) -> R) -> IrNode {
        let mut node = IrNode::new(kind);
        let _ = f(&mut node);
        node
    }

    /// The node kind.
    pub fn kind(&self) -> Symbol {
        self.kind
    }

    /// The node's children, in order.
    pub fn children(&self) -> &[IrNode] {
        &self.children
    }

    /// The node's attributes, sorted by name symbol.
    pub fn attrs(&self) -> &[(Symbol, AttrValue)] {
        &self.attrs
    }

    /// Looks up an attribute by name.
    pub fn attr(&self, name: Symbol) -> Option<AttrValue> {
        self.attrs
            .binary_search_by_key(&name, |(n, _)| *n)
            .ok()
            .map(|i| self.attrs[i].1)
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&mut self, name: impl Into<Symbol>, value: AttrValue) -> &mut IrNode {
        let name = name.into();
        match self.attrs.binary_search_by_key(&name, |(n, _)| *n) {
            Ok(i) => self.attrs[i].1 = value,
            Err(i) => self.attrs.insert(i, (name, value)),
        }
        self
    }

    /// Sets a numeric attribute.
    pub fn attr_num(&mut self, name: impl Into<Symbol>, value: f64) -> &mut IrNode {
        self.set_attr(name, AttrValue::Num(value))
    }

    /// Sets a boolean attribute.
    pub fn attr_bool(&mut self, name: impl Into<Symbol>, value: bool) -> &mut IrNode {
        self.set_attr(name, AttrValue::Bool(value))
    }

    /// Sets an enumerated attribute.
    pub fn attr_enum(&mut self, name: impl Into<Symbol>, value: impl Into<Symbol>) -> &mut IrNode {
        self.set_attr(name, AttrValue::Enum(value.into()))
    }

    /// Appends a child built with `f` and returns `self` for chaining.
    pub fn child<R>(
        &mut self,
        kind: impl Into<Symbol>,
        f: impl FnOnce(&mut IrNode) -> R,
    ) -> &mut IrNode {
        let mut node = IrNode::new(kind);
        let _ = f(&mut node);
        self.children.push(node);
        self
    }

    /// Appends an already-built child.
    pub fn push_child(&mut self, node: IrNode) -> &mut IrNode {
        self.children.push(node);
        self
    }

    /// Number of nodes in this subtree (including `self`).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(IrNode::size).sum::<usize>()
    }

    /// Maximum depth of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(IrNode::depth).max().unwrap_or(0)
    }

    /// Iterates over this node and all descendants, pre-order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { stack: vec![self] }
    }

    /// Renders the tree as an indented S-expression-like dump (for debugging
    /// and golden tests).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = self.dump_into(&mut out);
        out
    }

    /// Streams [`IrNode::dump`]'s text into `out` without building it, so a
    /// hashing writer can digest a tree allocation-free.
    pub fn dump_into<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self.dump_at(out, 0)
    }

    fn dump_at<W: fmt::Write>(&self, out: &mut W, indent: usize) -> fmt::Result {
        for _ in 0..indent {
            out.write_str("  ")?;
        }
        write!(out, "({}", self.kind)?;
        for (name, value) in &self.attrs {
            write!(out, " @{name}={value}")?;
        }
        if self.children.is_empty() {
            return out.write_str(")\n");
        }
        out.write_char('\n')?;
        for c in &self.children {
            c.dump_at(out, indent + 1)?;
        }
        for _ in 0..indent {
            out.write_str("  ")?;
        }
        out.write_str(")\n")
    }
}

/// Pre-order iterator over an [`IrNode`] tree. Created by [`IrNode::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    stack: Vec<&'a IrNode>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a IrNode;

    fn next(&mut self) -> Option<&'a IrNode> {
        let node = self.stack.pop()?;
        // Push children in reverse so iteration is left-to-right pre-order.
        self.stack.extend(node.children.iter().rev());
        Some(node)
    }
}

/// A preorder arena flattening of an [`IrNode`] tree.
///
/// The feature-evaluation hot path (see [`crate::lang::vm`]) never walks the
/// pointer tree: the arena stores one structure-of-arrays entry per node in
/// preorder, so
///
/// - the **descendants** of node `i` are the contiguous index range
///   `i + 1 .. subtree_end(i)` (the `//*` sequence is a slice scan),
/// - the **children** of node `i` are reached by sibling jumps:
///   `j = i + 1`, then `j = subtree_end(j)` while `j < subtree_end(i)`
///   (the `/*` and `[n]` sequences touch only child headers),
/// - per-kind and per-attribute **postings lists** (sorted node indices)
///   answer "how many `insn` nodes under `i`" with two binary searches.
///
/// Attributes stay sorted by name symbol per node, so lookup is a binary
/// search over a flat slice, exactly as on [`IrNode`].
#[derive(Debug, Clone)]
pub struct IrArena {
    kinds: Vec<Symbol>,
    /// Exclusive end (in preorder indices) of each node's subtree.
    subtree_end: Vec<u32>,
    /// `attr_off[i] .. attr_off[i + 1]` indexes `attrs` for node `i`.
    attr_off: Vec<u32>,
    attrs: Vec<(Symbol, AttrValue)>,
    child_count: Vec<u32>,
    kind_postings: HashMap<Symbol, Vec<u32>>,
    attr_postings: HashMap<Symbol, Vec<u32>>,
}

/// The preorder rows an [`IrArena`] is built from: per node its kind, the
/// exclusive end of its subtree and its attributes, sorted by name with no
/// duplicates. [`IrArena::from_tree`] flattens a tree into rows; the serve daemon
/// decodes a request's JSON straight into rows, keys them by their dump
/// and builds the arena's child counts and postings only on a cache miss.
#[derive(Debug, Clone)]
pub struct ArenaRows {
    kinds: Vec<Symbol>,
    subtree_end: Vec<u32>,
    /// `attr_off[i] .. attr_off[i + 1]` indexes `attrs` for node `i`.
    attr_off: Vec<u32>,
    attrs: Vec<(Symbol, AttrValue)>,
}

impl ArenaRows {
    /// Flattens `root` in preorder (one walk).
    fn from_tree(root: &IrNode) -> ArenaRows {
        let n = root.size();
        let mut rows = ArenaRows {
            kinds: Vec::with_capacity(n),
            subtree_end: Vec::with_capacity(n),
            attr_off: Vec::with_capacity(n + 1),
            attrs: Vec::new(),
        };
        rows.push_subtree(root);
        rows.attr_off.push(rows.attrs.len() as u32);
        rows
    }

    fn push_subtree(&mut self, node: &IrNode) {
        let idx = self.kinds.len();
        self.kinds.push(node.kind);
        self.subtree_end.push(0); // patched below
        self.attr_off.push(self.attrs.len() as u32);
        self.attrs.extend_from_slice(&node.attrs);
        for child in &node.children {
            self.push_subtree(child);
        }
        self.subtree_end[idx] = self.kinds.len() as u32;
    }

    /// Rows whose node `i` has the attributes `attrs[spans[i].0 ..
    /// spans[i].1]` in the order they were set, the spans in any order:
    /// sorts each node's attributes by name and keeps the last of a
    /// duplicated name, as [`IrNode::set_attr`] does. Rows already in that
    /// form (what [`IrNode`]'s own encoding gives) keep `attrs` as is.
    pub(crate) fn from_spans(
        kinds: Vec<Symbol>,
        subtree_end: Vec<u32>,
        spans: &[(u32, u32)],
        attrs: Vec<(Symbol, AttrValue)>,
    ) -> ArenaRows {
        let strictly_sorted = |(lo, hi): (u32, u32)| {
            attrs[lo as usize..hi as usize]
                .windows(2)
                .all(|w| w[0].0 < w[1].0)
        };
        let mut attr_off = Vec::with_capacity(spans.len() + 1);
        let mut next = 0u32;
        let in_place = spans.iter().all(|&(lo, hi)| {
            let ok = lo == next && strictly_sorted((lo, hi));
            next = hi;
            ok
        }) && next as usize == attrs.len();
        if in_place {
            attr_off.extend(spans.iter().map(|&(lo, _)| lo));
            attr_off.push(next);
            return ArenaRows {
                kinds,
                subtree_end,
                attr_off,
                attrs,
            };
        }
        let mut sorted = Vec::with_capacity(attrs.len());
        for &(lo, hi) in spans {
            attr_off.push(sorted.len() as u32);
            let start = sorted.len();
            sorted.extend_from_slice(&attrs[lo as usize..hi as usize]);
            // Stable: equal names stay in the order they were set.
            sorted[start..].sort_by_key(|(name, _)| *name);
            let mut keep = start;
            for k in start..sorted.len() {
                if k + 1 < sorted.len() && sorted[k + 1].0 == sorted[k].0 {
                    continue;
                }
                sorted[keep] = sorted[k];
                keep += 1;
            }
            sorted.truncate(keep);
        }
        attr_off.push(sorted.len() as u32);
        ArenaRows {
            kinds,
            subtree_end,
            attr_off,
            attrs: sorted,
        }
    }

    fn node_attrs(&self, i: usize) -> &[(Symbol, AttrValue)] {
        &self.attrs[self.attr_off[i] as usize..self.attr_off[i + 1] as usize]
    }

    /// Streams exactly [`IrNode::dump`]'s text of the tree these rows
    /// flatten into `out`, resolving names through `names`.
    pub(crate) fn dump_into<W: fmt::Write>(&self, names: &SymbolTable, out: &mut W) -> fmt::Result {
        let indent = |out: &mut W, depth: usize| (0..depth).try_for_each(|_| out.write_str("  "));
        // Nodes whose subtree is still open, innermost last.
        let mut open: Vec<u32> = Vec::new();
        for i in 0..self.kinds.len() {
            while open
                .last()
                .is_some_and(|&top| self.subtree_end[top as usize] as usize <= i)
            {
                open.pop();
                indent(out, open.len())?;
                out.write_str(")\n")?;
            }
            indent(out, open.len())?;
            out.write_char('(')?;
            out.write_str(names.name(self.kinds[i]))?;
            for (name, value) in self.node_attrs(i) {
                out.write_str(" @")?;
                out.write_str(names.name(*name))?;
                out.write_char('=')?;
                match value {
                    // An integral value prints as the integer it is (but
                    // `-0.0` as `-0`), which `{v}` does too, only slower.
                    AttrValue::Num(v)
                        if v.fract() == 0.0
                            && v.abs() < 1e15
                            && (*v != 0.0 || v.is_sign_positive()) =>
                    {
                        write!(out, "{}", *v as i64)?
                    }
                    AttrValue::Num(v) => write!(out, "{v}")?,
                    AttrValue::Bool(b) => out.write_str(if *b { "true" } else { "false" })?,
                    AttrValue::Enum(s) => out.write_str(names.name(*s))?,
                }
            }
            if self.subtree_end[i] as usize == i + 1 {
                out.write_str(")\n")?;
            } else {
                out.write_char('\n')?;
                open.push(i as u32);
            }
        }
        while open.pop().is_some() {
            indent(out, open.len())?;
            out.write_str(")\n")?;
        }
        Ok(())
    }
}

impl IrArena {
    /// Flattens `root` into a preorder arena. The tree is walked exactly
    /// once; the arena holds copies of the (Copy) kinds and attribute values.
    pub fn from_tree(root: &IrNode) -> IrArena {
        IrArena::from_rows(ArenaRows::from_tree(root))
    }

    /// Builds the arena over `rows`: child counts and the kind and
    /// attribute postings, in one pass over the rows.
    pub fn from_rows(rows: ArenaRows) -> IrArena {
        let ArenaRows {
            kinds,
            subtree_end,
            attr_off,
            attrs,
        } = rows;
        let n = kinds.len();
        let mut child_count = vec![0u32; n];
        let mut kind_postings: HashMap<Symbol, Vec<u32>> = HashMap::new();
        let mut attr_postings: HashMap<Symbol, Vec<u32>> = HashMap::new();
        // Ancestors of the current node, innermost last.
        let mut open: Vec<u32> = Vec::new();
        for i in 0..n as u32 {
            while open
                .last()
                .is_some_and(|&top| subtree_end[top as usize] <= i)
            {
                open.pop();
            }
            if let Some(&parent) = open.last() {
                child_count[parent as usize] += 1;
            }
            open.push(i);
            kind_postings.entry(kinds[i as usize]).or_default().push(i);
            let (lo, hi) = (
                attr_off[i as usize] as usize,
                attr_off[i as usize + 1] as usize,
            );
            for (name, _) in &attrs[lo..hi] {
                attr_postings.entry(*name).or_default().push(i);
            }
        }
        IrArena {
            kinds,
            subtree_end,
            attr_off,
            attrs,
            child_count,
            kind_postings,
            attr_postings,
        }
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when the arena holds no nodes (never for `from_tree`).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Kind of node `i`.
    #[inline]
    pub fn kind(&self, i: u32) -> Symbol {
        self.kinds[i as usize]
    }

    /// Exclusive preorder end of node `i`'s subtree; descendants of `i` are
    /// `i + 1 .. subtree_end(i)`.
    #[inline]
    pub fn subtree_end(&self, i: u32) -> u32 {
        self.subtree_end[i as usize]
    }

    /// Number of direct children of node `i`.
    #[inline]
    pub fn child_count(&self, i: u32) -> u32 {
        self.child_count[i as usize]
    }

    /// Number of (strict) descendants of node `i`.
    #[inline]
    pub fn descendant_count(&self, i: u32) -> u32 {
        self.subtree_end[i as usize] - i - 1
    }

    /// Attributes of node `i`, sorted by name symbol.
    #[inline]
    pub fn attrs(&self, i: u32) -> &[(Symbol, AttrValue)] {
        let lo = self.attr_off[i as usize] as usize;
        let hi = self.attr_off[i as usize + 1] as usize;
        &self.attrs[lo..hi]
    }

    /// Looks up an attribute of node `i` by name (binary search).
    #[inline]
    pub fn attr(&self, i: u32, name: Symbol) -> Option<AttrValue> {
        let attrs = self.attrs(i);
        attrs
            .binary_search_by_key(&name, |(n, _)| *n)
            .ok()
            .map(|k| attrs[k].1)
    }

    /// Iterates the direct children of node `i` (their arena indices), in
    /// order, via sibling jumps over subtree spans.
    #[inline]
    pub fn children(&self, i: u32) -> ChildIndices<'_> {
        ChildIndices {
            arena: self,
            next: i + 1,
            end: self.subtree_end[i as usize],
        }
    }

    /// Index of the `n`-th (0-based) child of node `i`, if it exists.
    pub fn nth_child(&self, i: u32, n: usize) -> Option<u32> {
        self.children(i).nth(n)
    }

    /// Number of nodes of `kind` with preorder index in `lo..hi` (two binary
    /// searches over the kind's postings list).
    pub fn count_kind_in(&self, kind: Symbol, lo: u32, hi: u32) -> u32 {
        Self::count_in(self.kind_postings.get(&kind), lo, hi)
    }

    /// Number of nodes carrying attribute `name` with preorder index in
    /// `lo..hi`.
    pub fn count_attr_in(&self, name: Symbol, lo: u32, hi: u32) -> u32 {
        Self::count_in(self.attr_postings.get(&name), lo, hi)
    }

    /// Preorder indices in `lo..hi` of the nodes carrying attribute `name`
    /// (a contiguous slice of the attribute's postings list).
    pub fn attr_nodes_in(&self, name: Symbol, lo: u32, hi: u32) -> &[u32] {
        let Some(p) = self.attr_postings.get(&name) else {
            return &[];
        };
        let a = p.partition_point(|&i| i < lo);
        let b = p.partition_point(|&i| i < hi);
        &p[a..b]
    }

    /// Preorder indices in `lo..hi` of the nodes of `kind` (a contiguous
    /// slice of the kind's postings list).
    pub fn kind_nodes_in(&self, kind: Symbol, lo: u32, hi: u32) -> &[u32] {
        let Some(p) = self.kind_postings.get(&kind) else {
            return &[];
        };
        let a = p.partition_point(|&i| i < lo);
        let b = p.partition_point(|&i| i < hi);
        &p[a..b]
    }

    fn count_in(postings: Option<&Vec<u32>>, lo: u32, hi: u32) -> u32 {
        let Some(p) = postings else { return 0 };
        let a = p.partition_point(|&i| i < lo);
        let b = p.partition_point(|&i| i < hi);
        (b - a) as u32
    }
}

/// Iterator over the direct children (arena indices) of a node. Created by
/// [`IrArena::children`].
#[derive(Debug, Clone)]
pub struct ChildIndices<'a> {
    arena: &'a IrArena,
    next: u32,
    end: u32,
}

impl Iterator for ChildIndices<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.next >= self.end {
            return None;
        }
        let cur = self.next;
        self.next = self.arena.subtree_end[cur as usize];
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_intern_uniquely() {
        let a = Symbol::intern("alpha-test-symbol");
        let b = Symbol::intern("alpha-test-symbol");
        let c = Symbol::intern("beta-test-symbol");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "alpha-test-symbol");
    }

    #[test]
    fn attrs_sorted_and_replaceable() {
        let mut n = IrNode::new("x");
        n.attr_num("zeta", 1.0);
        n.attr_num("alpha", 2.0);
        n.attr_num("zeta", 3.0);
        assert_eq!(n.attrs().len(), 2);
        assert_eq!(n.attr(Symbol::intern("zeta")), Some(AttrValue::Num(3.0)));
        // Sorted by symbol, whatever the interning order was.
        let mut sorted = n.attrs().to_vec();
        sorted.sort_by_key(|(s, _)| *s);
        assert_eq!(sorted, n.attrs());
    }

    #[test]
    fn attr_value_numeric_views() {
        assert_eq!(AttrValue::Num(2.5).as_num(), Some(2.5));
        assert_eq!(AttrValue::Bool(true).as_num(), Some(1.0));
        assert_eq!(AttrValue::Enum(Symbol::intern("SI")).as_num(), None);
    }

    #[test]
    fn size_and_depth() {
        let n = IrNode::build("a", |a| {
            a.child("b", |b| {
                b.child("c", |_| {});
            });
            a.child("d", |_| {});
        });
        assert_eq!(n.size(), 4);
        assert_eq!(n.depth(), 3);
    }

    #[test]
    fn preorder_iteration_is_left_to_right() {
        let n = IrNode::build("root", |r| {
            r.child("l", |l| {
                l.child("ll", |_| {});
            });
            r.child("r", |_| {});
        });
        let kinds: Vec<&str> = n.iter().map(|x| x.kind().as_str()).collect();
        assert_eq!(kinds, vec!["root", "l", "ll", "r"]);
    }

    #[test]
    fn arena_matches_tree_shape() {
        let n = IrNode::build("root", |r| {
            r.attr_num("num-iter", 5.0);
            r.child("l", |l| {
                l.attr_bool("flag", true);
                l.child("ll", |_| {});
                l.child("lr", |_| {});
            });
            r.child("r", |x| {
                x.attr_enum("mode", "SI");
            });
        });
        let arena = IrArena::from_tree(&n);
        assert_eq!(arena.len(), 5);
        // Preorder: root=0, l=1, ll=2, lr=3, r=4.
        assert_eq!(arena.kind(0), Symbol::intern("root"));
        assert_eq!(arena.subtree_end(0), 5);
        assert_eq!(arena.subtree_end(1), 4);
        assert_eq!(arena.child_count(0), 2);
        assert_eq!(arena.descendant_count(0), 4);
        assert_eq!(arena.children(0).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(arena.children(1).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(arena.nth_child(0, 1), Some(4));
        assert_eq!(arena.nth_child(0, 2), None);
        assert_eq!(
            arena.attr(0, Symbol::intern("num-iter")),
            Some(AttrValue::Num(5.0))
        );
        assert_eq!(arena.attr(1, Symbol::intern("num-iter")), None);
        assert_eq!(arena.count_kind_in(Symbol::intern("ll"), 1, 4), 1);
        assert_eq!(arena.count_kind_in(Symbol::intern("ll"), 3, 5), 0);
        assert_eq!(arena.count_attr_in(Symbol::intern("flag"), 0, 5), 1);
        assert_eq!(arena.kind_nodes_in(Symbol::intern("ll"), 1, 5), &[2]);
        assert_eq!(
            arena.kind_nodes_in(Symbol::intern("ll"), 3, 5),
            &[] as &[u32]
        );
        assert_eq!(
            arena.kind_nodes_in(Symbol::intern("absent"), 0, 5),
            &[] as &[u32]
        );
        assert_eq!(arena.attr_nodes_in(Symbol::intern("flag"), 0, 5), &[1]);
    }

    #[test]
    fn arena_agrees_with_preorder_iter() {
        let n = IrNode::build("a", |a| {
            a.child("b", |b| {
                b.child("c", |_| {});
                b.child("d", |_| {});
            });
            a.child("e", |e| {
                e.child("f", |_| {});
            });
        });
        let arena = IrArena::from_tree(&n);
        let tree_kinds: Vec<Symbol> = n.iter().map(|x| x.kind()).collect();
        let arena_kinds: Vec<Symbol> = (0..arena.len() as u32).map(|i| arena.kind(i)).collect();
        assert_eq!(tree_kinds, arena_kinds);
        for (i, node) in n.iter().enumerate() {
            let i = i as u32;
            assert_eq!(arena.subtree_end(i) - i, node.size() as u32);
            assert_eq!(arena.child_count(i) as usize, node.children().len());
        }
    }

    #[test]
    fn equality_ignores_attr_insertion_order() {
        let mut a = IrNode::new("n");
        a.attr_num("p", 1.0).attr_num("q", 2.0);
        let mut b = IrNode::new("n");
        b.attr_num("q", 2.0).attr_num("p", 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn dump_contains_kind_and_attrs() {
        let n = IrNode::build("loop", |l| {
            l.attr_num("num-iter", 5.0);
            l.child("insn", |_| {});
        });
        let d = n.dump();
        assert!(d.contains("(loop @num-iter=5"));
        assert!(d.contains("(insn)"));
    }
}
