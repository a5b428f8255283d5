//! The training set as compact rows.
//!
//! Process-level island workers receive the training set in this form in
//! their `Hello` (see [`crate::gp::worker_proc`]), and the checkpoint
//! identity digests it ([`TrainingRows::digest`]). One string table holds
//! every kind, attribute name and enum value the loops use, sorted and
//! distinct, so the rows name symbols by content and never by the
//! process-local interning index. Each loop then carries three flat arrays:
//!
//! - `nodes`: the preorder node rows. A node is its kind's table index,
//!   its child count and its attribute count, then one (name index, value
//!   code) pair per attribute, in name order. The value code is
//!   [`VALUE_NUM`] (the next entry of `nums`), [`VALUE_FALSE`],
//!   [`VALUE_TRUE`], or [`VALUE_ENUM`] plus the enum value's table index.
//! - `nums`: the numeric attribute values, in row order.
//! - `cycles`: the loop's cycle table.
//!
//! A worker reads the rows straight into arenas ([`TrainingRows::to_arenas`]),
//! the form its evaluation pool runs on, and builds no tree on the way.
//!
//! The rows do not nest, so the JSON decoder's depth limit no longer bounds
//! the trees they describe: both directions enforce
//! [`MAX_IR_DEPTH`](crate::serve::wire::MAX_IR_DEPTH) explicitly, and the
//! reader reads every index and count through checked accessors, so
//! hostile rows are a typed [`RowsError`], never a panic or a runaway
//! loop.

use crate::faults::Fnv1a;
use crate::ir::{ArenaRows, AttrValue, IrArena, IrNode, Symbol};
use crate::search::TrainingExample;
use crate::serve::wire::MAX_IR_DEPTH;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Value code of a numeric attribute: its value is the loop's next `nums`
/// entry.
pub const VALUE_NUM: u32 = 0;
/// Value code of a `false` attribute.
pub const VALUE_FALSE: u32 = 1;
/// Value code of a `true` attribute.
pub const VALUE_TRUE: u32 = 2;
/// Value code of the first enum symbol; `VALUE_ENUM + k` is the enum value
/// at string-table index `k`.
pub const VALUE_ENUM: u32 = 3;

/// A training set as rows: one string table and one [`LoopRows`] per
/// example, in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingRows {
    /// Every kind, attribute name and enum value the loops use, sorted and
    /// distinct.
    pub symbols: Vec<String>,
    /// One entry per training example.
    pub loops: Vec<LoopRows>,
}

/// One training example as rows (see the module documentation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopRows {
    /// Preorder node rows.
    pub nodes: Vec<u32>,
    /// Numeric attribute values, in row order.
    pub nums: Vec<f64>,
    /// Measured cycles per heuristic value.
    pub cycles: Vec<f64>,
}

/// Why rows cannot be built from training examples, or read into arenas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowsError {
    /// The string table is not sorted and distinct at entry `at`.
    UnsortedSymbols {
        /// First entry not greater than its predecessor.
        at: usize,
    },
    /// A loop nests deeper than [`MAX_IR_DEPTH`].
    TooDeep {
        /// Index of the training example.
        example: usize,
    },
    /// A kind, attribute-name or enum index past the string table.
    SymbolOutOfRange {
        /// Index of the training example.
        example: usize,
        /// The offending table index.
        index: u32,
    },
    /// A node's attribute names are not strictly ascending.
    UnsortedAttrs {
        /// Index of the training example.
        example: usize,
    },
    /// The node rows or the numbers ran out before the tree closed (a child
    /// or attribute count overruns them).
    Truncated {
        /// Index of the training example.
        example: usize,
        /// `node rows` or `numbers`.
        what: &'static str,
    },
    /// Node rows or numbers are left over after the tree closed.
    Leftover {
        /// Index of the training example.
        example: usize,
        /// Unread node rows.
        rows: usize,
        /// Unread numbers.
        nums: usize,
    },
}

impl fmt::Display for RowsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowsError::UnsortedSymbols { at } => {
                write!(f, "string table is not sorted and distinct at entry {at}")
            }
            RowsError::TooDeep { example } => write!(
                f,
                "training example {example} nests deeper than {MAX_IR_DEPTH} levels"
            ),
            RowsError::SymbolOutOfRange { example, index } => write!(
                f,
                "training example {example} names symbol {index}, past the string table"
            ),
            RowsError::UnsortedAttrs { example } => write!(
                f,
                "training example {example} lists a node's attributes out of name order"
            ),
            RowsError::Truncated { example, what } => write!(
                f,
                "training example {example} runs out of {what} before its tree closes"
            ),
            RowsError::Leftover {
                example,
                rows,
                nums,
            } => write!(
                f,
                "training example {example} leaves {rows} node row(s) and {nums} number(s) unread"
            ),
        }
    }
}

impl std::error::Error for RowsError {}

impl TrainingRows {
    /// The rows of `examples`, built by reference. A loop deeper than
    /// [`MAX_IR_DEPTH`] is refused: a worker would refuse it too.
    pub fn from_examples(examples: &[TrainingExample]) -> Result<TrainingRows, RowsError> {
        Self::build(examples, MAX_IR_DEPTH)
    }

    /// The rows of `examples` at any depth, for digesting an in-process
    /// search's training set.
    pub(crate) fn from_examples_uncapped(examples: &[TrainingExample]) -> TrainingRows {
        Self::build(examples, usize::MAX).expect("no depth cap to exceed")
    }

    fn build(examples: &[TrainingExample], max_depth: usize) -> Result<TrainingRows, RowsError> {
        // Every symbol the loops use, in first-use order; `code` maps a
        // symbol's interning index to its string-table index.
        let mut used: Vec<Symbol> = Vec::new();
        let mut code: Vec<u32> = Vec::new();
        let mut mark = |s: Symbol| {
            if code.len() <= s.index() {
                code.resize(s.index() + 1, u32::MAX);
            }
            if code[s.index()] == u32::MAX {
                code[s.index()] = 0;
                used.push(s);
            }
        };
        let mut stack: Vec<(&IrNode, usize)> = Vec::new();
        for (example, e) in examples.iter().enumerate() {
            stack.push((&e.ir, 1));
            while let Some((node, depth)) = stack.pop() {
                if depth > max_depth {
                    return Err(RowsError::TooDeep { example });
                }
                mark(node.kind());
                for &(name, value) in node.attrs() {
                    mark(name);
                    if let AttrValue::Enum(v) = value {
                        mark(v);
                    }
                }
                stack.extend(node.children().iter().map(|c| (c, depth + 1)));
            }
        }
        let mut named: Vec<(&'static str, Symbol)> =
            used.iter().map(|&s| (s.as_str(), s)).collect();
        named.sort_unstable_by_key(|&(name, _)| name);
        for (k, &(_, s)) in named.iter().enumerate() {
            code[s.index()] = k as u32;
        }
        let symbols = named.iter().map(|&(name, _)| name.to_owned()).collect();

        let mut pairs: Vec<(u32, AttrValue)> = Vec::new();
        let mut walk: Vec<&IrNode> = Vec::new();
        let loops = examples
            .iter()
            .map(|e| {
                let mut rows = LoopRows {
                    nodes: Vec::new(),
                    nums: Vec::new(),
                    cycles: e.cycles.clone(),
                };
                walk.push(&e.ir);
                while let Some(node) = walk.pop() {
                    pairs.clear();
                    pairs.extend(node.attrs().iter().map(|&(n, v)| (code[n.index()], v)));
                    pairs.sort_unstable_by_key(|&(name, _)| name);
                    rows.nodes.extend([
                        code[node.kind().index()],
                        node.children().len() as u32,
                        pairs.len() as u32,
                    ]);
                    for &(name, value) in &pairs {
                        let value = match value {
                            AttrValue::Num(v) => {
                                rows.nums.push(v);
                                VALUE_NUM
                            }
                            AttrValue::Bool(false) => VALUE_FALSE,
                            AttrValue::Bool(true) => VALUE_TRUE,
                            AttrValue::Enum(s) => VALUE_ENUM + code[s.index()],
                        };
                        rows.nodes.extend([name, value]);
                    }
                    walk.extend(node.children().iter().rev());
                }
                rows
            })
            .collect();
        Ok(TrainingRows { symbols, loops })
    }

    /// Reads each loop's rows straight into an arena, validating every
    /// row on the way. The rows list a node's attributes in name (text)
    /// order, an arena in [`Symbol`] (interning) order;
    /// [`ArenaRows::from_spans`] sorts them whenever the two differ.
    pub fn to_arenas(&self) -> Result<Vec<Arc<IrArena>>, RowsError> {
        if let Some(at) = self.symbols.windows(2).position(|w| w[0] >= w[1]) {
            return Err(RowsError::UnsortedSymbols { at: at + 1 });
        }
        let symbols: Vec<Symbol> = self.symbols.iter().map(|s| Symbol::intern(s)).collect();
        self.loops
            .iter()
            .enumerate()
            .map(|(example, rows)| {
                let mut reader = Reader {
                    symbols: &symbols,
                    example,
                    nodes: &rows.nodes,
                    nums: &rows.nums,
                };
                let arena = reader.arena()?;
                if !reader.nodes.is_empty() || !reader.nums.is_empty() {
                    return Err(RowsError::Leftover {
                        example,
                        rows: reader.nodes.len(),
                        nums: reader.nums.len(),
                    });
                }
                Ok(Arc::new(arena))
            })
            .collect()
    }

    /// Content digest of the rows: [`crate::faults::stable_hash`] of their
    /// canonical bytes (each string and array length-prefixed, integers
    /// and `f64` bit patterns little-endian). Names enter as text, so the
    /// digest of a training set is the same in every process.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        let len = |h: &mut Fnv1a, n: usize| h.update(&(n as u64).to_le_bytes());
        len(&mut h, self.symbols.len());
        for s in &self.symbols {
            len(&mut h, s.len());
            h.update(s.as_bytes());
        }
        len(&mut h, self.loops.len());
        for l in &self.loops {
            len(&mut h, l.nodes.len());
            for v in &l.nodes {
                h.update(&v.to_le_bytes());
            }
            for floats in [&l.nums, &l.cycles] {
                len(&mut h, floats.len());
                for v in floats {
                    h.update(&v.to_bits().to_le_bytes());
                }
            }
        }
        h.0
    }
}

/// Reads one loop's rows into an arena, consuming `nodes` and `nums` from
/// the front.
struct Reader<'a> {
    symbols: &'a [Symbol],
    example: usize,
    nodes: &'a [u32],
    nums: &'a [f64],
}

impl Reader<'_> {
    fn row(&mut self) -> Result<u32, RowsError> {
        let (&v, rest) = self.nodes.split_first().ok_or(RowsError::Truncated {
            example: self.example,
            what: "node rows",
        })?;
        self.nodes = rest;
        Ok(v)
    }

    fn num(&mut self) -> Result<f64, RowsError> {
        let (&v, rest) = self.nums.split_first().ok_or(RowsError::Truncated {
            example: self.example,
            what: "numbers",
        })?;
        self.nums = rest;
        Ok(v)
    }

    fn symbol(&self, index: u32) -> Result<Symbol, RowsError> {
        self.symbols
            .get(index as usize)
            .copied()
            .ok_or(RowsError::SymbolOutOfRange {
                example: self.example,
                index,
            })
    }

    /// The tree at the front of the rows, as an arena. Every node consumes
    /// at least three rows and every attribute two, so hostile counts run
    /// out of rows instead of looping.
    fn arena(&mut self) -> Result<IrArena, RowsError> {
        let mut kinds = Vec::new();
        let mut subtree_end = Vec::new();
        let mut spans = Vec::new();
        let mut attrs = Vec::new();
        // Nodes whose subtree is still open, each with the children it has
        // left to read, innermost last.
        let mut open: Vec<(usize, u32)> = Vec::new();
        loop {
            if open.len() >= MAX_IR_DEPTH {
                return Err(RowsError::TooDeep {
                    example: self.example,
                });
            }
            let kind = self.row()?;
            kinds.push(self.symbol(kind)?);
            let children = self.row()?;
            let count = self.row()?;
            let lo = attrs.len() as u32;
            let mut last: Option<u32> = None;
            for _ in 0..count {
                let name = self.row()?;
                if last.is_some_and(|prev| prev >= name) {
                    return Err(RowsError::UnsortedAttrs {
                        example: self.example,
                    });
                }
                last = Some(name);
                let value = match self.row()? {
                    VALUE_NUM => AttrValue::Num(self.num()?),
                    VALUE_FALSE => AttrValue::Bool(false),
                    VALUE_TRUE => AttrValue::Bool(true),
                    code => AttrValue::Enum(self.symbol(code - VALUE_ENUM)?),
                };
                attrs.push((self.symbol(name)?, value));
            }
            spans.push((lo, attrs.len() as u32));
            subtree_end.push(0); // patched when the subtree closes
            open.push((kinds.len() - 1, children));
            while let Some(&(node, 0)) = open.last() {
                subtree_end[node] = kinds.len() as u32;
                open.pop();
            }
            // The next node is a child of the innermost open one.
            match open.last_mut() {
                Some((_, left)) => *left -= 1,
                None => break,
            }
        }
        let rows = ArenaRows::from_spans(kinds, subtree_end, &spans, attrs);
        Ok(IrArena::from_rows(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loop whose attribute names are interned in the opposite order to
    /// their names' order.
    fn example(i: usize) -> TrainingExample {
        Symbol::intern("rows-test-zeta");
        Symbol::intern("rows-test-alpha");
        let ir = IrNode::build("rows-test-loop", |l| {
            l.attr_num("rows-test-zeta", -0.0);
            l.attr_num("rows-test-alpha", i as f64 + 0.5);
            l.attr_bool("rows-test-flag", i.is_multiple_of(2));
            l.child("rows-test-insn", |x| {
                x.attr_enum("rows-test-mode", if i == 0 { "SI" } else { "XI" });
                x.attr_bool("rows-test-flag", true);
            });
            l.child("rows-test-insn", |_| {});
        });
        TrainingExample {
            ir,
            cycles: vec![100.0, f64::NAN, 90.0 + i as f64],
        }
    }

    fn rows() -> TrainingRows {
        TrainingRows::from_examples(&[example(0), example(1)]).unwrap()
    }

    /// `depth` nodes, each the only child of the one before.
    fn chain(depth: usize) -> IrNode {
        let mut node = IrNode::new("rows-test-insn");
        for _ in 1..depth {
            let mut parent = IrNode::new("rows-test-insn");
            parent.push_child(node);
            node = parent;
        }
        node
    }

    /// Asserts that `got` holds `want`'s nodes, node by node.
    fn assert_same_arena(got: &IrArena, want: &IrArena) {
        assert_eq!(got.len(), want.len());
        for i in 0..want.len() as u32 {
            assert_eq!(got.kind(i), want.kind(i), "node {i}");
            assert_eq!(got.subtree_end(i), want.subtree_end(i), "node {i}");
            assert_eq!(got.child_count(i), want.child_count(i), "node {i}");
            let bits = |a: &IrArena| {
                a.attrs(i)
                    .iter()
                    .map(|&(name, value)| match value {
                        AttrValue::Num(v) => (name, Some(v.to_bits()), None),
                        other => (name, None, Some(other)),
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(got), bits(want), "node {i}");
        }
    }

    #[test]
    fn rows_read_into_the_arenas_of_their_trees() {
        // `zeta` is interned before `alpha`, so the rows' name order and
        // the arena's `Symbol` order disagree.
        let examples = [example(0), example(1)];
        let arenas = TrainingRows::from_examples(&examples)
            .unwrap()
            .to_arenas()
            .unwrap();
        assert_eq!(arenas.len(), examples.len());
        for (arena, e) in arenas.iter().zip(&examples) {
            assert_same_arena(arena, &IrArena::from_tree(&e.ir));
        }
    }

    #[test]
    fn the_table_is_sorted_and_attributes_follow_name_order() {
        let rows = rows();
        let mut sorted = rows.symbols.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(rows.symbols, sorted);
        let index = |name: &str| rows.symbols.iter().position(|s| s == name).unwrap() as u32;
        // The root: kind, two children, three attributes in name order
        // (`alpha` was interned after `zeta`), numbers in that order.
        let l = &rows.loops[0];
        assert_eq!(
            l.nodes[..12],
            [
                index("rows-test-loop"),
                2,
                3,
                index("rows-test-alpha"),
                VALUE_NUM,
                index("rows-test-flag"),
                VALUE_TRUE,
                index("rows-test-zeta"),
                VALUE_NUM,
                index("rows-test-insn"),
                0,
                2
            ]
        );
        assert_eq!(l.nums[0], 0.5);
        assert_eq!(l.nums[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            l.nodes[12..16],
            [
                index("rows-test-flag"),
                VALUE_TRUE,
                index("rows-test-mode"),
                VALUE_ENUM + index("SI")
            ]
        );
    }

    #[test]
    fn an_unsorted_string_table_is_refused() {
        let mut rows = rows();
        rows.symbols.swap(0, 1);
        assert_eq!(
            rows.to_arenas().unwrap_err(),
            RowsError::UnsortedSymbols { at: 1 }
        );
        let mut rows = self::rows();
        rows.symbols[1] = rows.symbols[0].clone();
        assert_eq!(
            rows.to_arenas().unwrap_err(),
            RowsError::UnsortedSymbols { at: 1 }
        );
    }

    #[test]
    fn symbol_indices_past_the_table_are_refused() {
        let n = rows().symbols.len() as u32;
        // The kind, an attribute name and an enum value of loop 1.
        for (at, value) in [(0, n), (3, n + 7), (15, VALUE_ENUM + n)] {
            let mut rows = rows();
            rows.loops[1].nodes[at] = value;
            let err = rows.to_arenas().unwrap_err();
            assert!(
                matches!(err, RowsError::SymbolOutOfRange { example: 1, .. }),
                "row {at}: {err}"
            );
        }
    }

    #[test]
    fn attributes_out_of_name_order_are_refused() {
        let mut rows = rows();
        // Swap the root's first two (name, value) pairs.
        let nodes = &mut rows.loops[0].nodes;
        nodes.swap(3, 5);
        nodes.swap(4, 6);
        assert_eq!(
            rows.to_arenas().unwrap_err(),
            RowsError::UnsortedAttrs { example: 0 }
        );
    }

    #[test]
    fn counts_that_overrun_the_rows_are_refused() {
        // The root's child count, then the last leaf's attribute count.
        let last = rows().loops[0].nodes.len() - 1;
        for (at, value) in [(1, 3), (1, u32::MAX), (last, 1), (last, u32::MAX)] {
            let mut rows = rows();
            rows.loops[0].nodes[at] = value;
            assert_eq!(
                rows.to_arenas().unwrap_err(),
                RowsError::Truncated {
                    example: 0,
                    what: "node rows"
                },
                "row {at} = {value}"
            );
        }
        let mut rows = rows();
        rows.loops[0].nums.pop();
        assert_eq!(
            rows.to_arenas().unwrap_err(),
            RowsError::Truncated {
                example: 0,
                what: "numbers"
            }
        );
        let mut rows = self::rows();
        rows.loops[0].nodes.clear();
        assert!(matches!(
            rows.to_arenas().unwrap_err(),
            RowsError::Truncated { example: 0, .. }
        ));
    }

    #[test]
    fn leftover_rows_or_numbers_are_refused() {
        let mut rows = rows();
        rows.loops[1].nodes.extend([0, 0, 0]);
        assert_eq!(
            rows.to_arenas().unwrap_err(),
            RowsError::Leftover {
                example: 1,
                rows: 3,
                nums: 0
            }
        );
        let mut rows = self::rows();
        rows.loops[1].nums.push(2.0);
        assert_eq!(
            rows.to_arenas().unwrap_err(),
            RowsError::Leftover {
                example: 1,
                rows: 0,
                nums: 1
            }
        );
    }

    #[test]
    fn depth_is_capped_in_both_directions() {
        let deep = |depth| TrainingExample {
            ir: chain(depth),
            cycles: vec![1.0],
        };
        let at_cap = TrainingRows::from_examples(&[deep(MAX_IR_DEPTH)]).unwrap();
        assert_eq!(at_cap.to_arenas().unwrap()[0].len(), MAX_IR_DEPTH);
        let over = [example(0), deep(MAX_IR_DEPTH + 1)];
        assert_eq!(
            TrainingRows::from_examples(&over).unwrap_err(),
            RowsError::TooDeep { example: 1 }
        );
        // Rows built without the cap (the in-process digest) are refused
        // by the reader.
        let rows = TrainingRows::from_examples_uncapped(&over);
        assert_eq!(
            rows.to_arenas().unwrap_err(),
            RowsError::TooDeep { example: 1 }
        );
    }

    #[test]
    fn the_digest_sees_every_field() {
        let base = rows().digest();
        let spoils: [fn(&mut TrainingRows); 5] = [
            |r| r.symbols[0].push('x'),
            |r| r.loops[1].nodes[1] ^= 1,
            |r| r.loops[0].nums[1] = 0.0,
            |r| r.loops[0].cycles[1] = f64::INFINITY,
            |r| r.loops.swap(0, 1),
        ];
        for (k, spoil) in spoils.into_iter().enumerate() {
            let mut rows = rows();
            spoil(&mut rows);
            assert_ne!(rows.digest(), base, "spoil {k}");
        }
    }
}
