//! Basic blocks, control-flow graph, dominators and natural loops.
//!
//! The exporter augments each loop's RTL "to include the structure of the
//! basic blocks in the loop" (§VI) with attributes such as `@loop-depth` and
//! estimated block frequencies — this module computes those analyses from
//! the instruction list alone (it does not trust the structured
//! [`crate::func::LoopRegion`]s, so it stays correct after unrolling).

use crate::func::RtlFunction;
use crate::node::{InsnBody, LabelId};
use std::collections::{BTreeSet, HashMap};

/// A basic block: a maximal straight-line instruction span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Block index in the CFG.
    pub index: usize,
    /// First instruction index (inclusive).
    pub start: usize,
    /// Last instruction index (exclusive).
    pub end: usize,
    /// Successor block indices.
    pub succs: Vec<usize>,
    /// Predecessor block indices.
    pub preds: Vec<usize>,
}

impl BasicBlock {
    /// Number of instructions in the block (labels included).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A natural loop discovered from back edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Header block index.
    pub header: usize,
    /// All blocks of the loop (header included).
    pub blocks: BTreeSet<usize>,
}

/// A control-flow graph over an [`RtlFunction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// Blocks in instruction order (block 0 is the entry).
    pub blocks: Vec<BasicBlock>,
    label_block: HashMap<LabelId, usize>,
}

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn build(func: &RtlFunction) -> Cfg {
        let insns = &func.insns;
        let n = insns.len();
        // Leaders: 0, every label, every instruction after a control insn.
        let mut leader = vec![false; n.max(1)];
        if n > 0 {
            leader[0] = true;
        }
        for (i, insn) in insns.iter().enumerate() {
            if insn.is_label() {
                leader[i] = true;
            }
            if insn.is_control() && i + 1 < n {
                leader[i + 1] = true;
            }
        }
        let mut blocks = Vec::new();
        let mut label_block = HashMap::new();
        let mut start = 0usize;
        for i in 1..=n {
            if i == n || leader[i] {
                let index = blocks.len();
                for insn in &insns[start..i] {
                    if let InsnBody::Label(l) = *insn.body {
                        label_block.insert(l, index);
                    }
                }
                blocks.push(BasicBlock {
                    index,
                    start,
                    end: i,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
                start = i;
            }
        }
        // Successors.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for b in 0..blocks.len() {
            let last = &insns[blocks[b].end - 1];
            match &*last.body {
                InsnBody::Jump { target } => {
                    if let Some(&t) = label_block.get(target) {
                        edges.push((b, t));
                    }
                }
                InsnBody::CondJump { target, .. } => {
                    if let Some(&t) = label_block.get(target) {
                        edges.push((b, t));
                    }
                    if b + 1 < blocks.len() {
                        edges.push((b, b + 1));
                    }
                }
                InsnBody::Return { .. } => {}
                _ => {
                    if b + 1 < blocks.len() {
                        edges.push((b, b + 1));
                    }
                }
            }
        }
        for (u, v) in edges {
            if !blocks[u].succs.contains(&v) {
                blocks[u].succs.push(v);
                blocks[v].preds.push(u);
            }
        }
        Cfg {
            blocks,
            label_block,
        }
    }

    /// The block containing label `l`.
    pub fn block_of_label(&self, l: LabelId) -> Option<usize> {
        self.label_block.get(&l).copied()
    }

    /// Dominator sets (bit-per-block, iterative data-flow).
    ///
    /// `doms[b]` contains `d` iff `d` dominates `b`. Unreachable blocks
    /// dominate nothing and are dominated by everything (conventional).
    pub fn dominators(&self) -> Vec<BTreeSet<usize>> {
        let n = self.blocks.len();
        if n == 0 {
            return Vec::new();
        }
        let all: BTreeSet<usize> = (0..n).collect();
        let mut doms: Vec<BTreeSet<usize>> = vec![all.clone(); n];
        doms[0] = BTreeSet::from([0]);
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..n {
                let mut new: Option<BTreeSet<usize>> = None;
                for &p in &self.blocks[b].preds {
                    new = Some(match new {
                        None => doms[p].clone(),
                        Some(acc) => acc.intersection(&doms[p]).copied().collect(),
                    });
                }
                let mut new = new.unwrap_or_default();
                new.insert(b);
                if new != doms[b] {
                    doms[b] = new;
                    changed = true;
                }
            }
        }
        doms
    }

    /// Natural loops: one per header, merged over all back edges into that
    /// header, sorted by header index.
    pub fn natural_loops(&self) -> Vec<NaturalLoop> {
        let doms = self.dominators();
        let mut by_header: HashMap<usize, BTreeSet<usize>> = HashMap::new();
        for (b, block) in self.blocks.iter().enumerate() {
            for &s in &block.succs {
                // Back edge b -> s when s dominates b.
                if doms[b].contains(&s) {
                    let set = by_header.entry(s).or_insert_with(|| {
                        let mut set = BTreeSet::new();
                        set.insert(s);
                        set
                    });
                    // Walk predecessors backwards from b until the header.
                    let mut stack = vec![b];
                    while let Some(x) = stack.pop() {
                        if set.insert(x) {
                            stack.extend(self.blocks[x].preds.iter().copied());
                        }
                    }
                }
            }
        }
        let mut loops: Vec<NaturalLoop> = by_header
            .into_iter()
            .map(|(header, blocks)| NaturalLoop { header, blocks })
            .collect();
        loops.sort_by_key(|l| l.header);
        loops
    }

    /// Loop-nesting depth of every block (0 = not in any loop).
    pub fn loop_depths(&self) -> Vec<usize> {
        let loops = self.natural_loops();
        let mut depth = vec![0usize; self.blocks.len()];
        for l in &loops {
            for &b in &l.blocks {
                depth[b] += 1;
            }
        }
        depth
    }

    /// Static block frequency estimate: `10^depth`, capped — the same
    /// flavour of estimate GCC exports as `frequency` when no profile is
    /// available.
    pub fn block_frequencies(&self) -> Vec<f64> {
        self.loop_depths()
            .into_iter()
            .map(|d| 10f64.powi(d.min(4) as i32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;

    fn cfg_of(src: &str) -> (Cfg, RtlFunction) {
        let ast = fegen_lang::parse_program(src).unwrap();
        let p = lower_program(&ast).unwrap();
        let f = p.functions.into_iter().next().unwrap();
        (Cfg::build(&f), f)
    }

    #[test]
    fn straight_line_is_one_block() {
        let (cfg, _) = cfg_of("int f(int x) { return x + 1; }");
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].succs.is_empty());
    }

    #[test]
    fn if_makes_diamond_or_triangle() {
        let (cfg, _) = cfg_of("int f(int x) { int y; y = 0; if (x > 0) { y = 1; } return y; }");
        // cond block, then block, join block.
        assert!(cfg.blocks.len() >= 3);
        let entry = &cfg.blocks[0];
        assert_eq!(entry.succs.len(), 2, "conditional entry has two successors");
    }

    #[test]
    fn loop_has_back_edge_and_natural_loop() {
        let (cfg, f) = cfg_of(
            "void f(int a[16]) { int i; for (i = 0; i < 16; i = i + 1) { a[i] = i; } }",
        );
        let loops = cfg.natural_loops();
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        // Header is the block holding the cond label.
        let header = cfg.block_of_label(f.loops[0].cond_label).unwrap();
        assert_eq!(l.header, header);
        assert!(l.blocks.len() >= 2);
    }

    #[test]
    fn nested_loops_have_nested_depths() {
        let (cfg, _) = cfg_of(
            "void f(int m[4][4]) {\n\
               int i; int j;\n\
               for (i = 0; i < 4; i = i + 1) {\n\
                 for (j = 0; j < 4; j = j + 1) { m[i][j] = 0; }\n\
               }\n\
             }",
        );
        let loops = cfg.natural_loops();
        assert_eq!(loops.len(), 2);
        let depths = cfg.loop_depths();
        assert_eq!(*depths.iter().max().unwrap(), 2);
        let freqs = cfg.block_frequencies();
        assert_eq!(freqs.iter().cloned().fold(0.0, f64::max), 100.0);
    }

    #[test]
    fn dominators_of_loop_header() {
        let (cfg, f) = cfg_of(
            "void f(int n) { int i; for (i = 0; i < n; i = i + 1) { } }",
        );
        let doms = cfg.dominators();
        let header = cfg.block_of_label(f.loops[0].cond_label).unwrap();
        // Entry dominates everything reachable.
        for (b, dom) in doms.iter().enumerate() {
            if !cfg.blocks[b].preds.is_empty() || b == 0 {
                assert!(dom.contains(&0), "entry must dominate block {b}");
            }
        }
        // Header dominates the body block.
        let body = cfg.block_of_label(f.loops[0].body_label).unwrap();
        assert!(doms[body].contains(&header));
    }

    #[test]
    fn empty_function_cfg() {
        let (cfg, _) = cfg_of("void f() { }");
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.natural_loops().is_empty());
    }
}
