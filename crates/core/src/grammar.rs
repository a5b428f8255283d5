//! Automatic derivation of feature grammars from observed IR.
//!
//! The paper (§VI, *Searching for Features for GCC*): "Once we have exported
//! all loops … we then examine the structure of the data. This allows us the
//! automatic building of grammars that make features that match the
//! structural facts observed in the RTL data. Moreover, this automation means
//! that we have not had to hard code the grammar, making it easy to update in
//! response to changes in the compiler."
//!
//! [`Grammar::derive`] scans a corpus of exported [`IrNode`] trees and
//! records:
//!
//! - the vocabulary of node kinds (for `is-type(t)`),
//! - every attribute name, classified as numeric (with its observed value
//!   range, for `@a OP k` thresholds), boolean, or enumerated (with its
//!   observed values, for `@a == V`),
//! - the maximum child arity (bounding `/[n][p]` child patterns).
//!
//! [`Grammar::gen_feature`] then generates random sentences — candidate
//! features — for the initial GP population, and `gen_num`/`gen_bool`/
//! `gen_seq` regrow subtrees of a given sort for the mutation operator.

use crate::ir::{AttrValue, IrNode, Symbol};
use crate::lang::{ArithOp, BoolExpr, CmpOp, FeatureExpr, SeqExpr};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::collections::HashMap;

/// Observed statistics for a numeric attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumAttr {
    /// Attribute name.
    pub name: Symbol,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

/// Observed values for an enumerated attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnumAttr {
    /// Attribute name.
    pub name: Symbol,
    /// Distinct observed values, sorted by name.
    pub values: Vec<Symbol>,
}

/// A feature grammar derived from a corpus of exported IR.
///
/// Serializable because process-level island workers adopt the
/// supervisor's grammar from their `Hello` instead of deriving their own.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grammar {
    kinds: Vec<Symbol>,
    num_attrs: Vec<NumAttr>,
    bool_attrs: Vec<Symbol>,
    enum_attrs: Vec<EnumAttr>,
    max_children: usize,
}

impl Grammar {
    /// Derives a grammar from every node of every tree in `corpus`.
    ///
    /// ```
    /// use fegen_core::{Grammar, ir::IrNode};
    /// let ir = IrNode::build("loop", |l| {
    ///     l.attr_num("num-iter", 8.0);
    ///     l.child("insn", |i| { i.attr_enum("mode", "SI"); });
    /// });
    /// let g = Grammar::derive([&ir]);
    /// assert_eq!(g.kinds().len(), 2);
    /// assert_eq!(g.num_attrs().len(), 1);
    /// assert_eq!(g.enum_attrs().len(), 1);
    /// ```
    pub fn derive<'a>(corpus: impl IntoIterator<Item = &'a IrNode>) -> Grammar {
        let mut kinds = BTreeSet::new();
        let mut num: HashMap<Symbol, (f64, f64)> = HashMap::new();
        let mut bools = BTreeSet::new();
        let mut enums: HashMap<Symbol, BTreeSet<Symbol>> = HashMap::new();
        let mut max_children = 0usize;
        for root in corpus {
            for node in root.iter() {
                kinds.insert(node.kind());
                max_children = max_children.max(node.children().len());
                for (name, value) in node.attrs() {
                    match value {
                        AttrValue::Num(v) => {
                            let entry = num.entry(*name).or_insert((*v, *v));
                            entry.0 = entry.0.min(*v);
                            entry.1 = entry.1.max(*v);
                        }
                        AttrValue::Bool(_) => {
                            bools.insert(*name);
                        }
                        AttrValue::Enum(v) => {
                            enums.entry(*name).or_default().insert(*v);
                        }
                    }
                }
            }
        }
        let sort_key = |s: &Symbol| s.as_str();
        let mut kinds: Vec<Symbol> = kinds.into_iter().collect();
        kinds.sort_by_key(sort_key);
        let mut num_attrs: Vec<NumAttr> = num
            .into_iter()
            .map(|(name, (min, max))| NumAttr { name, min, max })
            .collect();
        num_attrs.sort_by_key(|a| a.name.as_str());
        let mut bool_attrs: Vec<Symbol> = bools.into_iter().collect();
        bool_attrs.sort_by_key(sort_key);
        let mut enum_attrs: Vec<EnumAttr> = enums
            .into_iter()
            .map(|(name, values)| {
                let mut values: Vec<Symbol> = values.into_iter().collect();
                values.sort_by_key(sort_key);
                EnumAttr { name, values }
            })
            .collect();
        enum_attrs.sort_by_key(|a| a.name.as_str());
        Grammar {
            kinds,
            num_attrs,
            bool_attrs,
            enum_attrs,
            max_children,
        }
    }

    /// Observed node kinds, sorted by name.
    pub fn kinds(&self) -> &[Symbol] {
        &self.kinds
    }

    /// Observed numeric attributes with their value ranges.
    pub fn num_attrs(&self) -> &[NumAttr] {
        &self.num_attrs
    }

    /// Observed boolean attributes.
    pub fn bool_attrs(&self) -> &[Symbol] {
        &self.bool_attrs
    }

    /// Observed enumerated attributes with their value sets.
    pub fn enum_attrs(&self) -> &[EnumAttr] {
        &self.enum_attrs
    }

    /// Largest observed child count (bounds `/[n][p]` indices).
    pub fn max_children(&self) -> usize {
        self.max_children
    }

    /// Generates a random feature (a sentence of the grammar) with subtree
    /// depth at most `max_depth`.
    ///
    /// Generation expands the root non-terminal and chooses productions at
    /// random, exactly as described in §IV of the paper; near the depth
    /// limit only terminal productions are chosen, so generation always
    /// terminates.
    pub fn gen_feature<R: Rng + ?Sized>(&self, rng: &mut R, max_depth: usize) -> FeatureExpr {
        self.gen_num(rng, max_depth)
    }

    /// Generates a random numeric expression of depth ≤ `depth`.
    pub fn gen_num<R: Rng + ?Sized>(&self, rng: &mut R, depth: usize) -> FeatureExpr {
        if depth <= 1 {
            return match rng.gen_range(0..10) {
                0..=3 => self.gen_attr_read(rng),
                4..=6 => FeatureExpr::Const(self.gen_const(rng)),
                _ => FeatureExpr::Count(self.gen_leaf_seq(rng)),
            };
        }
        match rng.gen_range(0..100) {
            0..=29 => FeatureExpr::Count(self.gen_seq(rng, depth - 1)),
            30..=41 => FeatureExpr::Sum(
                self.gen_seq(rng, depth - 1),
                Box::new(self.gen_num(rng, depth - 1)),
            ),
            42..=49 => FeatureExpr::Max(
                self.gen_seq(rng, depth - 1),
                Box::new(self.gen_num(rng, depth - 1)),
            ),
            50..=53 => FeatureExpr::Min(
                self.gen_seq(rng, depth - 1),
                Box::new(self.gen_num(rng, depth - 1)),
            ),
            54..=59 => FeatureExpr::Avg(
                self.gen_seq(rng, depth - 1),
                Box::new(self.gen_num(rng, depth - 1)),
            ),
            60..=74 => {
                let op = match rng.gen_range(0..4) {
                    0 => ArithOp::Add,
                    1 => ArithOp::Sub,
                    2 => ArithOp::Mul,
                    _ => ArithOp::Div,
                };
                FeatureExpr::Arith(
                    op,
                    Box::new(self.gen_num(rng, depth - 1)),
                    Box::new(self.gen_num(rng, depth - 1)),
                )
            }
            75..=89 => self.gen_attr_read(rng),
            _ => FeatureExpr::Const(self.gen_const(rng)),
        }
    }

    /// Generates a random sequence expression of depth ≤ `depth`.
    pub fn gen_seq<R: Rng + ?Sized>(&self, rng: &mut R, depth: usize) -> SeqExpr {
        if depth <= 1 {
            return self.gen_leaf_seq(rng);
        }
        match rng.gen_range(0..100) {
            0..=59 => SeqExpr::Filter(
                Box::new(self.gen_seq(rng, depth - 1)),
                Box::new(self.gen_bool(rng, depth - 1)),
            ),
            60..=74 => SeqExpr::Children,
            _ => SeqExpr::Descendants,
        }
    }

    /// Generates a random boolean predicate of depth ≤ `depth`.
    pub fn gen_bool<R: Rng + ?Sized>(&self, rng: &mut R, depth: usize) -> BoolExpr {
        if depth <= 1 {
            return self.gen_leaf_bool(rng);
        }
        match rng.gen_range(0..100) {
            0..=44 => self.gen_leaf_bool(rng),
            45..=54 => BoolExpr::Not(Box::new(self.gen_bool(rng, depth - 1))),
            55..=69 => BoolExpr::And(
                Box::new(self.gen_bool(rng, depth - 1)),
                Box::new(self.gen_bool(rng, depth - 1)),
            ),
            70..=84 => BoolExpr::Or(
                Box::new(self.gen_bool(rng, depth - 1)),
                Box::new(self.gen_bool(rng, depth - 1)),
            ),
            85..=92 if self.max_children > 0 => {
                let idx = rng.gen_range(0..self.max_children.min(8));
                BoolExpr::ChildMatches(idx, Box::new(self.gen_bool(rng, depth - 1)))
            }
            _ => BoolExpr::Cmp(
                self.gen_cmp_op(rng),
                Box::new(self.gen_num(rng, depth - 1)),
                Box::new(self.gen_num(rng, depth - 1)),
            ),
        }
    }

    fn gen_leaf_seq<R: Rng + ?Sized>(&self, rng: &mut R) -> SeqExpr {
        if rng.gen_bool(0.6) {
            SeqExpr::Descendants
        } else {
            SeqExpr::Children
        }
    }

    /// `get-attr(@a)` on a random numeric/boolean attribute; falls back to a
    /// constant when the corpus exposed no such attribute.
    fn gen_attr_read<R: Rng + ?Sized>(&self, rng: &mut R) -> FeatureExpr {
        let n = self.num_attrs.len() + self.bool_attrs.len();
        if n == 0 {
            return FeatureExpr::Const(self.gen_const(rng));
        }
        let i = rng.gen_range(0..n);
        let name = if i < self.num_attrs.len() {
            self.num_attrs[i].name
        } else {
            self.bool_attrs[i - self.num_attrs.len()]
        };
        FeatureExpr::GetAttr(name)
    }

    fn gen_const<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if !self.num_attrs.is_empty() && rng.gen_bool(0.3) {
            // Sample from an observed attribute range so comparisons against
            // real attribute values have a chance of being discriminative.
            let a = &self.num_attrs[rng.gen_range(0..self.num_attrs.len())];
            let t: f64 = rng.gen();
            let v = a.min + t * (a.max - a.min);
            // Round to keep printed features readable.
            if v.abs() < 1e6 {
                (v * 2.0).round() / 2.0
            } else {
                v
            }
        } else {
            rng.gen_range(0..16) as f64
        }
    }

    fn gen_cmp_op<R: Rng + ?Sized>(&self, rng: &mut R) -> CmpOp {
        match rng.gen_range(0..6) {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            _ => CmpOp::Ge,
        }
    }

    fn gen_leaf_bool<R: Rng + ?Sized>(&self, rng: &mut R) -> BoolExpr {
        // Try categories in a random order until one is populated; `is-type`
        // always is (any derived grammar saw at least one node kind).
        for _ in 0..4 {
            match rng.gen_range(0..100) {
                0..=39 => {
                    if !self.kinds.is_empty() {
                        let k = self.kinds[rng.gen_range(0..self.kinds.len())];
                        return BoolExpr::IsType(k);
                    }
                }
                40..=54 => {
                    let total = self.num_attrs.len()
                        + self.bool_attrs.len()
                        + self.enum_attrs.len();
                    if total > 0 {
                        let i = rng.gen_range(0..total);
                        let name = if i < self.num_attrs.len() {
                            self.num_attrs[i].name
                        } else if i < self.num_attrs.len() + self.bool_attrs.len() {
                            self.bool_attrs[i - self.num_attrs.len()]
                        } else {
                            self.enum_attrs[i - self.num_attrs.len() - self.bool_attrs.len()]
                                .name
                        };
                        return BoolExpr::HasAttr(name);
                    }
                }
                55..=74 => {
                    if !self.enum_attrs.is_empty() {
                        let a = &self.enum_attrs[rng.gen_range(0..self.enum_attrs.len())];
                        let v = a.values[rng.gen_range(0..a.values.len())];
                        return BoolExpr::AttrEqEnum(a.name, v);
                    }
                    if !self.bool_attrs.is_empty() {
                        let a = self.bool_attrs[rng.gen_range(0..self.bool_attrs.len())];
                        let v = Symbol::intern(if rng.gen_bool(0.5) { "true" } else { "false" });
                        return BoolExpr::AttrEqEnum(a, v);
                    }
                }
                _ => {
                    if !self.num_attrs.is_empty() {
                        let a = &self.num_attrs[rng.gen_range(0..self.num_attrs.len())];
                        let t: f64 = rng.gen();
                        let v = (a.min + t * (a.max - a.min)).round();
                        return BoolExpr::AttrCmpNum(a.name, self.gen_cmp_op(rng), v);
                    }
                }
            }
        }
        match self.kinds.first() {
            Some(k) => BoolExpr::IsType(*k),
            None => BoolExpr::Cmp(
                CmpOp::Gt,
                Box::new(FeatureExpr::Count(SeqExpr::Children)),
                Box::new(FeatureExpr::Const(0.0)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn corpus() -> Vec<IrNode> {
        vec![
            IrNode::build("loop", |l| {
                l.attr_num("num-iter", 40.0);
                l.attr_bool("may-be-hot", true);
                l.child("basic-block", |b| {
                    b.attr_num("loop-depth", 2.0);
                    b.child("insn", |i| {
                        i.attr_enum("mode", "SI");
                    });
                    b.child("insn", |i| {
                        i.attr_enum("mode", "DF");
                    });
                });
            }),
            IrNode::build("loop", |l| {
                l.attr_num("num-iter", 8.0);
                l.child("basic-block", |b| {
                    b.attr_num("loop-depth", 1.0);
                });
            }),
        ]
    }

    #[test]
    fn derive_collects_vocabulary() {
        let c = corpus();
        let g = Grammar::derive(c.iter());
        let kind_names: Vec<&str> = g.kinds().iter().map(|k| k.as_str()).collect();
        assert_eq!(kind_names, vec!["basic-block", "insn", "loop"]);
        assert_eq!(g.bool_attrs().len(), 1);
        assert_eq!(g.enum_attrs().len(), 1);
        assert_eq!(g.enum_attrs()[0].values.len(), 2);
        assert_eq!(g.max_children(), 2);
    }

    #[test]
    fn derive_tracks_numeric_ranges() {
        let c = corpus();
        let g = Grammar::derive(c.iter());
        let ni = g
            .num_attrs()
            .iter()
            .find(|a| a.name.as_str() == "num-iter")
            .unwrap();
        assert_eq!((ni.min, ni.max), (8.0, 40.0));
    }

    #[test]
    fn generated_features_respect_depth_and_evaluate() {
        let c = corpus();
        let g = Grammar::derive(c.iter());
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let f = g.gen_feature(&mut rng, 6);
            assert!(f.depth() <= 13, "runaway depth {} for {f}", f.depth());
            // Every generated feature must evaluate (budget errors aside) on
            // corpus members.
            for ir in &c {
                match f.eval_default(ir) {
                    Ok(v) => assert!(v.is_finite()),
                    Err(e) => panic!("generated feature failed to evaluate: {e} ({f})"),
                }
            }
        }
    }

    #[test]
    fn generated_features_roundtrip_through_text() {
        let c = corpus();
        let g = Grammar::derive(c.iter());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let f = g.gen_feature(&mut rng, 5);
            let printed = f.to_string();
            let reparsed = crate::lang::parse_feature(&printed)
                .unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
            assert_eq!(f, reparsed, "printed `{printed}`");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let c = corpus();
        let g = Grammar::derive(c.iter());
        let f1 = g.gen_feature(&mut StdRng::seed_from_u64(99), 6);
        let f2 = g.gen_feature(&mut StdRng::seed_from_u64(99), 6);
        assert_eq!(f1, f2);
    }

    #[test]
    fn empty_attribute_corpus_still_generates() {
        let ir = IrNode::build("bare", |b| {
            b.child("leaf", |_| {});
        });
        let g = Grammar::derive([&ir]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let f = g.gen_feature(&mut rng, 5);
            assert!(f.eval_default(&ir).is_ok());
        }
    }
}
