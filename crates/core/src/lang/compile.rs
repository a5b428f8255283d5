//! Compilation of feature expressions to loop-nest plans.
//!
//! The GP search evaluates each candidate feature over *every* exported loop
//! (the paper, §VI: fitness = evaluate over all loops + train a tree), so a
//! candidate is compiled **once** and the resulting [`Program`] is evaluated
//! once per loop by the plan evaluator in [`super::vm`]. Compilation lowers
//! the whole expression, at any aggregate nesting depth, to one plan tree
//! whose evaluation preserves the interpreter's step total *exactly* (one
//! unit charge at every AST-node entry, one unit per sequence element), so
//! `BudgetExceeded` decisions are identical for any budget — see DESIGN.md
//! §11 for the argument.
//!
//! Compile-time analysis picks the cheapest exact form for each node:
//!
//! - **Indexed counts**: `count(/*)`, `count(//*)` and
//!   `count(filter(/*|//*, p))` for a *pure* predicate `p` (any boolean
//!   combination of attribute/kind tests and child probes — no `Cmp`, whose
//!   operands may aggregate) become a [`CountMeta`] answered from the
//!   arena's postings lists (single atoms) or a tight arena scan
//!   (combinations), bulk-charged the exact step total the interpreter
//!   would have charged.
//! - **Aggregate levels**: every other aggregate becomes a [`PlanAgg`]
//!   (pure predicates keep closed forms, a covered first predicate drives
//!   the outer loop from postings slices) or, when it has no predicates and
//!   a leaf body, a [`PlanExpr::LeafAgg`] charged in closed form.

use super::ast::{ArithOp, BoolExpr, CmpOp, FeatureExpr, SeqExpr};
use super::eval::bool_symbols;
use crate::ir::Symbol;

/// Compile-time classification of an `@flag == V` target so evaluation compares
/// symbols, never strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BoolView {
    /// Target is neither `true` nor `false`: boolean attributes never match.
    NotBool,
    /// Target is the literal `true`.
    True,
    /// Target is the literal `false`.
    False,
}

impl BoolView {
    fn of(target: Symbol) -> BoolView {
        let (t, f) = bool_symbols();
        if target == t {
            BoolView::True
        } else if target == f {
            BoolView::False
        } else {
            BoolView::NotBool
        }
    }
}

/// Aggregate discriminator shared by compiler and evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggKind {
    /// `count(s)`
    Count,
    /// `sum(s, e)`
    Sum,
    /// `max(s, e)`
    Max,
    /// `min(s, e)`
    Min,
    /// `avg(s, e)`
    Avg,
}

/// A pure (fixed-cost, side-effect-free) predicate atom usable by the
/// indexed-count fast path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PureAtom {
    IsType(Symbol),
    HasAttr(Symbol),
    AttrEq(Symbol, Symbol, BoolView),
    AttrCmp(Symbol, CmpOp, f64),
}

/// A pure predicate: side-effect-free, cannot raise `NonFinite`, and its
/// step cost is computable while scanning the arena.
#[derive(Debug, Clone)]
pub(crate) enum PurePred {
    /// A single atom under zero or more negations — answerable in closed
    /// form from the arena's postings lists.
    Atom {
        atom: PureAtom,
        /// Parity of the `Not` layers.
        negated: bool,
        /// Exact interpreter step cost of evaluating the predicate once
        /// (1 for the atom plus 1 per `Not` layer).
        cost: u64,
    },
    /// A boolean combination of atoms and fixed-position child probes —
    /// answered by a tight arena scan that accumulates the interpreter's
    /// exact short-circuit step cost per element. When every atom is an
    /// `is-type` test of the element itself, `kinds` carries a verdict
    /// table precomputed at compile time and the scan needs no per-element
    /// predicate evaluation at all.
    Tree {
        expr: PureExpr,
        kinds: Option<KindTable>,
    },
}

/// Per-kind verdict table for a kinds-only predicate tree: verdict and
/// exact short-circuit step cost are pure functions of the element's kind,
/// and every kind the tree does not mention follows the identical
/// all-atoms-false trace, collapsed into `default`.
#[derive(Debug, Clone)]
pub(crate) struct KindTable {
    /// `(kind, verdict, exact step cost)` for each kind the tree mentions.
    pub entries: Vec<(Symbol, bool, u64)>,
    /// Verdict and cost for every other kind.
    pub default: (bool, u64),
}

/// A pure predicate tree. Every node costs exactly one interpreter step at
/// entry; `&&`/`||` short-circuit and a missing child probe skips its inner
/// predicate, so the cost is data-dependent but exactly reproducible.
#[derive(Debug, Clone)]
pub(crate) enum PureExpr {
    Atom(PureAtom),
    Not(Box<PureExpr>),
    And(Box<PureExpr>, Box<PureExpr>),
    Or(Box<PureExpr>, Box<PureExpr>),
    /// `/[idx][p]`: probe the `idx`-th child; `false` when missing.
    Child(u32, Box<PureExpr>),
}

/// Static description of one indexed-count site.
#[derive(Debug, Clone)]
pub(crate) struct CountMeta {
    /// `true` for `/*`, `false` for `//*`.
    pub children_base: bool,
    /// The filter predicate, if any.
    pub pred: Option<PurePred>,
}

/// One aggregate level of a loop-nest plan: an aggregate of *any*
/// predicate and body shape lowered to arena loops the evaluator in
/// [`super::vm`] runs without dispatch. Pure predicates keep their
/// closed forms (postings counts, kind tables, short-circuit scans);
/// dynamic predicates and bodies become small trees walked per element
/// with the interpreter's exact step accounting. Nesting depth is
/// unbounded: a nested aggregate is one more level of the same tree.
#[derive(Debug, Clone)]
pub(crate) struct PlanAgg {
    pub kind: AggKind,
    /// `true` for `/*` (children), `false` for `//*` (descendants).
    pub children_base: bool,
    /// Filter predicates in interpreter evaluation order (innermost
    /// first); an element is accumulated when all hold, and evaluation
    /// (with its step charges) stops at the first that fails.
    pub preds: Vec<PlanPred>,
    /// Aggregate body; `None` for `count`.
    pub body: Option<PlanExpr>,
    /// When the base is `//*` and the first (pure) predicate admits one,
    /// the outer loop iterates the merged cover postings slices instead of
    /// scanning the whole subtree span; runs of skipped elements outside
    /// the cover are bulk-charged their constant false-trace cost.
    pub cover: Option<PredCover>,
}

/// One postings list of a predicate cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoverSrc {
    /// The kind postings of this symbol.
    Kind(Symbol),
    /// The attribute postings of this symbol.
    Attr(Symbol),
}

/// Cover-driven outer loop of a [`PlanAgg`] over `//*`: every element its
/// first predicate can match carries one of the cover symbols (as kind or
/// attribute), and every element outside the cover follows the identical
/// all-atoms-false short-circuit trace with constant cost. The outer loop
/// merges the cover postings slices and bulk-charges the skipped runs.
#[derive(Debug, Clone)]
pub(crate) struct PredCover {
    /// Postings lists to merge (at most [`MAX_COVER_SRCS`], deduplicated).
    pub srcs: Vec<CoverSrc>,
    /// Exact interpreter step cost of one element outside the cover: the
    /// `for_each` charge plus the predicate's constant false-trace cost.
    pub skip_per: u64,
}

/// A leaf operand evaluated flat at an element: a literal, an attribute
/// read, or an indexed count of the element's children/descendants. Used
/// as the body of a [`PlanExpr::LeafAgg`] level and as a `LeafCmp` operand.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LeafArg {
    Const(f64),
    Attr(Symbol),
    /// `count(/*)` at the element (charges 1 + child count).
    ChildCount,
    /// `count(//*)` at the element (charges 1 + descendant count).
    DescCount,
}

/// One filter predicate of a [`PlanAgg`].
#[derive(Debug, Clone)]
pub(crate) enum PlanPred {
    /// Pure — fixed-cost and error-free; reuses the indexed-count evaluators.
    Pure(PurePred),
    /// Contains `Cmp`, whose operands may aggregate and raise.
    Dyn(PlanBool),
}

/// A boolean predicate tree a plan evaluates per element. Every node
/// charges one step at entry; `&&`/`||` short-circuit and a missing child
/// probe skips its inner predicate, exactly like the interpreter.
#[derive(Debug, Clone)]
pub(crate) enum PlanBool {
    Atom(PureAtom),
    Cmp(CmpOp, Box<PlanExpr>, Box<PlanExpr>),
    /// `Cmp` whose operands are both leaves — evaluated flat, without
    /// tree recursion (the dominant dynamic-predicate shape).
    LeafCmp(CmpOp, LeafArg, LeafArg),
    Not(Box<PlanBool>),
    And(Box<PlanBool>, Box<PlanBool>),
    Or(Box<PlanBool>, Box<PlanBool>),
    /// `/[idx][p]`: probe the `idx`-th child; `false` when missing.
    Child(u32, Box<PlanBool>),
}

/// A numeric expression tree a plan evaluates per element. Each node
/// charges one step at entry and raises `NonFinite` on a non-finite value,
/// exactly like the interpreter.
#[derive(Debug, Clone)]
pub(crate) enum PlanExpr {
    Const(f64),
    Attr(Symbol),
    /// An indexed count evaluated at the current element (closed-form
    /// postings totals or a range-restricted scan, bulk-charged).
    Count(CountMeta),
    /// A nested aggregate — a further loop level of the same plan.
    Agg(Box<PlanAgg>),
    /// A predicate-free aggregate with a leaf body — one bulk-charged
    /// arena loop, closed form where the accumulation allows.
    LeafAgg {
        kind: AggKind,
        /// `true` for `/*`, `false` for `//*`.
        children_base: bool,
        body: LeafArg,
    },
    Arith(ArithOp, Box<PlanExpr>, Box<PlanExpr>),
    Neg(Box<PlanExpr>),
}

/// A compiled feature: one plan tree over the whole expression. Compile
/// once per candidate, evaluate once per loop.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) root: PlanExpr,
}

/// Which kind of evaluation a compiled program needs. Surfaced through
/// `PoolStats` so the share of loop-nest evaluations is observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramPath {
    /// No aggregate level: leaves, arithmetic and indexed counts only.
    Fast,
    /// At least one aggregate level (a loop-nest plan).
    LoopNest,
}

impl Program {
    /// Compiles a feature expression. Pure function of the expression.
    pub fn compile(expr: &FeatureExpr) -> Program {
        Program {
            root: plan_expr(expr),
        }
    }

    /// Evaluation kind of this program. The root context holds arithmetic
    /// over leaves, indexed counts and aggregate levels; every other
    /// aggregate level sits inside one of those, so the program has a loop
    /// level exactly when the root's arithmetic reaches one.
    pub fn path(&self) -> ProgramPath {
        fn has_level(e: &PlanExpr) -> bool {
            match e {
                PlanExpr::Agg(_) | PlanExpr::LeafAgg { .. } => true,
                PlanExpr::Arith(_, a, b) => has_level(a) || has_level(b),
                PlanExpr::Neg(a) => has_level(a),
                PlanExpr::Const(_) | PlanExpr::Attr(_) | PlanExpr::Count(_) => false,
            }
        }
        if has_level(&self.root) {
            ProgramPath::LoopNest
        } else {
            ProgramPath::Fast
        }
    }
}

/// Unwraps a filter chain into its predicates (interpreter evaluation
/// order: innermost first) and whether the base sequence is `/*`.
fn split_filters(seq: &SeqExpr) -> (Vec<&BoolExpr>, bool) {
    let mut preds: Vec<&BoolExpr> = Vec::new();
    let mut base = seq;
    while let SeqExpr::Filter(inner, p) = base {
        preds.push(p);
        base = inner;
    }
    preds.reverse();
    (preds, matches!(base, SeqExpr::Children))
}

/// Lowers one aggregate level. Total: every predicate and body shape of
/// the feature language has a plan.
fn plan_agg(
    kind: AggKind,
    children_base: bool,
    preds: &[&BoolExpr],
    body: Option<&FeatureExpr>,
) -> PlanAgg {
    let preds: Vec<PlanPred> = preds.iter().map(|p| plan_pred(p)).collect();
    let cover = if children_base {
        None
    } else {
        pred_cover(&preds)
    };
    PlanAgg {
        kind,
        children_base,
        preds,
        body: body.map(plan_expr),
        cover,
    }
}

/// Upper bound on postings lists merged by one cover scan.
const MAX_COVER_SRCS: usize = 4;

/// The postings list containing every element a (positive) atom can match.
fn cover_of_atom(a: &PureAtom) -> CoverSrc {
    match a {
        PureAtom::IsType(k) => CoverSrc::Kind(*k),
        PureAtom::HasAttr(s) | PureAtom::AttrEq(s, ..) | PureAtom::AttrCmp(s, ..) => {
            CoverSrc::Attr(*s)
        }
    }
}

/// Collects a cover for a pure tree and returns the constant step cost of
/// its all-atoms-false short-circuit trace, or `None` when no cover exists
/// (negation or child probes — matches then escape any postings union).
///
/// For `a && b` only `a`'s cover is needed: a match requires `a` to hold,
/// and outside `cover(a)` the trace stops after `a`'s false path. For
/// `a || b` both covers and both false paths combine.
fn cover_of_tree(e: &PureExpr, srcs: &mut Vec<CoverSrc>) -> Option<u64> {
    match e {
        PureExpr::Atom(a) => {
            let s = cover_of_atom(a);
            if !srcs.contains(&s) {
                srcs.push(s);
            }
            Some(1)
        }
        PureExpr::And(a, _) => Some(1 + cover_of_tree(a, srcs)?),
        PureExpr::Or(a, b) => {
            let fa = cover_of_tree(a, srcs)?;
            let fb = cover_of_tree(b, srcs)?;
            Some(1 + fa + fb)
        }
        PureExpr::Not(_) | PureExpr::Child(..) => None,
    }
}

/// Builds the cover for a plan's first predicate, when it is pure and
/// admits one.
fn pred_cover(preds: &[PlanPred]) -> Option<PredCover> {
    let Some(PlanPred::Pure(pp)) = preds.first() else {
        return None;
    };
    match pp {
        PurePred::Atom {
            atom,
            negated: false,
            cost,
        } => Some(PredCover {
            srcs: vec![cover_of_atom(atom)],
            skip_per: 1 + cost,
        }),
        PurePred::Atom { .. } => None,
        PurePred::Tree { expr, .. } => {
            let mut srcs = Vec::new();
            let false_cost = cover_of_tree(expr, &mut srcs)?;
            if srcs.len() > MAX_COVER_SRCS {
                return None;
            }
            Some(PredCover {
                srcs,
                skip_per: 1 + false_cost,
            })
        }
    }
}

/// Recognizes leaf operands (see [`LeafArg`]).
fn leaf_arg(e: &FeatureExpr) -> Option<LeafArg> {
    match e {
        FeatureExpr::Const(c) => Some(LeafArg::Const(*c)),
        FeatureExpr::GetAttr(a) => Some(LeafArg::Attr(*a)),
        FeatureExpr::Count(seq) => match indexed_count(seq)? {
            CountMeta {
                children_base: true,
                pred: None,
            } => Some(LeafArg::ChildCount),
            CountMeta {
                children_base: false,
                pred: None,
            } => Some(LeafArg::DescCount),
            _ => None,
        },
        _ => None,
    }
}

fn plan_pred(p: &BoolExpr) -> PlanPred {
    match pure_pred(p) {
        Some(pure) => PlanPred::Pure(pure),
        None => PlanPred::Dyn(plan_bool(p)),
    }
}

fn plan_bool(p: &BoolExpr) -> PlanBool {
    if let Some(atom) = pure_atom(p) {
        return PlanBool::Atom(atom);
    }
    let boxed = |q: &BoolExpr| Box::new(plan_bool(q));
    match p {
        BoolExpr::Cmp(op, a, b) => match (leaf_arg(a), leaf_arg(b)) {
            (Some(x), Some(y)) => PlanBool::LeafCmp(*op, x, y),
            _ => PlanBool::Cmp(*op, Box::new(plan_expr(a)), Box::new(plan_expr(b))),
        },
        BoolExpr::ChildMatches(idx, inner) => PlanBool::Child(*idx as u32, boxed(inner)),
        BoolExpr::Not(inner) => PlanBool::Not(boxed(inner)),
        BoolExpr::And(a, b) => PlanBool::And(boxed(a), boxed(b)),
        BoolExpr::Or(a, b) => PlanBool::Or(boxed(a), boxed(b)),
        _ => unreachable!("atoms are handled by pure_atom above"),
    }
}

fn plan_expr(e: &FeatureExpr) -> PlanExpr {
    use FeatureExpr::*;
    match e {
        Const(c) => PlanExpr::Const(*c),
        GetAttr(a) => PlanExpr::Attr(*a),
        Arith(op, a, b) => PlanExpr::Arith(*op, Box::new(plan_expr(a)), Box::new(plan_expr(b))),
        Neg(a) => PlanExpr::Neg(Box::new(plan_expr(a))),
        Count(seq) => match indexed_count(seq) {
            Some(meta) => PlanExpr::Count(meta),
            None => plan_level(AggKind::Count, seq, None),
        },
        Sum(seq, b) => plan_level(AggKind::Sum, seq, Some(b)),
        Max(seq, b) => plan_level(AggKind::Max, seq, Some(b)),
        Min(seq, b) => plan_level(AggKind::Min, seq, Some(b)),
        Avg(seq, b) => plan_level(AggKind::Avg, seq, Some(b)),
    }
}

/// Lowers an aggregate to a plan level: a predicate-free aggregate with a
/// leaf body needs no recursion at all and becomes a [`PlanExpr::LeafAgg`].
fn plan_level(kind: AggKind, seq: &SeqExpr, body: Option<&FeatureExpr>) -> PlanExpr {
    let (preds, children_base) = split_filters(seq);
    if preds.is_empty() {
        if let Some(leaf) = body.and_then(leaf_arg) {
            return PlanExpr::LeafAgg {
                kind,
                children_base,
                body: leaf,
            };
        }
    }
    PlanExpr::Agg(Box::new(plan_agg(kind, children_base, &preds, body)))
}

/// Recognizes `count` sequences answerable from the arena indices.
fn indexed_count(seq: &SeqExpr) -> Option<CountMeta> {
    match seq {
        SeqExpr::Children => Some(CountMeta {
            children_base: true,
            pred: None,
        }),
        SeqExpr::Descendants => Some(CountMeta {
            children_base: false,
            pred: None,
        }),
        SeqExpr::Filter(inner, p) => {
            let children_base = match **inner {
                SeqExpr::Children => true,
                SeqExpr::Descendants => false,
                SeqExpr::Filter(..) => return None,
            };
            let pred = pure_pred(p)?;
            Some(CountMeta {
                children_base,
                pred: Some(pred),
            })
        }
    }
}

/// Classifies a predicate as pure (arena-computable, error-free): a single
/// atom under negations (postings-list counting), or failing that, any
/// boolean combination of atoms and child probes (scan counting).
fn pure_pred(p: &BoolExpr) -> Option<PurePred> {
    let mut negs = 0u64;
    let mut q = p;
    while let BoolExpr::Not(inner) = q {
        negs += 1;
        q = inner;
    }
    if let Some(atom) = pure_atom(q) {
        return Some(PurePred::Atom {
            atom,
            negated: negs % 2 == 1,
            cost: 1 + negs,
        });
    }
    let expr = pure_tree(p)?;
    let kinds = kind_table(&expr);
    Some(PurePred::Tree { expr, kinds })
}

/// Builds the per-kind verdict table for a kinds-only tree; `None` when the
/// tree reads attributes or probes children (verdict then depends on more
/// than the kind).
fn kind_table(e: &PureExpr) -> Option<KindTable> {
    let mut kinds = Vec::new();
    if !collect_kinds(e, &mut kinds) {
        return None;
    }
    let entries = kinds
        .iter()
        .map(|&k| {
            let mut steps = 0u64;
            let verdict = eval_at_kind(e, Some(k), &mut steps);
            (k, verdict, steps)
        })
        .collect();
    let mut steps = 0u64;
    let verdict = eval_at_kind(e, None, &mut steps);
    Some(KindTable {
        entries,
        default: (verdict, steps),
    })
}

/// Collects the distinct kind symbols an `is-type`-only tree mentions;
/// false when any other atom (or a child probe) appears.
fn collect_kinds(e: &PureExpr, out: &mut Vec<Symbol>) -> bool {
    match e {
        PureExpr::Atom(PureAtom::IsType(k)) => {
            if !out.contains(k) {
                out.push(*k);
            }
            true
        }
        PureExpr::Atom(_) | PureExpr::Child(..) => false,
        PureExpr::Not(inner) => collect_kinds(inner, out),
        PureExpr::And(a, b) | PureExpr::Or(a, b) => collect_kinds(a, out) && collect_kinds(b, out),
    }
}

/// Evaluates a kinds-only tree for an element of the given kind (`None`
/// stands for any kind the tree does not mention), accumulating the exact
/// interpreter step cost: one per node entered, short-circuit honoured.
fn eval_at_kind(e: &PureExpr, kind: Option<Symbol>, steps: &mut u64) -> bool {
    *steps += 1;
    match e {
        PureExpr::Atom(PureAtom::IsType(k)) => Some(*k) == kind,
        PureExpr::Not(inner) => !eval_at_kind(inner, kind, steps),
        PureExpr::And(a, b) => eval_at_kind(a, kind, steps) && eval_at_kind(b, kind, steps),
        PureExpr::Or(a, b) => eval_at_kind(a, kind, steps) || eval_at_kind(b, kind, steps),
        PureExpr::Atom(_) | PureExpr::Child(..) => {
            unreachable!("kind table is only built for kinds-only trees")
        }
    }
}

fn pure_atom(q: &BoolExpr) -> Option<PureAtom> {
    match q {
        BoolExpr::IsType(k) => Some(PureAtom::IsType(*k)),
        BoolExpr::HasAttr(a) => Some(PureAtom::HasAttr(*a)),
        BoolExpr::AttrEqEnum(a, v) => Some(PureAtom::AttrEq(*a, *v, BoolView::of(*v))),
        BoolExpr::AttrCmpNum(a, op, k) => Some(PureAtom::AttrCmp(*a, *op, *k)),
        _ => None,
    }
}

/// Recognizes boolean combinations that stay pure all the way down. `Cmp`
/// is excluded: its numeric operands can aggregate or raise `NonFinite`.
fn pure_tree(p: &BoolExpr) -> Option<PureExpr> {
    if let Some(atom) = pure_atom(p) {
        return Some(PureExpr::Atom(atom));
    }
    match p {
        BoolExpr::Not(inner) => Some(PureExpr::Not(Box::new(pure_tree(inner)?))),
        BoolExpr::And(a, b) => Some(PureExpr::And(
            Box::new(pure_tree(a)?),
            Box::new(pure_tree(b)?),
        )),
        BoolExpr::Or(a, b) => Some(PureExpr::Or(
            Box::new(pure_tree(a)?),
            Box::new(pure_tree(b)?),
        )),
        BoolExpr::ChildMatches(idx, inner) => {
            Some(PureExpr::Child(*idx as u32, Box::new(pure_tree(inner)?)))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse::parse_feature;

    fn compile(src: &str) -> Program {
        Program::compile(&parse_feature(src).unwrap())
    }

    /// The [`PlanAgg`] of a root program's single aggregate level.
    fn root_agg(p: &Program) -> &PlanAgg {
        match &p.root {
            PlanExpr::Agg(agg) => agg,
            other => panic!("expected an aggregate level, got {other:?}"),
        }
    }

    /// Number of [`PlanAgg`] levels on the deepest chain through bodies and
    /// dynamic predicates.
    fn agg_depth(e: &PlanExpr) -> usize {
        fn in_bool(b: &PlanBool) -> usize {
            match b {
                PlanBool::Cmp(_, x, y) => agg_depth(x).max(agg_depth(y)),
                PlanBool::Not(x) | PlanBool::Child(_, x) => in_bool(x),
                PlanBool::And(x, y) | PlanBool::Or(x, y) => in_bool(x).max(in_bool(y)),
                PlanBool::Atom(_) | PlanBool::LeafCmp(..) => 0,
            }
        }
        match e {
            PlanExpr::Agg(a) => {
                let preds = a.preds.iter().map(|p| match p {
                    PlanPred::Dyn(b) => in_bool(b),
                    PlanPred::Pure(_) => 0,
                });
                let body = a.body.as_ref().map_or(0, agg_depth);
                1 + preds.fold(body, usize::max)
            }
            PlanExpr::Arith(_, x, y) => agg_depth(x).max(agg_depth(y)),
            PlanExpr::Neg(x) => agg_depth(x),
            PlanExpr::Const(_)
            | PlanExpr::Attr(_)
            | PlanExpr::Count(_)
            | PlanExpr::LeafAgg { .. } => 0,
        }
    }

    #[test]
    fn simple_counts_use_indexed_path() {
        for src in [
            "count(/*)",
            "count(//*)",
            "count(filter(//*, is-type(insn)))",
            "count(filter(/*, has-attr(@x)))",
            "count(filter(//*, !has-attr(@x)))",
            "count(filter(//*, @mode==SI))",
            "count(filter(//*, @num-iter > 4))",
            "count(filter(//*, is-type(a) && is-type(b)))",
            "count(filter(//*, !(is-type(a) || is-type(b))))",
            "count(filter(//*, is-type(a) && /[0][is-type(b) || has-attr(@x)]))",
        ] {
            let p = compile(src);
            assert!(
                matches!(p.root, PlanExpr::Count(_)),
                "{src} should compile to an indexed count"
            );
            assert_eq!(p.path(), ProgramPath::Fast, "{src} needs no loop level");
        }
    }

    #[test]
    fn leaf_and_cover_shapes_take_their_closed_forms() {
        // Predicate-free leaf bodies collapse to one closed-form level.
        for src in [
            "sum(//*, 1)",
            "sum(//*, get-attr(@weight))",
            "sum(//*, count(/*))",
            "min(//*, count(//*))",
        ] {
            let p = compile(src);
            assert!(
                matches!(p.root, PlanExpr::LeafAgg { .. }),
                "{src} should take a leaf level"
            );
        }
        // A covered atom drives the outer loop from postings slices.
        let p = compile("count(filter(filter(//*, is-type(a)), is-type(b)))");
        assert!(root_agg(&p).cover.is_some());
        // No cover (children base / negated atom): pure predicates keep
        // their closed forms inside a scanned level.
        for src in [
            "avg(filter(/*, is-type(basic-block)), count(filter(//*, is-type(insn))))",
            "max(filter(//*, !is-type(insn)), get-attr(@depth))",
        ] {
            let p = compile(src);
            let agg = root_agg(&p);
            assert!(agg.cover.is_none(), "{src} should scan");
            assert!(
                agg.preds.iter().all(|p| matches!(p, PlanPred::Pure(_))),
                "{src} should keep pure predicates"
            );
        }
    }

    #[test]
    fn complex_aggregates_lower_to_loop_nest_plans() {
        for src in [
            "count(filter(//*, count(/*) > 1))",
            "count(filter(//*, is-type(a) && count(/*) > 0))",
            "sum(//*, 1 + get-attr(@x))",
            "sum(//*, sum(//*, 1))",
            "sum(filter(//*, count(/*) > 0), 1)",
            "avg(filter(//*, is-type(a)), max(/*, get-attr(@x) * 2))",
        ] {
            let p = compile(src);
            assert!(matches!(p.root, PlanExpr::Agg(_)), "{src}");
            assert_eq!(p.path(), ProgramPath::LoopNest);
        }
    }

    #[test]
    fn plan_cover_requires_non_negated_atoms_on_descendants() {
        let cover = |src: &str| {
            root_agg(&compile(src))
                .cover
                .as_ref()
                .map(|c| c.srcs.clone())
        };
        assert_eq!(
            cover("sum(filter(//*, is-type(a)), count(/*) + 1)"),
            Some(vec![CoverSrc::Kind(Symbol::from("a"))])
        );
        assert_eq!(
            cover("sum(filter(//*, has-attr(@x)), count(/*) + 1)"),
            Some(vec![CoverSrc::Attr(Symbol::from("x"))])
        );
        // A disjunction covers with the union of both sides' postings.
        assert_eq!(
            cover("sum(filter(//*, is-type(a) || has-attr(@x)), count(/*) + 1)"),
            Some(vec![
                CoverSrc::Kind(Symbol::from("a")),
                CoverSrc::Attr(Symbol::from("x")),
            ])
        );
        // Negated atom, non-atom first pred, or a children base: scan.
        for src in [
            "sum(filter(//*, !is-type(a)), count(/*) + 1)",
            "sum(filter(//*, count(/*) > 0), count(/*) + 1)",
            "sum(filter(/*, is-type(a)), count(/*) + 1)",
        ] {
            assert!(cover(src).is_none(), "{src} should scan");
        }
    }

    /// `levels` nested sums over `//*` with a `1` innermost body, e.g.
    /// `sum(//*, sum(//*, ... 1))`. With an `Arith` in every body no level
    /// is a leaf level, so each one is a genuine [`PlanAgg`].
    fn deep_nest(levels: usize) -> FeatureExpr {
        let mut e = FeatureExpr::Const(1.0);
        for _ in 0..levels {
            e = FeatureExpr::Sum(
                SeqExpr::Descendants,
                Box::new(FeatureExpr::Arith(
                    ArithOp::Add,
                    Box::new(e),
                    Box::new(FeatureExpr::Const(0.0)),
                )),
            );
        }
        e
    }

    #[test]
    fn nests_of_any_depth_compile_to_one_plan() {
        for levels in [10, 20, 64] {
            let p = Program::compile(&deep_nest(levels));
            assert_eq!(p.path(), ProgramPath::LoopNest);
            assert_eq!(agg_depth(&p.root), levels, "one plan level per aggregate");
        }
    }

    #[test]
    fn deep_gate_and_accumulate_shapes_plan_every_level() {
        for levels in [10, 20, 64] {
            let deep = deep_nest(levels);
            // Gate shape: a single-atom predicate over a deep body.
            let gate = Program::compile(&FeatureExpr::Sum(
                SeqExpr::Filter(
                    Box::new(SeqExpr::Descendants),
                    Box::new(BoolExpr::IsType(Symbol::intern("a"))),
                ),
                Box::new(deep.clone()),
            ));
            let agg = root_agg(&gate);
            assert!(agg.cover.is_some(), "the atom covers the outer loop");
            assert_eq!(agg_depth(&gate.root), levels + 1);
            // Accumulate shape: a deep dynamic predicate over a literal body.
            let accum = Program::compile(&FeatureExpr::Sum(
                SeqExpr::Filter(
                    Box::new(SeqExpr::Descendants),
                    Box::new(BoolExpr::Cmp(
                        CmpOp::Gt,
                        Box::new(deep),
                        Box::new(FeatureExpr::Const(0.0)),
                    )),
                ),
                Box::new(FeatureExpr::Const(1.0)),
            ));
            let agg = root_agg(&accum);
            assert!(matches!(agg.preds[..], [PlanPred::Dyn(PlanBool::Cmp(..))]));
            assert!(matches!(agg.body, Some(PlanExpr::Const(_))));
            assert_eq!(agg_depth(&accum.root), levels + 1);
        }
    }

    #[test]
    fn path_follows_the_root_arithmetic_to_aggregate_levels() {
        // Root arithmetic over aggregates, on either side.
        for src in [
            "sum(//*, count(/*)) + max(//*, 1)",
            "1 + sum(//*, 1 + get-attr(@x))",
            "count(//*) * avg(filter(//*, count(/*) > 0), 1)",
            "-sum(//*, 1 + get-attr(@x))",
            "-(2 - min(/*, get-attr(@x)))",
            "count(filter(//*, count(/*) > 1))",
        ] {
            assert_eq!(compile(src).path(), ProgramPath::LoopNest, "{src}");
        }
        // Indexed counts, attribute reads and constants need no loop level.
        for src in [
            "count(//*) + 1",
            "-count(filter(//*, is-type(insn)))",
            "count(/*) / (1 + count(filter(//*, has-attr(@x))))",
            "get-attr(@num-iter) * 2",
            "2 + 3 * 4",
            "-5",
        ] {
            assert_eq!(compile(src).path(), ProgramPath::Fast, "{src}");
        }
    }
}
