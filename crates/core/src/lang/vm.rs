//! The plan evaluator and the pooled evaluation engine.
//!
//! [`PlanEval`] evaluates a compiled [`Program`] — one loop-nest plan tree
//! — over one [`IrArena`]: arena loops over postings slices, sibling jumps
//! or preorder ranges, with closed forms for indexed counts and leaf
//! levels and a columnar sweep for predicate-free bodies. It reproduces
//! the interpreter in [`super::eval`] **bit-for-bit**: same values
//! (floating-point operations in the same order), same [`EvalError`]
//! outcomes, and the same `BudgetExceeded` decision for every budget. The
//! interpreter stays the reference oracle; `tests/vm_differential.rs`
//! enforces the equivalence on generated features × generated trees.
//!
//! [`EvalPool`] is the engine the GP search uses: it flattens every
//! training loop into an arena **once** and compiles each candidate
//! **once** (memoised by structural fingerprint); every evaluation then
//! walks the program over one arena. Results depend only on (feature,
//! loop, budget), so they are invariant under thread count — the
//! determinism argument is spelled out in DESIGN.md §11.

use super::ast::{ArithOp, FeatureExpr, Fingerprint};
use super::compile::{
    AggKind, BoolView, CountMeta, CoverSrc, LeafArg, PlanAgg, PlanBool, PlanExpr, PlanPred,
    Program, ProgramPath, PureAtom, PureExpr, PurePred,
};
use super::eval::EvalError;
use crate::faults::CancelToken;
use crate::ir::{AttrValue, IrArena, IrNode, Symbol};
use crate::lru::LruCache;
use crate::telemetry::Telemetry;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Computes one indexed-count site at context node `ctx`: the exact step
/// total the interpreter would charge and the matching-element count.
/// A single atom over `//*` is counted from the postings in closed form;
/// every other predicate is one scan over the base elements.
fn indexed_count_at(arena: &IrArena, ctx: u32, meta: &CountMeta) -> (u64, u64) {
    let (lo, hi) = (ctx + 1, arena.subtree_end(ctx));
    let Some(pred) = &meta.pred else {
        let c = u64::from(if meta.children_base {
            arena.child_count(ctx)
        } else {
            arena.descendant_count(ctx)
        });
        return (1 + c, c);
    };
    if let (
        false,
        PurePred::Atom {
            atom,
            negated,
            cost,
        },
    ) = (meta.children_base, pred)
    {
        let d = u64::from(hi - lo);
        let m = match *atom {
            PureAtom::IsType(k) => u64::from(arena.count_kind_in(k, lo, hi)),
            PureAtom::HasAttr(a) => u64::from(arena.count_attr_in(a, lo, hi)),
            PureAtom::AttrEq(a, ..) | PureAtom::AttrCmp(a, ..) => arena
                .attr_nodes_in(a, lo, hi)
                .iter()
                .filter(|&&j| pure_atom_matches(arena, j, atom))
                .count() as u64,
        };
        let m = if *negated { d - m } else { m };
        return (1 + d * (1 + cost), m);
    }
    let (mut steps, mut m) = (1u64, 0u64);
    let mut j = lo;
    while j < hi {
        steps += 1; // the per-element `for_each` charge
        if pure_pred_matches(arena, j, pred, &mut steps) {
            m += 1;
        }
        j = if meta.children_base {
            arena.subtree_end(j)
        } else {
            j + 1
        };
    }
    (steps, m)
}

/// Evaluates a compiled feature's plan tree with exact interpreter step
/// accounting — the one evaluator of compiled features.
///
/// All charges accumulate into one running `steps` total that is checked
/// against the budget in bulk; since every interpreter charge is one unit,
/// the `BudgetExceeded` decision depends only on the cumulative total
/// (DESIGN.md §11). Two orderings need explicit care:
///
/// - The element loops abort with `BudgetExceeded` as soon as the running
///   total exceeds `limit`, so a deep nest stops scanning near the
///   interpreter's stopping point instead of walking the whole arena.
/// - At every `NonFinite` detection point the running total decides the
///   error: if it already exceeds `limit`, the interpreter would have run
///   out *before* computing the offending value, so `BudgetExceeded` wins.
struct PlanEval<'a> {
    arena: &'a IrArena,
    /// The evaluation's step budget.
    limit: u64,
}

impl PlanEval<'_> {
    /// Evaluates a whole program at the root: the result is
    /// `BudgetExceeded` whenever the final step total exceeds the budget,
    /// and otherwise whatever the plan tree returned.
    fn root(&self, prog: &Program) -> Result<f64, EvalError> {
        let mut steps = 0u64;
        let r = self.expr(0, &prog.root, &mut steps);
        if steps > self.limit {
            Err(EvalError::BudgetExceeded)
        } else {
            r
        }
    }

    /// Budget-vs-NonFinite decision for a non-finite value whose
    /// computation ended at step total `steps`.
    #[inline]
    fn non_finite(&self, steps: u64) -> EvalError {
        if steps > self.limit {
            EvalError::BudgetExceeded
        } else {
            EvalError::NonFinite
        }
    }

    #[inline]
    fn finite(&self, v: f64, steps: u64) -> Result<f64, EvalError> {
        if v.is_finite() {
            Ok(v)
        } else {
            Err(self.non_finite(steps))
        }
    }

    /// One aggregate level: iterates the base elements (postings slice,
    /// sibling jumps, or a preorder range scan), filters, accumulates.
    fn agg(&self, ctx: u32, plan: &PlanAgg, steps: &mut u64) -> Result<f64, EvalError> {
        *steps += 1; // the aggregate node's entry charge
        let mut acc = 0.0f64;
        let mut n = 0u64;
        let mut started = false;
        if let Some(cov) = &plan.cover {
            let (lo, hi) = (ctx + 1, self.arena.subtree_end(ctx));
            // Merge the cover postings slices (each sorted, deduplicated
            // across slices): only cover elements can match, and every
            // skipped element follows the constant all-atoms-false trace.
            let mut slices = [&[] as &[u32]; 4];
            let k = cov.srcs.len().min(slices.len());
            for (slot, src) in slices.iter_mut().zip(&cov.srcs) {
                *slot = match src {
                    CoverSrc::Kind(sym) => self.arena.kind_nodes_in(*sym, lo, hi),
                    CoverSrc::Attr(sym) => self.arena.attr_nodes_in(*sym, lo, hi),
                };
            }
            let mut prev = lo;
            loop {
                let mut j = u32::MAX;
                for s in &slices[..k] {
                    if let Some(&h) = s.first() {
                        j = j.min(h);
                    }
                }
                if j == u32::MAX {
                    break;
                }
                for s in &mut slices[..k] {
                    if s.first() == Some(&j) {
                        *s = &s[1..];
                    }
                }
                // Bulk-charge the skipped run (`for_each` + false-trace
                // cost each; pure predicates cannot raise, so no error
                // point is jumped over), then this element's `for_each`;
                // the predicates themselves charge exactly during eval.
                *steps += u64::from(j - prev) * cov.skip_per + 1;
                prev = j + 1;
                if *steps > self.limit {
                    return Err(EvalError::BudgetExceeded);
                }
                self.element(j, &plan.preds, plan, steps, &mut acc, &mut n, &mut started)?;
            }
            *steps += u64::from(hi - prev) * cov.skip_per;
        } else if plan.children_base {
            let end = self.arena.subtree_end(ctx);
            let mut j = ctx + 1;
            while j < end {
                *steps += 1; // the per-element `for_each` charge
                if *steps > self.limit {
                    return Err(EvalError::BudgetExceeded);
                }
                self.element(j, &plan.preds, plan, steps, &mut acc, &mut n, &mut started)?;
                j = self.arena.subtree_end(j);
            }
        } else {
            if plan.preds.is_empty() {
                if let Some(body) = &plan.body {
                    if let Some(r) = self.column_agg(ctx, plan.kind, body, steps) {
                        return r;
                    }
                }
            }
            for j in ctx + 1..self.arena.subtree_end(ctx) {
                *steps += 1;
                if *steps > self.limit {
                    return Err(EvalError::BudgetExceeded);
                }
                self.element(j, &plan.preds, plan, steps, &mut acc, &mut n, &mut started)?;
            }
        }
        let v = match plan.kind {
            AggKind::Count => n as f64,
            AggKind::Sum => acc,
            AggKind::Max | AggKind::Min => {
                if started {
                    acc
                } else {
                    0.0
                }
            }
            AggKind::Avg => {
                if n == 0 {
                    0.0
                } else {
                    acc / n as f64
                }
            }
        };
        self.finite(v, *steps)
    }

    /// One element: remaining predicates, then body accumulation.
    #[allow(clippy::too_many_arguments)]
    fn element(
        &self,
        j: u32,
        preds: &[PlanPred],
        plan: &PlanAgg,
        steps: &mut u64,
        acc: &mut f64,
        n: &mut u64,
        started: &mut bool,
    ) -> Result<(), EvalError> {
        for p in preds {
            let holds = match p {
                PlanPred::Pure(pp) => pure_pred_matches(self.arena, j, pp, steps),
                PlanPred::Dyn(pb) => self.boolean(j, pb, steps)?,
            };
            if !holds {
                return Ok(());
            }
        }
        let v = match &plan.body {
            None => {
                *n += 1; // `count` has no body
                return Ok(());
            }
            Some(b) => self.expr(j, b, steps)?,
        };
        match plan.kind {
            AggKind::Count => *n += 1,
            AggKind::Sum => *acc += v,
            AggKind::Max => {
                *acc = if *started { acc.max(v) } else { v };
                *started = true;
            }
            AggKind::Min => {
                *acc = if *started { acc.min(v) } else { v };
                *started = true;
            }
            AggKind::Avg => {
                *acc += v;
                *n += 1;
            }
        }
        Ok(())
    }

    /// A predicate node: one entry charge, then the interpreter's
    /// short-circuit/child-probe semantics.
    fn boolean(&self, j: u32, e: &PlanBool, steps: &mut u64) -> Result<bool, EvalError> {
        *steps += 1;
        match e {
            PlanBool::Atom(a) => Ok(pure_atom_matches(self.arena, j, a)),
            PlanBool::Cmp(op, a, b) => {
                let x = self.expr(j, a, steps)?;
                let y = self.expr(j, b, steps)?;
                Ok(op.apply(x, y))
            }
            PlanBool::LeafCmp(op, a, b) => {
                let (ca, x) = self.leaf_arg_at(j, *a);
                *steps += ca;
                if !x.is_finite() {
                    return Err(self.non_finite(*steps));
                }
                let (cb, y) = self.leaf_arg_at(j, *b);
                *steps += cb;
                if !y.is_finite() {
                    return Err(self.non_finite(*steps));
                }
                Ok(op.apply(x, y))
            }
            PlanBool::Not(inner) => Ok(!self.boolean(j, inner, steps)?),
            PlanBool::And(a, b) => Ok(self.boolean(j, a, steps)? && self.boolean(j, b, steps)?),
            PlanBool::Or(a, b) => Ok(self.boolean(j, a, steps)? || self.boolean(j, b, steps)?),
            PlanBool::Child(idx, inner) => match self.arena.nth_child(j, *idx as usize) {
                Some(child) => self.boolean(child, inner, steps),
                None => Ok(false),
            },
        }
    }

    /// A numeric node: one entry charge, value computed, finiteness checked
    /// — exactly the interpreter's per-node protocol.
    fn expr(&self, j: u32, e: &PlanExpr, steps: &mut u64) -> Result<f64, EvalError> {
        match e {
            PlanExpr::Const(c) => {
                *steps += 1;
                self.finite(*c, *steps)
            }
            PlanExpr::Attr(a) => {
                *steps += 1;
                let v = self
                    .arena
                    .attr(j, *a)
                    .and_then(|x| x.as_num())
                    .unwrap_or(0.0);
                self.finite(v, *steps)
            }
            PlanExpr::Count(cm) => {
                let (cost, m) = indexed_count_at(self.arena, j, cm);
                *steps += cost;
                Ok(m as f64) // counts are always finite
            }
            PlanExpr::Agg(inner) => self.agg(j, inner, steps),
            PlanExpr::LeafAgg {
                kind,
                children_base,
                body,
            } => self.leaf_agg(j, *kind, *children_base, *body, steps),
            PlanExpr::Arith(op, a, b) => {
                *steps += 1;
                let x = self.expr(j, a, steps)?;
                let y = self.expr(j, b, steps)?;
                let v = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => {
                        if y.abs() < 1e-12 {
                            0.0
                        } else {
                            x / y
                        }
                    }
                };
                self.finite(v, *steps)
            }
            PlanExpr::Neg(a) => {
                *steps += 1;
                let v = -self.expr(j, a, steps)?;
                self.finite(v, *steps)
            }
        }
    }

    /// Evaluates a leaf operand at element `j`: `(exact step cost, value)`.
    #[inline]
    fn leaf_arg_at(&self, j: u32, a: LeafArg) -> (u64, f64) {
        match a {
            LeafArg::Const(c) => (1, c),
            LeafArg::Attr(s) => (1, self.attr_num(j, s)),
            LeafArg::ChildCount => {
                let c = self.arena.child_count(j);
                (1 + u64::from(c), f64::from(c))
            }
            LeafArg::DescCount => {
                let d = self.arena.descendant_count(j);
                (1 + u64::from(d), f64::from(d))
            }
        }
    }

    #[inline]
    fn attr_num(&self, j: u32, name: Symbol) -> f64 {
        self.arena
            .attr(j, name)
            .and_then(|x| x.as_num())
            .unwrap_or(0.0)
    }

    /// A predicate-free aggregate with a leaf body. Over `//*` three bodies
    /// have closed forms — a literal, `sum`/`avg` of an attribute (only its
    /// postings are read) and `sum`/`avg` of `count(/*)` (the subtree's
    /// inner edge count); every other body, and every `/*` base, is one
    /// element loop that charges each element as it goes.
    fn leaf_agg(
        &self,
        ctx: u32,
        kind: AggKind,
        children_base: bool,
        body: LeafArg,
        steps: &mut u64,
    ) -> Result<f64, EvalError> {
        *steps += 1; // the aggregate node's entry charge
        let (lo, hi) = (ctx + 1, self.arena.subtree_end(ctx));
        let n = hi - lo;
        let sum_like = matches!(kind, AggKind::Sum | AggKind::Avg);
        if !children_base {
            match body {
                LeafArg::Const(c) => {
                    if n > 0 && !c.is_finite() {
                        // The first element's body raises at exactly this
                        // prefix (`for_each` + the literal's entry charge).
                        *steps += 2;
                        return Err(self.non_finite(*steps));
                    }
                    *steps += 2 * u64::from(n);
                    // Repeated addition, not multiplication: identical
                    // rounding to the interpreter's fold.
                    let acc = if sum_like {
                        (0..n).fold(0.0, |acc, _| acc + c)
                    } else {
                        c
                    };
                    return self.finite(finish_agg(kind, acc, n), *steps);
                }
                LeafArg::Attr(name) if sum_like => {
                    // Only elements carrying the attribute can contribute a
                    // non-zero (or non-finite) value; the rest add +0.0,
                    // an exact identity here (the accumulator starts at
                    // +0.0 and IEEE round-to-nearest addition never
                    // produces -0.0 from a +0.0 start).
                    let mut acc = 0.0;
                    for &j in self.arena.attr_nodes_in(name, lo, hi) {
                        let v = self.attr_num(j, name);
                        if !v.is_finite() {
                            // Every element up to and including `j` costs
                            // exactly 2 (`for_each` + attribute read).
                            *steps += 2 * u64::from(j - lo + 1);
                            return Err(self.non_finite(*steps));
                        }
                        acc += v;
                    }
                    *steps += 2 * u64::from(n);
                    return self.finite(finish_agg(kind, acc, n), *steps);
                }
                LeafArg::ChildCount if sum_like => {
                    // Σ child-count over `lo..hi` is the subtree's inner
                    // edge count: every descendant's parent edge except
                    // those from `ctx` itself. All values are small
                    // integers, so the interpreter's f64 fold is exact.
                    let edges = n - self.arena.child_count(ctx);
                    *steps += 2 * u64::from(n) + u64::from(edges);
                    return Ok(finish_agg(kind, f64::from(edges), n));
                }
                _ => {}
            }
        }
        let (mut acc, mut count) = (0.0f64, 0u32);
        let mut j = lo;
        while j < hi {
            let (c, v) = self.leaf_arg_at(j, body);
            *steps += 1 + c; // `for_each` + the body's charge
            if !v.is_finite() {
                return Err(self.non_finite(*steps));
            }
            acc = accumulate(kind, acc, v, count == 0);
            count += 1;
            j = if children_base {
                self.arena.subtree_end(j)
            } else {
                j + 1
            };
        }
        self.finite(finish_agg(kind, acc, count), *steps)
    }

    /// Columnar evaluation of a predicate-free descendants aggregate with
    /// a column-supported body: bottom-up passes produce the body's value
    /// column and exact per-element step-cost column for every element at
    /// once (each children-base sub-aggregate gathers its children's values
    /// by sibling jumps), then a single in-order fold finishes the
    /// aggregate.
    ///
    /// Exactness: every per-parent accumulation visits children in
    /// increasing preorder — the interpreter's iteration order — so each
    /// floating-point fold performs the identical operation sequence. The
    /// fast path is *optimistic*: it returns `None` (and the scalar loop
    /// reproduces the interpreter's exact error point) when the range is
    /// small, any intermediate value the interpreter would finite-check is
    /// non-finite, or the bulk charge would exceed the budget.
    fn column_agg(
        &self,
        ctx: u32,
        kind: AggKind,
        body: &PlanExpr,
        steps: &mut u64,
    ) -> Option<Result<f64, EvalError>> {
        let (lo, hi) = (ctx + 1, self.arena.subtree_end(ctx));
        if hi - lo < COLUMN_MIN || matches!(kind, AggKind::Count) || !column_supported(body) {
            return None;
        }
        COL_POOL.with(|p| {
            let mut pool = p.try_borrow_mut().ok()?;
            let mut ok = true;
            let col = self.col_expr(body, lo, hi, &mut pool, &mut ok);
            let result = self.column_fold(kind, &col, steps, ok);
            pool.push(col);
            result
        })
    }

    /// Final fold of the top-level column: bulk budget check first, then
    /// the aggregate's in-order value fold and the final finiteness check.
    fn column_fold(
        &self,
        kind: AggKind,
        col: &ColBuf,
        steps: &mut u64,
        ok: bool,
    ) -> Option<Result<f64, EvalError>> {
        if !ok {
            return None;
        }
        let n = col.val.len() as u64;
        // One `for_each` charge per element plus the body's exact cost.
        let mut total = n;
        for c in &col.cost {
            total += c;
        }
        if *steps + total > self.limit {
            return None;
        }
        *steps += total;
        let v = match kind {
            AggKind::Sum | AggKind::Avg => {
                let mut acc = 0.0f64;
                for &v in &col.val {
                    acc += v;
                }
                if matches!(kind, AggKind::Avg) && n > 0 {
                    acc / n as f64
                } else {
                    acc
                }
            }
            AggKind::Max => col.val.iter().copied().reduce(f64::max).unwrap_or(0.0),
            AggKind::Min => col.val.iter().copied().reduce(f64::min).unwrap_or(0.0),
            AggKind::Count => unreachable!("count aggregates never take the columnar path"),
        };
        Some(self.finite(v, *steps))
    }

    /// Evaluates `e` for **every** node in `lo..hi` at once, returning the
    /// value column and the exact per-node interpreter step cost column.
    /// Non-finiteness of any value the interpreter would check clears
    /// `ok` (conservatively — including values no element consumes).
    fn col_expr(
        &self,
        e: &PlanExpr,
        lo: u32,
        hi: u32,
        pool: &mut Vec<ColBuf>,
        ok: &mut bool,
    ) -> ColBuf {
        let n = (hi - lo) as usize;
        match e {
            PlanExpr::Const(c) => {
                *ok &= c.is_finite();
                acquire(pool, n, *c, 1)
            }
            PlanExpr::Attr(name) => {
                let mut b = acquire(pool, n, 0.0, 1);
                let mut fin = true;
                for &j in self.arena.attr_nodes_in(*name, lo, hi) {
                    let v = self.attr_num(j, *name);
                    fin &= v.is_finite();
                    b.val[(j - lo) as usize] = v;
                }
                *ok &= fin;
                b
            }
            PlanExpr::Arith(op, x, y) => {
                let mut a = self.col_expr(x, lo, hi, pool, ok);
                let b = self.col_expr(y, lo, hi, pool, ok);
                let mut fin = true;
                for (i, (va, ca)) in a.val.iter_mut().zip(&mut a.cost).enumerate() {
                    let vb = b.val[i];
                    let v = match op {
                        ArithOp::Add => *va + vb,
                        ArithOp::Sub => *va - vb,
                        ArithOp::Mul => *va * vb,
                        ArithOp::Div => {
                            if vb.abs() < 1e-12 {
                                0.0
                            } else {
                                *va / vb
                            }
                        }
                    };
                    fin &= v.is_finite();
                    *va = v;
                    *ca += 1 + b.cost[i];
                }
                *ok &= fin;
                pool.push(b);
                a
            }
            PlanExpr::Neg(x) => {
                let mut a = self.col_expr(x, lo, hi, pool, ok);
                let mut fin = true;
                for (v, c) in a.val.iter_mut().zip(&mut a.cost) {
                    *v = -*v;
                    fin &= v.is_finite();
                    *c += 1;
                }
                *ok &= fin;
                a
            }
            // `column_supported` guarantees `children_base` here.
            PlanExpr::LeafAgg { kind, body, .. } => {
                let mut out = acquire(pool, n, 0.0, 1);
                if let LeafArg::Const(c) = body {
                    *ok &= c.is_finite();
                }
                let check_leaf = matches!(body, LeafArg::Attr(_));
                let mut fin = true;
                for i in lo..hi {
                    let mut acc = 0.0f64;
                    let mut cost = 1u64;
                    let mut count = 0u32;
                    let end = self.arena.subtree_end(i);
                    let mut k = i + 1;
                    while k < end {
                        let (lc, lv) = self.leaf_arg_at(k, *body);
                        if check_leaf {
                            fin &= lv.is_finite();
                        }
                        cost += 1 + lc;
                        acc = accumulate(*kind, acc, lv, count == 0);
                        count += 1;
                        k = self.arena.subtree_end(k);
                    }
                    let v = finish_agg(*kind, acc, count);
                    fin &= v.is_finite();
                    let idx = (i - lo) as usize;
                    out.val[idx] = v;
                    out.cost[idx] = cost;
                }
                *ok &= fin;
                out
            }
            PlanExpr::Agg(inner) => {
                let body = inner
                    .body
                    .as_ref()
                    .expect("column_supported requires a body");
                let b = self.col_expr(body, lo, hi, pool, ok);
                let mut out = acquire(pool, n, 0.0, 1);
                let mut fin = true;
                for i in lo..hi {
                    let mut acc = 0.0f64;
                    let mut cost = 1u64;
                    let mut count = 0u32;
                    let end = self.arena.subtree_end(i);
                    let mut k = i + 1;
                    while k < end {
                        let ki = (k - lo) as usize;
                        cost += 1 + b.cost[ki];
                        acc = accumulate(inner.kind, acc, b.val[ki], count == 0);
                        count += 1;
                        k = self.arena.subtree_end(k);
                    }
                    let v = finish_agg(inner.kind, acc, count);
                    fin &= v.is_finite();
                    let idx = (i - lo) as usize;
                    out.val[idx] = v;
                    out.cost[idx] = cost;
                }
                *ok &= fin;
                pool.push(b);
                out
            }
            PlanExpr::Count(_) => unreachable!("column_supported rejects Count"),
        }
    }
}

/// Minimum element count for the columnar aggregate sweep; below this the
/// scalar loop's smaller constant factor wins.
const COLUMN_MIN: u32 = 8;

/// One reusable column pair: per-element body value and the exact
/// interpreter step cost of producing it.
#[derive(Debug, Default)]
struct ColBuf {
    val: Vec<f64>,
    cost: Vec<u64>,
}

thread_local! {
    /// Reused column buffers for [`PlanEval::column_agg`] (one columnar
    /// evaluation is active at a time; `col_expr` never re-enters it).
    static COL_POOL: std::cell::RefCell<Vec<ColBuf>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Takes a buffer from the pool sized to `n` with the given initial value
/// and step cost.
fn acquire(pool: &mut Vec<ColBuf>, n: usize, v0: f64, c0: u64) -> ColBuf {
    let mut b = pool.pop().unwrap_or_default();
    b.val.clear();
    b.val.resize(n, v0);
    b.cost.clear();
    b.cost.resize(n, c0);
    b
}

/// Finishes one aggregate fold over `count` elements: empty aggregates
/// yield `0.0` and `Avg` divides by the element count, exactly as the
/// interpreter does at aggregate exit.
#[inline]
fn finish_agg(kind: AggKind, acc: f64, count: u32) -> f64 {
    if count == 0 {
        0.0
    } else if matches!(kind, AggKind::Avg) {
        acc / f64::from(count)
    } else {
        acc
    }
}

/// One element's body value arriving at its aggregate's accumulator.
/// `first` is true for the aggregate's first element, which seeds
/// `Max`/`Min` exactly like the interpreter's `started` flag.
#[inline]
fn accumulate(kind: AggKind, acc: f64, v: f64, first: bool) -> f64 {
    match kind {
        AggKind::Sum | AggKind::Avg => acc + v,
        AggKind::Max => {
            if first {
                v
            } else {
                acc.max(v)
            }
        }
        AggKind::Min => {
            if first {
                v
            } else {
                acc.min(v)
            }
        }
        AggKind::Count => unreachable!("count aggregates have no body"),
    }
}

/// Whether `e` can be evaluated as a column over a preorder range:
/// per-node leaves, arithmetic, and predicate-free children-base
/// aggregates (one gather pass per level).
/// Descendants-base sub-aggregates are excluded — their range folds
/// cannot reuse prefix sums without changing floating-point rounding.
fn column_supported(e: &PlanExpr) -> bool {
    match e {
        PlanExpr::Const(_) | PlanExpr::Attr(_) => true,
        PlanExpr::LeafAgg { children_base, .. } => *children_base,
        PlanExpr::Agg(inner) => {
            inner.children_base
                && inner.preds.is_empty()
                && !matches!(inner.kind, AggKind::Count)
                && inner.body.as_ref().is_some_and(column_supported)
        }
        PlanExpr::Arith(_, a, b) => column_supported(a) && column_supported(b),
        PlanExpr::Neg(a) => column_supported(a),
        PlanExpr::Count(_) => false,
    }
}

/// Evaluates one pure predicate at arena node `j`, accumulating the exact
/// interpreter step cost. Shared by indexed counts and plan predicates.
#[inline]
fn pure_pred_matches(arena: &IrArena, j: u32, p: &PurePred, steps: &mut u64) -> bool {
    match p {
        PurePred::Atom {
            atom,
            negated,
            cost,
        } => {
            *steps += cost;
            pure_atom_matches(arena, j, atom) != *negated
        }
        PurePred::Tree { expr, kinds } => match kinds {
            Some(table) => {
                let k = arena.kind(j);
                let (matched, cost) = table
                    .entries
                    .iter()
                    .find(|&&(s, ..)| s == k)
                    .map_or(table.default, |&(_, m, c)| (m, c));
                *steps += cost;
                matched
            }
            None => eval_pure(arena, j, expr, steps),
        },
    }
}

/// The `@a == V` test over arena node `j` (enum by symbol; bool via the
/// compile-time [`BoolView`]; numeric or missing attributes never match).
fn attr_eq(arena: &IrArena, j: u32, name: Symbol, target: Symbol, view: BoolView) -> bool {
    match arena.attr(j, name) {
        Some(AttrValue::Enum(v)) => v == target,
        Some(AttrValue::Bool(b)) => match view {
            BoolView::True => b,
            BoolView::False => !b,
            BoolView::NotBool => false,
        },
        _ => false,
    }
}

/// Evaluates a pure predicate tree at arena node `j`, accumulating into
/// `steps` exactly the unit charges the interpreter would make: one per
/// predicate node entered, with `&&`/`||` short-circuiting and a missing
/// child probe skipping its inner predicate.
fn eval_pure(arena: &IrArena, j: u32, e: &PureExpr, steps: &mut u64) -> bool {
    *steps += 1;
    match e {
        PureExpr::Atom(a) => pure_atom_matches(arena, j, a),
        PureExpr::Not(inner) => !eval_pure(arena, j, inner, steps),
        PureExpr::And(a, b) => eval_pure(arena, j, a, steps) && eval_pure(arena, j, b, steps),
        PureExpr::Or(a, b) => eval_pure(arena, j, a, steps) || eval_pure(arena, j, b, steps),
        PureExpr::Child(idx, inner) => match arena.nth_child(j, *idx as usize) {
            Some(child) => eval_pure(arena, child, inner, steps),
            None => false,
        },
    }
}

fn pure_atom_matches(arena: &IrArena, j: u32, atom: &PureAtom) -> bool {
    match *atom {
        PureAtom::IsType(k) => arena.kind(j) == k,
        PureAtom::HasAttr(a) => arena.attr(j, a).is_some(),
        PureAtom::AttrEq(a, v, view) => attr_eq(arena, j, a, v, view),
        PureAtom::AttrCmp(a, op, k) => {
            matches!(arena.attr(j, a).and_then(|x| x.as_num()), Some(v) if op.apply(v, k))
        }
    }
}

impl Program {
    /// Executes the compiled feature over one arena with the given step
    /// budget.
    ///
    /// # Errors
    ///
    /// Same conditions as [`super::Evaluator::eval`].
    pub fn eval(&self, arena: &IrArena, budget: u64) -> Result<f64, EvalError> {
        PlanEval {
            arena,
            limit: budget,
        }
        .root(self)
    }
}

/// Which engine an [`EvalPool`] (and the search built on it) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalEngine {
    /// Compiled loop-nest plans over arena-flattened loops (default).
    #[default]
    Compiled,
    /// The recursive reference interpreter in [`super::eval`].
    Interpreter,
}

/// Default capacity bound for the compiled-program LRU cache.
pub const PROGRAM_CACHE_CAP: usize = 1 << 16;

/// A batch evaluation engine over a fixed set of loops.
///
/// Construction flattens every loop into an [`IrArena`] once; evaluation
/// compiles each distinct feature once (memoised by structural fingerprint)
/// and runs it over each loop's arena. With
/// [`EvalEngine::Interpreter`] the pool delegates to the reference
/// interpreter instead — byte-identical results, just slower; the GP search
/// exposes this as a runtime choice precisely so the equivalence is
/// testable end-to-end.
pub struct EvalPool<'a> {
    trees: Vec<&'a IrNode>,
    arenas: Vec<Arc<IrArena>>,
    engine: EvalEngine,
    /// Compiled programs, bounded: a long-lived pool (the `fegen serve`
    /// daemon's warm path) must not grow without limit under a stream of
    /// distinct features. Strict LRU replaces the old epoch flush, which
    /// dumped all 65k entries at once and leaked unboundedly below the
    /// flush threshold in any long-lived process. Behind an `Arc` so the
    /// serve daemon's per-batch pools can share one warm cache
    /// ([`EvalPool::adopt_program_cache`]); programs are keyed by
    /// structural fingerprint only, never by loop, so sharing across
    /// batches is always sound.
    programs: Arc<Mutex<LruCache<Fingerprint, Arc<Program>>>>,
    cancel: Option<CancelToken>,
    vm_evals: AtomicU64,
    interp_evals: AtomicU64,
    fast_evals: AtomicU64,
    plan_evals: AtomicU64,
    program_hits: AtomicU64,
    program_misses: AtomicU64,
}

/// A point-in-time snapshot of an [`EvalPool`]'s cumulative activity
/// counters (observability only; counting never affects evaluation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Per-loop evaluations of compiled programs.
    pub vm_evals: u64,
    /// Per-loop evaluations dispatched to the reference interpreter.
    pub interp_evals: u64,
    /// Compiled evaluations of programs without an aggregate level
    /// (leaves, arithmetic, indexed counts).
    pub fast_evals: u64,
    /// Compiled evaluations of programs with at least one aggregate level.
    pub plan_evals: u64,
    /// Compiled-program cache hits.
    pub program_hits: u64,
    /// Compiled-program cache misses (compilations).
    pub program_misses: u64,
    /// Compiled programs evicted by the bounded LRU cache.
    pub program_evictions: u64,
}

impl<'a> EvalPool<'a> {
    /// Builds a pool over `trees` using the given engine.
    pub fn new(trees: impl IntoIterator<Item = &'a IrNode>, engine: EvalEngine) -> EvalPool<'a> {
        let trees: Vec<&IrNode> = trees.into_iter().collect();
        let arenas = match engine {
            EvalEngine::Compiled => trees
                .iter()
                .map(|t| Arc::new(IrArena::from_tree(t)))
                .collect(),
            EvalEngine::Interpreter => Vec::new(),
        };
        EvalPool::from_parts(trees, arenas, engine)
    }

    /// Builds a compiled-engine pool directly over pre-flattened arenas —
    /// the `fegen serve` warm path, where arenas come out of the daemon's
    /// digest-keyed LRU cache and a batch must never re-flatten a loop it
    /// has already seen.
    pub fn from_arenas(arenas: Vec<Arc<IrArena>>) -> EvalPool<'static> {
        EvalPool::from_parts(Vec::new(), arenas, EvalEngine::Compiled)
    }

    fn from_parts(
        trees: Vec<&'a IrNode>,
        arenas: Vec<Arc<IrArena>>,
        engine: EvalEngine,
    ) -> EvalPool<'a> {
        EvalPool {
            trees,
            arenas,
            engine,
            programs: Arc::new(Mutex::new(LruCache::new(PROGRAM_CACHE_CAP))),
            cancel: None,
            vm_evals: AtomicU64::new(0),
            interp_evals: AtomicU64::new(0),
            fast_evals: AtomicU64::new(0),
            plan_evals: AtomicU64::new(0),
            program_hits: AtomicU64::new(0),
            program_misses: AtomicU64::new(0),
        }
    }

    /// Rebounds the compiled-program LRU to `cap` entries (clamped to at
    /// least 1). Existing entries are discarded — callers set this before
    /// the first evaluation. Capacity never changes results, only how
    /// often a program is recompiled; the differential suite pins this.
    pub fn set_program_cache_capacity(&mut self, cap: usize) {
        *self.programs.lock() = LruCache::new(cap);
    }

    /// Shares `donor`'s compiled-program cache with this pool. The serve
    /// daemon builds a short-lived pool per batch over LRU-cached arenas;
    /// adopting the long-lived pool's cache keeps programs warm across
    /// batches. Sound because programs are keyed by structural fingerprint
    /// alone, never by loop.
    pub fn adopt_program_cache(&mut self, donor: &EvalPool<'_>) {
        self.programs = Arc::clone(&donor.programs);
    }

    /// The engine this pool evaluates with.
    pub fn engine(&self) -> EvalEngine {
        self.engine
    }

    /// Number of loops in the pool.
    pub fn len(&self) -> usize {
        match self.engine {
            EvalEngine::Interpreter => self.trees.len(),
            EvalEngine::Compiled => self.arenas.len(),
        }
    }

    /// True when the pool holds no loops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the compiled program for `expr`, compiling at most once per
    /// distinct structure.
    fn program(&self, expr: &FeatureExpr) -> Arc<Program> {
        let key = expr.fingerprint();
        if let Some(p) = self.programs.lock().get(&key) {
            self.program_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(p);
        }
        // Compile outside the lock: a slow compile must not stall other
        // threads' cache hits. A racing thread may compile the same
        // program; compilation is pure, so adopting either copy is fine.
        self.program_misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(Program::compile(expr));
        let mut programs = self.programs.lock();
        if let Some(p) = programs.get(&key) {
            return Arc::clone(p);
        }
        programs.insert(key, Arc::clone(&compiled));
        compiled
    }

    /// Evaluates `expr` on loop `idx` with the given budget.
    ///
    /// # Errors
    ///
    /// Same conditions as [`super::Evaluator::eval`]; identical outcomes
    /// for both engines.
    pub fn eval(&self, expr: &FeatureExpr, idx: usize, budget: u64) -> Result<f64, EvalError> {
        match self.engine {
            EvalEngine::Interpreter => {
                self.interp_evals.fetch_add(1, Ordering::Relaxed);
                expr.eval_with_budget(self.trees[idx], budget)
            }
            EvalEngine::Compiled => {
                let prog = self.program(expr);
                self.note_vm_evals(&prog, 1);
                prog.eval(&self.arenas[idx], budget)
            }
        }
    }

    /// Batches the evaluation counters: `n` evaluations of `prog`,
    /// attributed to its evaluation kind (observability only).
    fn note_vm_evals(&self, prog: &Program, n: u64) {
        self.vm_evals.fetch_add(n, Ordering::Relaxed);
        let tier = match prog.path() {
            ProgramPath::Fast => &self.fast_evals,
            ProgramPath::LoopNest => &self.plan_evals,
        };
        tier.fetch_add(n, Ordering::Relaxed);
    }

    /// Installs a cancellation token consulted by
    /// [`EvalPool::column_cancellable`]: a coordinator-initiated shutdown
    /// then interrupts an in-flight column between loops instead of
    /// waiting it out. Plain [`EvalPool::column`] is deliberately *not*
    /// affected — resume-time column recomputation and accept-path
    /// re-derivation must never be perturbed by cancellation timing.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Evaluates `expr` over every loop, applying the paper's discard rule:
    /// `None` as soon as any loop fails (budget exhaustion or non-finite
    /// value), otherwise the per-loop feature column.
    pub fn column(&self, expr: &FeatureExpr, budget: u64) -> Option<Vec<f64>> {
        self.column_inner(expr, budget, false)
    }

    /// [`EvalPool::column`], but bails out (returning `None`) between
    /// loops once the installed cancellation token flips. Only safe where
    /// a spurious `None` is discarded wholesale — the GP fitness path
    /// gates commits on the token, so a cancelled column can never be
    /// memoised as a genuine failure.
    pub fn column_cancellable(&self, expr: &FeatureExpr, budget: u64) -> Option<Vec<f64>> {
        self.column_inner(expr, budget, true)
    }

    fn column_inner(&self, expr: &FeatureExpr, budget: u64, cancellable: bool) -> Option<Vec<f64>> {
        let cancelled =
            || cancellable && self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        match self.engine {
            EvalEngine::Interpreter => {
                self.interp_evals
                    .fetch_add(self.trees.len() as u64, Ordering::Relaxed);
                let mut out = Vec::with_capacity(self.trees.len());
                for t in &self.trees {
                    if cancelled() {
                        return None;
                    }
                    out.push(expr.eval_with_budget(t, budget).ok()?);
                }
                Some(out)
            }
            EvalEngine::Compiled => {
                // One program fetch and one counter flush for the whole
                // column; the cancellation token is still consulted at
                // every cell boundary so shutdown latency is unchanged.
                let prog = self.program(expr);
                let mut out = Vec::with_capacity(self.arenas.len());
                for arena in &self.arenas {
                    if cancelled() {
                        self.note_vm_evals(&prog, out.len() as u64);
                        return None;
                    }
                    match prog.eval(arena, budget) {
                        Ok(v) => out.push(v),
                        Err(_) => {
                            self.note_vm_evals(&prog, out.len() as u64 + 1);
                            return None;
                        }
                    }
                }
                self.note_vm_evals(&prog, out.len() as u64);
                Some(out)
            }
        }
    }

    /// Snapshot of the pool's cumulative activity counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            vm_evals: self.vm_evals.load(Ordering::Relaxed),
            interp_evals: self.interp_evals.load(Ordering::Relaxed),
            fast_evals: self.fast_evals.load(Ordering::Relaxed),
            plan_evals: self.plan_evals.load(Ordering::Relaxed),
            program_hits: self.program_hits.load(Ordering::Relaxed),
            program_misses: self.program_misses.load(Ordering::Relaxed),
            program_evictions: self.programs.lock().evictions(),
        }
    }

    /// Publishes the pool's counters as `eval.*` telemetry gauges (the
    /// caller decides when to [`Telemetry::emit_metrics`]).
    pub fn record_telemetry(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        let s = self.stats();
        telemetry.gauge_set("eval.vm_evals", s.vm_evals as f64);
        telemetry.gauge_set("eval.interp_evals", s.interp_evals as f64);
        telemetry.gauge_set("eval.path_fast", s.fast_evals as f64);
        telemetry.gauge_set("eval.path_plan", s.plan_evals as f64);
        telemetry.gauge_set("eval.program_hits", s.program_hits as f64);
        telemetry.gauge_set("eval.program_misses", s.program_misses as f64);
        telemetry.gauge_set("eval.program_evictions", s.program_evictions as f64);
    }
}

impl std::fmt::Debug for EvalPool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalPool")
            .field("loops", &self.trees.len())
            .field("engine", &self.engine)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrNode;
    use crate::lang::eval::DEFAULT_BUDGET;
    use crate::lang::parse::parse_feature;

    fn sample_ir() -> IrNode {
        IrNode::build("loop", |l| {
            l.attr_num("num-iter", 49.0);
            l.child("basic-block", |b| {
                b.attr_num("loop-depth", 1.0);
                b.attr_bool("may-be-hot", true);
                b.child("insn", |i| {
                    i.attr_enum("mode", "SI");
                    i.child("set", |s| {
                        s.child("reg", |r| {
                            r.attr_enum("mode", "SI");
                        });
                        s.child("plus", |p| {
                            p.child("reg", |r| {
                                r.attr_enum("mode", "SI");
                            });
                            p.child("const_int", |c| {
                                c.attr_num("value", 4.0);
                            });
                        });
                    });
                });
                b.child("jump_insn", |_| {});
            });
        })
    }

    /// Every expression the interpreter's test battery exercises must agree
    /// between VM and interpreter — value, error and remaining-budget
    /// decisions alike.
    const BATTERY: &[&str] = &[
        "get-attr(@num-iter)",
        "get-attr(@no-such-attr)",
        "count(/*)",
        "count(//*)",
        "count(filter(//*, is-type(reg)))",
        "count(filter(//*, is-type(insn)))",
        "count(filter(//*, @mode==SI))",
        "count(filter(//*, @may-be-hot==true))",
        "count(filter(//*, @loop-depth==1))",
        "count(filter(//*, has-attr(@mode)))",
        "count(filter(//*, !has-attr(@mode)))",
        "count(filter(//*, is-type(reg) || is-type(const_int)))",
        "count(filter(//*, is-type(reg) && @mode==SI))",
        "count(filter(//*, is-type(insn) && /[0][is-type(set) && /[0][is-type(reg)]]))",
        "count(filter(//*, /[7][is-type(reg)]))",
        "sum(filter(//*, is-type(const_int)), get-attr(@value))",
        "max(//*, count(/*))",
        "min(//*, count(/*))",
        "avg(filter(//*, is-type(basic-block)), count(/*))",
        "sum(filter(//*, is-type(nonexistent-kind)), 1)",
        "max(filter(//*, is-type(nonexistent-kind)), 1)",
        "2 + 3 * 4",
        "count(//*) / 2",
        "5 / 0",
        "-count(/*)",
        "count(filter(//*, count(/*) > 1))",
        "count(filter(//*, 0.0 > count(/*)))",
        "sum(//*, sum(//*, count(//*)))",
        "avg(//*, get-attr(@value) * 2 - 1)",
        "min(filter(/*, has-attr(@loop-depth)), get-attr(@loop-depth))",
        // Loop-nest plan shapes: postings-driven outer loops, dynamic
        // predicates, nested aggregates in bodies and comparisons.
        "sum(filter(//*, is-type(reg)), count(/*) + 1)",
        "sum(filter(//*, has-attr(@mode)), get-attr(@value) + count(//*))",
        "avg(filter(//*, is-type(insn) && count(/*) > 0), sum(/*, count(/*)))",
        "max(filter(/*, count(/*) > 0), min(//*, get-attr(@value) * 2))",
        "count(filter(filter(//*, is-type(set)), count(//*) > 1))",
        "sum(filter(//*, is-type(reg) || /[0][count(/*) > 0]), 1)",
        "min(filter(//*, !(count(/*) > 2)), max(/*, get-attr(@value)) - 1)",
        // Shapes the general loops answer: a child probe that finds
        // children, a scan whose last element matches, children-base
        // attribute sums under a columnar sweep, and leaf bodies without a
        // closed form over `//*`.
        "count(filter(//*, /[0][is-type(set)]))",
        "count(filter(//*, is-type(jump_insn) || is-type(reg)))",
        "sum(//*, sum(/*, get-attr(@value)))",
        "avg(//*, avg(/*, get-attr(@value)))",
        "max(//*, get-attr(@value))",
        "min(//*, count(//*))",
        "avg(//*, count(//*))",
    ];

    #[test]
    fn vm_matches_interpreter_on_battery() {
        let ir = sample_ir();
        let arena = IrArena::from_tree(&ir);
        for src in BATTERY {
            let f = parse_feature(src).unwrap();
            let prog = Program::compile(&f);
            let want = f.eval_with_budget(&ir, DEFAULT_BUDGET);
            let got = prog.eval(&arena, DEFAULT_BUDGET);
            assert_eq!(got, want, "mismatch on {src}");
        }
    }

    #[test]
    fn vm_matches_interpreter_at_every_budget_boundary() {
        let ir = sample_ir();
        let arena = IrArena::from_tree(&ir);
        for src in BATTERY {
            let f = parse_feature(src).unwrap();
            let prog = Program::compile(&f);
            // Find the exact step cost with a generous budget, then probe
            // every interesting boundary.
            let spent = {
                let mut ev = crate::lang::Evaluator::new(DEFAULT_BUDGET);
                let _ = ev.eval(&f, &ir);
                DEFAULT_BUDGET - ev.remaining()
            };
            for budget in [0, 1, spent.saturating_sub(1), spent, spent + 1] {
                let want = f.eval_with_budget(&ir, budget);
                let got = prog.eval(&arena, budget);
                assert_eq!(got, want, "mismatch on {src} at budget {budget}");
            }
        }
    }

    #[test]
    fn pool_column_matches_interpreter_and_repeats() {
        let irs: Vec<IrNode> = (0..4)
            .map(|i| {
                let mut ir = sample_ir();
                ir.attr_num("num-iter", 10.0 + i as f64);
                ir
            })
            .collect();
        let pool = EvalPool::new(irs.iter(), EvalEngine::Compiled);
        let oracle = EvalPool::new(irs.iter(), EvalEngine::Interpreter);
        for src in BATTERY {
            let f = parse_feature(src).unwrap();
            assert_eq!(
                pool.column(&f, DEFAULT_BUDGET),
                oracle.column(&f, DEFAULT_BUDGET),
                "column mismatch on {src}"
            );
        }
        // A second pass reuses the pool's compiled programs and must still
        // agree.
        for src in BATTERY {
            let f = parse_feature(src).unwrap();
            assert_eq!(
                pool.column(&f, DEFAULT_BUDGET),
                oracle.column(&f, DEFAULT_BUDGET),
                "repeated column mismatch on {src}"
            );
        }
    }

    #[test]
    fn non_finite_results_are_detected_and_repeated() {
        let ir = sample_ir();
        let huge = format!("sum(//*, {0} * {0})", f64::MAX);
        let f = parse_feature(&huge).unwrap();
        let pool = EvalPool::new([&ir], EvalEngine::Compiled);
        assert_eq!(pool.eval(&f, 0, DEFAULT_BUDGET), Err(EvalError::NonFinite));
        // Repeated evaluations of the failing aggregate must agree with the
        // interpreter at tight budgets too.
        for budget in [0, 1, 5, 10, DEFAULT_BUDGET] {
            assert_eq!(
                pool.eval(&f, 0, budget),
                f.eval_with_budget(&ir, budget),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn repeated_evaluation_preserves_budget_decisions() {
        let ir = sample_ir();
        let f = parse_feature("sum(//*, count(//*))").unwrap();
        let pool = EvalPool::new([&ir], EvalEngine::Compiled);
        // First evaluate with a generous budget.
        let spent = {
            let mut ev = crate::lang::Evaluator::new(DEFAULT_BUDGET);
            let _ = ev.eval(&f, &ir);
            DEFAULT_BUDGET - ev.remaining()
        };
        assert!(pool.eval(&f, 0, DEFAULT_BUDGET).is_ok());
        // Repeats at boundary budgets must match the interpreter exactly:
        // below the exact cost they fail with BudgetExceeded, at or above
        // it they succeed.
        for budget in [0, spent - 1, spent, spent + 1] {
            assert_eq!(
                pool.eval(&f, 0, budget),
                f.eval_with_budget(&ir, budget),
                "budget {budget}"
            );
        }
    }

    /// `levels` nested `sum(//*, ... + 0)`: an `Arith` in every body keeps
    /// each level off the leaf forms, so every level is a genuine plan
    /// aggregate.
    fn deep_src(levels: usize) -> String {
        let mut s = String::from("1");
        for _ in 0..levels {
            s = format!("sum(//*, {s} + 0)");
        }
        s
    }

    /// Exact interpreter step cost of `f` on `ir`.
    fn exact_cost(f: &FeatureExpr, ir: &IrNode) -> u64 {
        let mut ev = crate::lang::Evaluator::new(DEFAULT_BUDGET);
        let _ = ev.eval(f, ir);
        DEFAULT_BUDGET - ev.remaining()
    }

    #[test]
    fn deep_nests_plan_and_match_interpreter() {
        let ir = sample_ir();
        let arena = IrArena::from_tree(&ir);
        for levels in [10, 20, 64] {
            let deep = deep_src(levels);
            let gate_src = format!("sum(filter(//*, is-type(basic-block)), {deep})");
            let accum_src = format!("sum(filter(//*, {deep} > 0), 1)");
            for src in [deep.as_str(), gate_src.as_str(), accum_src.as_str()] {
                let f = parse_feature(src).unwrap();
                let prog = Program::compile(&f);
                assert_eq!(prog.path(), ProgramPath::LoopNest);
                let spent = exact_cost(&f, &ir);
                for budget in [0, 1, spent - 1, spent] {
                    let want = f.eval_with_budget(&ir, budget);
                    assert_eq!(
                        prog.eval(&arena, budget),
                        want,
                        "{levels} levels, budget {budget}"
                    );
                    // A fresh pool compiles the program, the second column
                    // reuses it.
                    let pool = EvalPool::new([&ir], EvalEngine::Compiled);
                    for pass in ["compile", "reuse"] {
                        assert_eq!(
                            pool.column(&f, budget),
                            want.ok().map(|v| vec![v]),
                            "{levels} levels, budget {budget}, {pass}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pool_counts_execution_paths() {
        let ir = sample_ir();
        let pool = EvalPool::new([&ir], EvalEngine::Compiled);
        let fast = parse_feature("count(//*)").unwrap();
        let plan = parse_feature("sum(//*, 1 + get-attr(@value))").unwrap();
        let deep = parse_feature(&deep_src(10)).unwrap();
        assert_eq!(Program::compile(&fast).path(), ProgramPath::Fast);
        assert_eq!(Program::compile(&plan).path(), ProgramPath::LoopNest);
        assert_eq!(Program::compile(&deep).path(), ProgramPath::LoopNest);
        assert!(pool.column(&fast, DEFAULT_BUDGET).is_some());
        assert!(pool.column(&plan, DEFAULT_BUDGET).is_some());
        // Deep contexts have few descendants, so even the deep nest fits
        // the default budget on this small tree.
        assert!(pool.column(&deep, DEFAULT_BUDGET).is_some());
        let s = pool.stats();
        assert_eq!(s.fast_evals, 1);
        assert_eq!(s.plan_evals, 2);
        assert_eq!(s.vm_evals, 3);
    }
}
