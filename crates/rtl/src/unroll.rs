//! Loop unrolling with explicit per-loop factors.
//!
//! "We extended the compiler to allow unroll factors to be explicitly
//! specified for each loop in a program." (§V). A factor `f` replicates the
//! loop body `f` times per back edge (`0` and `1` both mean no change,
//! exactly as GCC's unroller treats them).
//!
//! Two strategies, mirroring GCC's RTL unroller:
//!
//! - **simple (counted) loops** — loops with a recognised induction unroll
//!   without internal exit tests: the new header checks that `f` full
//!   iterations remain (`i + (f−1)·step < bound`), the unrolled body runs
//!   `f` copies of body+step, and an **epilogue loop** (the original body,
//!   original labels) finishes the remaining iterations;
//! - **runtime loops** — everything else unrolls *with exits*: `f` copies of
//!   condition+body+step are chained, every condition still able to leave
//!   the loop, saving only the back-edge jumps.
//!
//! Label hygiene: labels defined inside a copied span get fresh names per
//! copy and intra-span branches are redirected; the original labels stay
//! with the epilogue (or first copy), which keeps nested
//! [`crate::func::LoopRegion`]s addressable — callers unroll innermost
//! loops first (see [`apply_factors`]).
//!
//! Copies share instruction bodies with the input function (see
//! [`Insn::body`]): a copied span bumps refcounts and builds a new body
//! only for a renamed `Label` and for a `Jump`/`CondJump` whose target it
//! renames.

use crate::func::{Bound, RtlFunction};
use crate::node::{Insn, InsnBody, LabelId, Mode, Rtx, RtxCode};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The largest factor the paper enumerates.
pub const MAX_FACTOR: usize = 15;

/// Error from the unroller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnrollError {
    /// No loop with the requested id.
    NoSuchLoop(usize),
    /// The loop's labels were not found (destroyed by another transform).
    BrokenRegion(usize),
}

impl fmt::Display for UnrollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnrollError::NoSuchLoop(id) => write!(f, "no loop with id {id}"),
            UnrollError::BrokenRegion(id) => write!(f, "loop {id} region labels missing"),
        }
    }
}

impl std::error::Error for UnrollError {}

/// Returns a copy of `func` with loop `loop_id` unrolled by `factor`.
///
/// # Errors
///
/// See [`UnrollError`].
pub fn unroll_loop(
    func: &RtlFunction,
    loop_id: usize,
    factor: usize,
) -> Result<RtlFunction, UnrollError> {
    let mut out = func.clone();
    unroll_in_place(&mut out, loop_id, factor)?;
    Ok(out)
}

/// Applies per-loop factors (`factors[loop.id]`; missing entries mean 0) to
/// every loop of `func`, innermost-first so nested regions stay valid.
///
/// # Errors
///
/// See [`UnrollError`].
pub fn apply_factors(
    func: &RtlFunction,
    factors: &HashMap<usize, usize>,
) -> Result<RtlFunction, UnrollError> {
    apply_factors_with(func, |id| factors.get(&id).copied().unwrap_or(0))
}

/// [`apply_factors`] with the factor of each loop id given by `factor_of`.
///
/// # Errors
///
/// See [`UnrollError`].
pub fn apply_factors_with(
    func: &RtlFunction,
    factor_of: impl Fn(usize) -> usize,
) -> Result<RtlFunction, UnrollError> {
    let mut out = func.clone();
    let mut order: Vec<(usize, usize)> = out
        .loops
        .iter()
        .map(|l| (l.id, l.depth))
        .collect();
    // Innermost (deepest) first; ties in reverse source order (later loops
    // first keeps earlier spans untouched).
    order.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
    for (id, _) in order {
        let factor = factor_of(id);
        if factor > 1 {
            unroll_in_place(&mut out, id, factor)?;
        }
    }
    Ok(out)
}

fn unroll_in_place(
    func: &mut RtlFunction,
    loop_id: usize,
    factor: usize,
) -> Result<(), UnrollError> {
    if factor <= 1 {
        return Ok(());
    }
    let region = func
        .loops
        .iter()
        .find(|l| l.id == loop_id)
        .ok_or(UnrollError::NoSuchLoop(loop_id))?
        .clone();
    let (idx_cond, idx_exit) = func
        .loop_span(&region)
        .ok_or(UnrollError::BrokenRegion(loop_id))?;
    let idx_body = func
        .label_index(region.body_label)
        .ok_or(UnrollError::BrokenRegion(loop_id))?;
    let idx_step = func
        .label_index(region.step_label)
        .ok_or(UnrollError::BrokenRegion(loop_id))?;
    if !(idx_cond < idx_body && idx_body < idx_step && idx_step < idx_exit) {
        return Err(UnrollError::BrokenRegion(loop_id));
    }

    // Spans (all relative to the original insn list).
    // cond: (idx_cond, idx_body)  — Label(Lcond) .. CondJump -> Lexit
    // body: (idx_body, idx_step)  — Label(Lbody) .. body insns
    // step: (idx_step, idx_exit)  — Label(Lstep) .. step insns, Jump Lcond
    let cond_insns: Vec<Insn> = func.insns[idx_cond + 1..idx_body].to_vec();
    let body_insns: Vec<Insn> = func.insns[idx_body..idx_step].to_vec();
    // Step without the trailing back-edge jump.
    let step_end = idx_exit - 1;
    debug_assert!(matches!(*func.insns[step_end].body, InsnBody::Jump { .. }));
    let step_insns: Vec<Insn> = func.insns[idx_step..step_end].to_vec();

    let mut new_span: Vec<Insn> = Vec::new();
    match region.induction {
        Some(ind) => {
            // ---- Simple counted loop: guarded unroll + epilogue. ----
            let l_epi_cond = func.fresh_label();
            let lookahead = func.fresh_reg(Mode::SI);
            let guard = func.fresh_reg(Mode::SI);

            // Runtime trip count: GCC's unroller materialises the
            // iteration count and its remainder modulo the factor in the
            // preheader — an integer division executed once per loop
            // entry. Placed before the header label so only entries (not
            // back edges) pay for it.
            if region.trip_count().is_none() {
                let span_reg = func.fresh_reg(Mode::SI);
                let rem_reg = func.fresh_reg(Mode::SI);
                let bound_rtx = match ind.bound {
                    Bound::Const(c) => Rtx::const_int(c),
                    Bound::Reg(r) => Rtx::reg(Mode::SI, r),
                };
                push(
                    func,
                    &mut new_span,
                    InsnBody::Set {
                        dest: Rtx::reg(Mode::SI, span_reg),
                        src: Rtx::binary(
                            RtxCode::Minus,
                            Mode::SI,
                            bound_rtx,
                            Rtx::reg(Mode::SI, ind.reg),
                        ),
                    },
                );
                push(
                    func,
                    &mut new_span,
                    InsnBody::Set {
                        dest: Rtx::reg(Mode::SI, rem_reg),
                        src: Rtx::binary(
                            RtxCode::Mod,
                            Mode::SI,
                            Rtx::reg(Mode::SI, span_reg),
                            Rtx::const_int((factor as i64) * ind.step),
                        ),
                    },
                );
            }

            // Lcond: t = i + (f-1)*step; if !(t < bound) goto epi.
            push(func, &mut new_span, InsnBody::Label(region.cond_label));
            push(
                func,
                &mut new_span,
                InsnBody::Set {
                    dest: Rtx::reg(Mode::SI, lookahead),
                    src: Rtx::binary(
                        RtxCode::Plus,
                        Mode::SI,
                        Rtx::reg(Mode::SI, ind.reg),
                        Rtx::const_int((factor as i64 - 1) * ind.step),
                    ),
                },
            );
            let bound_rtx = match ind.bound {
                Bound::Const(c) => Rtx::const_int(c),
                Bound::Reg(r) => Rtx::reg(Mode::SI, r),
            };
            let cmp_code = if ind.inclusive {
                RtxCode::Le
            } else {
                RtxCode::Lt
            };
            push(
                func,
                &mut new_span,
                InsnBody::Set {
                    dest: Rtx::reg(Mode::SI, guard),
                    src: Rtx::binary(cmp_code, Mode::SI, Rtx::reg(Mode::SI, lookahead), bound_rtx),
                },
            );
            push(
                func,
                &mut new_span,
                InsnBody::CondJump {
                    cond: Rtx::binary(
                        RtxCode::Eq,
                        Mode::SI,
                        Rtx::reg(Mode::SI, guard),
                        Rtx::const_int(0),
                    ),
                    target: l_epi_cond,
                },
            );
            // f copies of body + step, fresh labels per copy.
            for _copy in 0..factor {
                let renamed = copy_span_fresh(func, &body_insns);
                new_span.extend(renamed);
                let renamed = copy_span_fresh(func, &step_insns);
                new_span.extend(renamed);
            }
            push(
                func,
                &mut new_span,
                InsnBody::Jump {
                    target: region.cond_label,
                },
            );
            // Epilogue: the original loop, new header label.
            push(func, &mut new_span, InsnBody::Label(l_epi_cond));
            for insn in &cond_insns {
                push(func, &mut new_span, Arc::clone(&insn.body));
            }
            new_span.extend(body_insns.iter().cloned());
            new_span.extend(step_insns.iter().cloned());
            push(
                func,
                &mut new_span,
                InsnBody::Jump { target: l_epi_cond },
            );
        }
        None => {
            // ---- Runtime loop: unroll with exits. ----
            // Copy 1 keeps the original labels.
            push(func, &mut new_span, InsnBody::Label(region.cond_label));
            new_span.extend(cond_insns.iter().cloned());
            new_span.extend(body_insns.iter().cloned());
            new_span.extend(step_insns.iter().cloned());
            // Copies 2..f get fresh labels.
            for _copy in 1..factor {
                let renamed = copy_span_fresh(func, &cond_insns);
                new_span.extend(renamed);
                let renamed = copy_span_fresh(func, &body_insns);
                new_span.extend(renamed);
                let renamed = copy_span_fresh(func, &step_insns);
                new_span.extend(renamed);
            }
            push(
                func,
                &mut new_span,
                InsnBody::Jump {
                    target: region.cond_label,
                },
            );
        }
    }

    // Splice: replace [idx_cond, idx_exit) with the new span (the exit
    // label stays in place).
    func.insns.splice(idx_cond..idx_exit, new_span);
    Ok(())
}

fn push(func: &mut RtlFunction, out: &mut Vec<Insn>, body: impl Into<Arc<InsnBody>>) {
    let uid = func.fresh_uid();
    out.push(Insn {
        uid,
        body: body.into(),
    });
}

/// Copies a span, renaming labels *defined inside it* (and branches to
/// them) to fresh labels; branches to outside labels are preserved. Every
/// other body is shared with `span`.
fn copy_span_fresh(func: &mut RtlFunction, span: &[Insn]) -> Vec<Insn> {
    // A span defines a handful of labels: a linear scan beats hashing.
    let mut rename: Vec<(LabelId, LabelId)> = Vec::new();
    for insn in span {
        if let InsnBody::Label(l) = *insn.body {
            rename.push((l, func.fresh_label()));
        }
    }
    let renamed = |l: LabelId| {
        rename
            .iter()
            .find(|(from, _)| *from == l)
            .map(|&(_, to)| to)
    };
    span.iter()
        .map(|insn| {
            let body = match &*insn.body {
                InsnBody::Label(l) => renamed(*l).map(InsnBody::Label),
                InsnBody::Jump { target } => {
                    renamed(*target).map(|target| InsnBody::Jump { target })
                }
                InsnBody::CondJump { cond, target } => {
                    renamed(*target).map(|target| InsnBody::CondJump {
                        cond: cond.clone(),
                        target,
                    })
                }
                _ => None,
            };
            Insn {
                uid: func.fresh_uid(),
                body: body.map_or_else(|| Arc::clone(&insn.body), Arc::new),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use crate::RtlProgram;

    fn lower(src: &str) -> RtlProgram {
        let ast = fegen_lang::parse_program(src).unwrap();
        lower_program(&ast).unwrap()
    }

    fn count_jumps(f: &RtlFunction) -> usize {
        f.insns
            .iter()
            .filter(|i| matches!(*i.body, InsnBody::Jump { .. } | InsnBody::CondJump { .. }))
            .count()
    }

    #[test]
    fn factor_zero_and_one_are_noops() {
        let p = lower("void f(int a[16]) { int i; for (i = 0; i < 16; i = i + 1) { a[i] = i; } }");
        let f = &p.functions[0];
        assert_eq!(&unroll_loop(f, 0, 0).unwrap(), f);
        assert_eq!(&unroll_loop(f, 0, 1).unwrap(), f);
    }

    #[test]
    fn simple_loop_grows_with_factor_and_has_epilogue() {
        let p = lower("void f(int a[64]) { int i; for (i = 0; i < 64; i = i + 1) { a[i] = i; } }");
        let f = &p.functions[0];
        let u4 = unroll_loop(f, 0, 4).unwrap();
        let u8 = unroll_loop(f, 0, 8).unwrap();
        assert!(u4.insns.len() > f.insns.len());
        assert!(u8.insns.len() > u4.insns.len());
        // The epilogue duplicates the original cond/body once; body appears
        // factor + 1 times in total (count stores).
        let stores = |f: &RtlFunction| {
            f.insns
                .iter()
                .filter(|i| {
                    matches!(&*i.body, InsnBody::Set { dest, .. } if dest.code == RtxCode::Mem)
                })
                .count()
        };
        assert_eq!(stores(&u4), 5);
        assert_eq!(stores(&u8), 9);
    }

    #[test]
    fn runtime_loop_unrolls_with_exits() {
        let p = lower(
            "void f(int n) { int i; i = 0; while (i < n) { i = i + 1; } }",
        );
        let f = &p.functions[0];
        let u3 = unroll_loop(f, 0, 3).unwrap();
        // Three exit tests (cond jumps) remain, plus one back edge.
        assert!(count_jumps(&u3) > count_jumps(f));
        let cond_jumps = u3
            .insns
            .iter()
            .filter(|i| matches!(*i.body, InsnBody::CondJump { .. }))
            .count();
        assert_eq!(cond_jumps, 3, "{}", u3.dump());
    }

    #[test]
    fn unknown_loop_id_errors() {
        let p = lower("void f() { }");
        assert_eq!(
            unroll_loop(&p.functions[0], 3, 2).unwrap_err(),
            UnrollError::NoSuchLoop(3)
        );
    }

    #[test]
    fn labels_remain_unique_after_unrolling() {
        let p = lower(
            "void f(int a[64], int n) {\n\
               int i;\n\
               for (i = 0; i < n; i = i + 1) {\n\
                 if (a[i] > 0) { a[i] = 0; } else { a[i] = 1; }\n\
               }\n\
             }",
        );
        let u = unroll_loop(&p.functions[0], 0, 6).unwrap();
        let mut seen = std::collections::HashSet::new();
        for insn in &u.insns {
            if let InsnBody::Label(l) = *insn.body {
                assert!(seen.insert(l), "duplicate label {l}:\n{}", u.dump());
            }
        }
        // Every jump target resolves.
        for insn in &u.insns {
            let target = match *insn.body {
                InsnBody::Jump { target } | InsnBody::CondJump { target, .. } => Some(target),
                _ => None,
            };
            if let Some(t) = target {
                assert!(u.label_index(t).is_some(), "dangling label {t}");
            }
        }
    }

    #[test]
    fn nested_inner_then_outer_unrolling_keeps_labels_unique() {
        let p = lower(
            "void f(int m[8][8]) {\n\
               int i; int j;\n\
               for (i = 0; i < 8; i = i + 1) {\n\
                 for (j = 0; j < 8; j = j + 1) { m[i][j] = i + j; }\n\
               }\n\
             }",
        );
        let f = &p.functions[0];
        // Inner loop has id 0 (recorded first), outer id 1.
        let factors = HashMap::from([(0usize, 4usize), (1usize, 2usize)]);
        let u = apply_factors(f, &factors).unwrap();
        let mut seen = std::collections::HashSet::new();
        for insn in &u.insns {
            if let InsnBody::Label(l) = *insn.body {
                assert!(seen.insert(l), "duplicate label {l}");
            }
        }
        assert!(u.insns.len() > f.insns.len() * 3);
    }

    /// Asserts that `out`, unrolled from `input`, allocated a body only
    /// where unrolling must: a label, jump or conditional jump it renamed
    /// or synthesised, and guard arithmetic on fresh registers. Every other
    /// body of `out`, and every `Set`/`Call`/`Return` body of `input`, is
    /// shared with `input`.
    fn assert_bodies_shared(input: &RtlFunction, out: &RtlFunction) {
        let shared = |b: &Arc<InsnBody>| input.insns.iter().any(|i| Arc::ptr_eq(&i.body, b));
        let fresh_label = |l: LabelId| l >= input.next_label;
        let fresh_reg = |r: &Rtx| {
            r.as_reg()
                .is_some_and(|r| r as usize >= input.reg_modes.len())
        };
        let cond_labels: Vec<LabelId> = input.loops.iter().map(|l| l.cond_label).collect();
        let mut allocated = 0;
        for insn in out.insns.iter().filter(|i| !shared(&i.body)) {
            let allowed = match &*insn.body {
                InsnBody::Label(l) | InsnBody::Jump { target: l } => {
                    fresh_label(*l) || cond_labels.contains(l)
                }
                InsnBody::CondJump { target, .. } => fresh_label(*target),
                InsnBody::Set { dest, .. } => fresh_reg(dest),
                _ => false,
            };
            assert!(allowed, "unshared body `{insn}` in\n{}", out.dump());
            allocated += 1;
        }
        for insn in &input.insns {
            if matches!(
                *insn.body,
                InsnBody::Set { .. } | InsnBody::Call { .. } | InsnBody::Return { .. }
            ) {
                assert!(
                    out.insns.iter().any(|o| Arc::ptr_eq(&o.body, &insn.body)),
                    "input body `{insn}` was copied, not shared"
                );
            }
        }
        // Most of the unrolled function is shared.
        assert!(
            allocated * 2 < out.insns.len(),
            "{allocated} of {}",
            out.insns.len()
        );
    }

    #[test]
    fn unrolled_copies_share_unrelabelled_bodies() {
        let nested = lower(
            "void f(int m[8][8], int n) {\n\
               int i; int j;\n\
               for (i = 0; i < n; i = i + 1) {\n\
                 for (j = 0; j < 8; j = j + 1) {\n\
                   if (m[i][j] > 3) { m[i][j] = i + j; }\n\
                 }\n\
               }\n\
             }",
        );
        let f = &nested.functions[0];
        assert!(f.loops.iter().all(|l| l.induction.is_some()));
        let u = apply_factors(f, &HashMap::from([(0usize, 4usize), (1usize, 3usize)])).unwrap();
        assert_bodies_shared(f, &u);
        // The unrolled function's clone shares every body.
        let c = u.clone();
        assert!(c
            .insns
            .iter()
            .zip(&u.insns)
            .all(|(a, b)| Arc::ptr_eq(&a.body, &b.body)));

        let runtime = lower(
            "void f(int a[64], int n) {\n\
               int i; i = 0;\n\
               while (i < n) { if (a[i] > 0) { a[i] = 0; } i = i + 1; }\n\
             }",
        );
        let f = &runtime.functions[0];
        assert!(f.loops[0].induction.is_none());
        let u = apply_factors(f, &HashMap::from([(0usize, 5usize)])).unwrap();
        assert_bodies_shared(f, &u);
        // Each of the five copies keeps its exit test, and the four fresh
        // copies share it: its target (the exit label) is not renamed.
        let exit = f.loops[0].exit_label;
        let exits: Vec<&Insn> = u
            .insns
            .iter()
            .filter(|i| matches!(*i.body, InsnBody::CondJump { target, .. } if target == exit))
            .collect();
        assert_eq!(exits.len(), 5, "{}", u.dump());
        assert!(exits.iter().all(|i| Arc::ptr_eq(&i.body, &exits[0].body)));
    }

    #[test]
    fn apply_factors_with_empty_map_is_noop() {
        let p = lower("void f(int a[8]) { int i; for (i = 0; i < 8; i = i + 1) { a[i] = 1; } }");
        let f = &p.functions[0];
        assert_eq!(&apply_factors(f, &HashMap::new()).unwrap(), f);
    }
}
