//! Function inlining with explicit per-call-site decisions.
//!
//! The paper closes with: "Our system is generic … and is easily extended
//! to cover different data structures within any compiler. Future work
//! will investigate exploring different feature spaces for new
//! optimizations." This module provides that second optimization: an
//! inliner whose decision (inline or not, per call site) can be driven by
//! the same learned-heuristic machinery as the unroller — the experiment
//! lives in `fegen-bench`'s `ext_inlining` binary.
//!
//! The transform splices the callee's body at the call site with renamed
//! registers and labels; scalar arguments bind through fresh registers and
//! array arguments substitute the callee's parameter symbols.

use crate::func::{Bound, LoopRegion, RtlFunction, RtlProgram};
use crate::node::{Insn, InsnBody, LabelId, Rtx, RtxValue};
use std::collections::HashMap;
use std::fmt;

/// One call site within a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Uid of the `call_insn`.
    pub insn_uid: u32,
    /// Callee name.
    pub callee: String,
}

/// Inliner error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InlineError {
    /// The function or call site was not found.
    NoSuchSite,
    /// The callee does not exist in the program.
    UnknownCallee(String),
    /// Direct recursion cannot be inlined.
    Recursive(String),
}

impl fmt::Display for InlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InlineError::NoSuchSite => write!(f, "call site not found"),
            InlineError::UnknownCallee(n) => write!(f, "unknown callee `{n}`"),
            InlineError::Recursive(n) => write!(f, "cannot inline recursive call to `{n}`"),
        }
    }
}

impl std::error::Error for InlineError {}

/// Lists every call site of `func`, in instruction order.
pub fn call_sites(func: &RtlFunction) -> Vec<CallSite> {
    func.insns
        .iter()
        .filter_map(|i| match &*i.body {
            InsnBody::Call { name, .. } => Some(CallSite {
                insn_uid: i.uid,
                callee: name.clone(),
            }),
            _ => None,
        })
        .collect()
}

/// Substitutes register numbers, and array-parameter symbols, in an
/// expression tree.
fn rewrite_rtx(rtx: &Rtx, reg_offset: u32, symbols: &HashMap<String, String>) -> Rtx {
    let mut out = rtx.clone();
    out.ops = rtx
        .ops
        .iter()
        .map(|o| rewrite_rtx(o, reg_offset, symbols))
        .collect();
    match &mut out.value {
        RtxValue::Reg(r) => *r += reg_offset,
        RtxValue::Sym(s) => {
            if let Some(replacement) = symbols.get(s.as_str()) {
                *s = replacement.clone();
            }
        }
        _ => {}
    }
    out
}

/// Returns a copy of the program where the call at `site` inside function
/// `caller` is replaced by the callee's body.
///
/// Loop regions of the callee are appended to the caller's region list
/// (with fresh ids and labels, and depths adjusted by the call site's own
/// loop depth), so they remain individually unrollable afterwards.
///
/// # Errors
///
/// See [`InlineError`].
pub fn inline_call(
    program: &RtlProgram,
    caller_name: &str,
    site: &CallSite,
) -> Result<RtlProgram, InlineError> {
    if caller_name == site.callee {
        return Err(InlineError::Recursive(site.callee.clone()));
    }
    let callee = program
        .function(&site.callee)
        .ok_or_else(|| InlineError::UnknownCallee(site.callee.clone()))?
        .clone();
    let mut out = program.clone();
    let caller = out
        .function_mut(caller_name)
        .ok_or(InlineError::NoSuchSite)?;
    let call_index = caller
        .insns
        .iter()
        .position(|i| i.uid == site.insn_uid && matches!(*i.body, InsnBody::Call { .. }))
        .ok_or(InlineError::NoSuchSite)?;
    let InsnBody::Call { args, dest, .. } = InsnBody::clone(&caller.insns[call_index].body) else {
        return Err(InlineError::NoSuchSite);
    };

    // Renaming tables.
    let reg_offset = caller.reg_modes.len() as u32;
    caller.reg_modes.extend(callee.reg_modes.iter().copied());
    let mut label_map: HashMap<LabelId, LabelId> = HashMap::new();
    for insn in &callee.insns {
        if let InsnBody::Label(l) = *insn.body {
            label_map.insert(l, caller.fresh_label());
        }
    }
    let l_continue = caller.fresh_label();

    // Parameter binding.
    let mut symbols: HashMap<String, String> = HashMap::new();
    let mut prologue: Vec<InsnBody> = Vec::new();
    let mut scalar_args = args.iter();
    for p in &callee.params {
        match &p.kind {
            crate::func::ParamKind::Array { .. } => {
                let arg = scalar_args.next().expect("arity checked by sema");
                let RtxValue::Sym(sym) = &arg.value else {
                    return Err(InlineError::NoSuchSite);
                };
                symbols.insert(p.name.clone(), sym.clone());
            }
            crate::func::ParamKind::Scalar { mode, reg } => {
                let arg = scalar_args.next().expect("arity checked by sema");
                prologue.push(InsnBody::Set {
                    dest: Rtx::reg(*mode, reg + reg_offset),
                    src: arg.clone(),
                });
            }
        }
    }

    // Rewrite the callee body.
    let map_label = |l: LabelId| *label_map.get(&l).expect("labels collected");
    let mut body: Vec<InsnBody> = Vec::with_capacity(callee.insns.len());
    for insn in &callee.insns {
        let rewritten = match &*insn.body {
            InsnBody::Label(l) => InsnBody::Label(map_label(*l)),
            InsnBody::Set { dest, src } => InsnBody::Set {
                dest: rewrite_rtx(dest, reg_offset, &symbols),
                src: rewrite_rtx(src, reg_offset, &symbols),
            },
            InsnBody::CondJump { cond, target } => InsnBody::CondJump {
                cond: rewrite_rtx(cond, reg_offset, &symbols),
                target: map_label(*target),
            },
            InsnBody::Jump { target } => InsnBody::Jump {
                target: map_label(*target),
            },
            InsnBody::Call {
                name,
                args,
                dest,
            } => InsnBody::Call {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| rewrite_rtx(a, reg_offset, &symbols))
                    .collect(),
                dest: dest.as_ref().map(|d| rewrite_rtx(d, reg_offset, &symbols)),
            },
            InsnBody::Return { value } => {
                // Return becomes an assignment to the call destination (if
                // any) followed by a jump past the inlined body.
                if let (Some(d), Some(v)) = (&dest, value) {
                    body.push(InsnBody::Set {
                        dest: d.clone(),
                        src: rewrite_rtx(v, reg_offset, &symbols),
                    });
                }
                InsnBody::Jump { target: l_continue }
            }
        };
        body.push(rewritten);
    }

    // Depth of the call site inside the caller's loops.
    let site_depth = caller
        .loops
        .clone()
        .iter()
        .filter(|r| {
            caller
                .loop_span(r)
                .is_some_and(|(s, e)| s <= call_index && call_index < e)
        })
        .count();

    // Splice: prologue + body + continue label replace the call insn.
    let mut spliced: Vec<Insn> = Vec::with_capacity(prologue.len() + body.len() + 1);
    for b in prologue.into_iter().chain(body) {
        spliced.push(Insn::new(caller.fresh_uid(), b));
    }
    spliced.push(Insn::new(caller.fresh_uid(), InsnBody::Label(l_continue)));
    caller.insns.splice(call_index..=call_index, spliced);

    // Import the callee's loop regions.
    let next_id = caller.loops.len();
    for (k, region) in callee.loops.iter().enumerate() {
        caller.loops.push(LoopRegion {
            id: next_id + k,
            cond_label: map_label(region.cond_label),
            body_label: map_label(region.body_label),
            step_label: map_label(region.step_label),
            exit_label: map_label(region.exit_label),
            depth: region.depth + site_depth,
            induction: region.induction.map(|mut ind| {
                ind.reg += reg_offset;
                if let Bound::Reg(r) = ind.bound {
                    ind.bound = Bound::Reg(r + reg_offset);
                }
                ind
            }),
        });
    }
    Ok(out)
}

/// A GCC-style size heuristic: inline when the callee is small.
pub fn size_heuristic(callee: &RtlFunction, max_insns: usize) -> bool {
    callee.insns.iter().filter(|i| !i.is_label()).count() <= max_insns
}

/// Whether the callee body contains calls itself (used to stop cascades).
pub fn has_calls(func: &RtlFunction) -> bool {
    func.insns
        .iter()
        .any(|i| matches!(*i.body, InsnBody::Call { .. }))
}

/// Exports a call site for the feature generator: the call instruction,
/// the caller context (containing-loop depth, caller size) and the whole
/// callee body as IR.
pub fn export_call_site(
    program: &RtlProgram,
    caller: &RtlFunction,
    site: &CallSite,
) -> fegen_core::ir::IrNode {
    use fegen_core::ir::IrNode;
    let callee = program.function(&site.callee).expect("callee exists");
    let call_index = caller
        .insns
        .iter()
        .position(|i| i.uid == site.insn_uid)
        .expect("site in caller");
    let site_depth = caller
        .loops
        .iter()
        .filter(|r| {
            caller
                .loop_span(r)
                .is_some_and(|(s, e)| s <= call_index && call_index < e)
        })
        .count();
    let mut root = IrNode::new("call-site");
    root.attr_num("loop-depth", site_depth as f64);
    root.attr_num("caller-size", caller.insns.len() as f64);
    root.attr_num(
        "callee-size",
        callee.insns.iter().filter(|i| !i.is_label()).count() as f64,
    );
    root.attr_num("callee-loops", callee.loops.len() as f64);
    root.attr_bool("callee-has-calls", has_calls(callee));
    // The callee body as IR: reuse the loop exporter per region, plus a
    // flat body node for straight-line callees.
    let mut callee_node = IrNode::new("callee");
    for region in &callee.loops {
        callee_node.push_child(crate::export::export_loop(callee, region, &program.layout));
    }
    if callee.loops.is_empty() {
        let mut body = IrNode::new("basic-block");
        body.attr_num("n-insns", callee.insns.len() as f64);
        callee_node.push_child(body);
    }
    root.push_child(callee_node);
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;

    fn lower(src: &str) -> RtlProgram {
        let ast = fegen_lang::parse_program(src).unwrap();
        lower_program(&ast).unwrap()
    }

    const SRC: &str = "\
        int tab[32];\n\
        int clamp(int x) { if (x > 9) { return 9; } return x; }\n\
        int helper(int a, int b) { return a * 2 + b; }\n\
        void kernel(int n) {\n\
          int i;\n\
          for (i = 0; i < n; i = i + 1) { tab[i % 32] = clamp(helper(i, n)); }\n\
        }\n";

    #[test]
    fn call_sites_enumerated_in_order() {
        let p = lower(SRC);
        let kernel = p.function("kernel").unwrap();
        let sites = call_sites(kernel);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].callee, "helper");
        assert_eq!(sites[1].callee, "clamp");
    }

    #[test]
    fn inlining_removes_the_call_and_grows_the_caller() {
        let p = lower(SRC);
        let kernel = p.function("kernel").unwrap();
        let sites = call_sites(kernel);
        let inlined = inline_call(&p, "kernel", &sites[0]).unwrap();
        let new_kernel = inlined.function("kernel").unwrap();
        assert_eq!(call_sites(new_kernel).len(), 1, "one call remains");
        assert!(new_kernel.insns.len() > kernel.insns.len());
    }

    #[test]
    fn inlining_preserves_semantics() {
        use fegen_sim_free_check::*;
        let p = lower(SRC);
        let kernel = p.function("kernel").unwrap();
        let reference = run(&p);
        for site in call_sites(kernel) {
            let inlined = inline_call(&p, "kernel", &site).unwrap();
            assert_eq!(run(&inlined), reference, "inlining {site:?} changed results");
        }
        // Inline both, in sequence.
        let mut q = p.clone();
        while let Some(site) = call_sites(q.function("kernel").unwrap()).first().cloned() {
            q = inline_call(&q, "kernel", &site).unwrap();
        }
        assert_eq!(run(&q), reference);
        assert!(call_sites(q.function("kernel").unwrap()).is_empty());
    }

    /// Semantic check without depending on fegen-sim (dependency direction):
    /// a minimal RTL evaluator good enough for this test's programs.
    mod fegen_sim_free_check {
        use super::super::*;
        use crate::node::{Mode, RtxCode};

        pub fn run(program: &RtlProgram) -> Vec<i64> {
            let mut memory = vec![0i64; program.layout.total_cells() as usize];
            call(program, "kernel", &[20], &mut memory);
            memory
        }

        fn call(program: &RtlProgram, name: &str, args: &[i64], memory: &mut [i64]) -> i64 {
            let func = program.function(name).expect("function");
            let mut regs = vec![0i64; func.reg_modes.len()];
            let mut fregs = vec![0f64; func.reg_modes.len()];
            let mut next = 0usize;
            for p in &func.params {
                if let crate::func::ParamKind::Scalar { reg, .. } = p.kind {
                    regs[reg as usize] = args[next];
                    next += 1;
                }
            }
            let labels: HashMap<LabelId, usize> = func
                .insns
                .iter()
                .enumerate()
                .filter_map(|(i, insn)| match *insn.body {
                    InsnBody::Label(l) => Some((l, i)),
                    _ => None,
                })
                .collect();
            let mut pc = 0usize;
            let mut steps = 0u64;
            while pc < func.insns.len() {
                steps += 1;
                assert!(steps < 1_000_000, "runaway test program");
                match &*func.insns[pc].body {
                    InsnBody::Label(_) => pc += 1,
                    InsnBody::Set { dest, src } => {
                        let v = eval(program, src, &regs, &fregs, memory);
                        match dest.code {
                            RtxCode::Reg => {
                                let r = dest.as_reg().unwrap() as usize;
                                if dest.mode == Mode::DF {
                                    fregs[r] = v as f64;
                                } else {
                                    regs[r] = v;
                                }
                            }
                            RtxCode::Mem => {
                                let a =
                                    eval(program, &dest.ops[0], &regs, &fregs, memory) as usize;
                                memory[a] = v;
                            }
                            _ => unreachable!(),
                        }
                        pc += 1;
                    }
                    InsnBody::CondJump { cond, target } => {
                        if eval(program, cond, &regs, &fregs, memory) != 0 {
                            pc = labels[target];
                        } else {
                            pc += 1;
                        }
                    }
                    InsnBody::Jump { target } => pc = labels[target],
                    InsnBody::Call { name, args, dest } => {
                        let vals: Vec<i64> = args
                            .iter()
                            .filter(|a| a.code != RtxCode::SymbolRef)
                            .map(|a| eval(program, a, &regs, &fregs, memory))
                            .collect();
                        let r = call(program, name, &vals, memory);
                        if let Some(d) = dest {
                            regs[d.as_reg().unwrap() as usize] = r;
                        }
                        pc += 1;
                    }
                    InsnBody::Return { value } => {
                        return value
                            .as_ref()
                            .map_or(0, |v| eval(program, v, &regs, &fregs, memory));
                    }
                }
            }
            0
        }

        fn eval(
            program: &RtlProgram,
            rtx: &Rtx,
            regs: &[i64],
            fregs: &[f64],
            memory: &[i64],
        ) -> i64 {
            use RtxCode::*;
            match rtx.code {
                Reg => {
                    let r = rtx.as_reg().unwrap() as usize;
                    if rtx.mode == Mode::DF {
                        fregs[r] as i64
                    } else {
                        regs[r]
                    }
                }
                ConstInt => rtx.as_const_int().unwrap(),
                SymbolRef => match &rtx.value {
                    RtxValue::Sym(s) => program.layout.get(s).expect("symbol").base as i64,
                    _ => unreachable!(),
                },
                Mem => {
                    let a = eval(program, &rtx.ops[0], regs, fregs, memory) as usize;
                    memory[a]
                }
                Plus => {
                    eval(program, &rtx.ops[0], regs, fregs, memory)
                        + eval(program, &rtx.ops[1], regs, fregs, memory)
                }
                Minus => {
                    eval(program, &rtx.ops[0], regs, fregs, memory)
                        - eval(program, &rtx.ops[1], regs, fregs, memory)
                }
                Mult => {
                    eval(program, &rtx.ops[0], regs, fregs, memory)
                        * eval(program, &rtx.ops[1], regs, fregs, memory)
                }
                Mod => {
                    let b = eval(program, &rtx.ops[1], regs, fregs, memory);
                    if b == 0 {
                        0
                    } else {
                        eval(program, &rtx.ops[0], regs, fregs, memory) % b
                    }
                }
                Eq | Ne | Lt | Le | Gt | Ge => {
                    let a = eval(program, &rtx.ops[0], regs, fregs, memory);
                    let b = eval(program, &rtx.ops[1], regs, fregs, memory);
                    i64::from(match rtx.code {
                        Eq => a == b,
                        Ne => a != b,
                        Lt => a < b,
                        Le => a <= b,
                        Gt => a > b,
                        _ => a >= b,
                    })
                }
                _ => panic!("test evaluator does not support {:?}", rtx.code),
            }
        }
    }

    #[test]
    fn recursion_is_rejected() {
        let p = lower("int f(int x) { if (x > 0) { return f(x - 1); } return 0; }");
        let f = p.function("f").unwrap();
        let sites = call_sites(f);
        assert_eq!(
            inline_call(&p, "f", &sites[0]).unwrap_err(),
            InlineError::Recursive("f".into())
        );
    }

    #[test]
    fn inlined_callee_loops_stay_unrollable() {
        let src = "\
            int acc[64];\n\
            int summit(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + acc[i]; } return s; }\n\
            int outer(int n) { return summit(n) + summit(n); }\n";
        let p = lower(src);
        let outer = p.function("outer").unwrap();
        let sites = call_sites(outer);
        let inlined = inline_call(&p, "outer", &sites[0]).unwrap();
        let new_outer = inlined.function("outer").unwrap();
        assert_eq!(new_outer.loops.len(), 1, "callee loop imported");
        let region = &new_outer.loops[0];
        assert!(new_outer.loop_span(region).is_some(), "region labels resolve");
        assert!(region.is_simple(), "induction survived renumbering");
        // And the imported loop actually unrolls.
        let unrolled = crate::unroll::unroll_loop(new_outer, 0, 4).unwrap();
        assert!(unrolled.insns.len() > new_outer.insns.len());
    }

    #[test]
    fn call_site_depth_adjusts_imported_loops() {
        let src = "\
            int acc[64];\n\
            int summit(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + acc[i]; } return s; }\n\
            void outer(int n) { int j; for (j = 0; j < n; j = j + 1) { acc[j % 64] = summit(j); } }\n";
        let p = lower(src);
        let outer = p.function("outer").unwrap();
        let sites = call_sites(outer);
        let inlined = inline_call(&p, "outer", &sites[0]).unwrap();
        let new_outer = inlined.function("outer").unwrap();
        let imported = new_outer.loops.last().unwrap();
        assert_eq!(imported.depth, 2, "callee depth 1 + call-site depth 1");
    }

    #[test]
    fn export_call_site_shape() {
        let p = lower(SRC);
        let kernel = p.function("kernel").unwrap();
        let sites = call_sites(kernel);
        let ir = export_call_site(&p, kernel, &sites[1]);
        assert_eq!(ir.kind().as_str(), "call-site");
        let f = fegen_core::lang::parse_feature("get-attr(@callee-size)").unwrap();
        assert!(f.eval_default(&ir).unwrap() > 0.0);
        let d = fegen_core::lang::parse_feature("get-attr(@loop-depth)").unwrap();
        assert_eq!(d.eval_default(&ir).unwrap(), 1.0);
    }

    #[test]
    fn size_heuristic_thresholds() {
        let p = lower(SRC);
        assert!(size_heuristic(p.function("clamp").unwrap(), 16));
        assert!(!size_heuristic(p.function("kernel").unwrap(), 4));
    }
}
