//! Structural invariants of the RTL middle end, checked over generated
//! benchmarks before and after unrolling and inlining.

use fegen_rtl::cfg::Cfg;
use fegen_rtl::inline::{call_sites, inline_call};
use fegen_rtl::lower::lower_program;
use fegen_rtl::node::InsnBody;
use fegen_rtl::unroll::apply_factors;
use fegen_rtl::{RtlFunction, RtlProgram};
use fegen_suite::{generate_suite, SuiteConfig};
use std::collections::{HashMap, HashSet};

fn suite_programs() -> Vec<(String, RtlProgram)> {
    generate_suite(&SuiteConfig::tiny())
        .into_iter()
        .map(|b| {
            let rtl = lower_program(&b.program).expect("suite lowers");
            (b.name, rtl)
        })
        .collect()
}

/// Asserts the structural well-formedness every pass must preserve.
fn check_function(name: &str, f: &RtlFunction) {
    // 1. Labels unique, every branch target defined.
    let mut labels = HashSet::new();
    for insn in &f.insns {
        if let InsnBody::Label(l) = *insn.body {
            assert!(labels.insert(l), "{name}: duplicate label {l}");
        }
    }
    for insn in &f.insns {
        let target = match *insn.body {
            InsnBody::Jump { target } | InsnBody::CondJump { target, .. } => Some(target),
            _ => None,
        };
        if let Some(t) = target {
            assert!(labels.contains(&t), "{name}: dangling branch target {t}");
        }
    }
    // 2. Registers referenced are all allocated.
    for insn in &f.insns {
        let mut used = Vec::new();
        match &*insn.body {
            InsnBody::Set { dest, src } => {
                dest.regs_used(&mut used);
                src.regs_used(&mut used);
            }
            InsnBody::CondJump { cond, .. } => cond.regs_used(&mut used),
            InsnBody::Call { args, dest, .. } => {
                for a in args {
                    a.regs_used(&mut used);
                }
                if let Some(d) = dest {
                    d.regs_used(&mut used);
                }
            }
            InsnBody::Return { value: Some(v) } => v.regs_used(&mut used),
            _ => {}
        }
        for r in used {
            assert!(
                (r as usize) < f.reg_modes.len(),
                "{name}: register {r} out of range ({} allocated)",
                f.reg_modes.len()
            );
        }
    }
    // 3. CFG blocks partition the instruction list; edges are consistent.
    let cfg = Cfg::build(f);
    let mut covered = 0usize;
    for (k, b) in cfg.blocks.iter().enumerate() {
        assert_eq!(b.index, k);
        assert_eq!(b.start, covered, "{name}: blocks must tile the insns");
        covered = b.end;
        for &s in &b.succs {
            assert!(s < cfg.blocks.len());
            assert!(
                cfg.blocks[s].preds.contains(&k),
                "{name}: edge {k}->{s} missing reverse link"
            );
        }
    }
    if !f.insns.is_empty() {
        assert_eq!(covered, f.insns.len(), "{name}: trailing uncovered insns");
    }
    // 4. Natural-loop headers dominate their members.
    let doms = cfg.dominators();
    for l in cfg.natural_loops() {
        for &b in &l.blocks {
            assert!(
                doms[b].contains(&l.header),
                "{name}: loop header {} does not dominate member {b}",
                l.header
            );
        }
    }
    // 5. Structured loop regions (when intact) are properly nested spans.
    for region in &f.loops {
        if let Some((s, e)) = f.loop_span(region) {
            assert!(s < e, "{name}: inverted loop span");
        }
    }
}

#[test]
fn lowered_functions_are_well_formed() {
    for (name, rtl) in suite_programs() {
        for f in &rtl.functions {
            check_function(&format!("{name}::{}", f.name), f);
        }
    }
}

#[test]
fn unrolled_functions_stay_well_formed() {
    for (name, rtl) in suite_programs() {
        for f in &rtl.functions {
            // A deterministic-but-varied factor assignment per loop.
            let factors: HashMap<usize, usize> = f
                .loops
                .iter()
                .map(|l| (l.id, (l.id * 7 + f.insns.len()) % 16))
                .collect();
            let u = apply_factors(f, &factors)
                .unwrap_or_else(|e| panic!("{name}::{}: {e}", f.name));
            check_function(&format!("{name}::{} (unrolled)", f.name), &u);
        }
    }
}

#[test]
fn inlined_functions_stay_well_formed() {
    for (name, rtl) in suite_programs() {
        let func_names: Vec<String> = rtl.functions.iter().map(|f| f.name.clone()).collect();
        for fname in func_names {
            let f = rtl.function(&fname).expect("listed");
            for site in call_sites(f) {
                let inlined = match inline_call(&rtl, &fname, &site) {
                    Ok(p) => p,
                    Err(_) => continue,
                };
                for g in &inlined.functions {
                    check_function(&format!("{name}::{} (after inline)", g.name), g);
                }
            }
        }
    }
}

#[test]
fn unroll_then_inline_composition_is_well_formed() {
    // The transforms must compose: inline a callee, then unroll every loop
    // of the grown caller (including imported callee loops).
    for (name, rtl) in suite_programs() {
        let func_names: Vec<String> = rtl.functions.iter().map(|f| f.name.clone()).collect();
        for fname in &func_names {
            let f = rtl.function(fname).expect("listed");
            let Some(site) = call_sites(f).into_iter().next() else {
                continue;
            };
            let Ok(inlined) = inline_call(&rtl, fname, &site) else {
                continue;
            };
            let grown = inlined.function(fname).expect("caller survives");
            let factors: HashMap<usize, usize> =
                grown.loops.iter().map(|l| (l.id, 3)).collect();
            let u = apply_factors(grown, &factors)
                .unwrap_or_else(|e| panic!("{name}::{fname}: {e}"));
            check_function(&format!("{name}::{fname} (inline+unroll)"), &u);
        }
    }
}
