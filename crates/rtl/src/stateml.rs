//! The hand-crafted loop features of Stephenson & Amarasinghe (paper
//! Figure 14) — the "stateML" comparison scheme.
//!
//! All 22 features are computed over the loop's RTL span. Dependence
//! heights use a forward pass that tracks, per register, the height of the
//! chain that last defined it (definitions from outside the loop count as
//! height zero), which matches the "dependence height of computations"
//! notion used by the original feature set.

use crate::func::{LoopRegion, RtlFunction};
use crate::node::{InsnBody, Mode, Rtx, RtxCode};
use std::collections::{HashMap, HashSet};

/// Names of the stateML features, in the order [`stateml_features`]
/// produces them (paper Figure 14).
pub const STATEML_FEATURE_NAMES: [&str; 22] = [
    "loop_nest_level",
    "num_ops",
    "num_float_ops",
    "num_branches",
    "num_memory_ops",
    "num_operands",
    "num_implicit_insns",
    "num_unique_predicates",
    "critical_path_latency",
    "est_cycle_length",
    "language",
    "num_parallel_computations",
    "max_dependence_height",
    "max_memory_dependence_height",
    "max_control_dependence_height",
    "avg_dependence_height",
    "num_indirect_refs",
    "min_mem_loop_carried_dep",
    "num_mem_to_mem_deps",
    "trip_count",
    "num_uses",
    "num_defs",
];

/// Value used for "no memory-to-memory loop-carried dependence".
const NO_MEM_DEP: f64 = 1e6;

/// Per-instruction issue latency used for the critical-path estimates
/// (kept consistent with the simulator's cost model in spirit; exactness
/// is not required — the original features were compiler estimates too).
fn latency(body: &InsnBody) -> u64 {
    match body {
        InsnBody::Set { dest, src } => {
            let mut lat = 1u64;
            if src.code == RtxCode::Mem {
                lat = 2;
            }
            src.visit(&mut |n| {
                let l = match (n.code, n.mode) {
                    (RtxCode::Mult, Mode::DF) => 5,
                    (RtxCode::Mult, _) => 4,
                    (RtxCode::Div, Mode::DF) => 30,
                    (RtxCode::Div, _) => 16,
                    (RtxCode::Mod, _) => 16,
                    (RtxCode::Plus | RtxCode::Minus, Mode::DF) => 3,
                    _ => 1,
                };
                lat = lat.max(l);
            });
            if dest.code == RtxCode::Mem {
                lat = lat.max(1);
            }
            lat
        }
        InsnBody::Call { .. } => 10,
        _ => 1,
    }
}

/// Computes the 22 stateML features for one loop.
pub fn stateml_features(func: &RtlFunction, region: &LoopRegion) -> Vec<f64> {
    let Some((start, end)) = func.loop_span(region) else {
        return vec![0.0; STATEML_FEATURE_NAMES.len()];
    };
    let span = &func.insns[start..end];

    let mut num_ops = 0usize;
    let mut num_float = 0usize;
    let mut num_branches = 0usize;
    let mut num_mem = 0usize;
    let mut num_operands = 0usize;
    let mut num_implicit = 0usize;
    let mut predicates: HashSet<String> = HashSet::new();
    let mut num_uses = 0usize;
    let mut num_defs = 0usize;
    let mut num_indirect = 0usize;
    let mut store_bases: HashSet<String> = HashSet::new();
    let mut load_bases: HashSet<String> = HashSet::new();

    // Dependence heights (unit and latency-weighted), forward pass.
    let mut height: HashMap<u32, u64> = HashMap::new();
    let mut lat_height: HashMap<u32, u64> = HashMap::new();
    let mut mem_height: HashMap<u32, u64> = HashMap::new();
    let mut regs_from_loads: HashSet<u32> = HashSet::new();
    let mut max_height = 0u64;
    let mut max_lat_height = 0u64;
    let mut max_mem_height = 0u64;
    let mut sum_height = 0u64;
    let mut n_height = 0u64;
    let mut total_latency = 0u64;

    for insn in span {
        match &*insn.body {
            InsnBody::Label(_) => continue,
            InsnBody::CondJump { cond, .. } => {
                num_branches += 1;
                predicates.insert(cond.to_string());
                let mut used = Vec::new();
                cond.regs_used(&mut used);
                num_uses += used.len();
                num_operands += cond.size().saturating_sub(1);
                continue;
            }
            InsnBody::Jump { .. } | InsnBody::Return { .. } => continue,
            InsnBody::Call { args, dest, .. } => {
                num_ops += 1;
                total_latency += latency(&insn.body);
                for a in args {
                    let mut used = Vec::new();
                    a.regs_used(&mut used);
                    num_uses += used.len();
                    num_operands += 1;
                }
                if let Some(d) = dest {
                    if let Some(r) = d.as_reg() {
                        num_defs += 1;
                        height.insert(r, 1);
                        lat_height.insert(r, latency(&insn.body));
                    }
                }
                continue;
            }
            InsnBody::Set { dest, src } => {
                num_ops += 1;
                let lat = latency(&insn.body);
                total_latency += lat;

                if src.contains_float() || dest.contains_float() {
                    num_float += 1;
                }
                let is_load = src.code == RtxCode::Mem;
                let is_store = dest.code == RtxCode::Mem;
                if is_load || is_store {
                    num_mem += 1;
                }
                if is_load {
                    if let Some(base) = mem_base(src) {
                        load_bases.insert(base);
                    }
                    // Indirect reference: the address depends on a register
                    // that itself came from a load in this loop.
                    let mut addr_regs = Vec::new();
                    src.ops[0].regs_used(&mut addr_regs);
                    if addr_regs.iter().any(|r| regs_from_loads.contains(r)) {
                        num_indirect += 1;
                    }
                }
                if is_store {
                    if let Some(base) = mem_base(dest) {
                        store_bases.insert(base);
                    }
                }
                // Implicit instructions: plain register copies.
                if src.code == RtxCode::Reg && dest.code == RtxCode::Reg {
                    num_implicit += 1;
                }

                // Uses / defs / operands.
                let mut used = Vec::new();
                src.regs_used(&mut used);
                if is_store {
                    dest.ops[0].regs_used(&mut used);
                }
                num_uses += used.len();
                num_operands += src.size();
                if let Some(r) = dest.as_reg() {
                    num_defs += 1;
                    // Height update.
                    let h = 1 + used.iter().map(|u| height.get(u).copied().unwrap_or(0)).max().unwrap_or(0);
                    let lh = lat
                        + used
                            .iter()
                            .map(|u| lat_height.get(u).copied().unwrap_or(0))
                            .max()
                            .unwrap_or(0);
                    let mh = u64::from(is_load)
                        + used
                            .iter()
                            .map(|u| mem_height.get(u).copied().unwrap_or(0))
                            .max()
                            .unwrap_or(0);
                    max_height = max_height.max(h);
                    max_lat_height = max_lat_height.max(lh);
                    max_mem_height = max_mem_height.max(mh);
                    sum_height += h;
                    n_height += 1;
                    height.insert(r, h);
                    lat_height.insert(r, lh);
                    mem_height.insert(r, mh);
                    if is_load {
                        regs_from_loads.insert(r);
                    } else {
                        regs_from_loads.remove(&r);
                    }
                }
            }
        }
    }

    let mem_to_mem: usize = store_bases.intersection(&load_bases).count();
    let min_mem_dep = if mem_to_mem > 0 { 0.0 } else { NO_MEM_DEP };
    let critical_path = max_lat_height.max(1);
    // Dual-issue bound vs. dependence bound.
    let est_cycle_len = (total_latency.div_ceil(2)).max(critical_path);
    let parallel = (num_ops as f64 / critical_path as f64).max(1.0).round();
    let avg_height = if n_height == 0 {
        0.0
    } else {
        sum_height as f64 / n_height as f64
    };
    let trip = region.trip_count().map_or(-1.0, |t| t as f64);

    vec![
        region.depth as f64,
        num_ops as f64,
        num_float as f64,
        num_branches as f64,
        num_mem as f64,
        num_operands as f64,
        num_implicit as f64,
        predicates.len() as f64,
        critical_path as f64,
        est_cycle_len as f64,
        0.0, // language: C
        parallel,
        max_height as f64,
        max_mem_height as f64,
        num_branches as f64, // control-dependence height ≈ branch nesting
        avg_height,
        num_indirect as f64,
        min_mem_dep,
        mem_to_mem as f64,
        trip,
        num_uses as f64,
        num_defs as f64,
    ]
}

/// The base symbol of a `mem` node's address, when it has one.
fn mem_base(mem: &Rtx) -> Option<String> {
    debug_assert_eq!(mem.code, RtxCode::Mem);
    let mut base = None;
    mem.ops[0].visit(&mut |n| {
        if n.code == RtxCode::SymbolRef {
            if let crate::node::RtxValue::Sym(s) = &n.value {
                base.get_or_insert_with(|| s.clone());
            }
        }
    });
    base
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

    fn features(src: &str) -> Vec<f64> {
        let p = lower(src);
        let f = &p.functions[0];
        stateml_features(f, f.loops.last().unwrap())
    }

    fn get(feats: &[f64], name: &str) -> f64 {
        let i = STATEML_FEATURE_NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown feature {name}"));
        feats[i]
    }

    #[test]
    fn has_22_features() {
        let f = features(
            "void f(int a[16]) { int i; for (i = 0; i < 16; i = i + 1) { a[i] = i; } }",
        );
        assert_eq!(f.len(), 22);
    }

    #[test]
    fn trip_count_and_nest_level() {
        let f = features(
            "void f(int m[4][4]) {\n\
               int i; int j;\n\
               for (i = 0; i < 4; i = i + 1) {\n\
                 for (j = 0; j < 4; j = j + 1) { m[i][j] = 0; }\n\
               }\n\
             }",
        );
        // Last loop in the list is the outer one.
        assert_eq!(get(&f, "loop_nest_level"), 1.0);
        assert_eq!(get(&f, "trip_count"), 4.0);
    }

    #[test]
    fn float_ops_counted() {
        let int_only = features(
            "void f(int a[8]) { int i; for (i = 0; i < 8; i = i + 1) { a[i] = i * 2; } }",
        );
        assert_eq!(get(&int_only, "num_float_ops"), 0.0);
        let floaty = features(
            "void f(float a[8]) { int i; for (i = 0; i < 8; i = i + 1) { a[i] = a[i] * 2.0; } }",
        );
        assert!(get(&floaty, "num_float_ops") >= 2.0);
    }

    #[test]
    fn memory_ops_and_mem_deps() {
        let f = features(
            "void f(int a[8], int b[8]) { int i; for (i = 0; i < 8; i = i + 1) { a[i] = b[i]; } }",
        );
        assert_eq!(get(&f, "num_memory_ops"), 2.0);
        // Load base b, store base a: no mem-to-mem dependence.
        assert_eq!(get(&f, "num_mem_to_mem_deps"), 0.0);
        assert_eq!(get(&f, "min_mem_loop_carried_dep"), 1e6);

        let g = features(
            "void f(int a[8]) { int i; for (i = 1; i < 8; i = i + 1) { a[i] = a[i - 1]; } }",
        );
        assert_eq!(get(&g, "num_mem_to_mem_deps"), 1.0);
        assert_eq!(get(&g, "min_mem_loop_carried_dep"), 0.0);
    }

    #[test]
    fn indirect_references_detected() {
        let f = features(
            "void f(int a[16], int idx[16]) {\n\
               int i; for (i = 0; i < 16; i = i + 1) { a[i] = a[idx[i]]; }\n\
             }",
        );
        assert_eq!(get(&f, "num_indirect_refs"), 1.0);
    }

    #[test]
    fn dependence_height_grows_with_chains() {
        let short = features(
            "void f(int a[8]) { int i; for (i = 0; i < 8; i = i + 1) { a[i] = 1; } }",
        );
        let long = features(
            "void f(int a[8], int x) {\n\
               int i; int t;\n\
               for (i = 0; i < 8; i = i + 1) { t = x + 1; t = t * t; t = t + i; a[i] = t; }\n\
             }",
        );
        assert!(
            get(&long, "max_dependence_height") > get(&short, "max_dependence_height"),
            "long {} vs short {}",
            get(&long, "max_dependence_height"),
            get(&short, "max_dependence_height")
        );
    }

    #[test]
    fn branches_and_predicates() {
        let f = features(
            "void f(int a[8]) {\n\
               int i;\n\
               for (i = 0; i < 8; i = i + 1) {\n\
                 if (a[i] > 0) { a[i] = 0; }\n\
                 if (a[i] < 0) { a[i] = 1; }\n\
               }\n\
             }",
        );
        // Loop condition + two ifs.
        assert_eq!(get(&f, "num_branches"), 3.0);
        assert!(get(&f, "num_unique_predicates") >= 2.0);
    }

    #[test]
    fn division_stretches_critical_path() {
        let div = features(
            "void f(int a[8]) { int i; for (i = 0; i < 8; i = i + 1) { a[i] = a[i] / 3; } }",
        );
        let add = features(
            "void f(int a[8]) { int i; for (i = 0; i < 8; i = i + 1) { a[i] = a[i] + 3; } }",
        );
        assert!(get(&div, "critical_path_latency") > get(&add, "critical_path_latency"));
    }
}
