//! Export of loop RTL as feature-generator IR trees.
//!
//! "We extract the RTL representation of the loops, augmenting it to include
//! the structure of the basic blocks in the loop and the RTL instructions
//! contained within their blocks. We also export any information GCC can
//! compute at that time such as estimated block frequencies, loop depths,
//! and so on." (§VI)
//!
//! The exported tree for a loop looks like:
//!
//! ```text
//! (loop @num-iter @depth @simple @ninsns @num-branches)
//!   (basic-block @index @loop-depth @freq @may-be-hot @n-insns)
//!     (insn (set (reg @mode @regno) (plus @mode … (const_int @value))))
//!     (jump_insn (set (pc) (if_then_else (eq …) (label_ref) (pc))))
//!     …
//! ```
//!
//! `symbol_ref` nodes additionally carry a `var_decl` child describing the
//! referenced object's type (`array_type` over `integer_type` /
//! `real_type`), mirroring how the paper's exported RTL reaches into GCC's
//! tree-level type information (its found features test `is-type(var_decl)`,
//! `is-type(array_type)`, `is-type(real_type)`, …).

use crate::cfg::Cfg;
use crate::func::{LoopRegion, MemoryLayout, ParamKind, RtlFunction};
use crate::heuristic;
use crate::node::{InsnBody, Mode, Rtx, RtxCode, RtxValue};
use fegen_core::ir::IrNode;

/// Exports one loop of `func` (with its basic-block structure and analysis
/// attributes) as an [`IrNode`] tree.
pub fn export_loop(func: &RtlFunction, region: &LoopRegion, layout: &MemoryLayout) -> IrNode {
    let cfg = Cfg::build(func);
    let depths = cfg.loop_depths();
    let freqs = cfg.block_frequencies();

    let mut root = IrNode::new("loop");
    root.attr_num(
        "num-iter",
        region
            .trip_count()
            .map_or(heuristic::NITER_UNKNOWN, |t| t as f64),
    );
    root.attr_num("depth", region.depth as f64);
    root.attr_bool("simple", region.is_simple());
    root.attr_num("ninsns", func.loop_ninsns(region) as f64);
    root.attr_num(
        "num-branches",
        heuristic::num_loop_branches(func, region) as f64,
    );

    let Some((start, end)) = func.loop_span(region) else {
        return root;
    };

    for block in &cfg.blocks {
        // Blocks fully inside the loop span.
        if block.start < start || block.end > end || block.is_empty() {
            continue;
        }
        let mut bb = IrNode::new("basic-block");
        bb.attr_num("index", block.index as f64);
        bb.attr_num("loop-depth", depths[block.index] as f64);
        bb.attr_num("freq", freqs[block.index]);
        bb.attr_bool("may-be-hot", freqs[block.index] >= 10.0);
        bb.attr_num(
            "n-insns",
            func.insns[block.start..block.end]
                .iter()
                .filter(|i| !i.is_label())
                .count() as f64,
        );
        for insn in &func.insns[block.start..block.end] {
            bb.push_child(export_insn(insn, func, layout));
        }
        root.push_child(bb);
    }
    root
}

fn export_insn(
    insn: &crate::node::Insn,
    func: &RtlFunction,
    layout: &MemoryLayout,
) -> IrNode {
    let mut node = IrNode::new(insn.kind_name());
    node.attr_num("uid", f64::from(insn.uid));
    match &*insn.body {
        InsnBody::Label(l) => {
            node.attr_num("label", f64::from(*l));
        }
        InsnBody::Set { dest, src } => {
            let mut set = IrNode::new("set");
            set.push_child(export_rtx(dest, func, layout));
            set.push_child(export_rtx(src, func, layout));
            node.push_child(set);
        }
        InsnBody::CondJump { cond, target } => {
            let mut set = IrNode::new("set");
            set.child("pc", |_| {});
            let mut ite = IrNode::new("if_then_else");
            ite.push_child(export_rtx(cond, func, layout));
            ite.child("label_ref", |l| {
                l.attr_num("label", f64::from(*target));
            });
            ite.child("pc", |_| {});
            set.push_child(ite);
            node.push_child(set);
        }
        InsnBody::Jump { target } => {
            let mut set = IrNode::new("set");
            set.child("pc", |_| {});
            set.child("label_ref", |l| {
                l.attr_num("label", f64::from(*target));
            });
            node.push_child(set);
        }
        InsnBody::Call { name, args, dest } => {
            // Calls to functions that only read scalars cannot touch
            // memory — GCC marks such references `unchanging`.
            let scalar_only = args.iter().all(|a| a.code != RtxCode::SymbolRef);
            node.attr_bool("unchanging", scalar_only);
            let mut call = IrNode::new("call");
            call.child("symbol_ref", |s| {
                s.attr_enum("name", name.as_str());
            });
            for a in args {
                call.push_child(export_rtx(a, func, layout));
            }
            if let Some(d) = dest {
                let mut set = IrNode::new("set");
                set.push_child(export_rtx(d, func, layout));
                set.push_child(call);
                node.push_child(set);
            } else {
                node.push_child(call);
            }
        }
        InsnBody::Return { value } => {
            let mut ret = IrNode::new("return");
            if let Some(v) = value {
                ret.push_child(export_rtx(v, func, layout));
            }
            node.push_child(ret);
        }
    }
    node
}

fn export_rtx(rtx: &Rtx, func: &RtlFunction, layout: &MemoryLayout) -> IrNode {
    let mut node = IrNode::new(rtx.code.name());
    if rtx.mode != Mode::Void {
        node.attr_enum("mode", rtx.mode.name());
    }
    match &rtx.value {
        RtxValue::Int(v) => {
            node.attr_num("value", *v as f64);
            // GCC's RTL integers are `wide-int`s underneath; exporting the
            // representation node gives the grammar the `wide-int` kind the
            // paper's found features mention.
            node.child("wide-int", |w| {
                w.attr_num("value", *v as f64);
            });
        }
        RtxValue::Float(v) => {
            node.attr_num("value", *v);
        }
        RtxValue::Reg(r) => {
            node.attr_num("regno", f64::from(*r));
        }
        RtxValue::Sym(name) => {
            node.attr_enum("name", name.as_str());
            node.push_child(export_var_decl(name, func, layout));
        }
        RtxValue::None => {}
    }
    for op in &rtx.ops {
        node.push_child(export_rtx(op, func, layout));
    }
    node
}

/// Builds the `var_decl`/type annotation for a referenced symbol.
fn export_var_decl(name: &str, func: &RtlFunction, layout: &MemoryLayout) -> IrNode {
    let mut decl = IrNode::new("var_decl");
    decl.attr_enum("name", name);
    let info = layout.get(name).or_else(|| {
        // Array parameters are not in the layout; take the element mode
        // from the parameter declaration (extent unknown to the callee).
        func.params.iter().find_map(|p| match (&p.kind, p.name == name) {
            (ParamKind::Array { elem_mode }, true) => Some(crate::func::ArrayInfo {
                base: 0,
                len: 0,
                mode: *elem_mode,
            }),
            _ => None,
        })
    });
    match info {
        Some(info) if info.len == 1 => {
            // Global scalar.
            decl.push_child(scalar_type_node(info.mode));
        }
        Some(info) => {
            let mut arr = IrNode::new("array_type");
            if info.len > 0 {
                arr.attr_num("size", info.len as f64);
            }
            arr.push_child(scalar_type_node(info.mode));
            decl.push_child(arr);
        }
        None => {}
    }
    decl
}

fn scalar_type_node(mode: Mode) -> IrNode {
    match mode {
        Mode::DF => IrNode::new("real_type"),
        _ => IrNode::new("integer_type"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use crate::RtlProgram;
    use fegen_core::lang::parse_feature;

    fn lower(src: &str) -> RtlProgram {
        let ast = fegen_lang::parse_program(src).unwrap();
        lower_program(&ast).unwrap()
    }

    fn export_first_loop(src: &str) -> IrNode {
        let p = lower(src);
        let f = &p.functions[0];
        export_loop(f, &f.loops[0], &p.layout)
    }

    const SAMPLE: &str = "void f(float a[32], float b[32]) {\n\
                            int i;\n\
                            for (i = 0; i < 32; i = i + 1) { a[i] = a[i] * 2.0 + b[i]; }\n\
                          }";

    #[test]
    fn root_is_loop_with_analysis_attrs() {
        let ir = export_first_loop(SAMPLE);
        assert_eq!(ir.kind().as_str(), "loop");
        let f = parse_feature("get-attr(@num-iter)").unwrap();
        assert_eq!(f.eval_default(&ir).unwrap(), 32.0);
        let f = parse_feature("get-attr(@simple)").unwrap();
        assert_eq!(f.eval_default(&ir).unwrap(), 1.0);
    }

    #[test]
    fn children_are_basic_blocks() {
        let ir = export_first_loop(SAMPLE);
        assert!(!ir.children().is_empty());
        let f = parse_feature("count(filter(/*, is-type(basic-block)))").unwrap();
        assert_eq!(f.eval_default(&ir).unwrap(), ir.children().len() as f64);
    }

    #[test]
    fn paper_style_features_evaluate() {
        let ir = export_first_loop(SAMPLE);
        // Features in the spirit of the paper's Figure 16.
        for (src, expect_positive) in [
            ("count(filter(//*, is-type(reg)))", true),
            ("count(filter(//*, is-type(basic-block)))", true),
            ("count(filter(//*, is-type(mem)))", true),
            ("count(filter(//*, is-type(array_type)))", true),
            ("count(filter(//*, is-type(real_type)))", true),
            ("count(filter(//*, is-type(wide-int)))", true),
            ("count(filter(//*, is-type(le) && !has-attr(@mode)))", false),
            ("count(filter(//*, @mode==DF))", true),
            ("max(filter(/*, is-type(basic-block)), count(filter(//*, is-type(insn))))", true),
        ] {
            let f = parse_feature(src).unwrap();
            let v = f.eval_default(&ir).unwrap();
            if expect_positive {
                assert!(v > 0.0, "`{src}` evaluated to {v}\n{}", ir.dump());
            }
        }
    }

    #[test]
    fn jump_insns_export_if_then_else_shape() {
        let ir = export_first_loop(SAMPLE);
        let f =
            parse_feature("count(filter(//*, is-type(jump_insn) && /[0][is-type(set)]))").unwrap();
        assert!(f.eval_default(&ir).unwrap() >= 1.0);
        let g = parse_feature("count(filter(//*, is-type(if_then_else)))").unwrap();
        assert!(g.eval_default(&ir).unwrap() >= 1.0);
    }

    #[test]
    fn unknown_trip_count_exports_sentinel() {
        let ir = export_first_loop(
            "void f(int n) { int i; i = 0; while (i < n) { i = i + 1; } }",
        );
        let f = parse_feature("get-attr(@num-iter)").unwrap();
        let v = f.eval_default(&ir).unwrap();
        assert!(v > 1e17, "sentinel expected, got {v}");
    }

    #[test]
    fn call_insn_unchanging_attr() {
        let p = lower(
            "int sq(int x) { return x * x; }\n\
             void f(int a[16]) { int i; for (i = 0; i < 16; i = i + 1) { a[i] = sq(i); } }",
        );
        let f = p.function("f").unwrap();
        let ir = export_loop(f, &f.loops[0], &p.layout);
        let q = parse_feature(
            "count(filter(//*, is-type(call_insn) && has-attr(@unchanging)))",
        )
        .unwrap();
        assert_eq!(q.eval_default(&ir).unwrap(), 1.0);
    }

    #[test]
    fn grammar_derivation_over_export_is_rich() {
        let ir = export_first_loop(SAMPLE);
        let g = fegen_core::Grammar::derive([&ir]);
        let kinds: Vec<&str> = g.kinds().iter().map(|k| k.as_str()).collect();
        for expected in ["loop", "basic-block", "insn", "set", "reg", "mem", "plus"] {
            assert!(
                kinds.contains(&expected),
                "missing kind {expected}: {kinds:?}"
            );
        }
        assert!(!g.num_attrs().is_empty());
        assert!(!g.enum_attrs().is_empty());
    }
}
