//! Pins the simulator's cycle accounting to recorded values.
//!
//! The fork ≡ scratch tests compare the interpreter with itself, so a
//! change to how instructions are executed could shift every cycle count
//! and still pass them. This file compares against numbers recorded from
//! an earlier, independently written interpreter:
//!
//! - the tiny suite: every loop site's 16 cycle values (scratch and
//!   forked paths) and each benchmark's baseline run — cycles, executed
//!   instructions, D- and I-cache misses and mispredictions —
//!   against `fixtures/cycle_golden_tiny.txt`;
//! - the quick suite: a digest of the same data (release builds only; a
//!   debug build would take minutes);
//! - error parity on hand-built RTL: the error, the executed-instruction
//!   count and the cache and predictor counters at the point of failure.
//!
//! A deliberate change to the cost model changes these numbers; re-record
//! the fixture and the digest in the same change and say why.

use fegen_lang::parse_program;
use fegen_rtl::lower::lower_program;
use fegen_rtl::node::{InsnBody, Rtx, RtxValue};
use fegen_rtl::RtlProgram;
use fegen_sim::oracle::{
    kernel_functions, loop_sites, measure_site, relevant_kernel_calls, CallSpec, OracleConfig,
    ProgramSnapshot, Workload,
};
use fegen_sim::{Arg, Machine, SimConfig};
use fegen_suite::{generate_suite, ArgDesc, CallDesc, SuiteConfig};
use std::fmt::Write;
use std::sync::Arc;

const TINY_FIXTURE: &str = "tests/fixtures/cycle_golden_tiny.txt";

/// FNV-1a digest of the quick suite's rendering (see [`render_suite`]).
const QUICK_DIGEST: u64 = 0xc233_c40d_e63b_ce65;

fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn calls(descs: &[CallDesc]) -> Vec<CallSpec> {
    descs
        .iter()
        .map(|c| CallSpec {
            func: c.func.clone(),
            args: c
                .args
                .iter()
                .map(|a| match a {
                    ArgDesc::Int(v) => Arg::Int(*v),
                    ArgDesc::Float(v) => Arg::Float(*v),
                    ArgDesc::Array(n) => Arg::Array(n.clone()),
                })
                .collect(),
        })
        .collect()
}

/// The counters a machine exposes, as one fixture field list.
fn counters(m: &Machine<'_>) -> String {
    format!(
        "cycles={} insns={} dmiss={} imiss={} mispredicts={}",
        m.total_cycles(),
        m.insns_executed(),
        m.dcache_misses(),
        m.icache_misses(),
        m.mispredicts()
    )
}

/// Renders every benchmark of `suite`: its baseline run, then every loop
/// site's cycle table. With `scratch`, each table is also measured on the
/// scratch path and must equal the forked one.
fn render_suite(suite: &SuiteConfig, scratch: bool) -> String {
    let config = OracleConfig::default();
    let mut out = String::new();
    for b in generate_suite(suite) {
        let program = lower_program(&b.program).expect("suite lowers");
        let workload = Workload {
            init: calls(&b.init),
            kernels: calls(&b.kernels),
        };
        let mut m = Machine::new(&program, config.sim.clone());
        let baseline = workload
            .init
            .iter()
            .chain(&workload.kernels)
            .try_for_each(|c| m.call(&c.func, &c.args).map(drop));
        match baseline {
            Ok(()) => writeln!(out, "bench {} {}", b.name, counters(&m)),
            Err(e) => writeln!(out, "bench {} error {e}", b.name),
        }
        .unwrap();
        let kernel_funcs = kernel_functions(&program, &workload);
        let snapshot = ProgramSnapshot::build(&program, &kernel_funcs, &workload, &config)
            .expect("snapshot builds");
        for site in loop_sites(&program, &workload) {
            let relevant = relevant_kernel_calls(&program, &workload, &site.func);
            let forked: Result<Vec<u64>, _> = (0..=config.max_factor)
                .map(|k| snapshot.fork(&site, k, &relevant))
                .collect();
            if scratch {
                let from_scratch = measure_site(&program, &workload, &kernel_funcs, &site, &config)
                    .map(|t| t.cycles.iter().map(|&c| c as u64).collect::<Vec<_>>());
                assert_eq!(from_scratch, forked, "fork diverged from scratch at {site}");
            }
            match forked {
                Ok(cycles) => {
                    let cycles: Vec<String> = cycles.iter().map(u64::to_string).collect();
                    writeln!(out, "site {site} {}", cycles.join(" "))
                }
                Err(e) => writeln!(out, "site {site} error {e}"),
            }
            .unwrap();
        }
    }
    out
}

fn lower(src: &str) -> RtlProgram {
    lower_program(&parse_program(src).expect("parses")).expect("lowers")
}

/// Runs `name(args)` on a fresh machine and renders the outcome with the
/// machine's counters at the point it stopped.
fn outcome(program: &RtlProgram, config: SimConfig, name: &str, args: &[Arg]) -> String {
    let mut m = Machine::new(program, config);
    let result = m.call(name, args);
    format!("{result:?} {}", counters(&m))
}

/// A kernel with a helper call, loads, stores and a data-dependent branch
/// inside its loop: enough shapes for the instruction limit to land in
/// every position of a block, a callee and a call's argument evaluation.
const LIMIT_KERNEL: &str = "\
    int a[64];\n\
    int g(int x) { return x * 3 + a[x % 64]; }\n\
    void f(int n) { int i; int s; s = 0;\n\
      for (i = 0; i < n; i = i + 1) {\n\
        if (i % 3 == 0) { s = s + g(i); } else { s = s - a[i % 64]; }\n\
        a[i % 64] = s;\n\
      }\n\
    }\n";

/// Hand-built error cases: the program, the call, and the outcome
/// rendering. The RTL is lowered from source and then edited, so each
/// case reaches its error through real instruction shapes.
fn error_cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();

    // The instruction limit at every count from 0 to 150, then a few
    // larger ones: the run must stop at exactly `limit + 1` executed
    // instructions with the same partial cache and predictor state.
    let program = lower(LIMIT_KERNEL);
    for limit in (0..=150).chain([999, 1_000, 1_001, 4_096, 7_777]) {
        let config = SimConfig {
            max_insns: limit,
            ..SimConfig::default()
        };
        let result = outcome(&program, config, "f", &[Arg::Int(500)]);
        cases.push((format!("limit{limit}"), result));
    }

    // A jump to a label that does not exist fails only when taken.
    let mut program = lower(LIMIT_KERNEL);
    let f = program.function_mut("f").unwrap();
    let jump = f
        .insns
        .iter()
        .rposition(|i| matches!(*i.body, InsnBody::Jump { .. }))
        .unwrap();
    f.insns[jump].body = Arc::new(InsnBody::Jump { target: 999 });
    cases.push((
        "bad_label".into(),
        outcome(&program, SimConfig::default(), "f", &[Arg::Int(10)]),
    ));
    // The same label on a conditional jump that is never taken.
    let mut program = lower("int f(int x) { if (x > 100) { x = x + 1; } return x; }");
    let f = program.function_mut("f").unwrap();
    for insn in &mut f.insns {
        if let InsnBody::CondJump { target, .. } = Arc::make_mut(&mut insn.body) {
            *target = 999;
        }
    }
    cases.push((
        "bad_label_untaken".into(),
        outcome(&program, SimConfig::default(), "f", &[Arg::Int(500)]),
    ));
    cases.push((
        "bad_label_taken".into(),
        outcome(&program, SimConfig::default(), "f", &[Arg::Int(5)]),
    ));

    // A symbol that names no allocation, in a callee.
    let mut program = lower(LIMIT_KERNEL);
    rename_symbols(program.function_mut("g").unwrap(), "a", "nosuch");
    cases.push((
        "unknown_symbol".into(),
        outcome(&program, SimConfig::default(), "f", &[Arg::Int(10)]),
    ));
    // An unknown symbol in code that never runs is not an error.
    let mut program = lower("int a[4]; int f(int x) { if (x > 100) { x = a[1]; } return x; }");
    rename_symbols(program.function_mut("f").unwrap(), "a", "nosuch");
    cases.push((
        "unknown_symbol_dead".into(),
        outcome(&program, SimConfig::default(), "f", &[Arg::Int(5)]),
    ));

    // Unbounded recursion hits the call-depth limit.
    let mut program = lower("int g(int x) { return x + 1; }\nint f(int x) { return g(x) * 2; }");
    let g = program.function_mut("g").unwrap();
    let ret = g.insns.len() - 1;
    let reg = g.reg_modes.len() as u32;
    g.reg_modes.push(fegen_rtl::node::Mode::SI);
    g.insns.insert(
        ret,
        fegen_rtl::node::Insn::new(
            900,
            InsnBody::Call {
                name: "g".into(),
                args: vec![Rtx::const_int(1)],
                dest: Some(Rtx::reg(fegen_rtl::node::Mode::SI, reg)),
            },
        ),
    );
    cases.push((
        "call_depth".into(),
        outcome(&program, SimConfig::default(), "f", &[Arg::Int(3)]),
    ));

    // Calls to functions that do not exist, at top level and inside.
    let program = lower(LIMIT_KERNEL);
    cases.push((
        "unknown_function_top".into(),
        outcome(&program, SimConfig::default(), "nosuch", &[]),
    ));
    let mut program = lower(LIMIT_KERNEL);
    for insn in &mut program.function_mut("f").unwrap().insns {
        if let InsnBody::Call { name, .. } = Arc::make_mut(&mut insn.body) {
            *name = "nosuch".into();
        }
    }
    cases.push((
        "unknown_function_inner".into(),
        outcome(&program, SimConfig::default(), "f", &[Arg::Int(10)]),
    ));

    // Bad arguments: wrong arity and kind at top level, an array argument
    // that is not a symbol, and a value taken from a void callee.
    let program = lower("int b[4]; int s(int v[4], int k) { return v[k]; }");
    cases.push((
        "bad_arity_top".into(),
        outcome(&program, SimConfig::default(), "s", &[Arg::Int(1)]),
    ));
    cases.push((
        "bad_kind_top".into(),
        outcome(
            &program,
            SimConfig::default(),
            "s",
            &[Arg::Int(1), Arg::Int(2)],
        ),
    ));
    cases.push((
        "unknown_array_top".into(),
        outcome(
            &program,
            SimConfig::default(),
            "s",
            &[Arg::Array("nosuch".into()), Arg::Int(2)],
        ),
    ));
    let mut program = lower(
        "int b[4]; int s(int v[4], int k) { return v[k]; }\n\
         int f(int x) { return s(b, x) + x; }",
    );
    for insn in &mut program.function_mut("f").unwrap().insns {
        if let InsnBody::Call { args, .. } = Arc::make_mut(&mut insn.body) {
            args[0] = Rtx::const_int(0);
        }
    }
    cases.push((
        "array_arg_not_symbol".into(),
        outcome(&program, SimConfig::default(), "f", &[Arg::Int(1)]),
    ));
    let mut program = lower("void v(int x) { x = x + 1; }\nint f(int x) { v(x); return x; }");
    let f = program.function_mut("f").unwrap();
    let reg = f.reg_modes.len() as u32;
    f.reg_modes.push(fegen_rtl::node::Mode::SI);
    for insn in &mut f.insns {
        if let InsnBody::Call { dest, .. } = Arc::make_mut(&mut insn.body) {
            *dest = Some(Rtx::reg(fegen_rtl::node::Mode::SI, reg));
        }
    }
    cases.push((
        "void_value".into(),
        outcome(&program, SimConfig::default(), "f", &[Arg::Int(1)]),
    ));

    // Out-of-range memory access.
    let program = lower("int a[4]; int f(int i) { return a[i]; }");
    cases.push((
        "bad_address".into(),
        outcome(&program, SimConfig::default(), "f", &[Arg::Int(-9)]),
    ));
    cases
}

fn rename_symbols(f: &mut fegen_rtl::RtlFunction, from: &str, to: &str) {
    fn walk(rtx: &mut Rtx, from: &str, to: &str) {
        if let RtxValue::Sym(s) = &mut rtx.value {
            if s == from {
                *s = to.to_owned();
            }
        }
        for op in &mut rtx.ops {
            walk(op, from, to);
        }
    }
    for insn in &mut f.insns {
        match Arc::make_mut(&mut insn.body) {
            InsnBody::Set { dest, src } => {
                walk(dest, from, to);
                walk(src, from, to);
            }
            InsnBody::CondJump { cond, .. } => walk(cond, from, to),
            InsnBody::Call { args, .. } => args.iter_mut().for_each(|a| walk(a, from, to)),
            InsnBody::Return { value: Some(v) } => walk(v, from, to),
            _ => {}
        }
    }
}

fn render_all() -> String {
    let mut out = render_suite(&SuiteConfig::tiny(), true);
    for (name, result) in error_cases() {
        writeln!(out, "case {name} {result}").unwrap();
    }
    out
}

#[test]
fn tiny_suite_and_error_cases_match_the_recorded_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(TINY_FIXTURE);
    let expected = std::fs::read_to_string(&path).expect("fixture present");
    let actual = render_all();
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {} differs", line + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "fixture line count differs"
    );
}

#[test]
fn error_cases_fail_with_the_expected_errors() {
    let cases: std::collections::HashMap<String, String> = error_cases().into_iter().collect();
    let starts = |name: &str, prefix: &str| {
        let got = &cases[name];
        assert!(got.starts_with(prefix), "{name}: {got}");
    };
    for (name, got) in &cases {
        if let Some(limit) = name.strip_prefix("limit") {
            let limit: u64 = limit.parse().unwrap();
            let insns = format!(" insns={} ", limit + 1);
            assert!(
                got.starts_with("Err(InsnLimit) ") && got.contains(&insns),
                "{name}: {got}"
            );
        }
    }
    starts("bad_label", "Err(BadLabel(999))");
    starts("bad_label_untaken", "Ok(Some(I(501)))");
    starts("bad_label_taken", "Err(BadLabel(999))");
    starts("unknown_symbol", "Err(UnknownSymbol(\"nosuch\"))");
    starts("unknown_symbol_dead", "Ok(Some(I(5)))");
    starts("call_depth", "Err(CallDepth)");
    starts("unknown_function_top", "Err(UnknownFunction(\"nosuch\"))");
    starts("unknown_function_inner", "Err(UnknownFunction(\"nosuch\"))");
    starts("bad_arity_top", "Err(BadArguments(");
    starts("bad_kind_top", "Err(BadArguments(");
    starts("unknown_array_top", "Err(UnknownSymbol(\"nosuch\"))");
    starts("array_arg_not_symbol", "Err(BadArguments(");
    starts("void_value", "Err(BadArguments(");
    starts("bad_address", "Err(BadAddress(");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "quick-suite digest runs in release builds")]
fn quick_suite_digest_matches_the_recorded_one() {
    let rendering = render_suite(&SuiteConfig::quick(), false);
    assert_eq!(
        fnv1a(&rendering),
        QUICK_DIGEST,
        "quick-suite cycle digest changed ({} lines)",
        rendering.lines().count()
    );
}
