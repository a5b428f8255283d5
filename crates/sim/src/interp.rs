//! The RTL interpreter with cycle accounting.
//!
//! [`Machine`] executes lowered [`fegen_rtl::RtlProgram`]s and attributes
//! cycles to the function executing them (exclusive of callees) — the
//! paper's measurements record "the number of cycles required to execute
//! the function containing the loop that had been altered" (§V).
//!
//! Cycle accounting = static block costs (see [`crate::cost`]) charged on
//! every block entry, plus dynamic penalties: D-cache misses on actual
//! addresses, I-cache misses on the block's code footprint, and branch
//! mispredictions from a two-bit predictor.
//!
//! The machine executes the flat micro-ops of [`crate::image`], one
//! decoded image per function; it never walks RTL expression trees.

use crate::cache::{BranchPredictor, Cache};
use crate::cost::CostModel;
use crate::image::{function_index, Conv, FuncImage, Op, Slot, INSN_BYTES};
use fegen_rtl::func::ParamKind;
use fegen_rtl::node::Mode;
use fegen_rtl::{RtlFunction, RtlProgram};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer.
    I(i64),
    /// Float.
    F(f64),
}

impl Value {
    /// Integer view (floats truncate).
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::F(v) => v as i64,
        }
    }

    /// Float view.
    pub fn as_f(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::F(v) => v,
        }
    }

    /// Truthiness (non-zero).
    pub fn is_true(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::F(v) => v != 0.0,
        }
    }
}

/// An argument to [`Machine::call`].
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Scalar integer.
    Int(i64),
    /// Scalar float.
    Float(f64),
    /// Array argument: the name of an allocated array (global or
    /// `func::local`).
    Array(String),
}

/// Simulator error.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No function with that name.
    UnknownFunction(String),
    /// A `symbol_ref` did not resolve to an allocated array.
    UnknownSymbol(String),
    /// A memory access fell outside the allocated image.
    BadAddress(i64),
    /// The instruction budget was exhausted (runaway loop).
    InsnLimit,
    /// Call depth exceeded (unexpected recursion).
    CallDepth,
    /// A jump targeted a label that does not exist.
    BadLabel(u32),
    /// Wrong number or kind of arguments.
    BadArguments(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            SimError::UnknownSymbol(n) => write!(f, "unknown symbol `{n}`"),
            SimError::BadAddress(a) => write!(f, "memory access out of range at cell {a}"),
            SimError::InsnLimit => write!(f, "instruction limit exceeded"),
            SimError::CallDepth => write!(f, "call depth exceeded"),
            SimError::BadLabel(l) => write!(f, "jump to unknown label {l}"),
            SimError::BadArguments(m) => write!(f, "bad arguments: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Pipeline cost constants.
    pub model: CostModel,
    /// D-cache lines (×64-byte lines; 256 = 16 KiB).
    pub dcache_lines: usize,
    /// I-cache lines (×64-byte lines).
    pub icache_lines: usize,
    /// Branch-predictor entries.
    pub bp_entries: usize,
    /// Abort after this many executed instructions.
    pub max_insns: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            model: CostModel::default(),
            dcache_lines: 256,
            icache_lines: 256,
            bp_entries: 512,
            max_insns: 200_000_000,
            max_depth: 64,
        }
    }
}

const LINE_BYTES: u64 = 64;

/// The decoded images of every function of one program, in program
/// order, with the name index calls resolve through. Built once per
/// program (or per benchmark snapshot) and shared by every machine that
/// simulates it.
#[derive(Debug)]
pub(crate) struct ProgramImage {
    funcs: Vec<Arc<FuncImage>>,
    names: Arc<HashMap<String, u32>>,
}

impl ProgramImage {
    /// Decodes every function of `program` under `model`.
    pub(crate) fn build(program: &RtlProgram, model: &CostModel) -> ProgramImage {
        let names = function_index(program);
        let funcs = program
            .functions
            .iter()
            .map(|f| Arc::new(FuncImage::build(program, &names, f, model)))
            .collect();
        ProgramImage {
            funcs,
            names: Arc::new(names),
        }
    }

    /// Decodes `overlay` as a replacement for the program's function of
    /// the same name. The overlay must keep that function's parameters:
    /// the other images were decoded against them.
    ///
    /// # Panics
    ///
    /// Panics if `program` has no function named like the overlay, or its
    /// parameters differ.
    pub(crate) fn decode_overlay(
        &self,
        program: &RtlProgram,
        overlay: &RtlFunction,
        model: &CostModel,
    ) -> FuncImage {
        let original = self
            .names
            .get(&overlay.name)
            .map(|&i| &program.functions[i as usize])
            .expect("the overlay replaces a function of the program");
        assert_eq!(
            original.params, overlay.params,
            "an overlay must keep its function's parameters"
        );
        FuncImage::build(program, &self.names, overlay, model)
    }
}

/// The mutable simulation state of a [`Machine`] at one point in time:
/// memory image, cache and predictor contents, and cycle/instruction
/// counters. Exported after a benchmark's `init` calls and handed to
/// per-factor fork machines, it lets a measurement campaign simulate
/// initialisation once instead of once per factor — sound only when the
/// fork would replay init at identical code addresses (the eligibility
/// test lives in [`crate::oracle::ProgramSnapshot`]).
#[derive(Debug, Clone)]
pub(crate) struct MachineState {
    memory: Vec<u64>,
    dcache: Cache,
    icache: Cache,
    bp: BranchPredictor,
    cycles: Vec<u64>,
    total_cycles: u64,
    insns_executed: u64,
}

impl MachineState {
    /// Instructions executed up to the export point.
    pub(crate) fn insns_executed(&self) -> u64 {
        self.insns_executed
    }
}

/// The simulated machine: decoded program, memory image, caches,
/// predictor and per-function cycle counters.
pub struct Machine<'p> {
    program: &'p RtlProgram,
    /// Function images in program order (empty while a call runs: the
    /// executor borrows them beside the mutable state).
    funcs: Vec<Arc<FuncImage>>,
    names: Arc<HashMap<String, u32>>,
    /// Byte address of each function's first instruction.
    code_base: Vec<u64>,
    /// Memory image: one 8-byte cell per array element.
    pub memory: Vec<u64>,
    dcache: Cache,
    icache: Cache,
    bp: BranchPredictor,
    /// Exclusive cycles per function index.
    cycles: Vec<u64>,
    total_cycles: u64,
    insns_executed: u64,
    /// Spare call frames, reused across calls.
    frames: Vec<Vec<Value>>,
    config: SimConfig,
}

impl<'p> fmt::Debug for Machine<'p> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("functions", &self.code_base.len())
            .field("memory_cells", &self.memory.len())
            .field("total_cycles", &self.total_cycles)
            .field("insns_executed", &self.insns_executed)
            .finish()
    }
}

impl<'p> Machine<'p> {
    /// Prepares a machine for `program`: decodes every function (micro-ops
    /// and static block costs) and zeroes memory.
    pub fn new(program: &'p RtlProgram, config: SimConfig) -> Machine<'p> {
        let image = ProgramImage::build(program, &config.model);
        Machine::fork(program, &image, None, None, config)
    }

    /// A machine over `image` (decoded from `program`), with `overlay`
    /// (when `Some`) substituted for the function of the same name, and
    /// starting from `state` (when `Some`) instead of zeroed memory and
    /// cold caches.
    ///
    /// Code addresses are assigned sequentially over the substituted
    /// function list in program order, exactly as [`Machine::new`] would
    /// lay out a materialized variant program — so I-cache and
    /// branch-predictor behaviour is identical to simulating that variant.
    ///
    /// # Panics
    ///
    /// Panics if `state` comes from a machine with a different memory
    /// layout.
    pub(crate) fn fork(
        program: &'p RtlProgram,
        image: &ProgramImage,
        overlay: Option<(&str, Arc<FuncImage>)>,
        state: Option<&MachineState>,
        config: SimConfig,
    ) -> Machine<'p> {
        let mut funcs = image.funcs.clone();
        if let Some((name, img)) = overlay {
            for (slot, f) in funcs.iter_mut().zip(&program.functions) {
                if f.name == name {
                    *slot = Arc::clone(&img);
                }
            }
        }
        let mut code_base = Vec::with_capacity(funcs.len());
        let mut next = 0u64;
        for f in &funcs {
            code_base.push(next);
            next += (f.n_insns as u64 + 8) * INSN_BYTES;
        }
        let cells = program.layout.total_cells() as usize;
        let state = match state {
            Some(s) => {
                assert_eq!(
                    s.memory.len(),
                    cells,
                    "machine state from a different memory layout"
                );
                assert_eq!(
                    s.cycles.len(),
                    funcs.len(),
                    "machine state from a different program"
                );
                s.clone()
            }
            None => MachineState {
                memory: vec![0u64; cells],
                dcache: Cache::new(config.dcache_lines, LINE_BYTES as usize),
                icache: Cache::new(config.icache_lines, LINE_BYTES as usize),
                bp: BranchPredictor::new(config.bp_entries),
                cycles: vec![0u64; funcs.len()],
                total_cycles: 0,
                insns_executed: 0,
            },
        };
        let MachineState {
            memory,
            dcache,
            icache,
            bp,
            cycles,
            total_cycles,
            insns_executed,
        } = state;
        Machine {
            program,
            funcs,
            names: Arc::clone(&image.names),
            code_base,
            memory,
            dcache,
            icache,
            bp,
            cycles,
            total_cycles,
            insns_executed,
            frames: Vec::new(),
            config,
        }
    }

    /// Calls `name` with `args`; returns the function's return value.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn call(&mut self, name: &str, args: &[Arg]) -> Result<Option<Value>, SimError> {
        let f = *self
            .names
            .get(name)
            .ok_or_else(|| SimError::UnknownFunction(name.to_owned()))?;
        let program = self.program;
        let func = &program.functions[f as usize];
        if args.len() != func.params.len() {
            return Err(SimError::BadArguments(format!(
                "`{name}` expects {} arguments, got {}",
                func.params.len(),
                args.len()
            )));
        }
        let image = Arc::clone(&self.funcs[f as usize]);
        let mut frame = self.frames.pop().unwrap_or_default();
        frame.clear();
        frame.extend_from_slice(&image.template);
        for ((p, a), &slot) in func.params.iter().zip(args).zip(&image.param_slots) {
            frame[slot as usize] = match (&p.kind, a) {
                (ParamKind::Scalar { mode, .. }, Arg::Int(v)) => {
                    Conv::of(*mode).apply(Value::I(*v))
                }
                (ParamKind::Scalar { mode, .. }, Arg::Float(v)) => {
                    Conv::of(*mode).apply(Value::F(*v))
                }
                (ParamKind::Array { .. }, Arg::Array(sym)) => {
                    let info = program
                        .layout
                        .get(sym)
                        .ok_or_else(|| SimError::UnknownSymbol(sym.clone()))?;
                    Value::I(info.base as i64)
                }
                _ => {
                    return Err(SimError::BadArguments(format!(
                        "argument for `{}` has the wrong kind",
                        p.name
                    )))
                }
            };
        }
        let funcs = std::mem::take(&mut self.funcs);
        let result = self.invoke(&funcs, f, &mut frame, 0);
        self.funcs = funcs;
        self.frames.push(frame);
        result
    }

    /// Cycles attributed (exclusively) to function `name` so far.
    pub fn cycles_of(&self, name: &str) -> u64 {
        self.names.get(name).map_or(0, |&f| self.cycles[f as usize])
    }

    /// Total cycles across all functions.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Total instructions executed.
    pub fn insns_executed(&self) -> u64 {
        self.insns_executed
    }

    /// Snapshots the machine's mutable state (memory, caches, predictor,
    /// counters) to start forks from (see [`Machine::fork`]).
    pub(crate) fn export_state(&self) -> MachineState {
        MachineState {
            memory: self.memory.clone(),
            dcache: self.dcache.clone(),
            icache: self.icache.clone(),
            bp: self.bp.clone(),
            cycles: self.cycles.clone(),
            total_cycles: self.total_cycles,
            insns_executed: self.insns_executed,
        }
    }

    /// Branch mispredictions so far.
    pub fn mispredicts(&self) -> u64 {
        self.bp.mispredicts()
    }

    /// D-cache misses so far.
    pub fn dcache_misses(&self) -> u64 {
        self.dcache.misses()
    }

    /// I-cache misses so far.
    pub fn icache_misses(&self) -> u64 {
        self.icache.misses()
    }

    /// Reads one cell of an allocated array (for checking results).
    ///
    /// # Errors
    ///
    /// `UnknownSymbol` / `BadAddress` when the array or index is invalid.
    pub fn read_array(&self, name: &str, index: usize) -> Result<Value, SimError> {
        let info = self
            .program
            .layout
            .get(name)
            .ok_or_else(|| SimError::UnknownSymbol(name.to_owned()))?;
        if index >= info.len {
            return Err(SimError::BadAddress(index as i64));
        }
        let bits = self.memory[(info.base + index as u64) as usize];
        Ok(match info.mode {
            Mode::DF => Value::F(f64::from_bits(bits)),
            _ => Value::I(bits as i64),
        })
    }

    /// Runs function `f` on `frame` (its template, parameters bound) and
    /// returns its result. Cycles are charged to `f` only when it returns.
    fn invoke(
        &mut self,
        funcs: &[Arc<FuncImage>],
        f: u32,
        frame: &mut [Value],
        depth: usize,
    ) -> Result<Option<Value>, SimError> {
        if depth >= self.config.max_depth {
            return Err(SimError::CallDepth);
        }
        let img: &FuncImage = &funcs[f as usize];
        let code_base = self.code_base[f as usize];
        let ops = &img.ops[..];
        let mut cycles = 0u64;
        let mut pc = 0usize;
        // One past the last instruction of the counted run in progress.
        let mut run_end = 0u32;
        loop {
            let op = ops[pc];
            pc += 1;
            match op {
                Op::Block(b) => {
                    let block = &img.blocks[b as usize];
                    cycles += block.cost;
                    let lo = code_base + block.lo;
                    let hi = code_base + block.hi;
                    let mut addr = lo - lo % LINE_BYTES;
                    while addr < hi {
                        if !self.icache.access(addr) {
                            cycles += self.config.model.icache_miss;
                        }
                        addr += LINE_BYTES;
                    }
                    if let Some(stop) = self.count(block.first, block.count, &mut run_end) {
                        return Err(self.stop_at_limit(img, frame, pc, stop, run_end));
                    }
                }
                Op::Count { first, n } => {
                    if let Some(stop) = self.count(first, n, &mut run_end) {
                        return Err(self.stop_at_limit(img, frame, pc, stop, run_end));
                    }
                }
                Op::BrTrue { cond, target, site } => {
                    let taken = frame[cond as usize].is_true();
                    if !self
                        .bp
                        .predict_and_update(code_base + u64::from(site), taken)
                    {
                        cycles += self.config.model.mispredict;
                    }
                    if taken {
                        pc = target as usize;
                    }
                }
                Op::BrFalse { cond, target, site } => {
                    let taken = !frame[cond as usize].is_true();
                    if !self
                        .bp
                        .predict_and_update(code_base + u64::from(site), taken)
                    {
                        cycles += self.config.model.mispredict;
                    }
                    if taken {
                        pc = target as usize;
                    }
                }
                Op::Jump { target } => pc = target as usize,
                Op::Call { site } => {
                    let site = &img.calls[site as usize];
                    let callee = &funcs[site.func as usize];
                    let mut callee_frame = self.frames.pop().unwrap_or_default();
                    callee_frame.clear();
                    callee_frame.extend_from_slice(&callee.template);
                    let (start, end) = site.args;
                    let args = &img.call_args[start as usize..end as usize];
                    for (&(src, conv), &slot) in args.iter().zip(&callee.param_slots) {
                        callee_frame[slot as usize] = conv.apply(frame[src as usize]);
                    }
                    cycles += self.config.model.call_overhead;
                    let ret = self.invoke(funcs, site.func, &mut callee_frame, depth + 1);
                    self.frames.push(callee_frame);
                    let ret = ret?;
                    if let Some((dst, conv)) = site.dst {
                        let Some(v) = ret else {
                            let name = &self.program.functions[site.func as usize].name;
                            let e = SimError::BadArguments(format!("`{name}` returned no value"));
                            return Err(self.fault(img, op, pc - 1, run_end, e));
                        };
                        frame[dst as usize] = conv.apply(v);
                    }
                }
                Op::Ret { src } => {
                    let v = frame[src as usize];
                    self.cycles[f as usize] += cycles;
                    self.total_cycles += cycles;
                    return Ok(Some(v));
                }
                Op::RetNone => {
                    self.cycles[f as usize] += cycles;
                    self.total_cycles += cycles;
                    return Ok(None);
                }
                op => {
                    if let Err(e) = self.step(img, op, frame, &mut cycles) {
                        return Err(self.fault(img, op, pc - 1, run_end, e));
                    }
                }
            }
        }
    }

    /// Counts the run of `n` instructions starting at `first`. Returns the
    /// instruction the limit stops at when the run would cross it.
    #[inline(always)]
    fn count(&mut self, first: u32, n: u32, run_end: &mut u32) -> Option<u32> {
        let before = self.insns_executed;
        let after = before + u64::from(n);
        if after <= self.config.max_insns {
            self.insns_executed = after;
            *run_end = first + n;
            return None;
        }
        // The limit falls inside the run: the instructions before it
        // execute in full, and counting the next one raises the error.
        let allowed = self.config.max_insns.saturating_sub(before) as u32;
        self.insns_executed = before + u64::from(allowed) + 1;
        *run_end = first + allowed + 1;
        Some(first + allowed)
    }

    /// Executes the straight-line micro-ops from `pc` up to instruction
    /// `stop` (where the instruction limit hits), then raises the limit.
    #[cold]
    fn stop_at_limit(
        &mut self,
        img: &FuncImage,
        frame: &mut [Value],
        mut pc: usize,
        stop: u32,
        run_end: u32,
    ) -> SimError {
        // Cycles of an unfinished call are never charged.
        let mut cycles = 0u64;
        let end = img.insn_start[stop as usize] as usize;
        while pc < end {
            let op = img.ops[pc];
            pc += 1;
            if let Err(e) = self.step(img, op, frame, &mut cycles) {
                return self.fault(img, op, pc - 1, run_end, e);
            }
        }
        SimError::InsnLimit
    }

    /// Turns an error raised by the micro-op at `pc` into the call's
    /// result: instructions of the run after the failing one were counted
    /// ahead but never started, so they are taken back.
    #[cold]
    fn fault(&mut self, img: &FuncImage, op: Op, pc: usize, run_end: u32, e: SimError) -> SimError {
        let insn = match op {
            Op::Fail { insn, .. } => insn,
            _ => (img.insn_start.partition_point(|&s| s as usize <= pc) - 1) as u32,
        };
        self.insns_executed -= u64::from(run_end - (insn + 1));
        e
    }

    /// Executes one straight-line micro-op.
    #[inline(always)]
    fn step(
        &mut self,
        img: &FuncImage,
        op: Op,
        frame: &mut [Value],
        cycles: &mut u64,
    ) -> Result<(), SimError> {
        macro_rules! int {
            ($dst:ident, $a:ident, $b:ident, |$x:ident, $y:ident| $e:expr) => {{
                let $x = frame[$a as usize].as_i();
                let $y = frame[$b as usize].as_i();
                frame[$dst as usize] = Value::I($e);
            }};
        }
        macro_rules! float {
            ($dst:ident, $a:ident, $b:ident, |$x:ident, $y:ident| $e:expr) => {{
                let $x = frame[$a as usize].as_f();
                let $y = frame[$b as usize].as_f();
                frame[$dst as usize] = Value::F($e);
            }};
        }
        macro_rules! cmp {
            ($dst:ident, $a:ident, $b:ident, $test:expr, $unordered:expr) => {{
                let r = match compare(frame[$a as usize], frame[$b as usize]) {
                    Some(o) => $test(o),
                    None => $unordered,
                };
                frame[$dst as usize] = Value::I(i64::from(r));
            }};
        }
        macro_rules! unary {
            ($dst:ident, $a:ident, |$x:ident| $e:expr) => {{
                let $x = frame[$a as usize];
                frame[$dst as usize] = $e;
            }};
        }
        match op {
            Op::Mov { dst, src } => frame[dst as usize] = frame[src as usize],
            Op::MovI { dst, src } => frame[dst as usize] = Value::I(frame[src as usize].as_i()),
            Op::MovF { dst, src } => frame[dst as usize] = Value::F(frame[src as usize].as_f()),
            Op::AddI { dst, a, b } => int!(dst, a, b, |x, y| x.wrapping_add(y)),
            Op::SubI { dst, a, b } => int!(dst, a, b, |x, y| x.wrapping_sub(y)),
            Op::MulI { dst, a, b } => int!(dst, a, b, |x, y| x.wrapping_mul(y)),
            Op::DivI { dst, a, b } => {
                int!(dst, a, b, |x, y| if y == 0 { 0 } else { x.wrapping_div(y) })
            }
            Op::ModI { dst, a, b } => {
                int!(dst, a, b, |x, y| if y == 0 { 0 } else { x.wrapping_rem(y) })
            }
            Op::And { dst, a, b } => int!(dst, a, b, |x, y| x & y),
            Op::Ior { dst, a, b } => int!(dst, a, b, |x, y| x | y),
            Op::Xor { dst, a, b } => int!(dst, a, b, |x, y| x ^ y),
            Op::Shl { dst, a, b } => int!(dst, a, b, |x, y| x.wrapping_shl((y & 63) as u32)),
            Op::Shr { dst, a, b } => int!(dst, a, b, |x, y| x.wrapping_shr((y & 63) as u32)),
            Op::MinI { dst, a, b } => int!(dst, a, b, |x, y| x.min(y)),
            Op::MaxI { dst, a, b } => int!(dst, a, b, |x, y| x.max(y)),
            Op::AddF { dst, a, b } => float!(dst, a, b, |x, y| x + y),
            Op::SubF { dst, a, b } => float!(dst, a, b, |x, y| x - y),
            Op::MulF { dst, a, b } => float!(dst, a, b, |x, y| x * y),
            Op::DivF { dst, a, b } => float!(dst, a, b, |x, y| if y == 0.0 { 0.0 } else { x / y }),
            Op::MinF { dst, a, b } => float!(dst, a, b, |x, y| x.min(y)),
            Op::MaxF { dst, a, b } => float!(dst, a, b, |x, y| x.max(y)),
            Op::Eq { dst, a, b } => cmp!(dst, a, b, Ordering::is_eq, false),
            Op::Ne { dst, a, b } => cmp!(dst, a, b, Ordering::is_ne, true),
            Op::Lt { dst, a, b } => cmp!(dst, a, b, Ordering::is_lt, false),
            Op::Le { dst, a, b } => cmp!(dst, a, b, Ordering::is_le, false),
            Op::Gt { dst, a, b } => cmp!(dst, a, b, Ordering::is_gt, false),
            Op::Ge { dst, a, b } => cmp!(dst, a, b, Ordering::is_ge, false),
            Op::Neg { dst, a } => unary!(dst, a, |x| match x {
                Value::I(v) => Value::I(v.wrapping_neg()),
                Value::F(v) => Value::F(-v),
            }),
            Op::NegI { dst, a } => unary!(dst, a, |x| Value::I(x.as_i().wrapping_neg())),
            Op::NegF { dst, a } => unary!(dst, a, |x| Value::F(-x.as_f())),
            Op::Abs { dst, a } => unary!(dst, a, |x| match x {
                Value::I(v) => Value::I(v.wrapping_abs()),
                Value::F(v) => Value::F(v.abs()),
            }),
            Op::AbsI { dst, a } => unary!(dst, a, |x| Value::I(x.as_i().wrapping_abs())),
            Op::AbsF { dst, a } => unary!(dst, a, |x| Value::F(x.as_f().abs())),
            Op::Not { dst, a } => unary!(dst, a, |x| Value::I(!x.as_i())),
            Op::ToF { dst, a } => unary!(dst, a, |x| Value::F(x.as_f())),
            Op::Fix { dst, a } => unary!(dst, a, |x| Value::I(x.as_f() as i64)),
            Op::LoadI { dst, base, index } => {
                let bits = self.load(address(frame, base, index), cycles)?;
                frame[dst as usize] = Value::I(bits as i64);
            }
            Op::LoadF { dst, base, index } => {
                let bits = self.load(address(frame, base, index), cycles)?;
                frame[dst as usize] = Value::F(f64::from_bits(bits));
            }
            Op::StoreI { src, base, index } => {
                let bits = frame[src as usize].as_i() as u64;
                self.store(address(frame, base, index), bits, cycles)?;
            }
            Op::StoreF { src, base, index } => {
                let bits = frame[src as usize].as_f().to_bits();
                self.store(address(frame, base, index), bits, cycles)?;
            }
            Op::Store { src, base, index } => {
                let bits = match frame[src as usize] {
                    Value::I(v) => v as u64,
                    Value::F(v) => v.to_bits(),
                };
                self.store(address(frame, base, index), bits, cycles)?;
            }
            Op::Fail { err, .. } => return Err(img.errors[err as usize].clone()),
            Op::Malformed { msg } => unreachable!("{}", img.malformed[msg as usize]),
            Op::Block(_)
            | Op::Count { .. }
            | Op::BrTrue { .. }
            | Op::BrFalse { .. }
            | Op::Jump { .. }
            | Op::Call { .. }
            | Op::Ret { .. }
            | Op::RetNone => unreachable!("control micro-op inside a straight-line run"),
        }
        Ok(())
    }

    #[inline(always)]
    fn load(&mut self, addr: i64, cycles: &mut u64) -> Result<u64, SimError> {
        if addr < 0 || addr as usize >= self.memory.len() {
            return Err(SimError::BadAddress(addr));
        }
        if !self.dcache.access(addr as u64 * 8) {
            *cycles += self.config.model.dcache_miss;
        }
        Ok(self.memory[addr as usize])
    }

    #[inline(always)]
    fn store(&mut self, addr: i64, bits: u64, cycles: &mut u64) -> Result<(), SimError> {
        if addr < 0 || addr as usize >= self.memory.len() {
            return Err(SimError::BadAddress(addr));
        }
        if !self.dcache.access(addr as u64 * 8) {
            *cycles += self.config.model.dcache_miss;
        }
        self.memory[addr as usize] = bits;
        Ok(())
    }
}

/// The cell a `base + index` access touches.
#[inline(always)]
fn address(frame: &[Value], base: Slot, index: Slot) -> i64 {
    frame[base as usize]
        .as_i()
        .wrapping_add(frame[index as usize].as_i())
}

/// Orders two values: as floats when either is one, else as integers.
#[inline(always)]
fn compare(a: Value, b: Value) -> Option<Ordering> {
    match (a, b) {
        (Value::I(x), Value::I(y)) => Some(x.cmp(&y)),
        _ => a.as_f().partial_cmp(&b.as_f()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fegen_rtl::lower::lower_program;

    fn machine_for(src: &str) -> (RtlProgram, SimConfig) {
        let ast = fegen_lang::parse_program(src).unwrap();
        (lower_program(&ast).unwrap(), SimConfig::default())
    }

    #[test]
    fn computes_scalar_arithmetic() {
        let (p, cfg) = machine_for("int f(int x) { return (x + 3) * 2 - x % 5; }");
        let mut m = Machine::new(&p, cfg);
        let r = m.call("f", &[Arg::Int(7)]).unwrap();
        assert_eq!(r, Some(Value::I((7 + 3) * 2 - 7 % 5)));
    }

    #[test]
    fn loops_accumulate_correctly() {
        let (p, cfg) = machine_for(
            "int f(int n) { int i; int s; s = 0; for (i = 1; i <= n; i = i + 1) { s = s + i; } return s; }",
        );
        let mut m = Machine::new(&p, cfg);
        assert_eq!(m.call("f", &[Arg::Int(100)]).unwrap(), Some(Value::I(5050)));
    }

    #[test]
    fn arrays_and_global_state() {
        let (p, cfg) = machine_for(
            "int g;\n\
             int a[16];\n\
             void fill(int n) { int i; for (i = 0; i < n; i = i + 1) { a[i] = i * i; } g = n; }\n\
             int get(int i) { return a[i] + g; }",
        );
        let mut m = Machine::new(&p, cfg);
        m.call("fill", &[Arg::Int(10)]).unwrap();
        assert_eq!(m.call("get", &[Arg::Int(3)]).unwrap(), Some(Value::I(9 + 10)));
        assert_eq!(m.read_array("a", 5).unwrap(), Value::I(25));
        assert_eq!(m.read_array("g", 0).unwrap(), Value::I(10));
    }

    #[test]
    fn float_arithmetic_and_conversions() {
        let (p, cfg) = machine_for(
            "float f(int n) { float s; int i; s = 0.0; for (i = 0; i < n; i = i + 1) { s = s + 0.5; } return s; }",
        );
        let mut m = Machine::new(&p, cfg);
        assert_eq!(m.call("f", &[Arg::Int(8)]).unwrap(), Some(Value::F(4.0)));
    }

    #[test]
    fn array_parameters_alias_caller_arrays() {
        let (p, cfg) = machine_for(
            "int buf[8];\n\
             void set0(int a[8], int v) { a[0] = v; }\n\
             int get0() { return buf[0]; }",
        );
        let mut m = Machine::new(&p, cfg);
        m.call("set0", &[Arg::Array("buf".into()), Arg::Int(42)])
            .unwrap();
        assert_eq!(m.call("get0", &[]).unwrap(), Some(Value::I(42)));
    }

    #[test]
    fn nested_calls_attribute_cycles_exclusively() {
        let (p, cfg) = machine_for(
            "int inner(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }\n\
             int outer(int n) { return inner(n) + inner(n); }",
        );
        let mut m = Machine::new(&p, cfg);
        m.call("outer", &[Arg::Int(200)]).unwrap();
        let inner = m.cycles_of("inner");
        let outer = m.cycles_of("outer");
        assert!(inner > outer, "inner {inner} should dominate outer {outer}");
        assert_eq!(m.total_cycles(), inner + outer);
    }

    #[test]
    fn cycles_scale_with_trip_count() {
        let (p, cfg) = machine_for(
            "int f(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
        );
        let mut m1 = Machine::new(&p, cfg.clone());
        m1.call("f", &[Arg::Int(10)]).unwrap();
        let mut m2 = Machine::new(&p, cfg);
        m2.call("f", &[Arg::Int(1000)]).unwrap();
        let (c1, c2) = (m1.cycles_of("f"), m2.cycles_of("f"));
        assert!(c2 > c1 * 50, "expected ~100x scaling: {c1} vs {c2}");
    }

    #[test]
    fn branchy_loops_cost_more_than_straight_loops() {
        let straight = "int f(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + 1; } return s; }";
        // Alternating branch inside the loop defeats the predictor.
        let branchy = "int f(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { if (i % 2 == 0) { s = s + 1; } else { s = s + 2; } } return s; }";
        let (p1, c1) = machine_for(straight);
        let (p2, c2) = machine_for(branchy);
        let mut m1 = Machine::new(&p1, c1);
        let mut m2 = Machine::new(&p2, c2);
        m1.call("f", &[Arg::Int(500)]).unwrap();
        m2.call("f", &[Arg::Int(500)]).unwrap();
        assert!(m2.cycles_of("f") > m1.cycles_of("f"));
        assert!(m2.mispredicts() > m1.mispredicts() + 100);
    }

    #[test]
    fn dcache_misses_on_large_strided_access() {
        let (p, cfg) = machine_for(
            "int a[4096];\n\
             void touch() { int i; for (i = 0; i < 4096; i = i + 8) { a[i] = i; } }",
        );
        let mut m = Machine::new(&p, cfg);
        m.call("touch", &[]).unwrap();
        // Stride 8 cells = one access per 64-byte line: every access misses
        // on a 16 KiB cache over a 32 KiB array.
        assert!(m.dcache_misses() >= 400, "misses {}", m.dcache_misses());
    }

    #[test]
    fn insn_limit_stops_infinite_loops() {
        let (p, mut cfg) = machine_for("void f() { for (;;) { } }");
        cfg.max_insns = 10_000;
        let mut m = Machine::new(&p, cfg);
        assert_eq!(m.call("f", &[]), Err(SimError::InsnLimit));
    }

    #[test]
    fn division_by_zero_is_defined() {
        let (p, cfg) = machine_for("int f(int x) { return 10 / x + 10 % x; }");
        let mut m = Machine::new(&p, cfg);
        assert_eq!(m.call("f", &[Arg::Int(0)]).unwrap(), Some(Value::I(0)));
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let (p, cfg) = machine_for("int f(int x) { return x; }");
        let mut m = Machine::new(&p, cfg);
        assert!(matches!(m.call("f", &[]), Err(SimError::BadArguments(_))));
    }

    /// `f` calling `g(x, 2)`, with the call's argument list edited.
    fn internal_call_with_args(mut edit: impl FnMut(&mut Vec<fegen_rtl::node::Rtx>)) -> RtlProgram {
        let (mut p, _) = machine_for(
            "int g(int a, int b) { return a * b; }\n\
             int f(int x) { return g(x, 2) + 1; }",
        );
        let f = p.function_mut("f").unwrap();
        for insn in &mut f.insns {
            if let fegen_rtl::node::InsnBody::Call { args, .. } = Arc::make_mut(&mut insn.body) {
                edit(args);
            }
        }
        p
    }

    #[test]
    fn internal_call_with_too_few_arguments_is_an_error() {
        let p = internal_call_with_args(|args| {
            args.pop();
        });
        let mut m = Machine::new(&p, SimConfig::default());
        assert_eq!(
            m.call("f", &[Arg::Int(4)]),
            Err(SimError::BadArguments(
                "`g` expects 2 arguments, got 1".into()
            ))
        );
    }

    #[test]
    fn internal_call_with_surplus_arguments_is_an_error() {
        let p = internal_call_with_args(|args| args.push(fegen_rtl::node::Rtx::const_int(9)));
        let mut m = Machine::new(&p, SimConfig::default());
        assert_eq!(
            m.call("f", &[Arg::Int(4)]),
            Err(SimError::BadArguments(
                "`g` expects 2 arguments, got 3".into()
            ))
        );
        // The well-formed call still runs.
        let p = internal_call_with_args(|_| {});
        let mut m = Machine::new(&p, SimConfig::default());
        assert_eq!(m.call("f", &[Arg::Int(4)]), Ok(Some(Value::I(9))));
    }

    #[test]
    #[should_panic(expected = "different memory layout")]
    fn fork_refuses_state_from_another_layout() {
        let (small, cfg) = machine_for("int a[4]; int f() { return a[0]; }");
        let (large, _) = machine_for("int a[400]; int f() { return a[0]; }");
        let state = Machine::new(&small, cfg.clone()).export_state();
        let image = ProgramImage::build(&large, &cfg.model);
        let _ = Machine::fork(&large, &image, None, Some(&state), cfg);
    }

    #[test]
    fn malformed_rtl_panics_only_when_executed() {
        use fegen_rtl::node::{InsnBody, Mode, Rtx, RtxCode};
        let (mut p, cfg) = machine_for("int f(int x) { if (x > 100) { x = x + 1; } return x; }");
        // A float `mod` has no meaning; put one inside the `if`.
        let f = p.function_mut("f").unwrap();
        for insn in &mut f.insns {
            if let InsnBody::Set { src, .. } = Arc::make_mut(&mut insn.body) {
                if src.code == RtxCode::Plus {
                    *src = Rtx::binary(
                        RtxCode::Mod,
                        Mode::DF,
                        src.ops[0].clone(),
                        src.ops[1].clone(),
                    );
                }
            }
        }
        let mut m = Machine::new(&p, cfg);
        assert_eq!(m.call("f", &[Arg::Int(5)]), Ok(Some(Value::I(5))));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = m.call("f", &[Arg::Int(500)]);
        }));
        assert!(run.is_err(), "executing the malformed set panics");
    }

    #[test]
    fn frames_are_reused_across_calls() {
        let (p, cfg) = machine_for(
            "int g(int a) { return a + 1; }\n\
             int f(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + g(i); } return s; }",
        );
        let mut m = Machine::new(&p, cfg);
        assert_eq!(m.call("f", &[Arg::Int(10)]), Ok(Some(Value::I(55))));
        // One frame for `f`, one for the `g` calls: no frame per call.
        assert_eq!(m.frames.len(), 2);
    }

    #[test]
    fn deterministic_cycle_counts() {
        let (p, cfg) = machine_for(
            "int f(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + i * 3; } return s; }",
        );
        let mut m1 = Machine::new(&p, cfg.clone());
        let mut m2 = Machine::new(&p, cfg);
        m1.call("f", &[Arg::Int(123)]).unwrap();
        m2.call("f", &[Arg::Int(123)]).unwrap();
        assert_eq!(m1.cycles_of("f"), m2.cycles_of("f"));
    }
}
