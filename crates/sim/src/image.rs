//! Decoded function images: each RTL function compiled once into flat
//! three-address micro-ops plus a block table.
//!
//! The interpreter never walks [`Rtx`] trees. [`FuncImage::build`] makes
//! one pass over a function's instructions and produces everything
//! execution needs:
//!
//! - **Micro-ops.** Every operand is a frame slot: a virtual register, a
//!   temporary, a bound array parameter or a constant (constants live in
//!   slots pre-filled by the frame template). Nested expressions flatten
//!   into temporaries in post-order, so memory accesses — and with them
//!   D-cache events — happen in the order the tree would evaluate them.
//!   Loads and stores address memory as `base + index`.
//! - **Resolved names.** A global `symbol_ref` becomes a constant holding
//!   its layout base; an array parameter becomes the frame slot its caller
//!   binds; callees become function indices; jump targets become micro-op
//!   indices. Names that do not resolve become [`Op::Fail`] micro-ops at
//!   the point the tree evaluator would have raised the error, so
//!   unexecuted bad code stays harmless.
//! - **Block table.** Leaders are found in the same pass. Each block
//!   records its static cost (dual-issue scoreboard plus spill estimate,
//!   from [`crate::cost::Scoreboard`]) and its code's byte range for the
//!   I-cache.
//! - **Instruction segments.** Executed instructions are counted a run at
//!   a time: a block, or the part of a block after a call, adds its
//!   instruction count on entry. When a run would cross the instruction
//!   limit, or an error stops it part-way, the interpreter replays the
//!   exact per-instruction count from `insn_start`.
//!
//! An image depends on the function's body, the memory layout, and the
//! names and parameter lists of every function in the program — never on
//! where the function sits in code memory, so one image serves every
//! machine simulating an identical copy of the function.

use crate::cost::{node_latency, CostModel, Scoreboard};
use crate::interp::{SimError, Value};
use fegen_rtl::func::ParamKind;
use fegen_rtl::node::{InsnBody, Mode, Rtx, RtxCode, RtxValue};
use fegen_rtl::{RtlFunction, RtlProgram};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Byte size of one instruction in simulated code memory.
pub(crate) const INSN_BYTES: u64 = 4;

/// Index of a value in a call frame.
pub(crate) type Slot = u32;

/// How a value is converted, by the mode of where it goes, on its way into
/// a register, a memory cell, a parameter or a call's destination.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Conv {
    /// Kept as is (`VOIDmode`).
    Keep,
    /// To integer (`SImode`, `CCmode`).
    Int,
    /// To float (`DFmode`).
    Float,
}

impl Conv {
    pub(crate) fn of(mode: Mode) -> Conv {
        match mode {
            Mode::DF => Conv::Float,
            Mode::SI | Mode::CC => Conv::Int,
            Mode::Void => Conv::Keep,
        }
    }

    #[inline(always)]
    pub(crate) fn apply(self, v: Value) -> Value {
        match self {
            Conv::Keep => v,
            Conv::Int => Value::I(v.as_i()),
            Conv::Float => Value::F(v.as_f()),
        }
    }
}

/// One micro-op. Operand fields are frame slots unless named otherwise.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // operand names follow one convention: dst ← a op b
pub(crate) enum Op {
    /// Block entry: charge the block's static cost, touch its I-cache
    /// lines, and count its first run of instructions.
    Block(u32),
    /// Count the run of `n` instructions starting at `first` that follows
    /// a call inside a block.
    Count {
        first: u32,
        n: u32,
    },
    Mov {
        dst: Slot,
        src: Slot,
    },
    MovI {
        dst: Slot,
        src: Slot,
    },
    MovF {
        dst: Slot,
        src: Slot,
    },
    AddI {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    SubI {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    MulI {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    DivI {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    ModI {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    And {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Ior {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Xor {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Shl {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Shr {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    MinI {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    MaxI {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    AddF {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    SubF {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    MulF {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    DivF {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    MinF {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    MaxF {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Eq {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Ne {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Lt {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Le {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Gt {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    Ge {
        dst: Slot,
        a: Slot,
        b: Slot,
    },
    /// Negation in the operand's own kind (`VOIDmode`).
    Neg {
        dst: Slot,
        a: Slot,
    },
    NegI {
        dst: Slot,
        a: Slot,
    },
    NegF {
        dst: Slot,
        a: Slot,
    },
    /// Absolute value in the operand's own kind (`VOIDmode`).
    Abs {
        dst: Slot,
        a: Slot,
    },
    AbsI {
        dst: Slot,
        a: Slot,
    },
    AbsF {
        dst: Slot,
        a: Slot,
    },
    Not {
        dst: Slot,
        a: Slot,
    },
    /// `float` / `float_extend`.
    ToF {
        dst: Slot,
        a: Slot,
    },
    /// `fix`.
    Fix {
        dst: Slot,
        a: Slot,
    },
    LoadI {
        dst: Slot,
        base: Slot,
        index: Slot,
    },
    LoadF {
        dst: Slot,
        base: Slot,
        index: Slot,
    },
    /// Store in the value's own kind (`VOIDmode`).
    Store {
        src: Slot,
        base: Slot,
        index: Slot,
    },
    StoreI {
        src: Slot,
        base: Slot,
        index: Slot,
    },
    StoreF {
        src: Slot,
        base: Slot,
        index: Slot,
    },
    /// Conditional jump to micro-op `target`, taken when `cond` is
    /// non-zero; `site` is the instruction index the predictor keys on.
    BrTrue {
        cond: Slot,
        target: u32,
        site: u32,
    },
    /// As [`Op::BrTrue`], taken when `cond` is zero.
    BrFalse {
        cond: Slot,
        target: u32,
        site: u32,
    },
    Jump {
        target: u32,
    },
    /// Call through [`FuncImage::calls`]`[site]`.
    Call {
        site: u32,
    },
    Ret {
        src: Slot,
    },
    RetNone,
    /// Raise [`FuncImage::errors`]`[err]` as instruction `insn`'s error.
    Fail {
        err: u32,
        insn: u32,
    },
    /// RTL the tree evaluator could not execute either (a float-only
    /// operator on integers, a malformed node): panics with
    /// [`FuncImage::malformed`]`[msg]` when reached.
    Malformed {
        msg: u32,
    },
}

/// A basic block's static data.
#[derive(Debug)]
pub(crate) struct BlockInfo {
    /// Static cycles plus spill cycles, charged on every entry.
    pub cost: u64,
    /// Byte offset of the block's first instruction from the function's
    /// code base.
    pub lo: u64,
    /// Byte offset one past its last instruction.
    pub hi: u64,
    /// First instruction index.
    pub first: u32,
    /// Instructions in the first run (up to and including the first call,
    /// or the whole block).
    pub count: u32,
}

/// One call instruction's operands.
#[derive(Debug)]
pub(crate) struct CallSite {
    /// Callee function index.
    pub func: u32,
    /// Range of [`FuncImage::call_args`] holding the arguments, in
    /// parameter order.
    pub args: (u32, u32),
    /// Where the returned value goes, converted by the destination's mode.
    pub dst: Option<(Slot, Conv)>,
}

/// The decoded, position-independent execution image of one function.
#[derive(Debug)]
pub(crate) struct FuncImage {
    /// The micro-ops; execution starts at 0.
    pub ops: Vec<Op>,
    /// The block table.
    pub blocks: Vec<BlockInfo>,
    /// Micro-op index where each instruction's code starts.
    pub insn_start: Vec<u32>,
    /// Initial frame: registers zeroed in their mode, constants filled in.
    pub template: Vec<Value>,
    /// Frame slot of each parameter (a scalar's register or an array's
    /// base slot), in parameter order.
    pub param_slots: Vec<Slot>,
    /// Call sites.
    pub calls: Vec<CallSite>,
    /// Caller slot and conversion of every call argument.
    pub call_args: Vec<(Slot, Conv)>,
    /// Errors raised by [`Op::Fail`].
    pub errors: Vec<SimError>,
    /// Panic messages of [`Op::Malformed`].
    pub malformed: Vec<String>,
    /// Number of RTL instructions (sizes the function in code memory).
    pub n_insns: usize,
}

/// Static type of a slot's value while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    I,
    F,
    /// Depends on run-time history (registers).
    Any,
}

impl Ty {
    fn satisfies(self, conv: Conv) -> bool {
        matches!(
            (conv, self),
            (Conv::Keep, _) | (Conv::Int, Ty::I) | (Conv::Float, Ty::F)
        )
    }
}

/// A multiplicative hasher for the decoder's integer keys (labels,
/// constant bit patterns). Decoding runs once per fork, where the default
/// hasher costs a fifth of the decode time. The keys come from the program
/// being simulated, so colliding keys could only slow the decoding of
/// their own author's program.
#[derive(Debug, Default, Clone, Copy)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        // Fold the high bits down: the map indexes buckets by the low
        // bits, which a product alone leaves empty for round floats.
        self.0 ^ (self.0 >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Function name → index, as the program's function list resolves it
/// (a later duplicate wins).
pub(crate) fn function_index(program: &RtlProgram) -> HashMap<String, u32> {
    program
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i as u32))
        .collect()
}

impl FuncImage {
    /// Decodes `func` for execution inside `program` (whose memory layout
    /// and function signatures it resolves against; `names` is
    /// [`function_index`] of `program`).
    pub(crate) fn build(
        program: &RtlProgram,
        names: &HashMap<String, u32>,
        func: &RtlFunction,
        model: &CostModel,
    ) -> FuncImage {
        Decoder::new(program, names, func, model).run()
    }
}

/// Single-pass decoder state.
struct Decoder<'a> {
    program: &'a RtlProgram,
    names: &'a HashMap<String, u32>,
    func: &'a RtlFunction,
    model: &'a CostModel,
    img: FuncImage,
    /// Static type of every slot allocated so far.
    types: Vec<Ty>,
    /// Resolved symbols → their slots: the array parameters first, then
    /// every global resolved so far (a handful per function, so a linear
    /// scan beats hashing the name into the layout again).
    symbols: Vec<(&'a str, Slot)>,
    /// Deduplicated constants by bit pattern: integers, then floats.
    consts: [IntMap<u64, Slot>; 2],
    /// Temporaries allocated so far (reused by every instruction).
    temps: Vec<Slot>,
    temps_used: usize,
    /// Label → micro-op index of the block it starts.
    labels: IntMap<u32, u32>,
    /// Jumps to patch: (micro-op index, label, instruction index).
    fixups: Vec<(usize, u32, u32)>,
    /// The open run of counted instructions: its first instruction and
    /// the micro-op that counts it (`None` after a call closed it).
    run: Option<(u32, usize)>,
    sb: Scoreboard,
    /// Registers the current instruction reads (for the scoreboard).
    used: Vec<u32>,
    /// Latency of the slowest node decoded for the current instruction.
    latency: u64,
}

impl<'a> Decoder<'a> {
    fn new(
        program: &'a RtlProgram,
        names: &'a HashMap<String, u32>,
        func: &'a RtlFunction,
        model: &'a CostModel,
    ) -> Self {
        let n_regs = func.reg_modes.len();
        let mut template: Vec<Value> = func
            .reg_modes
            .iter()
            .map(|m| match m {
                Mode::DF => Value::F(0.0),
                _ => Value::I(0),
            })
            .collect();
        let mut types = vec![Ty::Any; n_regs];
        let mut arrays: Vec<(&str, Slot)> = Vec::new();
        let mut param_slots = Vec::with_capacity(func.params.len());
        for p in &func.params {
            match p.kind {
                ParamKind::Scalar { reg, .. } => param_slots.push(reg),
                ParamKind::Array { .. } => {
                    // Bindings are by name: a repeated name shares one
                    // slot, and the later parameter's binding wins.
                    let slot = match arrays.iter().find(|(n, _)| *n == p.name) {
                        Some(&(_, s)) => s,
                        None => {
                            let s = template.len() as Slot;
                            template.push(Value::I(0));
                            types.push(Ty::I);
                            arrays.push((p.name.as_str(), s));
                            s
                        }
                    };
                    param_slots.push(slot);
                }
            }
        }
        let n = func.insns.len();
        Decoder {
            program,
            names,
            func,
            model,
            img: FuncImage {
                ops: Vec::with_capacity(n + n / 2 + 2),
                blocks: Vec::new(),
                insn_start: Vec::with_capacity(n),
                template,
                param_slots,
                calls: Vec::new(),
                call_args: Vec::new(),
                errors: Vec::new(),
                malformed: Vec::new(),
                n_insns: n,
            },
            types,
            symbols: arrays,
            consts: Default::default(),
            temps: Vec::new(),
            temps_used: 0,
            labels: IntMap::default(),
            fixups: Vec::new(),
            run: None,
            sb: Scoreboard::default(),
            used: Vec::new(),
            latency: 1,
        }
    }

    fn run(mut self) -> FuncImage {
        let insns = &self.func.insns;
        for (i, insn) in insns.iter().enumerate() {
            let i = i as u32;
            let leader = i == 0 || insn.is_label() || insns[i as usize - 1].is_control();
            if leader {
                self.close_block(i);
                self.open_block(i);
            } else if self.run.is_none() {
                // The instructions after a call start a new counted run.
                self.run = Some((i, self.img.ops.len()));
                self.img.ops.push(Op::Count { first: i, n: 0 });
            }
            self.img.insn_start.push(self.img.ops.len() as u32);
            self.temps_used = 0;
            self.insn(i, &insn.body);
            if matches!(*insn.body, InsnBody::Call { .. }) {
                self.close_run(i + 1);
            }
        }
        self.close_block(insns.len() as u32);
        // Falling off the end returns nothing.
        self.img.ops.push(Op::RetNone);
        self.patch_jumps();
        self.img
    }

    fn open_block(&mut self, first: u32) {
        let b = self.img.blocks.len() as u32;
        self.img.blocks.push(BlockInfo {
            cost: 0,
            lo: u64::from(first) * INSN_BYTES,
            hi: 0,
            first,
            count: 0,
        });
        self.run = Some((first, self.img.ops.len()));
        self.img.ops.push(Op::Block(b));
        self.sb.begin_block();
    }

    /// Closes the open block (none before the first instruction) at
    /// instruction `end`.
    fn close_block(&mut self, end: u32) {
        self.close_run(end);
        if let Some(block) = self.img.blocks.last_mut() {
            let (cycles, spill) = self.sb.finish_block();
            block.cost = cycles + spill;
            block.hi = u64::from(end) * INSN_BYTES;
        }
    }

    /// Ends the open run of counted instructions before instruction `end`.
    fn close_run(&mut self, end: u32) {
        if let Some((first, at)) = self.run.take() {
            let n = end - first;
            match &mut self.img.ops[at] {
                Op::Block(b) => self.img.blocks[*b as usize].count = n,
                Op::Count { n: count, .. } => *count = n,
                _ => unreachable!("a run starts at a counting micro-op"),
            }
        }
    }

    fn patch_jumps(&mut self) {
        for k in 0..self.fixups.len() {
            let (at, label, insn) = self.fixups[k];
            let target = match self.labels.get(&label) {
                Some(&t) => t,
                None => {
                    // Jumping to a label that does not exist fails when
                    // (and only when) the jump is taken.
                    let t = self.img.ops.len() as u32;
                    let err = self.error(SimError::BadLabel(label));
                    self.img.ops.push(Op::Fail { err, insn });
                    t
                }
            };
            match &mut self.img.ops[at] {
                Op::Jump { target: t }
                | Op::BrTrue { target: t, .. }
                | Op::BrFalse { target: t, .. } => *t = target,
                _ => unreachable!("fixups point at jumps"),
            }
        }
    }

    fn error(&mut self, e: SimError) -> u32 {
        self.img.errors.push(e);
        (self.img.errors.len() - 1) as u32
    }

    fn fail(&mut self, e: SimError, insn: u32) {
        let err = self.error(e);
        self.img.ops.push(Op::Fail { err, insn });
    }

    fn malformed(&mut self, msg: String) {
        self.img.malformed.push(msg);
        let msg = (self.img.malformed.len() - 1) as u32;
        self.img.ops.push(Op::Malformed { msg });
    }

    fn new_slot(&mut self, init: Value, ty: Ty) -> Slot {
        self.img.template.push(init);
        self.types.push(ty);
        (self.img.template.len() - 1) as Slot
    }

    fn constant(&mut self, v: Value) -> Slot {
        let (kind, bits, ty) = match v {
            Value::I(x) => (0, x as u64, Ty::I),
            Value::F(x) => (1, x.to_bits(), Ty::F),
        };
        if let Some(&s) = self.consts[kind].get(&bits) {
            return s;
        }
        let s = self.new_slot(v, ty);
        self.consts[kind].insert(bits, s);
        s
    }

    /// A temporary for the current instruction, typed `ty`.
    fn temp(&mut self, ty: Ty) -> Slot {
        let s = match self.temps.get(self.temps_used) {
            Some(&s) => s,
            None => {
                let s = self.new_slot(Value::I(0), Ty::Any);
                self.temps.push(s);
                s
            }
        };
        self.temps_used += 1;
        self.types[s as usize] = ty;
        s
    }

    fn ty(&self, s: Slot) -> Ty {
        self.types[s as usize]
    }

    /// Decodes one instruction and feeds the scoreboard.
    fn insn(&mut self, i: u32, body: &'a InsnBody) {
        self.used.clear();
        let mut latency = 1;
        let mut def: Option<(u32, u64)> = None;
        match body {
            InsnBody::Label(l) => {
                // Every label leads a block: the block's micro-op was
                // just emitted.
                let block_op = self.img.ops.len() as u32 - 1;
                self.labels.insert(*l, block_op);
                return;
            }
            InsnBody::Set { dest, src } => {
                // Latency: the slowest node of the source tree (raised by
                // `node`), at least an L1 hit for a load.
                self.latency = if src.code == RtxCode::Mem { 2 } else { 1 };
                self.set(i, dest, src);
                latency = self.latency;
                // Register pressure counts every register the set names:
                // those it reads, and a register destination.
                if let Some(r) = dest.as_reg() {
                    self.sb.touch(r);
                    def = Some((r, 0));
                }
                self.touch_used();
            }
            InsnBody::CondJump { cond, target } => {
                self.cond_jump(i, cond, *target);
                self.touch_used();
            }
            InsnBody::Jump { target } => {
                self.fixups.push((self.img.ops.len(), *target, i));
                self.img.ops.push(Op::Jump { target: 0 });
            }
            InsnBody::Call { name, args, dest } => {
                self.call(i, name, args, dest.as_ref());
                if let Some(r) = dest.as_ref().and_then(Rtx::as_reg) {
                    def = Some((r, self.model.call_overhead));
                }
            }
            InsnBody::Return { value } => match value {
                Some(v) => {
                    let s = self.expr(i, v);
                    self.img.ops.push(Op::Ret { src: s });
                }
                None => self.img.ops.push(Op::RetNone),
            },
        }
        let earliest = self
            .used
            .iter()
            .map(|&r| self.sb.ready_at(r))
            .max()
            .unwrap_or(0);
        let done = self.sb.issue(earliest, latency, self.model);
        if let Some((r, extra)) = def {
            self.sb.define(r, done + extra);
        }
    }

    fn touch_used(&mut self) {
        for k in 0..self.used.len() {
            self.sb.touch(self.used[k]);
        }
    }

    /// The slot of register `r`, read by the current instruction.
    fn reg(&mut self, r: u32) -> Option<Slot> {
        self.used.push(r);
        ((r as usize) < self.func.reg_modes.len()).then_some(r)
    }

    fn set(&mut self, i: u32, dest: &'a Rtx, src: &'a Rtx) {
        match dest.code {
            RtxCode::Reg => {
                let conv = Conv::of(dest.mode);
                let Some(r) = dest.as_reg() else {
                    self.expr(i, src);
                    self.malformed(format!("reg dest without a register: {dest}"));
                    return;
                };
                if (r as usize) >= self.func.reg_modes.len() {
                    self.expr(i, src);
                    self.malformed(format!("register {r} out of range"));
                    return;
                }
                self.expr_into(i, src, r, conv);
            }
            RtxCode::Mem if dest.ops.len() == 1 => {
                let v = self.expr(i, src);
                let (base, index) = self.address(i, &dest.ops[0]);
                let op = match Conv::of(dest.mode) {
                    Conv::Int => Op::StoreI {
                        src: v,
                        base,
                        index,
                    },
                    Conv::Float => Op::StoreF {
                        src: v,
                        base,
                        index,
                    },
                    Conv::Keep => Op::Store {
                        src: v,
                        base,
                        index,
                    },
                };
                self.img.ops.push(op);
            }
            _ => {
                self.expr(i, src);
                self.malformed(format!("set dest is reg or mem, got {dest}"));
            }
        }
    }

    fn cond_jump(&mut self, i: u32, cond: &'a Rtx, target: u32) {
        // `(eq x 0)` / `(ne x 0)` test `x` itself: a zero constant compares
        // equal to exactly the values that are not true (NaN included).
        let zero_test = matches!(cond.code, RtxCode::Eq | RtxCode::Ne)
            && cond.ops.len() == 2
            && matches!(cond.ops[1].value, RtxValue::Int(0))
            && cond.ops[1].code == RtxCode::ConstInt;
        let at;
        if zero_test {
            let x = self.expr(i, &cond.ops[0]);
            at = self.img.ops.len();
            self.img.ops.push(if cond.code == RtxCode::Eq {
                Op::BrFalse {
                    cond: x,
                    target: 0,
                    site: i,
                }
            } else {
                Op::BrTrue {
                    cond: x,
                    target: 0,
                    site: i,
                }
            });
        } else {
            let c = self.expr(i, cond);
            at = self.img.ops.len();
            self.img.ops.push(Op::BrTrue {
                cond: c,
                target: 0,
                site: i,
            });
        }
        self.fixups.push((at, target, i));
    }

    fn call(&mut self, i: u32, name: &str, args: &'a [Rtx], dest: Option<&'a Rtx>) {
        for a in args {
            a.visit(&mut |n: &Rtx| {
                if let Some(r) = n.as_reg() {
                    self.used.push(r);
                }
            });
        }
        let Some(&func) = self.names.get(name) else {
            self.fail(SimError::UnknownFunction(name.to_owned()), i);
            return;
        };
        let callee = &self.program.functions[func as usize];
        if args.len() != callee.params.len() {
            self.fail(
                SimError::BadArguments(format!(
                    "`{name}` expects {} arguments, got {}",
                    callee.params.len(),
                    args.len()
                )),
                i,
            );
            return;
        }
        let start = self.img.call_args.len() as u32;
        for (p, a) in callee.params.iter().zip(args) {
            let arg = match &p.kind {
                ParamKind::Array { .. } => {
                    let RtxValue::Sym(sym) = &a.value else {
                        self.fail(
                            SimError::BadArguments(format!(
                                "array argument to `{name}` is not a symbol"
                            )),
                            i,
                        );
                        return;
                    };
                    (self.symbol(i, sym), Conv::Keep)
                }
                ParamKind::Scalar { mode, .. } => (self.expr(i, a), Conv::of(*mode)),
            };
            self.img.call_args.push(arg);
        }
        let end = self.img.call_args.len() as u32;
        let dst = match dest {
            None => None,
            Some(d) => match d.as_reg() {
                Some(r) if (r as usize) < self.func.reg_modes.len() => Some((r, Conv::of(d.mode))),
                _ => {
                    self.malformed(format!("call dest is not a register in range: {d}"));
                    return;
                }
            },
        };
        self.img.calls.push(CallSite {
            func,
            args: (start, end),
            dst,
        });
        let site = (self.img.calls.len() - 1) as u32;
        self.img.ops.push(Op::Call { site });
    }

    /// The slot holding a symbol's base address. An unknown symbol fails
    /// here, in evaluation order.
    fn symbol(&mut self, i: u32, sym: &'a str) -> Slot {
        if let Some(&(_, s)) = self.symbols.iter().find(|(n, _)| *n == sym) {
            return s;
        }
        match self.program.layout.get(sym) {
            Some(info) => {
                let s = self.constant(Value::I(info.base as i64));
                self.symbols.push((sym, s));
                s
            }
            None => {
                self.fail(SimError::UnknownSymbol(sym.to_owned()), i);
                self.constant(Value::I(0))
            }
        }
    }

    /// A memory address as `(base, index)` slots: a `plus` computed in
    /// integers is folded into the access.
    fn address(&mut self, i: u32, addr: &'a Rtx) -> (Slot, Slot) {
        if addr.code == RtxCode::Plus && addr.mode != Mode::DF && addr.ops.len() == 2 {
            let base = self.expr(i, &addr.ops[0]);
            let index = self.expr(i, &addr.ops[1]);
            (base, index)
        } else {
            let base = self.expr(i, addr);
            (base, self.constant(Value::I(0)))
        }
    }

    /// Decodes `rtx` and returns the slot holding its value.
    fn expr(&mut self, i: u32, rtx: &'a Rtx) -> Slot {
        match self.leaf(i, rtx) {
            Some(s) => s,
            None => {
                let ty = result_ty(rtx);
                let t = self.temp(ty);
                self.node(i, rtx, t);
                t
            }
        }
    }

    /// Decodes `rtx` into register `r`, converted by `conv`.
    fn expr_into(&mut self, i: u32, rtx: &'a Rtx, r: Slot, conv: Conv) {
        if let Some(s) = self.leaf(i, rtx) {
            let op = match (conv, self.ty(s)) {
                (c, ty) if ty.satisfies(c) => Op::Mov { dst: r, src: s },
                (Conv::Int, _) => Op::MovI { dst: r, src: s },
                _ => Op::MovF { dst: r, src: s },
            };
            self.img.ops.push(op);
            return;
        }
        if result_ty(rtx).satisfies(conv) {
            self.node(i, rtx, r);
        } else {
            let t = self.expr(i, rtx);
            let op = match conv {
                Conv::Int => Op::MovI { dst: r, src: t },
                Conv::Float => Op::MovF { dst: r, src: t },
                Conv::Keep => Op::Mov { dst: r, src: t },
            };
            self.img.ops.push(op);
        }
    }

    /// The slot of a leaf (register, constant, symbol), or `None` for an
    /// operator node.
    fn leaf(&mut self, i: u32, rtx: &'a Rtx) -> Option<Slot> {
        Some(match (rtx.code, &rtx.value) {
            (RtxCode::Reg, RtxValue::Reg(r)) => match self.reg(*r) {
                Some(s) => s,
                None => {
                    self.malformed(format!("register {r} out of range"));
                    self.constant(Value::I(0))
                }
            },
            (RtxCode::ConstInt, RtxValue::Int(v)) => self.constant(Value::I(*v)),
            (RtxCode::ConstDouble, RtxValue::Float(v)) => self.constant(Value::F(*v)),
            (RtxCode::SymbolRef, RtxValue::Sym(s)) => self.symbol(i, s),
            (RtxCode::Reg | RtxCode::ConstInt | RtxCode::ConstDouble | RtxCode::SymbolRef, _) => {
                self.malformed(format!("{} without its payload", rtx.code));
                self.constant(Value::I(0))
            }
            _ => return None,
        })
    }

    /// Decodes operator node `rtx` with its result in `dst`.
    fn node(&mut self, i: u32, rtx: &'a Rtx, dst: Slot) {
        use RtxCode::*;
        self.latency = self.latency.max(node_latency(rtx.code, rtx.mode));
        let arity = match rtx.code {
            Mem | Neg | Abs | Not | Float | FloatExtend | Fix => 1,
            _ => 2,
        };
        if rtx.ops.len() != arity {
            for op in &rtx.ops {
                self.expr(i, op);
            }
            self.malformed(format!("{} with {} operand(s)", rtx.code, rtx.ops.len()));
            return;
        }
        if rtx.code == Mem {
            let (base, index) = self.address(i, &rtx.ops[0]);
            self.img.ops.push(if rtx.mode == Mode::DF {
                Op::LoadF { dst, base, index }
            } else {
                Op::LoadI { dst, base, index }
            });
            return;
        }
        let a = self.expr(i, &rtx.ops[0]);
        if arity == 1 {
            let conv = Conv::of(rtx.mode);
            let op = match rtx.code {
                Neg => match conv {
                    Conv::Int => Op::NegI { dst, a },
                    Conv::Float => Op::NegF { dst, a },
                    Conv::Keep => Op::Neg { dst, a },
                },
                Abs => match conv {
                    Conv::Int => Op::AbsI { dst, a },
                    Conv::Float => Op::AbsF { dst, a },
                    Conv::Keep => Op::Abs { dst, a },
                },
                Not => Op::Not { dst, a },
                Float | FloatExtend => Op::ToF { dst, a },
                _ => Op::Fix { dst, a },
            };
            self.img.ops.push(op);
            return;
        }
        let b = self.expr(i, &rtx.ops[1]);
        let float = rtx.mode == Mode::DF;
        let op = match (rtx.code, float) {
            (Eq, _) => Op::Eq { dst, a, b },
            (Ne, _) => Op::Ne { dst, a, b },
            (Lt, _) => Op::Lt { dst, a, b },
            (Le, _) => Op::Le { dst, a, b },
            (Gt, _) => Op::Gt { dst, a, b },
            (Ge, _) => Op::Ge { dst, a, b },
            (Plus, false) => Op::AddI { dst, a, b },
            (Minus, false) => Op::SubI { dst, a, b },
            (Mult, false) => Op::MulI { dst, a, b },
            (Div, false) => Op::DivI { dst, a, b },
            (Mod, false) => Op::ModI { dst, a, b },
            (And, false) => Op::And { dst, a, b },
            (Ior, false) => Op::Ior { dst, a, b },
            (Xor, false) => Op::Xor { dst, a, b },
            (Ashift, false) => Op::Shl { dst, a, b },
            (Ashiftrt, false) => Op::Shr { dst, a, b },
            (Smin, false) => Op::MinI { dst, a, b },
            (Smax, false) => Op::MaxI { dst, a, b },
            (Plus, true) => Op::AddF { dst, a, b },
            (Minus, true) => Op::SubF { dst, a, b },
            (Mult, true) => Op::MulF { dst, a, b },
            (Div, true) => Op::DivF { dst, a, b },
            (Smin, true) => Op::MinF { dst, a, b },
            (Smax, true) => Op::MaxF { dst, a, b },
            (code, _) => {
                let what = if float { "float" } else { "int" };
                self.malformed(format!("{what} op {code:?}"));
                return;
            }
        };
        self.img.ops.push(op);
    }
}

/// Static type of an operator node's result.
fn result_ty(rtx: &Rtx) -> Ty {
    use RtxCode::*;
    match rtx.code {
        Eq | Ne | Lt | Le | Gt | Ge | Not | Fix => Ty::I,
        Float | FloatExtend => Ty::F,
        Neg | Abs if rtx.mode == Mode::Void => Ty::Any,
        _ if rtx.mode == Mode::DF => Ty::F,
        _ => Ty::I,
    }
}
