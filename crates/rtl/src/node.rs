//! RTL expression trees, machine modes and instructions.
//!
//! The shape mirrors GCC RTL: every expression is a node with a *code*
//! (`reg`, `mem`, `plus`, `set`, …), a *machine mode* (`SI`, `DF`, …) and
//! operands. Instructions come pre-decoded (label / set / jump / call /
//! return) so the interpreter in `fegen-sim` does not pattern-match
//! `(set (pc) (if_then_else …))` at run time; the exporter re-materialises
//! the GCC-style pattern shape when building feature-generator trees.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Machine mode of an RTL expression (GCC's `machine_mode`, reduced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// 32-bit integer (`SImode`) — the mode of Tiny-C `int` values.
    SI,
    /// 64-bit float (`DFmode`) — the mode of Tiny-C `float` values.
    DF,
    /// No value (`VOIDmode`) — labels, jumps, stores.
    Void,
    /// Condition codes (`CCmode`) — comparison results.
    CC,
}

impl Mode {
    /// GCC-style name used in exported attributes (`@mode==SI`).
    pub fn name(&self) -> &'static str {
        match self {
            Mode::SI => "SI",
            Mode::DF => "DF",
            Mode::Void => "VOID",
            Mode::CC => "CC",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// RTL expression codes (GCC `rtx_code`, reduced to what lowering emits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // names follow GCC rtx codes one-to-one
pub enum RtxCode {
    Reg,
    Mem,
    ConstInt,
    ConstDouble,
    SymbolRef,
    Plus,
    Minus,
    Mult,
    Div,
    Mod,
    Neg,
    Abs,
    Smin,
    Smax,
    And,
    Ior,
    Xor,
    Not,
    Ashift,
    Ashiftrt,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    FloatExtend,
    Fix,
    Float,
}

impl RtxCode {
    /// GCC-style lowercase name (`plus`, `const_int`, …) used as the
    /// exported node kind.
    pub fn name(&self) -> &'static str {
        use RtxCode::*;
        match self {
            Reg => "reg",
            Mem => "mem",
            ConstInt => "const_int",
            ConstDouble => "const_double",
            SymbolRef => "symbol_ref",
            Plus => "plus",
            Minus => "minus",
            Mult => "mult",
            Div => "div",
            Mod => "mod",
            Neg => "neg",
            Abs => "abs",
            Smin => "smin",
            Smax => "smax",
            And => "and",
            Ior => "ior",
            Xor => "xor",
            Not => "not",
            Ashift => "ashift",
            Ashiftrt => "ashiftrt",
            Eq => "eq",
            Ne => "ne",
            Lt => "lt",
            Le => "le",
            Gt => "gt",
            Ge => "ge",
            FloatExtend => "float_extend",
            Fix => "fix",
            Float => "float",
        }
    }

    /// Whether the code is a comparison producing 0/1.
    pub fn is_comparison(&self) -> bool {
        use RtxCode::*;
        matches!(self, Eq | Ne | Lt | Le | Gt | Ge)
    }
}

impl fmt::Display for RtxCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Immediate payload of an [`Rtx`] node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RtxValue {
    /// No payload (operators).
    None,
    /// `const_int` value.
    Int(i64),
    /// `const_double` value.
    Float(f64),
    /// `reg` number (virtual register).
    Reg(u32),
    /// `symbol_ref` name (array or global base).
    Sym(String),
}

/// An RTL expression: code + mode + operands + payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rtx {
    /// Expression code.
    pub code: RtxCode,
    /// Machine mode of the value.
    pub mode: Mode,
    /// Operand sub-expressions.
    pub ops: Vec<Rtx>,
    /// Immediate payload (register number, constant, symbol).
    pub value: RtxValue,
}

impl Rtx {
    /// `(reg:mode n)`
    pub fn reg(mode: Mode, n: u32) -> Rtx {
        Rtx {
            code: RtxCode::Reg,
            mode,
            ops: vec![],
            value: RtxValue::Reg(n),
        }
    }

    /// `(const_int v)`
    pub fn const_int(v: i64) -> Rtx {
        Rtx {
            code: RtxCode::ConstInt,
            mode: Mode::SI,
            ops: vec![],
            value: RtxValue::Int(v),
        }
    }

    /// `(const_double v)`
    pub fn const_double(v: f64) -> Rtx {
        Rtx {
            code: RtxCode::ConstDouble,
            mode: Mode::DF,
            ops: vec![],
            value: RtxValue::Float(v),
        }
    }

    /// `(symbol_ref name)` — the base address of an array.
    pub fn symbol(name: impl Into<String>) -> Rtx {
        Rtx {
            code: RtxCode::SymbolRef,
            mode: Mode::SI,
            ops: vec![],
            value: RtxValue::Sym(name.into()),
        }
    }

    /// `(mem:mode addr)`
    pub fn mem(mode: Mode, addr: Rtx) -> Rtx {
        Rtx {
            code: RtxCode::Mem,
            mode,
            ops: vec![addr],
            value: RtxValue::None,
        }
    }

    /// Binary operator node.
    pub fn binary(code: RtxCode, mode: Mode, a: Rtx, b: Rtx) -> Rtx {
        Rtx {
            code,
            mode,
            ops: vec![a, b],
            value: RtxValue::None,
        }
    }

    /// Unary operator node.
    pub fn unary(code: RtxCode, mode: Mode, a: Rtx) -> Rtx {
        Rtx {
            code,
            mode,
            ops: vec![a],
            value: RtxValue::None,
        }
    }

    /// The register number if this is a `reg` node.
    pub fn as_reg(&self) -> Option<u32> {
        match (&self.code, &self.value) {
            (RtxCode::Reg, RtxValue::Reg(n)) => Some(*n),
            _ => None,
        }
    }

    /// The constant value if this is a `const_int` node.
    pub fn as_const_int(&self) -> Option<i64> {
        match (&self.code, &self.value) {
            (RtxCode::ConstInt, RtxValue::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Number of nodes in this expression tree.
    pub fn size(&self) -> usize {
        1 + self.ops.iter().map(Rtx::size).sum::<usize>()
    }

    /// Visits every node of the tree, pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Rtx)) {
        f(self);
        for op in &self.ops {
            op.visit(f);
        }
    }

    /// Collects the registers read by this expression.
    pub fn regs_used(&self, out: &mut Vec<u32>) {
        self.visit(&mut |n| {
            if let Some(r) = n.as_reg() {
                out.push(r);
            }
        });
    }

    /// Whether the expression contains any `mem` node.
    pub fn contains_mem(&self) -> bool {
        let mut found = false;
        self.visit(&mut |n| found |= n.code == RtxCode::Mem);
        found
    }

    /// Whether the expression computes in floating point anywhere.
    pub fn contains_float(&self) -> bool {
        let mut found = false;
        self.visit(&mut |n| found |= n.mode == Mode::DF);
        found
    }
}

impl fmt::Display for Rtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.code, &self.value) {
            (RtxCode::Reg, RtxValue::Reg(n)) => write!(f, "(reg:{} {n})", self.mode),
            (RtxCode::ConstInt, RtxValue::Int(v)) => write!(f, "(const_int {v})"),
            (RtxCode::ConstDouble, RtxValue::Float(v)) => write!(f, "(const_double {v})"),
            (RtxCode::SymbolRef, RtxValue::Sym(s)) => write!(f, "(symbol_ref \"{s}\")"),
            _ => {
                write!(f, "({}:{}", self.code, self.mode)?;
                for op in &self.ops {
                    write!(f, " {op}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A label identifier, unique within a function.
pub type LabelId = u32;

/// A decoded instruction body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InsnBody {
    /// `(code_label n)`
    Label(LabelId),
    /// `(set dest src)` — `dest` is a `reg` or `mem`.
    Set {
        /// Destination (`reg` or `mem`).
        dest: Rtx,
        /// Source expression.
        src: Rtx,
    },
    /// Conditional jump: `(set (pc) (if_then_else cond (label_ref t) (pc)))`.
    /// Taken when `cond` evaluates non-zero.
    CondJump {
        /// Comparison expression.
        cond: Rtx,
        /// Branch target.
        target: LabelId,
    },
    /// Unconditional jump: `(set (pc) (label_ref t))`.
    Jump {
        /// Jump target.
        target: LabelId,
    },
    /// Call instruction; scalar arguments are expressions, array arguments
    /// pass the base symbol.
    Call {
        /// Callee name.
        name: String,
        /// Argument expressions (a `symbol_ref` passes an array).
        args: Vec<Rtx>,
        /// Register receiving the return value, if any.
        dest: Option<Rtx>,
    },
    /// Function return.
    Return {
        /// Returned value, if the function is non-void.
        value: Option<Rtx>,
    },
}

/// An instruction: a unique id plus its decoded body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Insn {
    /// Unique id within the function (stable across unrolling copies: the
    /// copy keeps the original uid, which lets the branch predictor in the
    /// simulator treat copies as distinct static branch sites via their
    /// position instead).
    pub uid: u32,
    /// Decoded body, shared: cloning an instruction (or the function that
    /// holds it) bumps a refcount instead of copying the `Rtx` trees, so an
    /// unrolled copy allocates a new body only where it renames a label.
    /// `Debug` and serde see through the `Arc`.
    pub body: Arc<InsnBody>,
}

impl Insn {
    /// An instruction owning a fresh `body`.
    pub fn new(uid: u32, body: InsnBody) -> Insn {
        Insn {
            uid,
            body: Arc::new(body),
        }
    }

    /// Whether this instruction is a `code_label`.
    pub fn is_label(&self) -> bool {
        matches!(*self.body, InsnBody::Label(_))
    }

    /// Whether this instruction ends a basic block.
    pub fn is_control(&self) -> bool {
        matches!(
            *self.body,
            InsnBody::CondJump { .. } | InsnBody::Jump { .. } | InsnBody::Return { .. }
        )
    }

    /// The GCC-style kind name used on export (`insn`, `jump_insn`,
    /// `call_insn`, `code_label`).
    pub fn kind_name(&self) -> &'static str {
        match *self.body {
            InsnBody::Label(_) => "code_label",
            InsnBody::Set { .. } => "insn",
            InsnBody::CondJump { .. } | InsnBody::Jump { .. } => "jump_insn",
            InsnBody::Call { .. } => "call_insn",
            InsnBody::Return { .. } => "jump_insn",
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.body {
            InsnBody::Label(l) => write!(f, "L{l}:"),
            InsnBody::Set { dest, src } => write!(f, "  (set {dest} {src})"),
            InsnBody::CondJump { cond, target } => {
                write!(f, "  (set (pc) (if_then_else {cond} (label_ref L{target}) (pc)))")
            }
            InsnBody::Jump { target } => write!(f, "  (set (pc) (label_ref L{target}))"),
            InsnBody::Call { name, args, dest } => {
                match dest {
                    Some(d) => write!(f, "  (set {d} (call \"{name}\"")?,
                    None => write!(f, "  (call \"{name}\"")?,
                }
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, "))")
            }
            InsnBody::Return { value: Some(v) } => write!(f, "  (return {v})"),
            InsnBody::Return { value: None } => write!(f, "  (return)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> Insn {
        // (set (reg:SI 1) (plus:SI (reg:SI 2) (const_int 4)))
        Insn::new(
            7,
            InsnBody::Set {
                dest: Rtx::reg(Mode::SI, 1),
                src: Rtx::binary(
                    RtxCode::Plus,
                    Mode::SI,
                    Rtx::reg(Mode::SI, 2),
                    Rtx::const_int(4),
                ),
            },
        )
    }

    #[test]
    fn rtx_accessors() {
        let r = Rtx::reg(Mode::SI, 3);
        assert_eq!(r.as_reg(), Some(3));
        assert_eq!(r.as_const_int(), None);
        let c = Rtx::const_int(9);
        assert_eq!(c.as_const_int(), Some(9));
    }

    #[test]
    fn size_and_regs_used() {
        let insn = sample_set();
        let InsnBody::Set { src, .. } = &*insn.body else {
            unreachable!()
        };
        assert_eq!(src.size(), 3);
        let mut regs = Vec::new();
        src.regs_used(&mut regs);
        assert_eq!(regs, vec![2]);
    }

    #[test]
    fn contains_mem_and_float() {
        let load = Rtx::mem(Mode::DF, Rtx::symbol("a"));
        assert!(load.contains_mem());
        assert!(load.contains_float());
        assert!(!Rtx::const_int(1).contains_mem());
    }

    #[test]
    fn display_matches_gcc_style() {
        let insn = sample_set();
        assert_eq!(
            insn.to_string(),
            "  (set (reg:SI 1) (plus:SI (reg:SI 2) (const_int 4)))"
        );
    }

    #[test]
    fn insn_classification() {
        assert!(Insn::new(0, InsnBody::Label(3)).is_label());
        assert!(Insn::new(0, InsnBody::Jump { target: 1 }).is_control());
        assert_eq!(sample_set().kind_name(), "insn");
        assert_eq!(
            Insn::new(
                0,
                InsnBody::CondJump {
                    cond: Rtx::const_int(1),
                    target: 2
                }
            )
            .kind_name(),
            "jump_insn"
        );
    }

    #[test]
    fn comparison_codes() {
        assert!(RtxCode::Lt.is_comparison());
        assert!(!RtxCode::Plus.is_comparison());
    }
}
