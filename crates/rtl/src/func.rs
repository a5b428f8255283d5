//! Lowered functions, programs, loop regions and memory layout.

use crate::node::{Insn, InsnBody, LabelId, Mode};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How a parameter is passed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamKind {
    /// Scalar in a virtual register.
    Scalar {
        /// Value mode.
        mode: Mode,
        /// Register holding the argument on entry.
        reg: u32,
    },
    /// Array passed by reference (callee sees the caller's array symbol).
    Array {
        /// Element mode.
        elem_mode: Mode,
    },
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Passing convention.
    pub kind: ParamKind,
}

/// Loop bound operand of a recognised induction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Bound {
    /// Constant bound.
    Const(i64),
    /// Loop-invariant register bound.
    Reg(u32),
}

/// A recognised canonical induction: `for (r = init; r < bound; r += step)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Induction {
    /// The induction register.
    pub reg: u32,
    /// Known constant initial value, when the init clause was `r = const`.
    pub init: Option<i64>,
    /// Constant (positive) step.
    pub step: i64,
    /// Loop bound.
    pub bound: Bound,
    /// `true` for `r <= bound`, `false` for `r < bound`.
    pub inclusive: bool,
}

/// A structured loop region, identified by the labels lowering placed
/// around it:
///
/// ```text
/// Lcond:  <condition insns>  condjump-false Lexit
/// Lbody:  <body insns…>
/// Lstep:  <step insns>       jump Lcond
/// Lexit:
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopRegion {
    /// Loop id, unique within the function, in source order.
    pub id: usize,
    /// Label of the condition block (the loop header).
    pub cond_label: LabelId,
    /// Label at the start of the body.
    pub body_label: LabelId,
    /// Label at the start of the step code.
    pub step_label: LabelId,
    /// Label immediately after the loop.
    pub exit_label: LabelId,
    /// Static nesting depth (1 = outermost).
    pub depth: usize,
    /// Canonical induction, when recognised ("simple" loops in GCC terms).
    pub induction: Option<Induction>,
}

impl LoopRegion {
    /// Exact trip count when both the initial value and the bound are
    /// compile-time constants.
    pub fn trip_count(&self) -> Option<u64> {
        let ind = self.induction?;
        let init = ind.init?;
        let Bound::Const(bound) = ind.bound else {
            return None;
        };
        let bound = if ind.inclusive { bound + 1 } else { bound };
        if bound <= init {
            return Some(0);
        }
        let span = (bound - init) as u64;
        let step = ind.step as u64;
        Some(span.div_ceil(step))
    }

    /// Whether the loop is "simple" in GCC's unroller sense: a recognised
    /// single induction with constant step.
    pub fn is_simple(&self) -> bool {
        self.induction.is_some()
    }
}

/// One array (or scalar global) placed in simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayInfo {
    /// First cell index (cells are 8 bytes; byte address = `base * 8`).
    pub base: u64,
    /// Number of elements (cells).
    pub len: usize,
    /// Element mode.
    pub mode: Mode,
}

/// Program-wide memory layout: every global and local array gets a fixed
/// region of the simulated address space (benchmark functions are not
/// recursive, so static allocation is exact).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MemoryLayout {
    arrays: HashMap<String, ArrayInfo>,
    next: u64,
}

impl MemoryLayout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `len` cells for `name` and returns its info.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already allocated.
    pub fn alloc(&mut self, name: impl Into<String>, len: usize, mode: Mode) -> ArrayInfo {
        let name = name.into();
        let info = ArrayInfo {
            base: self.next,
            len,
            mode,
        };
        self.next += len as u64;
        // Pad to a cache-line boundary (8 cells = 64 bytes) so arrays do
        // not share lines, as separate C objects generally would not.
        self.next = self.next.div_ceil(8) * 8;
        let prev = self.arrays.insert(name.clone(), info);
        assert!(prev.is_none(), "array `{name}` allocated twice");
        info
    }

    /// Looks up an allocation.
    pub fn get(&self, name: &str) -> Option<ArrayInfo> {
        self.arrays.get(name).copied()
    }

    /// Total cells allocated (memory image size).
    pub fn total_cells(&self) -> u64 {
        self.next
    }

    /// Iterates over all allocations.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &ArrayInfo)> {
        self.arrays.iter()
    }
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RtlFunction {
    /// Function name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Mode of each virtual register (index = register number).
    pub reg_modes: Vec<Mode>,
    /// The instruction list.
    pub insns: Vec<Insn>,
    /// Structured loop regions recorded by lowering, in source order.
    pub loops: Vec<LoopRegion>,
    /// Return mode (`None` for void).
    pub ret_mode: Option<Mode>,
    pub(crate) next_label: u32,
    pub(crate) next_uid: u32,
}

impl RtlFunction {
    /// Index of the instruction defining `label`.
    pub fn label_index(&self, label: LabelId) -> Option<usize> {
        self.insns
            .iter()
            .position(|i| matches!(*i.body, InsnBody::Label(l) if l == label))
    }

    /// Allocates a fresh label id.
    pub fn fresh_label(&mut self) -> LabelId {
        let l = self.next_label;
        self.next_label += 1;
        l
    }

    /// Allocates a fresh virtual register of the given mode.
    pub fn fresh_reg(&mut self, mode: Mode) -> u32 {
        let r = self.reg_modes.len() as u32;
        self.reg_modes.push(mode);
        r
    }

    /// Allocates a fresh instruction uid.
    pub fn fresh_uid(&mut self) -> u32 {
        let u = self.next_uid;
        self.next_uid += 1;
        u
    }

    /// The half-open instruction-index span of a loop region
    /// `[cond_label .. exit_label)`.
    ///
    /// Returns `None` when the labels are absent (e.g. the loop was
    /// destroyed by an enclosing transformation).
    pub fn loop_span(&self, region: &LoopRegion) -> Option<(usize, usize)> {
        let start = self.label_index(region.cond_label)?;
        let end = self.label_index(region.exit_label)?;
        (start < end).then_some((start, end))
    }

    /// Number of non-label instructions inside a loop region (GCC's
    /// `ninsns` for the loop).
    pub fn loop_ninsns(&self, region: &LoopRegion) -> usize {
        match self.loop_span(region) {
            Some((s, e)) => self.insns[s..e]
                .iter()
                .filter(|i| !i.is_label())
                .count(),
            None => 0,
        }
    }

    /// Renders the function as a GCC-style RTL dump.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, ";; function {}", self.name);
        for insn in &self.insns {
            let _ = writeln!(out, "{insn}");
        }
        out
    }
}

/// A lowered program: functions plus the shared memory layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RtlProgram {
    /// Lowered functions.
    pub functions: Vec<RtlFunction>,
    /// Memory layout of all globals and local arrays.
    pub layout: MemoryLayout,
}

impl RtlProgram {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&RtlFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Mutable lookup by name.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut RtlFunction> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Content digest of the whole lowered program (functions in order,
    /// bodies, loop regions, memory layout) — FNV-1a over an exhaustive,
    /// *canonical* rendering: the functions' `Debug` form (every field,
    /// deterministic — only `Vec`s, scalars and `Arc`s, which print their
    /// contents) followed by the memory
    /// layout's allocations sorted by name, so the `HashMap`'s per-instance
    /// iteration order cannot leak in. Two independently lowered programs
    /// digest equal iff a simulation could not tell them apart, so the
    /// digest pins the exact pre-unroll compile state a measurement
    /// campaign forks from, independent of how it was configured.
    pub fn content_digest(&self) -> u64 {
        use std::fmt::Write;
        /// FNV-1a fed the rendering piece by piece, never materialised.
        struct Fnv(u64);
        impl Write for Fnv {
            fn write_str(&mut self, text: &str) -> std::fmt::Result {
                for byte in text.bytes() {
                    self.0 ^= u64::from(byte);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
                Ok(())
            }
        }
        let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
        for f in &self.functions {
            let _ = write!(hash, "{f:?}|");
        }
        let mut arrays: Vec<_> = self.layout.iter().collect();
        arrays.sort_by(|a, b| a.0.cmp(b.0));
        for (name, info) in arrays {
            let _ = write!(hash, "{name}={info:?};");
        }
        let _ = write!(hash, "next={}", self.layout.total_cells());
        hash.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_count_arithmetic() {
        let mk = |init: Option<i64>, bound: Bound, step: i64, inclusive: bool| LoopRegion {
            id: 0,
            cond_label: 0,
            body_label: 1,
            step_label: 2,
            exit_label: 3,
            depth: 1,
            induction: Some(Induction {
                reg: 0,
                init,
                step,
                bound,
                inclusive,
            }),
        };
        assert_eq!(mk(Some(0), Bound::Const(10), 1, false).trip_count(), Some(10));
        assert_eq!(mk(Some(0), Bound::Const(10), 1, true).trip_count(), Some(11));
        assert_eq!(mk(Some(0), Bound::Const(10), 3, false).trip_count(), Some(4));
        assert_eq!(mk(Some(5), Bound::Const(5), 1, false).trip_count(), Some(0));
        assert_eq!(mk(None, Bound::Const(10), 1, false).trip_count(), None);
        assert_eq!(mk(Some(0), Bound::Reg(3), 1, false).trip_count(), None);
    }

    #[test]
    fn layout_is_line_padded_and_disjoint() {
        let mut l = MemoryLayout::new();
        let a = l.alloc("a", 3, Mode::SI);
        let b = l.alloc("b", 10, Mode::DF);
        assert_eq!(a.base, 0);
        assert_eq!(b.base, 8, "padded to the next 8-cell line");
        assert!(l.total_cells() >= 18);
        assert_eq!(l.get("a"), Some(a));
        assert_eq!(l.get("missing"), None);
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn layout_rejects_duplicates() {
        let mut l = MemoryLayout::new();
        l.alloc("x", 1, Mode::SI);
        l.alloc("x", 1, Mode::SI);
    }

    #[test]
    fn content_digest_tracks_content_not_identity() {
        let f = RtlFunction {
            name: "f".into(),
            params: vec![],
            reg_modes: vec![Mode::SI],
            insns: vec![],
            loops: vec![],
            ret_mode: None,
            next_label: 0,
            next_uid: 0,
        };
        let p1 = RtlProgram {
            functions: vec![f.clone()],
            layout: MemoryLayout::new(),
        };
        let p2 = p1.clone();
        assert_eq!(p1.content_digest(), p2.content_digest());
        let mut p3 = p1.clone();
        p3.functions[0].reg_modes.push(Mode::DF);
        assert_ne!(p1.content_digest(), p3.content_digest());
        let mut p4 = p1;
        p4.functions.push(f);
        assert_ne!(p2.content_digest(), p4.content_digest());
        // Independently built layouts must digest equal: each HashMap has
        // its own iteration order, which the canonical rendering hides.
        let build = || {
            let mut layout = MemoryLayout::new();
            for name in ["a", "b", "c", "d", "e", "g", "h"] {
                layout.alloc(name, 4, Mode::SI);
            }
            RtlProgram {
                functions: vec![],
                layout,
            }
        };
        assert_eq!(build().content_digest(), build().content_digest());
    }

    #[test]
    fn digest_and_debug_text_ignore_sharing() {
        let ast = fegen_lang::parse_program(
            "int a[16];\n\
             int f(int n) { int i; int s; s = 0;\n\
               for (i = 0; i < n; i = i + 1) { s = s + a[i]; } return s; }",
        )
        .unwrap();
        let p = crate::lower::lower_program(&ast).unwrap();
        let c = p.clone();
        // Recorded from the digest of a program whose bodies were not
        // shared: the sharing must not show in it.
        assert_eq!(p.content_digest(), 0x3145_76eb_628c_a327);
        assert_eq!(c.content_digest(), p.content_digest());
        assert_eq!(format!("{c:?}"), format!("{p:?}"));
        // The digest reads `Debug` text, in which a shared body shows as
        // its contents.
        assert_eq!(
            format!("{:?}", Insn::new(3, InsnBody::Jump { target: 1 })),
            "Insn { uid: 3, body: Jump { target: 1 } }"
        );
    }

    #[test]
    fn fresh_allocators_are_monotone() {
        let mut f = RtlFunction {
            name: "f".into(),
            params: vec![],
            reg_modes: vec![Mode::SI],
            insns: vec![],
            loops: vec![],
            ret_mode: None,
            next_label: 2,
            next_uid: 5,
        };
        assert_eq!(f.fresh_label(), 2);
        assert_eq!(f.fresh_label(), 3);
        assert_eq!(f.fresh_reg(Mode::DF), 1);
        assert_eq!(f.reg_modes[1], Mode::DF);
        assert_eq!(f.fresh_uid(), 5);
    }
}
