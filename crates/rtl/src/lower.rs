//! Lowering from the Tiny-C AST to RTL.
//!
//! The output is three-address style RTL, the shape GCC's expander produces
//! before the unroller runs: loads and stores are separate `set`s,
//! comparisons materialise into registers, loop conditions end with a single
//! conditional jump. Each structured source loop is recorded as a
//! [`LoopRegion`] around four labels (see [`crate::func::LoopRegion`]), and
//! canonical `for (i = c0; i < bound; i = i + c)` loops are recognised as
//! *simple* inductions — exactly the loops GCC's unroller can unroll
//! without internal exit tests.

use crate::func::{
    Bound, Induction, LoopRegion, MemoryLayout, Param, ParamKind, RtlFunction, RtlProgram,
};
use crate::node::{Insn, InsnBody, Mode, Rtx, RtxCode};
use fegen_lang::ast::{self, BinOp, Block, Expr, Function, LValue, Program, Scalar, Stmt, UnOp};
use std::collections::HashMap;
use std::fmt;

/// Error produced by lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

fn err(message: impl Into<String>) -> LowerError {
    LowerError {
        message: message.into(),
    }
}

/// Lowers a semantically checked program to RTL.
///
/// # Errors
///
/// Returns an error for constructs sema should have rejected (unknown
/// names, indexing mismatches); a checked program always lowers.
pub fn lower_program(program: &Program) -> Result<RtlProgram, LowerError> {
    let mut layout = MemoryLayout::new();
    for g in &program.globals {
        match &g.ty {
            ast::Type::Array { elem, dims } => {
                let len = dims.iter().product();
                layout.alloc(g.name.clone(), len, mode_of(*elem));
            }
            ast::Type::Int => {
                layout.alloc(g.name.clone(), 1, Mode::SI);
            }
            ast::Type::Float => {
                layout.alloc(g.name.clone(), 1, Mode::DF);
            }
            ast::Type::Void => return Err(err(format!("global `{}` has type void", g.name))),
        }
    }
    let mut functions = Vec::with_capacity(program.functions.len());
    for f in &program.functions {
        functions.push(lower_function(f, program, &mut layout)?);
    }
    Ok(RtlProgram { functions, layout })
}

fn mode_of(s: Scalar) -> Mode {
    match s {
        Scalar::Int => Mode::SI,
        Scalar::Float => Mode::DF,
    }
}

fn scalar_mode(ty: &ast::Type) -> Option<Mode> {
    match ty {
        ast::Type::Int => Some(Mode::SI),
        ast::Type::Float => Some(Mode::DF),
        _ => None,
    }
}

/// How a name is accessed inside a function.
#[derive(Debug, Clone)]
enum Binding {
    /// Scalar in a virtual register.
    Reg { reg: u32, mode: Mode },
    /// Array (or global scalar) in memory behind a symbol.
    Memory {
        symbol: String,
        mode: Mode,
        /// Array extents; empty for a global scalar.
        dims: Vec<usize>,
    },
}

/// An operand: a register or a constant (the leaves RTL expressions use).
#[derive(Debug, Clone, Copy)]
enum Operand {
    Reg(u32, Mode),
    CInt(i64),
    CDouble(f64),
}

impl Operand {
    fn mode(&self) -> Mode {
        match self {
            Operand::Reg(_, m) => *m,
            Operand::CInt(_) => Mode::SI,
            Operand::CDouble(_) => Mode::DF,
        }
    }

    fn to_rtx(self) -> Rtx {
        match self {
            Operand::Reg(r, m) => Rtx::reg(m, r),
            Operand::CInt(v) => Rtx::const_int(v),
            Operand::CDouble(v) => Rtx::const_double(v),
        }
    }
}

struct Lowerer<'a> {
    program: &'a Program,
    func: RtlFunction,
    env: HashMap<String, Binding>,
    layout: &'a mut MemoryLayout,
    loop_depth: usize,
}

fn lower_function(
    f: &Function,
    program: &Program,
    layout: &mut MemoryLayout,
) -> Result<RtlFunction, LowerError> {
    let mut func = RtlFunction {
        name: f.name.clone(),
        params: Vec::new(),
        reg_modes: Vec::new(),
        insns: Vec::new(),
        loops: Vec::new(),
        ret_mode: scalar_mode(&f.ret),
        next_label: 0,
        next_uid: 0,
    };
    let mut env = HashMap::new();

    // Globals are visible unless shadowed: global arrays and global scalars
    // both live behind symbols.
    for g in &program.globals {
        let binding = match &g.ty {
            ast::Type::Array { elem, dims } => Binding::Memory {
                symbol: g.name.clone(),
                mode: mode_of(*elem),
                dims: dims.clone(),
            },
            ast::Type::Int => Binding::Memory {
                symbol: g.name.clone(),
                mode: Mode::SI,
                dims: vec![],
            },
            ast::Type::Float => Binding::Memory {
                symbol: g.name.clone(),
                mode: Mode::DF,
                dims: vec![],
            },
            ast::Type::Void => unreachable!("rejected above"),
        };
        env.insert(g.name.clone(), binding);
    }

    for p in &f.params {
        match &p.ty {
            ast::Type::Array { elem, dims } => {
                func.params.push(Param {
                    name: p.name.clone(),
                    kind: ParamKind::Array {
                        elem_mode: mode_of(*elem),
                    },
                });
                env.insert(
                    p.name.clone(),
                    Binding::Memory {
                        symbol: p.name.clone(),
                        mode: mode_of(*elem),
                        dims: dims.clone(),
                    },
                );
            }
            ty => {
                let mode = scalar_mode(ty).ok_or_else(|| err("void parameter"))?;
                let reg = func.fresh_reg(mode);
                func.params.push(Param {
                    name: p.name.clone(),
                    kind: ParamKind::Scalar { mode, reg },
                });
                env.insert(p.name.clone(), Binding::Reg { reg, mode });
            }
        }
    }

    let mut lw = Lowerer {
        program,
        func,
        env,
        layout,
        loop_depth: 0,
    };
    lw.block(&f.body)?;

    // Implicit return.
    let needs_return = !matches!(
        lw.func.insns.last().map(|i| &*i.body),
        Some(InsnBody::Return { .. })
    );
    if needs_return {
        let value = lw.func.ret_mode.map(|m| match m {
            Mode::SI => Rtx::const_int(0),
            _ => Rtx::const_double(0.0),
        });
        lw.emit(InsnBody::Return { value });
    }
    Ok(lw.func)
}

impl<'a> Lowerer<'a> {
    fn emit(&mut self, body: InsnBody) {
        let uid = self.func.fresh_uid();
        self.func.insns.push(Insn::new(uid, body));
    }

    fn emit_label(&mut self, label: u32) {
        self.emit(InsnBody::Label(label));
    }

    /// Materialises `src` into a fresh register of its mode.
    fn force_reg(&mut self, src: Rtx) -> Operand {
        let mode = src.mode;
        if let Some(r) = src.as_reg() {
            return Operand::Reg(r, mode);
        }
        let r = self.func.fresh_reg(mode);
        self.emit(InsnBody::Set {
            dest: Rtx::reg(mode, r),
            src,
        });
        Operand::Reg(r, mode)
    }

    /// Converts an operand to `target` mode, emitting a conversion insn if
    /// needed.
    fn convert(&mut self, op: Operand, target: Mode) -> Operand {
        if op.mode() == target {
            return op;
        }
        match (op, target) {
            (Operand::CInt(v), Mode::DF) => Operand::CDouble(v as f64),
            (Operand::CDouble(v), Mode::SI) => Operand::CInt(v as i64),
            (op, Mode::DF) => {
                // (float:DF (reg:SI r)) — int to float.
                let src = Rtx::unary(RtxCode::Float, Mode::DF, op.to_rtx());
                self.force_reg(src)
            }
            (op, Mode::SI) => {
                // (fix:SI (reg:DF r)) — float to int, truncating.
                let src = Rtx::unary(RtxCode::Fix, Mode::SI, op.to_rtx());
                self.force_reg(src)
            }
            (op, _) => op,
        }
    }

    fn block(&mut self, b: &Block) -> Result<(), LowerError> {
        for s in &b.stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        match s {
            Stmt::Decl(d) => self.decl(d),
            Stmt::Assign { target, value } => self.assign(target, value),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => self.if_stmt(cond, then_blk, else_blk.as_ref()),
            Stmt::While { cond, body } => self.loop_stmt(None, cond, None, body),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => self.loop_stmt(init.as_deref(), cond, step.as_deref(), body),
            Stmt::Return(value) => {
                let value = match (value, self.func.ret_mode) {
                    (Some(e), Some(m)) => {
                        let op = self.expr(e)?;
                        let op = self.convert(op, m);
                        Some(op.to_rtx())
                    }
                    _ => None,
                };
                self.emit(InsnBody::Return { value });
                Ok(())
            }
            Stmt::ExprStmt(e) => {
                if let Expr::Call { name, args } = e {
                    self.call(name, args, false)?;
                    Ok(())
                } else {
                    Err(err("expression statement must be a call"))
                }
            }
            Stmt::Block(b) => self.block(b),
        }
    }

    fn decl(&mut self, d: &ast::VarDecl) -> Result<(), LowerError> {
        match &d.ty {
            ast::Type::Array { elem, dims } => {
                let symbol = format!("{}::{}", self.func.name, d.name);
                let len = dims.iter().product();
                self.layout.alloc(symbol.clone(), len, mode_of(*elem));
                self.env.insert(
                    d.name.clone(),
                    Binding::Memory {
                        symbol,
                        mode: mode_of(*elem),
                        dims: dims.clone(),
                    },
                );
            }
            ty => {
                let mode = scalar_mode(ty).ok_or_else(|| err("void local"))?;
                let reg = self.func.fresh_reg(mode);
                self.env.insert(d.name.clone(), Binding::Reg { reg, mode });
            }
        }
        Ok(())
    }

    /// Computes the element address expression for an indexed access.
    fn element_address(
        &mut self,
        symbol: &str,
        dims: &[usize],
        indices: &[Expr],
    ) -> Result<Rtx, LowerError> {
        let base = Rtx::symbol(symbol);
        if indices.is_empty() {
            // Global scalar: address is the symbol itself.
            return Ok(base);
        }
        if indices.len() != dims.len() {
            return Err(err(format!("index arity mismatch on `{symbol}`")));
        }
        // Linear index: i (1-D) or i * cols + j (2-D).
        let linear = if indices.len() == 1 {
            let i = self.expr(&indices[0])?;
            self.convert(i, Mode::SI).to_rtx()
        } else {
            let i = self.expr(&indices[0])?;
            let i = self.convert(i, Mode::SI);
            let j = self.expr(&indices[1])?;
            let j = self.convert(j, Mode::SI);
            let cols = dims[1] as i64;
            let scaled = self.force_reg(Rtx::binary(
                RtxCode::Mult,
                Mode::SI,
                i.to_rtx(),
                Rtx::const_int(cols),
            ));
            self.force_reg(Rtx::binary(
                RtxCode::Plus,
                Mode::SI,
                scaled.to_rtx(),
                j.to_rtx(),
            ))
            .to_rtx()
        };
        Ok(Rtx::binary(RtxCode::Plus, Mode::SI, base, linear))
    }

    fn lookup(&self, name: &str) -> Result<Binding, LowerError> {
        self.env
            .get(name)
            .cloned()
            .ok_or_else(|| err(format!("unknown name `{name}`")))
    }

    fn assign(&mut self, target: &LValue, value: &Expr) -> Result<(), LowerError> {
        match self.lookup(&target.name)? {
            Binding::Reg { reg, mode } => {
                if !target.indices.is_empty() {
                    return Err(err(format!("scalar `{}` indexed", target.name)));
                }
                let v = self.expr(value)?;
                let v = self.convert(v, mode);
                self.emit(InsnBody::Set {
                    dest: Rtx::reg(mode, reg),
                    src: v.to_rtx(),
                });
            }
            Binding::Memory { symbol, mode, dims } => {
                // Keep the compound address inside the mem node —
                // `(mem (plus (symbol_ref a) (reg i)))` is a single x86
                // addressing mode, and GCC RTL stores it exactly so.
                let addr = self.element_address(&symbol, &dims, &target.indices)?;
                let v = self.expr(value)?;
                let v = self.convert(v, mode);
                self.emit(InsnBody::Set {
                    dest: Rtx::mem(mode, addr),
                    src: v.to_rtx(),
                });
            }
        }
        Ok(())
    }

    fn if_stmt(
        &mut self,
        cond: &Expr,
        then_blk: &Block,
        else_blk: Option<&Block>,
    ) -> Result<(), LowerError> {
        let c = self.expr(cond)?;
        let c = self.convert(c, Mode::SI);
        let l_else = self.func.fresh_label();
        // Branch to else when the condition is zero.
        self.emit(InsnBody::CondJump {
            cond: Rtx::binary(RtxCode::Eq, Mode::SI, c.to_rtx(), Rtx::const_int(0)),
            target: l_else,
        });
        self.block(then_blk)?;
        match else_blk {
            Some(e) => {
                let l_end = self.func.fresh_label();
                self.emit(InsnBody::Jump { target: l_end });
                self.emit_label(l_else);
                self.block(e)?;
                self.emit_label(l_end);
            }
            None => self.emit_label(l_else),
        }
        Ok(())
    }

    /// Shared lowering for `for` and `while` (a `while` is a `for` with no
    /// init/step).
    fn loop_stmt(
        &mut self,
        init: Option<&Stmt>,
        cond: &Expr,
        step: Option<&Stmt>,
        body: &Block,
    ) -> Result<(), LowerError> {
        if let Some(init) = init {
            self.stmt(init)?;
        }
        let l_cond = self.func.fresh_label();
        let l_body = self.func.fresh_label();
        let l_step = self.func.fresh_label();
        let l_exit = self.func.fresh_label();

        self.loop_depth += 1;
        let depth = self.loop_depth;

        self.emit_label(l_cond);
        let c = self.expr(cond)?;
        let c = self.convert(c, Mode::SI);
        self.emit(InsnBody::CondJump {
            cond: Rtx::binary(RtxCode::Eq, Mode::SI, c.to_rtx(), Rtx::const_int(0)),
            target: l_exit,
        });
        self.emit_label(l_body);
        self.block(body)?;
        self.emit_label(l_step);
        if let Some(step) = step {
            self.stmt(step)?;
        }
        self.emit(InsnBody::Jump { target: l_cond });
        self.emit_label(l_exit);
        self.loop_depth -= 1;

        let induction = self.recognise_induction(init, cond, step, body);
        let id = self.func.loops.len();
        self.func.loops.push(LoopRegion {
            id,
            cond_label: l_cond,
            body_label: l_body,
            step_label: l_step,
            exit_label: l_exit,
            depth,
            induction,
        });
        Ok(())
    }

    /// Recognises the canonical `for (v = c0; v < bound; v = v + c)` shape
    /// at the AST level; `bound` must be a constant or a scalar register
    /// that the loop body does not assign.
    fn recognise_induction(
        &self,
        init: Option<&Stmt>,
        cond: &Expr,
        step: Option<&Stmt>,
        body: &Block,
    ) -> Option<Induction> {
        // Step: `v = v + c`, c > 0 constant.
        let Stmt::Assign {
            target: step_target,
            value: step_value,
        } = step?
        else {
            return None;
        };
        if !step_target.indices.is_empty() {
            return None;
        }
        let var = &step_target.name;
        let Expr::Binary {
            op: BinOp::Add,
            lhs,
            rhs,
        } = step_value
        else {
            return None;
        };
        let step_const = match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Var(v), Expr::IntLit(c)) if v == var && *c > 0 => *c,
            _ => return None,
        };

        // Condition: `v < bound` or `v <= bound`.
        let Expr::Binary { op, lhs, rhs } = cond else {
            return None;
        };
        let inclusive = match op {
            BinOp::Lt => false,
            BinOp::Le => true,
            _ => return None,
        };
        let Expr::Var(cv) = lhs.as_ref() else {
            return None;
        };
        if cv != var {
            return None;
        }
        let bound = match rhs.as_ref() {
            Expr::IntLit(b) => Bound::Const(*b),
            Expr::Var(b) => {
                if assigns_var(body, b) || assigns_var_stmt(step.unwrap(), b) {
                    return None;
                }
                match self.env.get(b)? {
                    Binding::Reg { reg, mode: Mode::SI } => Bound::Reg(*reg),
                    _ => return None,
                }
            }
            _ => return None,
        };

        // The body must not assign the induction variable.
        if assigns_var(body, var) {
            return None;
        }

        let Binding::Reg {
            reg,
            mode: Mode::SI,
        } = self.env.get(var)?
        else {
            return None;
        };

        // Init: `v = c0` gives a known start.
        let init_const = match init {
            Some(Stmt::Assign {
                target,
                value: Expr::IntLit(c),
            }) if &target.name == var => Some(*c),
            _ => None,
        };

        Some(Induction {
            reg: *reg,
            init: init_const,
            step: step_const,
            bound,
            inclusive,
        })
    }

    fn expr(&mut self, e: &Expr) -> Result<Operand, LowerError> {
        match e {
            Expr::IntLit(v) => Ok(Operand::CInt(*v)),
            Expr::FloatLit(v) => Ok(Operand::CDouble(*v)),
            Expr::Var(name) => match self.lookup(name)? {
                Binding::Reg { reg, mode } => Ok(Operand::Reg(reg, mode)),
                Binding::Memory { symbol, mode, dims } => {
                    if !dims.is_empty() {
                        return Err(err(format!("array `{name}` used as scalar")));
                    }
                    // Global scalar load.
                    let load = Rtx::mem(mode, Rtx::symbol(symbol));
                    Ok(self.force_reg(load))
                }
            },
            Expr::Index { name, indices } => match self.lookup(name)? {
                Binding::Memory { symbol, mode, dims } => {
                    let addr = self.element_address(&symbol, &dims, indices)?;
                    let load = Rtx::mem(mode, addr);
                    Ok(self.force_reg(load))
                }
                Binding::Reg { .. } => Err(err(format!("scalar `{name}` indexed"))),
            },
            Expr::Unary { op, expr } => {
                let v = self.expr(expr)?;
                match op {
                    UnOp::Neg => {
                        let mode = v.mode();
                        Ok(self.force_reg(Rtx::unary(RtxCode::Neg, mode, v.to_rtx())))
                    }
                    UnOp::Not => {
                        let v = self.convert(v, Mode::SI);
                        Ok(self.force_reg(Rtx::binary(
                            RtxCode::Eq,
                            Mode::SI,
                            v.to_rtx(),
                            Rtx::const_int(0),
                        )))
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs),
            Expr::Call { name, args } => {
                let dest = self.call(name, args, true)?;
                dest.ok_or_else(|| err(format!("void call `{name}` used as value")))
            }
        }
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Operand, LowerError> {
        let a = self.expr(lhs)?;
        let b = self.expr(rhs)?;
        // Result/operand mode: float wins for arithmetic; comparisons use
        // the common operand mode and produce SI.
        let operand_mode = if a.mode() == Mode::DF || b.mode() == Mode::DF {
            Mode::DF
        } else {
            Mode::SI
        };
        let a = self.convert(a, operand_mode);
        let b = self.convert(b, operand_mode);
        let (code, result_mode) = match op {
            BinOp::Add => (RtxCode::Plus, operand_mode),
            BinOp::Sub => (RtxCode::Minus, operand_mode),
            BinOp::Mul => (RtxCode::Mult, operand_mode),
            BinOp::Div => (RtxCode::Div, operand_mode),
            BinOp::Rem => (RtxCode::Mod, Mode::SI),
            BinOp::Shl => (RtxCode::Ashift, Mode::SI),
            BinOp::Shr => (RtxCode::Ashiftrt, Mode::SI),
            BinOp::BitAnd => (RtxCode::And, Mode::SI),
            BinOp::BitOr => (RtxCode::Ior, Mode::SI),
            BinOp::BitXor => (RtxCode::Xor, Mode::SI),
            BinOp::Lt => (RtxCode::Lt, Mode::SI),
            BinOp::Le => (RtxCode::Le, Mode::SI),
            BinOp::Gt => (RtxCode::Gt, Mode::SI),
            BinOp::Ge => (RtxCode::Ge, Mode::SI),
            BinOp::Eq => (RtxCode::Eq, Mode::SI),
            BinOp::Ne => (RtxCode::Ne, Mode::SI),
            // Non-short-circuit logical ops over materialised 0/1 values
            // (Tiny-C expressions are pure, so this is semantics-preserving).
            BinOp::And | BinOp::Or => {
                let a = self.truth_value(a);
                let b = self.truth_value(b);
                let code = if op == BinOp::And {
                    RtxCode::And
                } else {
                    RtxCode::Ior
                };
                return Ok(self.force_reg(Rtx::binary(code, Mode::SI, a.to_rtx(), b.to_rtx())));
            }
        };
        Ok(self.force_reg(Rtx::binary(code, result_mode, a.to_rtx(), b.to_rtx())))
    }

    /// Normalises a value to 0/1 (`v != 0`).
    fn truth_value(&mut self, v: Operand) -> Operand {
        match v {
            Operand::CInt(c) => Operand::CInt(i64::from(c != 0)),
            Operand::CDouble(c) => Operand::CInt(i64::from(c != 0.0)),
            Operand::Reg(_, mode) => {
                let zero = match mode {
                    Mode::DF => Rtx::const_double(0.0),
                    _ => Rtx::const_int(0),
                };
                self.force_reg(Rtx::binary(RtxCode::Ne, Mode::SI, v.to_rtx(), zero))
            }
        }
    }

    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        want_value: bool,
    ) -> Result<Option<Operand>, LowerError> {
        let callee = self
            .program
            .function(name)
            .ok_or_else(|| err(format!("unknown function `{name}`")))?;
        let mut lowered_args = Vec::with_capacity(args.len());
        for (param, arg) in callee.params.iter().zip(args) {
            match &param.ty {
                ast::Type::Array { .. } => {
                    let Expr::Var(arg_name) = arg else {
                        return Err(err("array argument must be a name"));
                    };
                    let Binding::Memory { symbol, .. } = self.lookup(arg_name)? else {
                        return Err(err(format!("`{arg_name}` is not an array")));
                    };
                    lowered_args.push(Rtx::symbol(symbol));
                }
                ty => {
                    let mode = scalar_mode(ty).ok_or_else(|| err("void parameter"))?;
                    let v = self.expr(arg)?;
                    let v = self.convert(v, mode);
                    lowered_args.push(v.to_rtx());
                }
            }
        }
        let ret_mode = scalar_mode(&callee.ret);
        let dest = match (want_value, ret_mode) {
            (true, Some(m)) => {
                let r = self.func.fresh_reg(m);
                Some(Rtx::reg(m, r))
            }
            _ => None,
        };
        self.emit(InsnBody::Call {
            name: name.to_owned(),
            args: lowered_args,
            dest: dest.clone(),
        });
        Ok(dest.map(|d| Operand::Reg(d.as_reg().expect("dest is a reg"), d.mode)))
    }
}

/// Whether `block` contains an assignment to scalar `var`.
fn assigns_var(block: &Block, var: &str) -> bool {
    block.stmts.iter().any(|s| assigns_var_stmt(s, var))
}

fn assigns_var_stmt(s: &Stmt, var: &str) -> bool {
    match s {
        Stmt::Assign { target, .. } => target.indices.is_empty() && target.name == var,
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            assigns_var(then_blk, var)
                || else_blk.as_ref().is_some_and(|b| assigns_var(b, var))
        }
        Stmt::While { body, .. } => assigns_var(body, var),
        Stmt::For {
            init, step, body, ..
        } => {
            init.as_deref().is_some_and(|s| assigns_var_stmt(s, var))
                || step.as_deref().is_some_and(|s| assigns_var_stmt(s, var))
                || assigns_var(body, var)
        }
        Stmt::Block(b) => assigns_var(b, var),
        Stmt::Decl(d) => d.name == var, // shadowing declaration invalidates
        Stmt::Return(_) | Stmt::ExprStmt(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Bound;

    fn lower(src: &str) -> RtlProgram {
        let ast = fegen_lang::parse_program(src).unwrap();
        lower_program(&ast).unwrap()
    }

    #[test]
    fn lowers_simple_counted_loop_with_induction() {
        let p = lower(
            "int f(int n, int a[64]) {\n\
               int i; int s; s = 0;\n\
               for (i = 0; i < n; i = i + 1) { s = s + a[i]; }\n\
               return s;\n\
             }",
        );
        let f = &p.functions[0];
        assert_eq!(f.loops.len(), 1);
        let l = &f.loops[0];
        assert!(l.is_simple(), "canonical for loop must be simple");
        let ind = l.induction.unwrap();
        assert_eq!(ind.init, Some(0));
        assert_eq!(ind.step, 1);
        assert!(matches!(ind.bound, Bound::Reg(_)));
        assert!(!ind.inclusive);
        assert_eq!(l.depth, 1);
    }

    #[test]
    fn constant_bound_gives_trip_count() {
        let p = lower(
            "void f(int a[64]) { int i; for (i = 0; i < 64; i = i + 4) { a[i] = i; } }",
        );
        let l = &p.functions[0].loops[0];
        assert_eq!(l.trip_count(), Some(16));
    }

    #[test]
    fn while_loop_is_not_simple() {
        let p = lower("void f(int n) { int i; i = 0; while (i < n) { i = i + 1; } }");
        let l = &p.functions[0].loops[0];
        assert!(!l.is_simple());
        assert_eq!(l.trip_count(), None);
    }

    #[test]
    fn body_assignment_to_induction_blocks_simplicity() {
        let p = lower(
            "void f(int n) { int i; for (i = 0; i < n; i = i + 1) { if (i > 3) { i = i + 2; } } }",
        );
        assert!(!p.functions[0].loops[0].is_simple());
    }

    #[test]
    fn nested_loops_have_depths() {
        let p = lower(
            "void f(int m[8][8]) {\n\
               int i; int j;\n\
               for (i = 0; i < 8; i = i + 1) {\n\
                 for (j = 0; j < 8; j = j + 1) { m[i][j] = i + j; }\n\
               }\n\
             }",
        );
        let f = &p.functions[0];
        assert_eq!(f.loops.len(), 2);
        // Inner loop is recorded first (finished lowering first).
        assert_eq!(f.loops[0].depth, 2);
        assert_eq!(f.loops[1].depth, 1);
    }

    #[test]
    fn loop_span_and_ninsns() {
        let p = lower("void f(int a[16]) { int i; for (i = 0; i < 16; i = i + 1) { a[i] = 0; } }");
        let f = &p.functions[0];
        let l = &f.loops[0];
        let (s, e) = f.loop_span(l).unwrap();
        assert!(s < e);
        assert!(f.loop_ninsns(l) >= 4, "cond, store, step, jump at minimum");
    }

    #[test]
    fn global_scalars_load_and_store_through_memory() {
        let p = lower("int g; void f() { g = g + 1; }");
        let f = &p.functions[0];
        let has_load = f.insns.iter().any(|i| {
            matches!(&*i.body, InsnBody::Set { src, .. } if src.code == RtxCode::Mem)
        });
        let has_store = f.insns.iter().any(|i| {
            matches!(&*i.body, InsnBody::Set { dest, .. } if dest.code == RtxCode::Mem)
        });
        assert!(has_load && has_store);
        assert!(p.layout.get("g").is_some());
    }

    #[test]
    fn two_dimensional_indexing_scales_by_columns() {
        let p = lower("float m[4][6]; void f() { m[2][3] = 1.0; }");
        let f = &p.functions[0];
        // Somewhere a (mult ... (const_int 6)) must appear.
        let mut found = false;
        for i in &f.insns {
            if let InsnBody::Set { src, .. } = &*i.body {
                src.visit(&mut |n| {
                    if n.code == RtxCode::Mult
                        && n.ops.iter().any(|o| o.as_const_int() == Some(6))
                    {
                        found = true;
                    }
                });
            }
        }
        assert!(found, "column scaling by 6 not found:\n{}", f.dump());
    }

    #[test]
    fn local_arrays_get_function_scoped_symbols() {
        let p = lower("void f() { int buf[32]; buf[0] = 1; }");
        assert!(p.layout.get("f::buf").is_some());
    }

    #[test]
    fn float_int_conversion_emitted() {
        let p = lower("float f(int n) { return n * 1.5; }");
        let f = &p.functions[0];
        let mut has_float_conv = false;
        for i in &f.insns {
            if let InsnBody::Set { src, .. } = &*i.body {
                src.visit(&mut |n| has_float_conv |= n.code == RtxCode::Float);
            }
        }
        assert!(has_float_conv, "int->float conversion missing:\n{}", f.dump());
    }

    #[test]
    fn call_lowering_passes_arrays_as_symbols() {
        let p = lower(
            "int sum(int a[8]) { return a[0]; }\n\
             int g; int f(int x[8]) { return sum(x) + g; }",
        );
        let f = p.function("f").unwrap();
        let call = f
            .insns
            .iter()
            .find_map(|i| match &*i.body {
                InsnBody::Call { name, args, dest } => Some((name, args, dest)),
                _ => None,
            })
            .expect("call insn present");
        assert_eq!(call.0, "sum");
        assert_eq!(call.1[0].code, RtxCode::SymbolRef);
        assert!(call.2.is_some());
    }

    #[test]
    fn if_else_produces_two_labels_and_jump() {
        let p = lower("int f(int x) { if (x > 0) { return 1; } else { return 2; } return 0; }");
        let f = &p.functions[0];
        let n_condjump = f
            .insns
            .iter()
            .filter(|i| matches!(*i.body, InsnBody::CondJump { .. }))
            .count();
        assert_eq!(n_condjump, 1);
    }

    #[test]
    fn implicit_return_added_for_void() {
        let p = lower("void f() { }");
        assert!(matches!(
            *p.functions[0].insns.last().unwrap().body,
            InsnBody::Return { value: None }
        ));
    }

    #[test]
    fn logical_ops_materialise_truth_values() {
        let p = lower("int f(int a, int b) { return a > 0 && b > 2; }");
        let f = &p.functions[0];
        let mut has_and = false;
        for i in &f.insns {
            if let InsnBody::Set { src, .. } = &*i.body {
                has_and |= src.code == RtxCode::And;
            }
        }
        assert!(has_and, "{}", f.dump());
    }
}
