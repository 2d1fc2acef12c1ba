//! Lowering from the checked AST to the register IR.
//!
//! Lowering is *total*: every statement either becomes register
//! instructions or a tree escape that hands the original AST fragment to
//! the evaluators in `crate::exec`. Sequential control flow — `if`,
//! loops, `return`/`break`/`continue`, front-end `seq` — and user calls
//! always become instructions; sema has already rejected them where
//! they cannot (inside parallel constructs), so nothing downstream
//! re-decides control flow. Escapes are one parallel construct, one
//! expression, or one declaration.
//!
//! Expression lowering is all-or-nothing per statement-level expression:
//! if any subexpression cannot be lowered (array access, reduction,
//! parallel value), the partial instructions are rolled
//! back and the *whole* expression escapes, so an expression's side
//! effects and errors keep their source order whichever side runs it.
//!
//! Names are not the lowerer's business. Sema wrote on every identifier
//! what it denotes ([`Ref`]), on every call what it calls ([`Callee`]),
//! and numbered every front-end scalar local's register
//! (`sema::FuncInfo`), so an identifier lowers by a `match` on its
//! reference — register local, global, `#define`, or "escape" — a call by
//! one on its callee, to the builtin's instruction or a `Call` of the
//! function's index, and the registers the function needs are sema's
//! count plus nothing.
//! Scoping leaves one trace: a block that declares a local array ends
//! in a `FreeLocals` over the ids it declared. Index sets leave none: a
//! definition lowers to nothing but its span.

use std::collections::HashMap;

use uc_cm::Scalar;

use super::{Instr, IrBody, IrFunc, IrProgram, Reg, Target};
use crate::ast::{
    BinaryOp, Block, Callee, Expr, FuncDef, LocalId, Name, Node, Ref, Stmt, Type, UcKind, UcStmt,
};
use crate::exec::IrOpt;
use crate::sema::{Checked, FuncInfo, LocalKind};
use crate::stdlib::Builtin;

/// Maximum AST depth of a tree-escaped fragment for the program to stay
/// eligible for on-thread (inline) execution. Tree evaluation recurses
/// natively, so escapes deeper than this force the big-stack thread.
const MAX_INLINE_TREE_DEPTH: usize = 96;

/// Lower every function of a checked program.
pub fn lower_program(
    checked: &Checked,
    global_index: &HashMap<String, u32>,
    opt: IrOpt,
) -> IrProgram {
    // Only the aggressive rewrites mutate the AST; otherwise lower the
    // checked bodies where they are.
    let rewritten: Vec<FuncDef>;
    let funcs_src: Vec<&FuncDef> = if opt == IrOpt::Aggressive {
        rewritten = checked
            .funcs_in_order()
            .map(|f| {
                let mut f = f.clone();
                super::passes::aggressive_rewrite(&mut f);
                f
            })
            .collect();
        rewritten.iter().collect()
    } else {
        checked.funcs_in_order().collect()
    };
    let mut funcs = Vec::with_capacity(funcs_src.len());
    let mut inline_ok = true;
    for (f, info) in funcs_src.iter().zip(&checked.func_infos) {
        let (func, stats) = Lowerer::new(checked, info).run(f);
        inline_ok &= func.body.is_some()
            && !stats.tree_user_call
            && stats.max_tree_depth <= MAX_INLINE_TREE_DEPTH;
        funcs.push(func);
    }
    for func in &mut funcs {
        if let Some(body) = &mut func.body {
            super::passes::optimize(body, func.n_perm);
        }
    }
    let mut global_names = vec![String::new(); global_index.len()];
    for (n, &i) in global_index {
        global_names[i as usize] = n.clone();
    }
    let set_names = checked.sets.iter().map(|s| s.name.clone()).collect();
    IrProgram { funcs, global_names, set_names, opt, inline_ok }
}

/// Inline-eligibility facts gathered while lowering one function.
struct FuncStats {
    /// A tree escape contains a user-function call (which re-enters
    /// the VM natively).
    tree_user_call: bool,
    /// Deepest AST subtree handed to a tree escape.
    max_tree_depth: usize,
}

/// Where an assignment to a scalar lands.
#[derive(Clone, Copy)]
enum Place {
    Slot { idx: Reg, float: bool },
    Global(u32),
}

#[derive(Clone, Copy)]
struct LoopCtx {
    break_to: usize,
    continue_to: usize,
    /// `open_arrays.len()` at the loop statement; `break`/`continue` free
    /// the blocks opened since before jumping.
    open_arrays: usize,
}

struct Lowerer<'a> {
    checked: &'a Checked,
    /// Sema's table of the function being lowered.
    info: &'a FuncInfo,

    code: Vec<Instr>,
    stmts: Vec<Stmt>,
    exprs: Vec<Expr>,

    /// The open blocks that declare local arrays, innermost last: the
    /// `LocalId` range spanning each one's declarations.
    open_arrays: Vec<(LocalId, LocalId)>,
    loops: Vec<LoopCtx>,

    /// Label id -> instruction index (patched into jumps at the end).
    labels: Vec<Target>,
    patches: Vec<(usize, usize)>,

    // Register allocation (u32 so overflow is detected, not wrapped).
    next_perm: u32,
    perm_limit: u32,
    next_temp: u32,
    watermark: u32,
    failed: bool,

    stats: FuncStats,
}

impl<'a> Lowerer<'a> {
    fn new(checked: &'a Checked, info: &'a FuncInfo) -> Self {
        Lowerer {
            checked,
            info,
            code: Vec::new(),
            stmts: Vec::new(),
            exprs: Vec::new(),
            open_arrays: Vec::new(),
            loops: Vec::new(),
            labels: Vec::new(),
            patches: Vec::new(),
            next_perm: 0,
            perm_limit: 0,
            next_temp: 0,
            watermark: 0,
            failed: false,
            stats: FuncStats { tree_user_call: false, max_tree_depth: 0 },
        }
    }

    fn run(mut self, f: &FuncDef) -> (IrFunc, FuncStats) {
        let params: Vec<bool> = f.params.iter().map(|(ty, _)| *ty == Type::Float).collect();
        // Sema numbered the named locals' registers `0..regs` (parameters
        // first) and counted what the loops keep beside them.
        let mut n_perm = self.info.regs + self.info.loop_regs;
        if n_perm > u16::MAX as u32 {
            self.failed = true;
            n_perm = 0;
        }
        self.perm_limit = n_perm;
        self.next_temp = self.perm_limit;
        self.watermark = self.perm_limit;
        self.next_perm = self.info.regs;

        self.lower_block(&f.body);
        // Falling off the end returns nothing.
        self.code.push(Instr::Ret { src: None });

        for (i, l) in &self.patches {
            let t = self.labels[*l];
            match &mut self.code[*i] {
                Instr::Jump { t: x }
                | Instr::JumpIfFalse { t: x, .. }
                | Instr::JumpIfTrue { t: x, .. } => *x = t,
                other => unreachable!("patched a non-jump: {other:?}"),
            }
        }

        let body = if self.failed {
            None
        } else {
            Some(IrBody { code: self.code, stmts: self.stmts, exprs: self.exprs })
        };
        (
            IrFunc {
                name: f.name.clone(),
                params,
                n_slots: self.watermark.min(u16::MAX as u32) as u16,
                n_perm: self.perm_limit as u16,
                body,
            },
            self.stats,
        )
    }

    // ---- registers, labels, scopes ------------------------------------

    fn temp(&mut self) -> Reg {
        let r = self.next_temp;
        self.next_temp += 1;
        if self.next_temp > u16::MAX as u32 + 1 {
            self.failed = true;
            return 0;
        }
        self.watermark = self.watermark.max(self.next_temp);
        r as Reg
    }

    /// Temporaries are dead between statements; reuse them.
    fn reset_temps(&mut self) {
        self.next_temp = self.perm_limit;
    }

    /// A register a loop keeps across statements (counter or flag).
    fn alloc_perm(&mut self) -> Reg {
        let r = self.next_perm;
        self.next_perm += 1;
        if self.next_perm > self.perm_limit {
            self.failed = true;
            return 0;
        }
        r as Reg
    }

    fn new_label(&mut self) -> usize {
        self.labels.push(Target::MAX);
        self.labels.len() - 1
    }

    fn bind(&mut self, l: usize) {
        self.labels[l] = self.code.len() as Target;
    }

    fn emit_jump(&mut self, l: usize, make: impl FnOnce(Target) -> Instr) {
        self.patches.push((self.code.len(), l));
        self.code.push(make(Target::MAX));
    }

    /// The register of a front-end scalar local, if `id` is one.
    fn local_reg(&self, id: LocalId) -> Option<(Reg, bool)> {
        let local = &self.info.locals[id as usize];
        match local.kind {
            LocalKind::Reg(idx) => Some((idx, local.ty == Type::Float)),
            LocalKind::PerVp | LocalKind::Array(_) => None,
        }
    }

    /// Free the local arrays of the blocks opened since `base`.
    fn free_arrays_above(&mut self, base: usize) {
        let opened = (self.open_arrays.get(base), self.open_arrays.last());
        if let (Some(&(lo, _)), Some(&(_, hi))) = opened {
            self.code.push(Instr::FreeLocals { lo, hi });
        }
    }

    // ---- escapes ------------------------------------------------------

    fn emit_span(&mut self, s: &Stmt) {
        if let Some(sp) = s.span() {
            self.code.push(Instr::SetSpan { span: sp });
        }
    }

    /// Escape a whole statement to the tree evaluator. `exec_stmt` sets
    /// the span itself, so no `SetSpan` is emitted here.
    fn tree_stmt(&mut self, s: &Stmt) {
        let mut call = false;
        let d = stmt_depth(s, &mut call);
        self.stats.tree_user_call |= call;
        self.stats.max_tree_depth = self.stats.max_tree_depth.max(d);
        let idx = self.stmts.len() as u32;
        self.stmts.push(s.clone());
        self.code.push(Instr::Tree { s: idx });
    }

    fn account_expr(&mut self, e: &Expr) {
        let mut call = false;
        let d = expr_depth(e, &mut call);
        self.stats.tree_user_call |= call;
        self.stats.max_tree_depth = self.stats.max_tree_depth.max(d);
    }

    /// Lower an expression whose value is needed (condition, return
    /// value, initializer), escaping the whole expression if it cannot
    /// be compiled.
    fn lower_value(&mut self, e: &Expr) -> Reg {
        if let Some(r) = self.try_expr(e) {
            return r;
        }
        self.account_expr(e);
        let idx = self.exprs.len() as u32;
        self.exprs.push(e.clone());
        let t = self.temp();
        self.code.push(Instr::EvalExpr { dst: t, e: idx });
        t
    }

    /// Lower an expression evaluated for effect (expression statement,
    /// `for` init/step).
    fn lower_effect(&mut self, e: &Expr) {
        if self.try_expr(e).is_some() {
            return; // value discarded; DSE cleans up pure leftovers
        }
        self.account_expr(e);
        let idx = self.exprs.len() as u32;
        self.exprs.push(e.clone());
        self.code.push(Instr::EvalEffect { e: idx });
    }

    /// All-or-nothing expression lowering: on failure every emitted
    /// instruction, label, and temp is rolled back.
    fn try_expr(&mut self, e: &Expr) -> Option<Reg> {
        let cp = (self.code.len(), self.patches.len(), self.labels.len(), self.next_temp);
        match self.go_expr(e) {
            Some(r) => Some(r),
            None => {
                self.code.truncate(cp.0);
                self.patches.truncate(cp.1);
                self.labels.truncate(cp.2);
                self.next_temp = cp.3;
                None
            }
        }
    }

    // ---- expressions --------------------------------------------------

    fn emit_const(&mut self, v: Scalar) -> Option<Reg> {
        let t = self.temp();
        self.code.push(Instr::Const { dst: t, v });
        Some(t)
    }

    /// Where a store to `name` lands, if it is a front-end scalar variable.
    fn place(&self, name: &Name) -> Option<Place> {
        match name.to {
            Ref::Local(id) => self.local_reg(id).map(|(idx, float)| Place::Slot { idx, float }),
            Ref::Global(g) => Some(Place::Global(g)),
            _ => None,
        }
    }

    fn go_expr(&mut self, e: &Expr) -> Option<Reg> {
        match e {
            Expr::IntLit(v, _) => self.emit_const(Scalar::Int(*v)),
            Expr::FloatLit(v, _) => self.emit_const(Scalar::Float(*v)),
            Expr::Inf(_) => self.emit_const(Scalar::Int(i64::MAX)),
            Expr::Ident(name, _) => match name.to {
                Ref::Local(id) => {
                    // Copy to a temp: the value is captured at read time
                    // (`x + (x = 3)` reads the old `x`).
                    let (src, _) = self.local_reg(id)?;
                    let t = self.temp();
                    self.code.push(Instr::Copy { dst: t, src });
                    Some(t)
                }
                Ref::Global(g) => {
                    let t = self.temp();
                    self.code.push(Instr::LoadGlobal { dst: t, g });
                    Some(t)
                }
                Ref::Const(id) => {
                    self.emit_const(Scalar::Int(self.checked.unit.defines[id as usize].1))
                }
                // An index element is a parallel value: escape.
                Ref::Elem(_) | Ref::Array(_) | Ref::Unresolved => None,
            },
            Expr::Index { .. } | Expr::Reduce(_) => None,
            Expr::Unary { op, expr, .. } => {
                let a = self.go_expr(expr)?;
                let t = self.temp();
                self.code.push(Instr::Un { op: *op, dst: t, a });
                Some(t)
            }
            Expr::Binary { op: op @ (BinaryOp::LogAnd | BinaryOp::LogOr), lhs, rhs, .. } => {
                let a = self.go_expr(lhs)?;
                let t = self.temp();
                self.code.push(Instr::Truthy { dst: t, src: a });
                let end = self.new_label();
                if *op == BinaryOp::LogAnd {
                    self.emit_jump(end, |tg| Instr::JumpIfFalse { c: t, t: tg });
                } else {
                    self.emit_jump(end, |tg| Instr::JumpIfTrue { c: t, t: tg });
                }
                let b = self.go_expr(rhs)?;
                self.code.push(Instr::Truthy { dst: t, src: b });
                self.bind(end);
                Some(t)
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let a = self.go_expr(lhs)?;
                let b = self.go_expr(rhs)?;
                let t = self.temp();
                self.code.push(Instr::Bin { op: *op, dst: t, a, b });
                Some(t)
            }
            Expr::Ternary { cond, then_e, else_e, .. } => {
                let c = self.go_expr(cond)?;
                let t = self.temp();
                let lelse = self.new_label();
                let lend = self.new_label();
                self.emit_jump(lelse, |tg| Instr::JumpIfFalse { c, t: tg });
                let a = self.go_expr(then_e)?;
                self.code.push(Instr::Copy { dst: t, src: a });
                self.emit_jump(lend, |tg| Instr::Jump { t: tg });
                self.bind(lelse);
                let b = self.go_expr(else_e)?;
                self.code.push(Instr::Copy { dst: t, src: b });
                self.bind(lend);
                Some(t)
            }
            Expr::Call { callee, args, .. } => self.go_call(*callee, args),
            Expr::Assign { target, op, value, .. } => {
                let Expr::Ident(name, _) = target.as_ref() else { return None };
                let place = self.place(name)?;
                // Tree order: value first, then the old value for
                // compound assignments.
                let r = self.go_expr(value)?;
                let src = match op {
                    None => r,
                    Some(bop) => {
                        let old = self.temp();
                        match place {
                            Place::Slot { idx, .. } => {
                                self.code.push(Instr::Copy { dst: old, src: idx })
                            }
                            Place::Global(g) => {
                                self.code.push(Instr::LoadGlobal { dst: old, g })
                            }
                        }
                        let t = self.temp();
                        self.code.push(Instr::Bin { op: *bop, dst: t, a: old, b: r });
                        t
                    }
                };
                match place {
                    Place::Slot { idx, float } => {
                        self.code.push(Instr::StoreSlot { slot: idx, src, float })
                    }
                    Place::Global(g) => self.code.push(Instr::StoreGlobal { g, src }),
                }
                Some(src) // assignments yield the pre-coercion value
            }
        }
    }

    /// A call, by what sema resolved it to; sema has checked every arity.
    fn go_call(&mut self, callee: Callee, args: &[Expr]) -> Option<Reg> {
        let mut regs = Vec::with_capacity(args.len());
        for a in args {
            regs.push(self.go_expr(a)?);
        }
        let dst = self.temp();
        self.code.push(match (callee, regs.as_slice()) {
            (Callee::Builtin(Builtin::Power2), &[a]) => Instr::Power2 { dst, a },
            (Callee::Builtin(Builtin::Rand), _) => Instr::Rand { dst },
            (Callee::Builtin(Builtin::Abs), &[a]) => Instr::Abs { dst, a },
            (Callee::Builtin(f @ (Builtin::Min | Builtin::Max)), &[a, b]) => {
                Instr::MinMax { dst, a, b, is_min: f == Builtin::Min }
            }
            (Callee::Func(f), _) => Instr::Call { dst, f, args: regs },
            _ => unreachable!("sema resolves every call and its arity, and `swap` is a statement"),
        });
        Some(dst)
    }

    // ---- statements ---------------------------------------------------

    fn lower_block(&mut self, b: &Block) {
        // The local arrays declared directly in the block, as the id
        // range spanning them (ids ascend in source order).
        let mut arrays = b.stmts.iter().filter_map(|s| match s {
            Stmt::Decl(v) if !v.dims.is_empty() => Some(v.local),
            _ => None,
        });
        let range = arrays.next().map(|lo| (lo, arrays.next_back().unwrap_or(lo) + 1));
        self.open_arrays.extend(range);
        for s in &b.stmts {
            self.reset_temps();
            self.lower_stmt(s);
        }
        if range.is_some() {
            self.free_arrays_above(self.open_arrays.len() - 1);
            self.open_arrays.pop();
        }
    }

    /// A branch body (`if`/loop/`seq` arm).
    fn lower_branch(&mut self, s: &Stmt) {
        self.reset_temps();
        self.lower_stmt(s);
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Empty => {}
            Stmt::Block(b) => self.lower_block(b),
            Stmt::Expr(e) => {
                // `swap` is a tree-evaluated special form.
                if let Expr::Call { callee: Callee::Builtin(Builtin::Swap), .. } = e {
                    self.tree_stmt(s);
                    return;
                }
                self.emit_span(s);
                self.lower_effect(e);
            }
            Stmt::Decl(v) => {
                if !v.dims.is_empty() {
                    self.tree_stmt(s); // array declaration
                    return;
                }
                self.emit_span(s);
                let init = match &v.init {
                    Some(e) => self.lower_value(e),
                    None => {
                        let t = self.temp();
                        self.code.push(Instr::Const { dst: t, v: Scalar::Int(0) });
                        t
                    }
                };
                let (slot, float) =
                    self.local_reg(v.local).expect("a scalar declared on the front end");
                self.code.push(Instr::StoreSlot { slot, src: init, float });
            }
            // Nothing to execute; the span keeps a later `RunError` where
            // it was when the definition ran as a tree escape.
            Stmt::IndexSets(_) => self.emit_span(s),
            Stmt::Uc(uc) if uc.kind == UcKind::Seq => self.lower_seq(s, uc),
            Stmt::Uc(_) => self.tree_stmt(s),
            Stmt::If { cond, then_branch, else_branch, .. } => {
                self.emit_span(s);
                let c = self.lower_value(cond);
                let lelse = self.new_label();
                self.emit_jump(lelse, |t| Instr::JumpIfFalse { c, t });
                self.lower_branch(then_branch);
                if let Some(eb) = else_branch {
                    let lend = self.new_label();
                    self.emit_jump(lend, |t| Instr::Jump { t });
                    self.bind(lelse);
                    self.lower_branch(eb);
                    self.bind(lend);
                } else {
                    self.bind(lelse);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.emit_span(s);
                let cnt = self.alloc_perm();
                self.code.push(Instr::IterInit { slot: cnt });
                let head = self.new_label();
                let exit = self.new_label();
                self.bind(head);
                self.reset_temps();
                let c = self.lower_value(cond);
                self.emit_jump(exit, |t| Instr::JumpIfFalse { c, t });
                self.code.push(Instr::IterCheck { slot: cnt, label: "while loop" });
                self.loops.push(LoopCtx {
                    break_to: exit,
                    continue_to: head,
                    open_arrays: self.open_arrays.len(),
                });
                self.lower_branch(body);
                self.loops.pop();
                self.emit_jump(head, |t| Instr::Jump { t });
                self.bind(exit);
            }
            Stmt::For { init, cond, step, body, .. } => {
                self.emit_span(s);
                if let Some(e) = init {
                    self.reset_temps();
                    self.lower_effect(e);
                }
                let cnt = self.alloc_perm();
                self.code.push(Instr::IterInit { slot: cnt });
                let head = self.new_label();
                let stepl = self.new_label();
                let exit = self.new_label();
                self.bind(head);
                self.reset_temps();
                if let Some(c) = cond {
                    let cv = self.lower_value(c);
                    self.emit_jump(exit, |t| Instr::JumpIfFalse { c: cv, t });
                }
                self.code.push(Instr::IterCheck { slot: cnt, label: "for loop" });
                self.loops.push(LoopCtx {
                    break_to: exit,
                    continue_to: stepl,
                    open_arrays: self.open_arrays.len(),
                });
                self.lower_branch(body);
                self.loops.pop();
                self.bind(stepl);
                self.reset_temps();
                if let Some(e) = step {
                    self.lower_effect(e);
                }
                self.emit_jump(head, |t| Instr::Jump { t });
                self.bind(exit);
            }
            Stmt::Return(e, _) => {
                self.emit_span(s);
                let src = e.as_ref().map(|e| self.lower_value(e));
                self.code.push(Instr::Ret { src });
            }
            Stmt::Break(_) | Stmt::Continue(_) => {
                self.emit_span(s);
                match self.loops.last().copied() {
                    Some(lc) => {
                        self.free_arrays_above(lc.open_arrays);
                        let to =
                            if matches!(s, Stmt::Break(_)) { lc.break_to } else { lc.continue_to };
                        self.emit_jump(to, |t| Instr::Jump { t });
                    }
                    // Outside any loop both leave the function.
                    None => self.code.push(Instr::Ret { src: None }),
                }
            }
        }
    }

    /// Front-end `seq` / `*seq` (§3.5). Function bodies always run with
    /// no parallel construct open, so every `seq` the lowerer reaches
    /// sweeps on the front end; a `seq` nested in a `par` body is part of
    /// that construct's tree escape and runs under context masks instead.
    fn lower_seq(&mut self, s: &Stmt, uc: &UcStmt) {
        let set = uc.sets[0];
        self.emit_span(s);
        self.code.push(Instr::SeqEnter { set });
        let (elem, _) = self.local_reg(uc.elem).expect("a seq element is a front-end scalar");
        let cnt = self.alloc_perm();
        self.code.push(Instr::IterInit { slot: cnt });
        // `*seq` sweeps again while some arm ran during the last sweep;
        // `others` runs for an element when none of its arms did.
        let swept = uc.star.then(|| self.alloc_perm());
        let matched = uc.others.as_ref().map(|_| self.alloc_perm());
        let (sweep, next, done) = (self.new_label(), self.new_label(), self.new_label());
        self.bind(sweep);
        self.code.push(Instr::IterCheck { slot: cnt, label: "*seq" });
        self.set_flag(swept, 0);
        self.bind(next);
        self.reset_temps();
        let more = self.temp();
        self.code.push(Instr::SeqNext { elem, more });
        self.emit_jump(done, |t| Instr::JumpIfFalse { c: more, t });
        self.set_flag(matched, 0);
        for arm in &uc.arms {
            let skip = self.new_label();
            if let Some(p) = &arm.pred {
                self.reset_temps();
                let c = self.lower_value(p);
                self.emit_jump(skip, |t| Instr::JumpIfFalse { c, t });
            }
            self.set_flag(swept, 1);
            self.set_flag(matched, 1);
            self.lower_branch(&arm.body);
            self.bind(skip);
        }
        if let (Some(others), Some(c)) = (&uc.others, matched) {
            let skip = self.new_label();
            self.emit_jump(skip, |t| Instr::JumpIfTrue { c, t });
            self.lower_branch(others);
            self.bind(skip);
        }
        self.emit_jump(next, |t| Instr::Jump { t });
        self.bind(done);
        if let Some(c) = swept {
            self.emit_jump(sweep, |t| Instr::JumpIfTrue { c, t });
        }
        self.code.push(Instr::SeqExit);
    }

    /// `r[flag] = v`, for a `seq` flag the construct needs.
    fn set_flag(&mut self, flag: Option<Reg>, v: i64) {
        if let Some(dst) = flag {
            self.code.push(Instr::Const { dst, v: Scalar::Int(v) });
        }
    }

}

// ---- escape statistics ----------------------------------------------

/// Nesting depth of the tree evaluator's recursion on `s`, and whether a
/// user call (which re-enters the VM natively) sits anywhere inside.
fn stmt_depth(s: &Stmt, user_call: &mut bool) -> usize {
    let mut d = 0;
    s.for_each_child(|n| {
        d = d.max(match n {
            Node::Expr(e) => expr_depth(e, user_call),
            Node::Stmt(s) => stmt_depth(s, user_call),
        })
    });
    d + 1
}

fn expr_depth(e: &Expr, user_call: &mut bool) -> usize {
    *user_call |= matches!(e, Expr::Call { callee: Callee::Func(_), .. });
    let mut d = 0;
    e.for_each_child(|c| d = d.max(expr_depth(c, user_call)));
    d + 1
}
