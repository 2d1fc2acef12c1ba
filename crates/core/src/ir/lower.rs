//! Lowering from the checked AST to the register IR.
//!
//! Lowering is *total*: every front-end statement and expression becomes
//! register instructions — control flow, user calls, array elements and
//! `swap` included — except what opens an iteration space: a parallel
//! construct, a reduction (which escapes alone, in its place in
//! evaluation order) or a local array declaration, each a tree escape
//! handing its AST fragment to `crate::exec`. Sema has rejected control
//! flow inside parallel constructs, so nothing downstream re-decides it.
//!
//! Names are not the lowerer's business. Sema wrote on every identifier
//! what it denotes ([`Ref`]), on every call what it calls ([`Callee`]),
//! and numbered every front-end scalar local's register
//! (`sema::FuncInfo`), so an identifier lowers by a `match` on its
//! reference — register local, global or `#define` — a call by one on
//! its callee, to `Rand` or a `Call` of the function's index, and the
//! registers the function needs are sema's count plus nothing.
//! Scoping leaves one trace: a block that declares a local array ends
//! in a `FreeLocals` over the ids it declared. Index sets leave none: a
//! definition lowers to nothing.
//!
//! Operands are registers, not copies: a register local is read where
//! the instruction that uses it runs, and a literal, `#define` or `INF`
//! is a constant register of the function. Only an assignment between a
//! read's place in evaluation order and its use can tell — so when the
//! statement-level expression, its root chain of assignments (`a = b = …`,
//! but not an element target's subscripts) stripped, still assigns
//! (`x + (x = 3)`, `f(x, x = 2)`, `m[x = 1] = x`),
//! every read of a local copies to a temporary and every store goes
//! through `StoreSlot`. Otherwise a value whose run-time representation
//! the lowerer can name (`Repr`) and finds to be the slot's declared
//! type is computed straight into the slot; `StoreSlot` coerces the
//! rest, and a `return` coerces to the declared type by the same rule.
//!
//! What this emits is what the VM runs: no pass folds a literal
//! expression or drops an unreachable instruction (the implicit `ret`
//! after a final `return`). Front-end code charges no cycles, so neither
//! would change a result, a cycle or a trap.

use std::collections::HashMap;

use uc_cm::Scalar;

use super::{Instr, IrBody, IrFunc, IrProgram, Reg, Target};
use crate::ast::{
    BinaryOp, Block, Callee, Expr, FuncDef, LocalId, Name, Node, Ref, Stmt, Type, UcKind, UcStmt,
    UnaryOp,
};
use crate::exec::IrOpt;
use crate::sema::{Checked, FuncInfo, LocalKind};
use crate::span::Span;
use crate::stdlib::Builtin;

/// Maximum AST depth of a tree-escaped fragment for the program to stay
/// eligible for on-thread (inline) execution. Tree evaluation recurses
/// natively, so escapes deeper than this force the big-stack thread.
const MAX_INLINE_TREE_DEPTH: usize = 96;

/// Lower the functions `main` reaches
/// ([`Checked::reachable`]), the only ones that can run. `funcs` still
/// has one entry per function, since a [`Callee::Func`] indexes it; a
/// function `main` never reaches gets no body, and neither decides
/// `inline_ok` nor can fail the register-file check.
///
/// `global_index` and `opt` are read by no one: global slots are sema's
/// (`Checked::global_names` order) and there is one pipeline.
/// `benchmark/src/bin/ucprobe.rs` still passes both; ROADMAP item 13(b)
/// drops them together with the probe's call.
pub fn lower_program(
    checked: &Checked,
    _global_index: &HashMap<String, u32>,
    _opt: IrOpt,
) -> IrProgram {
    let rets: Vec<Type> = checked.funcs_in_order().map(|f| f.ret).collect();
    let mut inline_ok = true;
    let defs = checked.funcs_in_order().zip(&checked.func_infos).zip(&checked.reachable);
    let mut funcs = Vec::with_capacity(rets.len());
    funcs.extend(defs.map(|((f, info), &reached)| {
        if !reached {
            let (name, params, image) = (f.name.clone(), Vec::new(), Vec::new());
            return IrFunc { name, params, n_perm: 0, const_base: 0, image, body: None };
        }
        let (func, stats) = Lowerer::new(checked, info, &rets, f.ret).run(f);
        inline_ok &= func.body.is_some()
            && !stats.tree_user_call
            && stats.max_tree_depth <= MAX_INLINE_TREE_DEPTH;
        func
    }));
    IrProgram { funcs, inline_ok }
}

/// Inline-eligibility facts gathered while lowering one function.
struct FuncStats {
    /// A tree escape contains a user-function call (which re-enters
    /// the VM natively).
    tree_user_call: bool,
    /// Deepest AST subtree handed to a tree escape.
    max_tree_depth: usize,
}

/// Whether reads of locals must be captured where they stand: `e`, below
/// its root chain of assignments, assigns again — the subscripts of an
/// element on that chain included, since they run after its value.
fn reads_need_copies(e: &Expr) -> bool {
    let assigns = |e: &Expr| e.any(&mut |x| matches!(x, Expr::Assign { .. }));
    let mut v = e;
    while let Expr::Assign { ops, .. } = v {
        let [target, value] = &**ops;
        if matches!(target, Expr::Index { .. }) && assigns(target) {
            return true;
        }
        v = value;
    }
    assigns(v)
}

/// The run-time representation of a lowered value, where the types say:
/// `Some(true)` a float, `Some(false)` an int. Every register local,
/// global and int function holds its declared type (each store and
/// `return` coerces); `scalar_binary` & co. decide the rest.
type Repr = Option<bool>;

/// A lowered value: the register holding it and what that holds.
type Lowered = (Reg, Repr);

/// Representation of `a op b` given its operands'.
fn bin_repr(op: BinaryOp, a: Repr, b: Repr) -> Repr {
    use BinaryOp::*;
    match op {
        Add | Sub | Mul | Div | Min | Max => Some(a? | b?),
        _ => Some(false),
    }
}

/// Where an assignment lands: a front-end scalar, or an element whose
/// subscripts are in registers.
#[derive(Clone)]
enum Place {
    Slot { idx: Reg, float: bool },
    Global(u32),
    Elem(Ref, Box<[Reg]>),
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
    /// Declared return type of every function ([`Callee::Func`]), and of
    /// the one being lowered.
    rets: &'a [Type],
    ret: Type,

    code: Vec<Instr>,
    /// Per instruction, the span current when it was emitted.
    spans: Vec<Span>,
    /// Span of the innermost statement being lowered that has one.
    cur_span: Span,
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
    /// The function's constants in first-use order, and each one's
    /// register: `Reg::MAX - position` until `run` knows where they go.
    const_vals: Vec<Scalar>,
    consts: HashMap<(u8, u64), Reg>,
    /// Set per statement-level expression: see [`reads_need_copies`].
    copy_reads: bool,

    stats: FuncStats,
}

impl<'a> Lowerer<'a> {
    fn new(checked: &'a Checked, info: &'a FuncInfo, rets: &'a [Type], ret: Type) -> Self {
        // Sema numbered the named locals' registers `0..regs` (parameters
        // first) and counted what the loops keep beside them.
        let n_perm = info.regs + info.loop_regs;
        let failed = n_perm > u16::MAX as u32;
        let n_perm = if failed { 0 } else { n_perm };
        Lowerer {
            checked,
            info,
            rets,
            ret,
            code: Vec::new(),
            spans: Vec::new(),
            cur_span: Span::default(),
            stmts: Vec::new(),
            exprs: Vec::new(),
            open_arrays: Vec::new(),
            loops: Vec::new(),
            labels: Vec::new(),
            patches: Vec::new(),
            next_perm: info.regs,
            perm_limit: n_perm,
            next_temp: n_perm,
            watermark: n_perm,
            failed,
            const_vals: Vec::new(),
            consts: HashMap::new(),
            copy_reads: false,
            stats: FuncStats { tree_user_call: false, max_tree_depth: 0 },
        }
    }

    fn run(mut self, f: &FuncDef) -> (IrFunc, FuncStats) {
        self.lower_block(&f.body);
        // Falling off the end returns nothing.
        self.emit(Instr::Ret { src: None });

        for (i, l) in &self.patches {
            let t = self.labels[*l];
            match &mut self.code[*i] {
                Instr::Jump { t: x }
                | Instr::JumpIfFalse { t: x, .. }
                | Instr::JumpIfTrue { t: x, .. } => *x = t,
                other => unreachable!("patched a non-jump: {other:?}"),
            }
        }

        // The constants go above the temporaries, now both counts are known.
        let n_consts = self.const_vals.len() as u32;
        self.failed |= self.watermark + n_consts > u16::MAX as u32;
        let const_base = if self.failed { 0 } else { self.watermark as Reg };
        let params = f.params.iter().map(|(ty, ..)| *ty == Type::Float).collect();
        let mut image = vec![Scalar::Int(0); const_base as usize];
        let body = if self.failed {
            None
        } else {
            for ins in &mut self.code {
                ins.for_each_reg(|r| {
                    let k = Reg::MAX - *r;
                    if (k as u32) < n_consts {
                        *r = const_base + k;
                    }
                });
            }
            image.extend(self.const_vals);
            // The body lives as long as the program: keep no growth slack.
            let (mut code, mut spans) = (self.code, self.spans);
            code.shrink_to_fit();
            spans.shrink_to_fit();
            Some(IrBody { code, spans, stmts: self.stmts, exprs: self.exprs })
        };
        let (name, n_perm) = (f.name.clone(), self.perm_limit as u16);
        (IrFunc { name, params, n_perm, const_base, image, body }, self.stats)
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

    /// A register a loop keeps across statements (counter, cursor or flag).
    fn alloc_perm(&mut self) -> Reg {
        let r = self.next_perm;
        self.next_perm += 1;
        if self.next_perm > self.perm_limit {
            self.failed = true;
            return 0;
        }
        r as Reg
    }

    /// A loop's counter or a sweep's cursor: a register of its own, zeroed
    /// where the construct starts.
    fn loop_reg(&mut self) -> Reg {
        let r = self.alloc_perm();
        self.emit(Instr::Const { dst: r, v: Scalar::Int(0) });
        r
    }

    fn new_label(&mut self) -> usize {
        self.labels.push(Target::MAX);
        self.labels.len() - 1
    }

    fn bind(&mut self, l: usize) {
        self.labels[l] = self.code.len() as Target;
    }

    /// Every instruction goes through here: `spans` stays in step.
    fn emit(&mut self, ins: Instr) {
        self.code.push(ins);
        self.spans.push(self.cur_span);
    }

    fn emit_jump(&mut self, l: usize, make: impl FnOnce(Target) -> Instr) {
        self.patches.push((self.code.len(), l));
        self.emit(make(Target::MAX));
    }

    /// The register `v` is read from.
    fn const_reg(&mut self, v: Scalar) -> Reg {
        let next = self.const_vals.len();
        if next >= Reg::MAX as usize {
            self.failed = true;
            return 0;
        }
        // Interned by variant and bit pattern: `-0.0` and `0.0` are two.
        let key = match v {
            Scalar::Int(i) => (0, i as u64),
            Scalar::Float(f) => (1, f.to_bits()),
            Scalar::Bool(b) => (2, b as u64),
        };
        *self.consts.entry(key).or_insert_with(|| {
            self.const_vals.push(v);
            Reg::MAX - next as Reg
        })
    }

    /// The destination of an instruction whose value is a `repr`: the
    /// slot it is wanted in if that is the slot's type, else a temporary.
    fn dst(&mut self, want: Option<&Place>, repr: Repr) -> Reg {
        match want {
            Some(&Place::Slot { idx, float }) if repr == Some(float) => idx,
            _ => self.temp(),
        }
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
            self.emit(Instr::FreeLocals { lo, hi });
        }
    }

    // ---- escapes ------------------------------------------------------

    /// Escape a whole statement to the tree evaluator.
    fn tree_stmt(&mut self, s: &Stmt) {
        let mut call = false;
        let d = stmt_depth(s, &mut call);
        self.stats.tree_user_call |= call;
        self.stats.max_tree_depth = self.stats.max_tree_depth.max(d);
        let idx = self.stmts.len() as u32;
        self.stmts.push(s.clone());
        self.emit(Instr::Tree { s: idx });
    }

    /// Hand the reduction `e` to the tree evaluator: its index in the
    /// side table.
    fn escape(&mut self, e: &Expr) -> u32 {
        let mut call = false;
        let d = expr_depth(e, &mut call);
        self.stats.tree_user_call |= call;
        self.stats.max_tree_depth = self.stats.max_tree_depth.max(d);
        self.exprs.push(e.clone());
        self.exprs.len() as u32 - 1
    }

    /// Lower a statement-level expression whose value is needed
    /// (condition, return value).
    fn lower_value(&mut self, e: &Expr) -> Lowered {
        self.copy_reads = reads_need_copies(e);
        self.go_expr(e, None)
    }

    /// Lower an expression evaluated for effect (expression statement,
    /// `for` init/step); DSE cleans up the pure leftovers of its value.
    fn lower_effect(&mut self, e: &Expr) {
        match e {
            Expr::Reduce(_) => {
                let e = self.escape(e);
                self.emit(Instr::EvalEffect { e });
            }
            // Nothing reads the assignment's value.
            Expr::Assign { op, ops, .. } => {
                self.copy_reads = reads_need_copies(e);
                let [target, value] = &**ops;
                self.go_assign(self.target(target), *op, value);
            }
            _ => _ = self.lower_value(e),
        }
    }

    // ---- expressions --------------------------------------------------

    /// Where `name` lives: outside parallel constructs sema admits only
    /// front-end scalar variables and `#define`s.
    fn place(&self, name: &Name) -> Place {
        match name.to {
            Ref::Local(id) => {
                let (idx, float) = self.local_reg(id).expect("a front-end scalar local");
                Place::Slot { idx, float }
            }
            Ref::Global(g) => Place::Global(g),
            to => unreachable!("sema admits only front-end scalars here; `{name}` is {to:?}"),
        }
    }

    /// Lower `e`. The instruction computing its root writes to the slot
    /// `want` names if the value has its type; an operand (a local, a
    /// constant, what another node left in a register) stays where it is.
    fn go_expr(&mut self, e: &Expr, want: Option<&Place>) -> Lowered {
        match e {
            Expr::IntLit(v, _) => (self.const_reg(Scalar::Int(*v)), Some(false)),
            Expr::FloatLit(v, _) => (self.const_reg(Scalar::Float(*v)), Some(true)),
            Expr::Inf(_) => (self.const_reg(Scalar::Int(i64::MAX)), Some(false)),
            Expr::Ident(Name { to: Ref::Const(id), .. }, _) => {
                let v = self.checked.unit.defines[*id as usize].1;
                (self.const_reg(Scalar::Int(v)), Some(false))
            }
            Expr::Ident(..) | Expr::Index { .. } => {
                let place = self.go_place(e);
                self.read_place(place, want)
            }
            Expr::Reduce(_) => {
                let (e, dst) = (self.escape(e), self.temp());
                self.emit(Instr::EvalExpr { dst, e });
                (dst, None)
            }
            Expr::Unary { op, expr, .. } => {
                let (a, of) = self.go_expr(expr, None);
                let repr = if matches!(op, UnaryOp::Neg | UnaryOp::Abs) { of } else { Some(false) };
                let t = self.dst(want, repr);
                self.emit(Instr::Un { op: *op, dst: t, a });
                (t, repr)
            }
            Expr::Binary { op: op @ (BinaryOp::LogAnd | BinaryOp::LogOr), ops, .. } => {
                let [lhs, rhs] = &**ops;
                let (a, _) = self.go_expr(lhs, None);
                // Each operand's truth, as `!= 0` gives it: an int 0 or 1.
                let (t, zero) = (self.temp(), self.const_reg(Scalar::Int(0)));
                self.emit(Instr::Bin { op: BinaryOp::Ne, dst: t, a, b: zero });
                let end = self.new_label();
                if *op == BinaryOp::LogAnd {
                    self.emit_jump(end, |tg| Instr::JumpIfFalse { c: t, t: tg });
                } else {
                    self.emit_jump(end, |tg| Instr::JumpIfTrue { c: t, t: tg });
                }
                let (b, _) = self.go_expr(rhs, None);
                self.emit(Instr::Bin { op: BinaryOp::Ne, dst: t, a: b, b: zero });
                self.bind(end);
                (t, Some(false))
            }
            Expr::Binary { op, ops, .. } => {
                let [lhs, rhs] = &**ops;
                let (a, ra) = self.go_expr(lhs, None);
                let (b, rb) = self.go_expr(rhs, None);
                let repr = bin_repr(*op, ra, rb);
                let t = self.dst(want, repr);
                self.emit(Instr::Bin { op: *op, dst: t, a, b });
                (t, repr)
            }
            Expr::Ternary { ops, float, .. } => {
                let [cond, then_e, else_e] = &**ops;
                let (c, _) = self.go_expr(cond, None);
                let t = self.temp();
                let lelse = self.new_label();
                let lend = self.new_label();
                self.emit_jump(lelse, |tg| Instr::JumpIfFalse { c, t: tg });
                self.go_arm(then_e, t, *float);
                self.emit_jump(lend, |tg| Instr::Jump { t: tg });
                self.bind(lelse);
                self.go_arm(else_e, t, *float);
                self.bind(lend);
                (t, Some(*float))
            }
            Expr::Call { callee: Callee::Builtin(Builtin::Swap), args, .. } => self.go_swap(args),
            Expr::Call { callee, args, .. } => self.go_call(*callee, args, want),
            Expr::Assign { op, ops, .. } => {
                let [target, value] = &**ops;
                let (float, (r, repr)) = self.go_assign(self.target(target), *op, value);
                if repr == Some(float) {
                    return (r, repr);
                }
                // The assignment's value is what it stored: as the target's type.
                let t = self.temp();
                self.emit(Instr::StoreSlot { slot: t, src: r, float });
                (t, Some(float))
            }
        }
    }

    /// A `?:` arm into `dst`, as the arms' joined type sema gave the `?:`
    /// (`float`), as in C: copied where its representation is that type,
    /// else coerced.
    fn go_arm(&mut self, arm: &Expr, dst: Reg, float: bool) {
        let (src, repr) = self.go_expr(arm, None);
        self.emit(if repr == Some(float) {
            Instr::Copy { dst, src }
        } else {
            Instr::StoreSlot { slot: dst, src, float }
        });
    }

    /// An assignment's target: a scalar's place, or an element whose
    /// subscripts are evaluated after the value.
    fn target<'e>(&self, target: &'e Expr) -> Result<Place, &'e Expr> {
        match target {
            Expr::Ident(name, _) => Ok(self.place(name)),
            target => Err(target),
        }
    }

    /// What the lvalue `e` denotes, an element's subscripts evaluated
    /// here, left to right.
    fn go_place(&mut self, e: &Expr) -> Place {
        match e {
            Expr::Ident(name, _) => self.place(name),
            Expr::Index { base, subs, .. } => {
                Place::Elem(base.to, subs.iter().map(|s| self.go_expr(s, None).0).collect())
            }
            other => unreachable!("sema admits only lvalues as targets, not {other:?}"),
        }
    }

    /// The value at `place`, read into the slot `want` names if that has
    /// its declared type.
    fn read_place(&mut self, place: Place, want: Option<&Place>) -> Lowered {
        if let Place::Slot { idx, float } = place {
            return (self.read_local(idx), Some(float));
        }
        let repr = Some(self.is_float(&place));
        let dst = self.dst(want, repr);
        self.emit(match place {
            Place::Global(g) => Instr::LoadGlobal { dst, g },
            Place::Elem(array, subs) => Instr::LoadElem { dst, array, subs },
            Place::Slot { .. } => unreachable!("a local is read where it stands"),
        });
        (dst, repr)
    }

    /// `swap(l0, l1)`: read `l0`, then `l1`, then store `l1` and `l0`,
    /// each subscript evaluated once. Its value is never used.
    fn go_swap(&mut self, args: &[Expr]) -> Lowered {
        // Both reads come before both stores, so no read waits for its use.
        self.copy_reads = true;
        let p0 = self.go_place(&args[0]);
        let (v0, _) = self.read_place(p0.clone(), None);
        let p1 = self.go_place(&args[1]);
        let (v1, repr) = self.read_place(p1.clone(), None);
        self.emit_store(p1, v0);
        self.emit_store(p0, v1);
        (v1, repr)
    }

    /// The register a read of the local in `src` uses: `src`, or a copy
    /// taken here when an assignment may come between the read and its use.
    fn read_local(&mut self, src: Reg) -> Reg {
        if !self.copy_reads {
            return src;
        }
        let t = self.temp();
        self.emit(Instr::Copy { dst: t, src });
        t
    }

    /// Whether `place` holds a float.
    fn is_float(&self, place: &Place) -> bool {
        let ty = match *place {
            Place::Slot { float, .. } => return float,
            Place::Global(g) => self.checked.scalars[&self.checked.global_names[g as usize]].0,
            Place::Elem(Ref::Array(id), _) => self.checked.array(id).ty,
            Place::Elem(Ref::Local(id), _) => self.info.locals[id as usize].ty,
            Place::Elem(to, _) => unreachable!("sema resolves every array base; this is {to:?}"),
        };
        ty == Type::Float
    }

    /// `target op= value`, yielding whether the target is a float and the
    /// value it was given, before the store coerced it. `target` is a
    /// scalar's place, or an element whose subscripts are evaluated here.
    /// Tree order: the value, the subscripts, the old value of a compound
    /// assignment, the store.
    fn go_assign(
        &mut self,
        target: Result<Place, &Expr>,
        op: Option<BinaryOp>,
        value: &Expr,
    ) -> (bool, Lowered) {
        let want = target.as_ref().ok().filter(|_| !self.copy_reads).cloned();
        let (mut r, mut repr) = self.go_expr(value, want.as_ref().filter(|_| op.is_none()));
        let place = target.unwrap_or_else(|e| self.go_place(e));
        if let Some(bop) = op {
            let (old, was) = self.read_place(place.clone(), None);
            repr = bin_repr(bop, was, repr);
            let t = self.dst(want.as_ref(), repr);
            self.emit(Instr::Bin { op: bop, dst: t, a: old, b: r });
            r = t;
        }
        let float = self.is_float(&place);
        match place {
            Place::Slot { idx, .. } if r == idx => {}
            Place::Slot { idx, float } if want.is_some() && repr == Some(float) => {
                self.emit(Instr::Copy { dst: idx, src: r });
                r = idx;
            }
            place => self.emit_store(place, r),
        }
        (float, (r, repr))
    }

    /// `place = coerce(r[src])`.
    fn emit_store(&mut self, place: Place, src: Reg) {
        self.emit(match place {
            Place::Slot { idx, float } => Instr::StoreSlot { slot: idx, src, float },
            Place::Global(g) => Instr::StoreGlobal { g, src },
            Place::Elem(array, subs) => Instr::StoreElem { array, subs, src },
        });
    }

    /// A call of `rand()` or a user function: sema has made every other
    /// builtin an operator, and `swap` is lowered on its own.
    fn go_call(&mut self, callee: Callee, args: &[Expr], want: Option<&Place>) -> Lowered {
        let args: Box<[Reg]> = args.iter().map(|a| self.go_expr(a, None).0).collect();
        let repr = match callee {
            // A valueless `return` yields int 0 whatever the type.
            Callee::Func(f) => (self.rets[f as usize] == Type::Int).then_some(false),
            _ => Some(false),
        };
        let dst = self.dst(want, repr);
        self.emit(match callee {
            Callee::Func(f) => Instr::Call { dst, f, args },
            Callee::Builtin(Builtin::Rand) => Instr::Rand { dst },
            _ => unreachable!("sema resolves every call and its arity"),
        });
        (dst, repr)
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
            self.lower_branch(s);
        }
        if range.is_some() {
            self.free_arrays_above(self.open_arrays.len() - 1);
            self.open_arrays.pop();
        }
    }

    /// One statement of a block, or a branch body (`if`/loop/`seq` arm).
    /// What it emits outside a nested statement carries its span (a block
    /// or `;` has none and stays with the statement around it).
    fn lower_branch(&mut self, s: &Stmt) {
        self.reset_temps();
        let outer = self.cur_span;
        self.cur_span = s.span().unwrap_or(outer);
        self.lower_stmt(s);
        self.cur_span = outer;
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Empty => {}
            Stmt::Block(b) => self.lower_block(b),
            Stmt::Expr(e) => self.lower_effect(e),
            Stmt::Decl(v) => {
                if !v.dims.is_empty() {
                    self.tree_stmt(s); // array declaration
                    return;
                }
                let (slot, float) =
                    self.local_reg(v.local).expect("a scalar declared on the front end");
                let Some(e) = &v.init else {
                    let v = if float { Scalar::Float(0.0) } else { Scalar::Int(0) };
                    self.emit(Instr::Const { dst: slot, v });
                    return;
                };
                self.copy_reads = reads_need_copies(e);
                self.go_assign(Ok(Place::Slot { idx: slot, float }), None, e);
            }
            // Sema resolved every use to the definition; nothing runs.
            Stmt::IndexSets(_) => {}
            Stmt::Uc(uc) if uc.kind == UcKind::Seq => self.lower_seq(uc),
            Stmt::Uc(_) => self.tree_stmt(s),
            Stmt::If { cond, then_branch, else_branch, .. } => {
                let (c, _) = self.lower_value(cond);
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
            Stmt::While { cond, body, .. } => self.lower_loop(Some(cond), None, body, "while loop"),
            Stmt::For { init, cond, step, body, .. } => {
                if let Some(e) = init {
                    self.reset_temps();
                    self.lower_effect(e);
                }
                self.lower_loop(cond.as_deref(), step.as_deref(), body, "for loop");
            }
            Stmt::Return(e, _) => {
                let src = e.as_ref().map(|e| self.lower_return(e));
                self.emit(Instr::Ret { src });
            }
            Stmt::Break(_) | Stmt::Continue(_) => {
                match self.loops.last().copied() {
                    Some(lc) => {
                        self.free_arrays_above(lc.open_arrays);
                        let to =
                            if matches!(s, Stmt::Break(_)) { lc.break_to } else { lc.continue_to };
                        self.emit_jump(to, |t| Instr::Jump { t });
                    }
                    // Outside any loop both leave the function.
                    None => self.emit(Instr::Ret { src: None }),
                }
            }
        }
    }

    /// A `while` or `for` loop, after a `for`'s init: the test, the
    /// iteration check, the body, the step and the jump back.
    fn lower_loop(
        &mut self,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &Stmt,
        label: &'static str,
    ) {
        let cnt = self.loop_reg();
        let (head, next, exit) = (self.new_label(), self.new_label(), self.new_label());
        self.bind(head);
        self.reset_temps();
        if let Some(c) = cond {
            let (c, _) = self.lower_value(c);
            self.emit_jump(exit, |t| Instr::JumpIfFalse { c, t });
        }
        self.emit(Instr::IterCheck { slot: cnt, label });
        let open_arrays = self.open_arrays.len();
        self.loops.push(LoopCtx { break_to: exit, continue_to: next, open_arrays });
        self.lower_branch(body);
        self.loops.pop();
        self.bind(next);
        self.reset_temps();
        if let Some(e) = step {
            self.lower_effect(e);
        }
        self.emit_jump(head, |t| Instr::Jump { t });
        self.bind(exit);
    }

    /// Front-end `seq` / `*seq` (§3.5). Function bodies always run with
    /// no parallel construct open, so every `seq` the lowerer reaches
    /// sweeps on the front end; a `seq` nested in a `par` body is part of
    /// that construct's tree escape and runs under context masks instead.
    fn lower_seq(&mut self, uc: &UcStmt) {
        let (elem, _) = self.local_reg(uc.elem).expect("a seq element is a front-end scalar");
        let pos = self.loop_reg();
        let cnt = self.loop_reg();
        // `*seq` sweeps again while some arm ran during the last sweep;
        // `others` runs for an element when none of its arms did.
        let swept = uc.star.then(|| self.alloc_perm());
        let matched = uc.others.as_ref().map(|_| self.alloc_perm());
        let (sweep, next, done) = (self.new_label(), self.new_label(), self.new_label());
        self.bind(sweep);
        self.emit(Instr::IterCheck { slot: cnt, label: "*seq" });
        self.set_flag(swept, 0);
        self.bind(next);
        self.reset_temps();
        let more = self.temp();
        self.emit(Instr::SeqNext { set: uc.sets[0], pos, elem, more });
        self.emit_jump(done, |t| Instr::JumpIfFalse { c: more, t });
        self.set_flag(matched, 0);
        for arm in &uc.arms {
            let skip = self.new_label();
            if let Some(p) = &arm.pred {
                self.reset_temps();
                let (c, _) = self.lower_value(p);
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
    }

    /// `r[flag] = v`, for a `seq` flag the construct needs.
    fn set_flag(&mut self, flag: Option<Reg>, v: i64) {
        if let Some(dst) = flag {
            self.emit(Instr::Const { dst, v: Scalar::Int(v) });
        }
    }

    /// The value of `return e`, as the function's declared return type:
    /// coerced into a temporary unless `e` lowered to registers and
    /// already has that representation. A `void` function's passes as is.
    fn lower_return(&mut self, e: &Expr) -> Reg {
        let float = self.ret == Type::Float;
        let (src, repr) = self.lower_value(e);
        if self.ret == Type::Void || repr == Some(float) {
            return src;
        }
        let t = self.temp();
        self.emit(Instr::StoreSlot { slot: t, src, float });
        t
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
