//! The parallel constructs, and the statements that may appear inside
//! them.
//!
//! The register VM drives execution; it reaches this module only through
//! a tree escape ([`crate::ir::Instr::Tree`]) holding one parallel
//! construct or one local array declaration.
//! Sequential control flow never arrives here: outside parallel
//! constructs it is lowered to VM jumps, and inside them sema rejects it.
//!
//! Every construct, and a reduction (`reduce`), takes one step: open the
//! iteration space (`in_space`), evaluate all predicates into masks
//! before any arm runs (`arm_masks`, freed by `free_masks`), run each arm
//! under its mask (`under`, `under_others`), and for
//! the `*` forms, a nested `seq` and `solve`, repeat while the step did
//! work (`fixpoint`; `enabled` is an arm's global-OR test). The constructs
//! differ only in which arms a step runs and in what ends the repetition.

use uc_cm::{BinOp, ElemType, FieldId, ReduceOp, Scalar};

use super::{elem_type, ArrayStorage, LocalVar, RResult, Run, RuntimeError, Storage, PV};
use crate::ast::{
    BinaryOp, Block, Callee, Expr, LocalId, Ref, ScBlock, SetId, Stmt, UcKind, UcStmt,
};
use crate::mapping::ArrayMapping;
use crate::sema::LocalKind;
use crate::stdlib::Builtin;

impl Run<'_> {
    /// Release the machine storage of a local that goes out of scope.
    pub(crate) fn free_local(&mut self, var: LocalVar) {
        let field = match var {
            LocalVar::ParField { field, .. } => field,
            LocalVar::Array(st) => st.field,
        };
        let _ = self.machine.free(field);
    }

    /// Free whichever of the current activation's locals `ids` are live.
    pub(crate) fn free_locals(&mut self, ids: impl Iterator<Item = LocalId>) {
        for id in ids {
            let slot = self.frames.last_mut().expect("frame").locals.get_mut(id as usize);
            if let Some(var) = slot.and_then(Option::take) {
                self.free_local(var);
            }
        }
    }

    /// A scope closes: free the locals the statements directly in it
    /// declared (a nested block has freed its own).
    fn free_decls<'s>(&mut self, stmts: impl Iterator<Item = &'s Stmt>) {
        self.free_locals(stmts.filter_map(|s| match s {
            Stmt::Decl(v) => Some(v.local),
            _ => None,
        }));
    }

    fn exec_block(&mut self, b: &Block) -> RResult<()> {
        b.stmts.iter().try_for_each(|s| self.exec_stmt(s))?;
        self.free_decls(b.stmts.iter());
        Ok(())
    }

    pub(crate) fn exec_stmt(&mut self, s: &Stmt) -> RResult<()> {
        if let Some(sp) = s.span() {
            self.exec_span = sp;
        }
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Expr(e) => {
                // `swap` is a statement-level builtin: read both operands
                // synchronously, then store crosswise.
                if let Expr::Call { callee: Callee::Builtin(Builtin::Swap), args, .. } = e {
                    let a = self.eval(&args[0])?;
                    let b = self.eval(&args[1])?;
                    let a = self.store(&args[1], a, true)?;
                    let b = self.store(&args[0], b, true)?;
                    self.release(a);
                    self.release(b);
                    return Ok(());
                }
                let v = self.eval(e)?;
                self.release(v);
                Ok(())
            }
            Stmt::Decl(v) => self.exec_decl(v),
            // Sema evaluated the definitions and resolved every use.
            Stmt::IndexSets(_) => Ok(()),
            Stmt::Block(b) => self.exec_block(b),
            Stmt::Uc(uc) => self.exec_uc(uc),
            // `if`/loops/`return`/`break`/`continue`.
            _ => unreachable!("sequential control flow is lowered to VM jumps"),
        }
    }

    /// Allocate a machine-backed local: a per-VP temporary on the current
    /// space (§3.4 ranksort's `int rank;`) or a function-local array. A
    /// front-end scalar declaration never arrives here — it is a register
    /// and its declaration is lowered.
    fn exec_decl(&mut self, v: &crate::ast::VarDecl) -> RResult<()> {
        let ty = elem_type(v.ty);
        let var = match self.local(v.local).kind.clone() {
            LocalKind::PerVp => {
                let vp = self.cur_ctx().vp;
                let field = self.machine.alloc(vp, &v.name, ty)?;
                if let Some(e) = &v.init {
                    let pv = self.eval(e)?;
                    let pv = self.coerce_field(pv, ty)?;
                    let PV::Field { id, .. } = pv else { unreachable!() };
                    self.machine.copy(field, id)?;
                    self.release(pv);
                }
                LocalVar::ParField { field, level: self.ctx.len() - 1 }
            }
            LocalKind::Array(shape) => {
                let vp = super::space_vp(self.machine, self.spaces, &shape)?;
                let field = self.machine.alloc(vp, &v.name, ty)?;
                let mapping = ArrayMapping::Default;
                LocalVar::Array(ArrayStorage { field, ty, shape, mapping })
            }
            LocalKind::Reg(_) => unreachable!("scalar declarations are lowered to registers"),
        };
        // Re-executed (the body of a `*par` or of a `seq` step): the
        // previous instance goes first.
        self.free_locals(std::iter::once(v.local));
        self.frames.last_mut().expect("frame").locals[v.local as usize] = Some(var);
        Ok(())
    }

    // ---- the step: masks, arms and fixpoints --------------------------------

    /// Open the iteration space over `sets`, run `f` in it, and close the
    /// space.
    pub(crate) fn in_space<T>(
        &mut self,
        sets: &[SetId],
        f: impl FnOnce(&mut Self) -> RResult<T>,
    ) -> RResult<T> {
        let level = self.push_space(sets)?;
        let result = f(self)?;
        self.pop_space(level)?;
        Ok(result)
    }

    /// Run `step` until it reports nothing left to do: the `*` forms'
    /// repetition, a nested `seq`'s sweeps, `solve`'s rounds. Traps as
    /// `what` when it still has work after `max_iterations` runs.
    fn fixpoint(
        &mut self,
        what: &'static str,
        mut step: impl FnMut(&mut Self) -> RResult<bool>,
    ) -> RResult<()> {
        for _ in 0..self.config.limits.max_iterations {
            if !step(self)? {
                return Ok(());
            }
        }
        Err(RuntimeError::IterationLimit(what))
    }

    /// A predicate's truth on the current space, as an owned bool field.
    fn mask(&mut self, pred: &Expr) -> RResult<FieldId> {
        let m = self.eval(pred)?;
        let m = self.truthify(m)?;
        let PV::Field { id, .. } = self.coerce_field(m, ElemType::Bool)? else { unreachable!() };
        Ok(id)
    }

    /// Evaluate the arms' predicates into masks, synchronously: each
    /// against the state at the start of the step (`None` for an arm
    /// without one).
    pub(crate) fn arm_masks<'e>(
        &mut self,
        preds: impl Iterator<Item = Option<&'e Expr>>,
    ) -> RResult<Vec<Option<FieldId>>> {
        let mut masks = self.mask_spare.pop().unwrap_or_default();
        for pred in preds {
            masks.push(pred.map(|p| self.mask(p)).transpose()?);
        }
        Ok(masks)
    }

    /// Free a step's masks, keeping the cleared list for the next step.
    pub(crate) fn free_masks(&mut self, mut masks: Vec<Option<FieldId>>) {
        for m in masks.drain(..).flatten() {
            let _ = self.machine.free(m);
        }
        self.mask_spare.push(masks);
    }

    /// Whether an arm is enabled: its mask holds on some VP, or, without
    /// one, some VP of the space is active. One global-OR (a scan op).
    fn enabled(&mut self, mask: Option<FieldId>) -> RResult<bool> {
        let vp = self.cur_ctx().vp;
        Ok(match mask {
            Some(m) => self.machine.reduce(m, ReduceOp::Or)?.as_bool(),
            None => self.machine.any_active(vp)?,
        })
    }

    /// Run `f` where `mask` holds (under the current context, without
    /// one), then pop the mask.
    pub(crate) fn under<T>(
        &mut self,
        mask: Option<FieldId>,
        f: impl FnOnce(&mut Self) -> RResult<T>,
    ) -> RResult<T> {
        let Some(m) = mask else { return f(self) };
        self.machine.push_context(m)?;
        self.masked(f)
    }

    /// Run `f` where no arm's mask holds: an `others` arm.
    pub(crate) fn under_others<T>(
        &mut self,
        masks: &[Option<FieldId>],
        f: impl FnOnce(&mut Self) -> RResult<T>,
    ) -> RResult<T> {
        let or = self.machine.alloc_result(self.cur_ctx().vp, "~ormask", ElemType::Bool)?;
        self.machine.fill_unconditional(or, Scalar::Bool(false))?;
        for m in masks.iter().flatten() {
            self.machine.binop(BinOp::LogOr, or, or, *m)?;
        }
        self.machine.push_context_others(or)?;
        let result = self.masked(f)?;
        self.machine.free(or)?;
        Ok(result)
    }

    /// Run `f` under the mask just pushed, then pop it. A value computed
    /// under a mask holds only there, so none enters the step's cache
    /// meanwhile.
    fn masked<T>(&mut self, f: impl FnOnce(&mut Self) -> RResult<T>) -> RResult<T> {
        let vp = self.cur_ctx().vp;
        let fill = std::mem::replace(&mut self.cse_fill, false);
        let result = f(self)?;
        self.cse_fill = fill;
        self.machine.pop_context(vp)?;
        Ok(result)
    }

    // ---- the four constructs ----------------------------------------------

    fn exec_uc(&mut self, uc: &UcStmt) -> RResult<()> {
        match uc.kind {
            UcKind::Seq => self.exec_seq(uc)?,
            kind => self.in_space(&uc.sets, |p| match kind {
                UcKind::Par if uc.star => p.fixpoint("*par", |p| p.run_arms(uc, true)),
                UcKind::Par => p.run_arms(uc, false).map(drop),
                UcKind::Oneof => p.exec_oneof(uc),
                UcKind::Solve if uc.star => p.exec_star_solve(uc),
                _ => p.exec_solve(uc),
            })?,
        }
        // An arm that is a bare declaration is scoped to the construct.
        self.free_decls(uc.arms.iter().map(|arm| &arm.body).chain(uc.others.as_deref()));
        Ok(())
    }

    /// Execute all arms (and `others`) of a par-style construct once.
    /// When `need_enabled` (the `*` forms), returns whether any arm was
    /// enabled — a global-OR test the compiler omits for plain constructs.
    fn run_arms(&mut self, uc: &UcStmt, need_enabled: bool) -> RResult<bool> {
        // Every predicate is evaluated first (`arm_masks`). Values computed
        // there are cached for reuse by the arm bodies (§4's
        // common-subexpression detection): bodies run under masks that are
        // strict subsets of the predicate's, so the cached values are
        // correct everywhere the bodies look.
        self.cse_push();
        let fill = std::mem::replace(&mut self.cse_fill, true);
        let masks = self.arm_masks(uc.arms.iter().map(|arm| arm.pred.as_ref()))?;
        self.cse_fill = fill;
        let mut enabled = false;
        for &m in masks.iter().filter(|_| need_enabled) {
            enabled = enabled || self.enabled(m)?;
        }
        for (ScBlock { body, .. }, &mask) in uc.arms.iter().zip(&masks) {
            self.under(mask, |p| p.exec_stmt(body))?;
        }
        if let Some(others) = &uc.others {
            self.under_others(&masks, |p| p.exec_stmt(others))?;
        }
        self.free_masks(masks);
        self.cse_pop();
        Ok(enabled)
    }

    /// `seq` nested in a parallel construct (a front-end `seq` is lowered
    /// to a VM loop): each element is one synchronous step whose
    /// predicates become masks over the enclosing space (Figure 3's
    /// partial sums).
    fn exec_seq(&mut self, uc: &UcStmt) -> RResult<()> {
        let elements = self.checked.sets[uc.sets[0]].elements.clone();
        let LocalKind::Reg(elem) = self.local(uc.elem).kind else {
            unreachable!("a seq element is a front-end scalar")
        };
        self.fixpoint("*seq", |p| {
            let mut any_enabled = false;
            for &v in elements.iter() {
                *p.reg(elem) = Scalar::Int(v);
                any_enabled |= p.run_arms(uc, uc.star)?;
            }
            Ok(uc.star && any_enabled)
        })
    }

    /// `oneof`: each step runs one enabled arm under its mask. The choice
    /// rotates deterministically through the enabled arms; the paper
    /// guarantees no fairness, so any choice is valid.
    fn exec_oneof(&mut self, uc: &UcStmt) -> RResult<()> {
        self.fixpoint("*oneof", |p| {
            let masks = p.arm_masks(uc.arms.iter().map(|arm| arm.pred.as_ref()))?;
            let mut enabled = Vec::new();
            for (k, &m) in masks.iter().enumerate() {
                if p.enabled(m)? {
                    enabled.push(k);
                }
            }
            let any = !enabled.is_empty();
            if any {
                let k = enabled[p.oneof_cursor % enabled.len()];
                p.oneof_cursor = p.oneof_cursor.wrapping_add(1);
                p.under(masks[k], |p| p.exec_stmt(&uc.arms[k].body))?;
            }
            p.free_masks(masks);
            Ok(uc.star && any)
        })
    }

    // ---- solve --------------------------------------------------------------

    /// `solve`: execute a proper set of single assignments in dependency
    /// order, via the paper's general translation — iterate, executing an
    /// assignment for exactly those elements whose right-hand side is
    /// fully defined and which have not executed yet, until no progress.
    fn exec_solve(&mut self, uc: &UcStmt) -> RResult<()> {
        // Defined-bitmaps for every target array, on `defined` from `first`.
        let first = self.defined.len();
        let mut def_maps: Vec<(Ref, Storage)> = Vec::new();
        for array in solve_targets(uc) {
            let st = self.storage(Storage::Array(array));
            let (shape, mapping) = (st.shape.clone(), st.mapping.clone());
            let dvp = super::space_vp(self.machine, self.spaces, &mapping.storage_shape(&shape))?;
            let field = self.machine.alloc_bool(dvp, "~defined")?;
            self.defined.push(ArrayStorage { field, ty: ElemType::Bool, shape, mapping });
            self.machine.fill_unconditional(field, Scalar::Bool(false))?;
            def_maps.push((array, Storage::Defined(self.defined.len() - 1)));
        }
        self.fixpoint("solve", |p| p.solve_round(uc, &def_maps))?;
        for st in self.defined.drain(first..) {
            self.machine.free(st.field)?;
        }
        Ok(())
    }

    /// One round of `solve`: each assignment runs where its target is not
    /// yet defined and its right-hand side is. Returns whether any ran.
    fn solve_round(&mut self, uc: &UcStmt, def_maps: &[(Ref, Storage)]) -> RResult<bool> {
        let vp = self.cur_ctx().vp;
        let mut progress = false;
        for (target, _, value) in uc.arms.iter().flat_map(|arm| solve_assignments(&arm.body)) {
            let Expr::Index { base, subs, access, .. } = target else { unreachable!() };
            let def_st = def_maps.iter().find(|(n, _)| *n == base.to).unwrap().1;
            // ready = !defined(target) && rhs_defined
            let tdef = self.read_storage(def_st, *access, subs, false)?;
            let PV::Field { id: tdef_id, .. } = tdef else { unreachable!() };
            let ready = self.machine.alloc_result(vp, "~ready", ElemType::Bool)?;
            self.machine.unop(uc_cm::UnOp::Not, ready, tdef_id)?;
            self.release(tdef);
            let rdef = self.rhs_defined(value, def_maps)?;
            if let PV::Field { id, .. } = rdef {
                self.machine.binop(BinOp::LogAnd, ready, ready, id)?;
            }
            self.release(rdef);
            if self.enabled(Some(ready))? {
                self.under(Some(ready), |p| {
                    let v = p.eval(value)?;
                    let v = p.store(target, v, true)?;
                    p.release(v);
                    // Mark the just-written elements defined.
                    let defined = PV::Scalar(Scalar::Bool(true));
                    p.write_storage(def_st, *access, subs, defined, false, "~storage")
                })?;
                progress = true;
            }
            self.machine.free(ready)?;
        }
        Ok(progress)
    }

    /// Definedness of an expression's value per element of the current
    /// space: all array reads of solve-target arrays must be defined.
    fn rhs_defined(
        &mut self,
        e: &Expr,
        def_maps: &[(Ref, Storage)],
    ) -> RResult<PV> {
        match e {
            Expr::IntLit(..) | Expr::FloatLit(..) | Expr::Inf(_) | Expr::Ident(..) => {
                Ok(PV::Scalar(Scalar::Bool(true)))
            }
            Expr::Index { base, subs, access, .. } => {
                let elem_def = match def_maps.iter().find(|(n, _)| *n == base.to) {
                    Some(&(_, def_st)) => self.read_storage(def_st, *access, subs, false)?,
                    None => PV::Scalar(Scalar::Bool(true)),
                };
                // Subscripts themselves may read target arrays.
                self.all_defined(elem_def, subs.iter(), def_maps)
            }
            Expr::Unary { expr, .. } => self.rhs_defined(expr, def_maps),
            Expr::Binary { lhs, rhs, .. } => {
                self.all_defined(PV::Scalar(Scalar::Bool(true)), [&**lhs, &**rhs], def_maps)
            }
            Expr::Ternary { cond, then_e, else_e, .. } => {
                // defined(cond) && (cond ? defined(then) : defined(else))
                let cdef = self.rhs_defined(cond, def_maps)?;
                let tdef = self.rhs_defined(then_e, def_maps)?;
                let edef = self.rhs_defined(else_e, def_maps)?;
                let branch = match (&tdef, &edef) {
                    (PV::Scalar(a), PV::Scalar(b)) if a.as_bool() && b.as_bool() => {
                        PV::Scalar(Scalar::Bool(true))
                    }
                    _ => {
                        let c = self.eval(cond)?;
                        let c = self.truthify(c)?;
                        self.select(c, tdef, edef, ElemType::Bool)?
                    }
                };
                self.and_defined(cdef, branch)
            }
            Expr::Call { args, .. } => {
                self.all_defined(PV::Scalar(Scalar::Bool(true)), args.iter(), def_maps)
            }
            Expr::Assign { .. } | Expr::Reduce(_) => {
                unreachable!("sema admits neither in a `solve` right-hand side")
            }
        }
    }

    /// `acc` and the definedness of each of `es`.
    fn all_defined<'e>(
        &mut self,
        mut acc: PV,
        es: impl IntoIterator<Item = &'e Expr>,
        def_maps: &[(Ref, Storage)],
    ) -> RResult<PV> {
        for e in es {
            let d = self.rhs_defined(e, def_maps)?;
            acc = self.and_defined(acc, d)?;
        }
        Ok(acc)
    }

    fn and_defined(&mut self, a: PV, b: PV) -> RResult<PV> {
        match (&a, &b) {
            (PV::Scalar(x), _) if x.as_bool() => Ok(b),
            (_, PV::Scalar(y)) if y.as_bool() => Ok(a),
            _ => self.apply_binary(crate::ast::BinaryOp::LogAnd, a, b),
        }
    }

    /// `*solve`: iterate the assignments to a fixed point, detecting
    /// quiescence by comparing snapshots — the compiler-managed state
    /// saving the paper contrasts with a hand-written `*par` (§3.6).
    fn exec_star_solve(&mut self, uc: &UcStmt) -> RResult<()> {
        // A snapshot field for each distinct target array.
        let mut snaps: Vec<(FieldId, FieldId)> = Vec::new();
        for array in solve_targets(uc) {
            let st = self.storage(Storage::Array(array));
            let (field, ty) = (st.field, st.ty);
            snaps.push((field, self.machine.alloc(field.vp_set(), "~snap", ty)?));
        }
        self.fixpoint("*solve", |p| {
            for &(field, snap) in &snaps {
                p.machine.copy_unconditional(snap, field)?;
            }
            for (target, op, value) in uc.arms.iter().flat_map(|arm| solve_assignments(&arm.body)) {
                let v = match op {
                    // `t op= v` stores `t op v`, reading `t` first.
                    Some(op) => {
                        let t = p.eval(target)?;
                        let v = p.eval(value)?;
                        p.apply_binary(op, t, v)?
                    }
                    None => p.eval(value)?,
                };
                let v = p.store(target, v, false)?;
                p.release(v);
            }
            let mut changed = false;
            for &(field, snap) in &snaps {
                changed |= p.machine.any_ne(field, snap)?;
            }
            Ok(changed)
        })?;
        for (_, snap) in snaps {
            self.machine.free(snap)?;
        }
        Ok(())
    }
}

/// The assignments of a `solve` arm in program order, by reference:
/// `(target, op, value)` for `target op= value`. Sema admits nothing else
/// in an arm but blocks of them.
fn solve_assignments(s: &Stmt) -> Box<dyn Iterator<Item = (&Expr, Option<BinaryOp>, &Expr)> + '_> {
    match s {
        Stmt::Expr(Expr::Assign { target, op, value, .. }) => {
            Box::new(std::iter::once((&**target, *op, &**value)))
        }
        Stmt::Block(b) => Box::new(b.stmts.iter().flat_map(solve_assignments)),
        _ => Box::new(std::iter::empty()),
    }
}

/// The distinct arrays a `solve`'s assignments store to, in the order of
/// their first assignment.
fn solve_targets(uc: &UcStmt) -> Vec<Ref> {
    let mut arrays = Vec::new();
    for (target, ..) in uc.arms.iter().flat_map(|arm| solve_assignments(&arm.body)) {
        let Expr::Index { base, .. } = target else {
            unreachable!("sema admits only array-element solve targets")
        };
        if !arrays.contains(&base.to) {
            arrays.push(base.to);
        }
    }
    arrays
}
