//! The parallel constructs, and the statements that may appear inside
//! them.
//!
//! The register VM drives execution; it reaches this module only through
//! a tree escape ([`crate::ir::Instr::Tree`]) holding one parallel
//! construct or one local array declaration.
//! Sequential control flow never arrives here: outside parallel
//! constructs it is lowered to VM jumps, and inside them sema rejects it.

use uc_cm::{BinOp, ElemType, FieldId, ReduceOp, Scalar};

use super::{elem_type, ArrayStorage, LocalVar, Program, RResult, RuntimeError, Storage, PV};
use crate::ast::{Block, Callee, Expr, LocalId, Ref, ScBlock, Stmt, UcKind, UcStmt};
use crate::mapping::ArrayMapping;
use crate::sema::LocalKind;
use crate::stdlib::Builtin;

impl Program {
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
        let result = b.stmts.iter().try_for_each(|s| self.exec_stmt(s));
        self.free_decls(b.stmts.iter());
        result
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
                let vp = self.space_vp(&shape)?;
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

    // ---- the four constructs ----------------------------------------------

    fn exec_uc(&mut self, uc: &UcStmt) -> RResult<()> {
        let result = match uc.kind {
            UcKind::Par => self.exec_par(uc),
            UcKind::Seq => self.exec_seq(uc),
            UcKind::Oneof => self.exec_oneof(uc),
            UcKind::Solve if uc.star => self.exec_star_solve(uc),
            UcKind::Solve => self.exec_solve(uc),
        };
        // An arm that is a bare declaration is scoped to the construct.
        self.free_decls(uc.arms.iter().map(|arm| &arm.body).chain(uc.others.as_deref()));
        result
    }

    fn exec_par(&mut self, uc: &UcStmt) -> RResult<()> {
        let level = self.push_space(&uc.sets)?;
        let result = (|| -> RResult<()> {
            if !uc.star {
                self.run_arms(uc, false)?;
                return Ok(());
            }
            let mut iters = 0u64;
            loop {
                iters += 1;
                if iters > self.config.limits.max_iterations {
                    return Err(RuntimeError::IterationLimit("*par"));
                }
                if !self.run_arms(uc, true)? {
                    break;
                }
            }
            Ok(())
        })();
        self.pop_space(level)?;
        result
    }

    /// A predicate's truth on the current space, as an owned bool field.
    pub(crate) fn mask(&mut self, pred: &Expr) -> RResult<FieldId> {
        let m = self.eval(pred)?;
        let m = self.truthify(m)?;
        let PV::Field { id, .. } = self.coerce_field(m, ElemType::Bool)? else { unreachable!() };
        Ok(id)
    }

    /// Where some arm's mask holds; `others` runs where it does not.
    pub(crate) fn others_mask(&mut self, masks: &[Option<FieldId>]) -> RResult<FieldId> {
        let or = self.machine.alloc_result(self.cur_ctx().vp, "~ormask", ElemType::Bool)?;
        self.machine.fill_unconditional(or, Scalar::Bool(false))?;
        for m in masks.iter().flatten() {
            self.machine.binop(BinOp::LogOr, or, or, *m)?;
        }
        Ok(or)
    }

    /// Execute all arms (and `others`) of a par-style construct once.
    /// When `need_enabled` (the `*` forms), returns whether any arm was
    /// enabled — a global-OR test the compiler omits for plain constructs.
    fn run_arms(&mut self, uc: &UcStmt, need_enabled: bool) -> RResult<bool> {
        let vp = self.cur_ctx().vp;
        // Evaluate every predicate first, synchronously, against the state
        // at the start of the step (the paper's semantics for a step).
        // Array gathers computed here are cached for reuse by the arm
        // bodies (§4's common-subexpression detection): bodies run under
        // masks that are strict subsets of the predicate's, so the cached
        // values are correct everywhere the bodies look.
        self.cse_push();
        let prev_fill = self.cse_fill;
        self.cse_fill = true;
        let mut masks = self.mask_spare.pop().unwrap_or_default();
        let mut pred_err = None;
        for ScBlock { pred, .. } in &uc.arms {
            match pred.as_ref().map(|p| self.mask(p)).transpose() {
                Ok(m) => masks.push(m),
                Err(e) => {
                    pred_err = Some(e);
                    break;
                }
            }
        }
        self.cse_fill = prev_fill;
        let run = (|| -> RResult<bool> {
            if let Some(e) = pred_err {
                return Err(e);
            }
            let mut enabled = false;
            if need_enabled {
                for m in &masks {
                    match m {
                        Some(id) => {
                            if !enabled && self.machine.reduce(*id, ReduceOp::Or)?.as_bool() {
                                enabled = true;
                            }
                        }
                        None => {
                            if !enabled && self.machine.any_active(vp)? {
                                enabled = true;
                            }
                        }
                    }
                }
            }
            for (ScBlock { body, .. }, mask) in uc.arms.iter().zip(&masks) {
                match mask {
                    Some(m) => {
                        self.machine.push_context(*m)?;
                        let r = self.exec_stmt(body);
                        self.machine.pop_context(vp)?;
                        r?;
                    }
                    None => self.exec_stmt(body)?,
                }
            }
            if let Some(others) = &uc.others {
                let or = self.others_mask(&masks)?;
                self.machine.push_context_others(or)?;
                let r = self.exec_stmt(others);
                self.machine.pop_context(vp)?;
                self.machine.free(or)?;
                r?;
            }
            Ok(enabled)
        })();
        for m in masks.drain(..).flatten() {
            let _ = self.machine.free(m);
        }
        self.mask_spare.push(masks);
        self.cse_pop();
        run
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
        let mut iters = 0u64;
        loop {
            iters += 1;
            if iters > self.config.limits.max_iterations {
                return Err(RuntimeError::IterationLimit("*seq"));
            }
            let mut any_enabled = false;
            for &v in elements.iter() {
                *self.reg(elem) = Scalar::Int(v);
                any_enabled |= self.run_arms(uc, uc.star)?;
            }
            if !uc.star || !any_enabled {
                return Ok(());
            }
        }
    }

    fn exec_oneof(&mut self, uc: &UcStmt) -> RResult<()> {
        let level = self.push_space(&uc.sets)?;
        let result = (|| -> RResult<()> {
            let vp = self.cur_ctx().vp;
            let mut iters = 0u64;
            loop {
                iters += 1;
                if iters > self.config.limits.max_iterations {
                    return Err(RuntimeError::IterationLimit("*oneof"));
                }
                // Find the enabled arms.
                let mut masks: Vec<Option<FieldId>> = Vec::new();
                let mut enabled: Vec<usize> = Vec::new();
                for (k, ScBlock { pred, .. }) in uc.arms.iter().enumerate() {
                    match pred {
                        Some(p) => {
                            let id = self.mask(p)?;
                            if self.machine.reduce(id, ReduceOp::Or)?.as_bool() {
                                enabled.push(k);
                            }
                            masks.push(Some(id));
                        }
                        None => {
                            if self.machine.any_active(vp)? {
                                enabled.push(k);
                            }
                            masks.push(None);
                        }
                    }
                }
                let chosen = if enabled.is_empty() {
                    None
                } else {
                    // Deterministic rotation through the enabled arms; the
                    // paper guarantees no fairness, so any choice is valid.
                    let pick = enabled[self.oneof_cursor % enabled.len()];
                    self.oneof_cursor = self.oneof_cursor.wrapping_add(1);
                    Some(pick)
                };
                let run = match chosen {
                    Some(k) => {
                        let body = &uc.arms[k].body;
                        match masks[k] {
                            Some(m) => {
                                self.machine.push_context(m)?;
                                let r = self.exec_stmt(body);
                                self.machine.pop_context(vp)?;
                                r
                            }
                            None => self.exec_stmt(body),
                        }
                    }
                    None => Ok(()),
                };
                for m in masks.into_iter().flatten() {
                    let _ = self.machine.free(m);
                }
                run?;
                if chosen.is_none() || !uc.star {
                    break;
                }
            }
            Ok(())
        })();
        self.pop_space(level)?;
        result
    }

    // ---- solve --------------------------------------------------------------

    /// Collect `(target, value)` assignment pairs from solve arms.
    fn solve_assignments(s: &Stmt, out: &mut Vec<(Expr, Expr)>) {
        match s {
            Stmt::Expr(Expr::Assign { target, value, op: None, .. }) => {
                out.push((target.as_ref().clone(), value.as_ref().clone()));
            }
            Stmt::Expr(Expr::Assign { target, value, op: Some(op), span }) => {
                // Compound assignment: rewrite `t op= v` as `t = t op v`
                // (only reachable under *solve, where sema allows it).
                let rhs = Expr::Binary {
                    op: *op,
                    lhs: Box::new(target.as_ref().clone()),
                    rhs: Box::new(value.as_ref().clone()),
                    span: *span,
                    value: crate::ast::NO_VALUE,
                };
                out.push((target.as_ref().clone(), rhs));
            }
            Stmt::Block(b) => {
                for s in &b.stmts {
                    Self::solve_assignments(s, out);
                }
            }
            _ => {}
        }
    }

    /// `solve`: execute a proper set of single assignments in dependency
    /// order, via the paper's general translation — iterate, executing an
    /// assignment for exactly those elements whose right-hand side is
    /// fully defined and which have not executed yet, until no progress.
    fn exec_solve(&mut self, uc: &UcStmt) -> RResult<()> {
        let level = self.push_space(&uc.sets)?;
        let result = self.exec_solve_inner(uc);
        self.pop_space(level)?;
        result
    }

    fn exec_solve_inner(&mut self, uc: &UcStmt) -> RResult<()> {
        let vp = self.cur_ctx().vp;
        let mut assigns = Vec::new();
        for arm in &uc.arms {
            Self::solve_assignments(&arm.body, &mut assigns);
        }
        // Defined-bitmaps for every target array, on `defined` from `first`.
        let first = self.defined.len();
        let run = (|| -> RResult<()> {
            let mut def_maps: Vec<(Ref, Storage)> = Vec::new();
            for (target, _) in &assigns {
                let Expr::Index { base, .. } = target else {
                    unreachable!("sema admits only array-element solve targets")
                };
                if def_maps.iter().any(|(n, _)| *n == base.to) {
                    continue;
                }
                let st = self.storage(Storage::Array(base.to));
                let (shape, mapping) = (st.shape.clone(), st.mapping.clone());
                let dvp = self.space_vp(&mapping.storage_shape(&shape))?;
                let field = self.machine.alloc_bool(dvp, "~defined")?;
                self.machine.fill_unconditional(field, Scalar::Bool(false))?;
                self.defined.push(ArrayStorage { field, ty: ElemType::Bool, shape, mapping });
                def_maps.push((base.to, Storage::Defined(self.defined.len() - 1)));
            }
            let mut iters = 0u64;
            loop {
                iters += 1;
                if iters > self.config.limits.max_iterations {
                    return Err(RuntimeError::IterationLimit("solve"));
                }
                let mut progress = false;
                for (target, value) in &assigns {
                    let Expr::Index { base, subs, .. } = target else { unreachable!() };
                    let def_st = def_maps.iter().find(|(n, _)| *n == base.to).unwrap().1;
                    // ready = !defined(target) && rhs_defined
                    let tdef = self.read_storage(def_st, subs, false)?;
                    let PV::Field { id: tdef_id, .. } = tdef else { unreachable!() };
                    let ready = self.machine.alloc_result(vp, "~ready", ElemType::Bool)?;
                    self.machine.unop(uc_cm::UnOp::Not, ready, tdef_id)?;
                    self.release(tdef);
                    let rdef = self.rhs_defined(value, &def_maps)?;
                    if let PV::Field { id, .. } = rdef {
                        self.machine.binop(BinOp::LogAnd, ready, ready, id)?;
                    }
                    self.release(rdef);
                    let any = self.machine.reduce(ready, ReduceOp::Or)?.as_bool();
                    if any {
                        self.machine.push_context(ready)?;
                        let r = (|| -> RResult<()> {
                            let v = self.eval(value)?;
                            let v = self.store(target, v, true)?;
                            self.release(v);
                            // Mark the just-written elements defined.
                            let defined = PV::Scalar(Scalar::Bool(true));
                            self.write_storage(def_st, subs, defined, false, "~storage")
                        })();
                        self.machine.pop_context(vp)?;
                        r?;
                        progress = true;
                    }
                    self.machine.free(ready)?;
                }
                if !progress {
                    break;
                }
            }
            Ok(())
        })();
        for st in self.defined.drain(first..) {
            let _ = self.machine.free(st.field);
        }
        run
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
            Expr::Index { base, subs, .. } => {
                match def_maps.iter().find(|(n, _)| *n == base.to) {
                    Some(&(_, def_st)) => {
                        let elem_def = self.read_storage(def_st, subs, false)?;
                        // Subscripts themselves may read target arrays.
                        let mut acc = elem_def;
                        for s in subs {
                            let sub_def = self.rhs_defined(s, def_maps)?;
                            acc = self.and_defined(acc, sub_def)?;
                        }
                        Ok(acc)
                    }
                    None => {
                        let mut acc = PV::Scalar(Scalar::Bool(true));
                        for s in subs {
                            let sub_def = self.rhs_defined(s, def_maps)?;
                            acc = self.and_defined(acc, sub_def)?;
                        }
                        Ok(acc)
                    }
                }
            }
            Expr::Unary { expr, .. } => self.rhs_defined(expr, def_maps),
            Expr::Binary { lhs, rhs, .. } => {
                let l = self.rhs_defined(lhs, def_maps)?;
                let r = self.rhs_defined(rhs, def_maps)?;
                self.and_defined(l, r)
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
                        let c = self.mask(cond)?;
                        let t = self.coerce_field(tdef, ElemType::Bool)?;
                        let f = self.coerce_field(edef, ElemType::Bool)?;
                        let (PV::Field { id: ti, .. }, PV::Field { id: fi, .. }) = (t, f) else {
                            unreachable!()
                        };
                        let vp = self.cur_ctx().vp;
                        let dst = self.machine.alloc_result(vp, "~bdef", ElemType::Bool)?;
                        self.machine.select(dst, c, ti, fi)?;
                        self.release(PV::owned(c));
                        self.release(t);
                        self.release(f);
                        PV::owned(dst)
                    }
                };
                self.and_defined(cdef, branch)
            }
            Expr::Call { args, .. } => {
                let mut acc = PV::Scalar(Scalar::Bool(true));
                for a in args {
                    let d = self.rhs_defined(a, def_maps)?;
                    acc = self.and_defined(acc, d)?;
                }
                Ok(acc)
            }
            Expr::Assign { .. } | Expr::Reduce(_) => {
                unreachable!("sema admits neither in a `solve` right-hand side")
            }
        }
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
        let level = self.push_space(&uc.sets)?;
        let result = (|| -> RResult<()> {
            let mut assigns = Vec::new();
            for arm in &uc.arms {
                Self::solve_assignments(&arm.body, &mut assigns);
            }
            // Snapshot fields for each distinct target array.
            let mut targets: Vec<(Ref, FieldId, FieldId)> = Vec::new();
            for (target, _) in &assigns {
                let Expr::Index { base, .. } = target else {
                    unreachable!("sema admits only array-element solve targets")
                };
                if targets.iter().any(|(n, _, _)| *n == base.to) {
                    continue;
                }
                let st = self.storage(Storage::Array(base.to));
                let (field, ty) = (st.field, st.ty);
                let snap = self.machine.alloc(field.vp_set(), "~snap", ty)?;
                targets.push((base.to, field, snap));
            }
            let run = (|| -> RResult<()> {
                let mut iters = 0u64;
                loop {
                    iters += 1;
                    if iters > self.config.limits.max_iterations {
                        return Err(RuntimeError::IterationLimit("*solve"));
                    }
                    for (_, field, snap) in &targets {
                        self.machine.copy_unconditional(*snap, *field)?;
                    }
                    for (target, value) in &assigns {
                        let v = self.eval(value)?;
                        let v = self.store(target, v, false)?;
                        self.release(v);
                    }
                    let mut changed = false;
                    for (_, field, snap) in &targets {
                        if self.machine.any_ne(*field, *snap)? {
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                Ok(())
            })();
            for (_, _, snap) in targets {
                let _ = self.machine.free(snap);
            }
            run
        })();
        self.pop_space(level)?;
        result
    }
}
