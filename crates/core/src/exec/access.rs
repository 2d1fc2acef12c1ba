//! Array access: the three communication classes.
//!
//! Every subscript is first classified *symbolically* by
//! [`opt::classify_index`] — the same function `uc check`'s UC110/UC111
//! lints call, here fed the open constructs' element bindings and
//! [`Program::try_pure_scalar`] ([`opt::eval_pure`] over the `#define`s,
//! the live globals and the activation's registers). If each dimension
//! is `axis-coordinate + constant` and the array conforms to the
//! iteration space, the access is **local**
//! (offset 0 after the mapping transform) or a **NEWS** shift (constant
//! offset). Anything else goes through the general **router**. The map
//! section changes the transform, which is how
//! `permute (I) b[i+1] :- a[i]` turns a router/NEWS access into a local
//! one (§4 of the paper).
//!
//! Out-of-range *reads* in a parallel context yield `INF`, modelling the
//! CM convention that off-edge fetches return the border register (the
//! paper's programs rely on this, e.g. `x[i+1]` in the odd–even sort
//! predicate). Out-of-range *writes* by enabled elements are errors.
//!
//! Gathers computed while a step's predicates evaluate are cached for the
//! arm bodies (§4's common sub-expression detection), keyed by the space
//! and the access's id: sema gives two accesses one id iff their resolved
//! bases and subscripts are structurally equal, so `a[j]` under two
//! reductions whose `j` are different elements are two entries. Sema's
//! `AccessInfo` lists every array an access reads, so a write to `a`
//! drops `b[a[i]]` as well as `a[i]`.

use std::sync::Arc;

use uc_cm::{BinOp, Combine, ElemType, FieldId, ReduceOp, Scalar};

use super::{ArrayStorage, LocalVar, Program, RResult, RuntimeError, PV};
use crate::ast::{AccessId, BinaryOp, Expr, Name, Ref};
use crate::mapping::ArrayMapping;
use crate::opt::{self, IdxForm};
use crate::sema::LocalKind;

impl Program {
    /// The storage of the array an access's base was resolved to.
    pub(crate) fn array_storage(&self, base: &Name) -> Arc<ArrayStorage> {
        match base.to {
            Ref::Array(id) => self.arrays[id as usize].clone(),
            Ref::Local(id) => match &self.frames.last().expect("frame").locals[id as usize] {
                Some(LocalVar::Array(st)) => st.clone(),
                _ => unreachable!("sema admits `{base}` only as a declared local array"),
            },
            to => unreachable!("sema resolves every array base; `{base}` is {to:?}"),
        }
    }

    // ---- symbolic analysis ------------------------------------------------

    /// Pure front-end evaluation: the scalar value of `e` iff it involves
    /// no parallel bindings and no side effects — [`opt::eval_pure`] over
    /// the identifiers that denote a front-end value right now.
    pub(crate) fn try_pure_scalar(&self, e: &Expr) -> Option<Scalar> {
        opt::eval_pure(e, |name| self.scalar_value(name.to)).ok()
    }

    /// Classify a subscript expression against the open constructs.
    pub(crate) fn symbolic_index(&self, e: &Expr) -> IdxForm {
        let elem_form = |name: &Name| match name.to {
            Ref::Elem(set) => Some(self.elem_binding(set).2),
            _ => None,
        };
        opt::classify_index(e, &elem_form, &|e| self.try_pure_scalar(e).map(|s| s.as_int()))
    }

    // ---- reads --------------------------------------------------------------

    /// Read `base[subs...]` in the current context.
    pub(crate) fn read_array(
        &mut self,
        base: &Name,
        subs: &[Expr],
        access: AccessId,
    ) -> RResult<PV> {
        let st = self.array_storage(base);
        if self.ctx.is_empty() {
            // Front-end element read.
            let logical = self.front_end_index(&st, base, subs)?;
            let idx = st.mapping.storage_index(logical, &st.shape, 0);
            return Ok(PV::Scalar(self.machine.read_elem(st.field, idx)?));
        }

        // Common-subexpression cache: a gather computed while this step's
        // predicates evaluated (full construct mask) may be reused by arm
        // bodies (strictly narrower masks).
        if !self.checked.accesses[access as usize].cacheable {
            return self.read_storage(&st, subs);
        }
        let key = (self.cur_ctx().vp, access);
        for level in self.cse_stack.iter().rev() {
            if let Some(&id) = level.get(&key) {
                return Ok(PV::Field { id, owned: false });
            }
        }
        let pv = self.read_storage(&st, subs)?;
        if let (true, Some(level), PV::Field { id, owned: true }) =
            (self.cse_fill, self.cse_stack.last_mut(), pv)
        {
            level.insert(key, id);
            return Ok(PV::Field { id, owned: false });
        }
        Ok(pv)
    }

    /// The logical (row-major) index of a front-end element access,
    /// bounds-checked.
    fn front_end_index(
        &mut self,
        st: &ArrayStorage,
        base: &Name,
        subs: &[Expr],
    ) -> RResult<usize> {
        let mut coord = Vec::with_capacity(subs.len());
        for (d, sub) in subs.iter().enumerate() {
            let v = self.eval_scalar(sub)?.as_int();
            if v < 0 || v as usize >= st.shape[d] {
                return Err(RuntimeError::OutOfBounds { name: base.to_string() });
            }
            coord.push(v as usize);
        }
        Ok(crate::mapping::flatten(&coord, &st.shape))
    }

    /// Drop every cached gather that reads `array` — as the gathered array
    /// or anywhere inside a subscript (called when `array` is written) — or
    /// the whole cache (when `array` is None, e.g. a scalar that might
    /// appear in subscripts changed).
    pub(crate) fn cse_invalidate(&mut self, array: Option<Ref>) {
        let accesses = &self.checked.accesses;
        for level in &mut self.cse_stack {
            level.retain(|&(_, access), field| {
                let stale = array.is_none_or(|a| accesses[access as usize].arrays.contains(&a));
                if stale {
                    let _ = self.machine.free(*field);
                }
                !stale
            });
        }
    }

    /// Enter/leave a synchronous step for the CSE cache.
    pub(crate) fn cse_push(&mut self) {
        self.cse_stack.push(std::collections::HashMap::new());
    }

    pub(crate) fn cse_pop(&mut self) {
        if let Some(level) = self.cse_stack.pop() {
            for field in level.into_values() {
                let _ = self.machine.free(field);
            }
        }
    }

    /// Parallel read of a storage descriptor (also used for solve's
    /// defined-bitmaps, which mirror their array's mapping).
    pub(crate) fn read_storage(&mut self, st: &ArrayStorage, subs: &[Expr]) -> RResult<PV> {
        if self.config.optimize_access {
            if let Some(pv) = self.try_fast_read(st, subs)? {
                return Ok(pv);
            }
        }
        self.router_read(st, subs)
    }

    /// Local/NEWS read when the array conforms to the iteration space.
    fn try_fast_read(&mut self, st: &ArrayStorage, subs: &[Expr]) -> RResult<Option<PV>> {
        let offsets: Vec<i64> = match &st.mapping {
            ArrayMapping::Default => vec![0; st.shape.len()],
            ArrayMapping::Permute { offsets } => offsets.clone(),
            ArrayMapping::Copy { .. } => {
                // §4's broadcast elimination: when the iteration space is
                // [replicas, ...shape] and the logical subscripts are the
                // trailing axis identities, every iteration point reads
                // its own replica locally instead of broadcasting from a
                // single copy through the router.
                let storage_shape = st.mapping.storage_shape(&st.shape);
                let identity = storage_shape == self.cur_ctx().dims
                    && subs.iter().enumerate().all(|(d, s)| {
                        matches!(self.symbolic_index(s),
                            IdxForm::AxisPlus { axis, offset: 0 } if axis == d + 1)
                    });
                if identity {
                    let vp = self.cur_ctx().vp;
                    let dst = self.machine.alloc(vp, "~rd", st.ty)?;
                    self.machine.copy(dst, st.field)?;
                    return Ok(Some(PV::owned(dst)));
                }
                return Ok(None);
            }
            ArrayMapping::Fold { .. } => return Ok(None),
        };
        if st.shape != self.cur_ctx().dims {
            return Ok(None);
        }
        let mut shifts = Vec::with_capacity(subs.len());
        let mut logical_offsets = Vec::with_capacity(subs.len());
        for (d, sub) in subs.iter().enumerate() {
            match self.symbolic_index(sub) {
                IdxForm::AxisPlus { axis, offset } if axis == d => {
                    shifts.push(offset - offsets[d]);
                    logical_offsets.push(offset);
                }
                _ => return Ok(None),
            }
        }
        // At most one displaced axis: a NEWS shift writes only *active*
        // positions, so chaining shifts would read garbage at inactive
        // intermediate positions. Multi-axis displacement (`a[i-1][j-1]`)
        // takes the router.
        if shifts.iter().filter(|&&s| s != 0).count() > 1 {
            return Ok(None);
        }
        let vp = self.cur_ctx().vp;
        let dst = self.machine.alloc(vp, "~rd", st.ty)?;
        match shifts.iter().position(|&s| s != 0) {
            None => self.machine.copy(dst, st.field)?,
            Some(d) => {
                // Toroidal shift; the logical-bounds fixup below replaces
                // wrapped positions with INF.
                self.machine
                    .news_shift(dst, st.field, d, shifts[d], uc_cm::news::Border::Wrap)?;
            }
        }
        // Fix up positions whose *logical* index fell outside the array:
        // they read INF, not a wrapped value. The validity masks depend
        // only on the geometry, so they are computed once and cached.
        for (d, &c) in logical_offsets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let ok = self.fixup_mask(d, c, st.shape[d] as i64)?;
            let inf = self.inf_field(st.ty)?;
            self.machine.select(dst, ok, dst, inf)?;
        }
        Ok(Some(PV::owned(dst)))
    }

    /// Cached "coordinate(axis)+offset is inside [0, n)" mask on the
    /// current space.
    fn fixup_mask(&mut self, axis: usize, c: i64, n: i64) -> RResult<FieldId> {
        let vp = self.cur_ctx().vp;
        let key = (vp, axis, c);
        if let Some(&f) = self.fixup_cache.get(&key) {
            return Ok(f);
        }
        // Built unconditionally (front-end DMA): the cache is shared
        // across constructs with different activity masks.
        let dims = &self.cur_ctx().dims;
        let size: usize = dims.iter().product();
        let stride: usize = dims[axis + 1..].iter().product();
        let extent = dims[axis];
        let bits: Vec<bool> = (0..size)
            .map(|p| {
                let coord = ((p / stride) % extent) as i64 + c;
                coord >= 0 && coord < n
            })
            .collect();
        let ok = self.machine.alloc_bool(vp, "~ok")?;
        self.machine.write_all(ok, uc_cm::FieldData::Bool(bits))?;
        self.fixup_cache.insert(key, ok);
        Ok(ok)
    }

    /// Cached INF broadcast field on the current space.
    fn inf_field(&mut self, ty: ElemType) -> RResult<FieldId> {
        let vp = self.cur_ctx().vp;
        let key = (vp, ty);
        if let Some(&f) = self.inf_cache.get(&key) {
            return Ok(f);
        }
        let inf = self.machine.alloc(vp, "~INF", ty)?;
        self.machine.fill_unconditional(inf, inf_of(ty))?;
        self.inf_cache.insert(key, inf);
        Ok(inf)
    }

    /// General gather through the router, with bounds handling.
    fn router_read(&mut self, st: &ArrayStorage, subs: &[Expr]) -> RResult<PV> {
        let vp = self.cur_ctx().vp;
        let (addr, valid) = self.storage_address(st, subs)?;
        let dst = self.machine.alloc(vp, "~gather", st.ty)?;
        self.machine.get(dst, addr, st.field)?;
        self.machine.free(addr)?;
        if let Some(valid) = valid {
            // Out-of-range reads yield INF.
            let inf = self.inf_field(st.ty)?;
            self.machine.select(dst, valid, dst, inf)?;
            self.machine.free(valid)?;
        }
        Ok(PV::owned(dst))
    }

    /// Compute the (clamped) storage address field and an optional
    /// validity mask for a subscripted access on the current space.
    /// `None` validity means every enabled element is statically in
    /// bounds (axis-identity and in-range constant subscripts), in which
    /// case the address arithmetic is as lean as hand-written C\*'s.
    fn storage_address(
        &mut self,
        st: &ArrayStorage,
        subs: &[Expr],
    ) -> RResult<(FieldId, Option<FieldId>)> {
        let vp = self.cur_ctx().vp;
        let storage_shape = st.mapping.storage_shape(&st.shape);
        // Row-major strides over the storage shape; for Copy the logical
        // dims start at storage axis 1 (replica 0 occupies the first block).
        let mut strides = vec![1usize; storage_shape.len()];
        for i in (0..storage_shape.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * storage_shape[i + 1];
        }
        let dim_off = storage_shape.len() - st.shape.len();

        let addr = self.machine.alloc_int(vp, "~addr")?;
        // Constant subscript contributions fold into the initial fill.
        let mut base = 0i64;
        let mut static_oob = false;
        let mut dynamic: Vec<(usize, &Expr)> = Vec::new();
        for (d, sub) in subs.iter().enumerate() {
            let n = st.shape[d] as i64;
            match self.symbolic_index(sub) {
                IdxForm::Const(c) if (0..n).contains(&c) => {
                    // Host-side mapping transform of a known coordinate.
                    let mut coord = vec![0usize; st.shape.len()];
                    coord[d] = c as usize;
                    let sc = st.mapping.storage_coord(&coord, &st.shape)[d];
                    base += sc as i64 * strides[dim_off + d] as i64;
                }
                IdxForm::Const(_) => static_oob = true,
                _ => dynamic.push((d, sub)),
            }
        }
        self.machine.fill_unconditional(addr, Scalar::Int(base))?;
        let mut valid: Option<FieldId> = None;
        if static_oob {
            let v = self.machine.alloc_bool(vp, "~valid")?;
            self.machine.fill_unconditional(v, Scalar::Bool(false))?;
            valid = Some(v);
        }

        for (d, sub) in dynamic {
            let n = st.shape[d] as i64;
            // Axis-identity over a matching extent is statically in
            // bounds: no validity tracking, one coordinate instruction.
            let statically_safe = matches!(
                self.symbolic_index(sub),
                IdxForm::AxisPlus { axis, offset: 0 }
                    if self.cur_ctx().dims.get(axis) == Some(&(n as usize)))
                && !matches!(st.mapping, ArrayMapping::Fold { axis } if axis == d);
            let pv = self.eval(sub)?;
            let pv = self.coerce_field(pv, ElemType::Int)?;
            let PV::Field { id: vfield, owned } = pv else { unreachable!() };
            // Work on a copy so we never mutate a non-owned binding field.
            let v = self.machine.alloc_int(vp, "~sub")?;
            self.machine.copy(v, vfield)?;
            if owned {
                self.machine.free(vfield)?;
            }
            if !statically_safe {
                // Validity: 0 <= v < n (logical bounds, before mapping).
                let va = match valid {
                    Some(va) => va,
                    None => {
                        let va = self.machine.alloc_bool(vp, "~valid")?;
                        self.machine.fill_unconditional(va, Scalar::Bool(true))?;
                        valid = Some(va);
                        va
                    }
                };
                let tmpb = self.machine.alloc_bool(vp, "~vb")?;
                self.machine.binop_imm(BinOp::Ge, tmpb, v, Scalar::Int(0))?;
                self.machine.binop(BinOp::LogAnd, va, va, tmpb)?;
                self.machine.binop_imm(BinOp::Lt, tmpb, v, Scalar::Int(n))?;
                self.machine.binop(BinOp::LogAnd, va, va, tmpb)?;
                self.machine.free(tmpb)?;
            }
            // Mapping transform.
            match &st.mapping {
                ArrayMapping::Default | ArrayMapping::Copy { .. } => {}
                ArrayMapping::Permute { offsets } => {
                    if offsets[d] != 0 {
                        // (v - off).rem_euclid(n)
                        self.machine.binop_imm(BinOp::Sub, v, v, Scalar::Int(offsets[d]))?;
                        self.machine.binop_imm(BinOp::Mod, v, v, Scalar::Int(n))?;
                        self.machine.binop_imm(BinOp::Add, v, v, Scalar::Int(n))?;
                        self.machine.binop_imm(BinOp::Mod, v, v, Scalar::Int(n))?;
                    }
                }
                ArrayMapping::Fold { axis } if *axis == d => {
                    // v' = 2*min(v, n-1-v) + (v >= ceil(n/2))
                    let mirror = self.machine.alloc_int(vp, "~mir")?;
                    self.machine.binop_imm_l(BinOp::Sub, mirror, Scalar::Int(n - 1), v)?;
                    let low = self.machine.alloc_int(vp, "~low")?;
                    self.machine.binop(BinOp::Min, low, v, mirror)?;
                    self.machine.binop_imm(BinOp::Mul, low, low, Scalar::Int(2))?;
                    let hi = self.machine.alloc_bool(vp, "~hi")?;
                    self.machine
                        .binop_imm(BinOp::Ge, hi, v, Scalar::Int((n as u64).div_ceil(2) as i64))?;
                    let hii = self.machine.alloc_int(vp, "~hii")?;
                    self.machine.convert(hii, hi)?;
                    self.machine.binop(BinOp::Add, v, low, hii)?;
                    for f in [mirror, low, hi, hii] {
                        self.machine.free(f)?;
                    }
                }
                ArrayMapping::Fold { .. } => {}
            }
            if let Some(va) = valid {
                // Clamp out-of-range values to 0 so the router accepts
                // them (they are replaced by INF / excluded from writes
                // afterwards).
                let vi = self.machine.alloc_int(vp, "~vi")?;
                self.machine.convert(vi, va)?;
                self.machine.binop(BinOp::Mul, v, v, vi)?;
                self.machine.free(vi)?;
                // Clamp to the storage extent too: a permute-wrapped value
                // is always in range, but fold on odd extents can exceed it.
                let sn = storage_shape[dim_off + d] as i64;
                self.machine.binop_imm(BinOp::Mod, v, v, Scalar::Int(sn))?;
            }
            // addr += v * stride
            self.machine
                .binop_imm(BinOp::Mul, v, v, Scalar::Int(strides[dim_off + d] as i64))?;
            self.machine.binop(BinOp::Add, addr, addr, v)?;
            self.machine.free(v)?;
        }
        Ok((addr, valid))
    }

    // ---- writes -------------------------------------------------------------

    /// Store `value` into `base[subs...]`. `check_conflicts` enforces the
    /// `par` rule that distinct values may not land on one element
    /// (relaxed inside `*solve`).
    pub(crate) fn write_array(
        &mut self,
        base: &Name,
        subs: &[Expr],
        value: PV,
        check_conflicts: bool,
    ) -> RResult<()> {
        self.cse_invalidate(Some(base.to));
        let st = self.array_storage(base);
        if self.ctx.is_empty() {
            let logical = self.front_end_index(&st, base, subs)?;
            let PV::Scalar(s) = value else {
                unreachable!("a parallel value outside every construct")
            };
            let s = super::space::coerce_scalar(s, st.ty);
            for r in 0..st.mapping.replicas() {
                let idx = st.mapping.storage_index(logical, &st.shape, r);
                self.machine.write_elem(st.field, idx, s)?;
            }
            return Ok(());
        }
        self.write_storage(&st, subs, value, check_conflicts, &base.text)
    }

    /// Parallel store into a storage descriptor (also used for solve's
    /// defined-bitmaps).
    pub(crate) fn write_array_storage(
        &mut self,
        st: &ArrayStorage,
        subs: &[Expr],
        value: PV,
    ) -> RResult<()> {
        self.write_storage(st, subs, value, false, "~storage")
    }

    fn write_storage(
        &mut self,
        st: &ArrayStorage,
        subs: &[Expr],
        value: PV,
        check_conflicts: bool,
        base: &str,
    ) -> RResult<()> {
        let value = self.coerce_field(value, st.ty)?;
        let PV::Field { id: vfield, .. } = value else { unreachable!() };

        // Fast path: identity store onto a conforming default-mapped array.
        if self.config.optimize_access
            && st.mapping == ArrayMapping::Default
            && st.shape == self.cur_ctx().dims
            && subs.iter().enumerate().all(|(d, s)| {
                matches!(self.symbolic_index(s),
                    IdxForm::AxisPlus { axis, offset: 0 } if axis == d)
            })
        {
            self.machine.copy(st.field, vfield)?;
            self.release(value);
            return Ok(());
        }

        // General scatter.
        let (addr, valid) = self.storage_address(st, subs)?;
        if let Some(valid) = valid {
            // An enabled element writing out of range is an error.
            let vp = self.cur_ctx().vp;
            let bad = self.machine.alloc_bool(vp, "~bad")?;
            self.machine.unop(uc_cm::UnOp::Not, bad, valid)?;
            let any_bad = self.machine.reduce(bad, ReduceOp::Or)?.as_bool();
            self.machine.free(bad)?;
            self.machine.free(valid)?;
            if any_bad {
                self.machine.free(addr)?;
                self.release(value);
                return Err(RuntimeError::OutOfBounds { name: base.to_string() });
            }
        }
        let size: usize = st.shape.iter().product();
        let mut conflict = false;
        for r in 0..st.mapping.replicas() {
            let conflict_r = if r == 0 {
                self.machine.send_detect(st.field, addr, vfield, Combine::Overwrite)?
            } else {
                self.machine.binop_imm(BinOp::Add, addr, addr, Scalar::Int(size as i64))?;
                self.machine.send_detect(st.field, addr, vfield, Combine::Overwrite)?
            };
            conflict |= conflict_r;
        }
        self.machine.free(addr)?;
        self.release(value);
        if conflict && check_conflicts {
            return Err(RuntimeError::MultipleAssignment { name: base.to_string() });
        }
        Ok(())
    }

    /// Evaluate an assignment expression (including compound ops),
    /// returning the stored value.
    pub(crate) fn eval_assign(
        &mut self,
        target: &Expr,
        op: Option<BinaryOp>,
        value: &Expr,
    ) -> RResult<PV> {
        let rhs = self.eval(value)?;
        let combined = match op {
            None => rhs,
            Some(op) => {
                let old = self.eval(target)?;
                self.apply_binary(op, old, rhs)?
            }
        };
        self.store(target, combined, true)
    }

    /// Store a PV into an lvalue; returns the PV (still owned by caller).
    pub(crate) fn store(
        &mut self,
        target: &Expr,
        value: PV,
        check_conflicts: bool,
    ) -> RResult<PV> {
        match target {
            Expr::Ident(name, _) => self.store_ident(name, value)?,
            Expr::Index { base, subs, .. } => {
                // write_array consumes/releases a copy; keep the caller's
                // PV alive by duplicating the handle (fields are Copy ids).
                let dup = match value {
                    PV::Scalar(s) => PV::Scalar(s),
                    PV::Field { id, .. } => PV::Field { id, owned: false },
                };
                self.write_array(base, subs, dup, check_conflicts)?;
            }
            other => unreachable!("sema admits only lvalues as targets, not {other:?}"),
        }
        Ok(value)
    }

    /// Store to a scalar: a register local or global (sema admits only
    /// those and per-VP locals as targets) takes a front-end value, a
    /// per-VP local a field on its own space.
    fn store_ident(&mut self, name: &Name, value: PV) -> RResult<()> {
        // A scalar or par-local may appear inside cached subscripts:
        // conservatively drop the whole gather cache.
        self.cse_invalidate(None);
        if let Ref::Local(id) = name.to {
            let locals = &self.frames.last().expect("frame").locals;
            if let Some(Some(LocalVar::ParField { field, level })) = locals.get(id as usize) {
                let field = *field;
                debug_assert_eq!(
                    *level,
                    self.ctx.len() - 1,
                    "sema admits stores to a per-VP local only at its own depth"
                );
                let ty = self.machine.elem_type(field)?;
                let v = self.coerce_field(value, ty)?;
                let PV::Field { id, .. } = v else { unreachable!() };
                self.machine.copy(field, id)?;
                self.release(v);
                return Ok(());
            }
        }
        let PV::Scalar(s) = value else {
            unreachable!("sema admits only a front-end value as a store to scalar `{name}`")
        };
        let place = match name.to {
            Ref::Global(g) => &mut self.globals[g as usize],
            Ref::Local(id) => match *self.local_kind(id) {
                LocalKind::Reg(r) => self.reg(r),
                _ => unreachable!("sema admits `{name}` only as a live scalar"),
            },
            to => unreachable!("sema admits only scalar variables as targets; `{name}` is {to:?}"),
        };
        *place = super::space::coerce_scalar(s, place.elem_type());
        Ok(())
    }
}

/// The INF a read outside the array yields, per element type.
pub(crate) fn inf_of(ty: ElemType) -> Scalar {
    match ty {
        ElemType::Int => Scalar::Int(i64::MAX),
        ElemType::Float => Scalar::Float(f64::INFINITY),
        ElemType::Bool => Scalar::Bool(false),
    }
}
