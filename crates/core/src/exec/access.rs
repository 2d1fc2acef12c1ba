//! Array access in an iteration space: the three communication classes.
//! (A front-end element is a VM instruction; see `vm`.)
//!
//! Nothing here classifies a subscript: sema did, once per access id.
//! An access values its plan's forms over the live front-end scalars
//! ([`Run::resolve_subs`]) and [`opt::path`] — for a store
//! [`opt::store_path`], which never shifts — the rules sema applies for
//! UC110/UC111 too, pick **local**, a **NEWS** shift or the general
//! **router**, whose address is built axis by axis with the ops Figure
//! 10's C\* uses — `i*N + k` is a multiply by an immediate and an add —
//! plus, where a subscript is not statically in range, the bounds check
//! PARIS issues: one unsigned compare per axis ([`Run::in_range`]). The
//! map section changes the transform, which is how `permute (I) b[i+1] :- a[i]`
//! turns a router/NEWS access into a local one (§4 of the paper).
//!
//! Out-of-range *reads* yield `INF`, modelling the CM convention that
//! off-edge fetches return the border register (the paper's programs rely
//! on this, e.g. `x[i+1]` in the odd–even sort predicate). A NEWS shift
//! of an unmapped array fills its border with INF itself, as C\*'s does;
//! a `permute`d array, stored displaced from its logical bounds, shifts
//! toroidally and then selects INF through a cached mask of the lanes
//! whose logical index is in range. A router read fills its result with
//! INF and fetches only where the check holds, so an out-of-range lane
//! never reaches the router. Out-of-range *writes* by enabled elements
//! are errors; disabled ones are ignored.
//!
//! A local read copies the array's field unless sema lent it the field
//! itself (`Expr::Index`'s `borrow`): where its consumer is an operator
//! (`min` and `abs` among them), a `?:` condition or a read's subscript,
//! and no operand of
//! that consumer assigns, swaps or calls a user function, nothing writes
//! the array while the value is live. A store's source, a `swap`
//! operand, a declaration's initialiser and a reduction's operand get a
//! copy. A borrowed field is never kept for the step: only an owned value
//! enters the cache below, whose end frees it.
//!
//! A step computes each value once (§4's common sub-expression
//! detection). Sema gives a value id to every access, and to an operator
//! only where it is worth keeping; [`Run::eval_kept`]
//! serves both kinds alike:
//!
//! * a value a step's predicates compute — a gather, or an expression the
//!   arm bodies or `others` compute again, like the grid's
//!   `min(...) + 1` — is cached for the bodies in a short list per step,
//!   keyed by the space and the id (two accesses share one iff their
//!   resolved bases and subscripts are equal). A write to any array the
//!   value reads (`ValueInfo::arrays`) makes it stale, but its field lives
//!   until the step ends, so the value an arm is storing stays readable;
//! * an index-only value in a `*par` predicate, like the grid's
//!   `(i != 0 || j != 0)`, is the same in every sweep: the first sweep
//!   computes it under the level's base context, and the level keeps it
//!   (`ParCtx::kept`) until the construct ends.
//!
//! Both are decisions over the program text; none reads a mask.
//!
//! A warm access allocates nothing: its storage is found by a `Copy` key
//! ([`Storage`]) wherever it is used, and its subscript forms share one
//! stack.

use uc_cm::{BinOp, Combine, ElemType, FieldId, ReduceOp, Scalar};

use super::space::Geo;
use super::{coerce_scalar, ArrayStorage, LocalVar, RResult, Run, RuntimeError, Storage, PV};
use crate::ast::{BinaryOp, Expr, Name, Ref, ValueId};
use crate::mapping::ArrayMapping;
use crate::opt::{self, IdxForm, Path, SubForm};
use crate::sema::LocalKind;

impl Run<'_> {
    /// The storage behind a key: for an array base, what sema resolved it
    /// to.
    pub(crate) fn storage(&self, key: Storage) -> &ArrayStorage {
        match key {
            Storage::Array(Ref::Array(id)) => &self.arrays[id as usize],
            Storage::Array(Ref::Local(id)) => {
                match &self.frames.last().expect("frame").locals[id as usize] {
                    Some(LocalVar::Array(st)) => st,
                    _ => unreachable!("sema admits local {id} as a base only as a local array"),
                }
            }
            Storage::Array(to) => unreachable!("sema resolves every array base; this is {to:?}"),
            Storage::Defined(k) => &self.defined[k],
        }
    }

    /// Sema's plan for `access` valued over the live front-end scalars,
    /// its axes re-based onto the open spaces, onto `forms`. Returns where
    /// they start; the caller truncates back to it when the access is done.
    fn resolve_subs(&mut self, access: ValueId, subs: &[Expr]) -> usize {
        let (start, checked, rebase) = (self.forms.len(), self.checked, self.cur_ctx().rebase);
        for (sub, &form) in subs.iter().zip(&checked.values[access as usize].forms) {
            let form = match form {
                SubForm::Axis { axis, lo } => SubForm::Axis { axis: axis - rebase, lo },
                form => form,
            };
            let resolved = opt::resolve_index(form, sub, |n| self.scalar_value(n.to));
            self.forms.push(resolved);
        }
        start
    }

    // ---- reads --------------------------------------------------------------

    /// Evaluate `e`, whose id is `id`, keeping its value where sema says
    /// it is worth keeping. An invariant value is computed once per entry
    /// of its `*par`, by the first sweep's predicates, and kept on the
    /// level. Any other is kept for the step: computed while the step's
    /// predicates evaluate (under the construct's context), reused by the
    /// arm bodies and `others` (under narrower masks) until a write makes
    /// it stale.
    pub(crate) fn eval_kept(&mut self, e: &Expr, id: ValueId) -> RResult<PV> {
        let info = &self.checked.values[id as usize];
        let (cacheable, invariant) = (info.cacheable, info.invariant);
        if !cacheable {
            return self.compute(e);
        }
        let found = if invariant {
            self.cur_ctx().kept.iter().find(|&&(v, _)| v == id).map(|&(_, field)| field)
        } else {
            let vp = self.cur_ctx().vp;
            let mut cached = self.cse_stack.iter().rev().flatten();
            cached.find(|&&(v, a, _)| (v, a) == (vp, Some(id))).map(|&(.., field)| field)
        };
        if let Some(field) = found {
            return Ok(PV::Field { id: field, owned: false });
        }
        let pv = self.compute(e)?;
        // Only an owned field is kept: not a scalar, nor the array field
        // a local read borrowed.
        let PV::Field { id: field, owned: true } = pv else { return Ok(pv) };
        if !self.cse_fill {
            return Ok(pv);
        }
        if invariant {
            self.ctx.last_mut().expect("a space is open").kept.push((id, field));
        } else {
            let (vp, level) = (self.cur_ctx().vp, self.cse_depth - 1);
            self.cse_stack[level].push((vp, Some(id), field));
        }
        Ok(PV::Field { id: field, owned: false })
    }

    /// Mark stale every value the step cache holds that reads `array` —
    /// as a gathered array, inside a subscript or as an operand (called
    /// when `array` is written) — or every one (when `array` is None: a
    /// scalar or per-VP local that a value may read changed). A stale
    /// entry's field is freed when its step ends.
    pub(crate) fn cse_invalidate(&mut self, array: Option<Ref>) {
        let values = &self.checked.values;
        for (_, kept, _) in self.cse_stack.iter_mut().flatten() {
            if kept.is_some_and(|v| array.is_none_or(|a| values[v as usize].arrays.contains(&a))) {
                *kept = None;
            }
        }
    }

    /// Enter/leave a synchronous step for the CSE cache.
    pub(crate) fn cse_push(&mut self) {
        if self.cse_depth == self.cse_stack.len() {
            self.cse_stack.push(Vec::new());
        }
        self.cse_depth += 1;
    }

    pub(crate) fn cse_pop(&mut self) {
        self.cse_depth -= 1;
        for (.., field) in self.cse_stack[self.cse_depth].drain(..) {
            let _ = self.machine.free(field);
        }
    }

    /// Parallel read of a storage: an array, or a solve's defined-bitmap,
    /// which mirrors its array's mapping. `borrow` is sema's leave to
    /// hand a local read the storage itself ([`Expr::Index`]).
    pub(crate) fn read_storage(
        &mut self,
        arr: Storage,
        access: ValueId,
        subs: &[Expr],
        borrow: bool,
    ) -> RResult<PV> {
        let start = self.resolve_subs(access, subs);
        let read = match self.try_fast_read(arr, start, borrow)? {
            Some(pv) => pv,
            None => self.router_read(arr, subs, start)?,
        };
        self.forms.truncate(start);
        Ok(read)
    }

    /// Local/NEWS read, as [`opt::path`] decides: the array's field itself
    /// where sema lent it (`borrow`), a copy, a NEWS shift with an INF
    /// border, or for a `permute`d array a toroidal shift (or none) and
    /// INF selected at the logical edges. `None` for the router, and
    /// without `optimize_access`.
    fn try_fast_read(&mut self, arr: Storage, start: usize, borrow: bool) -> RResult<Option<PV>> {
        if !self.config.optimize_access {
            return Ok(None);
        }
        let (st, ctx, forms) = (self.storage(arr), self.cur_ctx(), &self.forms[start..]);
        let (field, ty, vp, rank) = (st.field, st.ty, ctx.vp, forms.len());
        let shift = match opt::path(forms, &ctx.dims, &st.shape, &st.mapping) {
            Path::Router => return Ok(None),
            Path::Local => return self.local_read(field, ty, borrow).map(Some),
            // Unmapped, the off-grid lanes are the ones that left it.
            Path::News { axis, by } => {
                let dst = self.machine.alloc_result(vp, "~rd", ty)?;
                let border = uc_cm::news::Border::Fill(inf_of(ty));
                self.machine.news_shift(dst, field, axis, by, border)?;
                return Ok(Some(PV::owned(dst)));
            }
            Path::Permuted { shift } => shift,
        };
        // A permuted array: a toroidal shift, or none, then INF wherever
        // the *logical* index fell outside the array. The validity masks
        // depend only on the geometry, so they are computed once and
        // cached. The first select reads the array's field when nothing
        // shifted it.
        let dst = self.machine.alloc_result(vp, "~rd", ty)?;
        let mut src = field;
        if let Some((d, s)) = shift {
            self.machine.news_shift(dst, field, d, s, uc_cm::news::Border::Wrap)?;
            src = dst;
        }
        for d in 0..rank {
            let IdxForm::AxisPlus { offset: c, .. } = self.forms[start + d] else {
                unreachable!("every subscript of a local/NEWS read is an axis")
            };
            if c == 0 {
                continue;
            }
            let ok = self.fixup_mask(d, c, self.storage(arr).shape[d] as i64)?;
            let inf = self.inf_field(ty)?;
            self.machine.select(dst, ok, src, inf)?;
            src = dst;
        }
        Ok(Some(PV::owned(dst)))
    }

    /// A local read of `field`: the field itself where sema lent it, else
    /// a copy the consumer owns.
    fn local_read(&mut self, field: FieldId, ty: ElemType, borrow: bool) -> RResult<PV> {
        if borrow {
            return Ok(PV::Field { id: field, owned: false });
        }
        let dst = self.machine.alloc_result(self.cur_ctx().vp, "~rd", ty)?;
        self.machine.copy(dst, field)?;
        Ok(PV::owned(dst))
    }

    /// Cached "coordinate(axis)+offset is inside [0, n)" mask on the
    /// current space.
    fn fixup_mask(&mut self, axis: usize, c: i64, n: i64) -> RResult<FieldId> {
        let vp = self.cur_ctx().vp;
        self.geo_field(vp, Geo::Fixup(axis, c), |p| {
            // Built unconditionally (front-end DMA): the cache is shared
            // across constructs with different activity masks.
            let dims = &p.cur_ctx().dims;
            let size: usize = dims.iter().product();
            let stride: usize = dims[axis + 1..].iter().product();
            let extent = dims[axis];
            let bits: Vec<bool> = (0..size)
                .map(|q| {
                    // An offset near INF leaves `i64`: out of range.
                    let coord = ((q / stride) % extent) as i64;
                    coord.checked_add(c).is_some_and(|x| (0..n).contains(&x))
                })
                .collect();
            let ok = p.machine.alloc_bool(vp, "~ok")?;
            p.machine.write_all(ok, uc_cm::FieldData::Bool(bits))?;
            Ok(ok)
        })
    }

    /// Cached INF broadcast field on the current space.
    fn inf_field(&mut self, ty: ElemType) -> RResult<FieldId> {
        let vp = self.cur_ctx().vp;
        self.geo_field(vp, Geo::Inf(ty), |p| {
            let inf = p.machine.alloc(vp, "~INF", ty)?;
            p.machine.fill_unconditional(inf, inf_of(ty))?;
            Ok(inf)
        })
    }

    /// General gather through the router. Where a subscript may leave the
    /// array, `dst` is INF everywhere first and the get runs only where
    /// the subscripts are in range, so an out-of-range lane never reaches
    /// the router and reads INF. Filled before the push, the value is
    /// whole on the enclosing mask, so it may still enter the step cache.
    fn router_read(&mut self, arr: Storage, subs: &[Expr], start: usize) -> RResult<PV> {
        let vp = self.cur_ctx().vp;
        let ((addr, owned), valid) = self.storage_address(arr, subs, start)?;
        let st = self.storage(arr);
        let (field, ty) = (st.field, st.ty);
        let dst = self.machine.alloc_result(vp, "~gather", ty)?;
        if valid.is_some() {
            self.machine.fill_unconditional(dst, inf_of(ty))?;
        }
        self.under(valid, |p| Ok(p.machine.get(dst, addr, field)?))?;
        if owned {
            self.machine.free(addr)?;
        }
        if let Some(valid) = valid {
            self.machine.free(valid)?;
        }
        Ok(PV::owned(dst))
    }

    /// A fresh mask of the lanes where the `Int` field `v` lies in
    /// `[0, n)`: one unsigned compare, the test PARIS issues for a
    /// subscript and the router runs on an address.
    pub(crate) fn in_range(&mut self, v: FieldId, n: i64) -> RResult<FieldId> {
        let ok = self.machine.alloc_result(v.vp_set(), "~ok", ElemType::Bool)?;
        self.machine.binop_imm(BinOp::ULt, ok, v, Scalar::Int(n))?;
        Ok(ok)
    }

    /// The storage address, as `(field, owned)`, and an optional validity
    /// mask for a subscripted access on the current space, whose
    /// subscript forms start at `forms[start]`. `None` validity means
    /// every enabled element is statically in bounds (axis-identity and
    /// in-range constant subscripts). Where the mask is false the address
    /// is left as the arithmetic made it: the caller acts only where the
    /// mask holds, so such a lane never reaches the router.
    ///
    /// Addresses are row-major over the storage shape, one axis at a time:
    /// logical axis `d` keeps its extent and strides over the axes after
    /// it, and a `copy` mapping's replica axis leads (replica 0 occupies
    /// the first block). The arithmetic is what a C\* programmer writes:
    /// constant subscripts fold into a host-side `base`, added once; a
    /// subscript that is already an owned temporary (`p[i]`, `i+1`, an
    /// enclosing level's coordinate) becomes its term in place, and a
    /// binding field is read where it lives by the op that first writes
    /// its term; a stride of 1 multiplies nothing. The address is filled
    /// only when every subscript is constant, and a lone borrowed term
    /// (a coordinate, a lent `p[i]`) is the address itself, not a copy.
    ///
    /// The bounds check is one unsigned compare per checked axis
    /// ([`Run::in_range`]): the first writes the mask, each later one
    /// is ANDed into it.
    fn storage_address(
        &mut self,
        arr: Storage,
        subs: &[Expr],
        start: usize,
    ) -> RResult<((FieldId, bool), Option<FieldId>)> {
        let vp = self.cur_ctx().vp;
        let (mut base, mut static_oob) = (0i64, false);
        let st = self.storage(arr);
        for (d, &form) in self.forms[start..].iter().enumerate() {
            let IdxForm::Const(c) = form else { continue };
            let n = st.shape[d];
            if (0..n as i64).contains(&c) {
                // Host-side mapping transform of a known coordinate.
                let stride: usize = st.shape[d + 1..].iter().product();
                base += st.mapping.storage_axis(d, c as usize, n) as i64 * stride as i64;
            } else {
                static_oob = true;
            }
        }
        let mut valid: Option<FieldId> = None;
        if static_oob {
            let v = self.machine.alloc_result(vp, "~valid", ElemType::Bool)?;
            self.machine.fill_unconditional(v, Scalar::Bool(false))?;
            valid = Some(v);
        }

        // The sum of the non-constant terms so far, as (field, owned).
        let mut sum: Option<(FieldId, bool)> = None;
        for (d, sub) in subs.iter().enumerate() {
            let form = self.forms[start + d];
            if let IdxForm::Const(_) = form {
                continue;
            }
            let st = self.storage(arr);
            let (n, stride) = (st.shape[d] as i64, st.shape[d + 1..].iter().product::<usize>());
            let (folded, permuted) = match st.mapping {
                ArrayMapping::Fold { axis } => (axis == d, 0),
                ArrayMapping::Permute { ref offsets } => (false, offsets[d]),
                ArrayMapping::Default | ArrayMapping::Copy { .. } => (false, 0),
            };
            // Axis-identity over a matching extent is statically in
            // bounds: no validity tracking.
            let statically_safe = !folded
                && matches!(form, IdxForm::AxisPlus { axis, offset: 0 }
                    if self.cur_ctx().dims.get(axis) == Some(&(n as usize)));
            let pv = self.eval(sub)?;
            let pv = self.coerce_field(pv, ElemType::Int)?;
            let PV::Field { id, owned } = pv else { unreachable!() };
            let mut term = (id, owned);
            if !statically_safe {
                // Validity: 0 <= v < n (logical bounds, before mapping).
                let ok = self.in_range(id, n)?;
                valid = Some(match valid {
                    None => ok,
                    Some(va) => {
                        self.machine.binop(BinOp::LogAnd, va, va, ok)?;
                        self.machine.free(ok)?;
                        va
                    }
                });
            }
            // Mapping transform.
            if permuted != 0 {
                // (v - off).rem_euclid(n)
                self.rewrite(&mut term, |m, t, v| {
                    m.binop_imm(BinOp::Sub, t, v, Scalar::Int(permuted))
                })?;
                let t = term.0;
                self.machine.binop_imm(BinOp::Mod, t, t, Scalar::Int(n))?;
                self.machine.binop_imm(BinOp::Add, t, t, Scalar::Int(n))?;
                self.machine.binop_imm(BinOp::Mod, t, t, Scalar::Int(n))?;
            }
            if folded {
                // v' = 2*min(v, n-1-v) + (v >= ceil(n/2))
                let v = term.0;
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
                self.rewrite(&mut term, |m, t, _| m.binop(BinOp::Add, t, low, hii))?;
                for f in [mirror, low, hi, hii] {
                    self.machine.free(f)?;
                }
            }
            if stride != 1 {
                let stride = Scalar::Int(stride as i64);
                self.rewrite(&mut term, |m, t, v| m.binop_imm(BinOp::Mul, t, v, stride))?;
            }
            sum = Some(match sum {
                None => term,
                Some(acc) => {
                    // Add into whichever of the two terms is owned.
                    let (mut acc, other) = if acc.1 || !term.1 { (acc, term) } else { (term, acc) };
                    self.rewrite(&mut acc, |m, t, v| m.binop(BinOp::Add, t, v, other.0))?;
                    if other.1 {
                        self.machine.free(other.0)?;
                    }
                    acc
                }
            });
        }
        let addr = match sum {
            None => {
                let addr = self.machine.alloc_result(vp, "~addr", ElemType::Int)?;
                self.machine.fill_unconditional(addr, Scalar::Int(base))?;
                (addr, true)
            }
            Some(mut acc) => {
                if base != 0 {
                    self.rewrite(&mut acc, |m, t, v| {
                        m.binop_imm(BinOp::Add, t, v, Scalar::Int(base))
                    })?;
                }
                acc
            }
        };
        Ok((addr, valid))
    }

    /// Apply `op(dst, src)` to an address term `(field, owned)`: in place
    /// when the term is an owned temporary, else into a fresh temporary
    /// that becomes the term, so a field the term only borrows is read
    /// and never written.
    fn rewrite(
        &mut self,
        term: &mut (FieldId, bool),
        op: impl FnOnce(&mut uc_cm::Machine, FieldId, FieldId) -> uc_cm::Result<()>,
    ) -> RResult<()> {
        let dst = match *term {
            (id, true) => id,
            _ => self.machine.alloc_result(self.cur_ctx().vp, "~addr", ElemType::Int)?,
        };
        op(self.machine, dst, term.0)?;
        *term = (dst, true);
        Ok(())
    }

    // ---- writes -------------------------------------------------------------

    /// Parallel store into a storage (an array or a solve's
    /// defined-bitmap); `name` is the array an error names. Where the
    /// level has a step, distinct values landing on one element trap
    /// (§3.4). Returns what it stored, which the caller owns: `value` as
    /// the storage's type.
    pub(crate) fn write_storage(
        &mut self,
        arr: Storage,
        access: ValueId,
        subs: &[Expr],
        value: PV,
        name: &str,
    ) -> RResult<PV> {
        let (value, src) = self.stored_as(value, self.storage(arr).ty)?;
        let PV::Field { id: vfield, .. } = src else { unreachable!() };
        let start = self.resolve_subs(access, subs);
        // Fast path: a local store, by the store rule.
        let (st, dims) = (self.storage(arr), &self.cur_ctx().dims);
        let field = st.field;
        if self.config.optimize_access
            && opt::store_path(&self.forms[start..], dims, &st.shape, &st.mapping) == Path::Local
        {
            self.machine.copy(field, vfield)?;
        } else {
            // General scatter.
            let (mut addr, valid) = self.storage_address(arr, subs, start)?;
            if let Some(valid) = valid {
                // An enabled element writing out of range is an error.
                let in_range = self.machine.reduce(valid, ReduceOp::And)?.as_bool();
                self.machine.free(valid)?;
                if !in_range {
                    return Err(RuntimeError::OutOfBounds { name: name.to_string() });
                }
            }
            let st = self.storage(arr);
            let (size, replicas) = (st.shape.iter().product::<usize>(), st.mapping.replicas());
            let mut conflict = false;
            for r in 0..replicas {
                if r > 0 {
                    let size = Scalar::Int(size as i64);
                    self.rewrite(&mut addr, |m, t, v| m.binop_imm(BinOp::Add, t, v, size))?;
                }
                conflict |= self.machine.send_detect(field, addr.0, vfield, Combine::Overwrite)?;
            }
            if addr.1 {
                self.machine.free(addr.0)?;
            }
            if let (true, Some(step)) = (conflict, self.cur_ctx().step) {
                return Err(RuntimeError::MultipleAssignment { step, name: name.to_string() });
            }
        }
        self.forms.truncate(start);
        self.release(src);
        Ok(value)
    }

    /// `value` as `ty`, the type of the storage it goes to — the value of
    /// the assignment — and a field holding it, which [`Run::release`]
    /// frees: a scalar's broadcast, or the value itself, borrowed.
    fn stored_as(&mut self, value: PV, ty: ElemType) -> RResult<(PV, PV)> {
        let value = match value {
            PV::Scalar(s) => PV::Scalar(coerce_scalar(s, ty)),
            v => self.coerce_field(v, ty)?,
        };
        let src = match value {
            PV::Scalar(_) => self.coerce_field(value, ty)?,
            PV::Field { id, .. } => PV::Field { id, owned: false },
        };
        Ok((value, src))
    }

    /// Evaluate an assignment expression (including compound ops),
    /// returning the stored value, as the target's type.
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
        self.store(target, combined)
    }

    /// Store a PV into an lvalue; returns what it stored (owned by the
    /// caller): `value` as the target's type.
    pub(crate) fn store(&mut self, target: &Expr, value: PV) -> RResult<PV> {
        match target {
            Expr::Ident(name, _) => self.store_ident(name, value),
            Expr::Index { base, subs, access, .. } => {
                let arr = Storage::Array(base.to);
                let stored = self.write_storage(arr, *access, subs, value, &base.text)?;
                // What the step keeps of `base` is stale from here on (the
                // value just stored may be one of them).
                self.cse_invalidate(Some(base.to));
                Ok(stored)
            }
            other => unreachable!("sema admits only lvalues as targets, not {other:?}"),
        }
    }

    /// Store to a scalar: a register local or global (sema admits only
    /// those and per-VP locals as targets) takes a front-end value, a
    /// per-VP local a field on its own space. Returns what it stored.
    fn store_ident(&mut self, name: &Name, value: PV) -> RResult<PV> {
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
                let (value, src) = self.stored_as(value, self.machine.elem_type(field)?)?;
                let PV::Field { id, .. } = src else { unreachable!() };
                self.machine.copy(field, id)?;
                self.release(src);
                return Ok(value);
            }
        }
        let PV::Scalar(s) = value else {
            unreachable!("sema admits only a front-end value as a store to scalar `{name}`")
        };
        let place = match name.to {
            Ref::Global(g) => &mut self.globals[g as usize],
            Ref::Local(id) => match self.local(id).kind {
                LocalKind::Reg(r) => self.reg(r),
                _ => unreachable!("sema admits `{name}` only as a live scalar"),
            },
            to => unreachable!("sema admits only scalar variables as targets; `{name}` is {to:?}"),
        };
        *place = coerce_scalar(s, place.elem_type());
        Ok(PV::Scalar(*place))
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
