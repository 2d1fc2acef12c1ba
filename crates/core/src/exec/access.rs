//! Array access in an iteration space: the three communication classes.
//! (A front-end element is a VM instruction; see `vm`.)
//!
//! Every subscript is first classified *symbolically* by
//! [`opt::classify_index`] — the same function `uc check`'s UC110/UC111
//! lints call, here fed the open constructs' element bindings and
//! [`Run::try_pure_scalar`] ([`opt::eval_pure`] over the `#define`s,
//! the live globals and the activation's registers) — once per access,
//! onto `Run::forms`. If each dimension
//! is `axis-coordinate + constant` and the array conforms to the
//! iteration space, the access is **local**
//! (offset 0 after the mapping transform) or a **NEWS** shift (constant
//! offset). Anything else goes through the general **router**, whose
//! address is built axis by axis with the ops Figure 10's C\* uses —
//! `i*N + k` is a multiply by an immediate and an add — plus, where a
//! subscript is not statically in range, the bounds check PARIS issues:
//! one unsigned compare per axis ([`Run::in_range`]). The map
//! section changes the transform, which is how
//! `permute (I) b[i+1] :- a[i]` turns a router/NEWS access into a local
//! one (§4 of the paper).
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
//! itself (`Expr::Index`'s `borrow`): where its consumer is an operator,
//! a builtin, a `?:` condition or a read's subscript, and no operand of
//! that consumer assigns, swaps or calls a user function, nothing writes
//! the array while the value is live. A store's source, a `swap`
//! operand, a declaration's initialiser and a reduction's operand get a
//! copy. A borrowed field is never kept for the step: only an owned value
//! enters the cache below, whose end frees it.
//!
//! A step computes each value once (§4's common sub-expression
//! detection). Sema gives a value id to every access, and to an operator
//! or builtin call only where it is worth keeping; [`Run::eval_kept`]
//! serves both kinds alike:
//!
//! * a value a step's predicates compute — a gather, or an expression the
//!   arm bodies or `others` compute again, like the grid's
//!   `min(...) + 1` — is cached for the bodies, keyed by the space and
//!   the id. Two accesses share an id iff their resolved bases and
//!   subscripts are structurally equal, so `a[j]` under two reductions
//!   whose `j` are different elements are two entries. The cache is a
//!   short list per step, scanned rather than hashed. Sema's `ValueInfo`
//!   lists every array a value reads, so a write to `a` makes `b[a[i]]`
//!   stale as well as `a[i]`; a stale entry's field lives until the step
//!   ends, so the value an arm is storing stays readable while it stores;
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
use super::{ArrayStorage, LocalVar, RResult, Run, RuntimeError, Storage, PV};
use crate::ast::{BinaryOp, Expr, Name, Ref, ValueId};
use crate::mapping::ArrayMapping;
use crate::opt::{self, IdxForm};
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

    /// Classify an access's subscripts onto `forms`; returns where they
    /// start. The caller truncates back to it when the access is done.
    fn classify_subs(&mut self, subs: &[Expr]) -> usize {
        let start = self.forms.len();
        for sub in subs {
            let form = self.symbolic_index(sub);
            self.forms.push(form);
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
        subs: &[Expr],
        borrow: bool,
    ) -> RResult<PV> {
        let start = self.classify_subs(subs);
        let read = match self.try_fast_read(arr, start, borrow)? {
            Some(pv) => pv,
            None => self.router_read(arr, subs, start)?,
        };
        self.forms.truncate(start);
        Ok(read)
    }

    /// Local/NEWS read when the array conforms to the iteration space:
    /// the array's field itself where sema lent it (`borrow`), a copy, a
    /// NEWS shift with an INF border, or for a `permute`d array a
    /// toroidal shift (or none) and INF selected at the logical edges.
    /// `None` without `optimize_access`.
    fn try_fast_read(&mut self, arr: Storage, start: usize, borrow: bool) -> RResult<Option<PV>> {
        if !self.config.optimize_access {
            return Ok(None);
        }
        let (st, ctx, forms) = (self.storage(arr), self.cur_ctx(), &self.forms[start..]);
        let (field, ty, vp, rank) = (st.field, st.ty, ctx.vp, forms.len());
        let stored_at = match &st.mapping {
            ArrayMapping::Default => None,
            ArrayMapping::Permute { offsets } => Some(offsets),
            ArrayMapping::Copy { replicas } => {
                // §4's broadcast elimination: when the iteration space is
                // [replicas, ...shape] and the logical subscripts are the
                // trailing axis identities, every iteration point reads
                // its own replica locally instead of broadcasting from a
                // single copy through the router.
                let identity = ctx.dims.split_first() == Some((replicas, &st.shape[..]))
                    && forms.iter().enumerate().all(|(d, &form)| {
                        matches!(form, IdxForm::AxisPlus { axis, offset: 0 } if axis == d + 1)
                    });
                if !identity {
                    return Ok(None);
                }
                return self.local_read(field, ty, borrow).map(Some);
            }
            ArrayMapping::Fold { .. } => return Ok(None),
        };
        if st.shape != ctx.dims {
            return Ok(None);
        }
        // At most one displaced axis: a NEWS shift writes only *active*
        // positions, so chaining shifts would read garbage at inactive
        // intermediate positions. Multi-axis displacement (`a[i-1][j-1]`)
        // takes the router.
        let (mut shift, mut displaced, mut edges) = (None, 0, false);
        for (d, &form) in forms.iter().enumerate() {
            match form {
                IdxForm::AxisPlus { axis, offset } if axis == d => {
                    let s = offset - stored_at.map_or(0, |o| o[d]);
                    if s != 0 {
                        displaced += 1;
                        shift = shift.or(Some((d, s)));
                    }
                    edges |= offset != 0;
                }
                _ => return Ok(None),
            }
        }
        if displaced > 1 {
            return Ok(None);
        }
        // `edges`: some lane's logical index may leave the array.
        match shift {
            None if !edges => return self.local_read(field, ty, borrow).map(Some),
            // Unmapped, the off-grid lanes are the ones that left it.
            Some((d, s)) if stored_at.is_none() => {
                let dst = self.machine.alloc_result(vp, "~rd", ty)?;
                let border = uc_cm::news::Border::Fill(inf_of(ty));
                self.machine.news_shift(dst, field, d, s, border)?;
                return Ok(Some(PV::owned(dst)));
            }
            _ => {}
        }
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
                    let coord = ((q / stride) % extent) as i64 + c;
                    coord >= 0 && coord < n
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
    /// defined-bitmap); `name` is the array an error names.
    /// `check_conflicts` enforces the `par` rule that distinct values may
    /// not land on one element (relaxed inside `*solve`).
    pub(crate) fn write_storage(
        &mut self,
        arr: Storage,
        subs: &[Expr],
        value: PV,
        check_conflicts: bool,
        name: &str,
    ) -> RResult<()> {
        let ty = self.storage(arr).ty;
        let value = self.coerce_field(value, ty)?;
        let PV::Field { id: vfield, .. } = value else { unreachable!() };
        let start = self.classify_subs(subs);
        // Fast path: identity store onto a conforming default-mapped array.
        let (st, dims) = (self.storage(arr), &self.cur_ctx().dims);
        let field = st.field;
        if self.config.optimize_access
            && st.mapping == ArrayMapping::Default
            && st.shape == *dims
            && self.forms[start..].iter().enumerate().all(|(d, &form)| {
                matches!(form, IdxForm::AxisPlus { axis, offset: 0 } if axis == d)
            })
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
            if conflict && check_conflicts {
                return Err(RuntimeError::MultipleAssignment { name: name.to_string() });
            }
        }
        self.forms.truncate(start);
        self.release(value);
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
                // write_storage consumes/releases a copy; keep the caller's
                // PV alive by duplicating the handle (fields are Copy ids).
                let dup = match value {
                    PV::Scalar(s) => PV::Scalar(s),
                    PV::Field { id, .. } => PV::Field { id, owned: false },
                };
                let arr = Storage::Array(base.to);
                self.write_storage(arr, subs, dup, check_conflicts, &base.text)?;
                // What the step keeps of `base` is stale from here on (the
                // value just stored may be one of them).
                self.cse_invalidate(Some(base.to));
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
            Ref::Local(id) => match self.local(id).kind {
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
