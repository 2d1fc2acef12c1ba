//! Iteration spaces and value lifting.
//!
//! A parallel construct over sets `I, J` materialises a VP set shaped
//! `[|I|, |J|]`. When constructs nest, the inner space's geometry is the
//! outer geometry *extended* with the new sets' extents — so outer axes
//! are a prefix of inner axes, and the linear address of the enclosing
//! iteration point is simply `p / rest` (`rest` = product of the new
//! extents). That quotient is how outer-space values (index elements,
//! par-local variables, activity masks) are *lifted* onto the inner space
//! with one router gather.

use std::sync::Arc;

use uc_cm::{BinOp, ElemType, FieldId, Scalar, VpSetId};

use super::{Program, RResult, PV};
use crate::ast::SetId;
use crate::opt::ElemForm;

/// The values an index element takes along its axis, as far as they
/// identify its cached value field: the extent is in the space's dims, so
/// a contiguous set is its first element, and only an arbitrary list is
/// its (shared, never copied) contents.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) enum ElemValues {
    From(i64),
    List(Arc<Vec<i64>>),
}

/// One level of the parallel-context stack.
#[derive(Debug)]
pub struct ParCtx {
    pub(crate) vp: VpSetId,
    pub(crate) dims: Vec<usize>,
    /// Element bindings this level introduced — the set whose element it
    /// is (what a `Ref::Elem` names), its value field on this space, and
    /// the symbolic form for the optimizer.
    pub(crate) elems: Vec<(SetId, FieldId, ElemForm)>,
    /// Fields to free when the level pops.
    pub(crate) owned: Vec<FieldId>,
    /// Number of context pushes to undo when the level pops.
    pub(crate) pushes: usize,
    /// Lift-address fields by ancestor level index.
    pub(crate) lift_cache: Vec<(usize, FieldId)>,
}

/// A popped [`ParCtx`]'s buffers — `dims`, `elems`, `owned` and
/// `lift_cache`, cleared — so entering a construct allocates nothing.
pub(crate) type CtxBuffers =
    (Vec<usize>, Vec<(SetId, FieldId, ElemForm)>, Vec<FieldId>, Vec<(usize, FieldId)>);

impl Program {
    /// Push a new parallel-context level for the given index sets,
    /// transferring the enclosing enabled set onto the extended space.
    ///
    /// Returns the level index (for symmetric [`Program::pop_space`]).
    pub(crate) fn push_space(&mut self, sets: &[SetId]) -> RResult<usize> {
        let (mut dims, elems, owned, lift_cache) = self.ctx_spare.pop().unwrap_or_default();
        let outer_dims = self.ctx.last().map_or(&[][..], |c| &c.dims);
        let outer_rank = outer_dims.len();
        dims.extend_from_slice(outer_dims);
        dims.extend(sets.iter().map(|&s| self.checked.sets[s].elements.len()));
        let vp = self.space_vp(&dims)?;

        let mut level = ParCtx { vp, dims, elems, owned, pushes: 0, lift_cache };
        let dims = &level.dims;

        // Bind each set's element as a field on the new space. Done
        // *before* the mask transfer so the value fields are valid on
        // every VP (the base context is all-active here) — which lets
        // them be cached and reused across re-entries of the construct.
        debug_assert_eq!(
            self.machine.context_depth(vp)?,
            1,
            "iteration space acquired with a non-base context"
        );
        for (axis_off, &set) in sets.iter().enumerate() {
            let info = &self.checked.sets[set];
            let axis = outer_rank + axis_off;
            let (form, values) = match info.contiguous_lo() {
                Some(lo) => (ElemForm::AxisPlus { axis, lo }, ElemValues::From(lo)),
                None => (ElemForm::Opaque, ElemValues::List(info.elements.clone())),
            };
            let key = (vp, axis, values);
            let field = match self.elem_cache.get(&key) {
                Some(&f) => f,
                None => {
                    let field = self.machine.alloc_int(vp, &info.elem)?;
                    match form {
                        ElemForm::AxisPlus { lo, .. } => {
                            self.machine.axis_coord(field, axis)?;
                            if lo != 0 {
                                self.machine.binop_imm(
                                    BinOp::Add,
                                    field,
                                    field,
                                    Scalar::Int(lo),
                                )?;
                            }
                        }
                        ElemForm::Opaque => {
                            // Arbitrary list: front-end table write.
                            let size: usize = dims.iter().product();
                            let stride: usize = dims[axis + 1..].iter().product();
                            let extent = info.elements.len();
                            let values: Vec<i64> = (0..size)
                                .map(|p| info.elements[(p / stride) % extent])
                                .collect();
                            self.machine.write_all(field, uc_cm::FieldData::I64(values))?;
                        }
                    }
                    self.elem_cache.insert(key, field);
                    field
                }
            };
            // Cached fields are owned by the cache, not the level.
            level.elems.push((set, field, form));
        }

        // Transfer the outer activity mask, if any, onto this space.
        if let Some(outer) = self.ctx.last() {
            let outer_vp = outer.vp;
            let rest: usize = level.dims[outer_rank..].iter().product();
            let outer_mask = self.machine.alloc_bool(outer_vp, "~outmask")?;
            self.machine.read_context(outer_mask)?;
            let addr = self.machine.alloc_int(vp, "~liftaddr")?;
            self.machine.iota(addr)?;
            self.machine.binop_imm(BinOp::Div, addr, addr, Scalar::Int(rest as i64))?;
            let lifted = self.machine.alloc_bool(vp, "~inmask")?;
            self.machine.get(lifted, addr, outer_mask)?;
            self.machine.push_context(lifted)?;
            level.pushes += 1;
            self.machine.free(outer_mask)?;
            self.machine.free(lifted)?;
            level.owned.push(addr); // keep: doubles as lift cache below
            level.lift_cache.push((self.ctx.len() - 1, addr));
        }

        self.ctx.push(level);
        Ok(self.ctx.len() - 1)
    }

    /// Pop a parallel-context level, undoing its context pushes and
    /// freeing its fields.
    pub(crate) fn pop_space(&mut self, level: usize) -> RResult<()> {
        debug_assert_eq!(level + 1, self.ctx.len(), "unbalanced space push/pop");
        let ParCtx { vp, mut dims, mut elems, mut owned, pushes, mut lift_cache } =
            self.ctx.pop().expect("pop_space on empty stack");
        for _ in 0..pushes {
            self.machine.pop_context(vp)?;
        }
        for f in owned.drain(..) {
            let _ = self.machine.free(f);
        }
        dims.clear();
        elems.clear();
        lift_cache.clear();
        self.ctx_spare.push((dims, elems, owned, lift_cache));
        Ok(())
    }

    /// The binding of the element of `set` (a `Ref::Elem`): the innermost
    /// open level that bound it — its level, value field and symbolic
    /// form. Found by the set, not by a static level index: `try_procopt`
    /// evaluates under a context stack other than the lexical one.
    pub(crate) fn elem_binding(&self, set: u32) -> (usize, FieldId, ElemForm) {
        let bound = self.ctx.iter().enumerate().rev().find_map(|(level, ctx)| {
            let elem = ctx.elems.iter().find(|(s, ..)| *s == set as usize)?;
            Some((level, elem.1, elem.2))
        });
        bound.expect("sema resolves an element only under a construct over its set")
    }

    /// Lift a field living on ctx level `from_level` onto the current
    /// (innermost) space. Returns an owned temporary (or the field itself,
    /// un-owned, when already on the current space).
    pub(crate) fn lift_to_current(&mut self, field: FieldId, from_level: usize) -> RResult<PV> {
        let cur_level = self.ctx.len() - 1;
        if from_level == cur_level {
            return Ok(PV::Field { id: field, owned: false });
        }
        debug_assert!(from_level < cur_level);
        let addr = self.lift_addr(from_level)?;
        let cur_vp = self.ctx[cur_level].vp;
        let ty = self.machine.elem_type(field)?;
        let dst = self.machine.alloc_result(cur_vp, "~lift", ty)?;
        self.machine.get(dst, addr, field)?;
        Ok(PV::owned(dst))
    }

    /// The (cached) lift-address field on the current space addressing
    /// ancestor level `from_level`.
    pub(crate) fn lift_addr(&mut self, from_level: usize) -> RResult<FieldId> {
        let cur_level = self.ctx.len() - 1;
        let cached = self.ctx[cur_level].lift_cache.iter().find(|&&(l, _)| l == from_level);
        if let Some(&(_, f)) = cached {
            return Ok(f);
        }
        let cur = &self.ctx[cur_level];
        let anc = &self.ctx[from_level];
        let rest: usize = cur.dims[anc.dims.len()..].iter().product();
        let vp = cur.vp;
        let addr = self.machine.alloc_int(vp, "~liftaddr")?;
        self.machine.iota(addr)?;
        self.machine.binop_imm(BinOp::Div, addr, addr, Scalar::Int(rest as i64))?;
        let cur = &mut self.ctx[cur_level];
        cur.owned.push(addr);
        cur.lift_cache.push((from_level, addr));
        Ok(addr)
    }

    /// Materialise a PV as a field of the requested type on the current
    /// space (broadcasting scalars, converting when needed). Returns an
    /// owned field unless the PV already is a field of the right type.
    pub(crate) fn coerce_field(&mut self, pv: PV, ty: ElemType) -> RResult<PV> {
        let cur_vp = self.cur_ctx().vp;
        match pv {
            PV::Scalar(s) => {
                let dst = self.machine.alloc_result(cur_vp, "~bcast", ty)?;
                let coerced = coerce_scalar(s, ty);
                self.machine.fill_unconditional(dst, coerced)?;
                Ok(PV::owned(dst))
            }
            PV::Field { id, owned } => {
                let actual = self.machine.elem_type(id)?;
                if actual == ty {
                    Ok(PV::Field { id, owned })
                } else {
                    let dst = self.machine.alloc_result(cur_vp, "~conv", ty)?;
                    self.machine.convert(dst, id)?;
                    if owned {
                        self.machine.free(id)?;
                    }
                    Ok(PV::owned(dst))
                }
            }
        }
    }
}

/// Coerce a front-end scalar to an element type (C-style).
pub(crate) fn coerce_scalar(s: Scalar, ty: ElemType) -> Scalar {
    match ty {
        ElemType::Int => Scalar::Int(s.as_int()),
        ElemType::Float => Scalar::Float(s.as_float()),
        ElemType::Bool => Scalar::Bool(s.as_bool()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_detection() {
        let lo = crate::sema::scan_contiguous_lo;
        assert_eq!(lo(&[0, 1, 2, 3]), Some(0));
        assert_eq!(lo(&[5, 6, 7]), Some(5));
        assert_eq!(lo(&[-2, -1, 0]), Some(-2));
        assert_eq!(lo(&[0]), Some(0));
        assert_eq!(lo(&[4, 2, 9]), None);
        assert_eq!(lo(&[]), None);
        // `INF + 1` does not exist: not contiguous, and not an overflow.
        assert_eq!(lo(&[i64::MAX, 0]), None);
    }

    #[test]
    fn scalar_coercion() {
        assert_eq!(coerce_scalar(Scalar::Float(2.9), ElemType::Int), Scalar::Int(2));
        assert_eq!(coerce_scalar(Scalar::Int(1), ElemType::Bool), Scalar::Bool(true));
        assert_eq!(coerce_scalar(Scalar::Bool(true), ElemType::Float), Scalar::Float(1.0));
    }
}
