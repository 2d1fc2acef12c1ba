//! Iteration spaces and value lifting.
//!
//! A parallel construct over sets `I, J` materialises a VP set shaped
//! `[|I|, |J|]`. When constructs nest, the inner space's geometry is the
//! outer geometry *extended* with the new sets' extents — so outer axes
//! are a prefix of inner axes, and the linear address of the enclosing
//! iteration point is simply `p / rest` (`rest` = product of the new
//! extents). Outer-space values reach the inner space in one of two ways:
//!
//! * an element of a contiguous set is an axis coordinate (plus its first
//!   value) on *every* space that extends the one binding it, so it is
//!   computed where it is read — ALU ops, no communication;
//! * an element of an arbitrary list, a per-VP local and the activity
//!   mask are *lifted*: one router gather through the `p / rest` address.
//!
//! The mask is lifted only when the program may have masked the enclosing
//! level. A level is *full* when no mask is open on any level around it —
//! no `st`/`others` arm, reduction arm or `solve` step — which is a fact
//! of the program's syntax, never of a mask's contents: a compiler could
//! decide it, while reading whether a mask happens to be all-active would
//! credit the model with a test no compiler gets for free.

use std::sync::Arc;

use uc_cm::{BinOp, ElemType, FieldId, Scalar, VpSetId};

use super::{RResult, Run, PV};
use crate::ast::{Opener, SetId, ValueId};

/// What a geometry-cache field ([`Run::geo_field`]) holds. None
/// depends on a mask, so each is valid on every VP.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) enum Geo {
    /// A contiguous set's element along an axis, by its first value.
    ElemFrom(usize, i64),
    /// A list's element along an axis, by the (shared) list.
    ElemList(usize, Arc<Vec<i64>>),
    /// "Coordinate along the axis + offset is inside the extent".
    Fixup(usize, i64),
    /// INF of an element type, broadcast.
    Inf(ElemType),
    /// Each VP's address `p / rest` in the space it extends by `rest`.
    Lift(usize),
}

/// One level of the parallel-context stack.
#[derive(Debug)]
pub struct ParCtx {
    pub(crate) vp: VpSetId,
    pub(crate) dims: Vec<usize>,
    /// Per axis this level adds, the set whose element it binds (what a
    /// `Ref::Elem` names) and the element's value field on this space.
    pub(crate) elems: Vec<(SetId, FieldId)>,
    /// The invariant values ([`crate::sema::ValueInfo::invariant`]) of a
    /// `*par`'s predicate, computed in its first sweep under this level's
    /// base context, which every later sweep's predicates run under too;
    /// freed when the level pops.
    pub(crate) kept: Vec<(ValueId, FieldId)>,
    /// Every VP of the space is active, statically: there is no enclosing
    /// level, or the enclosing level is full and had no mask of its own
    /// pushed. A full level pushed no context; any other pushed the
    /// enclosing mask, and pops it.
    pub(crate) full: bool,
    /// Each VP's address in the enclosing level's space (`p / rest`),
    /// valid on every VP and kept in the geometry cache; `None` at the
    /// outermost level.
    pub(crate) lift: Option<FieldId>,
    /// Axes sema counts that the open spaces lack: 1 inside a histogram,
    /// which runs on its own sets alone, else 0.
    pub(crate) rebase: usize,
    /// The step a store here traps in on distinct values, if any
    /// ([`crate::ast::step`]).
    pub(crate) step: Option<&'static str>,
}

/// A popped [`ParCtx`]'s buffers — `dims`, `elems` and `kept`, cleared —
/// so entering a construct allocates nothing.
pub(crate) type CtxBuffers = (Vec<usize>, Vec<(SetId, FieldId)>, Vec<(ValueId, FieldId)>);

impl Run<'_> {
    /// Push a new parallel-context level for the given index sets, which
    /// `opener` opens, transferring the enclosing enabled set onto the
    /// extended space unless the enclosing level is statically full.
    ///
    /// Returns the level index (for symmetric [`Run::pop_space`]).
    pub(crate) fn push_space(&mut self, sets: &[SetId], opener: Opener) -> RResult<usize> {
        let (mut dims, elems, kept) = self.ctx_spare.pop().unwrap_or_default();
        let outer_dims = self.ctx.last().map_or(&[][..], |c| &c.dims);
        let outer_rank = outer_dims.len();
        dims.extend_from_slice(outer_dims);
        dims.extend(sets.iter().map(|&s| self.checked.sets[s].elements.len()));
        let vp = super::space_vp(self.machine, self.spaces, &dims)?;
        // The depth counts the masks the program pushed on the enclosing
        // space — arms, reduction arms, `solve` steps — whatever they hold.
        let full = match self.ctx.last() {
            Some(outer) => outer.full && self.machine.context_depth(outer.vp)? == 1,
            None => true,
        };
        let rebase = self.ctx.last().map_or(0, |outer| outer.rebase);
        let step = crate::ast::step(opener, self.ctx.last().and_then(|outer| outer.step));

        let mut level = ParCtx { vp, dims, elems, kept, full, lift: None, rebase, step };
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
            let geo = match info.contiguous_lo() {
                Some(lo) => Geo::ElemFrom(axis, lo),
                None => Geo::ElemList(axis, info.elements.clone()),
            };
            let field = self.geo_field(vp, geo, |p| {
                let info = &p.checked.sets[set];
                let field = p.machine.alloc_int(vp, &info.elem)?;
                match info.contiguous_lo() {
                    Some(lo) => p.coordinate(field, axis, lo)?,
                    None => {
                        // Arbitrary list: front-end table write.
                        let size: usize = dims.iter().product();
                        let stride: usize = dims[axis + 1..].iter().product();
                        let extent = info.elements.len();
                        let values: Vec<i64> =
                            (0..size).map(|q| info.elements[(q / stride) % extent]).collect();
                        p.machine.write_all(field, uc_cm::FieldData::I64(values))?;
                    }
                }
                Ok(field)
            })?;
            // Cached fields are owned by the cache, not the level.
            level.elems.push((set, field));
        }

        // The address of the enclosing point, also cached and built on the
        // base context, so it is valid on every VP: a reduction's combining
        // send and each lift of a per-VP local use it under any mask.
        if let Some(outer) = self.ctx.last() {
            let outer_vp = outer.vp;
            let rest: usize = level.dims[outer_rank..].iter().product();
            let addr = self.geo_field(vp, Geo::Lift(rest), |p| p.level_addr(vp, rest))?;
            level.lift = Some(addr);
            // Transfer the enclosing activity mask onto this space.
            if !full {
                let outer_mask = self.machine.alloc_bool(outer_vp, "~outmask")?;
                self.machine.read_context(outer_mask)?;
                let lifted = self.machine.alloc_bool(vp, "~inmask")?;
                self.machine.get(lifted, addr, outer_mask)?;
                self.machine.push_context(lifted)?;
                self.machine.free(outer_mask)?;
                self.machine.free(lifted)?;
            }
        }

        self.ctx.push(level);
        Ok(self.ctx.len() - 1)
    }

    /// Pop a parallel-context level, undoing its context push and freeing
    /// its fields.
    pub(crate) fn pop_space(&mut self, level: usize) -> RResult<()> {
        debug_assert_eq!(level + 1, self.ctx.len(), "unbalanced space push/pop");
        let ParCtx { vp, mut dims, mut elems, mut kept, full, .. } =
            self.ctx.pop().expect("pop_space on empty stack");
        if !full {
            self.machine.pop_context(vp)?;
        }
        for (_, f) in kept.drain(..) {
            let _ = self.machine.free(f);
        }
        dims.clear();
        elems.clear();
        self.ctx_spare.push((dims, elems, kept));
        Ok(())
    }

    /// Run `f` with the open iteration spaces and their VP sets' masks
    /// detached (host-side, uncharged), so a construct it opens starts
    /// from the base context, whatever arm it was reached from.
    pub(crate) fn detached<T>(&mut self, f: impl FnOnce(&mut Self) -> RResult<T>) -> RResult<T> {
        let ctx = std::mem::take(&mut self.ctx);
        let masks = ctx.iter().map(|c| self.machine.hide_context(c.vp));
        let masks = masks.collect::<Result<Vec<_>, _>>()?;
        let v = f(self)?;
        for (c, m) in ctx.iter().zip(masks).rev() {
            self.machine.restore_context(c.vp, m)?;
        }
        self.ctx = ctx;
        Ok(v)
    }

    /// `field = coordinate along axis + lo` under the current mask: the
    /// value of a contiguous set's element.
    fn coordinate(&mut self, field: FieldId, axis: usize, lo: i64) -> RResult<()> {
        self.machine.axis_coord(field, axis)?;
        if lo != 0 {
            self.machine.binop_imm(BinOp::Add, field, field, Scalar::Int(lo))?;
        }
        Ok(())
    }

    /// The value of the element of `set` (a `Ref::Elem`) on the current
    /// space. An enclosing level's contiguous element is computed here,
    /// under the current mask, as an owned temporary: the enclosing axes
    /// are a prefix of this space's, so its coordinate is this space's
    /// coordinate along the same axis. A list element is lifted.
    pub(crate) fn elem_value(&mut self, set: u32) -> RResult<PV> {
        let (level, field, axis) = self.elem_binding(set);
        match self.checked.sets[set as usize].contiguous_lo() {
            Some(lo) if level + 1 < self.ctx.len() => {
                let vp = self.cur_ctx().vp;
                let dst = self.machine.alloc_result(vp, "~elem", ElemType::Int)?;
                self.coordinate(dst, axis, lo)?;
                Ok(PV::owned(dst))
            }
            _ => self.lift_to_current(field, level),
        }
    }

    /// The binding of the element of `set` (a `Ref::Elem`): the innermost
    /// open level that bound it — its level, value field and axis. Found
    /// by the set, not by a static level index: a histogram evaluates
    /// under a context stack other than the lexical one.
    fn elem_binding(&self, set: u32) -> (usize, FieldId, usize) {
        let bound = self.ctx.iter().enumerate().rev().find_map(|(level, ctx)| {
            let k = ctx.elems.iter().position(|&(s, _)| s == set as usize)?;
            Some((level, ctx.elems[k].1, ctx.dims.len() - ctx.elems.len() + k))
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
        let cur = &self.ctx[cur_level];
        let vp = cur.vp;
        // The enclosing level's address is the cached one. One to an
        // ancestor further out is built under the current mask, so it
        // holds only on this mask's lanes: it serves this get and goes.
        let kept = cur.lift.filter(|_| from_level + 1 == cur_level);
        let addr = match kept {
            Some(addr) => addr,
            None => {
                let rest = cur.dims[self.ctx[from_level].dims.len()..].iter().product();
                self.level_addr(vp, rest)?
            }
        };
        let ty = self.machine.elem_type(field)?;
        let dst = self.machine.alloc_result(vp, "~lift", ty)?;
        self.machine.get(dst, addr, field)?;
        if kept.is_none() {
            self.machine.free(addr)?;
        }
        Ok(PV::owned(dst))
    }

    /// `p / rest` on `vp` under its current mask: each VP's address in the
    /// space that `vp`'s extends by `rest` points.
    fn level_addr(&mut self, vp: VpSetId, rest: usize) -> RResult<FieldId> {
        let addr = self.machine.alloc_result(vp, "~liftaddr", ElemType::Int)?;
        self.machine.iota(addr)?;
        self.machine.binop_imm(BinOp::Div, addr, addr, Scalar::Int(rest as i64))?;
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
