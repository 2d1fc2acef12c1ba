//! NEWS-grid communication.
//!
//! The CM-2 arranges processors in a grid; each can exchange data with its
//! North/East/West/South neighbours far more cheaply than through the
//! general router. The simulator generalises this to any axis of the VP-set
//! geometry and any constant offset (offset ±1 is one NEWS hop; larger
//! offsets model repeated hops but are charged once — the UC compiler emits
//! power-of-two shift chains itself where it matters).
//!
//! # A shift is a block rotation
//!
//! Along an axis of stride `s` and extent `e` the row-major address space
//! falls into blocks of `e·s` consecutive addresses, and every VP's
//! neighbour `offset` steps along the axis sits `offset·s` addresses away
//! *inside the same block*. So a toroidal shift rotates each block by
//! `offset·s`, which is two contiguous run copies per block; a bounded
//! shift is one run copy plus a border run that is filled
//! ([`Border::Fill`]) or skipped ([`Border::Keep`]). [`Machine::news_shift`]
//! works the two runs out once and then makes one pass over the
//! destination with [`par::for_each_part_mut`], clipping the runs to each
//! part: `memcpy`/`fill` where the part's lanes are all active, branch-free
//! masked stores otherwise. No address is computed per element;
//! [`crate::Geometry::neighbor`] and [`crate::Geometry::neighbor_wrap`]
//! remain the per-element definition the tests compare against.

use std::ops::Range;

use crate::cost::OpClass;
use crate::field::{Elem, ElemType, FieldData, FieldId};
use crate::machine::{Machine, Write};
use crate::par;
use crate::{CmError, Result, Scalar};

/// What an off-grid fetch produces for non-toroidal shifts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Border {
    /// Coordinates wrap around (toroidal grid).
    Wrap,
    /// Off-grid fetches yield this value.
    Fill(Scalar),
    /// Off-grid positions keep their previous destination value.
    Keep,
}

/// One of the two runs every block of a shift is assembled from:
/// destination positions `dst` (relative to the block's first address)
/// read the source run that starts at block position `from`, or lie off
/// the grid when `from` is `None`.
struct Run {
    dst: Range<usize>,
    from: Option<usize>,
}

/// The runs of one `blk = extent·stride` block for a shift by `offset`.
fn block_runs(stride: usize, extent: usize, offset: i64, border: Border) -> [Run; 2] {
    let blk = extent * stride;
    if border == Border::Wrap {
        let rot = offset.rem_euclid(extent as i64) as usize * stride;
        return [
            Run { dst: 0..blk - rot, from: Some(rot) },
            Run { dst: blk - rot..blk, from: Some(0) },
        ];
    }
    // `|offset| >= extent` pushes the whole block off the grid.
    let rot = offset.unsigned_abs().min(extent as u64) as usize * stride;
    if offset >= 0 {
        [Run { dst: 0..blk - rot, from: Some(rot) }, Run { dst: blk - rot..blk, from: None }]
    } else {
        [Run { dst: 0..rot, from: None }, Run { dst: rot..blk, from: Some(0) }]
    }
}

/// `d[i] = s[i]` wherever `mask[i]`; no mask means every lane is active.
fn copy_run<T: Copy>(d: &mut [T], s: &[T], mask: Option<&[bool]>) {
    match mask {
        None => d.copy_from_slice(s),
        Some(mask) => {
            for ((d, &s), &m) in d.iter_mut().zip(s).zip(mask) {
                *d = if m { s } else { *d };
            }
        }
    }
}

/// `d[i] = value` wherever `mask[i]`; no mask means every lane is active.
fn fill_run<T: Copy>(d: &mut [T], value: T, mask: Option<&[bool]>) {
    match mask {
        None => d.fill(value),
        Some(mask) => {
            for (d, &m) in d.iter_mut().zip(mask) {
                *d = if m { value } else { *d };
            }
        }
    }
}

/// One pass over `dst`: every block of `blk` addresses is written from
/// its `runs`, each clipped to the part at hand. `fill` is the
/// [`Border::Fill`] value; without one, off-grid positions are skipped.
fn shift_blocks<T: Elem>(
    dst: &mut FieldData,
    src: &FieldData,
    mask: &[bool],
    blk: usize,
    runs: &[Run; 2],
    fill: Option<T>,
) {
    let src = T::slice(src);
    par::for_each_part_mut(T::slice_mut(dst), |part, d| {
        let mask = Some(&mask[part.clone()]).filter(|m| !par::all_active(m));
        for base in (part.start / blk * blk..part.end).step_by(blk) {
            for run in runs {
                let lo = (base + run.dst.start).max(part.start);
                let hi = (base + run.dst.end).min(part.end);
                if lo >= hi {
                    continue;
                }
                let local = lo - part.start..hi - part.start;
                let mask = mask.map(|m| &m[local.clone()]);
                let d = &mut d[local];
                match (run.from, fill) {
                    (Some(from), _) => {
                        let at = lo - run.dst.start + from;
                        copy_run(d, &src[at..at + d.len()], mask)
                    }
                    (None, Some(value)) => fill_run(d, value, mask),
                    (None, None) => {} // Border::Keep
                }
            }
        }
    });
}

impl Machine {
    /// NEWS fetch: for every active VP `p`, `dst[p] = src[q]` where `q` is
    /// the VP `offset` steps along `axis` from `p` (so `offset = +1` makes
    /// `dst[i] = src[i+1]` along that axis).
    ///
    /// `dst` and `src` must live on the same VP set and share a type.
    pub fn news_shift(
        &mut self,
        dst: FieldId,
        src: FieldId,
        axis: usize,
        offset: i64,
        border: Border,
    ) -> Result<()> {
        let write = match border {
            Border::Keep => Write::Partial,
            Border::Wrap | Border::Fill(_) => Write::active_unless(src == dst),
        };
        self.write_with(dst, write, |m| m.shift_lanes(dst, src, axis, offset, border))
    }

    fn shift_lanes(
        &mut self,
        dst: FieldId,
        src: FieldId,
        axis: usize,
        offset: i64,
        border: Border,
    ) -> Result<()> {
        if dst.vp != src.vp {
            return Err(CmError::VpSetMismatch);
        }
        let geom = &self.vp(dst.vp)?.geom;
        let (stride, extent) = (geom.stride(axis)?, geom.extent(axis)?);
        let size = geom.size();

        let dst_ty = self.field(dst)?.elem_type();
        let src_ty = self.field(src)?.elem_type();
        if dst_ty != src_ty {
            return Err(CmError::TypeMismatch { expected: dst_ty, found: src_ty });
        }
        let fill = match border {
            Border::Fill(s) if s.elem_type() != dst_ty => {
                return Err(CmError::TypeMismatch { expected: dst_ty, found: s.elem_type() });
            }
            Border::Fill(s) => Some(s),
            Border::Wrap | Border::Keep => None,
        };
        let runs = block_runs(stride, extent, offset, border);

        // A shift reads other lanes, so an in-place one reads a scratch
        // copy of the pre-shift values.
        let tmp = if src == dst { Some(self.scratch_copy(dst)?) } else { None };
        let res: Result<()> = (|| {
            let (d, peers) = self.split_dst(dst)?;
            let mask = peers.mask(dst.vp)?;
            let s = match &tmp {
                Some(copy) => copy,
                None => peers.src(src)?,
            };
            let blk = extent * stride;
            match dst_ty {
                ElemType::Int => shift_blocks(d, s, mask, blk, &runs, fill.map(i64::from_scalar)),
                ElemType::Float => shift_blocks(d, s, mask, blk, &runs, fill.map(f64::from_scalar)),
                ElemType::Bool => shift_blocks(d, s, mask, blk, &runs, fill.map(bool::from_scalar)),
            }
            Ok(())
        })();
        if let Some(t) = tmp {
            self.scratch.put_data(t);
        }
        res?;

        self.tick(OpClass::News, size)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn line(n: usize) -> (Machine, FieldId, FieldId) {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        m.iota(a).unwrap();
        (m, a, b)
    }

    #[test]
    fn shift_right_fetches_left_neighbor() {
        let (mut m, a, b) = line(4);
        // b[i] = a[i-1], border filled with -1
        m.news_shift(b, a, 0, -1, Border::Fill(Scalar::Int(-1))).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[-1, 0, 1, 2]);
    }

    #[test]
    fn shift_left_fetches_right_neighbor() {
        let (mut m, a, b) = line(4);
        m.news_shift(b, a, 0, 1, Border::Fill(Scalar::Int(99))).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[1, 2, 3, 99]);
    }

    #[test]
    fn wrap_is_toroidal() {
        let (mut m, a, b) = line(4);
        m.news_shift(b, a, 0, 1, Border::Wrap).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[1, 2, 3, 0]);
        m.news_shift(b, a, 0, -1, Border::Wrap).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[3, 0, 1, 2]);
    }

    #[test]
    fn keep_leaves_border_untouched() {
        let (mut m, a, b) = line(3);
        m.set_imm(b, Scalar::Int(7)).unwrap();
        m.news_shift(b, a, 0, 1, Border::Keep).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[1, 2, 7]);
    }

    #[test]
    fn two_dimensional_axes() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("g", &[2, 3]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        m.iota(a).unwrap(); // [0 1 2; 3 4 5]
        m.news_shift(b, a, 0, 1, Border::Fill(Scalar::Int(0))).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[3, 4, 5, 0, 0, 0]);
        m.news_shift(b, a, 1, -1, Border::Fill(Scalar::Int(0))).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[0, 0, 1, 0, 3, 4]);
    }

    #[test]
    fn context_masks_news_writes() {
        let (mut m, a, b) = line(4);
        let vp = a.vp_set();
        let mask = m.alloc_bool(vp, "m").unwrap();
        m.write_all(mask, FieldData::Bool(vec![true, false, true, false])).unwrap();
        m.set_imm(b, Scalar::Int(-7)).unwrap();
        m.push_context(mask).unwrap();
        m.news_shift(b, a, 0, 1, Border::Wrap).unwrap();
        m.pop_context(vp).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[1, -7, 3, -7]);
    }

    #[test]
    fn errors() {
        let (mut m, a, b) = line(4);
        assert!(m.news_shift(b, a, 1, 1, Border::Wrap).is_err(), "bad axis");
        let f = m.alloc_float(a.vp_set(), "f").unwrap();
        assert!(m.news_shift(f, a, 0, 1, Border::Wrap).is_err(), "type mismatch");
        assert!(
            m.news_shift(f, a, 0, 1, Border::Fill(Scalar::Int(0))).is_err(),
            "fill type mismatch"
        );
    }

    #[test]
    fn news_charges_news_class() {
        let (mut m, a, b) = line(4);
        let before = m.counters().news;
        m.news_shift(b, a, 0, 1, Border::Wrap).unwrap();
        assert_eq!(m.counters().news, before + 1);
    }
}
