//! Global reductions and parallel-prefix scans.
//!
//! The CM-2 had hardware support for reductions ("global" operations) and
//! scans along the NEWS ordering. UC's reduction operator `$op(...)`
//! bottoms out here. Reductions are computed over the *active* VPs only,
//! and return the operator's identity when no VP is active — exactly the
//! paper's rule ("the identity value is returned when the reduction
//! operator is applied to an empty set of operands").
//!
//! Above `par::PAR_THRESHOLD` both primitives run on the host thread
//! pool: reductions fold [`par::chunk_at`] chunks in parallel and
//! combine the per-chunk results in chunk order, and unsegmented scans use
//! the classic two-pass blocked algorithm (parallel per-chunk folds, a
//! sequential exclusive scan of the chunk sums, then a parallel per-chunk
//! prefix pass seeded with each chunk's carry). The chunk layout is a pure
//! function of the VP-set size, so results — including float scans, which
//! are sensitive to association order — are bit-identical for any
//! `UC_THREADS` setting. Segmented scans stay sequential (segment
//! restarts make the carry non-uniform and they are rare in practice).

use crate::cost::OpClass;
use crate::field::{ElemType, FieldData, FieldId};
use crate::machine::{Machine, Write};
use crate::par;
use crate::{CmError, Result, Scalar};

/// The UC reduction operators of §3.2 of the paper.
///
/// `And`/`Or`/`Xor` are *logical* (the paper's `&&`, `||`, `^` reductions):
/// on integer fields they treat operands as C truth values and yield 0/1.
/// `Arb` is the paper's `$,` — "value of an arbitrary operand"; this
/// simulator deterministically picks the lowest-addressed active operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    Add,
    Mul,
    Min,
    Max,
    And,
    Or,
    Xor,
    Arb,
}

/// The paper's predefined `INF` constant for integer reductions.
pub const INT_INF: i64 = i64::MAX;
/// Negative infinity for integer max-reductions.
pub const INT_NEG_INF: i64 = i64::MIN;

impl ReduceOp {
    /// Identity value of the operator for a given element type
    /// (the paper's table in §3.2).
    pub fn identity(self, ty: ElemType) -> Scalar {
        match (self, ty) {
            (ReduceOp::Add, ElemType::Int) => Scalar::Int(0),
            (ReduceOp::Add, ElemType::Float) => Scalar::Float(0.0),
            (ReduceOp::Mul, ElemType::Int) => Scalar::Int(1),
            (ReduceOp::Mul, ElemType::Float) => Scalar::Float(1.0),
            (ReduceOp::Min, ElemType::Int) => Scalar::Int(INT_INF),
            (ReduceOp::Min, ElemType::Float) => Scalar::Float(f64::INFINITY),
            (ReduceOp::Max, ElemType::Int) => Scalar::Int(INT_NEG_INF),
            (ReduceOp::Max, ElemType::Float) => Scalar::Float(f64::NEG_INFINITY),
            (ReduceOp::And, ElemType::Int) => Scalar::Int(1),
            (ReduceOp::Or, ElemType::Int) => Scalar::Int(0),
            (ReduceOp::Xor, ElemType::Int) => Scalar::Int(0),
            (ReduceOp::And, _) => Scalar::Bool(true),
            (ReduceOp::Or, _) => Scalar::Bool(false),
            (ReduceOp::Xor, _) => Scalar::Bool(false),
            (ReduceOp::Arb, ElemType::Int) => Scalar::Int(INT_INF),
            (ReduceOp::Arb, ElemType::Float) => Scalar::Float(f64::INFINITY),
            (_, ElemType::Bool) => Scalar::Bool(false),
        }
    }
}

impl Machine {
    /// Reduce the active elements of `src` with `op`, returning a
    /// front-end scalar. Empty active set ⇒ the operator identity.
    pub fn reduce(&mut self, src: FieldId, op: ReduceOp) -> Result<Scalar> {
        let size = self.vp_size(src.vp)?;
        let result = {
            // Mask and data are two shared borrows; nothing is copied.
            let mask = self.vp(src.vp)?.context.current();
            match self.data(src)? {
                FieldData::I64(v) => reduce_int(v, mask, op),
                FieldData::F64(v) => reduce_float(v, mask, op)?,
                FieldData::Bool(v) => reduce_bool(v, mask, op)?,
            }
        };
        self.tick(OpClass::Scan, size)?;
        Ok(result)
    }

    /// Prefix scan in send-address order over the **active** elements of
    /// `src`: inactive positions neither contribute nor receive. With
    /// `inclusive = false` each active element receives the fold of the
    /// active elements strictly before it (identity for the first).
    ///
    /// `segments`, if given, is a bool field whose `true` bits restart the
    /// scan (segmented scan, a CM-2 hardware primitive).
    pub fn scan(
        &mut self,
        dst: FieldId,
        src: FieldId,
        op: ReduceOp,
        inclusive: bool,
        segments: Option<FieldId>,
    ) -> Result<()> {
        self.write_with(dst, Write::Partial, |m| m.scan_lanes(dst, src, op, inclusive, segments))
    }

    fn scan_lanes(
        &mut self,
        dst: FieldId,
        src: FieldId,
        op: ReduceOp,
        inclusive: bool,
        segments: Option<FieldId>,
    ) -> Result<()> {
        if dst.vp != src.vp {
            return Err(CmError::VpSetMismatch);
        }
        let size = self.vp_size(src.vp)?;
        let dst_ty = self.field(dst)?.elem_type();
        let src_ty = self.field(src)?.elem_type();
        if dst_ty != src_ty {
            return Err(CmError::TypeMismatch { expected: dst_ty, found: src_ty });
        }
        if let Some(s) = segments {
            if s.vp != src.vp {
                return Err(CmError::VpSetMismatch);
            }
            self.bool_data(s)?; // type check
        }
        let op_ok = match src_ty {
            ElemType::Int | ElemType::Float => {
                matches!(op, ReduceOp::Add | ReduceOp::Mul | ReduceOp::Min | ReduceOp::Max)
            }
            ElemType::Bool => matches!(op, ReduceOp::Or | ReduceOp::And | ReduceOp::Xor),
        };
        if !op_ok {
            return Err(CmError::Unsupported(match src_ty {
                ElemType::Int => "scan op on int field",
                ElemType::Float => "scan op on float field",
                ElemType::Bool => "scan op on bool field",
            }));
        }

        // Any aliased operand (source or segment field equal to dst) reads
        // a single scratch copy of dst's pre-scan contents.
        let aliased = src == dst || segments == Some(dst);
        let tmp = if aliased { Some(self.scratch_copy(dst)?) } else { None };
        let res: Result<()> = (|| {
            let (d, peers) = self.split_dst(dst)?;
            let mask = peers.mask(dst.vp)?;
            let sdata =
                if src == dst { tmp.as_ref().expect("alias copied") } else { peers.src(src)? };
            let segs: Option<&[bool]> = match segments {
                Some(s) => {
                    let sd =
                        if s == dst { tmp.as_ref().expect("alias copied") } else { peers.src(s)? };
                    let FieldData::Bool(sv) = sd else { unreachable!("seg type checked") };
                    Some(sv.as_slice())
                }
                None => None,
            };
            macro_rules! scan_impl {
                ($variant:ident, $id:expr, $fold:expr) => {{
                    let FieldData::$variant(d) = d else { unreachable!() };
                    let FieldData::$variant(v) = sdata else { unreachable!() };
                    scan_values_into(d, v, mask, segs, $id, $fold, inclusive);
                }};
            }
            match (src_ty, op) {
                (ElemType::Int, ReduceOp::Add) => {
                    scan_impl!(I64, 0i64, |a: i64, b: i64| a.wrapping_add(b))
                }
                (ElemType::Int, ReduceOp::Mul) => {
                    scan_impl!(I64, 1i64, |a: i64, b: i64| a.wrapping_mul(b))
                }
                (ElemType::Int, ReduceOp::Min) => {
                    scan_impl!(I64, INT_INF, |a: i64, b: i64| a.min(b))
                }
                (ElemType::Int, ReduceOp::Max) => {
                    scan_impl!(I64, INT_NEG_INF, |a: i64, b: i64| a.max(b))
                }
                (ElemType::Float, ReduceOp::Add) => {
                    scan_impl!(F64, 0.0f64, |a: f64, b: f64| a + b)
                }
                (ElemType::Float, ReduceOp::Mul) => {
                    scan_impl!(F64, 1.0f64, |a: f64, b: f64| a * b)
                }
                (ElemType::Float, ReduceOp::Min) => {
                    scan_impl!(F64, f64::INFINITY, |a: f64, b: f64| a.min(b))
                }
                (ElemType::Float, ReduceOp::Max) => {
                    scan_impl!(F64, f64::NEG_INFINITY, |a: f64, b: f64| a.max(b))
                }
                (ElemType::Bool, ReduceOp::Or) => {
                    scan_impl!(Bool, false, |a: bool, b: bool| a || b)
                }
                (ElemType::Bool, ReduceOp::And) => {
                    scan_impl!(Bool, true, |a: bool, b: bool| a && b)
                }
                (ElemType::Bool, ReduceOp::Xor) => {
                    scan_impl!(Bool, false, |a: bool, b: bool| a ^ b)
                }
                _ => unreachable!("op validated above"),
            }
            Ok(())
        })();
        if let Some(t) = tmp {
            self.scratch.put_data(t);
        }
        res?;

        self.tick(OpClass::Scan, size)?;
        Ok(())
    }
}

/// Prefix-scan the active elements of `v` directly into `out` (the
/// destination field's storage): only active positions are written, so
/// inactive destinations keep their old values with no separate
/// commit pass. Unsegmented scans of at least `par::PAR_THRESHOLD`
/// elements use the blocked two-pass algorithm over [`par::chunk_at`]
/// chunks; chunk layout depends only on `v.len()`, keeping results
/// thread-count-invariant. Below the threshold (and for segmented scans)
/// the sequential path runs and allocates nothing.
fn scan_values_into<T>(
    out: &mut [T],
    v: &[T],
    mask: &[bool],
    segs: Option<&[bool]>,
    id: T,
    fold: impl Fn(T, T) -> T + Sync,
    inclusive: bool,
) where
    T: Copy + Send + Sync,
{
    let size = v.len();
    if segs.is_none() && size >= par::PAR_THRESHOLD && par::chunk_count(size) > 1 {
        // Pass 1: fold each chunk's active elements (partials in a
        // stack array — the blocked path allocates nothing).
        let mut sums = [id; par::MAX_CHUNKS];
        let n = par::map_chunks_into(size, &mut sums, |r| {
            r.into_iter().filter(|&i| mask[i]).fold(id, |acc, i| fold(acc, v[i]))
        });
        // Exclusive scan of the chunk sums: chunk k's carry-in.
        let mut carries = [id; par::MAX_CHUNKS];
        let mut acc = id;
        for k in 0..n {
            carries[k] = acc;
            acc = fold(acc, sums[k]);
        }
        // Pass 2: sequential prefix inside each chunk, seeded by its
        // carry, chunks running in parallel on the pool.
        par::for_each_chunk_mut(out, |k, r, chunk| {
            let mut acc = carries[k];
            for (off, slot) in chunk.iter_mut().enumerate() {
                let i = r.start + off;
                if mask[i] {
                    if inclusive {
                        acc = fold(acc, v[i]);
                        *slot = acc;
                    } else {
                        *slot = acc;
                        acc = fold(acc, v[i]);
                    }
                }
            }
        });
        return;
    }
    let mut acc = id;
    for i in 0..size {
        if let Some(sg) = segs {
            if sg[i] {
                acc = id;
            }
        }
        if mask[i] {
            if inclusive {
                acc = fold(acc, v[i]);
                out[i] = acc;
            } else {
                out[i] = acc;
                acc = fold(acc, v[i]);
            }
        }
    }
}

fn reduce_int(v: &[i64], mask: &[bool], op: ReduceOp) -> Scalar {
    match op {
        ReduceOp::Add => Scalar::Int(par::fold_active(v, mask, 0i64, |a, b| a.wrapping_add(b))),
        ReduceOp::Mul => Scalar::Int(par::fold_active(v, mask, 1i64, |a, b| a.wrapping_mul(b))),
        ReduceOp::Min => Scalar::Int(par::fold_active(v, mask, INT_INF, i64::min)),
        ReduceOp::Max => Scalar::Int(par::fold_active(v, mask, INT_NEG_INF, i64::max)),
        // Logical reductions treat operands as C truth values; the 0/1
        // partials combine with the same fold, so chunking is transparent.
        ReduceOp::And => {
            Scalar::Int(par::fold_active(v, mask, 1i64, |a, b| (a != 0 && b != 0) as i64))
        }
        ReduceOp::Or => {
            Scalar::Int(par::fold_active(v, mask, 0i64, |a, b| (a != 0 || b != 0) as i64))
        }
        ReduceOp::Xor => {
            Scalar::Int(par::fold_active(v, mask, 0i64, |a, b| ((a != 0) ^ (b != 0)) as i64))
        }
        ReduceOp::Arb => {
            Scalar::Int(par::first_active(mask).map_or(INT_INF, |i| v[i]))
        }
    }
}

fn reduce_float(v: &[f64], mask: &[bool], op: ReduceOp) -> Result<Scalar> {
    Ok(match op {
        ReduceOp::Add => Scalar::Float(par::fold_active(v, mask, 0.0, |a, b| a + b)),
        ReduceOp::Mul => Scalar::Float(par::fold_active(v, mask, 1.0, |a, b| a * b)),
        ReduceOp::Min => Scalar::Float(par::fold_active(v, mask, f64::INFINITY, f64::min)),
        ReduceOp::Max => {
            Scalar::Float(par::fold_active(v, mask, f64::NEG_INFINITY, f64::max))
        }
        ReduceOp::Arb => {
            Scalar::Float(par::first_active(mask).map_or(f64::INFINITY, |i| v[i]))
        }
        _ => return Err(CmError::Unsupported("logical reduction on float field")),
    })
}

fn reduce_bool(v: &[bool], mask: &[bool], op: ReduceOp) -> Result<Scalar> {
    Ok(match op {
        ReduceOp::And => Scalar::Bool(par::fold_active(v, mask, true, |a, b| a && b)),
        ReduceOp::Or => Scalar::Bool(par::fold_active(v, mask, false, |a, b| a || b)),
        ReduceOp::Xor => Scalar::Bool(par::fold_active(v, mask, false, |a, b| a ^ b)),
        ReduceOp::Arb => Scalar::Bool(par::first_active(mask).is_some_and(|i| v[i])),
        _ => return Err(CmError::Unsupported("arithmetic reduction on bool field")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::ops::BinOp;

    fn setup(n: usize) -> (Machine, FieldId) {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        m.iota(a).unwrap();
        (m, a)
    }

    #[test]
    fn basic_reductions() {
        let (mut m, a) = setup(5); // 0..4
        assert_eq!(m.reduce(a, ReduceOp::Add).unwrap(), Scalar::Int(10));
        assert_eq!(m.reduce(a, ReduceOp::Max).unwrap(), Scalar::Int(4));
        assert_eq!(m.reduce(a, ReduceOp::Min).unwrap(), Scalar::Int(0));
        assert_eq!(m.reduce(a, ReduceOp::Mul).unwrap(), Scalar::Int(0));
        assert_eq!(m.reduce(a, ReduceOp::Arb).unwrap(), Scalar::Int(0));
        assert_eq!(m.reduce(a, ReduceOp::Or).unwrap(), Scalar::Int(1));
        assert_eq!(m.reduce(a, ReduceOp::And).unwrap(), Scalar::Int(0)); // 0 is false
    }

    #[test]
    fn empty_active_set_yields_identity() {
        let (mut m, a) = setup(4);
        let vp = a.vp_set();
        let none = m.alloc_bool(vp, "none").unwrap(); // all false
        m.push_context(none).unwrap();
        assert_eq!(m.reduce(a, ReduceOp::Add).unwrap(), Scalar::Int(0));
        assert_eq!(m.reduce(a, ReduceOp::Min).unwrap(), Scalar::Int(INT_INF));
        assert_eq!(m.reduce(a, ReduceOp::Max).unwrap(), Scalar::Int(INT_NEG_INF));
        assert_eq!(m.reduce(a, ReduceOp::Mul).unwrap(), Scalar::Int(1));
        assert_eq!(m.reduce(a, ReduceOp::And).unwrap(), Scalar::Int(1));
        assert_eq!(m.reduce(a, ReduceOp::Arb).unwrap(), Scalar::Int(INT_INF));
        m.pop_context(vp).unwrap();
    }

    #[test]
    fn masked_reduction() {
        let (mut m, a) = setup(6);
        let vp = a.vp_set();
        let even = m.alloc_bool(vp, "even").unwrap();
        let t = m.alloc_int(vp, "t").unwrap();
        m.binop_imm(BinOp::Mod, t, a, Scalar::Int(2)).unwrap();
        m.binop_imm(BinOp::Eq, even, t, Scalar::Int(0)).unwrap();
        m.push_context(even).unwrap();
        assert_eq!(m.reduce(a, ReduceOp::Add).unwrap(), Scalar::Int(2 + 4));
        m.pop_context(vp).unwrap();
    }

    #[test]
    fn float_reductions() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[3]).unwrap();
        let f = m.alloc_float(vp, "f").unwrap();
        m.write_all(f, FieldData::F64(vec![1.5, -2.0, 4.0])).unwrap();
        assert_eq!(m.reduce(f, ReduceOp::Add).unwrap(), Scalar::Float(3.5));
        assert_eq!(m.reduce(f, ReduceOp::Min).unwrap(), Scalar::Float(-2.0));
        assert_eq!(m.reduce(f, ReduceOp::Mul).unwrap(), Scalar::Float(-12.0));
        assert!(m.reduce(f, ReduceOp::Xor).is_err());
    }

    #[test]
    fn bool_reductions() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[3]).unwrap();
        let b = m.alloc_bool(vp, "b").unwrap();
        m.write_all(b, FieldData::Bool(vec![true, false, true])).unwrap();
        assert_eq!(m.reduce(b, ReduceOp::Or).unwrap(), Scalar::Bool(true));
        assert_eq!(m.reduce(b, ReduceOp::And).unwrap(), Scalar::Bool(false));
        assert_eq!(m.reduce(b, ReduceOp::Xor).unwrap(), Scalar::Bool(false)); // parity of 2
        assert_eq!(m.reduce(b, ReduceOp::Arb).unwrap(), Scalar::Bool(true));
        assert!(m.reduce(b, ReduceOp::Add).is_err());
    }

    #[test]
    fn inclusive_and_exclusive_scans() {
        let (mut m, a) = setup(4); // 0 1 2 3
        let vp = a.vp_set();
        let d = m.alloc_int(vp, "d").unwrap();
        m.scan(d, a, ReduceOp::Add, true, None).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, 3, 6]);
        m.scan(d, a, ReduceOp::Add, false, None).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 0, 1, 3]);
        m.scan(d, a, ReduceOp::Max, true, None).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, 2, 3]);
    }

    #[test]
    fn masked_scan_skips_inactive() {
        let (mut m, a) = setup(5); // 0 1 2 3 4
        let vp = a.vp_set();
        let d = m.alloc_int(vp, "d").unwrap();
        let mask = m.alloc_bool(vp, "m").unwrap();
        m.set_imm(d, Scalar::Int(-1)).unwrap();
        m.write_all(mask, FieldData::Bool(vec![true, false, true, false, true])).unwrap();
        m.push_context(mask).unwrap();
        m.scan(d, a, ReduceOp::Add, true, None).unwrap();
        m.pop_context(vp).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, -1, 2, -1, 6]);
    }

    #[test]
    fn segmented_scan_restarts() {
        let (mut m, a) = setup(6); // 0 1 2 3 4 5
        let vp = a.vp_set();
        let d = m.alloc_int(vp, "d").unwrap();
        let seg = m.alloc_bool(vp, "seg").unwrap();
        m.write_all(seg, FieldData::Bool(vec![true, false, false, true, false, false]))
            .unwrap();
        m.scan(d, a, ReduceOp::Add, true, Some(seg)).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, 3, 3, 7, 12]);
    }

    #[test]
    fn scan_type_checks() {
        let (mut m, a) = setup(3);
        let vp = a.vp_set();
        let f = m.alloc_float(vp, "f").unwrap();
        assert!(m.scan(f, a, ReduceOp::Add, true, None).is_err());
        let b = m.alloc_bool(vp, "b").unwrap();
        let d = m.alloc_bool(vp, "d").unwrap();
        m.scan(d, b, ReduceOp::Or, true, None).unwrap();
        assert!(m.scan(d, b, ReduceOp::Add, true, None).is_err());
    }

    /// Blocked parallel scans and reductions must agree exactly with the
    /// sequential definition above the parallel threshold.
    #[test]
    fn large_scan_matches_sequential_reference() {
        let n = crate::par::PAR_THRESHOLD + 257;
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        let mask = m.alloc_bool(vp, "m").unwrap();
        let data: Vec<i64> = (0..n as i64).map(|x| (x * 7919) % 1000 - 500).collect();
        let mbits: Vec<bool> = (0..n).map(|i| i % 5 != 3).collect();
        m.write_all(a, FieldData::I64(data.clone())).unwrap();
        m.write_all(mask, FieldData::Bool(mbits.clone())).unwrap();
        m.push_context(mask).unwrap();
        m.scan(d, a, ReduceOp::Add, true, None).unwrap();
        let got_scan = m.int_data(d).unwrap().to_vec();
        let got_sum = m.reduce(a, ReduceOp::Add).unwrap();
        let got_min = m.reduce(a, ReduceOp::Min).unwrap();
        let got_arb = m.reduce(a, ReduceOp::Arb).unwrap();
        m.pop_context(vp).unwrap();

        let mut acc = 0i64;
        let mut want_scan = vec![0i64; n];
        for i in 0..n {
            if mbits[i] {
                acc = acc.wrapping_add(data[i]);
                want_scan[i] = acc;
            }
        }
        for i in 0..n {
            if mbits[i] {
                assert_eq!(got_scan[i], want_scan[i], "scan diverges at {i}");
            }
        }
        let active = || data.iter().zip(&mbits).filter(|(_, &m)| m).map(|(&x, _)| x);
        assert_eq!(got_sum, Scalar::Int(active().fold(0i64, |a, b| a.wrapping_add(b))));
        assert_eq!(got_min, Scalar::Int(active().fold(INT_INF, i64::min)));
        assert_eq!(got_arb, Scalar::Int(active().next().unwrap()));
    }

    /// Float scans associate by chunk above the threshold; the result must
    /// nevertheless be identical run-to-run (chunking depends on the size
    /// alone). Compare against an explicitly chunk-folded reference.
    #[test]
    fn large_float_scan_is_reproducible() {
        let n = crate::par::PAR_THRESHOLD + 11;
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        let a = m.alloc_float(vp, "a").unwrap();
        let d = m.alloc_float(vp, "d").unwrap();
        let data: Vec<f64> = (0..n).map(|i| ((i * 37) % 97) as f64 * 0.125 - 6.0).collect();
        m.write_all(a, FieldData::F64(data.clone())).unwrap();
        m.scan(d, a, ReduceOp::Add, true, None).unwrap();
        let first = m.float_data(d).unwrap().to_vec();
        let sum1 = m.reduce(a, ReduceOp::Add).unwrap();
        m.scan(d, a, ReduceOp::Add, true, None).unwrap();
        assert_eq!(first, m.float_data(d).unwrap());
        assert_eq!(sum1, m.reduce(a, ReduceOp::Add).unwrap());
    }
}
