//! The general router.
//!
//! The CM router lets any processor read from or write to any other
//! processor's memory, with optional combining of colliding messages. It is
//! the expensive communication path (see [`crate::cost`]): the UC mapping
//! optimizations of §4 of the paper exist precisely to turn router traffic
//! into local or NEWS traffic.
//!
//! Delivery is deterministic: messages are combined in increasing order of
//! the sender's send address, so `Combine::Overwrite` means "highest-
//! addressed active sender wins" and every combiner gives reproducible
//! results even for non-commutative uses.

use crate::cost::OpClass;
use crate::field::{ElemType, FieldData, FieldId};
use crate::machine::{Machine, Write};
use crate::par;
use crate::{CmError, Result};

/// Validate that every *active* address targets `size`. The existence
/// test is a branch-free fold over 256-lane blocks (a negative address
/// is a huge `u64`, so one unsigned compare checks both bounds), which
/// vectorises; [`par::map_chunks_into`] runs it on the whole slice below
/// [`par::PAR_THRESHOLD`] and on the pool's chunks above. On failure the
/// first offender is re-found sequentially, so the reported address never
/// depends on the thread count.
fn check_addrs(addrs: &[i64], mask: &[bool], size: usize) -> Result<()> {
    let bad = |a: i64, m: bool| m & (a as u64 >= size as u64);
    let any_bad = |r: std::ops::Range<usize>| {
        let mut blocks = addrs[r.clone()].chunks(256).zip(mask[r].chunks(256));
        blocks.any(|(a, m)| a.iter().zip(m).fold(false, |acc, (&a, &m)| acc | bad(a, m)))
    };
    let mut hits = [false; par::MAX_CHUNKS];
    let n = par::map_chunks_into(addrs.len(), &mut hits, any_bad);
    if hits[..n].contains(&true) {
        let (&addr, _) = addrs.iter().zip(mask).find(|(&a, &m)| bad(a, m)).expect("rescan");
        return Err(CmError::AddressOutOfRange { addr, size });
    }
    Ok(())
}

/// How colliding messages to one destination VP are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Combine {
    /// Last message (in sender order) wins.
    Overwrite,
    Add,
    Mul,
    Min,
    Max,
    /// Logical OR (bool fields only).
    Or,
    /// Logical AND (bool fields only).
    And,
}

impl Machine {
    /// Router **send**: for every VP `i` active on the *source* VP set,
    /// deliver `src[i]` to `dst[addr[i]]`, combining collisions with
    /// `combine`. `src` and `addr` share a VP set; `dst` may live on a
    /// different VP set (this is how arrays on differently-shaped UC index
    /// sets exchange data). Destination VPs that receive no message keep
    /// their old value regardless of their own context.
    pub fn send(&mut self, dst: FieldId, addr: FieldId, src: FieldId, combine: Combine) -> Result<()> {
        self.send_detect(dst, addr, src, combine)?;
        Ok(())
    }

    /// Like [`Machine::send`] but also reports whether two active senders
    /// delivered *distinct* values to the same destination VP. UC uses this
    /// to enforce the `par` rule that multiple assignments to one variable
    /// must assign identical values.
    pub fn send_detect(
        &mut self,
        dst: FieldId,
        addr: FieldId,
        src: FieldId,
        combine: Combine,
    ) -> Result<bool> {
        self.write_with(dst, Write::Partial, |m| m.deliver(dst, addr, src, combine))
    }

    fn deliver(
        &mut self,
        dst: FieldId,
        addr: FieldId,
        src: FieldId,
        combine: Combine,
    ) -> Result<bool> {
        if src.vp != addr.vp {
            return Err(CmError::VpSetMismatch);
        }
        let src_size = self.vp_size(src.vp)?;
        let dst_size = self.vp_size(dst.vp)?;
        let dst_ty = self.field(dst)?.elem_type();
        let src_ty = self.field(src)?.elem_type();
        if dst_ty != src_ty {
            return Err(CmError::TypeMismatch { expected: dst_ty, found: src_ty });
        }
        {
            // Address validation borrows the address field and the sender
            // mask side by side; nothing is copied.
            let addrs = self.int_data(addr)?;
            let mask = self.vp(src.vp)?.context.current();
            check_addrs(addrs, mask, dst_size)?;
        }
        let combiner_ok = matches!(
            (src_ty, combine),
            (
                ElemType::Int | ElemType::Float,
                Combine::Overwrite | Combine::Add | Combine::Mul | Combine::Min | Combine::Max
            ) | (ElemType::Bool, Combine::Or | Combine::And | Combine::Overwrite)
        );
        if !combiner_ok {
            return Err(CmError::Unsupported("combiner not defined for this field type"));
        }

        // Any alias (src and/or addr equal to dst) is de-aliased with one
        // scratch copy: aliased operands are all the same field as dst.
        let mut hit = self.scratch.take_bools_zeroed(dst_size);
        let tmp = if src == dst || addr == dst { Some(self.scratch_copy(dst)?) } else { None };

        // Delivery is simulated sequentially in sender order: combining
        // order is part of the documented semantics (`Overwrite` = last
        // sender wins), so the combining loop must not be parallelised —
        // only the address validation above fans out.
        let mut conflict = false;
        let res: Result<()> = (|| {
            let (d, peers) = self.split_dst(dst)?;
            let mask = peers.mask(src.vp)?;
            let addr_data =
                if addr == dst { tmp.as_ref().expect("alias copied") } else { peers.src(addr)? };
            let FieldData::I64(addrs) = addr_data else { unreachable!("addr type checked") };
            let values =
                if src == dst { tmp.as_ref().expect("alias copied") } else { peers.src(src)? };
            macro_rules! deliver {
                ($variant:ident, $combine_fn:expr) => {{
                    let FieldData::$variant(d) = d else { unreachable!() };
                    let FieldData::$variant(values) = values else { unreachable!() };
                    for i in 0..src_size {
                        if !mask[i] {
                            continue;
                        }
                        let a = addrs[i] as usize;
                        let v = values[i];
                        if hit[a] {
                            if d[a] != v {
                                conflict = true;
                            }
                            d[a] = $combine_fn(d[a], v);
                        } else {
                            d[a] = v;
                            hit[a] = true;
                        }
                    }
                }};
            }
            match (src_ty, combine) {
                (ElemType::Int, Combine::Overwrite) => deliver!(I64, |_old, new| new),
                (ElemType::Int, Combine::Add) => deliver!(I64, |o: i64, n: i64| o.wrapping_add(n)),
                (ElemType::Int, Combine::Mul) => deliver!(I64, |o: i64, n: i64| o.wrapping_mul(n)),
                (ElemType::Int, Combine::Min) => deliver!(I64, |o: i64, n: i64| o.min(n)),
                (ElemType::Int, Combine::Max) => deliver!(I64, |o: i64, n: i64| o.max(n)),
                (ElemType::Float, Combine::Overwrite) => deliver!(F64, |_o, n| n),
                (ElemType::Float, Combine::Add) => deliver!(F64, |o: f64, n: f64| o + n),
                (ElemType::Float, Combine::Mul) => deliver!(F64, |o: f64, n: f64| o * n),
                (ElemType::Float, Combine::Min) => deliver!(F64, |o: f64, n: f64| o.min(n)),
                (ElemType::Float, Combine::Max) => deliver!(F64, |o: f64, n: f64| o.max(n)),
                (ElemType::Bool, Combine::Or) => deliver!(Bool, |o, n| o || n),
                (ElemType::Bool, Combine::And) => deliver!(Bool, |o, n| o && n),
                (ElemType::Bool, Combine::Overwrite) => deliver!(Bool, |_o, n| n),
                _ => unreachable!("combiner validated above"),
            }
            Ok(())
        })();
        if let Some(t) = tmp {
            self.scratch.put_data(t);
        }
        self.scratch.put_bools(hit);
        res?;

        self.tick(OpClass::Router, src_size.max(dst_size))?;
        Ok(conflict)
    }

    /// Router **get**: for every VP `i` active on the *destination* VP set,
    /// `dst[i] = src[addr[i]]`. `dst` and `addr` share a VP set; `src` may
    /// live elsewhere. This is the CM's general gather and what a UC
    /// expression like `a[f(i)]` compiles to when `f(i)` is not a local or
    /// NEWS-regular access.
    pub fn get(&mut self, dst: FieldId, addr: FieldId, src: FieldId) -> Result<()> {
        let write = Write::active_unless(src == dst || addr == dst);
        self.write_with(dst, write, |m| m.gather(dst, addr, src))
    }

    fn gather(&mut self, dst: FieldId, addr: FieldId, src: FieldId) -> Result<()> {
        if dst.vp != addr.vp {
            return Err(CmError::VpSetMismatch);
        }
        let dst_size = self.vp_size(dst.vp)?;
        let src_size = self.vp_size(src.vp)?;
        let dst_ty = self.field(dst)?.elem_type();
        let src_ty = self.field(src)?.elem_type();
        if dst_ty != src_ty {
            return Err(CmError::TypeMismatch { expected: dst_ty, found: src_ty });
        }
        {
            let addrs = self.int_data(addr)?;
            let mask = self.vp(dst.vp)?.context.current();
            check_addrs(addrs, mask, src_size)?;
        }

        let tmp = if src == dst || addr == dst { Some(self.scratch_copy(dst)?) } else { None };
        // Unlike send, the gather has no collisions — every destination
        // reads independently — so it fans out on the thread pool.
        let res: Result<()> = (|| {
            let (d, peers) = self.split_dst(dst)?;
            let mask = peers.mask(dst.vp)?;
            let addr_data =
                if addr == dst { tmp.as_ref().expect("alias copied") } else { peers.src(addr)? };
            let FieldData::I64(addrs) = addr_data else { unreachable!("addr type checked") };
            let values =
                if src == dst { tmp.as_ref().expect("alias copied") } else { peers.src(src)? };
            match (d, values) {
                (FieldData::I64(d), FieldData::I64(v)) => par::gather_masked(d, v, addrs, mask),
                (FieldData::F64(d), FieldData::F64(v)) => par::gather_masked(d, v, addrs, mask),
                (FieldData::Bool(d), FieldData::Bool(v)) => par::gather_masked(d, v, addrs, mask),
                _ => unreachable!("types validated above"),
            }
            Ok(())
        })();
        if let Some(t) = tmp {
            self.scratch.put_data(t);
        }
        res?;

        self.tick(OpClass::Router, dst_size.max(src_size))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::Scalar;

    #[test]
    fn send_permutation() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[4]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let dst = m.alloc_int(vp, "d").unwrap();
        m.iota(src).unwrap(); // 0 1 2 3
        // reverse permutation: addr[i] = 3 - i
        m.iota(addr).unwrap();
        m.binop_imm_l(crate::ops::BinOp::Sub, addr, Scalar::Int(3), addr).unwrap();
        let conflict = m.send_detect(dst, addr, src, Combine::Overwrite).unwrap();
        assert!(!conflict);
        assert_eq!(m.int_data(dst).unwrap(), &[3, 2, 1, 0]);
    }

    #[test]
    fn send_combines_collisions() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[4]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let dst = m.alloc_int(vp, "d").unwrap();
        m.iota(src).unwrap();
        m.set_imm(addr, Scalar::Int(0)).unwrap(); // everyone sends to VP 0
        m.set_imm(dst, Scalar::Int(-1)).unwrap();
        m.send(dst, addr, src, Combine::Add).unwrap();
        assert_eq!(m.read_elem(dst, 0).unwrap(), Scalar::Int(6)); // 0+1+2+3, not -1
        m.send(dst, addr, src, Combine::Max).unwrap();
        assert_eq!(m.read_elem(dst, 0).unwrap(), Scalar::Int(3));
        m.send(dst, addr, src, Combine::Min).unwrap();
        assert_eq!(m.read_elem(dst, 0).unwrap(), Scalar::Int(0));
        let conflict = m.send_detect(dst, addr, src, Combine::Overwrite).unwrap();
        assert!(conflict, "distinct values to one address must be flagged");
        assert_eq!(m.read_elem(dst, 0).unwrap(), Scalar::Int(3)); // last sender wins
    }

    #[test]
    fn identical_values_no_conflict() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[4]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let dst = m.alloc_int(vp, "d").unwrap();
        m.set_imm(src, Scalar::Int(7)).unwrap();
        m.set_imm(addr, Scalar::Int(2)).unwrap();
        let conflict = m.send_detect(dst, addr, src, Combine::Overwrite).unwrap();
        assert!(!conflict);
        assert_eq!(m.read_elem(dst, 2).unwrap(), Scalar::Int(7));
    }

    #[test]
    fn inactive_senders_do_not_send() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[4]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let dst = m.alloc_int(vp, "d").unwrap();
        let mask = m.alloc_bool(vp, "m").unwrap();
        m.iota(src).unwrap();
        m.iota(addr).unwrap();
        m.set_imm(dst, Scalar::Int(-1)).unwrap();
        m.write_all(mask, FieldData::Bool(vec![false, true, false, true])).unwrap();
        m.push_context(mask).unwrap();
        m.send(dst, addr, src, Combine::Overwrite).unwrap();
        m.pop_context(vp).unwrap();
        assert_eq!(m.int_data(dst).unwrap(), &[-1, 1, -1, 3]);
    }

    #[test]
    fn get_gathers() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[4]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let dst = m.alloc_int(vp, "d").unwrap();
        m.iota(src).unwrap();
        m.binop_imm(crate::ops::BinOp::Mul, src, src, Scalar::Int(10)).unwrap(); // 0 10 20 30
        m.set_imm(addr, Scalar::Int(2)).unwrap();
        m.get(dst, addr, src).unwrap();
        assert_eq!(m.int_data(dst).unwrap(), &[20, 20, 20, 20]);
    }

    #[test]
    fn cross_vp_set_transfer() {
        let mut m = Machine::with_defaults();
        let v1 = m.new_vp_set("v1", &[2, 3]).unwrap();
        let v2 = m.new_vp_set("v2", &[3]).unwrap();
        let src = m.alloc_int(v2, "s").unwrap();
        m.iota(src).unwrap();
        m.binop_imm(crate::ops::BinOp::Add, src, src, Scalar::Int(100)).unwrap();
        // Gather the k-th element of v2 into column k of v1.
        let addr = m.alloc_int(v1, "a").unwrap();
        let dst = m.alloc_int(v1, "d").unwrap();
        m.axis_coord(addr, 1).unwrap();
        m.get(dst, addr, src).unwrap();
        assert_eq!(m.int_data(dst).unwrap(), &[100, 101, 102, 100, 101, 102]);
        // And scatter a row of v1 back to v2.
        let a2 = m.alloc_int(v2, "a2").unwrap();
        let d2 = m.alloc_int(v2, "d2").unwrap();
        m.iota(a2).unwrap();
        let s2 = m.alloc_int(v2, "s2").unwrap();
        m.set_imm(s2, Scalar::Int(5)).unwrap();
        m.send(d2, a2, s2, Combine::Overwrite).unwrap();
        assert_eq!(m.int_data(d2).unwrap(), &[5, 5, 5]);
    }

    #[test]
    fn address_bounds_checked() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[2]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let dst = m.alloc_int(vp, "d").unwrap();
        m.set_imm(addr, Scalar::Int(5)).unwrap();
        assert!(matches!(
            m.send(dst, addr, src, Combine::Overwrite),
            Err(CmError::AddressOutOfRange { .. })
        ));
        assert!(matches!(m.get(dst, addr, src), Err(CmError::AddressOutOfRange { .. })));
        m.set_imm(addr, Scalar::Int(-1)).unwrap();
        assert!(matches!(
            m.send(dst, addr, src, Combine::Overwrite),
            Err(CmError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn send_mul_combiner() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[4]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let dst = m.alloc_int(vp, "d").unwrap();
        m.iota(src).unwrap();
        m.binop_imm(crate::ops::BinOp::Add, src, src, Scalar::Int(1)).unwrap(); // 1 2 3 4
        m.set_imm(addr, Scalar::Int(0)).unwrap();
        m.send(dst, addr, src, Combine::Mul).unwrap();
        assert_eq!(m.read_elem(dst, 0).unwrap(), Scalar::Int(24));
        // Float mul combine too.
        let fs = m.alloc_float(vp, "fs").unwrap();
        let fd = m.alloc_float(vp, "fd").unwrap();
        m.write_all(fs, FieldData::F64(vec![2.0, 0.5, 3.0, 1.0])).unwrap();
        m.send(fd, addr, fs, Combine::Mul).unwrap();
        assert_eq!(m.read_elem(fd, 0).unwrap(), Scalar::Float(3.0));
    }

    #[test]
    fn bool_send_with_or_combiner() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[4]).unwrap();
        let src = m.alloc_bool(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let dst = m.alloc_bool(vp, "d").unwrap();
        m.write_all(src, FieldData::Bool(vec![false, true, false, false])).unwrap();
        m.set_imm(addr, Scalar::Int(1)).unwrap();
        m.send(dst, addr, src, Combine::Or).unwrap();
        assert_eq!(m.read_elem(dst, 1).unwrap(), Scalar::Bool(true));
        m.send(dst, addr, src, Combine::And).unwrap();
        assert_eq!(m.read_elem(dst, 1).unwrap(), Scalar::Bool(false));
        // Arithmetic combiners are undefined on bool fields.
        assert!(m.send(dst, addr, src, Combine::Add).is_err());
    }

    #[test]
    fn router_is_expensive() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[16]).unwrap();
        let src = m.alloc_int(vp, "s").unwrap();
        let addr = m.alloc_int(vp, "a").unwrap();
        let dst = m.alloc_int(vp, "d").unwrap();
        m.iota(addr).unwrap();
        m.reset_clock();
        m.send(dst, addr, src, Combine::Overwrite).unwrap();
        let router_cycles = m.cycles();
        m.reset_clock();
        m.binop(crate::ops::BinOp::Add, dst, src, src).unwrap();
        let alu_cycles = m.cycles();
        assert!(router_cycles > 5 * alu_cycles);
    }
}
