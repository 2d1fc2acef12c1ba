//! Elementwise SIMD ALU operations.
//!
//! Every operation applies to all *active* VPs of one VP set (inactive VPs
//! keep their old destination values) and charges the [`crate::cost`]
//! model. Operands must live on the same VP set and have matching types;
//! the UC executor inserts explicit [`Machine::convert`] ops where the
//! language allows implicit coercion.
//!
//! # One pass per instruction
//!
//! Each op validates, charges, then runs exactly one [`crate::par`]
//! `zip*` kernel over its operands. The operation is matched **once**,
//! outside the loop, and each arm hands the kernel its own closure, so the
//! inner loop is monomorphic and vectorises. An operand is one of three
//! things by the time the kernel runs ([`Src`]):
//!
//! * another field — a source slice borrowed through `Peers`;
//! * the destination itself — read in place from the old value the kernel
//!   passes to the closure (an elementwise op only ever reads its own
//!   position, so no copy is needed);
//! * an immediate — a scalar captured by the closure.
//!
//! [`Machine::binop_imm`] still *charges* what the modelled front end
//! does — broadcast the immediate into a temporary field, then run the
//! op — so simulated cycles, op counters, fuel boundaries and the
//! memory-budget trap are those of a broadcast followed by a `binop`; the
//! host just never materialises the temporary.
//!
//! # Which writes define a result
//!
//! A field from [`Machine::alloc_result`] is undefined until an op writes
//! it (see [`crate::machine`]). The op skips the zero-fill when its write
//! covers every lane:
//!
//! * always, for the unconditional writes: [`Machine::fill_unconditional`],
//!   [`Machine::copy_unconditional`], [`Machine::read_context`] and
//!   [`Machine::write_all`];
//! * when the VP set's current mask is all-active and the op does not read
//!   its own destination, for the masked writes: `set_imm`, `copy`,
//!   `convert`, `unop`, `binop*`, `select`, `iota`, `axis_coord` and
//!   `rand_int` here, plus [`Machine::news_shift`] with `Wrap` or `Fill`
//!   and router [`Machine::get`].
//!
//! Every other first write — under a partial mask, in place, `send`,
//! `scan`, a `Border::Keep` shift, `write_elem` — zero-fills first, so a
//! lane no op wrote still reads 0.

use crate::cost::OpClass;
use crate::field::{Elem, ElemType, FieldData, FieldId};
use crate::machine::{elem_bytes, Machine, Peers, Write};
use crate::par;
use crate::{CmError, Result, Scalar};

/// Binary elementwise operations.
///
/// Arithmetic ops preserve the operand type; comparisons produce `Bool`;
/// `LogAnd`/`LogOr`/`LogXor` operate on `Bool` fields (C truthiness is the
/// executor's job). `Shl`/`Shr`/`BitAnd`/`BitOr`/`BitXor`/`Mod` and
/// `ULt` are integer-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Min,
    Max,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    LogAnd,
    LogOr,
    LogXor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Unsigned less-than: `(p as u64) < (q as u64)`, so `v ULt n` tests
    /// `0 <= v < n` in one op for `n >= 0` — a subscript's bounds check,
    /// the router's own address test.
    ULt,
}

impl BinOp {
    /// Whether this op yields a `Bool` field regardless of operand type.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::ULt
        )
    }

    /// Whether this op is defined only on `Bool` operands.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogAnd | BinOp::LogOr | BinOp::LogXor)
    }

    /// Whether this op is defined only on `Int` operands.
    pub fn int_only(self) -> bool {
        matches!(
            self,
            BinOp::Mod
                | BinOp::BitAnd
                | BinOp::BitOr
                | BinOp::BitXor
                | BinOp::Shl
                | BinOp::Shr
                | BinOp::ULt
        )
    }

    /// Result element type for operands of type `ty`.
    pub fn result_type(self, ty: ElemType) -> ElemType {
        if self.is_comparison() {
            ElemType::Bool
        } else {
            ty
        }
    }
}

/// Unary elementwise operations. `Not` is logical negation on `Bool`;
/// `BitNot` is integer complement; `Neg`/`Abs` are numeric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
    Abs,
}

/// One operand of a two-operand op as written by the caller.
#[derive(Clone, Copy)]
enum Operand {
    Field(FieldId),
    Imm(Scalar),
}

/// One operand as the kernel sees it, after alias resolution.
enum Src<'m, T> {
    /// The destination field itself: read from the kernel's old value.
    Dst,
    Field(&'m [T]),
    Imm(T),
}

impl<'m, T: Elem> Src<'m, T> {
    fn resolve(peers: &Peers<'m>, dst: FieldId, operand: Operand) -> Result<Self> {
        Ok(match operand {
            Operand::Imm(s) => Src::Imm(T::from_scalar(s)),
            Operand::Field(id) if id == dst => Src::Dst,
            Operand::Field(id) => Src::Field(T::slice(peers.src(id)?)),
        })
    }

    fn resolve2(peers: &Peers<'m>, dst: FieldId, a: Operand, b: Operand) -> Result<(Self, Self)> {
        Ok((Self::resolve(peers, dst, a)?, Self::resolve(peers, dst, b)?))
    }
}

/// `d[i] = f(a[i], b[i])` at active lanes where the result has the
/// operands' type, so either operand may be `d` itself.
fn zip_same<T, F>(d: &mut [T], a: Src<T>, b: Src<T>, mask: &[bool], f: F)
where
    T: Elem,
    F: Fn(T, T) -> T + Sync,
{
    match (a, b) {
        (Src::Field(x), Src::Field(y)) => par::zip2(d, x, y, mask, |_, x, y| f(x, y)),
        (Src::Dst, Src::Field(y)) => par::zip1(d, y, mask, f),
        (Src::Field(x), Src::Dst) => par::zip1(d, x, mask, |d, x| f(x, d)),
        (Src::Dst, Src::Dst) => par::zip0(d, mask, |d| f(d, d)),
        (Src::Field(x), Src::Imm(k)) => par::zip1(d, x, mask, |_, x| f(x, k)),
        (Src::Imm(k), Src::Field(y)) => par::zip1(d, y, mask, |_, y| f(k, y)),
        (Src::Dst, Src::Imm(k)) => par::zip0(d, mask, |d| f(d, k)),
        (Src::Imm(k), Src::Dst) => par::zip0(d, mask, |d| f(k, d)),
        (Src::Imm(_), Src::Imm(_)) => unreachable!("no op takes two immediates"),
    }
}

/// `d[i] = f(a[i], b[i])` at active lanes for a comparison of `Int` or
/// `Float` operands: `d` is `Bool`, so it can alias neither.
fn zip_cmp<T, F>(d: &mut [bool], a: Src<T>, b: Src<T>, mask: &[bool], f: F)
where
    T: Elem,
    F: Fn(T, T) -> bool + Sync,
{
    match (a, b) {
        (Src::Field(x), Src::Field(y)) => par::zip2(d, x, y, mask, |_, x, y| f(x, y)),
        (Src::Field(x), Src::Imm(k)) => par::zip1(d, x, mask, |_, x| f(x, k)),
        (Src::Imm(k), Src::Field(y)) => par::zip1(d, y, mask, |_, y| f(k, y)),
        _ => unreachable!("a Bool destination cannot alias a numeric operand"),
    }
}

fn compare<T: Elem + PartialOrd>(op: BinOp, d: &mut [bool], a: Src<T>, b: Src<T>, mask: &[bool]) {
    match op {
        BinOp::Eq => zip_cmp(d, a, b, mask, |p, q| p == q),
        BinOp::Ne => zip_cmp(d, a, b, mask, |p, q| p != q),
        BinOp::Lt => zip_cmp(d, a, b, mask, |p, q| p < q),
        BinOp::Le => zip_cmp(d, a, b, mask, |p, q| p <= q),
        BinOp::Gt => zip_cmp(d, a, b, mask, |p, q| p > q),
        BinOp::Ge => zip_cmp(d, a, b, mask, |p, q| p >= q),
        _ => unreachable!("not a comparison"),
    }
}

fn int_arith(op: BinOp, d: &mut [i64], a: Src<i64>, b: Src<i64>, mask: &[bool]) {
    match op {
        BinOp::Add => zip_same(d, a, b, mask, i64::wrapping_add),
        BinOp::Sub => zip_same(d, a, b, mask, i64::wrapping_sub),
        BinOp::Mul => zip_same(d, a, b, mask, i64::wrapping_mul),
        // The caller rejected zero divisors at active lanes, and kernels
        // evaluate active lanes only.
        BinOp::Div => zip_same(d, a, b, mask, i64::wrapping_div),
        BinOp::Mod => zip_same(d, a, b, mask, i64::wrapping_rem),
        BinOp::Min => zip_same(d, a, b, mask, i64::min),
        BinOp::Max => zip_same(d, a, b, mask, i64::max),
        BinOp::BitAnd => zip_same(d, a, b, mask, |p, q| p & q),
        BinOp::BitOr => zip_same(d, a, b, mask, |p, q| p | q),
        BinOp::BitXor => zip_same(d, a, b, mask, |p, q| p ^ q),
        BinOp::Shl => zip_same(d, a, b, mask, |p, q| p.wrapping_shl(q as u32)),
        BinOp::Shr => zip_same(d, a, b, mask, |p, q| p.wrapping_shr(q as u32)),
        _ => unreachable!("non-arithmetic op dispatched to int_arith"),
    }
}

fn float_arith(op: BinOp, d: &mut [f64], a: Src<f64>, b: Src<f64>, mask: &[bool]) {
    match op {
        BinOp::Add => zip_same(d, a, b, mask, |p, q| p + q),
        BinOp::Sub => zip_same(d, a, b, mask, |p, q| p - q),
        BinOp::Mul => zip_same(d, a, b, mask, |p, q| p * q),
        BinOp::Div => zip_same(d, a, b, mask, |p, q| p / q),
        BinOp::Min => zip_same(d, a, b, mask, f64::min),
        BinOp::Max => zip_same(d, a, b, mask, f64::max),
        _ => unreachable!("non-float op dispatched to float_arith"),
    }
}

fn bool_logic(op: BinOp, d: &mut [bool], a: Src<bool>, b: Src<bool>, mask: &[bool]) {
    match op {
        BinOp::LogAnd => zip_same(d, a, b, mask, |p, q| p & q),
        BinOp::LogOr => zip_same(d, a, b, mask, |p, q| p | q),
        BinOp::LogXor => zip_same(d, a, b, mask, |p, q| p ^ q),
        BinOp::Eq => zip_same(d, a, b, mask, |p, q| p == q),
        BinOp::Ne => zip_same(d, a, b, mask, |p, q| p != q),
        _ => unreachable!("op validated by caller"),
    }
}

/// `d[i] = c[i] ? a[i] : b[i]` at active lanes, `c` a field other than `d`.
fn select_lanes<T: Elem>(d: &mut [T], c: &[bool], a: Src<T>, b: Src<T>, mask: &[bool]) {
    match (a, b) {
        (Src::Field(x), Src::Field(y)) => {
            par::zip3(d, c, x, y, mask, |_, c, x, y| if c { x } else { y })
        }
        (Src::Dst, Src::Field(y)) => par::zip2(d, c, y, mask, |d, c, y| if c { d } else { y }),
        (Src::Field(x), Src::Dst) => par::zip2(d, c, x, mask, |d, c, x| if c { x } else { d }),
        (Src::Dst, Src::Dst) => {}
        _ => unreachable!("select has no immediate form"),
    }
}

/// `d[i] = d[i] ? a[i] : b[i]` at active lanes: an all-`Bool` select whose
/// condition is the destination.
fn select_on_dst(d: &mut [bool], a: Src<bool>, b: Src<bool>, mask: &[bool]) {
    match (a, b) {
        (Src::Field(x), Src::Field(y)) => par::zip2(d, x, y, mask, |d, x, y| if d { x } else { y }),
        (Src::Dst, Src::Field(y)) => par::zip1(d, y, mask, |d, y| d | y),
        (Src::Field(x), Src::Dst) => par::zip1(d, x, mask, |d, x| d & x),
        (Src::Dst, Src::Dst) => {}
        _ => unreachable!("select has no immediate form"),
    }
}

/// SplitMix64, used for the machine's deterministic per-VP PRNG.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Machine {
    fn same_vp(&self, ids: &[FieldId]) -> Result<usize> {
        let vp = ids[0].vp;
        for id in ids {
            if id.vp != vp {
                return Err(CmError::VpSetMismatch);
            }
        }
        self.vp_size(vp)
    }

    /// Masked copy between two same-typed fields of one VP set (the
    /// shared tail of `copy` and identity `convert`).
    fn copy_masked(&mut self, dst: FieldId, src: FieldId) -> Result<()> {
        if dst == src {
            return Ok(());
        }
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        match (d, peers.src(src)?) {
            (FieldData::I64(dv), FieldData::I64(sv)) => par::zip1(dv, sv, mask, |_, s| s),
            (FieldData::F64(dv), FieldData::F64(sv)) => par::zip1(dv, sv, mask, |_, s| s),
            (FieldData::Bool(dv), FieldData::Bool(sv)) => par::zip1(dv, sv, mask, |_, s| s),
            _ => unreachable!("types validated by caller"),
        }
        Ok(())
    }

    /// `dst[i] = imm` for active `i`.
    pub fn set_imm(&mut self, dst: FieldId, imm: Scalar) -> Result<()> {
        self.write_with(dst, Write::Active, |m| {
            let size = m.same_vp(&[dst])?;
            m.tick(OpClass::Alu, size)?;
            let (d, peers) = m.split_dst(dst)?;
            let mask = peers.mask(dst.vp)?;
            match (d, imm) {
                (FieldData::I64(v), Scalar::Int(x)) => par::zip0(v, mask, |_| x),
                (FieldData::F64(v), Scalar::Float(x)) => par::zip0(v, mask, |_| x),
                (FieldData::Bool(v), Scalar::Bool(x)) => par::zip0(v, mask, |_| x),
                (d, s) => {
                    return Err(CmError::TypeMismatch {
                        expected: d.elem_type(),
                        found: s.elem_type(),
                    })
                }
            }
            Ok(())
        })
    }

    /// `dst[i] = src[i]` for active `i`. Types must match.
    pub fn copy(&mut self, dst: FieldId, src: FieldId) -> Result<()> {
        self.write_with(dst, Write::active_unless(dst == src), |m| {
            let size = m.same_vp(&[dst, src])?;
            let (dty, sty) = (m.field(dst)?.elem_type(), m.field(src)?.elem_type());
            if dty != sty {
                return Err(CmError::TypeMismatch { expected: dty, found: sty });
            }
            m.tick(OpClass::Alu, size)?;
            m.copy_masked(dst, src)
        })
    }

    /// `dst[i] = (dst_type) src[i]` for active `i`: numeric conversion.
    /// Int↔Float truncates toward zero; Bool↔numeric uses C truthiness.
    pub fn convert(&mut self, dst: FieldId, src: FieldId) -> Result<()> {
        self.write_with(dst, Write::active_unless(dst == src), |m| m.convert_lanes(dst, src))
    }

    fn convert_lanes(&mut self, dst: FieldId, src: FieldId) -> Result<()> {
        let size = self.same_vp(&[dst, src])?;
        let (dty, sty) = (self.field(dst)?.elem_type(), self.field(src)?.elem_type());
        self.tick(OpClass::Alu, size)?;
        if dty == sty {
            return self.copy_masked(dst, src);
        }
        // Cross-type: distinct element types means distinct fields, so the
        // source can never alias the destination.
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        match (d, peers.src(src)?) {
            (FieldData::F64(dv), FieldData::I64(sv)) => par::zip1(dv, sv, mask, |_, x| x as f64),
            (FieldData::Bool(dv), FieldData::I64(sv)) => par::zip1(dv, sv, mask, |_, x| x != 0),
            (FieldData::I64(dv), FieldData::F64(sv)) => par::zip1(dv, sv, mask, |_, x| x as i64),
            (FieldData::Bool(dv), FieldData::F64(sv)) => par::zip1(dv, sv, mask, |_, x| x != 0.0),
            (FieldData::I64(dv), FieldData::Bool(sv)) => par::zip1(dv, sv, mask, |_, x| x as i64),
            (FieldData::F64(dv), FieldData::Bool(sv)) => {
                par::zip1(dv, sv, mask, |_, x| (x as i64) as f64)
            }
            _ => unreachable!("identity casts handled above"),
        }
        Ok(())
    }

    /// Unary elementwise op.
    pub fn unop(&mut self, op: UnOp, dst: FieldId, src: FieldId) -> Result<()> {
        self.write_with(dst, Write::active_unless(dst == src), |m| m.unop_lanes(op, dst, src))
    }

    fn unop_lanes(&mut self, op: UnOp, dst: FieldId, src: FieldId) -> Result<()> {
        let size = self.same_vp(&[dst, src])?;
        let sty = self.field(src)?.elem_type();
        let valid = matches!(
            (op, sty),
            (UnOp::Neg | UnOp::Abs, ElemType::Int | ElemType::Float)
                | (UnOp::Not, ElemType::Bool)
                | (UnOp::BitNot, ElemType::Int)
        );
        if !valid {
            return Err(CmError::TypeMismatch { expected: ElemType::Int, found: sty });
        }
        let dty = self.field(dst)?.elem_type();
        if dty != sty {
            return Err(CmError::TypeMismatch { expected: dty, found: sty });
        }
        self.tick(OpClass::Alu, size)?;
        /// `d[i] = f(src[i])`, in place when `src` is `d`.
        fn lanes<T: Elem>(d: &mut [T], src: Src<T>, mask: &[bool], f: impl Fn(T) -> T + Sync) {
            match src {
                Src::Dst => par::zip0(d, mask, f),
                Src::Field(s) => par::zip1(d, s, mask, |_, x| f(x)),
                Src::Imm(_) => unreachable!("unop has no immediate form"),
            }
        }
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        let src = Operand::Field(src);
        match d {
            FieldData::I64(dv) => {
                let src = Src::resolve(&peers, dst, src)?;
                match op {
                    // wrapping: neg/abs of i64::MIN must not trip overflow checks
                    UnOp::Neg => lanes(dv, src, mask, i64::wrapping_neg),
                    UnOp::Abs => lanes(dv, src, mask, i64::wrapping_abs),
                    UnOp::BitNot => lanes(dv, src, mask, |x: i64| !x),
                    UnOp::Not => unreachable!("op/type combination validated above"),
                }
            }
            FieldData::F64(dv) => {
                let src = Src::resolve(&peers, dst, src)?;
                match op {
                    UnOp::Neg => lanes(dv, src, mask, |x: f64| -x),
                    UnOp::Abs => lanes(dv, src, mask, f64::abs),
                    _ => unreachable!("op/type combination validated above"),
                }
            }
            FieldData::Bool(dv) => lanes(dv, Src::resolve(&peers, dst, src)?, mask, |x: bool| !x),
        }
        Ok(())
    }

    /// Binary elementwise op: `dst[i] = a[i] op b[i]` for active `i`.
    pub fn binop(&mut self, op: BinOp, dst: FieldId, a: FieldId, b: FieldId) -> Result<()> {
        self.binop_operands(op, dst, Operand::Field(a), Operand::Field(b))
    }

    /// `dst[i] = a[i] op imm` for active `i`.
    pub fn binop_imm(&mut self, op: BinOp, dst: FieldId, a: FieldId, imm: Scalar) -> Result<()> {
        self.with_broadcast(a, imm, |m| {
            m.binop_operands(op, dst, Operand::Field(a), Operand::Imm(imm))
        })
    }

    /// `dst[i] = imm op b[i]` for active `i` (immediate on the left, for
    /// non-commutative ops).
    pub fn binop_imm_l(&mut self, op: BinOp, dst: FieldId, imm: Scalar, b: FieldId) -> Result<()> {
        self.with_broadcast(b, imm, |m| {
            m.binop_operands(op, dst, Operand::Imm(imm), Operand::Field(b))
        })
    }

    /// Account for the front end broadcasting `imm` over `peer`'s VP set
    /// around `op`: the temporary field's bytes are held against the
    /// memory budget for the op's duration and the broadcast costs one ALU
    /// instruction, exactly as if the field were materialised — which the
    /// host, capturing the scalar in the kernel closure, never does.
    fn with_broadcast(
        &mut self,
        peer: FieldId,
        imm: Scalar,
        op: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<()> {
        let size = self.vp_size(peer.vp)?;
        let bytes = (size as u64).saturating_mul(elem_bytes(imm.elem_type()));
        self.charge_mem(bytes)?;
        let res = self.tick(OpClass::Alu, size).and_then(|()| op(self));
        self.release_mem(bytes);
        res
    }

    /// The one body of `binop`, `binop_imm` and `binop_imm_l`.
    fn binop_operands(&mut self, op: BinOp, dst: FieldId, a: Operand, b: Operand) -> Result<()> {
        let is_dst = |o: Operand| matches!(o, Operand::Field(id) if id == dst);
        let write = Write::active_unless(is_dst(a) || is_dst(b));
        self.write_with(dst, write, |m| m.binop_lanes(op, dst, a, b))
    }

    fn binop_lanes(&mut self, op: BinOp, dst: FieldId, a: Operand, b: Operand) -> Result<()> {
        let size = match (a, b) {
            (Operand::Field(a), Operand::Field(b)) => self.same_vp(&[dst, a, b])?,
            (Operand::Field(f), Operand::Imm(_)) | (Operand::Imm(_), Operand::Field(f)) => {
                self.same_vp(&[dst, f])?
            }
            (Operand::Imm(_), Operand::Imm(_)) => unreachable!("no op takes two immediates"),
        };
        let ty = |m: &Self, o: Operand| match o {
            Operand::Field(id) => m.field(id).map(|f| f.elem_type()),
            Operand::Imm(s) => Ok(s.elem_type()),
        };
        let (ta, tb) = (ty(self, a)?, ty(self, b)?);
        if ta != tb {
            return Err(CmError::TypeMismatch { expected: ta, found: tb });
        }
        match ta {
            ElemType::Int => {
                if op.is_logical() {
                    return Err(CmError::TypeMismatch {
                        expected: ElemType::Bool,
                        found: ElemType::Int,
                    });
                }
            }
            ElemType::Float => {
                if op.is_logical() || op.int_only() {
                    return Err(CmError::Unsupported("integer/logical op on float field"));
                }
            }
            ElemType::Bool => {
                if !matches!(
                    op,
                    BinOp::LogAnd | BinOp::LogOr | BinOp::LogXor | BinOp::Eq | BinOp::Ne
                ) {
                    return Err(CmError::Unsupported("arithmetic on bool field"));
                }
            }
        }
        let rty = op.result_type(ta);
        let dty = self.field(dst)?.elem_type();
        if dty != rty {
            return Err(CmError::TypeMismatch { expected: dty, found: rty });
        }
        // Active zero divisors are an error; inactive ones are fine because
        // the kernels never evaluate inactive positions.
        if ta == ElemType::Int && matches!(op, BinOp::Div | BinOp::Mod) {
            let context = &self.vp(dst.vp)?.context;
            let zero_divisor = match b {
                Operand::Field(b) => {
                    par::any2(self.int_data(b)?, context.current(), |&q, &m| m && q == 0)
                }
                Operand::Imm(s) => s.as_int() == 0 && context.any_active(),
            };
            if zero_divisor {
                return Err(CmError::DivideByZero);
            }
        }
        self.tick(OpClass::Alu, size)?;
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        match ta {
            ElemType::Int if op == BinOp::ULt => {
                let (x, y) = Src::<i64>::resolve2(&peers, dst, a, b)?;
                zip_cmp(bool::slice_mut(d), x, y, mask, |p, q| (p as u64) < (q as u64))
            }
            ElemType::Int if op.is_comparison() => {
                let (x, y) = Src::<i64>::resolve2(&peers, dst, a, b)?;
                compare(op, bool::slice_mut(d), x, y, mask)
            }
            ElemType::Float if op.is_comparison() => {
                let (x, y) = Src::<f64>::resolve2(&peers, dst, a, b)?;
                compare(op, bool::slice_mut(d), x, y, mask)
            }
            ElemType::Int => {
                let (x, y) = Src::resolve2(&peers, dst, a, b)?;
                int_arith(op, i64::slice_mut(d), x, y, mask)
            }
            ElemType::Float => {
                let (x, y) = Src::resolve2(&peers, dst, a, b)?;
                float_arith(op, f64::slice_mut(d), x, y, mask)
            }
            ElemType::Bool => {
                let (x, y) = Src::resolve2(&peers, dst, a, b)?;
                bool_logic(op, bool::slice_mut(d), x, y, mask)
            }
        }
        Ok(())
    }

    /// Copy a field everywhere, ignoring the context mask. Used by the
    /// executor to snapshot state for fixed-point detection (`*solve`),
    /// where router scatters may have written outside the current mask.
    pub fn copy_unconditional(&mut self, dst: FieldId, src: FieldId) -> Result<()> {
        let write = if dst == src { Write::Partial } else { Write::All };
        self.write_with(dst, write, |m| {
            let size = m.same_vp(&[dst, src])?;
            let (dty, sty) = (m.field(dst)?.elem_type(), m.field(src)?.elem_type());
            if dty != sty {
                return Err(CmError::TypeMismatch { expected: dty, found: sty });
            }
            m.tick(OpClass::Alu, size)?;
            if dst == src {
                return Ok(());
            }
            let (d, peers) = m.split_dst(dst)?;
            d.clone_from_reusing(peers.src(src)?);
            Ok(())
        })
    }

    /// Global test: do `a` and `b` differ anywhere (regardless of the
    /// context mask)? A combine-tree operation, charged as a scan.
    pub fn any_ne(&mut self, a: FieldId, b: FieldId) -> Result<bool> {
        let size = self.same_vp(&[a, b])?;
        let fa = self.data(a)?;
        let fb = self.data(b)?;
        let ne = match (fa, fb) {
            (FieldData::I64(x), FieldData::I64(y)) => par::any2(x, y, |p, q| p != q),
            (FieldData::F64(x), FieldData::F64(y)) => par::any2(x, y, |p, q| p != q),
            (FieldData::Bool(x), FieldData::Bool(y)) => par::any2(x, y, |p, q| p != q),
            (x, y) => {
                return Err(CmError::TypeMismatch {
                    expected: x.elem_type(),
                    found: y.elem_type(),
                })
            }
        };
        self.tick(OpClass::Scan, size)?;
        Ok(ne)
    }

    /// Fill a field everywhere, ignoring the context mask (front-end
    /// broadcast used for immediates and initialisation).
    pub fn fill_unconditional(&mut self, dst: FieldId, imm: Scalar) -> Result<()> {
        self.write_with(dst, Write::All, |m| {
            let size = m.same_vp(&[dst])?;
            let field = m.field_mut(dst)?;
            match (&mut field.data, imm) {
                (FieldData::I64(v), Scalar::Int(x)) => par::fill(v, x),
                (FieldData::F64(v), Scalar::Float(x)) => par::fill(v, x),
                (FieldData::Bool(v), Scalar::Bool(x)) => par::fill(v, x),
                (d, s) => {
                    return Err(CmError::TypeMismatch {
                        expected: d.elem_type(),
                        found: s.elem_type(),
                    })
                }
            }
            m.tick(OpClass::Alu, size)
        })
    }

    /// `dst[i] = cond[i] ? a[i] : b[i]` for active `i`.
    pub fn select(&mut self, dst: FieldId, cond: FieldId, a: FieldId, b: FieldId) -> Result<()> {
        let write = Write::active_unless(dst == cond || dst == a || dst == b);
        self.write_with(dst, write, |m| m.select_lanes(dst, cond, a, b))
    }

    fn select_lanes(&mut self, dst: FieldId, cond: FieldId, a: FieldId, b: FieldId) -> Result<()> {
        let size = self.same_vp(&[dst, cond, a, b])?;
        let cty = self.field(cond)?.elem_type();
        if cty != ElemType::Bool {
            return Err(CmError::TypeMismatch { expected: ElemType::Bool, found: cty });
        }
        let (ta, tb) = (self.field(a)?.elem_type(), self.field(b)?.elem_type());
        if ta != tb {
            return Err(CmError::TypeMismatch { expected: ta, found: tb });
        }
        let dty = self.field(dst)?.elem_type();
        if dty != ta {
            return Err(CmError::TypeMismatch { expected: dty, found: ta });
        }
        self.tick(OpClass::Alu, size)?;
        let (d, peers) = self.split_dst(dst)?;
        let mask = peers.mask(dst.vp)?;
        let (a, b) = (Operand::Field(a), Operand::Field(b));
        if cond == dst {
            let (x, y) = Src::resolve2(&peers, dst, a, b)?;
            select_on_dst(bool::slice_mut(d), x, y, mask);
            return Ok(());
        }
        let c = bool::slice(peers.src(cond)?);
        match d {
            FieldData::I64(dv) => {
                let (x, y) = Src::resolve2(&peers, dst, a, b)?;
                select_lanes(dv, c, x, y, mask)
            }
            FieldData::F64(dv) => {
                let (x, y) = Src::resolve2(&peers, dst, a, b)?;
                select_lanes(dv, c, x, y, mask)
            }
            FieldData::Bool(dv) => {
                let (x, y) = Src::resolve2(&peers, dst, a, b)?;
                select_lanes(dv, c, x, y, mask)
            }
        }
        Ok(())
    }

    /// `dst[i] = i` (the VP's send address) for active `i`. `dst` must be Int.
    pub fn iota(&mut self, dst: FieldId) -> Result<()> {
        self.index_map(dst, |_| {
            Ok(|d: &mut [i64], mask: &[bool]| par::zip_index(d, mask, |i| i as i64))
        })
    }

    /// `dst[i] = coordinate of VP i along axis` for active `i`.
    ///
    /// This is how index-set elements (`i`, `j`, ...) materialise on the
    /// machine: a par over `(I, J)` creates a 2-D VP set and each element
    /// identifier is the self-coordinate along one axis. The kernel
    /// ([`par::axis_runs`]) fills runs of equal coordinates and divides
    /// nowhere per lane.
    pub fn axis_coord(&mut self, dst: FieldId, axis: usize) -> Result<()> {
        self.index_map(dst, |m| {
            let geom = &m.vp(dst.vp)?.geom;
            let (stride, extent) = (geom.stride(axis)?, geom.extent(axis)?);
            Ok(move |d: &mut [i64], mask: &[bool]| par::axis_runs(d, mask, stride, extent))
        })
    }

    /// `dst[i] = uniform random in [0, modulus)` for active `i`,
    /// deterministic in `(seed, i)`. Models the per-processor `rand()` of
    /// the paper's benchmark initialisation.
    pub fn rand_int(&mut self, dst: FieldId, modulus: i64, seed: u64) -> Result<()> {
        if modulus <= 0 {
            return Err(CmError::DivideByZero);
        }
        self.index_map(dst, |_| {
            Ok(move |d: &mut [i64], mask: &[bool]| {
                par::zip_index(d, mask, |i| {
                    (splitmix64(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407))
                        % modulus as u64) as i64
                })
            })
        })
    }

    /// `dst[i] = f(i)` for active `i`, `dst` an Int field: the shared body
    /// of `iota`, `axis_coord` and `rand_int`. `make` validates the op's
    /// own operands and builds the kernel, which gets the destination and
    /// the mask.
    fn index_map<K>(&mut self, dst: FieldId, make: impl FnOnce(&Self) -> Result<K>) -> Result<()>
    where
        K: FnOnce(&mut [i64], &[bool]),
    {
        self.write_with(dst, Write::Active, |m| {
            let size = m.same_vp(&[dst])?;
            m.int_data(dst)?; // type check
            let kernel = make(m)?;
            m.tick(OpClass::Alu, size)?;
            let (d, peers) = m.split_dst(dst)?;
            kernel(i64::slice_mut(d), peers.mask(dst.vp)?);
            Ok(())
        })
    }

    /// Materialise the current activity mask of `dst`'s VP set into `dst`
    /// (a bool field), writing **unconditionally**. This is how nested
    /// constructs transfer their enabled set onto an extended VP set.
    pub fn read_context(&mut self, dst: FieldId) -> Result<()> {
        self.write_with(dst, Write::All, |m| {
            let size = m.same_vp(&[dst])?;
            m.bool_data(dst)?; // type check
            let (d, peers) = m.split_dst(dst)?;
            let mask = peers.mask(dst.vp)?;
            let FieldData::Bool(dv) = d else { unreachable!() };
            dv.copy_from_slice(mask);
            m.tick(OpClass::Context, size)
        })
    }

    /// Front-end read of one element (ignores the context mask).
    pub fn read_elem(&mut self, id: FieldId, index: usize) -> Result<Scalar> {
        let size = self.vp_size(id.vp)?;
        if index >= size {
            return Err(CmError::IndexOutOfRange { index, size });
        }
        self.tick(OpClass::FrontEnd, 1)?;
        Ok(match self.data(id)? {
            FieldData::I64(v) => Scalar::Int(v[index]),
            FieldData::F64(v) => Scalar::Float(v[index]),
            FieldData::Bool(v) => Scalar::Bool(v[index]),
        })
    }

    /// Front-end write of one element (ignores the context mask).
    pub fn write_elem(&mut self, id: FieldId, index: usize, value: Scalar) -> Result<()> {
        self.write_with(id, Write::Partial, |m| {
            let size = m.vp_size(id.vp)?;
            if index >= size {
                return Err(CmError::IndexOutOfRange { index, size });
            }
            m.tick(OpClass::FrontEnd, 1)?;
            let field = m.field_mut(id)?;
            match (&mut field.data, value) {
                (FieldData::I64(v), Scalar::Int(x)) => v[index] = x,
                (FieldData::F64(v), Scalar::Float(x)) => v[index] = x,
                (FieldData::Bool(v), Scalar::Bool(x)) => v[index] = x,
                (d, s) => {
                    return Err(CmError::TypeMismatch {
                        expected: d.elem_type(),
                        found: s.elem_type(),
                    })
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn setup(n: usize) -> (Machine, crate::machine::VpSetId) {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[n]).unwrap();
        (m, vp)
    }

    #[test]
    fn imm_copy_convert() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_float(vp, "b").unwrap();
        m.set_imm(a, Scalar::Int(7)).unwrap();
        assert_eq!(m.read_elem(a, 2).unwrap(), Scalar::Int(7));
        m.convert(b, a).unwrap();
        assert_eq!(m.read_elem(b, 0).unwrap(), Scalar::Float(7.0));
        let c = m.alloc_int(vp, "c").unwrap();
        m.copy(c, a).unwrap();
        assert_eq!(m.read_elem(c, 3).unwrap(), Scalar::Int(7));
        assert!(m.copy(c, b).is_err(), "copy requires matching types");
    }

    #[test]
    fn binops_int() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        m.iota(a).unwrap(); // 0 1 2 3
        m.set_imm(b, Scalar::Int(3)).unwrap();
        m.binop(BinOp::Add, d, a, b).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[3, 4, 5, 6]);
        m.binop(BinOp::Mul, d, a, a).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, 4, 9]);
        m.binop(BinOp::Max, d, a, b).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[3, 3, 3, 3]);
        m.binop(BinOp::Min, d, a, b).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, 2, 3]);
        m.binop_imm(BinOp::Mod, d, a, Scalar::Int(2)).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, 0, 1]);
        m.binop_imm_l(BinOp::Sub, d, Scalar::Int(10), a).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[10, 9, 8, 7]);
    }

    #[test]
    fn comparisons_produce_bool() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let t = m.alloc_bool(vp, "t").unwrap();
        m.iota(a).unwrap();
        m.binop_imm(BinOp::Lt, t, a, Scalar::Int(2)).unwrap();
        assert_eq!(m.bool_data(t).unwrap(), &[true, true, false, false]);
        m.binop_imm(BinOp::Eq, t, a, Scalar::Int(3)).unwrap();
        assert_eq!(m.bool_data(t).unwrap(), &[false, false, false, true]);
    }

    #[test]
    fn unsigned_less_than_is_one_bounds_check() {
        let (mut m, vp) = setup(6);
        let (a, t) = (m.alloc_int(vp, "a").unwrap(), m.alloc_bool(vp, "t").unwrap());
        let n = 5;
        let lanes = vec![i64::MIN, -1, 0, n - 1, n, i64::MAX];
        m.write_all(a, FieldData::I64(lanes)).unwrap();
        let before = m.counters().alu;
        m.binop_imm(BinOp::ULt, t, a, Scalar::Int(n)).unwrap();
        assert_eq!(m.bool_data(t).unwrap(), &[false, false, true, true, false, false]);
        assert_eq!(m.counters().alu - before, 2, "the broadcast and the compare");
        // Field against field, and the immediate on the left.
        let b = m.alloc_int(vp, "b").unwrap();
        m.set_imm(b, Scalar::Int(n)).unwrap();
        m.binop(BinOp::ULt, t, a, b).unwrap();
        assert_eq!(m.bool_data(t).unwrap(), &[false, false, true, true, false, false]);
        m.binop_imm_l(BinOp::ULt, t, Scalar::Int(-1), a).unwrap();
        assert_eq!(m.bool_data(t).unwrap(), &[false, false, false, false, false, false]);
        // Only Int operands.
        let (f, g) = (m.alloc_float(vp, "f").unwrap(), m.alloc_bool(vp, "g").unwrap());
        assert!(m.binop_imm(BinOp::ULt, t, f, Scalar::Float(1.0)).is_err());
        assert!(m.binop(BinOp::ULt, t, g, g).is_err());
    }

    #[test]
    fn division_by_zero_only_if_active() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        m.set_imm(a, Scalar::Int(8)).unwrap();
        m.iota(b).unwrap(); // b[0] = 0
        assert_eq!(m.binop(BinOp::Div, d, a, b), Err(CmError::DivideByZero));
        // Deactivate VP 0 and retry: now fine.
        let nz = m.alloc_bool(vp, "nz").unwrap();
        m.binop_imm(BinOp::Ne, nz, b, Scalar::Int(0)).unwrap();
        m.push_context(nz).unwrap();
        m.binop(BinOp::Div, d, a, b).unwrap();
        m.pop_context(vp).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 8, 4, 2]); // d[0] untouched
    }

    #[test]
    fn context_masks_writes() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let mask = m.alloc_bool(vp, "m").unwrap();
        m.set_imm(a, Scalar::Int(1)).unwrap();
        m.write_all(mask, FieldData::Bool(vec![true, false, true, false])).unwrap();
        m.push_context(mask).unwrap();
        m.set_imm(a, Scalar::Int(9)).unwrap();
        m.pop_context(vp).unwrap();
        assert_eq!(m.int_data(a).unwrap(), &[9, 1, 9, 1]);
    }

    #[test]
    fn select_and_unops() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        let c = m.alloc_bool(vp, "c").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        m.iota(a).unwrap();
        m.binop_imm_l(BinOp::Sub, b, Scalar::Int(0), a).unwrap(); // b = -a
        m.binop_imm(BinOp::Ge, c, a, Scalar::Int(2)).unwrap();
        m.select(d, c, a, b).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, -1, 2, 3]);
        m.unop(UnOp::Neg, d, d).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, -2, -3]);
        m.unop(UnOp::Abs, d, d).unwrap();
        assert_eq!(m.int_data(d).unwrap(), &[0, 1, 2, 3]);
        m.unop(UnOp::Not, c, c).unwrap();
        assert_eq!(m.bool_data(c).unwrap(), &[true, true, false, false]);
    }

    #[test]
    fn axis_coordinates() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("g", &[2, 3]).unwrap();
        let i = m.alloc_int(vp, "i").unwrap();
        let j = m.alloc_int(vp, "j").unwrap();
        m.axis_coord(i, 0).unwrap();
        m.axis_coord(j, 1).unwrap();
        assert_eq!(m.int_data(i).unwrap(), &[0, 0, 0, 1, 1, 1]);
        assert_eq!(m.int_data(j).unwrap(), &[0, 1, 2, 0, 1, 2]);
        assert!(m.axis_coord(i, 2).is_err());
    }

    #[test]
    fn rand_is_deterministic_and_bounded() {
        let (mut m, vp) = setup(64);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        m.rand_int(a, 10, 42).unwrap();
        m.rand_int(b, 10, 42).unwrap();
        assert_eq!(m.int_data(a).unwrap(), m.int_data(b).unwrap());
        assert!(m.int_data(a).unwrap().iter().all(|&x| (0..10).contains(&x)));
        m.rand_int(b, 10, 43).unwrap();
        assert_ne!(m.int_data(a).unwrap(), m.int_data(b).unwrap());
        assert!(m.rand_int(a, 0, 1).is_err());
    }

    #[test]
    fn elem_access_bounds() {
        let (mut m, vp) = setup(2);
        let a = m.alloc_int(vp, "a").unwrap();
        m.write_elem(a, 1, Scalar::Int(5)).unwrap();
        assert_eq!(m.read_elem(a, 1).unwrap(), Scalar::Int(5));
        assert!(matches!(m.read_elem(a, 2), Err(CmError::IndexOutOfRange { .. })));
        assert!(m.write_elem(a, 0, Scalar::Float(1.0)).is_err());
    }

    #[test]
    fn read_context_materialises_mask() {
        let (mut m, vp) = setup(4);
        let mask = m.alloc_bool(vp, "m").unwrap();
        let out = m.alloc_bool(vp, "out").unwrap();
        m.write_all(mask, FieldData::Bool(vec![true, false, true, false])).unwrap();
        m.push_context(mask).unwrap();
        m.read_context(out).unwrap();
        m.pop_context(vp).unwrap();
        assert_eq!(m.bool_data(out).unwrap(), &[true, false, true, false]);
        // At base context it reads all-true, even though `out` was
        // partially masked before (read_context writes unconditionally).
        m.read_context(out).unwrap();
        assert_eq!(m.bool_data(out).unwrap(), &[true; 4]);
    }

    #[test]
    fn copy_unconditional_ignores_mask() {
        let (mut m, vp) = setup(4);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        let none = m.alloc_bool(vp, "none").unwrap(); // all false
        m.iota(a).unwrap();
        m.push_context(none).unwrap();
        m.copy(b, a).unwrap(); // masked: no effect
        assert_eq!(m.int_data(b).unwrap(), &[0; 4]);
        m.copy_unconditional(b, a).unwrap();
        assert_eq!(m.int_data(b).unwrap(), &[0, 1, 2, 3]);
        m.pop_context(vp).unwrap();
        let f = m.alloc_float(vp, "f").unwrap();
        assert!(m.copy_unconditional(f, a).is_err());
    }

    #[test]
    fn any_ne_global_test() {
        let (mut m, vp) = setup(3);
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_int(vp, "b").unwrap();
        assert!(!m.any_ne(a, b).unwrap());
        m.write_elem(b, 2, Scalar::Int(9)).unwrap();
        assert!(m.any_ne(a, b).unwrap());
        // Ignores the context mask by design (fixed-point detection).
        let none = m.alloc_bool(vp, "none").unwrap();
        m.push_context(none).unwrap();
        assert!(m.any_ne(a, b).unwrap());
        m.pop_context(vp).unwrap();
        let f = m.alloc_float(vp, "f").unwrap();
        assert!(m.any_ne(a, f).is_err());
    }

    #[test]
    fn logical_ops_on_bool_only() {
        let (mut m, vp) = setup(2);
        let a = m.alloc_int(vp, "a").unwrap();
        let t = m.alloc_bool(vp, "t").unwrap();
        let u = m.alloc_bool(vp, "u").unwrap();
        assert!(m.binop(BinOp::LogAnd, a, a, a).is_err());
        m.write_all(t, FieldData::Bool(vec![true, false])).unwrap();
        m.write_all(u, FieldData::Bool(vec![true, true])).unwrap();
        let r = m.alloc_bool(vp, "r").unwrap();
        m.binop(BinOp::LogAnd, r, t, u).unwrap();
        assert_eq!(m.bool_data(r).unwrap(), &[true, false]);
        m.binop(BinOp::LogXor, r, t, u).unwrap();
        assert_eq!(m.bool_data(r).unwrap(), &[false, true]);
    }
}
