//! Expression evaluation inside an iteration space.
//!
//! Expressions evaluate to [`PV`]s: front-end scalars or fields on the
//! current iteration space. Which of the two an expression yields is
//! sema's `Rank` rule, and sema has rejected every program that would
//! hand a field to what takes a scalar (a front-end variable, a user
//! function's parameter): the `match`es here implement the rule, and the
//! arms it excludes are `unreachable!`. Mixed scalar/field operations
//! broadcast the scalar as an immediate (one SIMD instruction), mirroring
//! the CM's front-end-broadcast execution model. A space is always open
//! here — front-end expressions are VM instructions — so `&&`/`||` and
//! `?:` evaluate both sides synchronously (no short-circuit: all enabled
//! processors execute every instruction).

use uc_cm::{BinOp, ElemType, Scalar, UnOp};

use super::{LocalVar, RResult, Run, RuntimeError, Storage, PV};
use crate::ast::{BinaryOp, Callee, Expr, LocalId, Name, Ref, UnaryOp};
use crate::sema::{LocalInfo, LocalKind};
use crate::stdlib::{self, Builtin};

impl Run<'_> {
    /// Evaluate an expression in the current context: a value sema gave
    /// an id may be kept (see `access`).
    pub(crate) fn eval(&mut self, e: &Expr) -> RResult<PV> {
        match e.value() {
            Some(id) => self.eval_kept(e, id),
            None => self.compute(e),
        }
    }

    /// Evaluate `e` itself, whatever id it has.
    pub(crate) fn compute(&mut self, e: &Expr) -> RResult<PV> {
        match e {
            Expr::IntLit(v, _) => Ok(PV::Scalar(Scalar::Int(*v))),
            Expr::FloatLit(v, _) => Ok(PV::Scalar(Scalar::Float(*v))),
            Expr::Inf(_) => Ok(PV::Scalar(Scalar::Int(i64::MAX))),
            Expr::Ident(name, _) => self.read_ident(name),
            Expr::Index { base, subs, borrow, access, .. } => {
                self.read_storage(Storage::Array(base.to), *access, subs, *borrow)
            }
            Expr::Call { callee, args, .. } => self.eval_call(*callee, args),
            Expr::Unary { op, expr, .. } => {
                let v = self.eval(expr)?;
                self.apply_unary(*op, v)
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                self.apply_binary(*op, l, r)
            }
            Expr::Ternary { cond, then_e, else_e, .. } => {
                let c = self.eval(cond)?;
                let c = self.truthify(c)?;
                let t = self.eval(then_e)?;
                let f = self.eval(else_e)?;
                let ty = self.common_type(&t, &f)?;
                self.select(c, t, f, ty)
            }
            Expr::Assign { target, op, value, .. } => self.eval_assign(target, *op, value),
            Expr::Reduce(r) => self.eval_reduce(r),
        }
    }

    /// `c ? t : f` per element of the current space, as an owned field of
    /// type `ty`.
    pub(crate) fn select(&mut self, c: PV, t: PV, f: PV, ty: ElemType) -> RResult<PV> {
        let t = self.coerce_field(t, ty)?;
        let f = self.coerce_field(f, ty)?;
        let c = self.coerce_field(c, ElemType::Bool)?;
        let (PV::Field { id: cid, .. }, PV::Field { id: tid, .. }, PV::Field { id: fid, .. }) =
            (c, t, f)
        else {
            unreachable!()
        };
        let vp = self.cur_ctx().vp;
        let dst = self.machine.alloc_result(vp, "~sel", ty)?;
        self.machine.select(dst, cid, tid, fid)?;
        self.release(c);
        self.release(t);
        self.release(f);
        Ok(PV::owned(dst))
    }

    /// Sema's entry for the local `id` of the current activation.
    pub(crate) fn local(&self, id: LocalId) -> &LocalInfo {
        let func = self.frames.last().expect("frame").func;
        &self.checked.func_infos[func].locals[id as usize]
    }

    /// The value of an identifier, by what sema resolved it to.
    fn read_ident(&mut self, name: &Name) -> RResult<PV> {
        if let Some(s) = self.scalar_value(name.to) {
            return Ok(PV::Scalar(s));
        }
        match name.to {
            Ref::Elem(set) => self.elem_value(set),
            Ref::Local(id) => match self.frames.last().expect("frame").locals[id as usize] {
                Some(LocalVar::ParField { field, level }) => self.lift_to_current(field, level),
                _ => unreachable!("sema admits `{name}` only as a live per-VP scalar"),
            },
            _ => unreachable!("sema resolves every identifier; `{name}` is {:?}", name.to),
        }
    }

    /// The current value of a front-end scalar: a `#define`, a global, or
    /// a register local of this activation. `None` for what is per-VP —
    /// an index element, a per-VP local — or not a scalar.
    pub(crate) fn scalar_value(&self, to: Ref) -> Option<Scalar> {
        match to {
            Ref::Const(id) => Some(Scalar::Int(self.checked.unit.defines[id as usize].1)),
            Ref::Global(g) => Some(self.globals[g as usize]),
            Ref::Local(id) => match self.local(id).kind {
                LocalKind::Reg(r) => Some(self.regs[self.frames.last()?.base + r as usize]),
                _ => None,
            },
            _ => None,
        }
    }

    /// The element type a PV would have as a field.
    pub(crate) fn pv_type(&self, pv: &PV) -> RResult<ElemType> {
        Ok(match pv {
            PV::Scalar(s) => s.elem_type(),
            PV::Field { id, .. } => self.machine.elem_type(*id)?,
        })
    }

    /// Numeric join of two PV types (float wins; bool acts as int).
    pub(crate) fn common_type(&self, a: &PV, b: &PV) -> RResult<ElemType> {
        let (ta, tb) = (self.pv_type(a)?, self.pv_type(b)?);
        Ok(if ta == ElemType::Float || tb == ElemType::Float {
            ElemType::Float
        } else {
            ElemType::Int
        })
    }

    /// Convert a PV to a boolean (C truthiness).
    pub(crate) fn truthify(&mut self, pv: PV) -> RResult<PV> {
        match pv {
            PV::Scalar(s) => Ok(PV::Scalar(Scalar::Bool(s.as_bool()))),
            PV::Field { id, .. } => {
                if self.machine.elem_type(id)? == ElemType::Bool {
                    Ok(pv)
                } else {
                    self.coerce_field(pv, ElemType::Bool)
                }
            }
        }
    }

    fn apply_unary(&mut self, op: UnaryOp, v: PV) -> RResult<PV> {
        match (op, v) {
            (op, PV::Scalar(s)) => Ok(PV::Scalar(scalar_unary(op, s))),
            (UnaryOp::Neg, v) => {
                let ty = self.pv_type(&v)?;
                let ty = if ty == ElemType::Bool { ElemType::Int } else { ty };
                self.unop_field(UnOp::Neg, v, ty, "~neg")
            }
            (UnaryOp::Not, v) => self.unop_field(UnOp::Not, v, ElemType::Bool, "~not"),
            (UnaryOp::BitNot, v) => self.unop_field(UnOp::BitNot, v, ElemType::Int, "~bnot"),
        }
    }

    /// `op` on the field `v` converted to `ty`, as an owned field of `ty`.
    fn unop_field(&mut self, op: UnOp, v: PV, ty: ElemType, name: &str) -> RResult<PV> {
        let v = self.coerce_field(v, ty)?;
        let PV::Field { id, .. } = v else { unreachable!() };
        let dst = self.machine.alloc_result(self.cur_ctx().vp, name, ty)?;
        self.machine.unop(op, dst, id)?;
        self.release(v);
        Ok(PV::owned(dst))
    }

    pub(crate) fn apply_binary(&mut self, op: BinaryOp, l: PV, r: PV) -> RResult<PV> {
        if let (PV::Scalar(a), PV::Scalar(b)) = (&l, &r) {
            return Ok(PV::Scalar(scalar_binary(op, *a, *b)?));
        }
        // At least one side is a field: compute elementwise.
        let mop = machine_op(op);
        let (l, r) = match op {
            BinaryOp::LogAnd | BinaryOp::LogOr => {
                (self.truthify(l)?, self.truthify(r)?)
            }
            BinaryOp::Mod
            | BinaryOp::Shl
            | BinaryOp::Shr
            | BinaryOp::BitAnd
            | BinaryOp::BitOr
            | BinaryOp::BitXor => {
                (self.coerce_operand(l, ElemType::Int)?, self.coerce_operand(r, ElemType::Int)?)
            }
            // Arithmetic and comparisons: in the common type.
            _ => {
                let ty = self.common_type(&l, &r)?;
                (self.coerce_operand(l, ty)?, self.coerce_operand(r, ty)?)
            }
        };
        let vp = self.cur_ctx().vp;
        let out_ty = if op.is_comparison() || op == BinaryOp::LogAnd || op == BinaryOp::LogOr {
            ElemType::Bool
        } else {
            self.pv_type(&l)?
        };
        let dst = self.machine.alloc_result(vp, "~bin", out_ty)?;
        match (&l, &r) {
            (PV::Field { id: a, .. }, PV::Field { id: b, .. }) => {
                self.machine.binop(mop, dst, *a, *b)?
            }
            (PV::Field { id: a, .. }, PV::Scalar(s)) => {
                let s = super::space::coerce_scalar(*s, self.machine.elem_type(*a)?);
                self.machine.binop_imm(mop, dst, *a, s)?
            }
            (PV::Scalar(s), PV::Field { id: b, .. }) => {
                let s = super::space::coerce_scalar(*s, self.machine.elem_type(*b)?);
                self.machine.binop_imm_l(mop, dst, s, *b)?
            }
            (PV::Scalar(_), PV::Scalar(_)) => unreachable!("handled above"),
        }
        self.release(l);
        self.release(r);
        Ok(PV::owned(dst))
    }

    /// Coerce a PV operand to a type, preserving scalars as scalars.
    fn coerce_operand(&mut self, pv: PV, ty: ElemType) -> RResult<PV> {
        match pv {
            PV::Scalar(s) => Ok(PV::Scalar(super::space::coerce_scalar(s, ty))),
            PV::Field { .. } => self.coerce_field(pv, ty),
        }
    }

    // ---- calls ------------------------------------------------------------

    fn eval_call(&mut self, callee: Callee, args: &[Expr]) -> RResult<PV> {
        match callee {
            Callee::Builtin(Builtin::Power2) => {
                let v = self.eval(&args[0])?;
                match v {
                    PV::Scalar(s) => Ok(PV::Scalar(Scalar::Int(stdlib::power2(s.as_int())))),
                    PV::Field { .. } => {
                        let v = self.coerce_field(v, ElemType::Int)?;
                        let PV::Field { id, .. } = v else { unreachable!() };
                        let vp = self.cur_ctx().vp;
                        let dst = self.machine.alloc_result(vp, "~pow2", ElemType::Int)?;
                        self.machine.binop_imm_l(BinOp::Shl, dst, Scalar::Int(1), id)?;
                        self.release(v);
                        Ok(PV::owned(dst))
                    }
                }
            }
            Callee::Builtin(Builtin::Rand) => {
                let seed = self.next_rand_seed();
                let dst = self.machine.alloc_result(self.cur_ctx().vp, "~rand", ElemType::Int)?;
                self.machine.rand_int(dst, 1 << 31, seed)?;
                Ok(PV::owned(dst))
            }
            Callee::Builtin(Builtin::Abs) => match self.eval(&args[0])? {
                PV::Scalar(s) => Ok(PV::Scalar(scalar_abs(s))),
                v => {
                    let ty = self.pv_type(&v)?;
                    let ty = if ty == ElemType::Bool { ElemType::Int } else { ty };
                    self.unop_field(UnOp::Abs, v, ty, "~abs")
                }
            },
            Callee::Builtin(f @ (Builtin::Min | Builtin::Max)) => {
                let l = self.eval(&args[0])?;
                let r = self.eval(&args[1])?;
                let is_min = f == Builtin::Min;
                match (&l, &r) {
                    (PV::Scalar(a), PV::Scalar(b)) => {
                        Ok(PV::Scalar(scalar_minmax(*a, *b, is_min)))
                    }
                    _ => {
                        let ty = self.common_type(&l, &r)?;
                        let l = self.coerce_field(l, ty)?;
                        let r = self.coerce_field(r, ty)?;
                        let (PV::Field { id: a, .. }, PV::Field { id: b, .. }) = (&l, &r)
                        else {
                            unreachable!()
                        };
                        let dst = self.machine.alloc_result(self.cur_ctx().vp, "~mm", ty)?;
                        let mop = if is_min { BinOp::Min } else { BinOp::Max };
                        self.machine.binop(mop, dst, *a, *b)?;
                        self.release(l);
                        self.release(r);
                        Ok(PV::owned(dst))
                    }
                }
            }
            Callee::Func(f) => {
                // A front-end call, re-entering the VM — also from a
                // parallel context, where sema admits only scalar arguments
                // (e.g. helpers over seq elements).
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    match self.eval(a)? {
                        PV::Scalar(s) => vals.push(s),
                        PV::Field { .. } => unreachable!("a parallel argument to a user function"),
                    }
                }
                Ok(PV::Scalar(super::vm::call(self, f as usize, &vals)?))
            }
            Callee::Builtin(Builtin::Swap) | Callee::Unresolved => {
                unreachable!("sema resolves every call, and admits `swap` only as a statement")
            }
        }
    }
}

/// Front-end unary arithmetic on scalars (C semantics, wrapping ints).
pub(crate) fn scalar_unary(op: UnaryOp, s: Scalar) -> Scalar {
    match (op, s) {
        (UnaryOp::Neg, Scalar::Int(x)) => Scalar::Int(x.wrapping_neg()),
        (UnaryOp::Neg, Scalar::Float(x)) => Scalar::Float(-x),
        (UnaryOp::Neg, Scalar::Bool(b)) => Scalar::Int(-(b as i64)),
        (UnaryOp::Not, s) => Scalar::Int(!s.as_bool() as i64),
        (UnaryOp::BitNot, s) => Scalar::Int(!s.as_int()),
    }
}

/// Front-end `abs` (type-preserving; bool becomes int).
pub(crate) fn scalar_abs(s: Scalar) -> Scalar {
    match s {
        Scalar::Int(x) => Scalar::Int(x.wrapping_abs()),
        Scalar::Float(x) => Scalar::Float(x.abs()),
        Scalar::Bool(b) => Scalar::Int(b as i64),
    }
}

/// Front-end `min`/`max` with float promotion.
pub(crate) fn scalar_minmax(a: Scalar, b: Scalar, is_min: bool) -> Scalar {
    if a.elem_type() == ElemType::Float || b.elem_type() == ElemType::Float {
        let (x, y) = (a.as_float(), b.as_float());
        Scalar::Float(if is_min { x.min(y) } else { x.max(y) })
    } else {
        let (x, y) = (a.as_int(), b.as_int());
        Scalar::Int(if is_min { x.min(y) } else { x.max(y) })
    }
}

/// Front-end arithmetic on two ints: C semantics, wrapping; `None` is a
/// division by zero. The one home of every operator's integer meaning —
/// [`scalar_binary`] coerces and calls it, the VM calls it directly when
/// both registers hold ints.
#[inline]
pub(crate) fn int_binary(op: BinaryOp, x: i64, y: i64) -> Option<i64> {
    use BinaryOp::*;
    Some(match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div if y == 0 => return None,
        Div => x.wrapping_div(y),
        Mod if y == 0 => return None,
        Mod => x.wrapping_rem(y),
        Shl => x.wrapping_shl(y as u32),
        Shr => x.wrapping_shr(y as u32),
        BitAnd => x & y,
        BitOr => x | y,
        BitXor => x ^ y,
        Lt => (x < y) as i64,
        Le => (x <= y) as i64,
        Gt => (x > y) as i64,
        Ge => (x >= y) as i64,
        Eq => (x == y) as i64,
        Ne => (x != y) as i64,
        LogAnd => (x != 0 && y != 0) as i64,
        LogOr => (x != 0 || y != 0) as i64,
    })
}

/// Front-end arithmetic on scalars (C semantics, wrapping ints):
/// arithmetic and comparisons on floats when either side is one,
/// [`int_binary`] after coercion otherwise.
pub(crate) fn scalar_binary(op: BinaryOp, a: Scalar, b: Scalar) -> RResult<Scalar> {
    use BinaryOp::*;
    let float = a.elem_type() == ElemType::Float || b.elem_type() == ElemType::Float;
    let (x, y) = (a.as_float(), b.as_float());
    let ints = match op {
        Add | Sub | Mul | Div if float => {
            return Ok(Scalar::Float(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                _ => x / y,
            }))
        }
        Lt | Le | Gt | Ge | Eq | Ne if float => {
            return Ok(Scalar::Int(match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                Eq => x == y,
                _ => x != y,
            } as i64))
        }
        // Truth is taken before truncation: 0.5 is true.
        LogAnd | LogOr => (a.as_bool() as i64, b.as_bool() as i64),
        _ => (a.as_int(), b.as_int()),
    };
    int_binary(op, ints.0, ints.1).map(Scalar::Int).ok_or(RuntimeError::DivideByZero)
}

/// Map an AST binary op onto the machine's elementwise op.
fn machine_op(op: BinaryOp) -> BinOp {
    use BinaryOp::*;
    match op {
        Mul => BinOp::Mul,
        Div => BinOp::Div,
        Mod => BinOp::Mod,
        Add => BinOp::Add,
        Sub => BinOp::Sub,
        Shl => BinOp::Shl,
        Shr => BinOp::Shr,
        Lt => BinOp::Lt,
        Le => BinOp::Le,
        Gt => BinOp::Gt,
        Ge => BinOp::Ge,
        Eq => BinOp::Eq,
        Ne => BinOp::Ne,
        BitAnd => BinOp::BitAnd,
        BitXor => BinOp::BitXor,
        BitOr => BinOp::BitOr,
        LogAnd => BinOp::LogAnd,
        LogOr => BinOp::LogOr,
    }
}

/// Deterministic front-end `rand()` (the VM's `Rand`) built from the same
/// SplitMix stream as the machine's per-VP generator, at position 0.
pub(crate) fn front_end_rand(seed: u64) -> i64 {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x ^ (x >> 31)) % (1 << 31)) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_ops() {
        use BinaryOp::*;
        let i = |v| Scalar::Int(v);
        assert_eq!(scalar_binary(Add, i(2), i(3)).unwrap(), i(5));
        assert_eq!(scalar_binary(Sub, i(2), i(3)).unwrap(), i(-1));
        assert_eq!(scalar_binary(Mul, i(4), i(3)).unwrap(), i(12));
        assert_eq!(scalar_binary(Div, i(7), i(2)).unwrap(), i(3));
        assert_eq!(scalar_binary(Mod, i(7), i(2)).unwrap(), i(1));
        assert_eq!(scalar_binary(Lt, i(1), i(2)).unwrap(), i(1));
        assert_eq!(scalar_binary(Eq, i(2), i(2)).unwrap(), i(1));
        assert_eq!(scalar_binary(LogAnd, i(1), i(0)).unwrap(), i(0));
        assert_eq!(scalar_binary(Shl, i(1), i(4)).unwrap(), i(16));
        assert!(scalar_binary(Div, i(1), i(0)).is_err());
        assert!(scalar_binary(Mod, i(1), i(0)).is_err());
        // Float promotion.
        assert_eq!(
            scalar_binary(Add, Scalar::Float(0.5), i(1)).unwrap(),
            Scalar::Float(1.5)
        );
        assert_eq!(scalar_binary(Lt, Scalar::Float(0.5), i(1)).unwrap(), i(1));
    }

    #[test]
    fn front_end_rand_bounded_and_deterministic() {
        let a = front_end_rand(1);
        let b = front_end_rand(1);
        assert_eq!(a, b);
        assert!((0..(1 << 31)).contains(&a));
        assert_ne!(front_end_rand(1), front_end_rand(2));
    }
}
