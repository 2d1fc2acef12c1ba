//! Reduction evaluation (§3.2 of the paper).
//!
//! A reduction extends the current iteration space with its index sets,
//! evaluates each arm's operand synchronously for the enabled elements,
//! and folds the results:
//!
//! * at the front end the fold is one machine `reduce` (the CM's global
//!   combine tree);
//! * inside a parallel construct each enclosing iteration point needs its
//!   own fold, which compiles to a **combining router send** addressed by
//!   the enclosing point's linear index (`p / rest`). That address is
//!   built once per run for each geometry, on the base context before any
//!   arm mask, so every arm's send, in every round, can use it.
//!
//! The operand reads the enclosing construct's elements from the
//! reduction space's own coordinates, and inside a construct with no mask
//! of its own the reduction transfers no mask either (see `space`). So
//! Figure 5's `$<(K; d[i][k] + d[k][j])` under `par (I, J)` costs what
//! Figure 10's C\* does in router ops: two gets and one send per round.
//!
//! The *processor optimization* of §4 is applied here too: a histogram
//! `$op(I st (key[i] == j) e)` under `par (J)` computes its operand on
//! `|I|` processors, not `|J|·|I|`, and sends it by key — the paper's
//! `10·N → N`. Sema marks the histograms (`ReduceExpr::histogram`); this
//! checks only the mark and `ExecConfig::procopt`.

use uc_cm::{BinOp, Combine, ElemType, FieldId, ReduceOp, Scalar};

use super::{RResult, Run, PV};
use crate::ast::{Expr, HistogramKey, ReduceExpr};
use crate::token::RedOpToken;

impl Run<'_> {
    pub(crate) fn eval_reduce(&mut self, r: &ReduceExpr) -> RResult<PV> {
        match r.histogram {
            Some(side) if self.config.procopt => self.histogram(r, side),
            _ => self.in_space(&r.sets, |p| p.eval_reduce_arms(r)),
        }
    }

    fn eval_reduce_arms(&mut self, r: &ReduceExpr) -> RResult<PV> {
        // Evaluate every arm mask synchronously first (they share the
        // unpredicated enabled set), then each operand under its mask.
        let masks = self.arm_masks(r.arms.iter().map(|(pred, _)| pred.as_ref()))?;
        let mut partials: Vec<PV> = Vec::new();
        for ((_, operand), &mask) in r.arms.iter().zip(&masks) {
            partials.push(self.under(mask, |p| p.reduce_operand(operand, r.op))?);
        }
        if let Some(others) = &r.others {
            // Enabled-for-no-arm elements.
            partials.push(self.under_others(&masks, |p| p.reduce_operand(others, r.op))?);
        }
        self.free_masks(masks);

        // Fold the per-arm results with the reduction operator.
        let mut acc = partials.remove(0);
        for p in partials {
            acc = self.combine_partials(r.op, acc, p)?;
        }
        Ok(acc)
    }

    /// Evaluate one operand under the current mask and reduce it into the
    /// enclosing space (or to a front-end scalar).
    fn reduce_operand(&mut self, operand: &Expr, op: RedOpToken) -> RResult<PV> {
        let v = self.eval(operand)?;
        // Type of the reduction: logical ops work on truth values (0/1
        // ints); others on the operand's numeric type.
        let logical = matches!(op, RedOpToken::And | RedOpToken::Or | RedOpToken::Xor);
        let v = if logical {
            let b = self.truthify(v)?;
            self.coerce_field(b, ElemType::Int)?
        } else {
            let ty = match self.pv_type(&v)? {
                ElemType::Float => ElemType::Float,
                _ => ElemType::Int,
            };
            self.coerce_field(v, ty)?
        };
        let PV::Field { id, .. } = v else { unreachable!() };
        let ty = self.machine.elem_type(id)?;

        let result = if self.ctx.len() == 1 {
            // Front-end reduction: one combine-tree instruction.
            PV::Scalar(self.machine.reduce(id, machine_reduce_op(op))?)
        } else {
            self.reduce_into_outer(id, op, ty)?
        };
        self.release(v);
        Ok(result)
    }

    /// Per-enclosing-point reduction via a combining send.
    fn reduce_into_outer(&mut self, src: FieldId, op: RedOpToken, ty: ElemType) -> RResult<PV> {
        let outer_vp = self.ctx[self.ctx.len() - 2].vp;
        let addr = self.cur_ctx().lift.expect("a nested level has its enclosing point's address");
        let dst = self.machine.alloc(outer_vp, "~red", ty)?;
        let (identity, combine) = identity_combine(op, ty);
        // Pre-fill enabled enclosing points with the identity (so empty
        // operand sets yield it, as §3.2 requires).
        self.machine.set_imm(dst, identity)?;
        self.machine.send(dst, addr, src, combine)?;
        if op == RedOpToken::Xor {
            // Parity of the number of true operands.
            self.machine.binop_imm(BinOp::Mod, dst, dst, Scalar::Int(2))?;
        }
        Ok(PV::owned(dst))
    }

    /// Combine two per-arm partial results with the reduction operator.
    fn combine_partials(&mut self, op: RedOpToken, a: PV, b: PV) -> RResult<PV> {
        match (a, b) {
            (PV::Scalar(x), PV::Scalar(y)) => Ok(PV::Scalar(scalar_reduce(op, x, y))),
            (a, b) => {
                let ty = self.common_type(&a, &b)?;
                // Partials live on the *enclosing* space; combine there.
                let cur = self.ctx.pop().expect("inside reduction space");
                let a = self.coerce_field(a, ty)?;
                let b = self.coerce_field(b, ty)?;
                let (PV::Field { id: ai, .. }, PV::Field { id: bi, .. }) = (&a, &b) else {
                    unreachable!()
                };
                let vp = self.cur_ctx().vp;
                let dst = self.machine.alloc_result(vp, "~cmb", ty)?;
                match op {
                    RedOpToken::Add => self.machine.binop(BinOp::Add, dst, *ai, *bi)?,
                    RedOpToken::Mul => self.machine.binop(BinOp::Mul, dst, *ai, *bi)?,
                    RedOpToken::Min => self.machine.binop(BinOp::Min, dst, *ai, *bi)?,
                    RedOpToken::Max => self.machine.binop(BinOp::Max, dst, *ai, *bi)?,
                    RedOpToken::And => self.machine.binop(BinOp::Min, dst, *ai, *bi)?,
                    RedOpToken::Or => self.machine.binop(BinOp::Max, dst, *ai, *bi)?,
                    RedOpToken::Xor => {
                        self.machine.binop(BinOp::Add, dst, *ai, *bi)?;
                        self.machine.binop_imm(BinOp::Mod, dst, dst, Scalar::Int(2))?;
                    }
                    RedOpToken::Arb => {
                        // Prefer `a` where it is not the identity INF.
                        let isinf = self.machine.alloc_result(vp, "~isinf", ElemType::Bool)?;
                        self.machine.binop_imm(BinOp::Ne, isinf, *ai, super::access::inf_of(ty))?;
                        self.machine.select(dst, isinf, *ai, *bi)?;
                        self.machine.free(isinf)?;
                    }
                }
                self.release(a);
                self.release(b);
                self.ctx.push(cur);
                Ok(PV::owned(dst))
            }
        }
    }

    // ---- processor optimization (§4) --------------------------------------

    /// A histogram sema marked, `$op(SETS st (key == elem) operand)` under
    /// the one-axis level of `elem`: evaluated on the reduction's own sets
    /// alone and sent by key.
    fn histogram(&mut self, r: &ReduceExpr, side: HistogramKey) -> RResult<PV> {
        let [(Some(Expr::Binary { lhs, rhs, .. }), operand)] = &r.arms[..] else {
            unreachable!("sema marks only a reduction of one `key == elem` arm")
        };
        let key_expr = if side == HistogramKey::Lhs { lhs } else { rhs };
        let (identity, combine) = identity_combine(r.op, ElemType::Int);
        let outer_vp = self.ctx[0].vp;
        let outer_extent = self.ctx[0].dims[0] as i64;
        // Evaluate key and operand on the reduction-only space, which may
        // be the enclosing space's VP set: the enclosing mask goes too.
        // Its sets sit at axis 0, one below where sema counts them.
        self.detached(|p| p.in_space(&r.sets, |p| {
            p.ctx.last_mut().expect("a space is open").rebase = 1;
            let key = p.eval(key_expr)?;
            let key = p.coerce_field(key, ElemType::Int)?;
            let PV::Field { id: keyf, .. } = key else { unreachable!() };
            let val = p.eval(operand)?;
            let val = p.coerce_field(val, ElemType::Int)?;
            let PV::Field { id: valf, .. } = val else { unreachable!() };
            // Only keys inside the enclosing extent participate.
            let ok = p.in_range(keyf, outer_extent)?;
            let dst = p.machine.alloc_int(outer_vp, "~hist")?;
            p.machine.set_imm(dst, identity)?;
            p.under(Some(ok), |p| Ok(p.machine.send(dst, keyf, valf, combine)?))?;
            p.machine.free(ok)?;
            p.release(key);
            p.release(val);
            Ok(PV::owned(dst))
        }))
    }
}

/// The machine reduce op for a reduction token.
fn machine_reduce_op(op: RedOpToken) -> ReduceOp {
    match op {
        RedOpToken::Add => ReduceOp::Add,
        RedOpToken::Mul => ReduceOp::Mul,
        RedOpToken::Min => ReduceOp::Min,
        RedOpToken::Max => ReduceOp::Max,
        RedOpToken::And => ReduceOp::And,
        RedOpToken::Or => ReduceOp::Or,
        RedOpToken::Xor => ReduceOp::Xor,
        RedOpToken::Arb => ReduceOp::Arb,
    }
}

/// Identity value and router combiner for per-point reductions.
fn identity_combine(op: RedOpToken, ty: ElemType) -> (Scalar, Combine) {
    let of_ty = |i, f| if ty == ElemType::Float { Scalar::Float(f) } else { Scalar::Int(i) };
    match op {
        RedOpToken::Add => (of_ty(0, 0.0), Combine::Add),
        RedOpToken::Mul => (of_ty(1, 1.0), Combine::Mul),
        RedOpToken::Min => (of_ty(i64::MAX, f64::INFINITY), Combine::Min),
        RedOpToken::Max => (of_ty(i64::MIN, f64::NEG_INFINITY), Combine::Max),
        // Logical reductions run on 0/1 ints.
        RedOpToken::And => (Scalar::Int(1), Combine::Min),
        RedOpToken::Or => (Scalar::Int(0), Combine::Max),
        RedOpToken::Xor => (Scalar::Int(0), Combine::Add),
        RedOpToken::Arb => (of_ty(i64::MAX, f64::INFINITY), Combine::Overwrite),
    }
}

/// Front-end fold of two partial results.
fn scalar_reduce(op: RedOpToken, a: Scalar, b: Scalar) -> Scalar {
    let float = a.elem_type() == ElemType::Float || b.elem_type() == ElemType::Float;
    if float {
        let (x, y) = (a.as_float(), b.as_float());
        Scalar::Float(match op {
            RedOpToken::Add => x + y,
            RedOpToken::Mul => x * y,
            RedOpToken::Min => x.min(y),
            RedOpToken::Max => x.max(y),
            RedOpToken::And => ((x != 0.0) && (y != 0.0)) as i64 as f64,
            RedOpToken::Or => ((x != 0.0) || (y != 0.0)) as i64 as f64,
            RedOpToken::Xor => ((x != 0.0) ^ (y != 0.0)) as i64 as f64,
            // The first partial that is not the identity INF.
            RedOpToken::Arb if x != f64::INFINITY => x,
            RedOpToken::Arb => y,
        })
    } else {
        let (x, y) = (a.as_int(), b.as_int());
        Scalar::Int(match op {
            RedOpToken::Add => x.wrapping_add(y),
            RedOpToken::Mul => x.wrapping_mul(y),
            RedOpToken::Min => x.min(y),
            RedOpToken::Max => x.max(y),
            RedOpToken::And => ((x != 0) && (y != 0)) as i64,
            RedOpToken::Or => ((x != 0) || (y != 0)) as i64,
            RedOpToken::Xor => ((x != 0) ^ (y != 0)) as i64,
            RedOpToken::Arb if x != i64::MAX => x,
            RedOpToken::Arb => y,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reduce_ops() {
        let i = Scalar::Int;
        assert_eq!(scalar_reduce(RedOpToken::Add, i(2), i(3)), i(5));
        assert_eq!(scalar_reduce(RedOpToken::Min, i(2), i(3)), i(2));
        assert_eq!(scalar_reduce(RedOpToken::Max, i(2), i(3)), i(3));
        assert_eq!(scalar_reduce(RedOpToken::And, i(1), i(0)), i(0));
        assert_eq!(scalar_reduce(RedOpToken::Xor, i(1), i(1)), i(0));
        assert_eq!(scalar_reduce(RedOpToken::Arb, i(i64::MAX), i(7)), i(7));
        assert_eq!(scalar_reduce(RedOpToken::Arb, i(4), i(7)), i(4));
    }
}
