//! UC built-in functions.
//!
//! The paper's example programs rely on a handful of helpers: `power2`
//! (Figures 2 and 3), `rand` (Figures 4 and 9), `ABS` (Figure 11) and
//! `swap` (the odd–even transposition sort of §3.7), and the grid sweep
//! calls `min`/`max`. They work both on the front end and elementwise
//! inside parallel constructs. Their spellings and arities are written
//! down here only, and a user function may not take one of the names.
//!
//! Four are pure functions of their operands, so the parser reads a call
//! of one with the right number of arguments as an operator node:
//! `abs`/`ABS` and `power2` are [`UnaryOp::Abs`] and [`UnaryOp::Power2`],
//! `min` and `max` are [`BinaryOp::Min`] and [`BinaryOp::Max`], and every
//! later layer computes them where it computes `-x` and `a + b`. `abs`
//! keeps its operand's type (a bool becomes an int), `min`/`max` are
//! float if either operand is, and `power2(k)` is the int `1 << k`, its
//! shift count wrapped as `<<` wraps it. `rand()` and `swap(x, y)` stay
//! calls ([`crate::ast::Callee::Builtin`]): one draws a value anew each
//! time, the other is a statement.
//!
//! [`UnaryOp::Abs`]: crate::ast::UnaryOp::Abs
//! [`UnaryOp::Power2`]: crate::ast::UnaryOp::Power2
//! [`BinaryOp::Min`]: crate::ast::BinaryOp::Min
//! [`BinaryOp::Max`]: crate::ast::BinaryOp::Max

use crate::sema::ExprTy;

/// A builtin function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    Power2,
    Rand,
    /// `abs` or `ABS`.
    Abs,
    Min,
    Max,
    /// `swap(x, y)`: a statement, not a value.
    Swap,
}

impl Builtin {
    /// The builtin a call spelled `name` denotes.
    pub fn named(name: &str) -> Option<Builtin> {
        Some(match name {
            "power2" => Builtin::Power2,
            "rand" => Builtin::Rand,
            "abs" | "ABS" => Builtin::Abs,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "swap" => Builtin::Swap,
            _ => return None,
        })
    }

    pub fn arity(self) -> usize {
        match self {
            Builtin::Rand => 0,
            Builtin::Power2 | Builtin::Abs => 1,
            Builtin::Min | Builtin::Max | Builtin::Swap => 2,
        }
    }

    /// The type of a call: `swap` has no value, and `rand()` is an int —
    /// as is a call of one of the four operators, which reaches sema only
    /// with the wrong number of arguments.
    pub fn result(self) -> ExprTy {
        if self == Builtin::Swap { ExprTy::Void } else { ExprTy::Int }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinaryOp, UnaryOp};
    use uc_cm::Scalar;

    #[test]
    fn lookup() {
        assert_eq!(Builtin::named("power2").unwrap().arity(), 1);
        assert_eq!(Builtin::named("rand").unwrap().arity(), 0);
        assert_eq!(Builtin::named("ABS"), Some(Builtin::Abs));
        assert_eq!(Builtin::Swap.result(), ExprTy::Void);
        assert_eq!(Builtin::Rand.result(), ExprTy::Int);
        assert!(Builtin::named("printf").is_none());
    }

    /// `abs` and `min`/`max` keep a float operand's type, so theirs is no
    /// subscript; `power2` is an int whatever its operand.
    #[test]
    fn result_types_follow_the_operands() {
        let subscript = |e: &str| {
            let src = format!("int a[4];\nfloat f;\nmain() {{ a[{e}] = 1; }}");
            crate::Program::compile(&src).is_ok()
        };
        assert!(!subscript("abs(f)"));
        assert!(subscript("ABS(1 < 2)"));
        assert!(!subscript("min(1, f)"));
        assert!(subscript("max(1 < 2, 1)"));
        assert!(subscript("power2(f)"));
    }

    /// `power2(k)` is `1 << k`, the shift count wrapped as `<<` wraps it.
    #[test]
    fn power2_values() {
        let p2 = |k| crate::exec::scalar_unary(UnaryOp::Power2, Scalar::Int(k)).as_int();
        assert_eq!(p2(0), 1);
        assert_eq!(p2(5), 32);
        assert_eq!(p2(62), 1 << 62);
        assert_eq!(p2(63), i64::MIN);
        assert_eq!(p2(64), 1);
        assert_eq!(p2(-1), i64::MIN);
        assert_eq!(p2(5), crate::exec::int_binary(BinaryOp::Shl, 1, 5).unwrap());
    }
}
