//! UC built-in functions.
//!
//! The paper's example programs rely on a handful of helpers: `power2`
//! (Figures 2 and 3), `rand` (Figures 4 and 9), `ABS` (Figure 11) and
//! `swap` (the odd–even transposition sort of §3.7). They are compiler
//! builtins that work both on the front end and elementwise inside
//! parallel constructs. Their spellings, arities and result types are
//! written down here only: the parser turns a call's spelling into a
//! [`Builtin`] ([`crate::ast::Callee`]), every later layer matches on
//! that, and a user function may not take one of the names.

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

    /// The type of a call with arguments of these types (one per
    /// parameter), as the evaluators compute it: `abs` keeps its operand's
    /// type (a bool becomes an int), `min`/`max` are float if either
    /// operand is.
    pub fn result(self, args: &[ExprTy]) -> ExprTy {
        match self {
            Builtin::Swap => ExprTy::Void,
            Builtin::Power2 | Builtin::Rand => ExprTy::Int,
            Builtin::Abs | Builtin::Min | Builtin::Max => {
                args.iter().fold(ExprTy::Int, |ty, &arg| ty.join(arg))
            }
        }
    }
}

/// `power2(k) = 2^k` on the front end (matches the paper's helper).
pub fn power2(k: i64) -> i64 {
    if (0..63).contains(&k) {
        1i64 << k
    } else if k < 0 {
        0
    } else {
        i64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup() {
        assert_eq!(Builtin::named("power2").unwrap().arity(), 1);
        assert_eq!(Builtin::named("rand").unwrap().arity(), 0);
        assert_eq!(Builtin::named("ABS"), Some(Builtin::Abs));
        assert_eq!(Builtin::Swap.result(&[ExprTy::Int, ExprTy::Int]), ExprTy::Void);
        assert!(Builtin::named("printf").is_none());
    }

    #[test]
    fn result_types_follow_the_operands() {
        use ExprTy::*;
        assert_eq!(Builtin::Abs.result(&[Float]), Float);
        assert_eq!(Builtin::Abs.result(&[Bool]), Int);
        assert_eq!(Builtin::Min.result(&[Int, Float]), Float);
        assert_eq!(Builtin::Max.result(&[Bool, Int]), Int);
        assert_eq!(Builtin::Power2.result(&[Float]), Int);
    }

    #[test]
    fn power2_values() {
        assert_eq!(power2(0), 1);
        assert_eq!(power2(5), 32);
        assert_eq!(power2(-1), 0);
        assert_eq!(power2(100), i64::MAX);
    }
}
