//! What the compiler knows statically (§4: "code optimizations").
//!
//! The paper's prototype decides things once — "constant folding and
//! common sub-expression detection" and the local / NEWS / router class
//! of every access are compile-time facts. This module holds the one
//! implementation of each, and every layer that needs the fact calls it:
//!
//! * [`eval_pure`] — **the** evaluator of a constant [`Expr`]. It owns no
//!   arithmetic: every value comes out of `scalar_unary`,
//!   `scalar_binary`, `scalar_abs`, `scalar_minmax` and
//!   [`stdlib::power2`], the primitives the register VM and the IR-level
//!   `passes::const_fold` compute with, so a value known here is the
//!   value the run produces, bit for bit (ints wrap, `/0` and `%0` are
//!   "not a constant", never a panic). Callers differ only in which
//!   identifiers they can give a value, and are handed the identifier
//!   node to decide: before sema has run (`const_eval` on extents and set
//!   bounds, [`fold_unit`]) that is its spelling against the `#define`s;
//!   afterwards it is the reference sema wrote on it — the lints read
//!   `#define`s, the executor's `try_pure_scalar` also the live globals
//!   and registers.
//! * `classify_index` — **the** subscript classifier (`IdxForm`): is a
//!   subscript `axis coordinate + constant`, a front-end constant, or
//!   neither. The executor picks local / NEWS / router from it at run
//!   time and lints UC110/UC111 report from it at check time; each says
//!   how the element an identifier refers to is bound and which
//!   sub-expressions it can prove constant, so the two agree on the
//!   classification by construction.
//! * [`fold_unit`] / [`fold_expr`] — an AST fold driver that no pipeline
//!   runs: `Program::compile*` and `analysis::check_source` hand the
//!   parsed unit to sema as written, and the IR's `passes::const_fold`
//!   folds what the program computes. It stays public only because the
//!   benchmark's `ucprobe` times it. Its **policy** is deliberately
//!   narrow, because it would run before sema and know neither types nor
//!   effects: replace a node whose operands are all int literals (and
//!   `-` of a float literal) by its value, pick the taken branch of a
//!   ternary with a literal condition, and apply the identities that
//!   keep their operand: `x-0`, `x*1`, `1*x`, `x/1`.
//!   `e*0 → 0` is *not* among them: it would discard `e`'s effects
//!   (`bump()*0` must still call `bump`, `rand()*0` must still draw) and
//!   its type (`f*0` is a float zero, so `(f*0+1)/2` is `0.5`, not `0`).
//!   `x+0` and `0+x` are out for the same reason in miniature: IEEE
//!   `-0.0 + 0` is `+0.0`, so dropping the addition changes a float's
//!   sign bit.
//!
//! The other two optimization classes of §4 — *processor optimization*
//! and the map section — live where they act: `try_procopt` in the
//! executor's reduction engine and [`crate::mapping`].

use uc_cm::Scalar;

use crate::ast::*;
use crate::exec::{scalar_abs, scalar_binary, scalar_minmax, scalar_unary};
use crate::span::Span;
use crate::stdlib::{self, Builtin};

/// Evaluate `e` if it is a pure constant: literals, `INF`, identifiers
/// that `names` gives a value, unary/binary/ternary operators and the pure builtins
/// (`power2`, `abs`/`ABS`, `min`, `max`) over those. `Err` carries the
/// span of the first sub-expression that is not — an unresolved name, an
/// array access, an assignment, a reduction, a user call, `rand()`, or a
/// `/` or `%` by zero. Both operands of `&&`/`||` are evaluated, but only
/// the taken branch of `?:`.
pub fn eval_pure(
    e: &Expr,
    mut names: impl FnMut(&Name) -> Option<Scalar>,
) -> Result<Scalar, Span> {
    eval(e, &mut names)
}

fn eval(e: &Expr, names: &mut dyn FnMut(&Name) -> Option<Scalar>) -> Result<Scalar, Span> {
    Ok(match e {
        Expr::IntLit(v, _) => Scalar::Int(*v),
        Expr::FloatLit(v, _) => Scalar::Float(*v),
        Expr::Inf(_) => Scalar::Int(i64::MAX),
        Expr::Ident(name, span) => names(name).ok_or(*span)?,
        Expr::Unary { op, expr, .. } => scalar_unary(*op, eval(expr, names)?),
        Expr::Binary { op, lhs, rhs, span } => {
            let (l, r) = (eval(lhs, names)?, eval(rhs, names)?);
            scalar_binary(*op, l, r).map_err(|_| *span)?
        }
        Expr::Ternary { cond, then_e, else_e, .. } => {
            let taken = if eval(cond, names)?.as_bool() { then_e } else { else_e };
            eval(taken, names)?
        }
        // Arities are matched here: this may run before sema checks them.
        Expr::Call { callee: Callee::Builtin(f), args, span, .. } => match (f, args.as_slice()) {
            (Builtin::Power2, [a]) => Scalar::Int(stdlib::power2(eval(a, names)?.as_int())),
            (Builtin::Abs, [a]) => scalar_abs(eval(a, names)?),
            (Builtin::Min | Builtin::Max, [a, b]) => {
                scalar_minmax(eval(a, names)?, eval(b, names)?, *f == Builtin::Min)
            }
            _ => return Err(*span),
        },
        Expr::Call { span, .. } => return Err(*span),
        Expr::Index { .. } | Expr::Assign { .. } | Expr::Reduce(_) => return Err(e.span()),
    })
}

/// How an index element relates to its space axis: contiguous sets
/// (`{lo..hi}`) bind as `coordinate + lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ElemForm {
    /// `value = coordinate(axis) + lo`.
    AxisPlus { axis: usize, lo: i64 },
    /// Arbitrary element list, or an element bound one value at a time
    /// (`seq`/`oneof`/`solve`): no relation to an axis coordinate.
    Opaque,
}

/// Symbolic form of one subscript expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdxForm {
    /// `coordinate(axis) + offset` on the current space.
    AxisPlus { axis: usize, offset: i64 },
    /// A front-end constant.
    Const(i64),
    /// Anything else.
    General,
}

/// Classify a subscript. `elem_form` says how an identifier is bound if it
/// denotes an open index element; `konst` evaluates a sub-expression the caller
/// can prove constant. An offset that overflows `i64` is `General`, not
/// an abort.
pub(crate) fn classify_index<E, K>(e: &Expr, elem_form: &E, konst: &K) -> IdxForm
where
    E: Fn(&Name) -> Option<ElemForm>,
    K: Fn(&Expr) -> Option<i64>,
{
    if let Expr::Ident(name, _) = e {
        match elem_form(name) {
            Some(ElemForm::AxisPlus { axis, lo }) => return IdxForm::AxisPlus { axis, offset: lo },
            Some(ElemForm::Opaque) => return IdxForm::General,
            None => {}
        }
    }
    if let Some(c) = konst(e) {
        return IdxForm::Const(c);
    }
    if let Expr::Binary { op, lhs, rhs, .. } = e {
        let l = classify_index(lhs.as_ref(), elem_form, konst);
        let r = classify_index(rhs.as_ref(), elem_form, konst);
        let shifted = match (op, l, r) {
            (BinaryOp::Add, IdxForm::AxisPlus { axis, offset }, IdxForm::Const(c))
            | (BinaryOp::Add, IdxForm::Const(c), IdxForm::AxisPlus { axis, offset }) => {
                offset.checked_add(c).map(|offset| IdxForm::AxisPlus { axis, offset })
            }
            (BinaryOp::Sub, IdxForm::AxisPlus { axis, offset }, IdxForm::Const(c)) => {
                offset.checked_sub(c).map(|offset| IdxForm::AxisPlus { axis, offset })
            }
            _ => None,
        };
        if let Some(form) = shifted {
            return form;
        }
    }
    IdxForm::General
}

/// Fold constant subexpressions in place across a whole unit: every
/// expression of every function body, and the initialisers and extents
/// of global variables.
pub fn fold_unit(unit: &mut Unit) {
    for item in &mut unit.items {
        match item {
            Item::Func(f) => {
                for s in &mut f.body.stmts {
                    s.for_each_expr_mut(&mut fold_expr);
                }
            }
            Item::Var(v) => v.init.iter_mut().chain(&mut v.dims).for_each(fold_expr),
            _ => {}
        }
    }
}

/// Fold one expression tree bottom-up, under the policy in the module
/// docs. All arithmetic is [`eval_pure`]'s.
pub fn fold_expr(e: &mut Expr) {
    e.for_each_child_mut(fold_expr);
    let int = |e: &Expr| matches!(e, Expr::IntLit(..));
    let replacement = match &*e {
        Expr::Unary { op, expr, .. }
            if int(expr) || (*op == UnaryOp::Neg && matches!(**expr, Expr::FloatLit(..))) =>
        {
            literal(e)
        }
        Expr::Binary { lhs, rhs, .. } if int(lhs) && int(rhs) => literal(e),
        Expr::Binary { op, lhs, rhs, .. } => {
            use BinaryOp::*;
            match (op, &**lhs, &**rhs) {
                (Sub, x, Expr::IntLit(0, _))
                | (Mul | Div, x, Expr::IntLit(1, _))
                | (Mul, Expr::IntLit(1, _), x) => Some(x.clone()),
                _ => None,
            }
        }
        Expr::Ternary { cond, then_e, else_e, .. } => match **cond {
            Expr::IntLit(c, _) => Some(if c != 0 { (**then_e).clone() } else { (**else_e).clone() }),
            _ => None,
        },
        _ => None,
    };
    if let Some(new) = replacement {
        *e = new;
    }
}

/// `e`'s value as a literal carrying `e`'s span, if it has one.
fn literal(e: &Expr) -> Option<Expr> {
    Some(match eval_pure(e, |_| None).ok()? {
        Scalar::Float(v) => Expr::FloatLit(v, e.span()),
        v => Expr::IntLit(v.as_int(), e.span()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::Program;
    use proptest::prelude::*;

    fn int(v: i64) -> Expr {
        Expr::IntLit(v, Span::default())
    }

    fn bin(op: BinaryOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(l), rhs: Box::new(r), span: Span::default() }
    }

    fn folded(mut e: Expr) -> Expr {
        fold_expr(&mut e);
        e
    }

    /// Parse one expression (as the right-hand side of an assignment).
    fn parse_expr(src: &str) -> Expr {
        let mut diags = Diagnostics::default();
        let unit = crate::parser::parse(&format!("int x;\nmain() {{ x = {src}; }}"), &mut diags)
            .unwrap_or_else(|| panic!("parse `{src}`:\n{diags}"));
        let Some(Item::Func(main)) = unit.items.last() else { panic!("no main") };
        let Stmt::Expr(Expr::Assign { value, .. }) = &main.body.stmts[0] else {
            panic!("not an assignment")
        };
        (**value).clone()
    }

    #[test]
    fn folds_arithmetic() {
        assert_eq!(folded(bin(BinaryOp::Add, int(2), bin(BinaryOp::Mul, int(3), int(4)))), int(14));
    }

    #[test]
    fn folds_comparisons_and_logic() {
        let e = bin(BinaryOp::LogAnd, bin(BinaryOp::Lt, int(1), int(2)), int(1));
        assert_eq!(folded(e), int(1));
    }

    #[test]
    fn folds_unary_and_ternary() {
        assert!(matches!(folded(parse_expr("1 == 1 ? 10 : 20")), Expr::IntLit(10, _)));
        assert!(matches!(folded(parse_expr("-5")), Expr::IntLit(-5, _)));
        assert!(matches!(folded(parse_expr("-2.5")), Expr::FloatLit(v, _) if v == -2.5));
    }

    #[test]
    fn identities() {
        let x = Expr::Ident(Name::new("x"), Span::default());
        for (op, l, r) in [
            (BinaryOp::Sub, x.clone(), int(0)),
            (BinaryOp::Mul, x.clone(), int(1)),
            (BinaryOp::Mul, int(1), x.clone()),
            (BinaryOp::Div, x.clone(), int(1)),
        ] {
            assert_eq!(folded(bin(op, l, r)), x, "{op:?}");
        }
        // Identities that would drop an operand's effects or type, or a
        // float's sign bit, are not applied.
        for (op, l, r) in [
            (BinaryOp::Mul, x.clone(), int(0)),
            (BinaryOp::Mul, int(0), x.clone()),
            (BinaryOp::Add, x.clone(), int(0)),
            (BinaryOp::Add, int(0), x.clone()),
            (BinaryOp::Sub, int(0), x.clone()),
        ] {
            let e = bin(op, l, r);
            assert_eq!(folded(e.clone()), e, "{op:?}");
        }
    }

    #[test]
    fn no_fold_div_by_zero() {
        let e = folded(bin(BinaryOp::Div, int(1), int(0)));
        assert!(matches!(e, Expr::Binary { .. }), "division by zero must not fold");
    }

    #[test]
    fn eval_pure_wraps_like_the_runtime_and_names_what_is_not_constant() {
        let value = |src: &str| eval_pure(&parse_expr(src), |_| None);
        assert_eq!(value("(0 - INF - 1) / (0 - 1)"), Ok(Scalar::Int(i64::MIN)));
        assert_eq!(value("-(0 - INF - 1)"), Ok(Scalar::Int(i64::MIN)));
        assert_eq!(value("(0 - INF - 1) % (0 - 1)"), Ok(Scalar::Int(0)));
        assert_eq!(value("1 << 65"), Ok(Scalar::Int(2)));
        assert_eq!(value("max(abs(0 - 3), 2.5) / 2"), Ok(Scalar::Float(1.5)));
        assert_eq!(value("0 ? 1 / 0 : power2(4)"), Ok(Scalar::Int(16)));
        // `Err` is the span of the offending sub-expression.
        let col = |src: &str| value(src).expect_err(src).col;
        let base = parse_expr("0").span().col;
        assert_eq!(col("1 + n") - base, 4, "unresolved name");
        assert_eq!(col("2 * (7 / 0)") - base, 7, "division by zero (the operator)");
        assert_eq!(col("1 + rand()") - base, 4, "impure builtin");
        assert_eq!(col("1 + a[0]") - base, 4, "array access");
        // Names resolve through the caller's table only.
        let e = parse_expr("n * 2");
        assert_eq!(eval_pure(&e, |n| (&*n.text == "n").then_some(Scalar::Int(21))), Ok(Scalar::Int(42)));
    }

    #[test]
    fn classify_index_shares_one_overflow_rule() {
        let elem = |n: &Name| (&*n.text == "i").then_some(ElemForm::AxisPlus { axis: 0, lo: 1 });
        let konst = |e: &Expr| eval_pure(e, |_| None).ok().map(|s| s.as_int());
        let form = |src: &str| classify_index(&parse_expr(src), &elem, &konst);
        assert_eq!(form("i"), IdxForm::AxisPlus { axis: 0, offset: 1 });
        assert_eq!(form("2 + i"), IdxForm::AxisPlus { axis: 0, offset: 3 });
        assert_eq!(form("i - 1"), IdxForm::AxisPlus { axis: 0, offset: 0 });
        assert_eq!(form("3 * 4"), IdxForm::Const(12));
        assert_eq!(form("i * 2"), IdxForm::General);
        assert_eq!(form("1 - i"), IdxForm::General);
        // `1 + INF` and `1 - (0 - INF)` overflow: general, never a panic.
        assert_eq!(form("i + INF"), IdxForm::General);
        assert_eq!(form("i - (0 - INF)"), IdxForm::General);
    }

    /// Source text of a well-typed pure expression drawn from `tape`
    /// (exhausted tape reads as zeros), and whether its value is a float.
    fn pure_expr(tape: &mut dyn Iterator<Item = u32>, depth: u32) -> (String, bool) {
        const INTS: &[&str] =
            &["0", "1", "2", "7", "63", "64", "65", "1000003", "INF", "(0 - 1)", "(0 - INF - 1)"];
        const FLOATS: &[&str] = &["0.0", "1.0", "0.5", "2.5", "(-0.0)", "(-2.5)"];
        const INT_OPS: &[&str] = &["%", "<<", ">>", "&", "|", "^"];
        const ANY_OPS: &[&str] = &["+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "&&", "||"];
        let mut next = |n: usize| tape.next().unwrap_or(0) as usize % n;
        let shape = if depth == 0 { 0 } else { next(8) };
        match shape {
            0 | 1 => {
                let k = next(INTS.len() + FLOATS.len());
                match INTS.get(k) {
                    Some(lit) => (lit.to_string(), false),
                    None => (FLOATS[k - INTS.len()].to_string(), true),
                }
            }
            2 => {
                let op = ["-", "!", "~"][next(3)];
                let (x, float) = pure_expr(tape, depth - 1);
                match (op, float) {
                    ("~", true) | ("!", _) => (format!("(!{x})"), false),
                    (op, float) => (format!("({op}{x})"), float && op == "-"),
                }
            }
            3..=5 => {
                let k = next(INT_OPS.len() + ANY_OPS.len());
                let (l, lf) = pure_expr(tape, depth - 1);
                let (r, rf) = pure_expr(tape, depth - 1);
                match INT_OPS.get(k) {
                    Some(op) if !lf && !rf => (format!("({l} {op} {r})"), false),
                    Some(_) => (format!("({l} * {r})"), true),
                    None => {
                        let op = ANY_OPS[k - INT_OPS.len()];
                        (format!("({l} {op} {r})"), (lf || rf) && "+-*/".contains(op))
                    }
                }
            }
            6 => {
                let (c, _) = pure_expr(tape, depth - 1);
                let (t, tf) = pure_expr(tape, depth - 1);
                let (f, ff) = pure_expr(tape, depth - 1);
                (format!("({c} ? {t} : {f})"), tf || ff)
            }
            _ => {
                let f = ["power2", "abs", "min", "max"][next(4)];
                let (a, af) = pure_expr(tape, depth - 1);
                match f {
                    "power2" => (format!("power2({a})"), false),
                    "abs" => (format!("abs({a})"), af),
                    _ => {
                        let (b, bf) = pure_expr(tape, depth - 1);
                        (format!("{f}({a}, {b})"), af || bf)
                    }
                }
            }
        }
    }

    /// `ri = e; rf = e;` compiled (so folded by the IR's `const_fold`)
    /// and run by the VM: the value as an int and as float bits, or the
    /// runtime error.
    fn run_vm(e: &str) -> Result<(i64, u64), String> {
        let src = format!("int ri;\nfloat rf;\nmain() {{ ri = {e}; rf = {e}; }}");
        let mut p = Program::compile(&src).unwrap_or_else(|d| panic!("{src}\n{d}"));
        p.run().map_err(|e| format!("{:?}", e.error))?;
        Ok((p.read_int("ri").unwrap(), p.read_scalar("rf").unwrap().as_float().to_bits()))
    }

    /// One arithmetic: the evaluator and the compiled program on the VM
    /// agree bit for bit on `src`, wherever the evaluator gives a value
    /// (it declines on a `/0` somewhere).
    fn check_agreement(src: &str) -> Result<(), String> {
        let vm = run_vm(src);
        if let Ok(v) = eval_pure(&parse_expr(src), |_| None) {
            let expected = Ok((v.as_int(), v.as_float().to_bits()));
            if vm != expected {
                return Err(format!("`{src}`: eval_pure {expected:?}, VM {vm:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn evaluator_folder_and_vm_agree_on_the_edge_cases() {
        for src in [
            "(0 - INF - 1) / (0 - 1)",
            "(0 - INF - 1) % (0 - 1)",
            "-(0 - INF - 1)",
            "abs(0 - INF - 1)",
            "1 << 64",
            "(0 - 1) >> 65",
            "power2(63) + power2(0 - 1)",
            // Sign of a float zero, and a float operand's type.
            "(-0.0) + 0",
            "0 + (-0.0)",
            "(-0.0) - 0",
            "(-2.5) * 0",
            "((-2.5) * 0 + 1) / 2",
            "(2.5 * 1) / 2",
            "7 / 2 * 1.0",
            "(1 ? 2 : 2.5) / 4",
            "1 / 0",
            "0 && 1 / 0",
        ] {
            check_agreement(src).unwrap();
        }
        // Operands the IR's `const_fold` must keep: `bump()*0` still
        // calls `bump` (once for `ri`, once for `rf`), `rand()*0` still
        // draws, and `f*0` is a float zero — `-0.0`, and `0.5` after
        // `+ 1` and `/ 2`.
        let nth_draw = |k: usize| {
            let src = format!("int next;\nmain() {{ {} next = rand(); }}", "rand(); ".repeat(k));
            let mut p = Program::compile(&src).unwrap();
            p.run().unwrap();
            p.read_int("next").unwrap()
        };
        for (e, ri, rf, calls, draws) in [
            ("bump() * 0", 0, 0.0, 2, 0),
            ("0 * bump() + 1", 1, 1.0, 2, 0),
            ("rand() * 0", 0, 0.0, 0, 2),
            ("f * 0", 0, -0.0, 0, 0),
            ("(f * 0 + 1) / 2", 0, 0.5, 0, 0),
        ] {
            let src = format!(
                "int ri, calls, next;\nfloat rf;\n\
                 int bump() {{ calls = calls + 1; return calls + 6; }}\n\
                 main() {{ float f = -2.5; ri = {e}; rf = {e}; next = rand(); }}"
            );
            let mut p = Program::compile(&src).unwrap_or_else(|d| panic!("{src}\n{d}"));
            p.run().unwrap();
            let rf_bits = p.read_scalar("rf").unwrap().as_float().to_bits();
            assert_eq!((p.read_int("ri").unwrap(), rf_bits), (ri, f64::to_bits(rf)), "{e}");
            assert_eq!(p.read_int("calls").unwrap(), calls, "{e}");
            assert_eq!(p.read_int("next").unwrap(), nth_draw(draws), "{e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn evaluator_folder_and_vm_agree_bit_for_bit(
            mut tape in prop::collection::vec(0u32..1 << 16, 8..64),
        ) {
            tape[0] = tape[0] % 6 + 2; // never a bare literal at the root
            let (src, _) = pure_expr(&mut tape.into_iter(), 4);
            let agreement = check_agreement(&src);
            prop_assert!(agreement.is_ok(), "{}", agreement.unwrap_err());
        }
    }
}
