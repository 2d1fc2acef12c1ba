//! What the compiler knows statically (§4: "code optimizations").
//!
//! The paper's prototype decides things once — "constant folding and
//! common sub-expression detection" and the local / NEWS / router class
//! of every access are compile-time facts. This module holds the one
//! implementation of each, and every layer that needs the fact calls it:
//!
//! * [`eval_pure`] — **the** evaluator of a constant [`Expr`]. It owns no
//!   arithmetic: every value comes out of `scalar_unary`/`scalar_binary`,
//!   the primitives the register VM and the tree evaluators compute with
//!   (`abs`, `power2`, `min` and `max` are operators there too), so a
//!   value known here is the value the run produces, bit for bit (ints
//!   wrap; `/0` and `%0` are "not a constant", never a panic). Callers
//!   differ only in the values they give identifiers: before sema
//!   (`const_eval`, [`fold_unit`]) by spelling against the `#define`s,
//!   afterwards by the reference sema wrote — the lint facts the `#define`s,
//!   the executor also the live scalars.
//! * `classify_index` — **the** subscript classifier ([`SubForm`]): is a
//!   subscript an element's axis plus front-end scalars, a front-end
//!   scalar, or neither. Sema calls it once per access for its plan, and
//!   the map section's `permute` and `fold` are read through it.
//!   `resolve_index` values a form with `eval_pure` where the values are
//!   known — the executor where the access runs, sema for UC110/UC111
//!   from the `#define`s — and `path` picks local, NEWS or router from
//!   the values (`store_path`, local or router, for a store). Neither
//!   classifies again; `routing` says why a regular access takes the
//!   router.
//! * [`fold_unit`] / [`fold_expr`] — an AST fold driver that no pipeline
//!   runs (the VM runs what the lowerer emits, literal operands and all);
//!   public only because the benchmark's `ucprobe` times it. Knowing
//!   neither types nor effects, it folds int literals (and `-` of a float
//!   literal), a ternary's literal condition where the other arm is a
//!   literal expression that would not make the value a float, and `x-0`,
//!   `x*1`, `1*x`, `x/1`: not `e*0`, which would drop `e`'s effects and
//!   type, nor `x+0`, which would turn IEEE `-0.0` into `+0.0`.
//!
//! The other two optimization classes of §4 live where they are decided:
//! the *processor optimization* in sema (`ReduceExpr::histogram`), the
//! map section in [`crate::mapping`].

use uc_cm::Scalar;

use crate::ast::*;
use crate::exec::{scalar_binary, scalar_unary};
use crate::mapping::ArrayMapping;
use crate::sema::ArrayInfo;
use crate::span::Span;

/// Evaluate `e` if it is a pure constant: literals, `INF`, identifiers
/// that `names` gives a value, and unary/binary/ternary operators over
/// those — `abs`, `power2`, `min` and `max` among them. `Err` carries the
/// span of the first sub-expression that is not — an unresolved name, an
/// array access, an assignment, a reduction, a call (`rand()` or a user
/// function), or a `/` or `%` by zero. Both operands of `&&`/`||` are
/// evaluated, but only the taken branch of `?:`, whose value takes the
/// arms' joined type, as in C.
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
        Expr::Binary { op, ops, span, .. } => {
            let [lhs, rhs] = &**ops;
            let (l, r) = (eval(lhs, names)?, eval(rhs, names)?);
            scalar_binary(*op, l, r).map_err(|_| *span)?
        }
        Expr::Ternary { ops, .. } => {
            let [cond, then_e, else_e] = &**ops;
            let taken = if eval(cond, names)?.as_bool() { then_e } else { else_e };
            let value = eval(taken, names)?;
            if floats(then_e, names) || floats(else_e, names) {
                Scalar::Float(value.as_float())
            } else {
                value
            }
        }
        Expr::Index { .. } | Expr::Call { .. } | Expr::Assign { .. } | Expr::Reduce(_) => {
            return Err(e.span())
        }
    })
}

/// The shape of one subscript, as sema's plan records it: what the
/// access's id determines, and no value only the run knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubForm {
    /// The element along `axis` of a set from `lo`, plus or minus
    /// front-end scalars.
    Axis { axis: usize, lo: i64 },
    /// A front-end scalar [`eval_pure`] can value.
    Scalar,
    /// Anything else.
    General,
}

/// Whether a pure expression's type is a float, by sema's rules, without
/// evaluating it: an identifier has the type of the value `names` gives
/// it (an unknown one is an int).
fn floats(e: &Expr, names: &mut dyn FnMut(&Name) -> Option<Scalar>) -> bool {
    use BinaryOp::*;
    match e {
        Expr::FloatLit(..) => true,
        Expr::Ident(name, _) => matches!(names(name), Some(Scalar::Float(_))),
        Expr::Unary { op: UnaryOp::Neg | UnaryOp::Abs, expr, .. } => floats(expr, names),
        Expr::Binary { op: Add | Sub | Mul | Div | Min | Max, ops, .. } => {
            ops.iter().any(|e| floats(e, names))
        }
        Expr::Ternary { ops, .. } => {
            let [_, then_e, else_e] = &**ops;
            floats(then_e, names) || floats(else_e, names)
        }
        _ => false,
    }
}

/// Value form of one subscript where it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdxForm {
    /// `coordinate(axis) + offset` on the current space.
    AxisPlus { axis: usize, offset: i64 },
    /// A front-end constant.
    Const(i64),
    /// Anything else.
    General,
}

/// Classify a subscript by its shape. `elem` gives the form of an index
/// element's identifier (`General` for a set that is no range); `scalar`
/// says whether a sub-expression is a front-end scalar.
pub(crate) fn classify_index<E, S>(e: &Expr, elem: &E, scalar: &S) -> SubForm
where
    E: Fn(&Name) -> Option<SubForm>,
    S: Fn(&Expr) -> bool,
{
    if let Expr::Ident(name, _) = e {
        if let Some(form) = elem(name) {
            return form;
        }
    }
    if scalar(e) {
        return SubForm::Scalar;
    }
    if let Expr::Binary { op: op @ (BinaryOp::Add | BinaryOp::Sub), ops, .. } = e {
        let [lhs, rhs] = &**ops;
        let (l, r) = (classify_index(lhs, elem, scalar), classify_index(rhs, elem, scalar));
        match (op, l, r) {
            (_, axis @ SubForm::Axis { .. }, SubForm::Scalar)
            | (BinaryOp::Add, SubForm::Scalar, axis @ SubForm::Axis { .. }) => return axis,
            _ => {}
        }
    }
    SubForm::General
}

/// The value form of subscript `e`, whose shape is `form`, with the
/// values `names` gives the front-end scalars. An axis subscript is its
/// element plus scalars, so its value where the element is 0 is its
/// offset from `lo`. A value [`eval_pure`] declines (a division by zero),
/// or an offset that leaves `i64`, makes the subscript `General`.
pub(crate) fn resolve_index(
    form: SubForm,
    e: &Expr,
    mut names: impl FnMut(&Name) -> Option<Scalar>,
) -> IdxForm {
    match form {
        SubForm::Axis { axis, lo } => {
            let at_zero = |n: &Name| match n.to {
                Ref::Elem(_) => Some(Scalar::Int(0)),
                _ => names(n),
            };
            let offset = eval_pure(e, at_zero).ok().and_then(|c| lo.checked_add(c.as_int()));
            offset.map_or(IdxForm::General, |offset| IdxForm::AxisPlus { axis, offset })
        }
        SubForm::Scalar => eval_pure(e, names).map_or(IdxForm::General, |c| IdxForm::Const(c.as_int())),
        SubForm::General => IdxForm::General,
    }
}

/// How a parallel access reaches its elements: §4's communication class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Path {
    /// The array's own field (a `copy` mapping's local replica).
    Local,
    /// One NEWS shift of an unmapped array, with an INF border.
    News { axis: usize, by: i64 },
    /// A `permute`d array: a toroidal shift on at most one axis, then INF
    /// selected at the logical edges.
    Permuted { shift: Option<(usize, i64)> },
    Router,
}

/// The one rule that picks an access's [`Path`] from its subscripts'
/// value forms, the extents of the space it runs on, and the array's
/// shape and mapping. A NEWS shift writes only active positions, so two
/// chained shifts would read garbage at inactive intermediate positions:
/// an access displaced on two axes (`a[i-1][j-1]`) takes the router.
pub(crate) fn path(forms: &[IdxForm], dims: &[usize], shape: &[usize], mapping: &ArrayMapping) -> Path {
    let stored_at = match mapping {
        ArrayMapping::Default => None,
        ArrayMapping::Permute { offsets } => Some(offsets),
        ArrayMapping::Copy { replicas } => {
            // §4's broadcast elimination: on [replicas, ...shape], the
            // trailing axis identities read each point's own replica.
            let identity = dims.split_first() == Some((replicas, shape))
                && forms.iter().enumerate().all(|(d, &form)| {
                    form == IdxForm::AxisPlus { axis: d + 1, offset: 0 }
                });
            return if identity { Path::Local } else { Path::Router };
        }
        ArrayMapping::Fold { .. } => return Path::Router,
    };
    if shape != dims {
        return Path::Router;
    }
    // `edges`: some lane's logical index may leave the array.
    let (mut shift, mut displaced, mut edges) = (None, 0, false);
    for (d, &form) in forms.iter().enumerate() {
        let IdxForm::AxisPlus { axis, offset } = form else { return Path::Router };
        let s = offset.checked_sub(stored_at.map_or(0, |o| o[d]));
        let Some(s) = s.filter(|_| axis == d) else { return Path::Router };
        if s != 0 {
            displaced += 1;
            shift = shift.or(Some((d, s)));
        }
        edges |= offset != 0;
    }
    match (shift, stored_at) {
        _ if displaced > 1 => Path::Router,
        (None, _) if !edges => Path::Local,
        (Some((axis, by)), None) => Path::News { axis, by },
        (shift, _) => Path::Permuted { shift },
    }
}

/// The store rule: a store is local where [`path`] says so for a
/// default-mapped array, and a router send everywhere else — never NEWS.
pub(crate) fn store_path(forms: &[IdxForm], dims: &[usize], shape: &[usize], mapping: &ArrayMapping) -> Path {
    match path(forms, dims, shape, mapping) {
        Path::Local if *mapping == ArrayMapping::Default => Path::Local,
        _ => Path::Router,
    }
}

/// Why a rule sends a regular access to the router (UC110/UC111).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// A shift on the space's own axes of a conforming array, displaced on
    /// `displaced` axes; `store` if the store rule routed it.
    Shift { displaced: usize, store: bool },
    /// Misaligned with the space: axes transposed, or else a shape that
    /// does not conform to it.
    Misaligned { transposed: bool },
    /// Routed only by the array's mapping: a store to a re-mapped array, a
    /// read of a folded one, a `permute` that leaves a read displaced twice.
    Mapped,
}

/// The [`Routing`] of a full-rank access with the value forms `forms` on a
/// space of extents `dims` to `array`, under its shape and mapping, by the
/// read rule ([`path`]) or the store rule: `None` where the rule does not
/// pick the router, and for a true gather — a subscript that is no axis
/// plus a constant, or axes that are no permutation of the space's.
pub(crate) fn routing(forms: &[IdxForm], dims: &[usize], array: &ArrayInfo, store: bool) -> Option<Routing> {
    let axis = |f: &IdxForm| if let IdxForm::AxisPlus { axis, .. } = *f { Some(axis) } else { None };
    let mut axes = forms.iter().map(axis).collect::<Option<Vec<usize>>>()?;
    let (rule, shape) = (if store { store_path } else { path }, &array.shape[..]);
    if rule(forms, dims, shape, &array.mapping) != Path::Router {
        return None;
    }
    if rule(forms, dims, shape, &ArrayMapping::Default) != Path::Router {
        return Some(Routing::Mapped);
    }
    let identity = axes.iter().enumerate().all(|(d, &a)| a == d);
    if identity && shape == dims {
        let displaced = forms.iter().filter(|f| !matches!(f, IdxForm::AxisPlus { offset: 0, .. })).count();
        return Some(Routing::Shift { displaced, store });
    }
    axes.sort_unstable();
    let permutation = axes.iter().enumerate().all(|(d, &a)| a == d);
    permutation.then_some(Routing::Misaligned { transposed: !identity })
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
        Expr::Binary { ops, .. } if ops.iter().all(int) => literal(e),
        Expr::Binary { op, ops, .. } => {
            use BinaryOp::*;
            match (op, &ops[0], &ops[1]) {
                (Sub, x, Expr::IntLit(0, _))
                | (Mul | Div, x, Expr::IntLit(1, _))
                | (Mul, Expr::IntLit(1, _), x) => Some(x.clone()),
                _ => None,
            }
        }
        Expr::Ternary { ops, .. } => match &**ops {
            [Expr::IntLit(c, _), then_e, else_e] => {
                // The value has the arms' joined type, which the taken arm
                // has unless the other one is a float.
                let (taken, other) = if *c != 0 { (then_e, else_e) } else { (else_e, then_e) };
                let literal = !other.any(&mut |x| {
                    use Expr::*;
                    matches!(x, Ident(..) | Index { .. } | Call { .. } | Reduce(_))
                });
                let float = |e: &Expr| floats(e, &mut |_| None);
                (literal && (float(taken) || !float(other))).then(|| taken.clone())
            }
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
        let ops = Box::new([l, r]);
        Expr::Binary { op, ops, span: Span::default(), value: crate::ast::NO_VALUE }
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
        let Stmt::Expr(Expr::Assign { ops, .. }) = &main.body.stmts[0] else {
            panic!("not an assignment")
        };
        ops[1].clone()
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
        // The value has the arms' joined type: a float arm keeps the `?:`.
        assert!(matches!(folded(parse_expr("1 ? 10 : 2.5")), Expr::Ternary { .. }));
        assert!(matches!(folded(parse_expr("1 ? 10 : x")), Expr::Ternary { .. }));
        assert!(matches!(folded(parse_expr("0 ? 10 : 2.5")), Expr::FloatLit(v, _) if v == 2.5));
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
        let elem = |n: &Name| (&*n.text == "i").then_some(SubForm::Axis { axis: 0, lo: 1 });
        let scalar = |e: &Expr| !e.any(&mut |x| matches!(x, Expr::Ident(n, _) if &*n.text == "i"));
        // Parsed, not resolved: `i` reads as the element at coordinate 0.
        let zero = |n: &Name| (&*n.text == "i").then_some(Scalar::Int(0));
        let form = |src: &str| {
            let e = parse_expr(src);
            resolve_index(classify_index(&e, &elem, &scalar), &e, zero)
        };
        assert_eq!(form("i"), IdxForm::AxisPlus { axis: 0, offset: 1 });
        assert_eq!(form("2 + i"), IdxForm::AxisPlus { axis: 0, offset: 3 });
        assert_eq!(form("i - 1"), IdxForm::AxisPlus { axis: 0, offset: 0 });
        assert_eq!(form("3 * 4"), IdxForm::Const(12));
        assert_eq!(form("i * 2"), IdxForm::General);
        assert_eq!(form("1 - i"), IdxForm::General);
        // `1 + INF` and `1 - (0 - INF)` overflow: general, never a panic.
        assert_eq!(form("i + INF"), IdxForm::General);
        assert_eq!(form("i - (0 - INF)"), IdxForm::General);
        // A division by zero is no value: general.
        assert_eq!(form("i + 1 / 0"), IdxForm::General);
    }

    #[test]
    fn one_path_rule() {
        let axis = |axis, offset| IdxForm::AxisPlus { axis, offset };
        let grid = [8, 8];
        let unmapped = |forms: &[IdxForm], dims: &[usize]| path(forms, dims, &grid, &ArrayMapping::Default);
        assert_eq!(unmapped(&[axis(0, 0), axis(1, 0)], &grid), Path::Local);
        assert_eq!(unmapped(&[axis(0, -1), axis(1, 0)], &grid), Path::News { axis: 0, by: -1 });
        assert_eq!(unmapped(&[axis(0, -1), axis(1, -1)], &grid), Path::Router);
        assert_eq!(unmapped(&[axis(1, 0), axis(0, 0)], &grid), Path::Router);
        assert_eq!(unmapped(&[axis(0, 0), IdxForm::Const(3)], &grid), Path::Router);
        assert_eq!(unmapped(&[axis(0, 0), axis(1, 0)], &[8, 8, 2]), Path::Router);
        // `permute (I) b[i+1] :- a[i]`: `b[i+1]` is where `a[i]` lives.
        let permuted = ArrayMapping::Permute { offsets: vec![1] };
        assert_eq!(path(&[axis(0, 1)], &[8], &[8], &permuted), Path::Permuted { shift: None });
        assert_eq!(path(&[axis(0, 0)], &[8], &[8], &permuted), Path::Permuted { shift: Some((0, -1)) });
        let copied = ArrayMapping::Copy { replicas: 4 };
        assert_eq!(path(&[axis(1, 0)], &[4, 8], &[8], &copied), Path::Local);
        assert_eq!(path(&[axis(0, 0)], &[8], &[8], &copied), Path::Router);
        assert_eq!(path(&[axis(0, 0)], &[8], &[8], &ArrayMapping::Fold { axis: 0 }), Path::Router);
        // Why each rule routes a read and a store under each class:
        // `Mapped` where only the mapping sends it to the router.
        let why = |forms: &[IdxForm], mapping: &ArrayMapping, store| {
            let array = ArrayInfo { ty: Type::Int, shape: grid.to_vec(), mapping: mapping.clone() };
            routing(forms, &grid, &array, store)
        };
        let (own, shifted, twice) = ([axis(0, 0), axis(1, 0)], [axis(0, -1), axis(1, 0)], [axis(0, -1), axis(1, -1)]);
        let shift = |displaced, store| Some(Routing::Shift { displaced, store });
        let transposed = Some(Routing::Misaligned { transposed: true });
        let default = ArrayMapping::Default;
        assert_eq!((why(&own, &default, false), why(&own, &default, true)), (None, None));
        assert_eq!((why(&shifted, &default, false), why(&shifted, &default, true)), (None, shift(1, true)));
        assert_eq!(why(&twice, &default, false), shift(2, false));
        // `permute (I, J) b[i+1][j] :- a[i][j]`.
        let permuted = ArrayMapping::Permute { offsets: vec![1, 0] };
        assert_eq!(why(&[axis(0, 1), axis(1, 0)], &permuted, false), None);
        assert_eq!(why(&shifted, &permuted, false), None);
        assert_eq!(why(&[axis(0, 0), axis(1, 1)], &permuted, false), Some(Routing::Mapped));
        assert_eq!(why(&twice, &permuted, false), shift(2, false));
        assert_eq!(why(&own, &permuted, true), Some(Routing::Mapped));
        assert_eq!(why(&shifted, &permuted, true), shift(1, true));
        for mapping in [ArrayMapping::Fold { axis: 0 }, ArrayMapping::Copy { replicas: 4 }] {
            for store in [false, true] {
                assert_eq!(why(&own, &mapping, store), Some(Routing::Mapped), "{mapping:?}");
                assert_eq!(why(&[axis(1, 0), axis(0, 0)], &mapping, store), transposed, "{mapping:?}");
            }
            assert_eq!(why(&shifted, &mapping, false), Some(Routing::Mapped), "{mapping:?}");
            assert_eq!(why(&twice, &mapping, false), shift(2, false), "{mapping:?}");
        }
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

    /// `ri = e; rf = e;` compiled and run by the VM, literal operands
    /// and all: the value as an int and as float bits, or the runtime
    /// error.
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
        // Operands the VM must evaluate: `bump()*0` still
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
