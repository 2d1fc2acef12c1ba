//! Each operator means one thing. The front end (the register VM, on
//! literal operands and on values read from globals), a one-lane `par`
//! (the machine's elementwise op) and `opt::eval_pure` give every unary
//! and binary operator — `abs`, `power2`, `min` and `max` among them —
//! the same value on the edge operands, bit for bit, as an `int` and as a
//! `float` target holds it.

use std::fmt::Write;

use uc_core::ast::{Expr, Item, Stmt};
use uc_core::{opt, parser, Diagnostics, Program};

/// `i64::MIN`, −1, 0, 1, 62, 63, 64, `i64::MAX`, 2.5 and −2.5 as UC
/// source, and whether each is a float.
const EDGES: [(&str, bool); 10] = [
    ("(0 - INF - 1)", false),
    ("(0 - 1)", false),
    ("0", false),
    ("1", false),
    ("62", false),
    ("63", false),
    ("64", false),
    ("INF", false),
    ("2.5", true),
    ("(0 - 2.5)", true),
];

/// A value as an `int` holds it and as a `float` holds it (its bits).
type Held = (i64, u64);

/// `template` with its operands `{a}` (and `{b}`) replaced.
fn fill(template: &str, a: &str, b: &str) -> String {
    template.replace("{a}", a).replace("{b}", b)
}

/// What `opt::eval_pure` makes of `src`, or `None` where it declines (a
/// division by zero).
fn evaluated(src: &str) -> Option<Held> {
    let mut diags = Diagnostics::default();
    let unit = parser::parse(&format!("int x;\nmain() {{ x = {src}; }}"), &mut diags)
        .unwrap_or_else(|| panic!("parse `{src}`:\n{diags}"));
    let Some(Item::Func(main)) = unit.items.last() else { panic!("no main") };
    let Stmt::Expr(Expr::Assign { ops, .. }) = &main.body.stmts[0] else { panic!("no assignment") };
    let v = opt::eval_pure(&ops[1], |_| None).ok()?;
    Some((v.as_int(), v.as_float().to_bits()))
}

fn run(src: &str) -> Result<Program, String> {
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("{src}\n{d}"));
    p.run().map_err(|e| e.to_string())?;
    Ok(p)
}

/// Element `k` of the `int` array `ints` and the `float` array `floats`.
fn held(p: &Program, ints: &str, floats: &str, k: usize) -> Held {
    (p.read_int_array(ints).unwrap()[k], p.read_float_array(floats).unwrap()[k].to_bits())
}

/// Declarations and statements that compute `template` over operands
/// `a` and `b` on the front end from globals (into
/// `si`/`sf`) and in a one-lane `par` from array elements (`mi`/`mf`), as
/// the `k`th case.
fn live(template: &str, (a, af): (&str, bool), (b, bf): (&str, bool), k: usize) -> String {
    let var = |float: bool, side: &str| format!("{}{side}", if float { 'f' } else { 'i' });
    let (va, vb) = (var(af, "a"), var(bf, "b"));
    let front = fill(template, &va, &vb);
    let lane = fill(template, &format!("p{va}[i]"), &format!("p{vb}[i]"));
    format!(
        "    {va} = {a}; {vb} = {b}; si[{k}] = {front}; sf[{k}] = {front};\n    \
         p{va}[0] = {a}; p{vb}[0] = {b};\n    \
         par (I) {{ li[i] = {lane}; lf[i] = {lane}; }}\n    \
         mi[{k}] = li[0]; mf[{k}] = lf[0];\n"
    )
}

/// The four readings of `template` agree on every pair of edge operands
/// (every edge, for a unary one), floats left out where `ints_only`; a
/// pair `eval_pure` declines traps on the front end and in the `par`.
fn agree(template: &str, ints_only: bool) {
    let unary = !template.contains("{b}");
    let edges: Vec<_> = EDGES.iter().copied().filter(|&(_, float)| !(ints_only && float)).collect();
    let pairs: Vec<_> = if unary {
        edges.iter().map(|&e| (e, e)).collect()
    } else {
        edges.iter().flat_map(|&a| edges.iter().map(move |&b| (a, b))).collect()
    };
    let prelude = "index_set I:i = {0..0};\nint ia, ib, pia[1], pib[1], li[1];\n\
                   float fa, fb, pfa[1], pfb[1], lf[1];\n";
    let (mut cases, mut literals, mut live_body) = (Vec::new(), String::new(), String::new());
    for (a, b) in pairs {
        let literal = fill(template, a.0, b.0);
        let Some(value) = evaluated(&literal) else {
            // No value; the front end and the machine trap alike.
            let body = live(template, a, b, 0);
            let src = format!("{prelude}int si[1], mi[1];\nfloat sf[1], mf[1];\nmain() {{\n{body}}}\n");
            let front_end = body.lines().next().unwrap();
            let front = format!("{prelude}int si[1];\nfloat sf[1];\nmain() {{\n{front_end}\n}}\n");
            assert!(run(&front).is_err(), "`{literal}` runs on the front end:\n{front}");
            let par = src.replacen(front_end, "", 1);
            assert!(run(&par).is_err(), "`{literal}` runs in a `par`:\n{par}");
            continue;
        };
        let k = cases.len();
        writeln!(literals, "    ri[{k}] = {literal}; rf[{k}] = {literal};").unwrap();
        live_body.push_str(&live(template, a, b, k));
        cases.push((literal, value));
    }
    let n = cases.len();
    let literals = format!("int ri[{n}];\nfloat rf[{n}];\nmain() {{\n{literals}}}\n");
    let live_src =
        format!("{prelude}int si[{n}], mi[{n}];\nfloat sf[{n}], mf[{n}];\nmain() {{\n{live_body}}}\n");
    let f = run(&literals).unwrap_or_else(|e| panic!("{e}\n{literals}"));
    let l = run(&live_src).unwrap_or_else(|e| panic!("{e}\n{live_src}"));
    for (k, (literal, value)) in cases.iter().enumerate() {
        let readings = [
            ("literal operands", held(&f, "ri", "rf", k)),
            ("the front end", held(&l, "si", "sf", k)),
            ("a one-lane par", held(&l, "mi", "mf", k)),
        ];
        for (who, got) in readings {
            assert_eq!(got, *value, "`{literal}`: {who} disagrees with eval_pure");
        }
    }
}

/// One test per operator; `true` leaves float operands out (the
/// operator takes ints only).
macro_rules! agreement {
    ($($name:ident: $template:literal, $ints_only:literal;)*) => {$(
        #[test]
        fn $name() {
            agree($template, $ints_only);
        }
    )*};
}

agreement! {
    abs: "abs({a})", false;
    abs_upper_case: "ABS({a})", false;
    power2: "power2({a})", false;
    min: "min({a}, {b})", false;
    max: "max({a}, {b})", false;
    neg: "-{a}", false;
    not: "!{a}", false;
    bit_not: "~{a}", true;
    add: "{a} + {b}", false;
    sub: "{a} - {b}", false;
    mul: "{a} * {b}", false;
    div: "{a} / {b}", false;
    rem: "{a} % {b}", true;
    shl: "{a} << {b}", true;
    shr: "{a} >> {b}", true;
    lt: "{a} < {b}", false;
    le: "{a} <= {b}", false;
    gt: "{a} > {b}", false;
    ge: "{a} >= {b}", false;
    eq: "{a} == {b}", false;
    ne: "{a} != {b}", false;
    bit_and: "{a} & {b}", true;
    bit_xor: "{a} ^ {b}", true;
    bit_or: "{a} | {b}", true;
    log_and: "{a} && {b}", false;
    log_or: "{a} || {b}", false;
}
