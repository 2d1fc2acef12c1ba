//! UC → C* source translation.
//!
//! The paper's prototype compiled UC to C*, Thinking Machines' data-
//! parallel C dialect (Rose & Steele 1987), which was then compiled by the
//! C* compiler. This module reproduces that translation *textually*: it
//! emits a C* program in the domain style of the paper's Appendix
//! (Figures 9 and 10). The emitted code is documentation-grade output —
//! the executable path of this crate runs UC directly on the simulator,
//! which is also what `uc-cstar` (the baseline runtime) models.

use crate::ast::*;
use crate::pretty;
use crate::sema::Checked;

/// Emit a C* rendition of a checked UC program.
///
/// The translation follows the scheme of the paper's appendix:
/// every maximal parallel shape becomes a `domain` with one instance per
/// index point; `par` statements become domain-selection statements; `st`
/// predicates become `where` clauses; reductions become the C* reduction
/// assignment operators (`+=`, `<?=`, `>?=` applied to a mono variable).
pub fn emit_cstar(checked: &Checked) -> String {
    let mut out = String::new();
    out.push_str("/* Translated from UC by uc-core (see Bagrodia, Chandy & Kwan 1990, §5). */\n");
    for (name, value) in &checked.unit.defines {
        out.push_str(&format!("#define {name} {value}\n"));
    }
    out.push('\n');

    // One domain per distinct parallel array shape.
    let mut shapes: Vec<Vec<usize>> = Vec::new();
    for info in checked.arrays.values() {
        if !shapes.contains(&info.shape) {
            shapes.push(info.shape.clone());
        }
    }
    shapes.sort();
    for (k, shape) in shapes.iter().enumerate() {
        out.push_str(&format!("domain SHAPE{k} {{\n"));
        for d in 0..shape.len() {
            out.push_str(&format!("    int coord{d};\n"));
        }
        for (name, info) in sorted_arrays(checked) {
            if info.shape == *shape {
                let cname = match info.ty {
                    Type::Float => "float",
                    _ => "int",
                };
                out.push_str(&format!("    {cname} {name};\n"));
            }
        }
        let dims: String = shape.iter().map(|d| format!("[{d}]")).collect();
        out.push_str(&format!("}} shape{k}{dims};\n\n"));
    }

    for (name, (ty, init)) in sorted_scalars(checked) {
        let cname = match ty {
            Type::Float => "float",
            _ => "int",
        };
        match init {
            Some(v) => out.push_str(&format!("{cname} {name} = {v};\n")),
            None => out.push_str(&format!("{cname} {name};\n")),
        }
    }
    out.push('\n');

    for item in &checked.unit.items {
        if let Item::Func(f) = item {
            out.push_str(&emit_func(checked, f, &shapes));
            out.push('\n');
        }
    }
    out
}

fn sorted_arrays(checked: &Checked) -> Vec<(String, crate::sema::ArrayInfo)> {
    let mut v: Vec<_> = checked.arrays.iter().map(|(n, i)| (n.clone(), i.clone())).collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

fn sorted_scalars(checked: &Checked) -> Vec<(String, (Type, Option<i64>))> {
    let mut v: Vec<_> = checked.scalars.iter().map(|(n, i)| (n.clone(), *i)).collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

fn emit_func(checked: &Checked, f: &FuncDef, shapes: &[Vec<usize>]) -> String {
    let ret = match f.ret {
        Type::Float => "float",
        Type::Void => "void",
        Type::Int => "int",
    };
    let params: Vec<String> = f
        .params
        .iter()
        .map(|(t, n)| {
            format!("{} {}", if *t == Type::Float { "float" } else { "int" }, n)
        })
        .collect();
    let mut out = format!("{ret} {}({}) {{\n", f.name, params.join(", "));
    for s in &f.body.stmts {
        emit_stmt(checked, s, shapes, 1, &mut out);
    }
    out.push_str("}\n");
    out
}

fn emit_stmt(checked: &Checked, s: &Stmt, shapes: &[Vec<usize>], indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::Uc(uc) => {
            let dims = construct_shape(checked, uc);
            let shape_id = shapes.iter().position(|s| *s == dims);
            let selector = match shape_id {
                Some(k) => format!("[domain SHAPE{k}]."),
                None => format!("/* shape {dims:?} */ [domain SHAPE?]."),
            };
            match uc.kind {
                UcKind::Par | UcKind::Oneof | UcKind::Solve => {
                    if uc.star {
                        out.push_str(&format!(
                            "{pad}/* *{}: iterate while any predicate holds */\n",
                            uc.kind.keyword()
                        ));
                        out.push_str(&format!("{pad}do {{\n"));
                    }
                    out.push_str(&format!("{pad}{selector}{{\n"));
                    for arm in &uc.arms {
                        match &arm.pred {
                            Some(p) => {
                                out.push_str(&format!(
                                    "{pad}    where ({}) {{\n",
                                    pretty::expr(p)
                                ));
                                emit_stmt(checked, &arm.body, shapes, indent + 2, out);
                                out.push_str(&format!("{pad}    }}\n"));
                            }
                            None => emit_stmt(checked, &arm.body, shapes, indent + 1, out),
                        }
                    }
                    if let Some(o) = &uc.others {
                        out.push_str(&format!("{pad}    else {{\n"));
                        emit_stmt(checked, o, shapes, indent + 2, out);
                        out.push_str(&format!("{pad}    }}\n"));
                    }
                    out.push_str(&format!("{pad}}}\n"));
                    if uc.star {
                        out.push_str(&format!("{pad}}} while (/* any enabled */ 0);\n"));
                    }
                }
                UcKind::Seq => {
                    let set = &checked.sets[uc.sets[0]];
                    let (elem, name) = (&set.elem, &set.name);
                    out.push_str(&format!(
                        "{pad}for ({elem} = 0; {elem} < /* |{name}| */ N; {elem}++) {{\n"
                    ));
                    for arm in &uc.arms {
                        emit_stmt(checked, &arm.body, shapes, indent + 1, out);
                    }
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
        }
        Stmt::Expr(Expr::Assign { target, op: None, value, .. }) => {
            // Min/max reductions become C*'s <?= / >?= on the target.
            if let Expr::Reduce(r) = value.as_ref() {
                use crate::token::RedOpToken as R;
                let cop = match r.op {
                    R::Add => Some("+="),
                    R::Min => Some("<?="),
                    R::Max => Some(">?="),
                    R::Mul => Some("*="),
                    _ => None,
                };
                if let (Some(cop), [(None, operand)]) = (cop, &r.arms[..]) {
                    out.push_str(&format!(
                        "{pad}{} {cop} {};\n",
                        pretty::expr(target),
                        pretty::expr(operand)
                    ));
                    return;
                }
            }
            out.push_str(&format!("{pad}{};\n", pretty::expr(&Expr::Assign {
                target: target.clone(),
                op: None,
                value: value.clone(),
                span: crate::span::Span::default(),
            })));
        }
        Stmt::Block(b) => {
            for s in &b.stmts {
                emit_stmt(checked, s, shapes, indent, out);
            }
        }
        // C* has no index sets: every construct above selects the domain
        // its sets shape.
        Stmt::IndexSets(_) => {}
        other => {
            out.push_str(&format!("{pad}{}\n", pretty::stmt_to_string(other, indent)));
        }
    }
}

/// The Cartesian shape a construct iterates over.
fn construct_shape(checked: &Checked, uc: &UcStmt) -> Vec<usize> {
    uc.sets.iter().map(|&s| checked.sets[s].elements.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::parser::parse;
    use crate::sema::check;

    fn emit(src: &str) -> String {
        let mut d = Diagnostics::default();
        let u = parse(src, &mut d).expect("parse");
        let c = check(u, &mut d).expect("sema");
        emit_cstar(&c)
    }

    #[test]
    fn emits_domains_for_shapes() {
        let text = emit(
            "#define N 8\nindex_set I:i = {0..N-1}, J:j = I;\nint d[N][N];\nmain() { par (I,J) d[i][j] = 0; }",
        );
        assert!(text.contains("domain SHAPE0"), "{text}");
        assert!(text.contains("int d;"), "{text}");
        assert!(text.contains("[domain SHAPE0]."), "{text}");
        assert!(text.contains("#define N 8"), "{text}");
    }

    #[test]
    fn a_local_set_shapes_its_construct() {
        let text = emit(
            "index_set I:i = {0..3};\nint a[4], b[8];\n\
             main() { par (I) a[i] = i; { index_set I:i = {0..7}; par (I) b[i] = i * 10; } }",
        );
        let main = &text[text.find("main()").expect("main")..];
        let domain_of = |stmt: &str| {
            let at = main.find(stmt).unwrap_or_else(|| panic!("`{stmt}` in {main}"));
            main[..at].rfind("[domain SHAPE").map(|d| &main[d..d + 15])
        };
        assert_eq!(domain_of("a[i] = i;"), Some("[domain SHAPE0]"), "{text}");
        assert_eq!(domain_of("b[i] = i * 10;"), Some("[domain SHAPE1]"), "{text}");
        assert!(text.contains("} shape1[8];"), "{text}");
        assert!(!main.contains("index_set"), "{text}");
    }

    #[test]
    fn where_clauses_from_st() {
        let text = emit(
            "#define N 8\nindex_set I:i = {0..N-1};\nint a[N];\nmain() { par (I) st (a[i] != 0) a[i] = 1; }",
        );
        assert!(text.contains("where (a[i] != 0)"), "{text}");
    }

    #[test]
    fn min_reduction_becomes_cstar_operator() {
        let text = emit(
            "#define N 4\nindex_set I:i = {0..N-1}, J:j = I, K:k = I;\nint d[N][N];\nmain() { par (I,J) d[i][j] = $<(K; d[i][k] + d[k][j]); }",
        );
        assert!(text.contains("<?="), "expected C* min-assignment: {text}");
    }
}
