//! AST pretty-printer.
//!
//! Renders statements and expressions back to UC source: `--emit ir`'s
//! fragments of tree escapes, and the accesses the lints quote.

use crate::ast::*;

fn index_set_to_string(d: &IndexSetDef) -> String {
    let init = match &d.init {
        IndexSetInit::Range(lo, hi) => format!("{{{}..{}}}", expr(lo), expr(hi)),
        IndexSetInit::List(items) => {
            format!("{{{}}}", items.iter().map(expr).collect::<Vec<_>>().join(", "))
        }
        IndexSetInit::Alias(a) => a.clone(),
    };
    format!("{}:{} = {}", d.name, d.elem, init)
}

fn type_name(t: Type) -> &'static str {
    match t {
        Type::Int => "int",
        Type::Float => "float",
        Type::Void => "void",
    }
}

fn var_to_string(v: &VarDecl) -> String {
    let dims: String = v.dims.iter().map(|d| format!("[{}]", expr(d))).collect();
    match &v.init {
        Some(e) => format!("{} {}{} = {};", type_name(v.ty), v.name, dims, expr(e)),
        None => format!("{} {}{};", type_name(v.ty), v.name, dims),
    }
}

fn block_to_string(b: &Block, indent: usize) -> String {
    let pad = "    ".repeat(indent);
    let inner = "    ".repeat(indent + 1);
    let mut out = String::from("{\n");
    for s in &b.stmts {
        out.push_str(&inner);
        out.push_str(&stmt_to_string(s, indent + 1));
        out.push('\n');
    }
    out.push_str(&pad);
    out.push('}');
    out
}

/// Render a statement at an indent level.
pub fn stmt_to_string(s: &Stmt, indent: usize) -> String {
    match s {
        Stmt::Empty => ";".into(),
        Stmt::Expr(e) => format!("{};", expr(e)),
        Stmt::Decl(v) => var_to_string(v),
        Stmt::IndexSets(defs) => {
            let parts: Vec<String> = defs.iter().map(index_set_to_string).collect();
            format!("index_set {};", parts.join(", "))
        }
        Stmt::Block(b) => block_to_string(b, indent),
        Stmt::If { cond, then_branch, else_branch, .. } => {
            let mut out = format!(
                "if ({}) {}",
                expr(cond),
                stmt_to_string(then_branch, indent)
            );
            if let Some(e) = else_branch {
                out.push_str(&format!(" else {}", stmt_to_string(e, indent)));
            }
            out
        }
        Stmt::While { cond, body, .. } => {
            format!("while ({}) {}", expr(cond), stmt_to_string(body, indent))
        }
        Stmt::For { init, cond, step, body, .. } => {
            let p = |o: &Option<Box<Expr>>| o.as_deref().map(expr).unwrap_or_default();
            format!(
                "for ({}; {}; {}) {}",
                p(init),
                p(cond),
                p(step),
                stmt_to_string(body, indent)
            )
        }
        Stmt::Return(e, _) => match e {
            Some(e) => format!("return {};", expr(e)),
            None => "return;".into(),
        },
        Stmt::Break(_) => "break;".into(),
        Stmt::Continue(_) => "continue;".into(),
        Stmt::Uc(uc) => uc_to_string(uc, indent),
    }
}

fn uc_to_string(uc: &UcStmt, indent: usize) -> String {
    let star = if uc.star { "*" } else { "" };
    let mut out = format!("{}{} ({})", star, uc.kind.keyword(), uc.idxs.join(", "));
    let inner = "    ".repeat(indent + 1);
    for arm in &uc.arms {
        match &arm.pred {
            Some(p) => {
                out.push_str(&format!(
                    "\n{inner}st ({}) {}",
                    expr(p),
                    stmt_to_string(&arm.body, indent + 1)
                ));
            }
            None => {
                out.push(' ');
                out.push_str(&stmt_to_string(&arm.body, indent));
            }
        }
    }
    if let Some(o) = &uc.others {
        out.push_str(&format!("\n{inner}others {}", stmt_to_string(o, indent + 1)));
    }
    out
}

/// Render the array access `base[sub]...`, as the lints quote it.
pub fn access(base: &str, subs: &[Expr]) -> String {
    use std::fmt::Write;
    let mut s = String::from(base);
    for sub in subs {
        let _ = write!(s, "[{}]", expr(sub));
    }
    s
}

/// Render an expression (fully parenthesised where precedence matters).
pub fn expr(e: &Expr) -> String {
    match e {
        Expr::IntLit(v, _) => v.to_string(),
        Expr::FloatLit(v, _) => {
            if v.fract() == 0.0 && v.is_finite() {
                format!("{v:.1}")
            } else {
                v.to_string()
            }
        }
        Expr::Inf(_) => "INF".into(),
        Expr::Ident(n, _) => n.to_string(),
        Expr::Index { base, subs, .. } => access(&base.text, subs),
        Expr::Call { name, args, .. } => {
            format!("{name}({})", args.iter().map(expr).collect::<Vec<_>>().join(", "))
        }
        // `abs`, `power2`, `min` and `max` print as the calls they are written as.
        Expr::Unary { op, expr: inner, .. } if op.is_call() => {
            format!("{}({})", op.symbol(), expr(inner))
        }
        Expr::Unary { op, expr: inner, .. } => format!("{}{}", op.symbol(), atom(inner)),
        Expr::Binary { op, ops, .. } if op.is_call() => {
            format!("{}({}, {})", op.symbol(), expr(&ops[0]), expr(&ops[1]))
        }
        Expr::Binary { op, ops, .. } => {
            format!("{} {} {}", atom(&ops[0]), op.symbol(), atom(&ops[1]))
        }
        Expr::Ternary { ops, .. } => {
            let [cond, then_e, else_e] = &**ops;
            format!("{} ? {} : {}", atom(cond), expr(then_e), expr(else_e))
        }
        Expr::Assign { op, ops, .. } => {
            let [target, value] = &**ops;
            let sym = match op {
                None => "=".to_string(),
                Some(o) => format!("{}=", o.symbol()),
            };
            format!("{} {} {}", expr(target), sym, expr(value))
        }
        Expr::Reduce(r) => {
            let op = r.op.to_string();
            let mut body = String::new();
            let simple = r.arms.len() == 1 && r.arms[0].0.is_none();
            if simple {
                body.push_str(&format!("; {}", expr(&r.arms[0].1)));
            } else {
                for (p, o) in &r.arms {
                    match p {
                        Some(p) => body.push_str(&format!(" st ({}) {}", expr(p), expr(o))),
                        None => body.push_str(&format!("; {}", expr(o))),
                    }
                }
            }
            if let Some(o) = &r.others {
                body.push_str(&format!(" others {}", expr(o)));
            }
            format!("{op}({}{body})", r.idxs.join(", "))
        }
    }
}

/// Parenthesise compound subexpressions.
fn atom(e: &Expr) -> String {
    match e {
        Expr::Binary { op, .. } if !op.is_call() => format!("({})", expr(e)),
        Expr::Ternary { .. } | Expr::Assign { .. } => format!("({})", expr(e)),
        _ => expr(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::parser::parse;

    #[test]
    fn expr_precedence_parens() {
        let mut d = Diagnostics::default();
        let u = parse("main() { int x; x = (1 + 2) * 3; }", &mut d).unwrap();
        let Some(Item::Func(main)) = u.items.first() else { panic!("main") };
        assert_eq!(stmt_to_string(&main.body.stmts[1], 0), "x = (1 + 2) * 3;");
    }
}
