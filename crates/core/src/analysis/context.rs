//! UC120/UC121 — context-mask analysis.
//!
//! UC's constructs narrow the activity context with `st` predicates
//! (§3.4): a constant-false predicate empties the context, so the guarded
//! statement can never execute — the same fact the §4 dead-context
//! elimination uses, reported here instead of silently exploited (UC120,
//! also covering `if (0)` / `while (0)`). UC121 flags index-set
//! definitions — virtual-processor sets — that no construct, reduction,
//! alias or map section ever resolves to: they only cost processors (§4
//! processor optimization). Sema marks each definition it resolves a set
//! name to ([`IndexSetInfo::used`](crate::sema::IndexSetInfo::used)), so a
//! set shadowed by another of the same name is judged on its own uses;
//! this pass walks only the guards.

use super::{const_false, Finding};
use crate::ast::*;
use crate::sema::Checked;

/// Report UC120 on every function, then UC121 on every unused set.
pub(crate) fn run(checked: &Checked, out: &mut Vec<Finding>) {
    for f in checked.funcs_in_order() {
        for s in &f.body.stmts {
            guards(checked, s, out);
        }
    }
    for set in checked.sets.iter().filter(|set| !set.used) {
        out.push(Finding {
            code: "UC121",
            span: set.span,
            message: format!(
                "index set `{}` is never used by any construct, reduction, \
                 alias or map declaration (§4 processor optimization)",
                set.name
            ),
        });
    }
}

/// Report UC120 on every constant-false guard in `s`.
fn guards(checked: &Checked, s: &Stmt, out: &mut Vec<Finding>) {
    let mut guard = |e: &Expr, what: &str| {
        if const_false(e, checked) {
            out.push(Finding {
                code: "UC120",
                span: e.span(),
                message: format!("{what}; the guarded statement can never execute (§3.4 context)"),
            });
        }
    };
    match s {
        Stmt::If { cond, .. } => guard(cond, "`if` condition is constant-false"),
        Stmt::While { cond, .. } => guard(cond, "`while` condition is constant-false"),
        Stmt::For { cond: Some(c), .. } => guard(c, "`for` condition is constant-false"),
        Stmt::Uc(uc) => {
            for pred in uc.arms.iter().filter_map(|arm| arm.pred.as_ref()) {
                guard(pred, "`st` predicate is constant-false: the context is empty");
            }
        }
        _ => {}
    }
    s.for_each_child(|n| {
        if let Node::Stmt(s) = n {
            guards(checked, s, out);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::super::{check_str, codes_of};
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let checked = check_str(src);
        let mut out = Vec::new();
        run(&checked, &mut out);
        out
    }

    #[test]
    fn constant_false_predicate_is_flagged() {
        let f = findings(
            "index_set I:i = {0..7};\nint a[8];\nmain() { par (I) st (0) a[i] = 1; }",
        );
        assert_eq!(codes_of(&f), vec!["UC120"]);
        assert_eq!(f[0].span.line, 3);
    }

    #[test]
    fn constant_false_if_and_while_are_flagged() {
        let f = findings("main() { int x; x = 1; if (0) x = 2; while (1 > 2) x = 3; }");
        assert_eq!(codes_of(&f), vec!["UC120", "UC120"]);
    }

    #[test]
    fn runtime_predicates_are_clean() {
        let f = findings(
            "index_set I:i = {0..7};\nint a[8];\n\
             main() { int x; x = 0; if (x) x = 2; par (I) st (a[i] > 0) a[i] = 1; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unused_set_is_flagged() {
        let f = findings(
            "index_set I:i = {0..7}, J:jj = {0..3};\nint a[8];\nmain() { par (I) a[i] = 1; }",
        );
        assert_eq!(codes_of(&f), vec!["UC121"]);
        assert!(f[0].message.contains("`J`"));
        assert_eq!(f[0].span.line, 1);
    }

    #[test]
    fn reduction_and_alias_uses_count() {
        let f = findings(
            "index_set I:i = {0..7}, J:j = I, K:k = {0..3};\nint a[8], s;\n\
             main() { s = $+(J; a[j]); seq (K) s = s + 1; }",
        );
        // I is used as J's alias source; J by the reduction; K by `seq`.
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn map_section_uses_count() {
        let f = findings(
            "index_set I:i = {0..7};\nint a[8], b[8];\n\
             map (I) { permute (I) a[i+1] :- b[i]; }\nmain() { int x; x = 0; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
