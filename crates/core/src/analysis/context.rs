//! UC120/UC121 — context-mask analysis.
//!
//! UC's constructs narrow the activity context with `st` predicates
//! (§3.4): a constant-false predicate empties the context, so the guarded
//! statement can never execute — the same fact the §4 dead-context
//! elimination uses, reported here instead of silently exploited (UC120,
//! also covering `if (0)` / `while (0)`). UC121 flags index-set
//! definitions — virtual-processor sets — that no construct, reduction,
//! alias or map declaration ever resolves to: they only cost processors
//! (§4 processor optimization). A definition is an entry of sema's set
//! table, so a set shadowed by another of the same name is judged on
//! its own uses.

use super::{const_false, Finding};
use crate::ast::*;
use crate::sema::Checked;

/// Report UC120 on every item, then UC121 on every unused set.
pub(crate) fn run(checked: &Checked, out: &mut Vec<Finding>) {
    let used = vec![false; checked.sets.len()];
    let mut w = Walker { checked, used, out: Vec::new() };
    w.use_sets(checked.sets.iter().filter_map(|s| s.alias_of));
    for item in &checked.unit.items {
        match item {
            Item::IndexSets(_) => {}
            Item::Func(f) => {
                for s in &f.body.stmts {
                    w.stmt(s);
                }
            }
            Item::Map(ms) => {
                w.use_sets(ms.sets.iter().chain(ms.decls.iter().flat_map(|d| &d.sets)).copied());
            }
            Item::Var(v) => {
                if let Some(init) = &v.init {
                    w.expr(init);
                }
            }
        }
    }
    for (set, used) in checked.sets.iter().zip(&w.used) {
        if !used {
            w.out.push(Finding {
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
    out.append(&mut w.out);
}

struct Walker<'c> {
    checked: &'c Checked,
    /// Per entry of `checked.sets`: whether anything resolves to it.
    used: Vec<bool>,
    out: Vec<Finding>,
}

impl Walker<'_> {
    fn use_sets(&mut self, sets: impl IntoIterator<Item = SetId>) {
        for set in sets {
            self.used[set] = true;
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::If { cond, .. } => self.guard(cond, "`if` condition is constant-false"),
            Stmt::While { cond, .. } => self.guard(cond, "`while` condition is constant-false"),
            Stmt::For { cond: Some(c), .. } => self.guard(c, "`for` condition is constant-false"),
            Stmt::Uc(uc) => {
                self.use_sets(uc.sets.iter().copied());
                for pred in uc.arms.iter().filter_map(|arm| arm.pred.as_ref()) {
                    self.guard(pred, "`st` predicate is constant-false: the context is empty");
                }
            }
            _ => {}
        }
        s.for_each_child(|n| match n {
            Node::Expr(e) => self.expr(e),
            Node::Stmt(s) => self.stmt(s),
        });
    }

    /// Report UC120 if the guard `e` is a constant zero.
    fn guard(&mut self, e: &Expr, what: &str) {
        if const_false(e, self.checked) {
            self.out.push(Finding {
                code: "UC120",
                span: e.span(),
                message: format!("{what}; the guarded statement can never execute (§3.4 context)"),
            });
        }
    }

    /// Reductions name index sets too.
    fn expr(&mut self, e: &Expr) {
        e.walk(&mut |x| {
            if let Expr::Reduce(r) = x {
                self.use_sets(r.sets.iter().copied());
            }
        });
    }
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
