//! UC120/UC121 — context-mask analysis.
//!
//! UC's constructs narrow the activity context with `st` predicates
//! (§3.4): a constant-false predicate empties the context, so the guarded
//! statement can never execute — the same fact the §4 dead-context
//! elimination uses, reported here instead of silently exploited (UC120,
//! also covering `if (0)` / `while (0)`). UC121 flags index sets —
//! virtual-processor sets — that no construct, reduction, alias or map
//! declaration ever names: they only cost processors (§4 processor
//! optimization).

use std::collections::HashSet;

use super::{const_false, Finding, Pass};
use crate::ast::*;
use crate::sema::Checked;
use crate::span::Span;

pub(crate) struct ContextPass;

impl Pass for ContextPass {
    fn name(&self) -> &'static str {
        "context"
    }

    fn lints(&self) -> &'static [&'static str] {
        &["UC120", "UC121"]
    }

    fn run(&self, checked: &Checked, out: &mut Vec<Finding>) {
        let mut w = Walker { checked, defs: Vec::new(), used: HashSet::new(), out: Vec::new() };
        for item in &checked.unit.items {
            match item {
                Item::IndexSets(defs) => w.sets(defs),
                Item::Func(f) => {
                    for s in &f.body.stmts {
                        w.stmt(s);
                    }
                }
                Item::Map(ms) => {
                    w.use_sets(&ms.idxs);
                    for d in &ms.decls {
                        w.use_sets(&d.idxs);
                    }
                }
                Item::Var(v) => {
                    if let Some(init) = &v.init {
                        w.expr(init);
                    }
                }
            }
        }
        for (name, span) in &w.defs {
            if !w.used.contains(name) {
                w.out.push(Finding {
                    code: "UC121",
                    span: *span,
                    message: format!(
                        "index set `{name}` is never used by any construct, reduction, \
                         alias or map declaration (§4 processor optimization)"
                    ),
                });
            }
        }
        out.append(&mut w.out);
    }
}

struct Walker<'c> {
    checked: &'c Checked,
    /// Every index-set definition seen, with its span.
    defs: Vec<(String, Span)>,
    /// Every index-set name mentioned as a use.
    used: HashSet<String>,
    out: Vec<Finding>,
}

impl Walker<'_> {
    fn sets(&mut self, defs: &[IndexSetDef]) {
        for def in defs {
            self.defs.push((def.name.clone(), def.span));
            if let IndexSetInit::Alias(src) = &def.init {
                self.used.insert(src.clone());
            }
        }
    }

    fn use_sets(&mut self, idxs: &[String]) {
        for name in idxs {
            self.used.insert(name.clone());
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::IndexSets(defs) => self.sets(defs),
            Stmt::If { cond, .. } => self.guard(cond, "`if` condition is constant-false"),
            Stmt::While { cond, .. } => self.guard(cond, "`while` condition is constant-false"),
            Stmt::For { cond: Some(c), .. } => self.guard(c, "`for` condition is constant-false"),
            Stmt::Uc(uc) => {
                self.use_sets(&uc.idxs);
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
                self.use_sets(&r.idxs);
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
        ContextPass.run(&checked, &mut out);
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
