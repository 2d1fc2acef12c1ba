//! UC101 — par-assignment race detection.
//!
//! Inside a `par`, every enabled index element executes each assignment
//! synchronously. A store to an array element whose *location* does not
//! vary with some index element the *stored value* varies with makes
//! several virtual processors write distinct values to one mono array
//! location — the write-write conflict the paper's §3.4 single-assignment
//! rule forbids (the runtime detects it with the router's collision
//! detection; this pass reports it statically). A scalar target cannot
//! race: a per-processor local is one location per virtual processor, and
//! a front-end scalar takes only a front-end value — storing a parallel
//! one to it is a sema error.
//!
//! Conservative suppressions keep the lint quiet on correct programs:
//! values combined by a reduction bind their own elements (not free), a
//! location subscripted by a per-VP local (`sorted[rank]`) varies with
//! every `par` element in scope, and a store guarded by a predicate that
//! mentions the offending element is assumed to narrow the context
//! (e.g. `st (i == 0)`).

use std::collections::HashSet;

use super::{Finding, Pass};
use crate::ast::*;
use crate::sema::{Checked, FuncInfo, LocalKind};
use crate::span::Span;

pub(crate) struct RacePass;

/// How a construct binds its index elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinderKind {
    /// `par` / `*par`: every enabled element runs synchronously.
    Par,
    /// `seq`, `oneof`, `solve`: one element (at a time) executes, or the
    /// construct has its own single-assignment discipline.
    Sequential,
    /// Reduction-bound: values are combined, not raced.
    Combined,
}

struct Walker<'c> {
    checked: &'c Checked,
    /// The walked function's locals: which are per-VP.
    info: &'c FuncInfo,
    /// Innermost-last element binders: the set whose element each open
    /// construct or reduction binds (what a `Ref::Elem` names). A `seq`
    /// binds none — its element is a front-end local.
    binders: Vec<(SetId, BinderKind)>,
    /// Elements mentioned by enclosing `st` predicates.
    guards: Vec<HashSet<SetId>>,
    par_depth: usize,
    out: Vec<Finding>,
}

impl Pass for RacePass {
    fn name(&self) -> &'static str {
        "races"
    }

    fn lints(&self) -> &'static [&'static str] {
        &["UC101"]
    }

    fn run(&self, checked: &Checked, out: &mut Vec<Finding>) {
        for (f, info) in checked.funcs_in_order().zip(&checked.func_infos) {
            let mut w = Walker {
                checked,
                info,
                binders: Vec::new(),
                guards: Vec::new(),
                par_depth: 0,
                out: Vec::new(),
            };
            for s in &f.body.stmts {
                w.stmt(s);
            }
            out.append(&mut w.out);
        }
    }
}

impl Walker<'_> {
    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Uc(uc) => self.uc(uc),
            // `if`/`while`/`for` guard nothing here: sema rejects them
            // inside a parallel construct, the only place stores race.
            _ => self.children(s),
        }
    }

    fn children(&mut self, s: &Stmt) {
        s.for_each_child(|n| match n {
            Node::Expr(e) => self.expr(e),
            Node::Stmt(s) => self.stmt(s),
        });
    }

    fn uc(&mut self, uc: &UcStmt) {
        let kind = match uc.kind {
            UcKind::Par => BinderKind::Par,
            UcKind::Seq | UcKind::Solve | UcKind::Oneof => BinderKind::Sequential,
        };
        let bound = if uc.kind == UcKind::Seq { &[][..] } else { &uc.sets[..] };
        self.push_elems(bound, kind);
        if kind == BinderKind::Par {
            self.par_depth += 1;
        }
        for arm in &uc.arms {
            match &arm.pred {
                Some(p) => {
                    self.expr(p);
                    self.push_guard(p);
                }
                None => self.guards.push(HashSet::new()),
            }
            self.stmt(&arm.body);
            self.guards.pop();
        }
        if let Some(o) = &uc.others {
            // `others` runs under the negation of every arm predicate:
            // still a narrowed context mentioning the same elements.
            let mut mentioned = HashSet::new();
            for arm in &uc.arms {
                if let Some(p) = &arm.pred {
                    self.free_par_elems(p, &mut mentioned);
                }
            }
            self.guards.push(mentioned);
            self.stmt(o);
            self.guards.pop();
        }
        if kind == BinderKind::Par {
            self.par_depth -= 1;
        }
        self.binders.truncate(self.binders.len() - bound.len());
    }

    /// Bind the elements of the sets.
    fn push_elems(&mut self, sets: &[SetId], kind: BinderKind) {
        self.binders.extend(sets.iter().map(|&s| (s, kind)));
    }

    fn push_guard(&mut self, pred: &Expr) {
        let mut mentioned = HashSet::new();
        self.free_par_elems(pred, &mut mentioned);
        self.guards.push(mentioned);
    }

    fn expr(&mut self, e: &Expr) {
        let mut pushed = 0;
        match e {
            Expr::Assign { target, op, value, span } => {
                self.check_assign(target, *op, value, *span)
            }
            Expr::Reduce(r) => {
                self.push_elems(&r.sets, BinderKind::Combined);
                pushed = r.sets.len();
            }
            _ => {}
        }
        e.for_each_child(|c| self.expr(c));
        self.binders.truncate(self.binders.len() - pushed);
    }

    fn check_assign(&mut self, target: &Expr, op: Option<BinaryOp>, value: &Expr, span: Span) {
        if self.par_depth == 0 {
            return;
        }
        // Which par elements select the location the store lands on?
        let Expr::Index { base, subs, .. } = target else { return };
        let mut loc_elems = HashSet::new();
        for s in subs {
            self.free_par_elems(s, &mut loc_elems);
            // A per-VP local holds a value per virtual processor, so a
            // location it selects varies with every `par` element in scope.
            let locals = &self.info.locals;
            if s.any(&mut |x| {
                matches!(x, Expr::Ident(Name { to: Ref::Local(id), .. }, _)
                    if locals[*id as usize].kind == LocalKind::PerVp)
            }) {
                let par = self.binders.iter().filter(|(_, k)| *k == BinderKind::Par);
                loc_elems.extend(par.map(|&(set, _)| set));
            }
        }
        let target_text = crate::pretty::access(&base.text, subs);
        let mut val_elems = HashSet::new();
        self.free_par_elems(value, &mut val_elems);
        if op.is_some() {
            // Compound assignment also reads the target location.
            for e in &loc_elems {
                val_elems.remove(e);
            }
        }
        let missing = val_elems
            .iter()
            .filter(|e| !loc_elems.contains(*e))
            .filter(|e| !self.guards.iter().any(|g| g.contains(*e)))
            .map(|&e| self.checked.sets[e].elem.as_str());
        if let Some(elem) = missing.min() {
            self.out.push(Finding {
                code: "UC101",
                span,
                message: format!(
                    "write-write race in `par`: the stored value varies with `{elem}` but \
                     every enabled element stores to the same location `{target_text}` — \
                     distinct values collide without a combining reduction (§3.4)"
                ),
            });
        }
    }

    /// Collect the `par`-bound elements free in `e` (reduction-bound and
    /// sequentially-bound elements shadow and are excluded).
    fn free_par_elems(&self, e: &Expr, out: &mut HashSet<SetId>) {
        match e {
            Expr::Ident(Name { to: Ref::Elem(set), .. }, _) => {
                let set = *set as SetId;
                if let Some((_, kind)) = self.binders.iter().rev().find(|(s, _)| *s == set) {
                    if *kind == BinderKind::Par {
                        out.insert(set);
                    }
                }
            }
            Expr::Reduce(r) => {
                // Elements the reduction itself binds are combined, not
                // free; shadow them during the sub-walk.
                let mut inner = HashSet::new();
                e.for_each_child(|c| self.free_par_elems(c, &mut inner));
                out.extend(inner.into_iter().filter(|set| !r.sets.contains(set)));
            }
            _ => e.for_each_child(|c| self.free_par_elems(c, out)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{check_str, codes_of};
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let checked = check_str(src);
        let mut out = Vec::new();
        RacePass.run(&checked, &mut out);
        out
    }

    #[test]
    fn constant_element_race_detected() {
        let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[0] = i; }");
        assert_eq!(codes_of(&f), vec!["UC101"]);
        assert!(f[0].message.contains("a[0]"));
        assert_eq!(f[0].span.line, 3);
    }

    #[test]
    fn missing_axis_race_detected() {
        let f = findings(
            "index_set I:i = {0..3}, J:j = I;\nint a[4];\nmain() { par (I, J) a[i] = j; }",
        );
        assert_eq!(codes_of(&f), vec!["UC101"]);
        assert!(f[0].message.contains("`j`"));
    }

    #[test]
    fn same_value_stores_are_clean() {
        // Every element stores 1 — identical values are allowed (§3.4).
        let f = findings("index_set I:i = {0..7};\nint s, a[8];\nmain() { par (I) st (a[i] > 0) s = 1; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn guard_mentioning_element_suppresses() {
        let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) st (i == 0) a[0] = i; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn reduction_combines_cleanly() {
        let f = findings(
            "index_set I:i = {0..7}, J:j = I;\nint a[8], rank[8];\n\
             main() { par (I) rank[i] = $+(J st (a[j] < a[i]) 1); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn per_vp_locals_are_clean() {
        let f = findings(
            "index_set I:i = {0..7};\nint a[8];\nmain() { par (I) { int t; t = i; a[i] = t; } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn a_per_vp_subscript_varies_with_every_element() {
        // `rank` differs per element (a ranksort): no two store together.
        let f = findings(
            "index_set I:i = {0..7}, J:j = I;\nint a[8], sorted[8];\n\
             main() { par (I) { int rank; rank = $+(J st (a[j] < a[i]) 1); \
             sorted[rank] = a[i]; } }",
        );
        assert!(f.is_empty(), "{f:?}");
        // A front-end local is one value for every element: still a race.
        let f = findings(
            "index_set I:i = {0..7};\nint a[8];\nmain() { int k; k = 0; par (I) a[k] = i; }",
        );
        assert_eq!(codes_of(&f), vec!["UC101"]);
    }

    #[test]
    fn seq_is_sequential() {
        let f = findings("index_set I:i = {0..7};\nint s;\nmain() { seq (I) s = i; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn compound_assignment_reads_target() {
        // a[i] += i varies with i in both value and location: clean.
        let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[i] += i; }");
        assert!(f.is_empty(), "{f:?}");
        // a[0] += i still races on the shared location.
        let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[0] += i; }");
        assert_eq!(codes_of(&f), vec!["UC101"]);
    }
}
