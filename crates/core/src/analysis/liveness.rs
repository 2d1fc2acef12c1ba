//! UC130/UC131/UC132 — init/liveness dataflow.
//!
//! Classic forward dataflow over each function body (§4's "standard code
//! optimizations" applied as diagnostics):
//!
//! * **UC130** — a local scalar is read while *definitely* uninitialised:
//!   no path from its declaration assigns it first. Branch merges
//!   intersect (a variable stays definitely-uninitialised only when every
//!   branch leaves it so), so maybe-initialised reads are never flagged.
//! * **UC131** — a store to a local scalar is overwritten before any read
//!   within the same straight-line run; any control flow conservatively
//!   clears the tracking.
//! * **UC132** — a function that `main` never reaches through the call
//!   graph, as sema found it ([`Checked::reachable`]).

use std::collections::{HashMap, HashSet};

use super::Finding;
use crate::ast::*;
use crate::sema::{Checked, FuncInfo, LocalKind};
use crate::span::Span;

/// Report UC130/UC131 per function, then UC132.
pub(crate) fn run(checked: &Checked, out: &mut Vec<Finding>) {
    for (f, info) in checked.funcs_in_order().zip(&checked.func_infos) {
        let mut w = FnWalker {
            info,
            params: f.params.len() as LocalId,
            uninit: HashSet::new(),
            reported: HashSet::new(),
            pending: HashMap::new(),
            out: Vec::new(),
        };
        for s in &f.body.stmts {
            w.stmt(s);
        }
        out.append(&mut w.out);
    }
    let funcs = checked.funcs_in_order().zip(&checked.reachable);
    for (f, _) in funcs.filter(|(_, &reached)| !reached) {
        out.push(Finding {
            code: "UC132",
            span: f.span,
            message: format!("function `{}` is never called from `main` (§4 dead code)", f.name),
        });
    }
}

/// Everything is keyed by the `LocalId` sema resolved an identifier to,
/// so two locals that share a spelling are two variables.
struct FnWalker<'c> {
    /// Sema's table of the function (names, for the messages).
    info: &'c FuncInfo,
    /// Locals `0..params` are parameters: initialised by the caller, and
    /// not tracked (reads of globals and elements are not locals at all).
    params: LocalId,
    /// Local scalars definitely uninitialised at this program point.
    uninit: HashSet<LocalId>,
    /// Variables already reported for UC130 (one report per variable).
    reported: HashSet<LocalId>,
    /// Straight-line pending stores: variable → span of the last store
    /// with no read since (UC131).
    pending: HashMap<LocalId, Span>,
    out: Vec<Finding>,
}

impl FnWalker<'_> {
    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl(v) => {
                if !v.dims.is_empty() {
                    for d in &v.dims {
                        self.expr(d);
                    }
                    return; // arrays: element state is not tracked
                }
                match &v.init {
                    Some(init) => {
                        self.expr(init);
                        self.store(v.local, v.span);
                    }
                    None => {
                        self.uninit.insert(v.local);
                    }
                }
            }
            Stmt::IndexSets(_) => {}
            Stmt::If { cond, then_branch, else_branch, .. } => {
                self.expr(cond);
                self.pending.clear();
                let before = self.uninit.clone();
                self.stmt(then_branch);
                let after_then = std::mem::replace(&mut self.uninit, before);
                self.pending.clear();
                match else_branch {
                    Some(e) => {
                        self.stmt(e);
                        // Definitely-uninit iff uninit on both branches.
                        self.uninit.retain(|v| after_then.contains(v));
                    }
                    None => {
                        // The fall-through path keeps `before`; intersect
                        // with the then-branch outcome.
                        self.uninit.retain(|v| after_then.contains(v));
                    }
                }
                self.pending.clear();
            }
            Stmt::While { cond, body, .. } => {
                self.expr(cond);
                self.pending.clear();
                let before = self.uninit.clone();
                self.stmt(body);
                // Zero iterations keep `before`; >0 keep the body outcome.
                let after_body = std::mem::replace(&mut self.uninit, before);
                self.uninit.retain(|v| after_body.contains(v));
                self.pending.clear();
            }
            Stmt::For { init, cond, step, body, .. } => {
                if let Some(e) = init {
                    self.expr(e);
                }
                if let Some(e) = cond {
                    self.expr(e);
                }
                self.pending.clear();
                let before = self.uninit.clone();
                self.stmt(body);
                if let Some(e) = step {
                    self.expr(e);
                }
                let after_body = std::mem::replace(&mut self.uninit, before);
                self.uninit.retain(|v| after_body.contains(v));
                self.pending.clear();
            }
            Stmt::Return(..) => {
                self.children(s);
                self.pending.clear();
            }
            Stmt::Uc(uc) => {
                self.pending.clear();
                let before = self.uninit.clone();
                let mut merged: Option<HashSet<LocalId>> = None;
                for arm in &uc.arms {
                    self.uninit = before.clone();
                    self.pending.clear();
                    if let Some(p) = &arm.pred {
                        self.expr(p);
                    }
                    self.stmt(&arm.body);
                    let out = std::mem::take(&mut self.uninit);
                    merged = Some(match merged {
                        None => out,
                        Some(m) => m.intersection(&out).cloned().collect(),
                    });
                }
                if let Some(o) = &uc.others {
                    self.uninit = before.clone();
                    self.stmt(o);
                    let out = std::mem::take(&mut self.uninit);
                    merged = Some(match merged {
                        None => out,
                        Some(m) => m.intersection(&out).cloned().collect(),
                    });
                }
                self.uninit = merged.unwrap_or(before);
                self.pending.clear();
            }
            _ => self.children(s),
        }
    }

    fn children(&mut self, s: &Stmt) {
        s.for_each_child(|n| match n {
            Node::Expr(e) => self.expr(e),
            Node::Stmt(s) => self.stmt(s),
        });
    }

    /// The declared scalar local `name` denotes, if it does.
    fn tracked(&self, name: &Name) -> Option<LocalId> {
        match name.to {
            Ref::Local(id) if id >= self.params => {
                let scalar = !matches!(self.info.locals[id as usize].kind, LocalKind::Array(_));
                scalar.then_some(id)
            }
            _ => None,
        }
    }

    /// Record a store to a local scalar, reporting the previous store in
    /// this straight-line run if it was never read (UC131).
    fn store(&mut self, id: LocalId, span: Span) {
        self.uninit.remove(&id);
        if let Some(prev) = self.pending.insert(id, span) {
            self.out.push(Finding {
                code: "UC131",
                span: prev,
                message: format!(
                    "value stored to `{}` is overwritten before it is ever read \
                     (§4 dead code)",
                    self.info.locals[id as usize].name
                ),
            });
        }
    }

    /// Record a read of a local scalar (UC130 when definitely
    /// uninitialised).
    fn read(&mut self, id: LocalId, span: Span) {
        self.pending.remove(&id);
        if self.uninit.contains(&id) && self.reported.insert(id) {
            self.out.push(Finding {
                code: "UC130",
                span,
                message: format!(
                    "local `{}` is read before any assignment initialises it \
                     (§4 dataflow)",
                    self.info.locals[id as usize].name
                ),
            });
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Ident(name, span) => {
                if let Some(id) = self.tracked(name) {
                    self.read(id, *span);
                }
            }
            Expr::Assign { target, op, value, span } => {
                self.expr(value);
                match target.as_ref() {
                    Expr::Ident(name, tspan) => {
                        if let Some(id) = self.tracked(name) {
                            if op.is_some() {
                                self.read(id, *tspan);
                            }
                            self.store(id, *span);
                        }
                    }
                    Expr::Index { subs, .. } => {
                        for s in subs {
                            self.expr(s);
                        }
                    }
                    other => self.expr(other),
                }
            }
            _ => e.for_each_child(|c| self.expr(c)),
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
        run(&checked, &mut out);
        out
    }

    #[test]
    fn use_before_init_detected() {
        let f = findings("main() { int x, y; y = x + 1; }");
        assert_eq!(codes_of(&f), vec!["UC130"]);
        assert!(f[0].message.contains("`x`"));
    }

    #[test]
    fn init_on_every_branch_is_clean() {
        let f = findings(
            "main() { int x, y; y = 0; if (y) x = 1; else x = 2; y = x; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn init_on_one_branch_is_not_definite() {
        // Maybe-uninitialised is not flagged (no false positives).
        let f = findings("main() { int x, y; y = 0; if (y) x = 1; y = x; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn par_assignment_initialises() {
        let f = findings(
            "index_set I:i = {0..7};\nint a[8];\n\
             main() { int x; par (I) st (i == 0) x = 0; x = x + 1; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dead_store_detected() {
        let f = findings("main() { int x, y; x = 1; x = 2; y = x; }");
        assert_eq!(codes_of(&f), vec!["UC131"]);
        assert_eq!(f[0].span.line, 1);
    }

    /// Two locals that share a spelling are two variables: a store to
    /// the inner one neither overwrites nor initialises the outer one.
    #[test]
    fn a_shadowing_local_is_its_own_variable() {
        let f = findings("int s, t;\nmain() { int x; x = 1; { int x; x = 2; s = x; } t = x; }");
        assert!(f.is_empty(), "{f:?}");
        let f = findings("int t;\nmain() { int x; { int x; x = 2; t = x; } t = x; }");
        assert_eq!(codes_of(&f), vec!["UC130"]);
        assert_eq!(f[0].span.col, 46, "the read of the outer `x`");
    }

    #[test]
    fn read_between_stores_is_clean() {
        let f = findings("main() { int x, y; x = 1; y = x; x = 2; y = y + x; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn control_flow_clears_dead_store_tracking() {
        // The read happens inside the loop: not a dead store.
        let f = findings(
            "main() { int x, y, i; x = 1; for (i = 0; i < 3; i = i + 1) y = x; x = 2; y = x; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unused_function_detected() {
        let f = findings(
            "int helper(int v) { return v + 1; }\nint orphan() { return 3; }\n\
             main() { int x; x = helper(1); }",
        );
        assert_eq!(codes_of(&f), vec!["UC132"]);
        assert!(f[0].message.contains("`orphan`"));
    }

    #[test]
    fn transitive_calls_are_reachable() {
        let f = findings(
            "int inner() { return 1; }\nint outer() { return inner(); }\n\
             main() { int x; x = outer(); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
