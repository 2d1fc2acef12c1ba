//! UC110/UC111 — communication-pattern lints.
//!
//! [`opt::path`] picks local, NEWS or router for an access from its
//! subscripts' forms — sema's plan, valued by [`opt::resolve_index`] —
//! the space's extents and the array's mapping. The executor asks it
//! where an access runs; this pass asks it with the `#define`s in place
//! of the live values, and reports the two cases where it sends a
//! provably regular pattern to the router — the paper's §4
//! communication-cost optimization surfaced as a diagnostic:
//!
//! * **UC110** — every subscript is `axis + constant` on the matching
//!   axis, but two or more axes are displaced (`a[i-1][j-1]`). The NEWS
//!   path handles at most one displaced axis, so the access takes the
//!   router even though it is a regular grid shift.
//! * **UC111** — the pattern is regular but misaligned with the iteration
//!   space: transposed axes (`a[j][i]`) or an array whose shape does not
//!   conform to the space. A `map` declaration (permute/fold/copy) could
//!   turn it into local or NEWS traffic.
//!
//! Only full-rank accesses to default-mapped global arrays are
//! classified; partial-rank gathers (e.g. `a[j]` under a reduction that
//! extended the space) and re-mapped arrays legitimately use the router
//! or follow a different transform.
//!
//! The walk tracks the extents of the axes a `par`, a `oneof` and a
//! reduction open. It leaves the accesses under a `solve` unclassified:
//! that would flag `examples/uc/wavefront.uc`'s `a[i-1][j-1]`, which does
//! take the router.

use super::Finding;
use crate::ast::*;
use crate::mapping::ArrayMapping;
use crate::opt::{self, IdxForm, Path};
use crate::sema::Checked;

struct Walker<'c> {
    checked: &'c Checked,
    /// Extents of the current space axes (outer constructs are a prefix,
    /// as in the executor).
    dims: Vec<usize>,
    out: Vec<Finding>,
}

/// Report UC110/UC111 on every function, in declaration order.
pub(crate) fn run(checked: &Checked, out: &mut Vec<Finding>) {
    let mut w = Walker { checked, dims: Vec::new(), out: Vec::new() };
    for f in checked.funcs_in_order() {
        for s in &f.body.stmts {
            w.stmt(s);
        }
    }
    out.append(&mut w.out);
}

impl Walker<'_> {
    fn stmt(&mut self, s: &Stmt) {
        match s {
            // What is under a `solve` stays unclassified.
            Stmt::Uc(uc) if uc.kind == UcKind::Solve => {}
            Stmt::Uc(uc) if uc.kind != UcKind::Seq => self.open(&uc.sets, |w| w.children(s)),
            _ => self.children(s),
        }
    }

    fn children(&mut self, s: &Stmt) {
        s.for_each_child(|n| match n {
            Node::Expr(e) => self.expr(e),
            Node::Stmt(s) => self.stmt(s),
        });
    }

    /// Run `f` with the axes of `sets` open.
    fn open(&mut self, sets: &[SetId], f: impl FnOnce(&mut Self)) {
        let outer = self.dims.len();
        self.dims.extend(sets.iter().map(|&set| self.checked.sets[set].elements.len()));
        f(self);
        self.dims.truncate(outer);
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Index { base, subs, span, access, .. } => self.classify(base, subs, *access, *span),
            // A reduction evaluates its operands on the space extended
            // by its own sets, exactly like a nested `par`.
            Expr::Reduce(r) => return self.open(&r.sets, |w| e.for_each_child(|c| w.expr(c))),
            _ => {}
        }
        e.for_each_child(|c| self.expr(c));
    }

    /// Report UC110/UC111 when the path rule sends a regular access to the
    /// router.
    fn classify(&mut self, base: &Name, subs: &[Expr], access: ValueId, span: crate::span::Span) {
        let Ref::Array(id) = base.to else {
            return; // a function-local array
        };
        let info = self.checked.array(id);
        if info.mapping != ArrayMapping::Default {
            return; // re-mapped arrays follow their own transform
        }
        // Full-rank only: partial-rank gathers are genuine router traffic,
        // and a front-end access (no axis open) has no communication.
        if subs.len() != info.shape.len() || subs.len() != self.dims.len() {
            return;
        }
        // Anything but `axis + constant` is a true gather.
        let plan = &self.checked.values[access as usize].forms;
        let resolve = |(sub, &form): (&Expr, _)| opt::resolve_index(form, sub, |n| self.checked.define(n));
        let forms: Vec<IdxForm> = subs.iter().zip(plan).map(resolve).collect();
        let axis = |f: &IdxForm| match *f {
            IdxForm::AxisPlus { axis, .. } => Some(axis),
            _ => None,
        };
        let Some(mut axes) = forms.iter().map(axis).collect::<Option<Vec<usize>>>() else { return };
        if opt::path(&forms, &self.dims, &info.shape, &info.mapping) != Path::Router {
            return; // local or single-axis NEWS: optimal
        }
        let identity_axes = axes.iter().enumerate().all(|(d, &a)| a == d);
        let access = crate::pretty::access(&base.text, subs);
        if identity_axes && info.shape == self.dims {
            let displaced = forms.iter().filter(|f| !matches!(f, IdxForm::AxisPlus { offset: 0, .. })).count();
            self.out.push(Finding {
                code: "UC110",
                span,
                message: format!(
                    "`{access}` is a regular grid shift on {displaced} axes but goes \
                     through the general router; splitting it into single-axis NEWS \
                     shifts (or a `map permute`) is cheaper (§4 communication cost)"
                ),
            });
            return;
        }
        // Regular but misaligned. Only flag patterns a `map` declaration
        // could actually align: axes forming a permutation of the space.
        axes.sort_unstable();
        if axes.iter().enumerate().any(|(d, &a)| a != d) {
            return; // duplicated/partial axes: a true gather
        }
        let reason = if identity_axes {
            "the array's shape does not conform to the iteration space"
        } else {
            "its axes are transposed relative to the iteration space"
        };
        self.out.push(Finding {
            code: "UC111",
            span,
            message: format!(
                "`{access}` is a regular access pattern but {reason}, so it goes through \
                 the general router; a `map` declaration could make it local or NEWS \
                 (§4 communication cost)"
            ),
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

    const GRID: &str = "index_set I:i = {0..7}, J:j = I;\nint a[8][8], b[8][8];\n";

    #[test]
    fn multi_axis_shift_is_flagged() {
        let f = findings(&format!("{GRID}main() {{ par (I, J) b[i][j] = a[i-1][j-1]; }}"));
        assert_eq!(codes_of(&f), vec!["UC110"]);
        assert!(f[0].message.contains("a[i - 1][j - 1]"), "{}", f[0].message);
    }

    #[test]
    fn single_axis_news_is_clean() {
        let f = findings(&format!(
            "{GRID}main() {{ par (I, J) b[i][j] = (a[i-1][j] + a[i+1][j] + a[i][j-1] + a[i][j+1]) / 4; }}"
        ));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn transposed_axes_are_flagged() {
        let f = findings(&format!("{GRID}main() {{ par (I, J) b[i][j] = a[j][i]; }}"));
        assert_eq!(codes_of(&f), vec!["UC111"]);
        assert!(f[0].message.contains("transposed"), "{}", f[0].message);
    }

    #[test]
    fn shape_mismatch_is_flagged() {
        let f = findings(
            "index_set I:i = {0..7};\nint a[16], b[8];\nmain() { par (I) b[i] = a[i]; }",
        );
        assert_eq!(codes_of(&f), vec!["UC111"]);
        assert!(f[0].message.contains("conform"), "{}", f[0].message);
    }

    /// Only a base sema resolved to a global array is classified: a
    /// function-local array that shares the spelling of a non-conforming
    /// global one is not that array.
    #[test]
    fn a_local_array_is_not_the_global_it_shadows() {
        let global = "index_set I:i = {0..7};\nint a[16], b[8];\n";
        let f = findings(&format!("{global}main() {{ par (I) b[i] = a[i]; }}"));
        assert_eq!(codes_of(&f), vec!["UC111"]);
        let f = findings(&format!("{global}main() {{ int a[8]; par (I) b[i] = a[i]; }}"));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn partial_rank_gather_is_clean() {
        // `a[j]` under the reduction runs on the extended [8, 8] space:
        // genuine router traffic, not a liftable regular pattern.
        let f = findings(
            "index_set I:i = {0..7}, J:j = I;\nint a[8], rank[8];\n\
             main() { par (I) rank[i] = $+(J st (a[j] < a[i]) 1); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn diagonal_gather_is_clean() {
        let f = findings(&format!("{GRID}main() {{ par (I, J) b[i][j] = a[i][i]; }}"));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn mapped_arrays_are_skipped() {
        let f = findings(
            "index_set I:i = {0..7};\nint a[8], b[8];\n\
             map (I) { permute (I) a[i+1] :- b[i]; }\n\
             main() { par (I) b[i] = a[i-1]; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn front_end_access_is_clean() {
        let f = findings("int a[4][4];\nmain() { a[0][1] = 3; }");
        assert!(f.is_empty(), "{f:?}");
    }
}
