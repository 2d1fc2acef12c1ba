//! UC110/UC111 — communication-pattern lints.
//!
//! The executor classifies every parallel array access as local, NEWS or
//! general-router traffic (`exec/access.rs`) from the [`IdxForm`] of its
//! subscripts. This pass asks the same classifier,
//! [`opt::classify_index`], at check time — with the binders it tracks
//! while walking, keyed like the executor's by the set a `Ref::Elem`
//! names, and the `#define`s in place of the executor's live values —
//! and reports the two cases where a provably-regular
//! pattern still pays router cost, the paper's §4 communication-cost
//! optimization surfaced as a diagnostic instead of silently applied:
//!
//! * **UC110** — every subscript is `axis + constant` on the matching
//!   axis, but two or more axes are displaced (`a[i-1][j-1]`). The
//!   runtime's NEWS fast path handles at most one displaced axis, so the
//!   access takes the router even though it is a regular grid shift.
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
//! The walk opens the space axes the executor opens for a `par`, a
//! `oneof` and a reduction. A `solve`'s sets open none here (see
//! `Walker::binders`), so its accesses are not classified.

use super::Finding;
use crate::ast::*;
use crate::opt::{self, ElemForm, IdxForm};
use crate::mapping::ArrayMapping;
use crate::sema::Checked;

struct Walker<'c> {
    checked: &'c Checked,
    /// Index elements in scope, innermost last, by the set each is the
    /// element of. Elements of a space axis — a `par`'s, a `oneof`'s, a
    /// reduction's — bind as the executor binds them. Those of a `solve`
    /// stay [`ElemForm::Opaque`] although the executor opens axes for them
    /// too: binding them would flag `examples/uc/wavefront.uc`'s
    /// `a[i-1][j-1]`, which does take the router. (A `seq` element is a
    /// front-end local, not a constant either.)
    binders: Vec<(SetId, ElemForm)>,
    /// Extents of the current space axes (outer constructs are a prefix,
    /// as in the executor).
    dims: Vec<usize>,
    out: Vec<Finding>,
}

/// Report UC110/UC111 on every function, in declaration order.
pub(crate) fn run(checked: &Checked, out: &mut Vec<Finding>) {
    let mut w = Walker {
        checked,
        binders: Vec::new(),
        dims: Vec::new(),
        out: Vec::new(),
    };
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
            Stmt::Uc(uc) => {
                let space = matches!(uc.kind, UcKind::Par | UcKind::Oneof);
                let pushed = self.push_sets(&uc.sets, space);
                self.children(s);
                self.pop_sets(pushed);
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

    /// Bind the constructs' elements; `parallel` sets extend the space.
    /// Returns (binders pushed, axes pushed).
    fn push_sets(&mut self, sets: &[SetId], parallel: bool) -> (usize, usize) {
        for &set in sets {
            let info = &self.checked.sets[set];
            let mut form = ElemForm::Opaque;
            if parallel {
                if let Some(lo) = info.contiguous_lo() {
                    form = ElemForm::AxisPlus { axis: self.dims.len(), lo };
                }
                self.dims.push(info.elements.len());
            }
            self.binders.push((set, form));
        }
        (sets.len(), if parallel { sets.len() } else { 0 })
    }

    fn pop_sets(&mut self, (binders, axes): (usize, usize)) {
        self.binders.truncate(self.binders.len() - binders);
        self.dims.truncate(self.dims.len() - axes);
    }

    fn expr(&mut self, e: &Expr) {
        let pushed = match e {
            Expr::Index { base, subs, span, .. } => {
                self.classify(base, subs, *span);
                (0, 0)
            }
            // A reduction evaluates its operands on the space extended
            // by its own sets, exactly like a nested `par`.
            Expr::Reduce(r) => self.push_sets(&r.sets, true),
            _ => (0, 0),
        };
        e.for_each_child(|c| self.expr(c));
        self.pop_sets(pushed);
    }

    /// Classify one access and report UC110/UC111 when a regular pattern
    /// pays router cost.
    fn classify(&mut self, base: &Name, subs: &[Expr], span: crate::span::Span) {
        if self.dims.is_empty() {
            return; // front-end access, no communication
        }
        let Ref::Array(id) = base.to else {
            return; // a function-local array
        };
        let info = self.checked.array(id);
        if info.mapping != ArrayMapping::Default {
            return; // re-mapped arrays follow their own transform
        }
        // Full-rank only: partial-rank gathers are genuine router traffic.
        if subs.len() != info.shape.len() || subs.len() != self.dims.len() {
            return;
        }
        // (axis, offset) per subscript; anything but `axis + constant`
        // is a true gather.
        let elem_form = |name: &Name| match name.to {
            Ref::Elem(set) => {
                self.binders.iter().rev().find(|(s, _)| *s == set as SetId).map(|(_, form)| *form)
            }
            _ => None,
        };
        let konst = |e: &Expr| self.checked.const_int(e);
        let mut forms = Vec::with_capacity(subs.len());
        for sub in subs {
            let form = opt::classify_index(sub, &elem_form, &konst);
            let IdxForm::AxisPlus { axis, offset } = form else { return };
            forms.push((axis, offset));
        }
        let identity_axes = forms.iter().enumerate().all(|(d, &(a, _))| a == d);
        let conforms = info.shape == self.dims;
        let access = crate::pretty::access(&base.text, subs);
        if identity_axes && conforms {
            let displaced = forms.iter().filter(|&&(_, offset)| offset != 0).count();
            if displaced > 1 {
                self.out.push(Finding {
                    code: "UC110",
                    span,
                    message: format!(
                        "`{access}` is a regular grid shift on {displaced} axes but goes \
                         through the general router; splitting it into single-axis NEWS \
                         shifts (or a `map permute`) is cheaper (§4 communication cost)"
                    ),
                });
            }
            return; // local or single-axis NEWS: optimal
        }
        // Regular but misaligned. Only flag patterns a `map` declaration
        // could actually align: axes forming a permutation of the space.
        let mut sorted: Vec<usize> = forms.iter().map(|&(a, _)| a).collect();
        sorted.sort_unstable();
        if sorted.iter().enumerate().any(|(d, &a)| a != d) {
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
