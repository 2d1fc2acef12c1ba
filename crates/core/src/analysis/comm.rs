//! UC110/UC111 — communication-pattern lints.
//!
//! The executor picks local, NEWS or router for a read with
//! [`opt::path`](crate::opt::path), from sema's access plan valued over
//! the live scalars, and for a store with
//! [`opt::store_path`](crate::opt::store_path), which never shifts. Sema
//! asks the same rules with the `#define`s as it checks each access, and
//! records every occurrence of a provably regular pattern they send to
//! the router ([`Checked::routed`]). This pass reports those facts — the
//! paper's §4 communication-cost optimization surfaced as a diagnostic:
//!
//! * **UC110** — every subscript is `axis + constant` on the matching
//!   axis, but a read is displaced on two or more axes (`a[i-1][j-1]`:
//!   the NEWS path handles one) or a store on any (`b[i-1][j] = …`): a
//!   regular grid shift that takes the router.
//! * **UC111** — the pattern is regular but misaligned with the iteration
//!   space: transposed axes (`a[j][i]`) or an array whose shape does not
//!   conform to the space. A `map` declaration (permute/fold/copy) could
//!   turn it into local or NEWS traffic.
//!
//! Only full-rank accesses to default-mapped global arrays are
//! classified: partial-rank gathers (`a[j]` under a reduction that
//! extended the space) are true router traffic, and this pass drops the
//! facts about arrays the map section re-mapped. An access under a
//! `solve` or `*solve` stays unclassified: that would flag
//! `examples/uc/wavefront.uc`'s `a[i-1][j-1]`, which does take the router.

use super::Finding;
use crate::mapping::ArrayMapping;
use crate::opt::Routing;
use crate::sema::Checked;

/// Report UC110/UC111 on every routed access sema recorded, but those to
/// an array the map section re-mapped.
pub(crate) fn run(checked: &Checked, out: &mut Vec<Finding>) {
    for routed in &checked.routed {
        if checked.array(routed.array).mapping != ArrayMapping::Default {
            continue; // re-mapped arrays follow their own transform
        }
        let access = &routed.access;
        let message = match routed.why {
            Routing::Shift { displaced, store: true } => format!(
                "`{access}` stores a regular grid shift on {displaced} {} through the \
                 general router, since no store takes NEWS; storing in place and reading \
                 the operand shifted the other way, one axis per NEWS shift, is cheaper \
                 (§4 communication cost)",
                if displaced == 1 { "axis" } else { "axes" },
            ),
            Routing::Shift { displaced, store: false } => format!(
                "`{access}` is a regular grid shift on {displaced} axes but goes \
                 through the general router; splitting it into single-axis NEWS \
                 shifts (or a `map permute`) is cheaper (§4 communication cost)"
            ),
            Routing::Misaligned { transposed } => {
                let reason = if transposed {
                    "its axes are transposed relative to the iteration space"
                } else {
                    "the array's shape does not conform to the iteration space"
                };
                format!(
                    "`{access}` is a regular access pattern but {reason}, so it goes through \
                     the general router; a `map` declaration could make it local or NEWS \
                     (§4 communication cost)"
                )
            }
        };
        let code = if let Routing::Shift { .. } = routed.why { "UC110" } else { "UC111" };
        out.push(Finding { code, span: routed.span, message });
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

    /// A `solve` and a `*solve` run their accesses unclassified, a
    /// reduction under a `*solve` included.
    #[test]
    fn solve_leaves_shifts_unclassified() {
        for body in [
            "solve (I, J) b[i][j] = a[i-1][j-1];",
            "*solve (I, J) b[i][j] = a[i-1][j-1];",
            "*solve (I) c[i] = $+(J; a[i-1][j-1]);",
        ] {
            let f = findings(&format!("{GRID}int c[8];\nmain() {{ {body} }}"));
            assert!(f.is_empty(), "{body}: {f:?}");
        }
    }

    /// A `oneof` opens its axes as a `par` does, and a reduction extends
    /// the space its operand runs on: a full-rank access there is judged.
    #[test]
    fn oneof_and_reduction_spaces_are_classified() {
        let f = findings(&format!("{GRID}main() {{ oneof (I, J) b[i][j] = a[i-1][j-1]; }}"));
        assert_eq!(codes_of(&f), vec!["UC110"]);
        let f = findings(&format!(
            "{GRID}int c[8];\nmain() {{ par (I) c[i] = $+(J; a[i-1][j-1]) + $+(J; a[j][i]); }}"
        ));
        assert_eq!(codes_of(&f), vec!["UC110", "UC111"]);
    }

    /// `a[i]` is one access id under `par (I)` and under `par (I) par (J)`,
    /// but only the first is full-rank: each occurrence is judged on the
    /// space it runs on.
    #[test]
    fn each_occurrence_is_judged_on_its_own_space() {
        let f = findings(
            "index_set I:i = {0..7}, J:j = I;\nint a[16], b[8];\n\
             main() {\npar (I) b[i] = a[i];\npar (I) par (J) b[i] = a[i];\n}",
        );
        assert_eq!(codes_of(&f), vec!["UC111"]);
        assert_eq!(f[0].span.line, 4);
    }

    /// A store takes the router wherever it is displaced, so one displaced
    /// axis is enough; the same shift read takes NEWS.
    #[test]
    fn displaced_stores_are_flagged() {
        let f = findings(&format!(
            "{GRID}main() {{ par (I, J) st (i > 0) b[i-1][j] = a[i][j]; par (I, J) b[i][j] = a[i-1][j]; }}"
        ));
        assert_eq!(codes_of(&f), vec!["UC110"]);
        assert!(f[0].message.contains("`b[i - 1][j]` stores a regular grid shift on 1 axis"), "{}", f[0].message);
        let f = findings(&format!("{GRID}main() {{ par (I, J) st (i > 0 && j > 0) b[i-1][j-1] = a[i][j]; }}"));
        assert!(f[0].message.contains("stores") && f[0].message.contains("2 axes"), "{}", f[0].message);
    }

    /// A map section's patterns are no accesses: a source pattern that
    /// would not conform as an access reports nothing.
    #[test]
    fn map_patterns_are_no_accesses() {
        let f = findings(
            "index_set I:i = {0..7};\nint a[16], b[8];\n\
             map (I) { permute (I) b[i+1] :- a[i]; }\n\
             main() { par (I) b[i] = 1; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn front_end_access_is_clean() {
        let f = findings("int a[4][4];\nmain() { a[0][1] = 3; }");
        assert!(f.is_empty(), "{f:?}");
    }
}
