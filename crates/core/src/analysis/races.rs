//! UC101 — par-assignment race detection.
//!
//! Inside a `par`, every enabled index element executes each assignment
//! synchronously, and so it does in the arm a `oneof` step chooses, in an
//! assignment a plain `solve` round runs and in a reduction's operand. A
//! store whose *stored value* varies along an axis of the open space that
//! its *location* does not vary along makes several virtual processors
//! write distinct values to one mono array location — the write-write
//! conflict the paper's §3.4 single-assignment rule forbids (the runtime
//! detects it with the router's collision detection; this pass reports it
//! statically). A `*solve` stores without the check, and a scalar target
//! cannot race.
//!
//! Sema finds the racing stores as it checks them ([`Checked::races`]),
//! from what it already knows: each element's axis, the space that
//! declared each per-VP local, the elements a reduction folds. A value
//! varies along its elements' axes, along every axis of the space that
//! declared a per-VP local it reads (in place or lifted), and along every
//! open axis when it draws `rand()`; a reduction's own elements vary
//! nothing outside it. A guard removes an axis only when it pins it: an
//! arm conjunct `e == x`, or under `others` an arm predicate `e != x`,
//! where `x` varies only along the location's axes. This pass only
//! reports what sema found.

use super::Finding;
use crate::sema::Checked;

/// Report UC101 on every racing store sema recorded.
pub(crate) fn run(checked: &Checked, out: &mut Vec<Finding>) {
    for race in &checked.races {
        let (step, elem, target) = (race.step, &checked.sets[race.elem].elem, &race.target);
        out.push(Finding {
            code: "UC101",
            span: race.span,
            message: format!(
                "write-write race in `{step}`: the stored value varies with `{elem}` but \
                 every enabled element stores to the same location `{target}` — \
                 distinct values collide without a combining reduction (§3.4)"
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
    fn a_per_vp_value_varies_with_the_space_that_declared_it() {
        // Read in place: `t` is `i` at every point.
        let f = findings(
            "index_set I:i = {0..7};\nint a[8];\nmain() { par (I) { int t; t = i; a[0] = t; } }",
        );
        assert_eq!(codes_of(&f), vec!["UC101"]);
        // Lifted into a nested `par`: `t` still varies with `i`, which the
        // location `c[j]` does not.
        let f = findings(
            "index_set I:i = {0..3}, J:j = I;\nint c[4];\n\
             main() { par (I) { int t; t = i; par (J) c[j] = t; } }",
        );
        assert_eq!(codes_of(&f), vec!["UC101"]);
        assert!(f[0].message.contains("`i`"), "{f:?}");
        // A subscript lifted the same way varies with `i` only.
        let f = findings(
            "index_set I:i = {0..3}, J:j = I;\nint c[4];\n\
             main() { par (I) { int t; t = i; par (J) c[t] = j; } }",
        );
        assert!(f[0].message.contains("`j`"), "{f:?}");
    }

    #[test]
    fn rand_varies_with_every_open_axis() {
        let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[0] = rand(); }");
        assert_eq!(codes_of(&f), vec!["UC101"]);
        let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[i] = rand(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn only_a_pinning_guard_removes_an_axis() {
        let race = |guarded: &str| {
            let src = format!(
                "index_set I:i = {{0..7}}, J:j = I;\nint a[8], b[8], x[8];\nmain() {{ {guarded} }}"
            );
            codes_of(&findings(&src))
        };
        assert_eq!(race("par (I) st (i < 2) a[0] = b[i];"), ["UC101"]);
        assert_eq!(race("par (I) st (b[i] == 0) a[0] = i;"), ["UC101"]);
        assert!(race("par (I) st (i == 3 && b[i] > 0) a[0] = b[i];").is_empty());
        assert!(race("par (I, J) st (i == j) x[j] = b[i];").is_empty());
        assert!(race("par (I, J) st (j == i) x[j] = b[i];").is_empty());
        // `j` varies along an axis the location `x[0]` does not.
        assert_eq!(race("par (I, J) st (i == j) x[0] = b[i];"), ["UC101"]);
        // `others` runs where every arm predicate fails.
        assert!(race("par (I) st (i != 0) b[i] = 1; others x[0] = b[i];").is_empty());
        assert_eq!(race("par (I) st (i == 0) b[i] = 1; others x[0] = b[i];"), ["UC101"]);
        // A disjunct pins nothing.
        assert_eq!(race("par (I) st (i == 0 || i == 1) a[0] = i;"), ["UC101"]);
    }

    #[test]
    fn a_swap_is_two_stores() {
        let f = findings(
            "index_set I:i = {0..7};\nint x[8];\nmain() { par (I) st (i > 0) swap(x[0], x[i]); }",
        );
        assert_eq!(codes_of(&f), vec!["UC101"]);
        assert!(f[0].message.contains("`x[0]`"), "{f:?}");
        let f = findings("index_set I:i = {0..7};\nint x[8];\nmain() { par (I) swap(x[i], x[7 - i]); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn the_step_that_runs_the_store_decides() {
        // A store in a reduction's operand runs on the reduction's space,
        // which traps like a `par`, also under a `*solve`.
        let f = findings(
            "index_set I:i = {0..3}, J:j = I;\nint a[4], s[4];\nmain() { par (I) s[i] = $+(J; a[0] = j); }",
        );
        assert_eq!(codes_of(&f), vec!["UC101"]);
        assert!(f[0].message.contains("race in `$+`"), "{f:?}");
        let f = findings(
            "index_set I:i = {0..3}, J:j = I;\nint a[4], s[4];\nmain() { *solve (I) s[i] = $+(J; a[0] = j); }",
        );
        assert_eq!(codes_of(&f), vec!["UC101"]);
        // A `*solve` stores without the check.
        let f = findings(
            "index_set I:i = {0..3}, J:j = I;\nint a[4];\nmain() { par (I) *solve (J) a[0] = i; }",
        );
        assert!(f.is_empty(), "{f:?}");
        // A `seq` under a `par` runs its stores as the `par`'s steps.
        let f = findings(
            "index_set I:i = {0..3}, K:k = I;\nint a[4];\nmain() { par (I) seq (K) a[0] = i; }",
        );
        assert_eq!(codes_of(&f), vec!["UC101"]);
        assert!(f[0].message.contains("race in `par`"), "{f:?}");
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
