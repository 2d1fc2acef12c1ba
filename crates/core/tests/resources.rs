//! Resource discipline: the executor must not leak machine fields across
//! iterations — every temporary a step allocates is freed when the step
//! ends, so long-running `*` constructs and front-end loops run in
//! bounded space (the CM had 64Kbits of memory per processor; leaking
//! fields would exhaust it).

use uc_core::Program;

fn live_after(src: &str) -> (usize, usize) {
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    let after_first = p.machine().live_fields();
    // Run main several more times; live fields must not keep growing
    // (caches are warm after the first run).
    for _ in 0..5 {
        p.run().unwrap();
    }
    (after_first, p.machine().live_fields())
}

#[test]
fn par_loops_do_not_leak_fields() {
    let (first, later) = live_after(
        r#"
        #define N 32
        index_set I:i = {0..N-1}, T:t = {0..19};
        int a[N], b[N];
        main() {
            par (I) { a[i] = i; b[i] = 0; }
            seq (T)
                par (I) st (i < N-1) b[i] = b[i] + a[i+1];
        }
        "#,
    );
    assert_eq!(first, later, "repeated runs must not grow live fields");
}

#[test]
fn star_par_does_not_leak() {
    let (first, later) = live_after(
        r#"
        #define N 32
        index_set I:i = {0..N-1};
        int a[N], cnt[N];
        main() {
            par (I) { a[i] = i; cnt[i] = 0; }
            *par (I) st (i >= power2(cnt[i])) {
                a[i] = a[i] + a[i - power2(cnt[i])];
                cnt[i] = cnt[i] + 1;
            }
        }
        "#,
    );
    assert_eq!(first, later);
}

#[test]
fn reductions_do_not_leak() {
    let (first, later) = live_after(
        r#"
        #define N 16
        index_set I:i = {0..N-1}, J:j = I, T:t = {0..9};
        int a[N], s;
        main() {
            par (I) a[i] = i;
            seq (T)
                par (I) a[i] = $+(J st (a[j] < a[i]) 1);
        }
        "#,
    );
    assert_eq!(first, later);
}

#[test]
fn solve_does_not_leak() {
    let (first, later) = live_after(
        r#"
        #define N 8
        index_set I:i = {0..N-1}, J:j = I;
        int a[N][N];
        main() {
            solve (I, J)
                a[i][j] = (i == 0 || j == 0) ? 1 : a[i-1][j] + a[i][j-1];
        }
        "#,
    );
    assert_eq!(first, later);
}

#[test]
fn star_solve_does_not_leak() {
    let (first, later) = live_after(
        r#"
        #define N 6
        index_set I:i = {0..N-1}, J:j = I, K:k = I;
        int d[N][N];
        main() {
            par (I, J)
                st (i == j) d[i][j] = 0;
                others d[i][j] = (i * 5 + j * 3) % N + 1;
            *solve (I, J)
                d[i][j] = $<(K; d[i][k] + d[k][j]);
        }
        "#,
    );
    assert_eq!(first, later);
}

#[test]
fn oneof_does_not_leak() {
    let (first, later) = live_after(
        r#"
        #define N 12
        index_set I:i = {0..N-1};
        int x[N];
        main() {
            par (I) x[i] = (5 * i + 7) % N;
            *oneof (I)
                st (i % 2 == 0 && x[i] > x[i+1]) swap(x[i], x[i+1]);
                st (i % 2 != 0 && x[i] > x[i+1]) swap(x[i], x[i+1]);
        }
        "#,
    );
    assert_eq!(first, later);
}

#[test]
fn function_calls_do_not_leak() {
    let (first, later) = live_after(
        r#"
        int acc;
        int add3(int x) { return x + 3; }
        main() {
            int k;
            for (k = 0; k < 50; k++) acc = add3(acc);
        }
        "#,
    );
    assert_eq!(first, later);
}

/// Live fields after each of three runs of a program that traps.
fn live_after_failed_runs(src: &str) -> Vec<usize> {
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    let mut live = Vec::new();
    for _ in 0..3 {
        p.run().expect_err("the program traps");
        live.push(p.machine().live_fields());
    }
    live
}

/// A step that traps frees what it made — its arm masks, the partial
/// results of a reduction, a `solve`'s ready mask — so repeated failed
/// runs hold no more fields than the first.
#[test]
fn trapping_steps_do_not_leak() {
    for (what, body) in [
        ("par", "par (I) st (a[i] == 0) a[i] = 1; st (a[i] / b[i] > 0) a[i] = 2;"),
        ("oneof", "oneof (I) st (a[i] == 0) a[i] = 1; st (a[i] / b[i] > 0) a[i] = 2;"),
        ("reduction", "par (I) a[i] = $+(I st (b[i] != 0) 1 others a[i] / b[i]);"),
        ("solve", "solve (I) a[i] = 1 / b[i];"),
    ] {
        let src = format!(
            "#define N 8\nindex_set I:i = {{0..N-1}};\nint a[N], b[N];\nmain() {{ {body} }}"
        );
        let live = live_after_failed_runs(&src);
        assert!(live.windows(2).all(|w| w[0] == w[1]), "{what}: live fields {live:?}");
    }
}
