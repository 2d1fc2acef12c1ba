//! Resource discipline: the executor must not leak machine fields across
//! iterations — every temporary a step allocates is freed when the step
//! ends, so long-running `*` constructs and front-end loops run in
//! bounded space (the CM had 64Kbits of memory per processor; leaking
//! fields would exhaust it).

use uc_core::{ExecConfig, ExecLimits, Program, RuntimeError};

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

/// A step that traps leaves what it made — its arm masks, the partial
/// results of a reduction, a `solve`'s ready mask — for the next run to
/// free when it starts, so repeated failed runs hold no more fields than
/// the first.
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

/// `src` compiled under a fuel budget.
fn with_fuel(src: &str, fuel: Option<u64>) -> Program {
    let cfg =
        ExecConfig { limits: ExecLimits { fuel, ..Default::default() }, ..Default::default() };
    Program::compile_with(src, cfg).unwrap_or_else(|d| panic!("compile failed:\n{d}"))
}

/// A fuel trap can strike at any machine op, with fields live, masks
/// pushed and a call's masks hidden. Whatever it leaves, the next run
/// starts from the compiled state: at every budget, three runs of one
/// program trap alike, hold as many fields after each, and never trip
/// over a stale mask (a caught panic in debug builds).
#[test]
fn a_budget_trap_leaves_nothing_behind() {
    let header = "#define N 8
        index_set I:i = {0..N-1}, J:j = I;
        int a[N], b[N], c[N], p[N];
        int g() { par (J) c[j] = j * 3; return 2; }
        main() { par (I) { a[i] = 0; b[i] = i; c[i] = 0; p[i] = (5 * i + 3) % N; } ";
    for body in [
        "par (I) st (i % 3 != 0) a[i] = abs(i - 3) * min(b[i], 5) + power2(i % 4) - rand() % 2 + g();",
        "par (I) a[i] = b[p[i]] + c[(i * 3 + 1) % N];",
        "par (I) st (i % 2 == 0) a[i] = $+(J st (j < i) b[j] others 1); others a[i] = $<(J; b[j]);",
        "a[0] = 50; *par (I) st (i > 0 && a[i] < a[i-1]) a[i] = a[i-1];",
        "solve (I) c[i] = (i == 0) ? 1 : c[i-1] + b[i];",
    ] {
        let src = format!("{header}{body} }}");
        let mut p = with_fuel(&src, None);
        p.run().unwrap_or_else(|e| panic!("{body}: {e}"));
        let cost = p.cycles();
        for fuel in (0..cost).step_by(cost as usize / 40 + 1) {
            let mut p = with_fuel(&src, Some(fuel));
            let mut runs = Vec::new();
            for _ in 0..3 {
                p.reset_clock();
                let err = p.run().expect_err("the budget traps").error;
                assert!(!matches!(err, RuntimeError::Internal(_)), "{body} at {fuel}: {err}");
                runs.push((err.to_string(), p.machine().live_fields()));
            }
            assert!(runs.windows(2).all(|w| w[0] == w[1]), "{body} at {fuel}: {runs:?}");
        }
    }
}

/// A run after a trapped one computes what a fresh program would: the
/// first run, from `a = [100, 0, ...]`, traps midway through the `*par`'s
/// fifteen sweeps; the second, from `a = [5; 16]`, needs one sweep, fits
/// the budget and must find every prefix sum. It must also cost what a
/// fresh program's run does, op class by op class: a geometry-cache field
/// that outlived the trap would make it cheaper.
#[test]
fn a_run_after_a_trap_computes_what_a_fresh_one_would() {
    let src = "#define N 16
        index_set I:i = {0..N-1}, J:j = I;
        int a[N], s[N];
        main() {
            *par (I) st (i > 0 && a[i] < a[i-1]) a[i] = a[i-1];
            par (I) s[i] = $+(J st (j <= i) a[j]);
        }";
    let mut steep = [0; 16];
    steep[0] = 100;
    let cost = |a: &[i64]| {
        let mut p = with_fuel(src, None);
        p.write_int_array("a", a).unwrap();
        p.reset_clock();
        p.run().unwrap();
        (p.cycles(), *p.machine().tally())
    };
    let ((flat_cost, flat_tally), (steep_cost, _)) = (cost(&[5; 16]), cost(&steep));
    let prefix: Vec<i64> = (1..=16).map(|k| 5 * k).collect();
    for fuel in (flat_cost..steep_cost).step_by(10) {
        let mut p = with_fuel(src, Some(fuel));
        p.write_int_array("a", &steep).unwrap();
        p.reset_clock();
        p.run().expect_err("the steep input exceeds the budget");
        // The write is charged, so it needs the fuel back too.
        p.reset_clock();
        p.write_int_array("a", &[5; 16]).unwrap();
        p.reset_clock();
        p.run().unwrap_or_else(|e| panic!("fuel {fuel}: {e}"));
        assert_eq!(p.read_int_array("s").unwrap(), prefix, "fuel {fuel}");
        assert_eq!(*p.machine().tally(), flat_tally, "fuel {fuel}");
    }
}
