//! End-to-end tests: the example programs of the paper, §3.
//!
//! Each test compiles and runs a verbatim (or near-verbatim) UC program
//! from the paper and checks the result against a sequential oracle.

use uc_core::{ExecConfig, Program};

fn run(src: &str) -> Program {
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    p
}

#[test]
fn simple_par_assignment() {
    let p = run(r#"
        #define N 10
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) a[i] = i * i; }
    "#);
    let a = p.read_int_array("a").unwrap();
    assert_eq!(a, (0..10).map(|i| i * i).collect::<Vec<i64>>());
}

#[test]
fn par_with_predicate_and_others() {
    // §3.4: odd elements 0, others 1.
    let p = run(r#"
        #define N 10
        index_set I:i = {0..N-1};
        int a[N];
        main() {
            par (I)
                st (i % 2 == 1) a[i] = 0;
                others a[i] = 1;
        }
    "#);
    let a = p.read_int_array("a").unwrap();
    assert_eq!(a, vec![1, 0, 1, 0, 1, 0, 1, 0, 1, 0]);
}

#[test]
fn reciprocal_of_nonzero() {
    // §3.4: par (I) st (a[i]!=0) a[i] = 1.0/a[i] — on ints, 4/x style.
    let p = run(r#"
        #define N 6
        index_set I:i = {0..N-1};
        int a[N];
        main() {
            par (I) a[i] = i - 2;          /* -2 -1 0 1 2 3 */
            par (I) st (a[i] != 0) a[i] = 12 / a[i];
        }
    "#);
    let a = p.read_int_array("a").unwrap();
    assert_eq!(a, vec![-6, -12, 0, 12, 6, 4]);
}

#[test]
fn figure1_reductions() {
    // The reduction showcase of Figure 1.
    let src = r#"
        #define N 10
        index_set I:i = {0..9}, J:j = I;
        int s, min, first, arb, last, a[N];
        float avg;
        main() {
            par (I) a[i] = (i * 3 + 4) % 7;   /* 4 0 3 6 2 5 1 4 0 3 */
            s = $+(I; i);
            avg = $+(I; i) / 10.0;
            min = $<(I; a[i]);
            first = $<(I st (a[i] == min) i);
            arb = $,(I st (a[i] == min) i);
            last = $>(J st (a[j] == $>(J; a[j])) j);
        }
    "#;
    let p = run(src);
    assert_eq!(p.read_int("s"), Some(45));
    assert_eq!(p.read_scalar("avg").unwrap().as_float(), 4.5);
    assert_eq!(p.read_int("min"), Some(0));
    assert_eq!(p.read_int("first"), Some(1)); // a[1] = 0
    let arb = p.read_int("arb").unwrap();
    assert!(arb == 1 || arb == 8, "arb must be a position of the minimum");
    assert_eq!(p.read_int("last"), Some(3)); // max value 6 occurs only at 3
}

#[test]
fn abs_sum_with_others() {
    // §3.2: sum of absolute values via st/others arms.
    let p = run(r#"
        #define N 8
        index_set I:i = {0..N-1};
        int a[N], abs_sum;
        main() {
            par (I) a[i] = i - 4;          /* -4..3 */
            abs_sum = $+(I st (a[i] > 0) a[i] others -a[i]);
        }
    "#);
    // |−4|+|−3|+|−2|+|−1|+|0|+|1|+|2|+|3| = 16
    assert_eq!(p.read_int("abs_sum"), Some(16));
}

#[test]
fn empty_reduction_yields_identity() {
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1};
        int s, m, x, a[N];
        main() {
            s = $+(I st (a[i] > 100) 1);
            m = $<(I st (a[i] > 100) a[i]);
            x = $>(I st (a[i] > 100) a[i]);
        }
    "#);
    assert_eq!(p.read_int("s"), Some(0));
    assert_eq!(p.read_int("m"), Some(i64::MAX));
    assert_eq!(p.read_int("x"), Some(i64::MIN));
}

#[test]
fn matrix_multiply_n3_parallelism() {
    // §3.4's first example: c = a×b with an O(N³) space.
    let p = run(r#"
        #define N 6
        index_set I:i = {0..N-1}, J:j = I, K:k = I;
        int a[N][N], b[N][N], c[N][N];
        main() {
            par (I, J) {
                a[i][j] = i + j;
                b[i][j] = i * j + 1;
            }
            par (I, J)
                c[i][j] = $+(K; a[i][k] * b[k][j]);
        }
    "#);
    let n = 6usize;
    let a: Vec<i64> = (0..n * n).map(|p| (p / n + p % n) as i64).collect();
    let b: Vec<i64> = (0..n * n).map(|p| ((p / n) * (p % n) + 1) as i64).collect();
    let mut expect = vec![0i64; n * n];
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                expect[i * n + j] += a[i * n + k] * b[k * n + j];
            }
        }
    }
    assert_eq!(p.read_int_array("c").unwrap(), expect);
}

#[test]
fn ranksort() {
    // §3.4's ranksort with distinct keys.
    let p = run(r#"
        #define N 16
        index_set I:i = {0..N-1}, J:j = I;
        int a[N], sorted[N];
        main() {
            par (I) a[i] = (7 * i + 3) % 16;   /* a permutation: distinct */
            par (I) {
                int rank;
                rank = $+(J st (a[j] < a[i]) 1);
                sorted[rank] = a[i];
            }
        }
    "#);
    let sorted = p.read_int_array("sorted").unwrap();
    assert_eq!(sorted, (0..16).collect::<Vec<i64>>());
}

#[test]
fn iterative_par_prefix_sums_figure2() {
    // Figure 2: log-step prefix sums with *par.
    let p = run(r#"
        #define N 16
        index_set I:i = {0..N-1};
        int a[N], cnt[N];
        main() {
            par (I) { a[i] = i; cnt[i] = 0; }
            *par (I) st (i >= power2(cnt[i])) {
                a[i] = a[i] + a[i - power2(cnt[i])];
                cnt[i] = cnt[i] + 1;
            }
        }
    "#);
    let a = p.read_int_array("a").unwrap();
    let expect: Vec<i64> = (0..16).map(|i| (0..=i).sum()).collect();
    assert_eq!(a, expect);
}

#[test]
fn seq_in_par_partial_sums_figure3() {
    // Figure 3: the same prefix sums with seq nested in par.
    let p = run(r#"
        #define N 16
        #define LOGN 4
        index_set I:i = {0..N-1}, J:j = {0..LOGN-1};
        int a[N];
        main() {
            par (I) {
                a[i] = i;
                seq (J) st (i - power2(j) >= 0)
                    a[i] = a[i] + a[i - power2(j)];
            }
        }
    "#);
    let a = p.read_int_array("a").unwrap();
    let expect: Vec<i64> = (0..16).map(|i| (0..=i).sum()).collect();
    assert_eq!(a, expect);
}

#[test]
fn shortest_path_n2_figure4() {
    // Figure 4: APSP with O(N²) parallelism (seq over k).
    let p = run(r#"
        #define N 8
        index_set I:i = {0..N-1}, J:j = I, K:k = I;
        int d[N][N];
        main() {
            par (I, J)
                st (i == j) d[i][j] = 0;
                others d[i][j] = rand() % N + 1;
            seq (K)
                par (I, J)
                    st (d[i][k] + d[k][j] < d[i][j])
                        d[i][j] = d[i][k] + d[k][j];
        }
    "#);
    let n = 8usize;
    let d = p.read_int_array("d").unwrap();
    // Verify the triangle inequality holds everywhere (Floyd-Warshall
    // fixed point) and the diagonal is zero.
    for i in 0..n {
        assert_eq!(d[i * n + i], 0);
        for j in 0..n {
            for k in 0..n {
                assert!(
                    d[i * n + j] <= d[i * n + k] + d[k * n + j],
                    "triangle inequality violated at ({i},{j},{k})"
                );
            }
        }
    }
}

#[test]
fn shortest_path_n3_figure5() {
    // Figure 5: APSP with O(N³) parallelism (log N squaring rounds).
    let src = r#"
        #define N 8
        #define LOGN 3
        index_set I:i = {0..N-1}, J:j = I, K:k = I;
        index_set L:l = {0..LOGN-1};
        int d[N][N];
        main() {
            par (I, J)
                st (i == j) d[i][j] = 0;
                others d[i][j] = rand() % N + 1;
            seq (L)
                par (I, J)
                    d[i][j] = $<(K; d[i][k] + d[k][j]);
        }
    "#;
    let p = run(src);
    let n = 8usize;
    let d = p.read_int_array("d").unwrap();
    for i in 0..n {
        assert_eq!(d[i * n + i], 0);
        for j in 0..n {
            for k in 0..n {
                assert!(d[i * n + j] <= d[i * n + k] + d[k * n + j]);
            }
        }
    }
}

#[test]
fn n2_and_n3_agree() {
    // Both APSP programs over the same deterministic graph must agree.
    let init = r#"
        par (I, J)
            st (i == j) d[i][j] = 0;
            others d[i][j] = (i * 7 + j * 13) % N + 1;
    "#;
    let src_n2 = format!(
        r#"
        #define N 10
        index_set I:i = {{0..N-1}}, J:j = I, K:k = I;
        int d[N][N];
        main() {{
            {init}
            seq (K) par (I, J)
                st (d[i][k] + d[k][j] < d[i][j]) d[i][j] = d[i][k] + d[k][j];
        }}
    "#
    );
    let src_n3 = format!(
        r#"
        #define N 10
        #define LOGN 4
        index_set I:i = {{0..N-1}}, J:j = I, K:k = I, L:l = {{0..LOGN-1}};
        int d[N][N];
        main() {{
            {init}
            seq (L) par (I, J) d[i][j] = $<(K; d[i][k] + d[k][j]);
        }}
    "#
    );
    let p2 = run(&src_n2);
    let p3 = run(&src_n3);
    assert_eq!(p2.read_int_array("d").unwrap(), p3.read_int_array("d").unwrap());
}

#[test]
fn wavefront_solve() {
    // §3.6: the wavefront (binomial) matrix via solve.
    let p = run(r#"
        #define N 8
        index_set I:i = {0..N-1}, J:j = I;
        int a[N][N];
        main() {
            solve (I, J)
                a[i][j] = (i == 0 || j == 0) ? 1
                        : a[i-1][j] + a[i-1][j-1] + a[i][j-1];
        }
    "#);
    let n = 8usize;
    let a = p.read_int_array("a").unwrap();
    let mut expect = vec![0i64; n * n];
    for i in 0..n {
        for j in 0..n {
            expect[i * n + j] = if i == 0 || j == 0 {
                1
            } else {
                expect[(i - 1) * n + j] + expect[(i - 1) * n + j - 1] + expect[i * n + j - 1]
            };
        }
    }
    assert_eq!(a, expect);
}

#[test]
fn star_solve_shortest_path() {
    // §3.6: APSP as a fixed-point computation with *solve.
    let p = run(r#"
        #define N 8
        index_set I:i = {0..N-1}, J:j = I, K:k = I;
        int dist[N][N];
        main() {
            par (I, J)
                st (i == j) dist[i][j] = 0;
                others dist[i][j] = (i * 5 + j * 11) % N + 1;
            *solve (I, J)
                dist[i][j] = $<(K; dist[i][k] + dist[k][j]);
        }
    "#);
    let n = 8usize;
    let d = p.read_int_array("dist").unwrap();
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                assert!(d[i * n + j] <= d[i * n + k] + d[k * n + j]);
            }
        }
    }
}

#[test]
fn odd_even_transposition_sort() {
    // §3.7: *oneof with two guarded swap arms.
    let p = run(r#"
        #define N 12
        index_set I:i = {0..N-1};
        int x[N];
        main() {
            par (I) x[i] = (5 * i + 7) % 12;   /* distinct */
            *oneof (I)
                st (i % 2 == 0 && x[i] > x[i+1]) swap(x[i], x[i+1]);
                st (i % 2 != 0 && x[i] > x[i+1]) swap(x[i], x[i+1]);
        }
    "#);
    let x = p.read_int_array("x").unwrap();
    assert_eq!(x, (0..12).collect::<Vec<i64>>());
}

#[test]
fn histogram_processor_optimization() {
    // §4's processor-optimization example: digit counting.
    let src = r#"
        #define N 64
        index_set I:i = {0..N-1}, J:j = {0..9};
        int samples[N];
        int count[10];
        main() {
            par (I) samples[i] = (i * i) % 10;
            par (J)
                count[j] = $+(I st (samples[i] == j) 1);
        }
    "#;
    let mut with = Program::compile(src).unwrap();
    with.run().unwrap();
    let counts = with.read_int_array("count").unwrap();
    let mut expect = vec![0i64; 10];
    for i in 0..64i64 {
        expect[((i * i) % 10) as usize] += 1;
    }
    assert_eq!(counts, expect);
    assert_eq!(counts.iter().sum::<i64>(), 64);

    // Without procopt the result is identical but the machine does more
    // work on the 10×N space.
    let cfg = ExecConfig { procopt: false, ..Default::default() };
    let mut without = Program::compile_with(src, cfg).unwrap();
    without.run().unwrap();
    assert_eq!(without.read_int_array("count").unwrap(), expect);
}

#[test]
fn index_set_shadowing() {
    // §3.4: reuse of I inside the reduction hides the outer predicate.
    let p = run(r#"
        index_set I:i = {0..9};
        int a[10];
        main() {
            par (I)
                st (i % 2 == 0) a[i] = $+(I; i);
        }
    "#);
    let a = p.read_int_array("a").unwrap();
    for (i, &v) in a.iter().enumerate() {
        assert_eq!(v, if i % 2 == 0 { 45 } else { 0 });
    }
}

#[test]
fn explicit_element_lists() {
    let p = run(r#"
        index_set K:k = {4, 2, 9};
        int a[10];
        main() { par (K) a[k] = k * 10; }
    "#);
    let a = p.read_int_array("a").unwrap();
    assert_eq!(a[4], 40);
    assert_eq!(a[2], 20);
    assert_eq!(a[9], 90);
    assert_eq!(a[0], 0);
}

#[test]
fn multiple_assignment_conflict_detected() {
    // §3.4's illegal program: a[i] = b[j] over (I, J).
    let src = r#"
        #define N 4
        index_set I:i = {0..N-1}, J:j = I;
        int a[N], b[N];
        main() {
            par (I) b[i] = i;          /* distinct values */
            par (I, J) a[i] = b[j];
        }
    "#;
    let mut p = Program::compile(src).unwrap();
    let err = p.run().unwrap_err();
    assert!(matches!(err.error, uc_core::RuntimeError::MultipleAssignment { .. }), "{err}");
}

#[test]
fn identical_multiple_assignment_allowed() {
    // The same shape with identical values is legal.
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1}, J:j = I;
        int a[N];
        main() { par (I, J) a[i] = 7; }
    "#);
    assert_eq!(p.read_int_array("a").unwrap(), vec![7; 4]);
}

#[test]
fn nondeterministic_choice_with_arb() {
    // §3.4: the corrected non-deterministic program using $,.
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1}, J:j = I;
        int a[N], b[N];
        main() {
            par (J) b[j] = j + 10;
            par (I) a[i] = $,(J; b[j]);
        }
    "#);
    let a = p.read_int_array("a").unwrap();
    for v in a {
        assert!((10..14).contains(&v), "value must come from b");
    }
}

#[test]
fn front_end_control_flow() {
    let p = run(r#"
        int s;
        int triple(int x) { return 3 * x; }
        main() {
            int k;
            s = 0;
            for (k = 0; k < 5; k++) {
                if (k == 3) continue;
                s += triple(k);
            }
            while (s > 20) s -= 2;
        }
    "#);
    // 3*(0+1+2+4) = 21 → while: 21 > 20 → 19.
    assert_eq!(p.read_int("s"), Some(19));
}

#[test]
fn seq_front_end_ordering() {
    // seq iterates elements in declaration order.
    let p = run(r#"
        index_set K:k = {4, 2, 9};
        int trace[3], n;
        main() {
            n = 0;
            seq (K) { trace[n] = k; n = n + 1; }
        }
    "#);
    assert_eq!(p.read_int_array("trace").unwrap(), vec![4, 2, 9]);
}

#[test]
fn map_permute_preserves_results() {
    // §4: the permute mapping changes layout, not results.
    let plain = r#"
        #define N 16
        index_set I:i = {0..N-1};
        int a[N], b[N];
        main() {
            par (I) { a[i] = i; b[i] = 100 + i; }
            par (I) st (i < N-1) a[i] = a[i] + b[i+1];
        }
    "#;
    let mapped = r#"
        #define N 16
        index_set I:i = {0..N-1};
        int a[N], b[N];
        map (I) { permute (I) b[i+1] :- a[i]; }
        main() {
            par (I) { a[i] = i; b[i] = 100 + i; }
            par (I) st (i < N-1) a[i] = a[i] + b[i+1];
        }
    "#;
    let p1 = run(plain);
    let p2 = run(mapped);
    assert_eq!(
        p1.read_int_array("a").unwrap(),
        p2.read_int_array("a").unwrap(),
        "mapping must not change program results"
    );
    assert_eq!(
        p1.read_int_array("b").unwrap(),
        p2.read_int_array("b").unwrap()
    );
}

/// The lint corpus's map-section program, one mapping of each class,
/// computes exactly what the same program without its map section does.
#[test]
fn the_corpus_map_sections_change_no_result() {
    let mapped = include_str!("../../../tests/corpus/map_sections.uc");
    let (head, rest) = mapped.split_once("map (I) {").expect("a map section");
    let (_, main) = rest.split_once("\n}\n").expect("a closing brace");
    let unmapped = format!("{head}{main}");
    let results = |src: &str| {
        let p = run(src);
        let arrays: Vec<_> = p.array_names().iter().map(|a| p.read_int_array(a).unwrap()).collect();
        (arrays, p.read_int("s"), p.cycles())
    };
    let ((mapped, s, mapped_cycles), (unmapped, t, unmapped_cycles)) =
        (results(mapped), results(&unmapped));
    assert_eq!((mapped, s), (unmapped, t));
    assert_ne!(mapped_cycles, unmapped_cycles, "the map section must be in effect");
}

#[test]
fn cycles_advance_and_reset() {
    let mut p = run(r#"
        #define N 8
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) a[i] = i; }
    "#);
    assert!(p.cycles() > 0);
    p.reset_clock();
    assert_eq!(p.cycles(), 0);
}

#[test]
fn define_overrides() {
    let src = r#"
        #define N 4
        index_set I:i = {0..N-1};
        int a[N], s;
        main() { par (I) a[i] = 1; s = $+(I; a[i]); }
    "#;
    let mut p =
        Program::compile_with_defines(src, ExecConfig::default(), &[("N", 32)]).unwrap();
    p.run().unwrap();
    assert_eq!(p.read_int("s"), Some(32));
    assert_eq!(p.shape("a"), Some(&[32usize][..]));
    assert_eq!((p.shape("s"), p.shape("b")), (None, None));
    assert_eq!(p.define("N"), Some(32));
    // A redefinition's last value is the one every use reads.
    let mut p = Program::compile("#define N 4\n#define N 8\nint s;\nmain() { s = N; }").unwrap();
    p.run().unwrap();
    assert_eq!((p.define("N"), p.read_int("s")), (Some(8), Some(8)));
}
