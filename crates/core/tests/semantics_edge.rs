//! Edge-case semantics: unusual index sets, deep nesting, determinism
//! guarantees, and interactions between constructs and masks.

use uc_core::{ExecConfig, Program, RuntimeError};

fn run(src: &str) -> Program {
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    p
}

#[test]
fn negative_range_index_sets() {
    let p = run(r#"
        index_set I:i = {-3..3};
        int s, m;
        main() {
            s = $+(I; i);
            m = $<(I; i * i);
        }
    "#);
    assert_eq!(p.read_int("s"), Some(0));
    assert_eq!(p.read_int("m"), Some(0));
}

#[test]
fn offset_range_binds_axis_plus_lo() {
    // A {2..5} set still addresses arrays correctly (value = coord + 2).
    let p = run(r#"
        index_set I:i = {2..5};
        int a[8];
        main() { par (I) a[i] = i * 10; }
    "#);
    assert_eq!(p.read_int_array("a").unwrap(), vec![0, 0, 20, 30, 40, 50, 0, 0]);
}

#[test]
fn singleton_index_set() {
    let p = run(r#"
        index_set I:i = {5..5};
        int s;
        main() { s = $+(I; i + 1); }
    "#);
    assert_eq!(p.read_int("s"), Some(6));
}

#[test]
fn three_dimensional_arrays() {
    let p = run(r#"
        #define N 3
        index_set I:i = {0..N-1}, J:j = I, K:k = I;
        int t[N][N][N], s;
        main() {
            par (I, J, K) t[i][j][k] = i * 100 + j * 10 + k;
            s = $+(I, J, K st (i == j && j == k) t[i][j][k]);
        }
    "#);
    let t = p.read_int_array("t").unwrap();
    assert_eq!(t[9 + 2 * 3], 120);
    assert_eq!(p.read_int("s"), Some(111 + 222));
}

#[test]
fn arb_reduction_is_deterministic() {
    let src = r#"
        #define N 16
        index_set I:i = {0..N-1};
        int a[N], pick;
        main() {
            par (I) a[i] = i * 2;
            pick = $,(I st (a[i] % 4 == 0) a[i]);
        }
    "#;
    let p1 = run(src);
    let p2 = run(src);
    assert_eq!(p1.read_int("pick"), p2.read_int("pick"));
    let v = p1.read_int("pick").unwrap();
    assert!(v % 4 == 0 && (0..32).contains(&v));
}

#[test]
fn deeply_nested_masks_compose() {
    // Nested par constructs AND their predicates: innermost statements
    // see the conjunction of every enclosing mask.
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1}, J:j = I;
        int m[N][N];
        main() {
            par (I)
                st (i % 2 == 0)
                    par (J)
                        st (j > i) m[i][j] = 1;
        }
    "#);
    let m = p.read_int_array("m").unwrap();
    for i in 0..4 {
        for j in 0..4 {
            let expect = (i % 2 == 0 && j > i) as i64;
            assert_eq!(m[i * 4 + j], expect, "({i},{j})");
        }
    }
}

#[test]
fn reduction_sees_enclosing_mask() {
    // A reduction inside an st-guarded par only runs for enabled i, but
    // ranges over ALL j (fresh index set ⇒ fresh full extent).
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1}, J:j = I;
        int out[N];
        main() {
            par (I) out[i] = -1;
            par (I) st (i >= 2) out[i] = $+(J; 1);
        }
    "#);
    assert_eq!(p.read_int_array("out").unwrap(), vec![-1, -1, 4, 4]);
}

#[test]
fn seq_respects_element_order_of_lists() {
    // Overwrites happen in declared order: the LAST element wins.
    let p = run(r#"
        index_set K:k = {7, 3, 9, 3};
        int last;
        main() { seq (K) last = k; }
    "#);
    assert_eq!(p.read_int("last"), Some(3));
}

#[test]
fn duplicate_elements_in_list_sets() {
    // {3,3} enables element 3 twice; a par assignment writes the same
    // value twice — legal under the identical-values rule.
    let p = run(r#"
        index_set K:k = {3, 3};
        int a[8];
        main() { par (K) a[k] = k * 2; }
    "#);
    assert_eq!(p.read_int_array("a").unwrap()[3], 6);
}

#[test]
fn swap_on_plain_scalars() {
    let p = run(r#"
        int x = 3, y = 9;
        main() { swap(x, y); }
    "#);
    assert_eq!(p.read_int("x"), Some(9));
    assert_eq!(p.read_int("y"), Some(3));
}

#[test]
fn swap_is_synchronous_in_parallel() {
    // swap(x[i], x[i+1]) under a full mask would be racy if reads did not
    // precede writes; restrict to even i so pairs are disjoint.
    let p = run(r#"
        #define N 8
        index_set I:i = {0..N-1};
        int x[N];
        main() {
            par (I) x[i] = i;
            par (I) st (i % 2 == 0) swap(x[i], x[i+1]);
        }
    "#);
    assert_eq!(p.read_int_array("x").unwrap(), vec![1, 0, 3, 2, 5, 4, 7, 6]);
}

#[test]
fn solve_with_block_of_assignments() {
    // Two coupled single-assignment arrays: b depends on a.
    let p = run(r#"
        #define N 6
        index_set I:i = {0..N-1};
        int a[N], b[N];
        main() {
            solve (I) {
                a[i] = (i == 0) ? 1 : b[i-1] * 2;
                b[i] = a[i] + 1;
            }
        }
    "#);
    // a = 1, b = 2, a = 4, b = 5, a = 10, b = 11, ...
    let a = p.read_int_array("a").unwrap();
    let b = p.read_int_array("b").unwrap();
    assert_eq!(a[0], 1);
    for i in 0..6usize {
        assert_eq!(b[i], a[i] + 1);
        if i > 0 {
            assert_eq!(a[i], b[i - 1] * 2);
        }
    }
}

#[test]
fn solve_backward_dependency_order() {
    // Dependencies run right-to-left; the *par translation must still
    // find the order (source order is the wrong order here).
    let p = run(r#"
        #define N 6
        index_set I:i = {0..N-1};
        int a[N];
        main() {
            solve (I)
                a[i] = (i == N-1) ? 100 : a[i+1] - 7;
        }
    "#);
    assert_eq!(
        p.read_int_array("a").unwrap(),
        vec![65, 72, 79, 86, 93, 100]
    );
}

#[test]
fn star_solve_equals_hand_written_star_par() {
    // §3.6: a *solve may be refined by the programmer into a *par with an
    // explicit fixed-point predicate; both must compute the same result.
    let star_solve = r#"
        #define N 8
        index_set I:i = {0..N-1}, K:k = I;
        int d[N];
        main() {
            par (I) d[i] = (i == 0) ? 0 : 100 + i;
            *solve (I)
                d[i] = $<(K st (k == i || k + 1 == i) d[k] + (k + 1 == i));
        }
    "#;
    let star_par = r#"
        #define N 8
        index_set I:i = {0..N-1};
        int d[N];
        main() {
            par (I) d[i] = (i == 0) ? 0 : 100 + i;
            *par (I) st (i > 0 && d[i-1] + 1 < d[i])
                d[i] = d[i-1] + 1;
        }
    "#;
    let p1 = run(star_solve);
    let p2 = run(star_par);
    assert_eq!(
        p1.read_int_array("d").unwrap(),
        p2.read_int_array("d").unwrap()
    );
    assert_eq!(p2.read_int_array("d").unwrap(), (0..8).collect::<Vec<i64>>());
}

#[test]
fn results_are_thread_count_independent() {
    // The simulator parallelises big fields with rayon; results and the
    // cycle clock must not depend on it. Run the same program with sizes
    // straddling the parallel threshold.
    for n in [64i64, 20000] {
        let src = r#"
            #define N 64
            index_set I:i = {0..N-1};
            int a[N], s;
            main() {
                par (I) a[i] = (i * 2654435761) % 1000;
                s = $+(I st (a[i] % 2 == 0) a[i]);
            }
        "#;
        let mut p1 =
            Program::compile_with_defines(src, ExecConfig::default(), &[("N", n)]).unwrap();
        p1.run().unwrap();
        let mut p2 =
            Program::compile_with_defines(src, ExecConfig::default(), &[("N", n)]).unwrap();
        p2.run().unwrap();
        assert_eq!(p1.read_int("s"), p2.read_int("s"));
        assert_eq!(p1.cycles(), p2.cycles());
    }
}

#[test]
fn vp_ratio_shows_in_cycles() {
    // The same program over 16K and over 64K elements on a 16K machine:
    // 4x the VPs must cost ~4x the cycles (the Figure 7 staircase).
    let src = r#"
        #define N 16384
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) a[i] = i * 3; }
    "#;
    let cycles = |n: i64| {
        let mut p =
            Program::compile_with_defines(src, ExecConfig::default(), &[("N", n)]).unwrap();
        p.run().unwrap();
        p.cycles()
    };
    let one = cycles(16 * 1024);
    let four = cycles(64 * 1024);
    let ratio = four as f64 / one as f64;
    assert!((3.0..5.0).contains(&ratio), "expected ~4x, got {ratio}");
}

#[test]
fn pointer_jumping_list_ranking() {
    // List ranking by pointer jumping: the classic CM idiom that is all
    // router traffic (every hop follows an arbitrary successor pointer).
    // next[i] = i+1 on a linked list laid out by a permutation; rank =
    // distance to the tail, doubling hops each round.
    let p = run(r#"
        #define N 16
        index_set I:i = {0..N-1}, T:t = {0..3};
        int next[N], rank[N];
        main() {
            /* a list threaded through the array: i -> (i + 5) % N, tail
               marked with next = self, laid out so hops are scattered. */
            par (I) next[i] = (i + 5) % N;
            par (I) st (i == 11) next[i] = i;       /* tail */
            par (I) st (next[i] == i) rank[i] = 0;
            par (I) st (next[i] != i) rank[i] = 1;
            seq (T) {                               /* log2(16) rounds */
                par (I) st (next[i] != next[next[i]])
                    rank[i] = rank[i] + rank[next[i]];
                par (I) rank[i] = rank[i];          /* keep step shape */
                par (I) next[i] = next[next[i]];
            }
        }
    "#);
    let rank = p.read_int_array("rank").unwrap();
    // Walk the list on the host to get true distances.
    let next: Vec<usize> = (0..16).map(|i| if i == 11 { 11 } else { (i + 5) % 16 }).collect();
    for (i, &r) in rank.iter().enumerate() {
        let mut d = 0;
        let mut cur = i;
        while next[cur] != cur {
            cur = next[cur];
            d += 1;
        }
        assert_eq!(r, d as i64, "node {i}");
    }
    // Pointer jumping is router-bound.
    assert!(p.machine().counters().router > 10);
}

/// The per-step gather cache must forget `b[a[i]]` when `a` is written,
/// not only when `b` is: the predicate gathers `b[a[i]]` through the old
/// `a`, the body then rotates `a` and reads `b[a[i]]` again. A predicate
/// that caches nothing (`b[i] >= 0`) is the reference.
#[test]
fn a_write_invalidates_gathers_that_subscript_through_it() {
    let program = |pred: &str| {
        format!(
            "#define N 4
             index_set I:i = {{0..N-1}};
             int a[N], b[N], x[N];
             main() {{
                 par (I) {{ a[i] = i; b[i] = i * 10; }}
                 par (I) st ({pred}) {{ a[i] = (i + 1) % N; x[i] = b[a[i]]; }}
             }}"
        )
    };
    let nested = run(&program("b[a[i]] >= 0"));
    assert_eq!(nested.read_int_array("x").unwrap(), vec![10, 20, 30, 0]);
    let plain = run(&program("b[i] >= 0"));
    assert_eq!(plain.read_int_array("x").unwrap(), nested.read_int_array("x").unwrap());
}

/// A list set that starts at `INF` is an ordinary list: asking whether it
/// is `{lo..hi}` must not compute `INF + 1` (the lints and the executor
/// ask the same `IndexSetInfo::contiguous_lo`).
#[test]
fn a_list_set_starting_at_inf_is_not_contiguous() {
    let src = "index_set I:i = {INF, 0};\nint a[4];\nmain() { par (I) st (i == 0) a[i] = 1; }";
    let checked = uc_core::analysis::check_source(src, &[], &Default::default());
    assert!(!checked.has_errors(), "{checked}");
    assert_eq!(run(src).read_int_array("a").unwrap(), vec![1, 0, 0, 0]);
}

/// A front-end element's subscripts run once: `+=` reads and writes the
/// element it subscripted, and `swap` reads both operands, then stores
/// both. Six front-end ticks: a read and a write for `+=`, two of each
/// for `swap`.
#[test]
fn front_end_subscripts_are_evaluated_once() {
    let p = run(r#"
        int a[4], calls, x;
        int f() { calls = calls + 1; return 1; }
        main() { a[f()] += 5; x = calls; swap(a[f()], a[f() + 1]); }
    "#);
    assert_eq!((p.read_int("calls"), p.read_int("x")), (Some(3), Some(1)));
    assert_eq!(p.read_int_array("a").unwrap(), vec![0, 0, 5, 0]);
    assert_eq!((p.cycles(), p.machine().counters().front_end), (60, 6));
}

/// A function called from a `par` arm that stores a global drops the
/// step's cached gathers, however its store is compiled: the arm then
/// re-reads `a[(i + g) % N]` through the new `g`. A store to an element
/// drops the gathers that read its array.
#[test]
fn a_store_in_a_callee_of_an_arm_drops_the_steps_gathers() {
    let program = |h: &str| {
        format!(
            "#define N 4
             index_set I:i = {{0..N-1}};
             int a[N], x[N], g;
             int h() {{ {h}; return 0; }}
             main() {{
                 par (I) a[i] = i * 10;
                 par (I) st (a[(i + g) % N] >= 0) {{ x[i] = h(); x[i] = a[(i + g) % N]; }}
             }}"
        )
    };
    for h in ["g = 1", "g = a[0] * 0 + 1"] {
        assert_eq!(run(&program(h)).read_int_array("x").unwrap(), vec![10, 20, 30, 0], "{h}");
    }
    let poke = run(r#"
        #define N 4
        index_set I:i = {0..N-1};
        int a[N], x[N];
        int poke() { a[0] = 100; return 0; }
        main() {
            par (I) a[i] = i;
            par (I) st (a[i] >= 0) { x[i] = poke(); x[i] = a[i]; }
        }
    "#);
    assert_eq!(poke.read_int_array("x").unwrap(), vec![100, 1, 2, 3]);
}

/// A value two levels out, read under `st` and then under `others`: a
/// per-VP local (`a`, lifted) and an element (`b`, computed from the
/// coordinate) hold under both arms, and a reduction's arms each reach
/// their enclosing point (`s`). An address to the grandparent built under
/// the `st` mask holds only on that mask's lanes, so it must not serve
/// `others`: `a` and `b` would read `[.., 100, 1, 100, 1]`.
#[test]
fn values_of_enclosing_levels_hold_under_every_arm() {
    let p = run(include_str!("../../../tests/corpus/lift_under_arms.uc"));
    let expect = [0, 1, 0, 1, 100, 101, 100, 101];
    assert_eq!(p.read_int_array("a").unwrap(), expect);
    assert_eq!(p.read_int_array("b").unwrap(), expect);
    assert_eq!(p.read_int_array("s").unwrap(), [1000, 1001, 1010, 1011]);
}

// ---- router addresses -------------------------------------------------------
//
// With `optimize_access` off every access is a router gather or scatter,
// so each of these programs runs its subscripts through the address
// arithmetic; with it on, only the accesses that are neither local nor
// NEWS do. Both must give the values a plain `Vec` computes.

const INF: i64 = i64::MAX;

/// Run `src` with access optimisation on and off; the two runs must end
/// alike, and the routed one is returned.
fn run_both(src: &str) -> Result<Program, RuntimeError> {
    let mut ends = [true, false].map(|optimize_access| {
        let cfg = ExecConfig { optimize_access, ..Default::default() };
        let mut p = Program::compile_with(src, cfg).unwrap_or_else(|d| panic!("{d}"));
        p.run().map(|()| p).map_err(|e| e.error)
    });
    let [on, off] = &mut ends;
    match (on, off) {
        (Ok(on), Ok(off)) => {
            for name in on.array_names() {
                assert_eq!(on.read_int_array(&name).ok(), off.read_int_array(&name).ok(), "{name}");
            }
        }
        (Err(on), Err(off)) => assert_eq!(on.to_string(), off.to_string()),
        _ => panic!("one run trapped, the other did not"),
    }
    let [_, off] = ends;
    off
}

/// `c[i][2][k]` puts a constant between two strided axes; `c[k][j][1]`
/// multiplies both of its element axes (strides 20 and 5), and `k` runs
/// past `c`'s first extent, so those lanes read INF; `c[i][i][i]` adds
/// three terms of one field; `w[2][k]` adds its constant to a borrowed
/// element; `c[2][3][4]` is all constant and `c[3][0][0]` all constant
/// and out of range.
#[test]
fn strided_and_constant_subscripts_address_every_axis() {
    let p = run_both(
        "index_set I:i = {0..2}, J:j = {0..3}, K:k = {0..4};
         int c[3][4][5], w[4][5], x[3][5], y[5][4], d[3], e[5], z[5];
         main() {
             par (I, J, K) c[i][j][k] = 100 * i + 10 * j + k;
             par (J, K) w[j][k] = 10 * j + k;
             par (I, K) x[i][k] = c[i][2][k];
             par (K, J) y[k][j] = c[k][j][1];
             par (I) d[i] = c[i][i][i];
             par (K) { e[k] = w[2][k]; z[k] = c[2][3][4] + c[3][0][0] % 2; }
         }",
    )
    .unwrap();
    let c = |i: i64, j: i64, k: i64| 100 * i + 10 * j + k;
    let x: Vec<i64> = (0..3).flat_map(|i| (0..5).map(move |k| c(i, 2, k))).collect();
    let y: Vec<i64> =
        (0..5).flat_map(|k| (0..4).map(move |j| if k < 3 { c(k, j, 1) } else { INF })).collect();
    assert_eq!(p.read_int_array("x").unwrap(), x);
    assert_eq!(p.read_int_array("y").unwrap(), y);
    assert_eq!(p.read_int_array("d").unwrap(), [0, 111, 222]);
    assert_eq!(p.read_int_array("e").unwrap(), [20, 21, 22, 23, 24]);
    assert_eq!(p.read_int_array("z").unwrap(), [c(2, 3, 4) + INF % 2; 5]);
}

/// Subscripts that arrive as owned temporaries — `i+1`, `p[i]`, an
/// enclosing level's coordinate — become their address terms in place;
/// `m[p[i]][j]` also scales one. `i+1` and `i-1` read INF off the ends,
/// and `m[i-1][j+1]`, displaced on two axes, takes the router either way.
#[test]
fn owned_subscripts_and_out_of_range_reads() {
    let p = run_both(
        "#define N 8
         index_set I:i = {0..N-1}, J:j = {0..3};
         int b[N], p[N], u[N], v[N], m[N][4], q[N][4], r[N][4], s[N][4];
         main() {
             par (I) { b[i] = 10 * i; p[i] = (3 * i + 1) % N; }
             par (I, J) m[i][j] = 4 * i + j;
             par (I) { u[i] = b[i+1]; v[i] = b[p[i]]; }
             par (I, J) { q[i][j] = m[p[i]][j]; r[i][j] = m[i-1][j+1]; }
             par (I) par (J) s[i][j] = m[i][j] + b[i];
         }",
    )
    .unwrap();
    let (n, perm) = (8, |i: i64| (3 * i + 1) % 8);
    let b = |i: i64| if (0..n).contains(&i) { 10 * i } else { INF };
    let m =
        |i: i64, j: i64| if (0..n).contains(&i) && (0..4).contains(&j) { 4 * i + j } else { INF };
    let grid = |f: &dyn Fn(i64, i64) -> i64| -> Vec<i64> {
        (0..n).flat_map(|i| (0..4).map(move |j| (i, j))).map(|(i, j)| f(i, j)).collect()
    };
    assert_eq!(p.read_int_array("u").unwrap(), (0..n).map(|i| b(i + 1)).collect::<Vec<_>>());
    assert_eq!(p.read_int_array("v").unwrap(), (0..n).map(|i| b(perm(i))).collect::<Vec<_>>());
    assert_eq!(p.read_int_array("q").unwrap(), grid(&|i, j| m(perm(i), j)));
    assert_eq!(p.read_int_array("r").unwrap(), grid(&|i, j| m(i - 1, j + 1)));
    assert_eq!(p.read_int_array("s").unwrap(), grid(&|i, j| m(i, j) + b(i)));
}

/// A masked scatter writes only its enabled lanes; one enabled lane out
/// of range is an error, whichever lanes are in range.
#[test]
fn scatters_write_enabled_lanes_and_trap_out_of_range() {
    let src = |cond: &str| {
        format!(
            "#define N 8
             index_set I:i = {{0..N-1}};
             int b[N];
             main() {{ par (I) b[i] = -1; par (I) st ({cond}) b[2 * i] = i; }}"
        )
    };
    let p = run_both(&src("i < 4")).unwrap();
    assert_eq!(p.read_int_array("b").unwrap(), [0, -1, 1, -1, 2, -1, 3, -1]);
    let Err(err) = run_both(&src("i > 2")) else { panic!("b[2 * i] leaves b for i >= 4") };
    assert!(matches!(err, RuntimeError::OutOfBounds { ref name } if name == "b"), "{err}");
}

/// A `permute`d array read and written through data-dependent and
/// constant subscripts holds what the unmapped array would.
#[test]
fn permute_maps_computed_subscripts() {
    let p = run_both(
        "#define N 8
         index_set I:i = {0..N-1};
         int a[N], b[N], p[N], f[N], g[N], h[N];
         map (I) { permute (I) b[i+1] :- a[i]; }
         main() {
             par (I) { p[i] = (5 * i + 3) % N; b[p[i]] = 10 * i; }
             par (I) { f[i] = b[i]; g[i] = b[p[i]] + b[3]; h[i] = b[i+2]; }
         }",
    )
    .unwrap();
    let perm = |i: usize| (5 * i + 3) % 8;
    let mut b = [0i64; 8];
    for i in 0..8 {
        b[perm(i)] = 10 * i as i64;
    }
    let g: Vec<i64> = (0..8).map(|i| b[perm(i)] + b[3]).collect();
    let h: Vec<i64> = (0..8).map(|i| b.get(i + 2).copied().unwrap_or(INF)).collect();
    assert_eq!(p.read_int_array("b").unwrap(), b);
    assert_eq!(p.read_int_array("f").unwrap(), b);
    assert_eq!(p.read_int_array("g").unwrap(), g);
    assert_eq!(p.read_int_array("h").unwrap(), h);
}

/// `fold` on an odd and an even extent, read one lane past its end and
/// two before its start (`c[k-2]`): the folded lanes read what they
/// would unmapped, the others INF. A masked scatter through the fold
/// writes its enabled lanes; an enabled lane past the end is an error.
#[test]
fn fold_on_an_odd_extent_reads_inf_past_the_end() {
    for n in [7i64, 8] {
        let src = |body: &str| {
            format!(
                "#define N {n}
                 index_set I:i = {{0..N-1}}, K:k = {{0..N}};
                 int c[N], r[N+1], l[N+1];
                 map (I) {{ fold (I) c[i] :- c[N-1-i]; }}
                 main() {{ par (I) c[i] = i * i; {body} }}"
            )
        };
        let body = "par (K) { r[k] = c[k]; l[k] = c[k-2]; }
                    par (K) st (k % 3 == 1 && k < N) c[k] = -k;";
        let p = run_both(&src(body)).unwrap();
        let c = |i: i64| if (0..n).contains(&i) { i * i } else { INF };
        let read = |f: &dyn Fn(i64) -> i64| (0..=n).map(f).collect::<Vec<_>>();
        let stored: Vec<i64> = (0..n).map(|i| if i % 3 == 1 { -i } else { c(i) }).collect();
        assert_eq!(p.read_int_array("r").unwrap(), read(&c), "N = {n}");
        assert_eq!(p.read_int_array("l").unwrap(), read(&|k| c(k - 2)), "N = {n}");
        assert_eq!(p.read_int_array("c").unwrap(), stored, "N = {n}");
        let Err(err) = run_both(&src("par (K) st (k > 1) c[k] = k;")) else {
            panic!("c[N] leaves c at N = {n}")
        };
        assert!(matches!(err, RuntimeError::OutOfBounds { ref name } if name == "c"), "{err}");
    }
}
