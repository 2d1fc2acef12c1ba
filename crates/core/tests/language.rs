//! Semantic coverage beyond the paper's own examples: floats, nesting,
//! multi-arm constructs, oneof choice behaviour, local declarations,
//! user functions, mapping variants, and the host API.

use uc_core::Program;

fn run(src: &str) -> Program {
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    p
}

// ---- floats ---------------------------------------------------------------

#[test]
fn float_arrays_and_arithmetic() {
    let p = run(r#"
        #define N 8
        index_set I:i = {0..N-1};
        float f[N];
        float total;
        main() {
            par (I) f[i] = i / 2.0;
            total = $+(I; f[i]);
        }
    "#);
    let f = p.read_float_array("f").unwrap();
    assert_eq!(f[3], 1.5);
    assert_eq!(p.read_scalar("total").unwrap().as_float(), 14.0);
}

#[test]
fn float_min_max_reductions() {
    let p = run(r#"
        #define N 6
        index_set I:i = {0..N-1};
        float f[N];
        float lo, hi;
        main() {
            par (I) f[i] = (i - 3) * 1.5;
            lo = $<(I; f[i]);
            hi = $>(I; f[i]);
        }
    "#);
    assert_eq!(p.read_scalar("lo").unwrap().as_float(), -4.5);
    assert_eq!(p.read_scalar("hi").unwrap().as_float(), 3.0);
}

#[test]
fn int_float_promotion() {
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1};
        int a[N];
        float avg;
        main() {
            par (I) a[i] = i + 1;          /* 1 2 3 4 */
            avg = $+(I; a[i]) / 4.0;
        }
    "#);
    assert_eq!(p.read_scalar("avg").unwrap().as_float(), 2.5);
}

// ---- nesting --------------------------------------------------------------

#[test]
fn triple_nested_constructs() {
    // par > seq > par with a reduction at the innermost level.
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1}, T:t = {0..1}, J:j = {0..N-1};
        int a[N], acc[N];
        main() {
            par (I) { a[i] = i + 1; acc[i] = 0; }
            par (I)
                seq (T)
                    acc[i] = acc[i] + $+(J st (j <= i) a[j]);
        }
    "#);
    // Each i adds prefix-sum(i) twice.
    let acc = p.read_int_array("acc").unwrap();
    assert_eq!(acc, vec![2, 6, 12, 20]);
}

#[test]
fn reduction_over_two_sets() {
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1}, J:j = I;
        int s;
        main() { s = $+(I, J; i * j); }
    "#);
    // Σ_i Σ_j i*j = (Σi)² = 36.
    assert_eq!(p.read_int("s"), Some(36));
}

#[test]
fn nested_reduction_inside_reduction_operand() {
    // The paper's `last` idiom: compare against an inner reduction.
    let p = run(r#"
        #define N 6
        index_set I:i = {0..N-1}, J:j = I;
        int a[N], last;
        main() {
            par (I) a[i] = (i * 2) % 5;    /* 0 2 4 1 3 0 */
            last = $>(J st (a[j] == $>(J; a[j])) j);
        }
    "#);
    assert_eq!(p.read_int("last"), Some(2)); // max 4 at position 2
}

#[test]
fn multi_arm_par_three_ways() {
    let p = run(r#"
        #define N 9
        index_set I:i = {0..N-1};
        int a[N];
        main() {
            par (I)
                st (i % 3 == 0) a[i] = 100;
                st (i % 3 == 1) a[i] = 200;
                others a[i] = 300;
        }
    "#);
    assert_eq!(
        p.read_int_array("a").unwrap(),
        vec![100, 200, 300, 100, 200, 300, 100, 200, 300]
    );
}

#[test]
fn overlapping_arms_both_execute() {
    // Paper: "if an index element is enabled for more than one sc-exp,
    // each one of the corresponding expressions is included".
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1};
        int s;
        main() {
            s = $+(I st (i >= 0) 1 st (i >= 2) 10);
        }
    "#);
    assert_eq!(p.read_int("s"), Some(4 + 20));
}

#[test]
fn multi_arm_reduction_with_others() {
    let p = run(r#"
        #define N 6
        index_set I:i = {0..N-1};
        int a[N], s;
        main() {
            par (I) a[i] = i - 2;           /* -2 -1 0 1 2 3 */
            s = $+(I st (a[i] > 0) a[i] others -a[i]);
        }
    "#);
    assert_eq!(p.read_int("s"), Some((2 + 1) + 1 + 2 + 3));
}

// ---- seq ------------------------------------------------------------------

#[test]
fn star_seq_terminates_when_no_arm_enabled() {
    // Bubble a value leftward one slot per sweep.
    let p = run(r#"
        #define N 6
        index_set I:i = {0..N-1};
        int a[N];
        main() {
            par (I) st (i == N-1) a[i] = 9;
            *seq (I)
                st (i > 0 && a[i] > a[i-1] && a[i-1] == 0) {
                    a[i-1] = a[i];
                    a[i] = 0;
                }
        }
    "#);
    let a = p.read_int_array("a").unwrap();
    assert_eq!(a, vec![9, 0, 0, 0, 0, 0]);
}

#[test]
fn seq_with_predicate_skips_elements() {
    let p = run(r#"
        index_set K:k = {0..9};
        int picked[10], n;
        main() {
            n = 0;
            seq (K) st (k % 3 == 0) { picked[n] = k; n = n + 1; }
        }
    "#);
    assert_eq!(p.read_int("n"), Some(4));
    assert_eq!(&p.read_int_array("picked").unwrap()[..4], &[0, 3, 6, 9]);
}

// ---- oneof ----------------------------------------------------------------

#[test]
fn oneof_executes_exactly_one_enabled_arm() {
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1};
        int hits;
        main() {
            int dummy[4];
            oneof (I)
                st (i == 0) hits += 1;
                st (i == 1) hits += 1;
        }
    "#);
    assert_eq!(p.read_int("hits"), Some(1));
}

#[test]
fn oneof_skips_disabled_arms() {
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1};
        int hits;
        main() {
            oneof (I)
                st (i > 100) hits += 1;
                st (i == 2) hits += 10;
        }
    "#);
    assert_eq!(p.read_int("hits"), Some(10));
}

#[test]
fn oneof_with_nothing_enabled_is_a_noop() {
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1};
        int hits;
        main() {
            oneof (I) st (i > 100) hits += 1;
            *oneof (I) st (i > 100) hits += 1;
        }
    "#);
    assert_eq!(p.read_int("hits"), Some(0));
}

// ---- declarations and functions -------------------------------------------

#[test]
fn function_local_arrays() {
    let p = run(r#"
        #define N 5
        int out;
        main() {
            int tmp[N];
            int k;
            for (k = 0; k < N; k++) tmp[k] = k * k;
            out = tmp[4];
        }
    "#);
    assert_eq!(p.read_int("out"), Some(16));
}

#[test]
fn user_functions_and_recursion() {
    let p = run(r#"
        int out;
        int fact(int n) {
            if (n <= 1) return 1;
            return n * fact(n - 1);
        }
        main() { out = fact(6); }
    "#);
    assert_eq!(p.read_int("out"), Some(720));
}

#[test]
fn user_function_called_in_parallel_with_scalar_args() {
    let p = run(r#"
        #define N 6
        index_set I:i = {0..N-1}, T:t = {0..2};
        int a[N];
        int triple(int x) { return 3 * x; }
        main() {
            par (I) a[i] = 0;
            seq (T)
                par (I) a[i] = a[i] + triple(t);
        }
    "#);
    // Each element accumulates 3*(0+1+2) = 9.
    assert_eq!(p.read_int_array("a").unwrap(), vec![9; 6]);
}

/// A function returns a value of its declared type, whichever way it
/// was entered: a VM `Call` from front-end code, or a call inside a `par`
/// arm, which re-enters the VM from the tree evaluator. A valueless
/// `return` still yields int 0.
#[test]
fn a_function_returns_its_declared_type() {
    let p = run(r#"
        #define N 3
        index_set I:i = {0..N-1}, T:t = {5..5};
        int t1;
        float q, none;
        int a[N];
        float b[N];
        int half(int n) { return n / 2.0; }
        float h(int n) { return n / 2; }
        float nothing(int n) { if (n) return; }
        main() {
            t1 = half(5) * 2;
            q = h(5) / 4;
            none = 7 / (nothing(1) + 2);
            seq (T) {
                par (I) a[i] = half(t) * 2 + i;
                par (I) b[i] = h(t) / 4;
            }
        }
    "#);
    assert_eq!(p.read_int("t1"), Some(4), "half(5) is 2, not 2.5");
    assert_eq!(p.read_scalar("q").unwrap().as_float(), 0.5, "h(5) is 2.0, not 2");
    let none = p.read_scalar("none").unwrap().as_float();
    assert_eq!(none, 3.0, "a valueless return is int 0, so 7 / 2 divides ints");
    assert_eq!(p.read_int_array("a").unwrap(), vec![4, 5, 6]);
    assert_eq!(p.read_float_array("b").unwrap(), vec![0.5; 3]);
}

#[test]
fn par_local_initializer() {
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1};
        int a[N];
        main() {
            par (I) {
                int twice = i * 2;
                a[i] = twice + 1;
            }
        }
    "#);
    assert_eq!(p.read_int_array("a").unwrap(), vec![1, 3, 5, 7]);
}

#[test]
fn local_index_set_shadows_global() {
    let p = run(r#"
        index_set I:i = {0..9};
        int a[10];
        main() {
            index_set I:i = {0..4};
            par (I) a[i] = 1;
        }
    "#);
    assert_eq!(p.read_int_array("a").unwrap()[..6], [1, 1, 1, 1, 1, 0]);
}

#[test]
fn index_set_alias_uses_own_element_name() {
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1}, J:j = I;
        int a[N][N];
        main() { par (I, J) a[i][j] = i * 10 + j; }
    "#);
    let a = p.read_int_array("a").unwrap();
    assert_eq!(a[2 * 4 + 3], 23);
}

// ---- mappings -------------------------------------------------------------

#[test]
fn fold_mapping_preserves_results() {
    let plain = r#"
        #define N 8
        index_set I:i = {0..N-1};
        int a[N], s;
        main() {
            par (I) a[i] = i * i;
            s = $+(I; a[i] + a[N-1-i]);
        }
    "#;
    let folded = r#"
        #define N 8
        index_set I:i = {0..N-1};
        int a[N], s;
        map (I) { fold (I) a[i] :- a[N-1-i]; }
        main() {
            par (I) a[i] = i * i;
            s = $+(I; a[i] + a[N-1-i]);
        }
    "#;
    let p1 = run(plain);
    let p2 = run(folded);
    assert_eq!(p1.read_int("s"), p2.read_int("s"));
    assert_eq!(p1.read_int_array("a").unwrap(), p2.read_int_array("a").unwrap());
}

#[test]
fn copy_mapping_preserves_results() {
    let plain = r#"
        #define N 8
        index_set I:i = {0..N-1}, J:j = {0..2};
        int a[N], out[N];
        main() {
            par (I) a[i] = i + 1;
            par (I) out[i] = a[i] * 2;
            par (I) a[i] = a[i] + 10;
            par (I) out[i] = out[i] + a[i];
        }
    "#;
    let copied = r#"
        #define N 8
        index_set I:i = {0..N-1}, J:j = {0..2};
        int a[N], out[N];
        map (I) { copy (J) a[i] :- a[i]; }
        main() {
            par (I) a[i] = i + 1;
            par (I) out[i] = a[i] * 2;
            par (I) a[i] = a[i] + 10;
            par (I) out[i] = out[i] + a[i];
        }
    "#;
    let p1 = run(plain);
    let p2 = run(copied);
    assert_eq!(p1.read_int_array("out").unwrap(), p2.read_int_array("out").unwrap());
    assert_eq!(p1.read_int_array("a").unwrap(), p2.read_int_array("a").unwrap());
}

#[test]
fn copy_mapping_eliminates_broadcast_router_traffic() {
    // par (J, I) reads a[i] for every j: without copy that is a router
    // broadcast from the [N]-shaped array into the [R,N] space; with
    // `copy (J) a[i] :- a[i]` every (j,i) point owns a local replica.
    // Written once, read every sweep: the trade the paper's copy mapping
    // is for (writes broadcast to every replica; reads become local).
    let plain = r#"
        #define N 16
        index_set J:j = {0..2}, I:i = {0..N-1}, T:t = {0..9};
        int a[N];
        int b[3][N];
        main() {
            par (I) a[i] = i * i;
            seq (T)
                par (J, I) b[j][i] = b[j][i] + a[i] + j;
        }
    "#;
    let copied = r#"
        #define N 16
        index_set J:j = {0..2}, I:i = {0..N-1}, T:t = {0..9};
        int a[N];
        int b[3][N];
        map (I) { copy (J) a[i] :- a[i]; }
        main() {
            par (I) a[i] = i * i;
            seq (T)
                par (J, I) b[j][i] = b[j][i] + a[i] + j;
        }
    "#;
    let p1 = run(plain);
    let p2 = run(copied);
    assert_eq!(p1.read_int_array("b").unwrap(), p2.read_int_array("b").unwrap());
    assert!(
        p2.machine().counters().router < p1.machine().counters().router,
        "copy mapping must cut router traffic: {} vs {}",
        p2.machine().counters().router,
        p1.machine().counters().router
    );
    assert!(p2.cycles() < p1.cycles(), "{} vs {}", p2.cycles(), p1.cycles());
}

// ---- misc semantics --------------------------------------------------------

#[test]
fn compound_assignment_in_parallel() {
    let p = run(r#"
        #define N 5
        index_set I:i = {0..N-1};
        int a[N];
        main() {
            par (I) a[i] = i;
            par (I) a[i] += 10;
            par (I) a[i] *= 2;
        }
    "#);
    assert_eq!(p.read_int_array("a").unwrap(), vec![20, 22, 24, 26, 28]);
}

#[test]
fn ternary_in_parallel_evaluates_elementwise() {
    let p = run(r#"
        #define N 6
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) a[i] = (i % 2 == 0) ? i : -i; }
    "#);
    assert_eq!(p.read_int_array("a").unwrap(), vec![0, -1, 2, -3, 4, -5]);
}

#[test]
fn out_of_bounds_parallel_read_is_inf() {
    // x[i+1] at the right edge reads INF, so the comparison is false —
    // the odd-even sort's implicit boundary handling.
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1};
        int x[N], edge_gt, edge_lt;
        main() {
            par (I) x[i] = 5;
            edge_gt = $+(I st (x[i] > x[i+1]) 1);
            edge_lt = $+(I st (x[i] < x[i+1]) 1);
        }
    "#);
    assert_eq!(p.read_int("edge_gt"), Some(0));
    // Only the last element sees INF on its right.
    assert_eq!(p.read_int("edge_lt"), Some(1));
}

#[test]
fn inf_literal() {
    let p = run(r#"
        #define N 4
        index_set I:i = {0..N-1};
        int m;
        int d[N];
        main() {
            par (I) d[i] = (i == 2) ? i : INF;
            m = $<(I; d[i]);
        }
    "#);
    assert_eq!(p.read_int("m"), Some(2));
}

#[test]
fn rand_is_deterministic_per_seed() {
    let src = r#"
        #define N 16
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) a[i] = rand() % 100; }
    "#;
    let mut p1 = run(src);
    let p2 = run(src);
    assert_eq!(p1.read_int_array("a").unwrap(), p2.read_int_array("a").unwrap());
    // Each run of one program draws the same numbers.
    let first = p1.read_int_array("a").unwrap();
    p1.run().unwrap();
    assert_eq!(p1.read_int_array("a").unwrap(), first, "a re-run draws anew");
    assert!(p1.read_int_array("a").unwrap().iter().all(|&v| (0..100).contains(&v)));
}

// ---- what a name denotes ----------------------------------------------------
//
// Sema resolves every identifier once — innermost scope outwards, then
// globals, then `#define`s — and every later layer follows the reference.
// Each of these programs got a different answer from some layer's own
// lookup before (tests/corpus/shadow_*.uc pin the same programs' digests).

/// Two sibling reductions over distinct sets whose elements share a
/// spelling extend `I` to the same 4x4 space, and both read `a[j]`: they
/// are different accesses, so the body must not reuse the predicate's
/// gather — and must cost what it costs when the elements are spelled
/// apart.
#[test]
fn sibling_reductions_sharing_an_element_spelling_each_read_their_own_set() {
    let program = |k: &str| {
        format!(
            "index_set I:i = {{0..3}}, J:j = {{0..3}}, K:{k} = {{4..7}};
             int a[8], s[4];
             main() {{
                 par (J) a[j] = 1;
                 par (K) a[{k}] = 100;
                 par (I) st ($+(J; a[j]) > 0) s[i] = $+(K; a[{k}]);
             }}"
        )
    };
    let shadowed = run(&program("j"));
    let apart = run(&program("k"));
    assert_eq!(shadowed.read_int_array("s").unwrap(), [400; 4]);
    assert_eq!(apart.read_int_array("s").unwrap(), [400; 4]);
    assert_eq!(shadowed.cycles(), apart.cycles());
}

/// The per-step gather cache tells one set bound on two axes apart: the
/// predicate's `a[i]` reads the `par`'s `i`, the body's the reduction's,
/// though both run on a 4×4 space; likewise `j` bound second of three
/// axes and third. Two reductions that bind `j` on the same axis still
/// share one gather. The cycles are the run's own: the predicate's
/// reduction, evaluated before any arm mask is pushed, transfers no mask,
/// and the body's, under `st`, does.
#[test]
fn one_set_bound_on_two_axes_is_two_elements_to_the_gather_cache() {
    let prelude = "index_set I:i = {0..3}, J:j = {0..3}, K:k = {0..3};\nint a[4], s[4], t[4][4][4];";
    let p = run(&format!(
        "{prelude}\nmain() {{ par (I) a[i] = i + 1;\n\
         par (I) st ($+(J; a[i]) > 0) s[i] = $+(I; a[i]);\n\
         par (I) st ($+(J, K; a[j]) > 0) {{ par (K, J) t[i][k][j] = a[j]; }} }}"
    ));
    assert_eq!(p.read_int_array("s").unwrap(), [10; 4]);
    let t: Vec<i64> = (0..64).map(|at| at % 4 + 1).collect();
    assert_eq!(p.read_int_array("t").unwrap(), t);
    let shared = run(&format!(
        "{prelude}\nmain() {{ par (I) a[i] = i + 1;\n\
         par (I) st ($+(J; a[j]) > 0) s[i] = $+(J; a[j]); }}"
    ));
    assert_eq!(shared.read_int_array("s").unwrap(), [10; 4]);
    assert_eq!(shared.cycles(), 2840);
}

/// A local declared in an inner block shadows the enclosing `par`'s
/// element for reads as it does for stores.
#[test]
fn a_local_shadows_an_index_element() {
    let p = run(r#"
        index_set I:i = {0..3};
        int b[4];
        main() { par (I) { int k; k = i; { int i; i = 7; b[k] = i; } } }
    "#);
    assert_eq!(p.read_int_array("b").unwrap(), [7; 4]);
}

/// The element of a `seq` nested in a `par` is the front-end value of the
/// current step, also when the `par`'s element has the same spelling.
#[test]
fn a_seq_element_shadows_a_par_element() {
    let p = run(r#"
        index_set I:i = {0..3}, S:i = {10..11};
        int b[4];
        main() { par (I) { int k; k = i; seq (S) b[k] = i; } }
    "#);
    assert_eq!(p.read_int_array("b").unwrap(), [11; 4]);
}

/// A declared local or a parameter is found before a `#define` of the
/// same spelling: it can be assigned, and it has its declared type.
#[test]
fn a_local_or_parameter_shadows_a_define() {
    let p = run(r#"
        #define N 4
        int t, u;
        float h;
        int twice(int N) { N = N * 2; return N; }
        main() {
            int N = 7;
            t = N;
            N = 3;
            u = twice(N) + N;
            { float N; N = 1; h = N / 2; }
        }
    "#);
    assert_eq!(p.read_int("t"), Some(7));
    assert_eq!(p.read_int("u"), Some(9));
    assert_eq!(p.read_scalar("h").unwrap().as_float(), 0.5);
    assert_eq!(p.define("N"), Some(4));
}

#[test]
fn counters_expose_program_character() {
    // Ranksort routes; the shifted kernel NEWSes; a pure map is ALU-only.
    let pure = run(r#"
        #define N 32
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) a[i] = i * i; }
    "#);
    let k = pure.machine().counters().clone();
    assert_eq!(k.router, 0);
    assert_eq!(k.news, 0);
    assert!(k.alu > 0);
    let _ = pure.read_int_array("a").unwrap();
}

#[test]
fn two_programs_are_isolated() {
    let src = r#"
        #define N 4
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) a[i] = a[i] + 1; }
    "#;
    let mut p1 = run(src);
    let p2 = Program::compile(src).unwrap(); // never run
    drop(p2);
    assert_eq!(p1.read_int_array("a").unwrap(), vec![1; 4]);
    // Running main again accumulates (the machine persists state).
    p1.run().unwrap();
    assert_eq!(p1.read_int_array("a").unwrap(), vec![2; 4]);
}
