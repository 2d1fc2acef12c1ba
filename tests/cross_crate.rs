//! Cross-crate integration: the UC executor, the C* baseline DSL and the
//! sequential baselines must agree on every shared workload — the
//! precondition for the paper's figures to be meaningful comparisons.

mod support;

use std::collections::HashMap;

use proptest::prelude::*;
use support::{
    name_nest, nest, rank_case, scalar_program, scalar_stmts, NameModel, NameStmt, Nest, Operand,
    RankStmt, SExpr, SVal, ScalarModel, ScopeModel, Target, POOL, SCALARS, SETS, VARS,
};
use uc::cm::cost::OpCounters;
use uc::cstar::programs;
use uc::lang::analysis::{check_source, LintConfig};
use uc::lang::Program;
use uc::seqc::{grid, oracle, SeqMachine};

const PHYS: usize = 16 * 1024;

fn run_uc(src: &str, defines: &[(&str, i64)]) -> Program {
    let mut p = Program::compile_with_defines(src, Default::default(), defines)
        .unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    p
}

#[test]
fn apsp_uc_equals_cstar_equals_oracle() {
    for n in [4usize, 8, 16] {
        let graph = oracle::bench_graph(n);
        let oracle_d = oracle::floyd_warshall(graph.clone(), n);

        let (cstar2, _) = programs::apsp_n2(&graph, n, PHYS);
        assert_eq!(cstar2, oracle_d, "C* N2, n={n}");
        let (cstar3, ..) = programs::apsp_n3(&graph, n, PHYS);
        assert_eq!(cstar3, oracle_d, "C* N3, n={n}");

        let src = format!(
            r#"
            #define N {n}
            index_set I:i = {{0..N-1}}, J:j = I, K:k = I;
            int d[N][N];
            main() {{
                par (I, J)
                    st (i == j) d[i][j] = 0;
                    others d[i][j] = (i * 7 + j * 13) % N + 1;
                seq (K)
                    par (I, J)
                        st (d[i][k] + d[k][j] < d[i][j])
                            d[i][j] = d[i][k] + d[k][j];
            }}
            "#
        );
        let p = run_uc(&src, &[]);
        assert_eq!(p.read_int_array("d").unwrap(), oracle_d, "UC, n={n}");
    }
}

#[test]
fn grid_uc_equals_cstar_equals_seq_equals_bfs() {
    for n in [8usize, 16] {
        let walls = oracle::figure11_walls(n);
        let bfs = oracle::grid_bfs(n, n, &walls);

        let (cstar_d, _, _) = programs::grid_goal(n, n, &walls, 1 << 30, PHYS);
        let mut m = SeqMachine::new();
        let seq_run = grid::grid_goal(&mut m, n, n, &walls, 1 << 30);

        let src = r#"
            #define N 8
            #define DMAX 1073741824
            #define WALLV 2147483648
            index_set I:i = {0..N-1}, J:j = I;
            int a[N][N];
            main() {
                par (I, J)
                    st (i + j == N - 1 && ABS(i - N/2) <= N/4) a[i][j] = WALLV;
                    others a[i][j] = DMAX;
                par (I, J) st (i == 0 && j == 0) a[i][j] = 0;
                *par (I, J)
                    st (a[i][j] != WALLV && (i != 0 || j != 0)
                        && min(min(a[i-1][j], a[i+1][j]), min(a[i][j-1], a[i][j+1])) + 1 < a[i][j])
                    a[i][j] = min(min(a[i-1][j], a[i+1][j]), min(a[i][j-1], a[i][j+1])) + 1;
            }
        "#;
        let p = run_uc(src, &[("N", n as i64)]);
        let uc_d = p.read_int_array("a").unwrap();

        for cell in 0..n * n {
            if walls[cell] {
                continue;
            }
            if let Some(d) = bfs[cell] {
                assert_eq!(uc_d[cell], d as i64, "UC n={n} cell {cell}");
                assert_eq!(cstar_d[cell], d as i64, "C* n={n} cell {cell}");
                assert_eq!(seq_run.dist[cell], d as i64, "seq n={n} cell {cell}");
            }
        }
    }
}

#[test]
fn histogram_procopt_both_match_counting() {
    let src = r#"
        #define N 200
        index_set I:i = {0..N-1}, J:j = {0..9};
        int samples[N];
        int count[10];
        main() {
            par (I) samples[i] = (i * 3 + 1) % 10;
            par (J) count[j] = $+(I st (samples[i] == j) 1);
        }
    "#;
    let mut expect = vec![0i64; 10];
    for i in 0..200i64 {
        expect[((i * 3 + 1) % 10) as usize] += 1;
    }
    for procopt in [true, false] {
        let cfg = uc::lang::ExecConfig { procopt, ..Default::default() };
        let mut p = Program::compile_with(src, cfg).unwrap();
        p.run().unwrap();
        assert_eq!(p.read_int_array("count").unwrap(), expect, "procopt={procopt}");
    }
}

#[test]
fn access_optimization_is_semantics_preserving() {
    // The same program with the §4 communication optimisation on and off
    // must produce identical results (only cycles differ).
    let src = r#"
        #define N 32
        index_set I:i = {0..N-1}, J:j = I;
        int a[N], b[N], c[N][N], s;
        main() {
            par (I) { a[i] = (i * 5) % 17; b[i] = i; }
            par (I) st (i > 0 && i < N-1) b[i] = a[i-1] + a[i+1];
            par (I, J) c[i][j] = a[i] * b[j];
            s = $+(I, J st (c[i][j] % 3 == 0) c[i][j]);
        }
    "#;
    let results = [true, false].map(|optimize_access| {
        let cfg = uc::lang::ExecConfig { optimize_access, ..Default::default() };
        let mut p = Program::compile_with(src, cfg).unwrap();
        p.run().unwrap();
        (p.read_int_array("b").unwrap(), p.read_int_array("c").unwrap(), p.read_int("s").unwrap())
    });
    assert_eq!(results[0], results[1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Index-set scoping against a model that shares no code with sema:
    /// every probe stores the sum of the set the model says its name
    /// denotes there, and UC121 flags exactly the definitions the model
    /// says no construct, reduction or alias reaches.
    #[test]
    fn index_set_scoping_matches_a_lexical_model(
        tape in prop::collection::vec(0u32..1 << 16, 48..160),
    ) {
        let mut tape = tape.into_iter();
        let mut m = ScopeModel { scopes: vec![HashMap::new()], ..Default::default() };
        let mut next = |n: u32| (tape.next().unwrap_or(0) % n) as usize;
        let mut globals = Vec::new();
        for name in 0..POOL.len() {
            if next(4) != 0 {
                globals.push(Nest::Def { name, init: next(6) });
            }
        }
        m.walk(&globals);
        m.src.push_str("int hits[HITS];\nmain()\n");
        m.walk(&[Nest::Block(nest(&mut tape, 0))]);
        let hits = [("HITS", m.hits.len().max(1) as i64)];

        let mut p = Program::compile_with_defines(&m.src, Default::default(), &hits)
            .unwrap_or_else(|d| panic!("{}\n{d}", m.src));
        p.run().unwrap_or_else(|e| panic!("{}\n{e}", m.src));
        let stored = p.read_int_array("hits").unwrap();
        prop_assert_eq!(&stored[..m.hits.len()], &m.hits[..], "{}", m.src);

        let diags = check_source(&m.src, &hits, &LintConfig::default());
        prop_assert!(!diags.has_errors(), "{}\n{}", m.src, diags);
        let flagged: Vec<u32> = diags
            .items
            .iter()
            .filter(|d| d.code == Some("UC121"))
            .map(|d| d.span.line)
            .collect();
        let unused: Vec<u32> =
            m.defs.iter().filter(|(_, _, used)| !used).map(|(_, line, _)| *line).collect();
        prop_assert_eq!(flagged, unused, "{}", m.src);
    }

    /// Variable scoping against a model that shares no code with sema,
    /// the lowerer or the executor: variables and index elements draw
    /// their spellings from one pool of three, so elements shadow
    /// elements, locals shadow elements, `seq` elements shadow `par`
    /// elements and sibling reductions over distinct sets bind one
    /// spelling on one geometry. Every probe stores what the model says
    /// its name denotes there; and since the programs are race-free and
    /// initialise what they read, the lints that track names (UC101,
    /// UC130, UC131) stay silent.
    #[test]
    fn variable_scoping_matches_a_lexical_model(
        tape in prop::collection::vec(0u32..1 << 16, 48..160),
    ) {
        let mut tape = tape.into_iter();
        let mut next = |n: u32| (tape.next().unwrap_or(0) % n) as usize;
        // Outermost a `#define`, then a global scalar, of some spellings.
        let mut m = NameModel { scopes: vec![HashMap::new(), HashMap::new()], ..Default::default() };
        let mut prelude = String::new();
        for (name, v) in VARS.iter().enumerate() {
            if next(3) == 0 {
                m.src.push_str(&format!("#define {v} {}\n", 70 + name));
                m.scopes[0].insert(name, 70 + name as i64);
            }
            if next(3) == 0 {
                m.src.push_str(&format!("int {v};\n"));
                prelude.push_str(&format!("{v} = {};\n", 50 + name));
                m.scopes[1].insert(name, 50 + name as i64);
            }
        }
        for d in 0..SETS {
            m.elems[d] = next(VARS.len() as u32);
            let (v, lo) = (VARS[m.elems[d]], 10 * d + 1);
            m.src.push_str(&format!("index_set S{d}:{v} = {{{lo}..{}}};\n", lo + 1));
        }
        m.src.push_str(&format!("int hits[HITS];\nmain()\n{{\n{prelude}"));
        m.scopes.push(HashMap::new());
        m.walk(&[NameStmt::Block(name_nest(&mut tape, 0, 0))]);
        m.src.push_str("}\n");
        let hits = [("HITS", m.hits.len().max(1) as i64)];

        let mut p = Program::compile_with_defines(&m.src, Default::default(), &hits)
            .unwrap_or_else(|d| panic!("{}\n{d}", m.src));
        p.run().unwrap_or_else(|e| panic!("{}\n{e}", m.src));
        let stored = p.read_int_array("hits").unwrap();
        prop_assert_eq!(&stored[..m.hits.len()], &m.hits[..], "{}", m.src);

        let diags = check_source(&m.src, &hits, &LintConfig::default());
        prop_assert!(!diags.has_errors(), "{}\n{}", m.src, diags);
        let named: Vec<_> = diags
            .items
            .iter()
            .filter(|d| matches!(d.code, Some("UC101" | "UC130" | "UC131")))
            .collect();
        prop_assert!(named.is_empty(), "{}\n{:?}", m.src, named);
    }
}

/// The rank rule in plain Rust, sharing no code with sema: is `v` one
/// value per virtual processor where `depth` iteration spaces are open?
fn parallel(v: &Operand, depth: usize) -> bool {
    use Operand::*;
    depth > 0
        && match v {
            Lit | Global | Reg | Call(_) => false,
            PerVp | Outer | Elem(_) | ReadConst | ReadElem(_) | Rand | Reduce(_) | Cond(_) => true,
            Abs(x) | Plus(x) => parallel(x, depth),
        }
}

/// No user function is handed a parallel value (a reduction's operand
/// sits one space deeper).
fn calls_legal(v: &Operand, depth: usize) -> bool {
    use Operand::*;
    match v {
        Call(x) => !parallel(x, depth) && calls_legal(x, depth),
        Reduce(x) => calls_legal(x, depth + 1),
        Abs(x) | Plus(x) | Cond(x) => calls_legal(x, depth),
        _ => true,
    }
}

/// A global or register local takes only a front-end value; a
/// per-processor local and an array element take either.
fn stores_legal(target: Target, value_is_parallel: bool, depth: usize) -> bool {
    let front_end = depth == 0 || matches!(target, Target::Global | Target::Reg);
    !(front_end && value_is_parallel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `uc check` and `uc run` agree (ROADMAP item 1(d)): over stores,
    /// `swap`s and calls whose targets and arguments are a global, a
    /// register local, a per-processor local, an element, an array read,
    /// a reduction or a builtin of those, under 0–2 `par`s, sema accepts
    /// exactly what the model above calls legal — rejecting with a rank
    /// diagnostic, so nothing is refused that could have run — and what
    /// it accepts never ends in `NotSupported`, nor in the `Internal`
    /// an executor invariant sema failed to establish would raise.
    #[test]
    fn sema_accepts_exactly_the_rank_legal_programs_and_they_run(
        tape in prop::collection::vec(0u32..1 << 16, 24..48),
    ) {
        let case = rank_case(&mut tape.into_iter());
        let depth = case.depth;
        let legal = match &case.stmt {
            RankStmt::Store { target, value, .. } => {
                calls_legal(value, depth) && stores_legal(*target, parallel(value, depth), depth)
            }
            RankStmt::Swap(x, y) => {
                let is_parallel = |t: Target| depth > 0 && matches!(t, Target::PerVp | Target::Element);
                stores_legal(*x, is_parallel(*y), depth) && stores_legal(*y, is_parallel(*x), depth)
            }
        };
        let src = case.source();
        let diags = check_source(&src, &[], &LintConfig::default());
        prop_assert_eq!(!diags.has_errors(), legal, "{}\n{}", src, diags);
        for d in diags.items.iter().filter(|d| d.severity == uc::lang::Severity::Error) {
            let rank = d.message.contains("a parallel value");
            prop_assert!(rank, "{}\n{}", src, d);
        }
        if legal {
            let mut p = Program::compile(&src).unwrap_or_else(|d| panic!("{src}\n{d}"));
            if let Err(e) = p.run() {
                use uc::lang::RuntimeError::{Internal, NotSupported};
                prop_assert!(!matches!(e.error, NotSupported(_) | Internal(_)), "{}\n{}", src, e);
            }
        }
    }
}

/// Run `stmts` as the body of `main` and through the model; both must
/// leave every variable with the same value of the same type (floats by
/// bit pattern). Returns the model, for a caller that expects a value.
fn scalar_model_agrees(stmts: &[SExpr]) -> ScalarModel {
    let mut model = ScalarModel::default();
    for s in stmts {
        model.eval(s);
    }
    let src = scalar_program(stmts);
    let p = run_uc(&src, &[]);
    for (&(name, _), want) in SCALARS.iter().zip(model.vars) {
        // A local is read from the global the program copied it to.
        let name = if "xyzfh".contains(name) { format!("r{name}") } else { name.into() };
        let got = match p.read_scalar(&name).unwrap() {
            uc::cm::Scalar::Float(v) => SVal::F(v),
            v => SVal::I(v.as_int()),
        };
        let same = match (got, want) {
            (SVal::F(a), SVal::F(b)) => a.to_bits() == b.to_bits(),
            _ => got == want,
        };
        assert!(same, "{name}: ran to {got:?}, the model says {want:?}\n{src}");
    }
    assert_eq!(p.read_int_array("m").unwrap(), model.m, "m\n{src}");
    model
}

/// The hazards of reading a local where it is used instead of where it
/// stands, and of computing straight into a typed slot — each with the
/// value C-with-UC's-rules gives it.
#[test]
fn scalar_lowering_hazards_match_the_model() {
    use SExpr::{Assign, Bin, Cond, Float, Int, Two, Var};
    let b = Box::new;
    let (x, y, z, g, k) = (0, 1, 2, 5, 6);
    let set = |v, e| Assign(v, None, Box::new(e));
    let cases: Vec<(Vec<SExpr>, usize, SVal)> = vec![
        // k = x + (x = 3): the old x is read first.
        (vec![set(k, Bin("+", b(Var(x)), b(set(x, Int(3)))))], k, SVal::I(4)),
        (vec![set(k, Bin("+", b(set(x, Int(1))), b(set(x, Int(2)))))], k, SVal::I(3)),
        (vec![set(x, Int(5)), set(k, Two(b(Var(x)), b(set(x, Int(2)))))], k, SVal::I(52)),
        // x += (x = 3): the value first, then the old x.
        (vec![set(x, Int(4)), Assign(x, Some('+'), b(set(x, Int(3))))], x, SVal::I(6)),
        (vec![set(y, set(z, Bin("+", b(Var(x)), b(Int(1)))))], y, SVal::I(2)),
        (
            vec![set(
                x,
                Cond(b(Bin("<", b(Int(3)), b(Var(x)))), b(Bin("-", b(Var(x)), b(Int(1)))), b(set(x, Int(0)))),
            )],
            x,
            SVal::I(0),
        ),
        (vec![set(x, Int(3)), Assign(x, Some('*'), b(Float(1.5)))], x, SVal::I(4)),
        (vec![set(g, Int(2)), set(g, Bin("/", b(Var(g)), b(Int(4))))], g, SVal::F(0.5)),
        (vec![set(x, Int(9)), set(x, Bin("/", b(Var(x)), b(Float(2.0))))], x, SVal::I(4)),
        (vec![Assign(y, Some('-'), b(Var(y)))], y, SVal::I(0)),
        (vec![set(g, Int(1)), Assign(g, Some('+'), b(Var(x)))], g, SVal::F(2.0)),
    ];
    for (stmts, var, want) in &cases {
        let model = scalar_model_agrees(stmts);
        assert_eq!(model.vars[*var], *want, "{}", scalar_program(stmts));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The lowering of front-end scalar code against a model that shares
    /// no code with it (ROADMAP item 1(a), front-end scalar slice):
    /// straight-line assignments — plain, compound, chained, nested
    /// under operators and call arguments — over int and float locals
    /// and globals leave every variable as a left-to-right evaluator of
    /// the generator's own expression type leaves it.
    #[test]
    fn scalar_lowering_matches_a_left_to_right_model(
        tape in prop::collection::vec(0u32..1 << 16, 96..256),
    ) {
        scalar_model_agrees(&scalar_stmts(&mut tape.into_iter()));
    }
}

#[test]
fn cm_counters_reflect_communication_classes() {
    // A NEWS-pattern program must not touch the router when optimization
    // is on; the same program with optimization off must.
    let src = r#"
        #define N 64
        index_set I:i = {0..N-1};
        int a[N], b[N];
        main() {
            par (I) { a[i] = i; b[i] = 0; }
            par (I) st (i < N-1) b[i] = a[i+1];
        }
    "#;
    let mut p = Program::compile(src).unwrap();
    p.run().unwrap();
    assert!(p.machine().counters().news > 0, "shifted access should use NEWS");

    let cfg = uc::lang::ExecConfig { optimize_access: false, ..Default::default() };
    let mut p2 = Program::compile_with(src, cfg).unwrap();
    p2.run().unwrap();
    assert!(p2.machine().counters().router > 0, "unoptimized access should route");
    assert_eq!(
        p.read_int_array("b").unwrap(),
        p2.read_int_array("b").unwrap()
    );
}

/// `(to - from) / k`, class by class; each difference must divide.
fn per(from: &OpCounters, to: &OpCounters, k: u64) -> OpCounters {
    let each = |f: fn(&OpCounters) -> u64| {
        let d = f(to) - f(from);
        assert_eq!(d % k, 0, "{from:?} → {to:?} is not {k} equal steps");
        d / k
    };
    OpCounters {
        alu: each(|c| c.alu),
        context: each(|c| c.context),
        news: each(|c| c.news),
        router: each(|c| c.router),
        scan: each(|c| c.scan),
        front_end: each(|c| c.front_end),
    }
}

/// The figure programs op for op. One more round of fig7's `apsp_n3.uc`
/// issues C\*'s router traffic — Figure 10's two gets and one send — and
/// no context op: the reduction binds `i` and `j` from its coordinates and
/// transfers no mask out of the unmasked `par`. What is left is ALU work:
/// 11 ops against C\*'s 7 (five calls, two of them with an immediate,
/// which the machine charges as a broadcast and the op). Each gather
/// builds its address as C\* does (`i*N + k`, `k*N + j`: a multiply with
/// an immediate and an add). The 4 more are the two gathers' outer
/// coordinates `i` and `j`, which C\* keeps as members, and the identity
/// fill before the send and the copy that stores its result, which C\*'s
/// reduce-assign does without. The send's address `p / N` depends only on
/// the geometry, so only the first round builds it (an `iota` and a `Div`
/// with an immediate: 3 ops), with `k`'s coordinate: 4 ops once, where
/// C\* computes `i*N + j` once before its loop, in 3.
///
/// A k-step of fig6's `apsp_n2.uc` is 2 router and 2 context ops and 9
/// ALU ops, of which 6 build the two addresses `i*N + k` and `j + k*N`;
/// at k = 0 the constant part is 0, so the first address adds nothing
/// and the second is `j`'s field itself: 5 ALU ops. The predicate compares
/// with the local `d[i][j]` in place, and the body stores the
/// `d[i][k] + d[k][j]` its predicate computed.
#[test]
fn figure_programs_issue_cstars_router_ops_per_round() {
    let n3 = include_str!("../crates/bench/programs/apsp_n3.uc");
    let counts = |src, defines: &[(&str, i64)]| run_uc(src, defines).machine().counters();
    let round = per(&counts(n3, &[("LOGN", 3)]), &counts(n3, &[("LOGN", 4)]), 1);
    let only = |alu, router, context| OpCounters { alu, router, context, ..Default::default() };
    assert_eq!(round, only(11, 3, 0));
    let init = include_str!("../crates/bench/programs/apsp_init.uc");
    assert_eq!(per(&counts(init, &[]), &counts(n3, &[("LOGN", 1)]), 1), only(15, 3, 0));
    // C* runs ⌈log₂ N⌉ = 3 rounds at N = 8 after three ALU ops of setup.
    let (.., cstar) = programs::apsp_n3(&oracle::bench_graph(8), 8, PHYS);
    let cstar_round = per(&only(3, 0, 0), &cstar, 3);
    assert_eq!(cstar_round, only(7, 3, 0));
    assert_eq!(round, OpCounters { alu: cstar_round.alu + 4, ..cstar_round });

    let n2 = include_str!("../crates/bench/programs/apsp_n2.uc");
    let steps = only(5 + 7 * 9, 8 * 2, 8 * 2);
    assert_eq!(per(&counts(init, &[]), &counts(n2, &[]), 1), steps);
}

/// A sweep of `a[i] = a[i] + b[p[i]]`, op for op: what PARIS issues for a
/// data-dependent gather. The lent `p[i]` is the address itself; one
/// unsigned compare with an immediate (2 ALU ops: the broadcast and the
/// compare) is the bounds check; the result is filled with INF, then the
/// get runs under the check's mask (1 router op, a context push and
/// pop), so an out-of-range lane never reaches the router. The add and
/// the store's copy make 5 ALU ops.
#[test]
fn a_data_dependent_gather_is_one_compare_and_a_guarded_get() {
    let src = "#define N 64
         index_set I:i = {0..N-1}, T:t = {0..ITERS-1};
         int a[N], b[N], p[N];
         main() {
             par (I) { a[i] = i; b[i] = 3 * i; p[i] = (5 * i + 7) % N; }
             seq (T) par (I) a[i] = a[i] + b[p[i]];
         }";
    let counts = |iters| run_uc(src, &[("ITERS", iters)]).machine().counters();
    let sweep = OpCounters { alu: 5, router: 1, context: 2, ..Default::default() };
    assert_eq!(per(&counts(1), &counts(2), 1), sweep);
}

/// A sweep of fig8's `*par` after the first, op for op: C\*'s 4 NEWS
/// shifts, any-active scan and context push and pop, and C\*'s 11 ALU
/// ops. The shifts fill the border with INF, and the local `a[i][j]` is
/// read in place. The first sweep alone computes the index-only
/// `(i != 0 || j != 0)`, and the body stores the predicate's
/// `min(...) + 1`. Each sweep scans once, so the scans count the sweeps,
/// and a sweep costs what one of `uc_cstar::programs::grid_goal`'s does,
/// cycle for cycle.
#[test]
fn a_grid_sweep_computes_each_value_once() {
    let grid = include_str!("../crates/bench/programs/grid_goal.uc");
    let run = |n: i64| {
        let p = run_uc(grid, &[("N", n)]);
        (p.machine().counters(), p.cycles())
    };
    let ((small, uc8), (large, uc16)) = (run(8), run(16));
    let sweeps = large.scan - small.scan;
    let sweep = OpCounters { alu: 11, news: 4, scan: 1, context: 2, ..Default::default() };
    assert_eq!(per(&small, &large, sweeps), sweep);
    let cstar = |n: usize| {
        let walls = oracle::figure11_walls(n);
        let (_, cycles, sweeps) = programs::grid_goal(n, n, &walls, 1 << 30, PHYS);
        (cycles, sweeps as u64)
    };
    let ((cs8, sweeps8), (cs16, sweeps16)) = (cstar(8), cstar(16));
    assert_eq!((sweeps16 - sweeps8, uc16 - uc8), (sweeps, cs16 - cs8));
}

/// A program has one tally: its cold run, a second run, and that run
/// followed by reading every global back all record the same ops and VP
/// ratios per class. Each figure program initialises its own state in
/// `main`, so only state the executor keeps between runs could differ;
/// `odd_even_sort.uc` joins them for its `*oneof`, whose choice of arm
/// must restart with each run.
#[test]
fn a_program_has_one_tally_cold_warm_and_after_host_reads() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let figures = std::fs::read_dir(root.join("crates/bench/programs")).unwrap();
    let figures = figures.map(|entry| entry.unwrap().path());
    let mut seen = 0;
    for path in figures.chain([root.join("examples/uc/odd_even_sort.uc")]) {
        if path.extension().is_none_or(|e| e != "uc") {
            continue;
        }
        let mut p = run_uc(&std::fs::read_to_string(&path).unwrap(), &[]);
        let cold = *p.machine().tally();
        p.reset_clock();
        p.run().unwrap();
        assert_eq!(*p.machine().tally(), cold, "{}: warm run", path.display());
        for name in p.scalar_names() {
            p.read_scalar(&name).unwrap();
        }
        for name in p.array_names() {
            assert!(p.read_int_array(&name).is_ok() || p.read_float_array(&name).is_ok());
        }
        assert_eq!(*p.machine().tally(), cold, "{}: after host reads", path.display());
        seen += 1;
    }
    assert!(seen >= 8, "only {seen} programs under crates/bench/programs");
}

#[test]
fn write_then_run_external_inputs() {
    // The host API can inject inputs before running (used by benches).
    let src = r#"
        #define N 8
        index_set I:i = {0..N-1};
        int a[N], s;
        main() { s = $+(I; a[i]); }
    "#;
    let mut p = Program::compile(src).unwrap();
    p.write_int_array("a", &[5, 0, 0, 0, 0, 0, 0, 37]).unwrap();
    p.run().unwrap();
    assert_eq!(p.read_int("s"), Some(42));
}

/// `examples/uc/shortest_path.uc` builds a directed ring (edge i -> i+1
/// mod N weighs i+1), so the distance from i to j is the sum of the edge
/// weights walking forward. The example once `#define`d the `INF`
/// keyword, which left the define dead and overflowed `INF + INF`.
#[test]
fn shortest_path_example_computes_ring_distances() {
    let mut p = Program::compile(include_str!("../examples/uc/shortest_path.uc")).unwrap();
    p.run().unwrap();
    let n = p.define("N").unwrap() as usize;
    let expected: Vec<i64> = (0..n * n)
        .map(|c| {
            let (i, j) = (c / n, c % n);
            (0..(j + n - i) % n).map(|t| ((i + t) % n + 1) as i64).sum()
        })
        .collect();
    assert_eq!(p.read_int_array("w").unwrap(), expected);
}

#[test]
fn committed_bench_baseline_parses_as_a_figure() {
    // `BENCH_sim_hotpaths.json` is the committed hot-path baseline; it
    // must stay readable as a figure, through the figures' own reader.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_sim_hotpaths.json");
    let text = std::fs::read_to_string(path).unwrap();
    let fig = uc_bench::from_json(&text).unwrap();
    assert_eq!(fig.id, "sim_hotpaths");
    // Every bench is recorded twice in one session: at the parent commit,
    // then at the change.
    assert!(fig.series.len() >= 4);
    for pair in fig.series.chunks(2) {
        let bench = pair[0].label.strip_suffix(" @ parent").expect("parent series first");
        assert_eq!(pair[1].label.strip_suffix(" @ change"), Some(bench));
    }
    for s in &fig.series {
        // The router, ALU and temporary groups add a 256-VP point to
        // 1K/16K/64K.
        let groups = ["router", "alu_hotpath", "temp_hotpath"];
        let small = groups.iter().any(|g| s.label.starts_with(g));
        assert_eq!(s.points.len(), if small { 4 } else { 3 }, "{} baseline points", s.label);
        assert!(s.points.iter().all(|&(_, ns)| ns > 0));
    }
    assert!(fig.series.iter().any(|s| s.label.starts_with("temp_hotpath")), "temporaries recorded");
}
