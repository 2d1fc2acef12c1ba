//! Cross-crate integration: the UC executor, the C* baseline DSL and the
//! sequential baselines must agree on every shared workload — the
//! precondition for the paper's figures to be meaningful comparisons.

use std::collections::HashMap;
use std::fmt::Write;

use proptest::prelude::*;
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
        let (cstar3, _) = programs::apsp_n3(&graph, n, PHYS);
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
        let mut p = run_uc(&src, &[]);
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
        let mut p = run_uc(src, &[("N", n as i64)]);
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
    // The same program under all four on/off combinations of the §4
    // optimizations must produce identical results (only cycles differ).
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
    let mut results = Vec::new();
    for optimize_access in [true, false] {
        for constfold in [true, false] {
            let cfg = uc::lang::ExecConfig {
                optimize_access,
                constfold,
                ..Default::default()
            };
            let mut p = Program::compile_with(src, cfg).unwrap();
            p.run().unwrap();
            results.push((
                p.read_int_array("b").unwrap(),
                p.read_int_array("c").unwrap(),
                p.read_int("s").unwrap(),
            ));
        }
    }
    for r in &results[1..] {
        assert_eq!(*r, results[0]);
    }
}

/// Source text of a well-typed front-end expression drawn from `tape`
/// (exhausted tape reads as zeros), and whether its value is a float.
/// Operands: the literals `0` and `1` (the folder's identity triggers) in
/// every position, int locals `n` and `z`, float locals `f` and `h`,
/// `rand()` and the counting function `bump()`.
fn effectful_expr(tape: &mut dyn Iterator<Item = u32>, depth: u32) -> (String, bool) {
    const INTS: &[&str] = &["0", "1", "0", "1", "2", "7", "(0 - 1)", "n", "z", "rand()", "bump()"];
    const FLOATS: &[&str] = &["f", "h", "2.5", "0.0"];
    const INT_OPS: &[&str] = &["%", "&", "|", "^", "<<"];
    const ANY_OPS: &[&str] = &["+", "-", "*", "/", "*", "<", "==", "&&", "||"];
    let mut next = |n: usize| tape.next().unwrap_or(0) as usize % n;
    match if depth == 0 { 0 } else { next(8) } {
        0 | 1 => {
            let k = next(INTS.len() + FLOATS.len());
            match INTS.get(k) {
                Some(leaf) => (leaf.to_string(), false),
                None => (FLOATS[k - INTS.len()].to_string(), true),
            }
        }
        2 => {
            let not = next(2) == 1;
            let (x, float) = effectful_expr(tape, depth - 1);
            if not { (format!("(!{x})"), false) } else { (format!("(-{x})"), float) }
        }
        3..=5 => {
            let k = next(INT_OPS.len() + ANY_OPS.len());
            let (l, lf) = effectful_expr(tape, depth - 1);
            let (r, rf) = effectful_expr(tape, depth - 1);
            match INT_OPS.get(k) {
                Some(op) if !lf && !rf => (format!("({l} {op} {r})"), false),
                Some(_) => (format!("({l} * {r})"), true),
                None => {
                    let op = ANY_OPS[k - INT_OPS.len()];
                    (format!("({l} {op} {r})"), (lf || rf) && "+-*/".contains(op))
                }
            }
        }
        6 => {
            let (c, _) = effectful_expr(tape, depth - 1);
            let (t, tf) = effectful_expr(tape, depth - 1);
            let (e, ef) = effectful_expr(tape, depth - 1);
            (format!("({c} ? {t} : {e})"), tf || ef)
        }
        _ => {
            let f = ["abs", "min", "max"][next(3)];
            let (a, af) = effectful_expr(tape, depth - 1);
            if f == "abs" {
                return (format!("abs({a})"), af);
            }
            let (b, bf) = effectful_expr(tape, depth - 1);
            (format!("{f}({a}, {b})"), af || bf)
        }
    }
}

/// Everything a run of the generated program lets one observe: how it
/// ended, the stored values (the float by bit pattern), how often `bump`
/// ran and where the `rand()` stream stands afterwards.
fn observe_folding(src: &str, constfold: bool) -> (Option<String>, Vec<u64>) {
    let cfg = uc::lang::ExecConfig { constfold, ..Default::default() };
    let mut p = Program::compile_with(src, cfg).unwrap_or_else(|d| panic!("{src}\n{d}"));
    let error = p.run().err().map(|e| format!("{:?}", e.error));
    let int = |name: &str| p.read_int(name).unwrap() as u64;
    let rf = p.read_scalar("rf").unwrap().as_float().to_bits();
    (error, vec![int("ri"), rf, int("calls"), int("next")])
}

/// One statement of a generated scope nest: an index-set definition
/// under a name from [`POOL`] (so shadowing is frequent), a probe that
/// sums the elements of whatever set a name denotes there, or a block.
enum Nest {
    /// `init`: 0/1 a range of 2/3 elements, 2 a descending list, 3.. an
    /// alias of `POOL[init - 3]`.
    Def { name: usize, init: usize },
    /// `form`: 0 a front-end reduction, 1 a `par`, 2 a front-end `seq`.
    Probe { name: usize, form: usize },
    Block(Vec<Nest>),
}

const POOL: [&str; 3] = ["A", "B", "C"];

fn nest(tape: &mut dyn Iterator<Item = u32>, depth: u32) -> Vec<Nest> {
    let mut items = Vec::new();
    for _ in 0..2 + tape.next().unwrap_or(0) % 4 {
        let mut next = |n: u32| (tape.next().unwrap_or(0) % n) as usize;
        items.push(match next(if depth < 3 { 7 } else { 5 }) {
            0 | 1 => Nest::Def { name: next(3), init: next(6) },
            2..=4 => Nest::Probe { name: next(3), form: next(3) },
            _ => Nest::Block(nest(tape, depth + 1)),
        });
    }
    items
}

/// Lexical scoping of index sets in plain Rust — a name denotes the
/// innermost definition in scope — writing the UC source as it goes.
/// Definition `d` draws its elements from `10d..`, so the sum a probe
/// stores identifies the definition it ranged over (aliases share their
/// source's elements but not its element name `e<d>`).
#[derive(Default)]
struct ScopeModel {
    src: String,
    /// Innermost last: set name → definition.
    scopes: Vec<HashMap<usize, usize>>,
    /// Per definition: elements, source line, whether anything reaches it.
    defs: Vec<(Vec<i64>, u32, bool)>,
    /// Per probe: the sum it must store in `hits`.
    hits: Vec<i64>,
}

impl ScopeModel {
    fn resolve(&mut self, name: usize) -> Option<usize> {
        let d = self.scopes.iter().rev().find_map(|s| s.get(&name).copied())?;
        self.defs[d].2 = true;
        Some(d)
    }

    fn walk(&mut self, items: &[Nest]) {
        for item in items {
            match *item {
                Nest::Def { name, init } => {
                    let d = self.defs.len();
                    let lo = 10 * d as i64;
                    let (text, elements) = match init {
                        0 | 1 => {
                            let hi = lo + init as i64 + 1;
                            (format!("{{{lo}..{hi}}}"), (lo..=hi).collect())
                        }
                        2 => (format!("{{{}, {lo}}}", lo + 2), vec![lo + 2, lo]),
                        alias => match self.resolve(alias - 3) {
                            Some(src) => (POOL[alias - 3].to_string(), self.defs[src].0.clone()),
                            None => continue,
                        },
                    };
                    let line = self.src.matches('\n').count() as u32 + 1;
                    writeln!(self.src, "index_set {}:e{d} = {text};", POOL[name]).unwrap();
                    self.defs.push((elements, line, false));
                    self.scopes.last_mut().unwrap().insert(name, d);
                }
                Nest::Probe { name, form } => {
                    let Some(d) = self.resolve(name) else { continue };
                    let (set, k) = (POOL[name], self.hits.len());
                    self.hits.push(self.defs[d].0.iter().sum());
                    let probe = match form {
                        0 => format!("hits[{k}] = $+({set}; e{d});"),
                        1 => format!("par ({set}) hits[{k}] = $+({set}; e{d});"),
                        _ => format!("seq ({set}) hits[{k}] = hits[{k}] + e{d};"),
                    };
                    writeln!(self.src, "{probe}").unwrap();
                }
                Nest::Block(ref inner) => {
                    self.src.push_str("{\n");
                    self.scopes.push(HashMap::new());
                    self.walk(inner);
                    self.scopes.pop();
                    self.src.push_str("}\n");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// AST constant folding is invisible: with it on and off a program
    /// stores the same values (same types — floats compare by bits),
    /// calls `bump` as often, leaves the `rand()` stream at the same
    /// draw, and traps the same way if it traps.
    #[test]
    fn constfold_preserves_values_types_and_effects(
        mut tape in prop::collection::vec(0u32..1 << 16, 8..64),
    ) {
        tape[0] = tape[0] % 6 + 2; // never a bare operand at the root
        let mut tape = tape.into_iter();
        let (e1, _) = effectful_expr(&mut tape, 4);
        let (e2, _) = effectful_expr(&mut tape, 3);
        let src = format!(
            "int calls, ri, next;\nfloat rf;\n\
             int bump() {{ calls = calls + 1; return calls + 6; }}\n\
             main() {{\n    int n = 3; int z = 0; float f = -2.5; float h = 0.5;\n    \
             ri = {e1};\n    rf = {e2};\n    next = rand();\n}}\n"
        );
        prop_assert_eq!(observe_folding(&src, true), observe_folding(&src, false), "{}", src);
    }

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
    // must stay readable by the same JSON module the benches emit with.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_sim_hotpaths.json");
    let text = std::fs::read_to_string(path).unwrap();
    let fig = uc_bench::json::from_str(&text).unwrap();
    assert_eq!(fig.id, "sim_hotpaths");
    // Every bench is recorded twice in one session: at the parent commit,
    // then at the change.
    assert!(fig.series.len() >= 4);
    for pair in fig.series.chunks(2) {
        let bench = pair[0].label.strip_suffix(" @ parent").expect("parent series first");
        assert_eq!(pair[1].label.strip_suffix(" @ change"), Some(bench));
    }
    for s in &fig.series {
        assert_eq!(s.points.len(), 3, "{} baseline points", s.label);
        assert!(s.points.iter().all(|&(_, ns)| ns > 0));
    }
}
