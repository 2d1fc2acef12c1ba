//! # uc-bench — the paper's evaluation, regenerated
//!
//! One entry point per figure of §5 of the paper, plus ablations for the
//! §4 optimizations. Each returns a [`Figure`]: labelled series of
//! `(problem size, simulated cycles)` points that can be printed as a
//! table (`render`) or dumped as JSON (`to_json`).
//!
//! Binaries: `fig6`, `fig7`, `fig8`, `map_ablation`, `procopt_ablation`.
//!
//! Methodology (matches the paper):
//! * UC and C\* run on the **same** simulated 16K-processor CM and the
//!   same deterministic input graphs;
//! * cycles count the computation proper — initialisation is measured
//!   separately and subtracted for UC (the C\* programs reset the clock
//!   after initialisation);
//! * the sequential baselines of Figure 8 charge abstract ops in the same
//!   cycle unit (see `uc-seqc`).

use uc_core::{ExecConfig, Program};
use uc_seqc::{grid, oracle, SeqMachine};

pub mod json;

/// One labelled series of (size, cycles) points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub label: String,
    pub points: Vec<(usize, u64)>,
}

/// One reproduced figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    pub id: String,
    pub title: String,
    /// What the x axis means ("N nodes", "rows", ...).
    pub x_label: String,
    pub series: Vec<Series>,
}

/// Physical processors of the simulated machine (the paper's 16K CM).
pub const PHYS_PROCS: usize = 16 * 1024;

// ---- UC benchmark programs (verbatim §3 programs with deterministic
// ---- initialisation so UC and C* see identical graphs) -----------------

/// Figure 4's program: APSP, O(N²) parallelism (seq over k).
pub const UC_APSP_N2: &str = r#"
    #define N 8
    index_set I:i = {0..N-1}, J:j = I, K:k = I;
    int d[N][N];
    main() {
        par (I, J)
            st (i == j) d[i][j] = 0;
            others d[i][j] = (i * 7 + j * 13) % N + 1;
        seq (K)
            par (I, J)
                st (d[i][k] + d[k][j] < d[i][j])
                    d[i][j] = d[i][k] + d[k][j];
    }
"#;

/// The initialisation-only prefix of [`UC_APSP_N2`], used to subtract
/// setup cycles from the measurement.
pub const UC_APSP_INIT: &str = r#"
    #define N 8
    index_set I:i = {0..N-1}, J:j = I;
    int d[N][N];
    main() {
        par (I, J)
            st (i == j) d[i][j] = 0;
            others d[i][j] = (i * 7 + j * 13) % N + 1;
    }
"#;

/// Figure 5's program: APSP, O(N³) parallelism (log N min-reduction
/// rounds).
pub const UC_APSP_N3: &str = r#"
    #define N 8
    #define LOGN 3
    index_set I:i = {0..N-1}, J:j = I, K:k = I;
    index_set L:l = {0..LOGN-1};
    int d[N][N];
    main() {
        par (I, J)
            st (i == j) d[i][j] = 0;
            others d[i][j] = (i * 7 + j * 13) % N + 1;
        seq (L)
            par (I, J)
                d[i][j] = $<(K; d[i][k] + d[k][j]);
    }
"#;

/// The grid-goal program with the Figure 11 obstacle (§5's third
/// benchmark): iterate neighbour relaxation to the fixed point with *par.
/// `WALLV` marks obstacle cells; `DMAX` is the unreached sentinel.
pub const UC_GRID_GOAL: &str = r#"
    #define N 16
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

/// Initialisation-only prefix of [`UC_GRID_GOAL`].
pub const UC_GRID_INIT: &str = r#"
    #define N 16
    #define DMAX 1073741824
    #define WALLV 2147483648
    index_set I:i = {0..N-1}, J:j = I;
    int a[N][N];
    main() {
        par (I, J)
            st (i + j == N - 1 && ABS(i - N/2) <= N/4) a[i][j] = WALLV;
            others a[i][j] = DMAX;
        par (I, J) st (i == 0 && j == 0) a[i][j] = 0;
    }
"#;

fn config() -> ExecConfig {
    ExecConfig { phys_procs: PHYS_PROCS, ..ExecConfig::default() }
}

/// Run a UC program with `N` (and optional extra defines), returning
/// total cycles.
pub fn run_uc_cycles(src: &str, defines: &[(&str, i64)]) -> u64 {
    let mut p = Program::compile_with_defines(src, config(), defines)
        .unwrap_or_else(|d| panic!("benchmark program failed to compile:\n{d}"));
    p.run().unwrap_or_else(|e| panic!("benchmark program failed: {e}"));
    p.cycles()
}

/// UC cycles net of initialisation.
pub fn uc_net_cycles(full: &str, init_only: &str, defines: &[(&str, i64)]) -> u64 {
    let total = run_uc_cycles(full, defines);
    let setup = run_uc_cycles(init_only, defines);
    total.saturating_sub(setup)
}

fn log2_ceil(n: usize) -> i64 {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as i64
    }
}

/// Figure 6: shortest path with O(N²) parallelism, UC vs C\*.
pub fn fig6(ns: &[usize]) -> Figure {
    let mut uc = Series { label: "UC".into(), points: Vec::new() };
    let mut cstar = Series { label: "C*".into(), points: Vec::new() };
    for &n in ns {
        let defines = [("N", n as i64)];
        uc.points.push((n, uc_net_cycles(UC_APSP_N2, UC_APSP_INIT, &defines)));
        let graph = oracle::bench_graph(n);
        let (result, cycles) = uc_cstar::programs::apsp_n2(&graph, n, PHYS_PROCS);
        debug_assert_eq!(result, oracle::floyd_warshall(graph, n));
        cstar.points.push((n, cycles));
    }
    Figure {
        id: "fig6".into(),
        title: "Shortest Path O(N^2) Parallelism".into(),
        x_label: "N (nodes)".into(),
        series: vec![uc, cstar],
    }
}

/// Figure 7: shortest path with O(N³) parallelism, UC vs C\*.
pub fn fig7(ns: &[usize]) -> Figure {
    let mut uc = Series { label: "UC".into(), points: Vec::new() };
    let mut cstar = Series { label: "C*".into(), points: Vec::new() };
    for &n in ns {
        let defines = [("N", n as i64), ("LOGN", log2_ceil(n).max(1))];
        uc.points.push((n, uc_net_cycles(UC_APSP_N3, UC_APSP_INIT, &defines)));
        let graph = oracle::bench_graph(n);
        let (result, cycles) = uc_cstar::programs::apsp_n3(&graph, n, PHYS_PROCS);
        debug_assert_eq!(result, oracle::floyd_warshall(graph, n));
        cstar.points.push((n, cycles));
    }
    Figure {
        id: "fig7".into(),
        title: "Shortest Path O(N^3) Parallelism".into(),
        x_label: "N (nodes)".into(),
        series: vec![uc, cstar],
    }
}

/// Figure 8: grid shortest path with the Figure 11 obstacle — sequential
/// C, optimized sequential C, and UC on the CM.
pub fn fig8(sizes: &[usize]) -> Figure {
    let mut seq = Series { label: "C (sequential)".into(), points: Vec::new() };
    let mut opt = Series { label: "C -O (sequential)".into(), points: Vec::new() };
    let mut uc = Series { label: "UC (16K CM)".into(), points: Vec::new() };
    for &n in sizes {
        let walls = oracle::figure11_walls(n);
        let mut m = SeqMachine::new();
        let run = grid::grid_goal(&mut m, n, n, &walls, 1 << 30);
        seq.points.push((n, run.cycles));
        let mut m = SeqMachine::optimized();
        let run = grid::grid_goal(&mut m, n, n, &walls, 1 << 30);
        opt.points.push((n, run.cycles));
        let defines = [("N", n as i64)];
        uc.points.push((n, uc_net_cycles(UC_GRID_GOAL, UC_GRID_INIT, &defines)));
    }
    Figure {
        id: "fig8".into(),
        title: "Shortest Path with obstacle".into(),
        x_label: "rows".into(),
        series: vec![seq, opt, uc],
    }
}

// ---- §4 ablations -------------------------------------------------------

/// The shifted-access kernel for the mapping ablation: `ITERS` sweeps of
/// `a[i] = a[i] + b[i+1]`.
pub const UC_SHIFT_KERNEL: &str = r#"
    #define N 4096
    #define ITERS 32
    index_set I:i = {0..N-1}, T:t = {0..ITERS-1};
    int a[N], b[N];
    main() {
        par (I) { a[i] = i; b[i] = i * 2; }
        seq (T)
            par (I) st (i < N - 1)
                a[i] = a[i] + b[i+1];
    }
"#;

/// The same kernel with the paper's permute mapping applied.
pub const UC_SHIFT_KERNEL_MAPPED: &str = r#"
    #define N 4096
    #define ITERS 32
    index_set I:i = {0..N-1}, T:t = {0..ITERS-1};
    int a[N], b[N];
    map (I) { permute (I) b[i+1] :- a[i]; }
    main() {
        par (I) { a[i] = i; b[i] = i * 2; }
        seq (T)
            par (I) st (i < N - 1)
                a[i] = a[i] + b[i+1];
    }
"#;

/// Mapping ablation (§4's communication-cost optimization, the "factor
/// of 10" claim): the shifted kernel under three regimes — no access
/// optimization (every access routed), default mapping (NEWS), and the
/// permute mapping (local).
pub fn map_ablation(ns: &[usize], iters: i64) -> Figure {
    let mut router = Series { label: "router (no comm. optimization)".into(), points: Vec::new() };
    let mut news = Series { label: "default mapping (NEWS)".into(), points: Vec::new() };
    let mut local = Series { label: "permute mapping (local)".into(), points: Vec::new() };
    for &n in ns {
        let defines = [("N", n as i64), ("ITERS", iters)];
        let mut cfg = config();
        cfg.optimize_access = false;
        let mut p = Program::compile_with_defines(UC_SHIFT_KERNEL, cfg, &defines).unwrap();
        p.run().unwrap();
        router.points.push((n, p.cycles()));

        news.points.push((n, run_uc_cycles(UC_SHIFT_KERNEL, &defines)));
        local.points.push((n, run_uc_cycles(UC_SHIFT_KERNEL_MAPPED, &defines)));
    }
    Figure {
        id: "map10x".into(),
        title: "Mapping ablation: a[i] = a[i] + b[i+1]".into(),
        x_label: "N (elements)".into(),
        series: vec![router, news, local],
    }
}

/// §4's histogram program for the processor-optimization ablation.
pub const UC_HISTOGRAM: &str = r#"
    #define N 1024
    index_set I:i = {0..N-1}, J:j = {0..9};
    int samples[N];
    int count[10];
    main() {
        par (I) samples[i] = (i * i) % 10;
        par (J)
            count[j] = $+(I st (samples[i] == j) 1);
    }
"#;

/// Processor-optimization ablation (§4's 10·N → N example).
pub fn procopt_ablation(ns: &[usize]) -> Figure {
    let mut on = Series { label: "processor optimization on (N VPs)".into(), points: Vec::new() };
    let mut off =
        Series { label: "processor optimization off (10*N VPs)".into(), points: Vec::new() };
    for &n in ns {
        let defines = [("N", n as i64)];
        on.points.push((n, run_uc_cycles(UC_HISTOGRAM, &defines)));
        let mut cfg = config();
        cfg.procopt = false;
        let mut p = Program::compile_with_defines(UC_HISTOGRAM, cfg, &defines).unwrap();
        p.run().unwrap();
        off.points.push((n, p.cycles()));
    }
    Figure {
        id: "procopt".into(),
        title: "Processor optimization: digit histogram".into(),
        x_label: "N (samples)".into(),
        series: vec![on, off],
    }
}

// ---- output helpers ------------------------------------------------------

/// Render a figure as an aligned text table.
pub fn render(fig: &Figure) -> String {
    let mut out = format!("# {} ({})\n", fig.title, fig.id);
    out.push_str(&format!("{:>10}", fig.x_label));
    for s in &fig.series {
        out.push_str(&format!("  {:>24}", s.label));
    }
    out.push('\n');
    let npoints = fig.series.first().map(|s| s.points.len()).unwrap_or(0);
    for k in 0..npoints {
        out.push_str(&format!("{:>10}", fig.series[0].points[k].0));
        for s in &fig.series {
            out.push_str(&format!("  {:>24}", s.points[k].1));
        }
        out.push('\n');
    }
    out
}

/// Serialise a figure to pretty JSON.
pub fn to_json(fig: &Figure) -> String {
    json::to_string_pretty(fig)
}

/// Parse a figure back from the JSON that [`to_json`] emits.
pub fn from_json(s: &str) -> Result<Figure, String> {
    json::from_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_uc_matches_cstar_shape() {
        let fig = fig6(&[4, 8]);
        assert_eq!(fig.series.len(), 2);
        let uc = &fig.series[0].points;
        let cs = &fig.series[1].points;
        // Both grow with N.
        assert!(uc[1].1 > uc[0].1);
        assert!(cs[1].1 > cs[0].1);
        // UC within a small constant of C* (the paper: "performance of UC
        // programs matches that of C*").
        for (u, c) in uc.iter().zip(cs) {
            let ratio = u.1 as f64 / c.1 as f64;
            assert!((0.3..6.0).contains(&ratio), "UC/C* ratio {ratio} out of band");
        }
    }

    #[test]
    fn fig8_crossover() {
        let fig = fig8(&[8, 64]);
        let seq = &fig.series[0].points;
        let uc = &fig.series[2].points;
        // Sequential beats the CM at tiny sizes; the CM wins at 64.
        assert!(uc[1].1 < seq[1].1, "CM must win at 64 rows: {uc:?} vs {seq:?}");
        // Sequential grows much faster than the CM curve.
        let seq_growth = seq[1].1 as f64 / seq[0].1 as f64;
        let uc_growth = uc[1].1 as f64 / uc[0].1 as f64;
        assert!(seq_growth > 3.0 * uc_growth, "growth {seq_growth} vs {uc_growth}");
    }

    #[test]
    fn mapping_hierarchy() {
        // Long enough that the per-sweep kernel dominates the one-time
        // (router) initialisation of the re-mapped array.
        let fig = map_ablation(&[1024], 64);
        let router = fig.series[0].points[0].1;
        let news = fig.series[1].points[0].1;
        let local = fig.series[2].points[0].1;
        assert!(local < news, "permute-local must beat NEWS: {local} vs {news}");
        assert!(news < router, "NEWS must beat the router: {news} vs {router}");
        assert!(
            router as f64 / local as f64 >= 6.0,
            "mapping should win ~10x over unoptimized access: {router} vs {local}"
        );
    }

    #[test]
    fn procopt_wins() {
        let fig = procopt_ablation(&[512]);
        let on = fig.series[0].points[0].1;
        let off = fig.series[1].points[0].1;
        assert!(on < off, "procopt must reduce cycles: {on} vs {off}");
    }

    #[test]
    fn render_and_json() {
        let fig = Figure {
            id: "t".into(),
            title: "T".into(),
            x_label: "n".into(),
            series: vec![Series { label: "a".into(), points: vec![(1, 10), (2, 20)] }],
        };
        let text = render(&fig);
        assert!(text.contains("T (t)"));
        assert!(text.contains("10"));
        let json = to_json(&fig);
        let back: Figure = from_json(&json).unwrap();
        assert_eq!(back, fig);
    }
}
