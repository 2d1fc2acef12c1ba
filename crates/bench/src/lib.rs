//! # uc-bench — the paper's evaluation, regenerated
//!
//! One entry point per figure of §5 of the paper, plus ablations for the
//! §4 optimizations. Each returns a [`Figure`]: labelled series of
//! `(problem size, simulated cycles)` points that can be printed as a
//! table (`render`) or dumped as JSON (`to_json`, read back by
//! `from_json`). Both go through the workspace's one JSON module,
//! `uc_core::json`, which `uc check --format json` also writes with.
//!
//! Binaries: `fig6`, `fig7`, `fig8`, `map_ablation`, `procopt_ablation`.
//! Their `--json` output is committed under `tests/golden/` and checked
//! byte for byte by `tests/figures.rs`; the UC programs they run live in
//! `programs/`.
//!
//! Methodology (matches the paper):
//! * UC and C\* run on the **same** simulated 16K-processor CM and the
//!   same deterministic input graphs;
//! * cycles count the computation proper — initialisation is measured
//!   separately and subtracted for UC (the C\* programs reset the clock
//!   after initialisation);
//! * the sequential baselines of Figure 8 charge abstract ops in the same
//!   cycle unit (see `uc-seqc`).

use std::io::{self, Write};
use std::process::ExitCode;

use uc_core::json::{self, Value};
use uc_core::{ExecConfig, Program};
use uc_seqc::{grid, oracle, SeqMachine};

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
pub const UC_APSP_N2: &str = include_str!("../programs/apsp_n2.uc");

/// The initialisation-only prefix of [`UC_APSP_N2`], used to subtract
/// setup cycles from the measurement.
pub const UC_APSP_INIT: &str = include_str!("../programs/apsp_init.uc");

/// Figure 5's program: APSP, O(N³) parallelism (log N min-reduction
/// rounds).
pub const UC_APSP_N3: &str = include_str!("../programs/apsp_n3.uc");

/// The grid-goal program with the Figure 11 obstacle (§5's third
/// benchmark): iterate neighbour relaxation to the fixed point with *par.
/// `WALLV` marks obstacle cells; `DMAX` is the unreached sentinel.
pub const UC_GRID_GOAL: &str = include_str!("../programs/grid_goal.uc");

/// Initialisation-only prefix of [`UC_GRID_GOAL`].
pub const UC_GRID_INIT: &str = include_str!("../programs/grid_init.uc");

fn config() -> ExecConfig {
    ExecConfig { phys_procs: PHYS_PROCS, ..ExecConfig::default() }
}

/// Run a UC program with `N` (and optional extra defines).
fn run_uc(src: &str, defines: &[(&str, i64)]) -> Program {
    let mut p = Program::compile_with_defines(src, config(), defines)
        .unwrap_or_else(|d| panic!("benchmark program failed to compile:\n{d}"));
    p.run().unwrap_or_else(|e| panic!("benchmark program failed: {e}"));
    p
}

/// Run a UC program with `N` (and optional extra defines), returning
/// total cycles.
pub fn run_uc_cycles(src: &str, defines: &[(&str, i64)]) -> u64 {
    run_uc(src, defines).cycles()
}

/// UC cycles net of initialisation. The init-only program must do no
/// more of any op class than the full one — fewer ops and no larger VP
/// ratios — so the difference is the computation's own cost and can never
/// be a negative number clamped to zero.
pub fn uc_net_cycles(full: &str, init_only: &str, defines: &[(&str, i64)]) -> u64 {
    let (full, setup) = (run_uc(full, defines), run_uc(init_only, defines));
    let (t, s) = (full.machine().tally(), setup.machine().tally());
    let mut pairs = s.ops.iter().zip(&t.ops).chain(s.ratio.iter().zip(&t.ratio));
    assert!(
        pairs.all(|(s, t)| s <= t),
        "initialisation tally {s:?} exceeds the full program's {t:?}"
    );
    full.cycles() - setup.cycles()
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
        let (result, cycles, _) = uc_cstar::programs::apsp_n3(&graph, n, PHYS_PROCS);
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
pub const UC_SHIFT_KERNEL: &str = include_str!("../programs/shift_kernel.uc");

/// The same kernel with the paper's permute mapping applied.
pub const UC_SHIFT_KERNEL_MAPPED: &str = include_str!("../programs/shift_kernel_mapped.uc");

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
pub const UC_HISTOGRAM: &str = include_str!("../programs/histogram.uc");

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

/// A figure binary's whole output: the table, then `notes` after a blank
/// line, then — when the command line has `--json` — the figure as JSON.
/// A reader that closes the pipe early (`map_ablation | head -1`) ends
/// the binary with success, not a panic.
pub fn print_figure(fig: &Figure, notes: &[String]) -> ExitCode {
    let mut out = render(fig);
    if !notes.is_empty() {
        out.push('\n');
    }
    for note in notes {
        out.push_str(note);
        out.push('\n');
    }
    if std::env::args().any(|a| a == "--json") {
        out.push_str(&to_json(fig));
        out.push('\n');
    }
    let mut stdout = io::stdout().lock();
    match stdout.write_all(out.as_bytes()).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("error: cannot write the figure: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

/// Serialise a figure to pretty JSON.
pub fn to_json(fig: &Figure) -> String {
    let text = |s: &str| Value::Str(s.to_string());
    let point = |&(x, y): &(usize, u64)| Value::Arr(vec![Value::Num(x as u64), Value::Num(y)]);
    let series = fig.series.iter().map(|s| {
        Value::Obj(vec![
            ("label".into(), text(&s.label)),
            ("points".into(), Value::Arr(s.points.iter().map(point).collect())),
        ])
    });
    json::to_string_pretty(&Value::Obj(vec![
        ("id".into(), text(&fig.id)),
        ("title".into(), text(&fig.title)),
        ("x_label".into(), text(&fig.x_label)),
        ("series".into(), Value::Arr(series.collect())),
    ]))
}

/// Parse a figure back from the JSON that [`to_json`] emits (in any
/// whitespace layout).
pub fn from_json(s: &str) -> Result<Figure, String> {
    let root = json::parse(s)?;
    let series = field(&root, "series", Value::as_array)?.iter().map(|s| {
        let points = field(s, "points", Value::as_array)?.iter().map(|p| {
            let xy = match p.as_array() {
                Some([x, y]) => x.as_u64().zip(y.as_u64()),
                _ => None,
            };
            xy.map(|(x, y)| (x as usize, y))
                .ok_or_else(|| format!("expected an [x, y] point, got {p:?}"))
        });
        Ok(Series {
            label: field(s, "label", Value::as_str)?.to_string(),
            points: points.collect::<Result<_, String>>()?,
        })
    });
    Ok(Figure {
        id: field(&root, "id", Value::as_str)?.to_string(),
        title: field(&root, "title", Value::as_str)?.to_string(),
        x_label: field(&root, "x_label", Value::as_str)?.to_string(),
        series: series.collect::<Result<_, String>>()?,
    })
}

/// `v[key]`, read by `read`, or an error naming the key.
fn field<'v, T>(
    v: &'v Value,
    key: &str,
    read: impl FnOnce(&'v Value) -> Option<T>,
) -> Result<T, String> {
    v.get(key).and_then(read).ok_or_else(|| format!("missing or mistyped field `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each claim of PAPER.md's table, asserted on the numbers it quotes:
    // the committed output of the binary, which `tests/figures.rs` keeps
    // equal to what the binary prints today.

    /// The figure a binary's committed `--json` output ends with.
    fn golden(output: &str) -> Figure {
        let json = &output[output.find("\n{").expect("a --json block") + 1..];
        from_json(json).unwrap()
    }

    /// `(x, series[num] / series[den])` at every point.
    fn ratios(fig: &Figure, num: usize, den: usize) -> Vec<(usize, f64)> {
        let (num, den) = (&fig.series[num].points, &fig.series[den].points);
        num.iter().zip(den).map(|(&(x, a), &(_, b))| (x, a as f64 / b as f64)).collect()
    }

    #[test]
    fn fig6_uc_matches_cstar_shape() {
        let fig = golden(include_str!("../tests/golden/fig6.txt"));
        for (n, ratio) in ratios(&fig, 0, 1) {
            assert!(ratio < 1.1, "UC/C* = {ratio} at N = {n}");
        }
    }

    /// The CM overtakes sequential C between 8 and 16 rows, and `C -O`
    /// between 16 and 24, and stays ahead of both.
    #[test]
    fn fig8_crossover() {
        let fig = golden(include_str!("../tests/golden/fig8.txt"));
        for ((rows, over_c), (_, over_opt)) in ratios(&fig, 2, 0).into_iter().zip(ratios(&fig, 2, 1))
        {
            assert_eq!(over_c < 1.0, rows >= 16, "UC/C = {over_c} at {rows} rows");
            assert_eq!(over_opt < 1.0, rows >= 24, "UC/C -O = {over_opt} at {rows} rows");
        }
    }

    /// At N = 16 384 access classification alone is worth nearly 10x
    /// (router over NEWS under the default mapping), and the permute map
    /// section adds a little more (NEWS over local). The router row routes
    /// every access with addresses built as C\* builds them; while they
    /// also paid for a zero fill, a copy of each subscript and a multiply
    /// by a stride of 1, the ratio was 10.7x, and the 8.9x left is what
    /// classification itself is worth.
    #[test]
    fn mapping_hierarchy() {
        let fig = golden(include_str!("../tests/golden/map_ablation.txt"));
        let at_16k = |&(n, ratio): &(usize, f64)| (n == 16384).then_some(ratio);
        let router_news = ratios(&fig, 0, 1).iter().find_map(at_16k).unwrap();
        let news_local = ratios(&fig, 1, 2).iter().find_map(at_16k).unwrap();
        assert!(router_news >= 8.5, "router/NEWS = {router_news}");
        assert!(news_local > 1.0, "NEWS/local = {news_local}");
    }

    /// UC tracks C\* on Figure 7 as it does on Figure 6: the reduction
    /// binds `i` and `j` from its coordinates and needs no mask transfer,
    /// so each round's router traffic is C\*'s two gets and one send, and
    /// each gather builds its address with C\*'s ALU ops.
    #[test]
    fn fig7_uc_tracks_cstar() {
        let fig = golden(include_str!("../tests/golden/fig7.txt"));
        for (n, ratio) in ratios(&fig, 0, 1) {
            assert!(ratio < 1.1, "UC/C* = {ratio} at N = {n}");
        }
    }

    /// The optimization wins at every N, by an order of magnitude at
    /// N = 16 384. While 10·N VPs fit on the machine the margin is only
    /// 1.6x: the un-optimised reduction reads `j` from its coordinate and,
    /// under a `par` with no mask, transfers none, so it spends no router
    /// op on either.
    #[test]
    fn procopt_wins() {
        let fig = golden(include_str!("../tests/golden/procopt_ablation.txt"));
        for (n, speedup) in ratios(&fig, 1, 0) {
            assert!(speedup >= 1.5, "procopt speed-up {speedup} at N = {n}");
            assert!(n != 16384 || speedup >= 10.0, "procopt speed-up {speedup} at N = {n}");
        }
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
        // Valid JSON that is not a figure is an error, not a panic.
        assert!(from_json(r#"{"id": "t"}"#).is_err());
        assert!(from_json(r#"{"id":"t","title":"T","x_label":"n","series":[{}]}"#).is_err());
        let point = |p: &str| {
            from_json(&format!(
                r#"{{"id":"t","title":"T","x_label":"n","series":[{{"label":"a","points":[{p}]}}]}}"#
            ))
        };
        assert_eq!(point("[1, 10]").unwrap().series[0].points, [(1, 10)]);
        assert!(point("[1]").is_err());
        assert!(point(r#"[1, "10"]"#).is_err());
    }
}
