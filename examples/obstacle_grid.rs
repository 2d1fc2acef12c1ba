//! The grid-goal problem of §5 with the Figure 11 obstacle: every cell of
//! a grid computes its shortest distance to the goal at (0,0), routing
//! around a diagonal wall, by iterating neighbour relaxation with `*par`
//! until the global fixed point.
//!
//! ```sh
//! cargo run --example obstacle_grid
//! ```
//!
//! Prints the distance field as ASCII art and compares the CM cycle count
//! against the sequential baselines (the Figure 8 experiment at one size).

use uc::lang::{ExecConfig, Program};
use uc::seqc::{grid, oracle, SeqMachine};

const N: usize = 16;

/// The UC program (Figure 11's initialisation plus the `*par`
/// relaxation described in §5). `WALLV` marks obstacle cells, `DMAX`
/// is the "unreached" sentinel.
const GRID_GOAL: &str = include_str!("../crates/bench/programs/grid_goal.uc");

fn main() {
    let mut p = Program::compile_with_defines(GRID_GOAL, ExecConfig::default(), &[("N", N as i64)])
        .expect("grid program compiles");
    p.run().expect("grid program runs");
    let dist = p.read_int_array("a").unwrap();

    println!("shortest distance to goal G at the top-left, '##' = obstacle:\n");
    for r in 0..N {
        let mut line = String::new();
        for c in 0..N {
            let v = dist[r * N + c];
            if v >= 2 * (1 << 30) {
                line.push_str(" ##");
            } else if r == 0 && c == 0 {
                line.push_str("  G");
            } else if v >= 1 << 30 {
                line.push_str("  ?");
            } else {
                line.push_str(&format!("{v:>3}"));
            }
        }
        println!("{line}");
    }

    // Verify against BFS.
    let walls = oracle::figure11_walls(N);
    let bfs = oracle::grid_bfs(N, N, &walls);
    for p in 0..N * N {
        if walls[p] {
            continue;
        }
        if let Some(d) = bfs[p] {
            assert_eq!(dist[p], d as i64, "cell {p}");
        }
    }
    println!("\nverified against BFS.");

    let mut seq = SeqMachine::new();
    let seq_run = grid::grid_goal(&mut seq, N, N, &walls, 1 << 30);
    let mut opt = SeqMachine::optimized();
    let opt_run = grid::grid_goal(&mut opt, N, N, &walls, 1 << 30);
    println!();
    println!("UC on the 16K CM : {:>9} cycles", p.cycles());
    println!("sequential C     : {:>9} cycles", seq_run.cycles);
    println!("sequential C -O  : {:>9} cycles", opt_run.cycles);
    println!("(sweep counts: CM converges in the same {} sweeps)", seq_run.sweeps);
}
