//! The paper's flagship benchmark: all-pairs shortest path, in both the
//! O(N²)-parallel form (Figure 4: front-end loop over pivots) and the
//! O(N³)-parallel form (Figure 5: log N min-reduction rounds).
//!
//! ```sh
//! cargo run --example shortest_path
//! ```
//!
//! Both programs run on the same random graph; the example verifies they
//! agree with each other and with Floyd–Warshall, then compares their
//! simulated cycle counts — the data behind Figures 6 and 7.

use uc::lang::{ExecConfig, Program};
use uc::seqc::oracle;

const N: usize = 16;

/// Figures 4 and 5, the programs the figure benches run; the example
/// runs them at `N` instead of their default size.
const APSP_N2: &str = include_str!("../crates/bench/programs/apsp_n2.uc");
const APSP_N3: &str = include_str!("../crates/bench/programs/apsp_n3.uc");

fn main() {
    let n = N as i64;
    let mut p2 = Program::compile_with_defines(APSP_N2, ExecConfig::default(), &[("N", n)])
        .expect("N2 compiles");
    p2.run().expect("N2 runs");
    let d2 = p2.read_int_array("d").unwrap();

    let logn = (usize::BITS - (N - 1).leading_zeros()) as i64;
    let mut p3 =
        Program::compile_with_defines(APSP_N3, ExecConfig::default(), &[("N", n), ("LOGN", logn)])
            .expect("N3 compiles");
    p3.run().expect("N3 runs");
    let d3 = p3.read_int_array("d").unwrap();

    let oracle = oracle::floyd_warshall(oracle::bench_graph(N), N);
    assert_eq!(d2, oracle, "O(N^2) program must match Floyd-Warshall");
    assert_eq!(d3, oracle, "O(N^3) program must match Floyd-Warshall");

    println!("all-pairs shortest paths on a {N}-node graph — both programs correct");
    println!();
    println!("first row of the distance matrix: {:?}", &d2[..N]);
    println!();
    println!("O(N^2) parallelism (N pivot rounds)  : {:>9} cycles", p2.cycles());
    println!("O(N^3) parallelism (log N reductions): {:>9} cycles", p3.cycles());
    println!();
    println!("the O(N^3) form trades {N}x more virtual processors for {logn} rounds instead of {N}");
}
