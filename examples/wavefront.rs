//! The `solve` construct (§3.6): declare a *proper set* of equations and
//! let the compiler execute assignments in dependency order.
//!
//! ```sh
//! cargo run --example wavefront
//! ```
//!
//! The wavefront problem builds a matrix where each entry depends on its
//! north, west and north-west neighbours; `solve` discovers the
//! anti-diagonal wavefront schedule automatically. The example also shows
//! `*solve`: all-pairs shortest path as a fixed-point computation with no
//! explicit termination condition.

use uc::lang::Program;
use uc::seqc::oracle;

const WAVEFRONT: &str = include_str!("uc/wavefront.uc");

const STAR_SOLVE_APSP: &str = include_str!("uc/star_solve_apsp.uc");

fn main() {
    let mut wf = Program::compile(WAVEFRONT).expect("wavefront compiles");
    wf.run().expect("wavefront runs");
    let a = wf.read_int_array("a").unwrap();
    println!("wavefront (Delannoy) matrix via solve:");
    for r in 0..10 {
        println!(
            "{}",
            a[r * 10..(r + 1) * 10]
                .iter()
                .map(|v| format!("{v:>7}"))
                .collect::<String>()
        );
    }
    assert_eq!(a[99], {
        // Sequential recurrence as the oracle.
        let mut e = vec![0i64; 100];
        for i in 0..10usize {
            for j in 0..10usize {
                e[i * 10 + j] = if i == 0 || j == 0 {
                    1
                } else {
                    e[(i - 1) * 10 + j] + e[(i - 1) * 10 + j - 1] + e[i * 10 + j - 1]
                };
            }
        }
        e[99]
    });

    let mut apsp = Program::compile(STAR_SOLVE_APSP).expect("*solve compiles");
    apsp.run().expect("*solve runs");
    let d = apsp.read_int_array("dist").unwrap();
    let expect = oracle::floyd_warshall(oracle::bench_graph(12), 12);
    assert_eq!(d, expect, "fixed point must equal Floyd-Warshall");
    println!();
    println!("*solve reached the shortest-path fixed point with no explicit");
    println!("termination test; cycles: {} (the compiler's snapshot/compare", apsp.cycles());
    println!("overhead is the price §3.6 notes a hand-refined *par avoids).");
}
