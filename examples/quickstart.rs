//! Quickstart: compile and run a UC program on the simulated Connection
//! Machine.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The program is Figure 2 of the paper: prefix sums in log N iterations
//! with the `*par` construct. Note the UC ingredients: an `index_set`,
//! an `st` predicate, and the `*` iteration prefix that repeats the
//! statement while any element stays enabled.

use uc::lang::Program;

const PREFIX_SUMS: &str = include_str!("uc/prefix_sums.uc");

fn main() {
    let mut program = Program::compile(PREFIX_SUMS).expect("valid UC");
    program.run().expect("runs to completion");

    let sums = program.read_int_array("a").expect("a is an int array");
    println!("prefix sums of 0..32:");
    println!("{sums:?}");
    let expect: Vec<i64> = (0..32).map(|i| i * (i + 1) / 2).collect();
    assert_eq!(sums, expect);

    println!();
    println!("simulated CM cycles : {}", program.cycles());
    let k = program.machine().counters();
    println!(
        "instructions        : {} alu, {} news, {} router, {} scan, {} context",
        k.alu, k.news, k.router, k.scan, k.context
    );
    println!("(log-step algorithm: {} iterations for N=32)", 6);
}
