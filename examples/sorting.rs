//! Two parallel sorts from §3 of the paper: ranksort (`par` + a counting
//! reduction) and odd–even transposition sort (`*oneof` with guarded
//! swap arms — the paper's illustration of non-deterministic choice).
//!
//! ```sh
//! cargo run --example sorting
//! ```

use uc::lang::Program;

const RANKSORT: &str = include_str!("uc/ranksort_local_rank.uc");

const ODD_EVEN: &str = include_str!("uc/odd_even_sort.uc");

fn main() {
    let mut rank = Program::compile(RANKSORT).expect("ranksort compiles");
    rank.run().expect("ranksort runs");
    let sorted = rank.read_int_array("sorted").unwrap();
    println!("ranksort input : {:?}", rank.read_int_array("a").unwrap());
    println!("ranksort output: {sorted:?}");
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));

    let mut oe = Program::compile(ODD_EVEN).expect("odd-even compiles");
    oe.run().expect("odd-even runs");
    let x = oe.read_int_array("x").unwrap();
    println!("odd-even output: {x:?}");
    assert!(x.windows(2).all(|w| w[0] <= w[1]));

    println!();
    println!("ranksort : {:>8} cycles ({} router ops)", rank.cycles(), rank.machine().counters().router);
    println!("odd-even : {:>8} cycles ({} news ops)", oe.cycles(), oe.machine().counters().news);
    println!();
    println!(
        "ranksort pays one big all-to-all; the transposition sort trades\n\
         that for O(N) cheap nearest-neighbour rounds — the communication\n\
         classes whose costs §4's mappings are designed around."
    );
}
