//! Every workload, compiled and run in-process: the independent reference
//! agrees with the program, simulated cycles do not depend on the run or
//! on the seed, and `uc check` reports only the lints the workload allows.

use uc_benchmark::measure::{check, compile, run_once, Tally};
use uc_benchmark::workloads::{find, Workload, WORKLOADS};

/// Cycles of the first run of a freshly compiled program, after checking
/// its globals against the reference.
fn cold_cycles(w: &Workload, seed: u64) -> u64 {
    let instance = w.instance(seed);
    let mut p =
        compile(&instance.source).unwrap_or_else(|e| panic!("{} does not compile:\n{e}", w.name));
    let cycles = run_once(&mut p).unwrap_or_else(|e| panic!("{} does not run: {e}", w.name));
    instance
        .expected
        .check_program(&mut p)
        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
    cycles
}

fn holds_its_contract(name: &str) {
    let w = find(name).expect("a declared workload");
    let first = cold_cycles(w, 1);
    assert!(first > 0, "{name}: sim_cycles must never be zero");
    assert_eq!(cold_cycles(w, 1), first, "{name}: two runs of one seed");
    assert_eq!(
        cold_cycles(w, 2),
        first,
        "{name}: the seed must not change the amount of work"
    );

    // A warmed program repeats its own count exactly, run after run.
    let instance = w.instance(1);
    let mut p = compile(&instance.source).unwrap();
    run_once(&mut p).unwrap();
    let warm = run_once(&mut p).unwrap();
    assert_eq!(run_once(&mut p).unwrap(), warm, "{name}: warm runs");
    instance.expected.check_program(&mut p).unwrap();

    let findings = check(w, &instance.source).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        findings > 0,
        !w.allowed_lints.is_empty(),
        "{name}: {findings} findings"
    );
}

#[test]
fn apsp_n2() {
    holds_its_contract("apsp_n2");
}

#[test]
fn apsp_n3() {
    holds_its_contract("apsp_n3");
}

#[test]
fn gather_router() {
    holds_its_contract("gather_router");
}

#[test]
fn grid_news() {
    holds_its_contract("grid_news");
}

#[test]
fn scalar_vm() {
    holds_its_contract("scalar_vm");
}

#[test]
fn frontend_gen() {
    holds_its_contract("frontend_gen");
}

#[test]
fn every_declared_workload_has_a_test_above() {
    let tested = [
        "apsp_n2",
        "apsp_n3",
        "gather_router",
        "grid_news",
        "scalar_vm",
        "frontend_gen",
    ];
    assert_eq!(WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>(), tested);
}

/// Self-test of the in-process check: a program whose output differs
/// from the expectation is counted as failed.
#[test]
fn wrong_expectation_fails_a_real_program() {
    let w = find("apsp_n2").unwrap();
    let instance = w.instance(5);
    let mut p = compile(&instance.source).unwrap();
    run_once(&mut p).unwrap();
    let mut wrong = instance.expected.clone();
    wrong.arrays[0].1[17] += 1;
    let mut tally = Tally::default();
    tally.record("right", instance.expected.check_program(&mut p));
    tally.record("wrong", wrong.check_program(&mut p));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
}
