//! Regenerate Figure 8: grid shortest path with the Figure 11 obstacle —
//! sequential C, `-O` sequential C, and UC on the 16K CM, beside C\* on
//! the same machine.
//!
//! The paper sweeps rows up to ~120; the sequential curves blow up while
//! the CM curve stays nearly flat until the VP ratio exceeds 1.
//! Usage: `fig8 [--json]`.

fn main() -> std::process::ExitCode {
    let sizes = [8, 16, 24, 32, 48, 64, 96, 128];
    let fig = uc_bench::fig8(&sizes);
    uc_bench::print_figure(&fig, &[])
}
