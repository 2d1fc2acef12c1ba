//! Regenerate Figure 6: shortest path, O(N²) parallelism, UC vs C*.
//!
//! The paper sweeps the node count up to 32 on a 16K CM-2 and shows the
//! two curves tracking each other. Usage: `fig6 [--json]`.

fn main() -> std::process::ExitCode {
    let ns = [4, 8, 12, 16, 20, 24, 28, 32];
    let fig = uc_bench::fig6(&ns);
    uc_bench::print_figure(&fig, &[])
}
