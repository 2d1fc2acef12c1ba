//! Regenerate Figure 7: shortest path, O(N³) parallelism, UC vs C*.
//!
//! Same sweep as Figure 6 but with the log-round min-reduction algorithm
//! (Figure 5 / Figure 10 of the paper). Usage: `fig7 [--json]`.

fn main() -> std::process::ExitCode {
    let ns = [4, 8, 12, 16, 20, 24, 28, 32];
    let fig = uc_bench::fig7(&ns);
    uc_bench::print_figure(&fig, &[])
}
