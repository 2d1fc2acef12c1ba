//! The §4 processor-optimization ablation: the digit-histogram reduction
//! with the optimization on (N virtual processors) vs off (10·N).
//!
//! Usage: `procopt_ablation [--json]`.

fn main() -> std::process::ExitCode {
    let ns = [256, 1024, 4096, 16384];
    let fig = uc_bench::procopt_ablation(&ns);
    let on = fig.series[0].points.last().unwrap().1 as f64;
    let off = fig.series[1].points.last().unwrap().1 as f64;
    uc_bench::print_figure(&fig, &[format!("speed-up at N=16384: {:.1}x", off / on)])
}
