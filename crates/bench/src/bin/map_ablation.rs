//! The §4 mapping ablation behind the paper's "improved by a factor of
//! 10, simply by specifying an efficient mapping" claim.
//!
//! Sweeps the shifted-access kernel `a[i] = a[i] + b[i+1]` under three
//! regimes: unoptimized (router), default mapping (NEWS) and the permute
//! mapping of §4 (local). Usage: `map_ablation [--json]`.

fn main() -> std::process::ExitCode {
    // 32768 and 65536 exceed the 16K physical machine: the VP-ratio kink
    // appears in all three series.
    let ns = [256, 1024, 4096, 16384, 32768, 65536];
    let fig = uc_bench::map_ablation(&ns, 64);
    let at_16k = |series: usize| fig.series[series].points[3].1 as f64;
    let (router, news, local) = (at_16k(0), at_16k(1), at_16k(2));
    // The overall factor splits into what access classification buys under
    // the default mapping and what the permute map section adds on top.
    let notes = [
        format!("router/local speed-up at N=16384: {:.1}x", router / local),
        format!("router/NEWS (access classification, default mapping): {:.1}x", router / news),
        format!("NEWS/local (the permute map section): {:.2}x", news / local),
    ];
    uc_bench::print_figure(&fig, &notes)
}
