//! Hermetic environment and the host facts written into every result.

use std::process::Command;

use crate::json::Value;

/// Remove the executor knobs `ExecConfig::default()` reads (a benchmark
/// run must not inherit an executor choice from the caller's shell) and
/// pin `UC_THREADS` to `min(available cores, 4)`. Every `uc` child inherits
/// this environment. Must run before the first use of the worker pool,
/// which sizes itself once from the variable. Returns the thread count.
pub fn pin_environment() -> usize {
    for name in ["UC_EXEC", "UC_IR_OPT"] {
        std::env::remove_var(name);
    }
    let threads = cores().min(4);
    std::env::set_var("UC_THREADS", threads.to_string());
    threads
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a tool's output, `unknown` if it cannot be had. Git is
/// kept from searching above the working directory: a checkout that is
/// not a repository must not report some enclosing repository's commit.
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir().unwrap_or_default(),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Facts about where and how the numbers were taken. `commit` is
/// `unknown` outside a git checkout.
pub fn facts(threads: usize, seed: u64, seconds: u64) -> Vec<(&'static str, Value)> {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("available_parallelism", Value::Num(cores() as f64)),
        ("uc_threads", Value::Num(threads as f64)),
        ("profile", profile.into()),
        (
            "commit",
            first_line("git", &["rev-parse", "HEAD"]).as_str().into(),
        ),
        ("rustc", first_line("rustc", &["-V"]).as_str().into()),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds as f64)),
        (
            "build_s",
            std::env::var("UCBENCH_BUILD_S")
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map_or(Value::Null, Value::Num),
        ),
    ]
}
