//! Timed operations and their verification: `uc` as a subprocess, the
//! `Program` API in-process, and the checks that compare what either
//! produced with a workload's [`Expected`] values.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use uc_core::analysis::{self, LintConfig};
use uc_core::{ExecConfig, Program, Severity};

use crate::workloads::{Expected, Workload};

/// Where generated programs, result files and traces go (ignored by git);
/// relative to the repository root, which `run.sh` makes the working
/// directory.
pub const OUT_DIR: &str = "benchmark/out";

/// Write a generated program to `OUT_DIR/<file_name>`.
pub fn write_program(file_name: &str, source: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(file_name);
    std::fs::write(&path, source).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Shortest duration of one in-process sample; cheaper operations are
/// repeated inside the sample until it lasts this long.
pub const MIN_SAMPLE: Duration = Duration::from_millis(20);

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Repetitions needed for a sample of an operation that took `once`.
pub fn reps_for(once: Duration) -> u32 {
    let once = once.as_secs_f64().max(1e-7);
    (MIN_SAMPLE.as_secs_f64() / once).ceil().clamp(1.0, 1e6) as u32
}

/// Tally of timed operations; `failed / attempted` is `fail_share`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; a failure's reason goes to stderr.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {why}");
        }
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

// ---- the `uc` binary --------------------------------------------------------

/// The `uc` executable built next to the harness binaries.
pub struct UcBin(PathBuf);

/// What one `uc` process produced.
pub struct UcOutput {
    /// Spawn to exit, both pipes drained.
    pub wall: Duration,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
}

impl UcBin {
    /// `uc` lives in the same target directory as the running harness.
    pub fn locate() -> Result<UcBin, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let path = exe.with_file_name("uc");
        if path.is_file() {
            Ok(UcBin(path))
        } else {
            Err(format!(
                "{} not found: build `uc` first (benchmark/run.sh does)",
                path.display()
            ))
        }
    }

    /// Run `uc run <file>` to completion in this process's environment
    /// (which [`crate::host::pin_environment`] has scrubbed and pinned),
    /// with `UC_THREADS` overridden when given.
    pub fn run(&self, file: &Path, threads: Option<usize>) -> Result<UcOutput, String> {
        let mut command = Command::new(&self.0);
        command
            .arg("run")
            .arg(file)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(n) = threads {
            command.env("UC_THREADS", n.to_string());
        }
        let start = Instant::now();
        let out = command
            .output()
            .map_err(|e| format!("spawn {}: {e}", self.0.display()))?;
        let wall = start.elapsed();
        Ok(UcOutput {
            wall,
            success: out.status.success(),
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        })
    }

    /// The untimed first `uc run` of a program: it must succeed and print
    /// its cycle count, which every later run is held to. Whether its
    /// output is right is judged on the timed runs.
    pub fn warm_up(&self, file: &Path) -> Result<(UcOutput, u64), String> {
        let out = self.run(file, None)?;
        match parse_cycles(&out.stderr).filter(|_| out.success) {
            Some(cycles) => Ok((out, cycles)),
            None => Err(format!(
                "warm-up `uc run {}` failed: {}",
                file.display(),
                out.stderr.trim_end()
            )),
        }
    }
}

/// Simulated cycles from `uc run`'s stderr summary, `-- N cycles on …`.
pub fn parse_cycles(stderr: &str) -> Option<u64> {
    stderr
        .lines()
        .find_map(|l| l.strip_prefix("-- ")?.split(' ').next()?.parse().ok())
}

/// Globals as `uc run` prints them: `name = 3` and `name[2, 2] = [1, 2, 3, 4]`.
#[derive(Debug, Default, PartialEq)]
pub struct Report {
    pub scalars: BTreeMap<String, i64>,
    pub arrays: BTreeMap<String, Vec<i64>>,
}

pub fn parse_report(stdout: &str) -> Result<Report, String> {
    let mut report = Report::default();
    for line in stdout.lines() {
        let (lhs, rhs) = line
            .split_once(" = ")
            .ok_or_else(|| format!("unparsed line `{line}`"))?;
        let int = |s: &str| {
            s.trim()
                .parse::<i64>()
                .map_err(|_| format!("bad integer `{s}` in `{lhs}`"))
        };
        match lhs.split_once('[') {
            Some((name, _shape)) => {
                let body = rhs
                    .strip_prefix('[')
                    .and_then(|r| r.strip_suffix(']'))
                    .ok_or_else(|| format!("array `{name}` is not bracketed"))?;
                let data = if body.is_empty() {
                    Ok(Vec::new())
                } else {
                    body.split(',').map(int).collect()
                };
                report.arrays.insert(name.to_string(), data?);
            }
            None => {
                report.scalars.insert(lhs.to_string(), int(rhs)?);
            }
        }
    }
    Ok(report)
}

// ---- verification -----------------------------------------------------------

fn first_difference(name: &str, got: &[i64], want: &[i64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "`{name}` has {} elements, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(i) => Err(format!("`{name}[{i}]` = {}, expected {}", got[i], want[i])),
        None => Ok(()),
    }
}

impl Expected {
    /// Every expected global is in the report with the expected value, and
    /// the report holds nothing else.
    pub fn check_report(&self, report: &Report) -> Result<(), String> {
        for (name, want) in &self.scalars {
            match report.scalars.get(name) {
                Some(got) if got == want => {}
                Some(got) => return Err(format!("`{name}` = {got}, expected {want}")),
                None => return Err(format!("`{name}` missing from the report")),
            }
        }
        for (name, want) in &self.arrays {
            let got = report
                .arrays
                .get(name)
                .ok_or_else(|| format!("`{name}` missing from the report"))?;
            first_difference(name, got, want)?;
        }
        let extra =
            report.scalars.len() + report.arrays.len() - self.scalars.len() - self.arrays.len();
        if extra != 0 {
            return Err(format!(
                "report holds {extra} globals the reference does not"
            ));
        }
        Ok(())
    }

    /// The same check against a program's globals after an in-process run.
    pub fn check_program(&self, p: &mut Program) -> Result<(), String> {
        for (name, want) in &self.scalars {
            match p.read_int(name) {
                Some(got) if got == *want => {}
                Some(got) => return Err(format!("`{name}` = {got}, expected {want}")),
                None => return Err(format!("`{name}` is not a global scalar")),
            }
        }
        for (name, want) in &self.arrays {
            let got = p
                .read_int_array(name)
                .map_err(|e| format!("read `{name}`: {e}"))?;
            first_difference(name, &got, want)?;
        }
        Ok(())
    }
}

/// Simulated cycles must repeat exactly between runs of one kind.
pub fn same_cycles(got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{got} simulated cycles, the first such run had {want}"
        ))
    }
}

/// A whole `uc run`: exit status, printed globals, and the cycle count
/// the warm-up run printed.
pub fn check_uc_run(out: &UcOutput, expected: &Expected, cycles: u64) -> Result<(), String> {
    if !out.success {
        return Err(format!(
            "uc run exited with failure: {}",
            out.stderr.trim_end()
        ));
    }
    expected.check_report(&parse_report(&out.stdout)?)?;
    let got = parse_cycles(&out.stderr).ok_or("no cycle summary on stderr")?;
    same_cycles(got, cycles)
}

// ---- in-process operations --------------------------------------------------

/// `Program::compile_with_defines` with the default configuration (the
/// environment is already scrubbed, so this is what `uc run` uses).
pub fn compile(source: &str) -> Result<Program, String> {
    Program::compile_with_defines(source, ExecConfig::default(), &[]).map_err(|d| d.to_string())
}

/// `reset_clock` → `run` → `cycles`.
pub fn run_once(p: &mut Program) -> Result<u64, String> {
    p.reset_clock();
    p.run().map_err(|e| e.to_string())?;
    Ok(p.cycles())
}

/// `analysis::check_source` must report no error and no lint outside the
/// workload's allowed codes. Returns the number of findings.
pub fn check(w: &Workload, source: &str) -> Result<usize, String> {
    let diags = analysis::check_source(source, &[], &LintConfig::default());
    for d in &diags.items {
        let allowed = d.code.is_some_and(|c| w.allowed_lints.contains(&c));
        if d.severity == Severity::Error || !allowed {
            return Err(format!("unexpected diagnostic: {}", d.message));
        }
    }
    Ok(diags.items.len())
}

/// Time `reps` back-to-back calls of `op`; the sample is the mean call.
/// The first error ends the sample and is returned instead.
pub fn sample<T>(reps: u32, mut op: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(op()?);
    }
    Ok(ms(start.elapsed()) / f64::from(reps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Expected {
        Expected {
            scalars: vec![("s".into(), 140), ("neg".into(), -3)],
            arrays: vec![("d".into(), vec![0, 1, 2, 3])],
        }
    }

    const STDOUT: &str = "neg = -3\ns = 140\nd[2, 2] = [0, 1, 2, 3]\n";

    #[test]
    fn report_parses_scalars_and_shaped_arrays() {
        let r = parse_report(STDOUT).unwrap();
        assert_eq!(r.scalars["neg"], -3);
        assert_eq!(r.arrays["d"], vec![0, 1, 2, 3]);
        assert_eq!(
            parse_report("e[0] = []\n").unwrap().arrays["e"],
            Vec::<i64>::new()
        );
        assert!(parse_report("garbage\n").is_err());
        assert!(parse_report("x = 1.5\n").is_err());
        assert_eq!(
            parse_cycles("-- 6965830 cycles on a 16384-processor CM (65282 alu, 0 news)\n"),
            Some(6_965_830)
        );
        assert_eq!(parse_cycles("error: nope\n"), None);
    }

    #[test]
    fn matching_report_passes() {
        expected()
            .check_report(&parse_report(STDOUT).unwrap())
            .unwrap();
    }

    /// The harness self-test: a deliberately wrong expectation must be
    /// counted as a failed operation, for values, sizes, missing and
    /// unexpected globals alike.
    #[test]
    fn wrong_expectation_is_counted_in_fail_share() {
        let report = parse_report(STDOUT).unwrap();
        let mut wrong = vec![expected(), expected(), expected(), expected(), expected()];
        wrong[0].arrays[0].1[2] = 99;
        wrong[1].scalars[0].1 = 141;
        wrong[2].arrays[0].1.push(4);
        wrong[3].scalars.push(("ghost".into(), 0));
        wrong[4].scalars.pop();
        let mut tally = Tally::default();
        tally.record("good", expected().check_report(&report));
        for w in &wrong {
            tally.record("wrong", w.check_report(&report));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 6,
                failed: 5
            }
        );
        assert!((tally.fail_share() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_cycles_or_exit_status_fail_a_run() {
        let out = |success, stderr: &str| UcOutput {
            wall: Duration::ZERO,
            success,
            stdout: STDOUT.into(),
            stderr: stderr.into(),
        };
        let summary = "-- 530 cycles on a 16384-processor CM\n";
        check_uc_run(&out(true, summary), &expected(), 530).unwrap();
        assert!(check_uc_run(&out(true, summary), &expected(), 531).is_err());
        assert!(check_uc_run(&out(false, summary), &expected(), 530).is_err());
        assert!(check_uc_run(&out(true, ""), &expected(), 530).is_err());
    }

    #[test]
    fn reps_fill_the_minimum_sample() {
        assert_eq!(reps_for(Duration::from_millis(50)), 1);
        assert_eq!(reps_for(Duration::from_millis(20)), 1);
        assert_eq!(reps_for(Duration::from_millis(3)), 7);
        assert_eq!(reps_for(Duration::from_micros(200)), 100);
    }
}
