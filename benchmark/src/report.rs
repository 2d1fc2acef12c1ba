//! Command-line arguments shared by the two harness binaries, the record
//! of one run, and its three renderings: the human-readable table, the
//! final result line, and the result file `compare` reads.

use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::measure::Tally;
use crate::spec;
use crate::stats::Summary;
use crate::workloads::{self, Workload, WORKLOADS};

#[derive(Debug, Clone)]
pub struct Args {
    /// `None` runs every workload in turn.
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Result file to append the run records to.
    pub out: Option<PathBuf>,
}

pub const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       benchmark/run.sh compare BASE.json CHANGE.json";

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 1,
            seconds: 15,
            trace: false,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} {value}: expected a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    parsed.workload = Some(workloads::find(value).ok_or_else(|| {
                        format!("unknown workload `{value}` (one of {})", names.join(", "))
                    })?);
                }
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.seconds = number()?.clamp(1, 60),
                "--trace" => parsed.trace = number()? != 0,
                "--out" => parsed.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(parsed)
    }

    pub fn selected(&self) -> Vec<&'static Workload> {
        match self.workload {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        }
    }
}

/// Samples per timed metric for a run of `seconds`: a fixed function of
/// the argument alone — never of how fast the code under test is — so any
/// two commits are sampled identically. 30 at the declared 15 s.
pub fn samples_for(seconds: u64) -> usize {
    (2 * seconds as usize).max(30)
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Host facts ([`crate::host::facts`]) plus the pass's own counts.
    pub host: Vec<(&'static str, Value)>,
}

impl RunRecord {
    /// Add a declared metric; its unit comes from the `spec` tables, so a
    /// run can only report names `BENCHMARK.json` knows.
    pub fn push(&mut self, name: &'static str, summary: Summary) {
        let unit =
            spec::unit_of(name).unwrap_or_else(|| panic!("`{name}` is not a declared metric"));
        self.metrics.push(Metric {
            name,
            unit,
            summary,
        });
    }

    /// Whether the run reports every metric its pass declares, once each.
    pub fn is_complete(&self) -> bool {
        let declared: Vec<&str> = if self.trace {
            spec::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            spec::END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut reported: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        reported.sort_unstable();
        let mut declared_sorted = declared;
        declared_sorted.sort_unstable();
        reported == declared_sorted
    }

    /// One row per metric: reported value, then the samples' median,
    /// quartiles, top percentile and count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}) host {}\n",
            self.workload,
            self.seed,
            if self.trace {
                "traced pass"
            } else {
                "untraced pass"
            },
            Value::obj(self.host.clone()).render()
        );
        out.push_str(&format!(
            "{:<26} {:>16} {:<7} {:>14} {:>14} {:>14} {:>16} {:>5}\n",
            "metric", "value", "unit", "median", "q1", "q3", "top percentile", "n"
        ));
        for m in &self.metrics {
            let s = &m.summary;
            // Counts and derived values have no distribution to show.
            let spread = |v: f64| {
                if s.n > 1 {
                    format!("{v:.4}")
                } else {
                    "-".to_string()
                }
            };
            let top = s
                .top
                .map_or("-".to_string(), |(p, v)| format!("p{p}={v:.4}"));
            out.push_str(&format!(
                "{:<26} {:>16.4} {:<7} {:>14} {:>14} {:>14} {:>16} {:>5}\n",
                m.name,
                s.value,
                m.unit,
                spread(s.median),
                spread(s.q1),
                spread(s.q3),
                top,
                s.n
            ));
        }
        out.push_str(&format!(
            "{:<26} {:>16.4} {:<7} ({} failed of {} attempted)\n",
            "fail_share",
            self.tally.fail_share(),
            "share",
            self.tally.failed,
            self.tally.attempted
        ));
        out
    }

    /// The run's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric a `{value, unit}` pair.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Value::obj([
                    ("value", Value::Num(m.summary.value)),
                    ("unit", m.unit.into()),
                ]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.tally.failed == 0)),
            ("attempted", Value::Num(self.tally.attempted as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .render()
    }

    fn to_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let s = &m.summary;
            let mut fields = vec![
                ("value", Value::Num(s.value)),
                ("unit", m.unit.into()),
                ("min", Value::Num(s.min)),
                ("median", Value::Num(s.median)),
                ("q1", Value::Num(s.q1)),
                ("q3", Value::Num(s.q3)),
                ("n", Value::Num(s.n as f64)),
            ];
            if let Some((p, v)) = s.top {
                fields.push(("top_p", Value::Num(p)));
                fields.push(("top_value", Value::Num(v)));
            }
            (m.name, Value::obj(fields))
        });
        Value::obj([
            ("workload", self.workload.into()),
            ("seed", Value::Num(self.seed as f64)),
            ("trace", Value::Bool(self.trace)),
            ("attempted", Value::Num(self.tally.attempted as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            ("host", Value::obj(self.host.clone())),
            ("metrics", Value::obj(metrics)),
        ])
    }

    /// Append this run to the result file at `path` (`{"runs": [...]}`),
    /// creating it if needed. Repeated runs into one file are what
    /// `compare` takes its run-to-run quartiles from.
    pub fn append_to(&self, path: &Path) -> Result<(), String> {
        let mut runs = match std::fs::read_to_string(path) {
            Ok(text) => read_runs(&text).map_err(|e| format!("{}: {e}", path.display()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        runs.push(self.to_json());
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let text = Value::obj([("runs", Value::Arr(runs))]).render();
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The run records of a result file.
pub fn read_runs(text: &str) -> Result<Vec<Value>, String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("no `runs` array")?;
    Ok(runs.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let a = Args::parse(&strings(&[
            "--workload",
            "grid_news",
            "--seed",
            "42",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.unwrap().name, "grid_news");
        assert_eq!((a.seed, a.seconds, a.trace), (42, 15, true));
        assert_eq!(Args::parse(&[]).unwrap().selected().len(), WORKLOADS.len());
        assert!(Args::parse(&strings(&["--workload", "nope"])).is_err());
        assert!(Args::parse(&strings(&["--seed"])).is_err());
        assert!(Args::parse(&strings(&["--seed", "x"])).is_err());
        assert!(Args::parse(&strings(&["--frobnicate", "1"])).is_err());
    }

    #[test]
    fn sample_counts_depend_on_seconds_only() {
        assert_eq!(samples_for(1), 30);
        assert_eq!(samples_for(15), 30);
        assert_eq!(samples_for(60), 120);
    }

    fn record() -> RunRecord {
        let mut r = RunRecord {
            workload: "apsp_n2",
            seed: 9,
            trace: false,
            tally: Tally {
                attempted: 120,
                failed: 0,
            },
            metrics: Vec::new(),
            host: vec![("uc_threads", Value::Num(2.0))],
        };
        r.push("run_wall_ms", Summary::fastest(&[61.25, 60.5, 64.125]));
        r.push("sim_cycles", Summary::exact(6_965_830.0));
        r
    }

    #[test]
    fn a_record_is_complete_only_with_every_declared_metric() {
        let mut r = record();
        assert!(!r.is_complete());
        for name in [
            "compile_ms",
            "exec_ms",
            "check_ms",
            "peak_heap_mb",
            "setup_s",
        ] {
            r.push(name, Summary::exact(1.0));
        }
        assert!(r.is_complete());
        r.push("setup_s", Summary::exact(1.0));
        assert!(!r.is_complete());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = record().result_line();
        let Value::Obj(pairs) = json::parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let wall = v.get("metrics").unwrap().get("run_wall_ms").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(60.5));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn result_file_accumulates_runs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-report-{}", std::process::id()));
        let path = dir.join("nested").join("r.json");
        record().append_to(&path).unwrap();
        record().append_to(&path).unwrap();
        let runs = read_runs(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("workload").unwrap().as_str(), Some("apsp_n2"));
        let m = runs[0].get("metrics").unwrap().get("run_wall_ms").unwrap();
        assert_eq!(m.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(m.get("q3").unwrap().as_f64(), Some(64.125));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
