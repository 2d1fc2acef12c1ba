//! `compare BASE.json CHANGE.json`: one row per workload × end-to-end
//! metric with both sides' median and quartiles, the ratio with its base,
//! and a verdict against the metric's bound. Two files of the same commit
//! give the repeatability check; files filled by alternating runs of a
//! parent and a change give the regression check.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::report::read_runs;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread is wider than the bound and the two sides overlap.
    Unresolved,
}

/// One side of a row: the runs' reported values summarised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub runs: usize,
}

/// Summarise one metric over the runs of one side: median and quartiles
/// of the values the runs reported. A single run has no run-to-run spread
/// to show, so its row is judged on the bound alone.
fn side(runs: &[&Value], metric: &str) -> Option<Side> {
    let value = |run: &&Value| run.get("metrics")?.get(metric)?.get("value")?.as_f64();
    let values: Vec<f64> = runs.iter().filter_map(value).collect();
    if values.is_empty() {
        return None;
    }
    let (q1, q3) = quartiles(&values);
    Some(Side {
        median: median(&values),
        q1,
        q3,
        runs: values.len(),
    })
}

/// The verdict of choosing-metrics §6.5: within the bound is `Ok`; a
/// spread wider than the bound leaves the row `Unresolved` unless the two
/// sides' interquartile ranges do not even touch.
pub fn verdict(m: &EndToEnd, base: Side, change: Side) -> Verdict {
    // Orient so that larger is worse.
    let (b, c, b_worst, c_best, b_best, c_worst) = match m.better {
        Better::Lower => (
            base.median,
            change.median,
            base.q3,
            change.q1,
            base.q1,
            change.q3,
        ),
        Better::Higher => (
            -base.median,
            -change.median,
            -base.q1,
            -change.q3,
            -base.q3,
            -change.q1,
        ),
    };
    let scale = base.median.abs().max(f64::MIN_POSITIVE);
    let spread = (base.q3 - base.q1).max(change.q3 - change.q1) / scale;
    let worse_by = (c - b) / scale;
    if spread > m.bound {
        if c_worst < b_best {
            Verdict::Ok
        } else if c_best > b_worst && worse_by > m.bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn untraced_by_workload(runs: &[Value]) -> BTreeMap<&str, Vec<&Value>> {
    let mut map: BTreeMap<&str, Vec<&Value>> = BTreeMap::new();
    for run in runs {
        if run.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        if let Some(name) = run.get("workload").and_then(Value::as_str) {
            map.entry(name).or_default().push(run);
        }
    }
    map
}

fn fail_share(runs: &[&Value]) -> f64 {
    let sum = |key: &str| {
        runs.iter()
            .filter_map(|r| r.get(key)?.as_f64())
            .sum::<f64>()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Render the comparison; the flag is true when any row regressed.
pub fn compare(base_text: &str, change_text: &str) -> Result<(String, bool), String> {
    let (base_runs, change_runs) = (read_runs(base_text)?, read_runs(change_text)?);
    let (base, change) = (
        untraced_by_workload(&base_runs),
        untraced_by_workload(&change_runs),
    );
    let mut out = format!(
        "{:<14} {:<13} {:>14} {:>25} {:>14} {:>25} {:>22} {:>7}  {}\n",
        "workload",
        "metric",
        "base median",
        "base q1..q3 (runs)",
        "change median",
        "change q1..q3 (runs)",
        "change/base",
        "bound",
        "verdict"
    );
    let mut regressed = false;
    let mut rows = 0;
    for w in WORKLOADS {
        let (Some(b_runs), Some(c_runs)) = (base.get(w.name), change.get(w.name)) else {
            continue;
        };
        for m in END_TO_END {
            let (Some(b), Some(c)) = (side(b_runs, m.name), side(c_runs, m.name)) else {
                continue;
            };
            let v = verdict(m, b, c);
            regressed |= v == Verdict::Regressed;
            rows += 1;
            out.push_str(&format!(
                "{:<14} {:<13} {:>14.4} {:>25} {:>14.4} {:>25} {:>22} {:>7}  {}\n",
                w.name,
                m.name,
                b.median,
                format!("{:.4}..{:.4} ({})", b.q1, b.q3, b.runs),
                c.median,
                format!("{:.4}..{:.4} ({})", c.q1, c.q3, c.runs),
                format!("{:.4} of {:.4}", c.median / b.median, b.median),
                if m.bound < 1e-6 {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", m.bound * 100.0)
                },
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
        // Any failed operation the base did not have is a regression.
        let (bf, cf) = (fail_share(b_runs), fail_share(c_runs));
        let failed_more = cf > bf;
        regressed |= failed_more;
        rows += 1;
        out.push_str(&format!(
            "{:<14} {:<13} {:>14.6} {:>25} {:>14.6} {:>25} {:>22} {:>7}  {}\n",
            w.name,
            "fail_share",
            bf,
            "-",
            cf,
            "-",
            "-",
            "exact",
            if failed_more { "regressed" } else { "ok" }
        ));
    }
    if rows == 0 {
        return Err("the two files share no workload with untraced runs".to_string());
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    fn s(median: f64, q1: f64, q3: f64) -> Side {
        Side {
            median,
            q1,
            q3,
            runs: 10,
        }
    }

    #[test]
    fn verdict_follows_bound_and_spread() {
        // Lower is better, 10 %.
        let wall = &EndToEnd {
            name: "t_ms",
            unit: "ms",
            better: Better::Lower,
            bound: 0.10,
        };
        let base = s(100.0, 99.0, 101.0);
        assert_eq!(verdict(wall, base, s(105.0, 104.0, 106.0)), Verdict::Ok);
        assert_eq!(verdict(wall, base, s(90.0, 89.0, 91.0)), Verdict::Ok);
        assert_eq!(
            verdict(wall, base, s(111.0, 110.0, 112.0)),
            Verdict::Regressed
        );
        // Spread wider than the bound, ranges overlap: cannot tell.
        assert_eq!(
            verdict(wall, s(100.0, 90.0, 110.0), s(104.0, 95.0, 115.0)),
            Verdict::Unresolved
        );
        // Wide spread but every change quartile beats every base quartile.
        assert_eq!(
            verdict(wall, s(100.0, 90.0, 110.0), s(70.0, 60.0, 80.0)),
            Verdict::Ok
        );
        // Wide spread and clearly apart on the wrong side.
        assert_eq!(
            verdict(wall, s(100.0, 90.0, 110.0), s(150.0, 140.0, 160.0)),
            Verdict::Regressed
        );
        // Higher is better: the same rules, mirrored.
        let rate = &EndToEnd {
            name: "rate",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
        };
        assert_eq!(verdict(rate, base, s(95.0, 94.0, 96.0)), Verdict::Ok);
        assert_eq!(verdict(rate, base, s(89.0, 88.0, 90.0)), Verdict::Regressed);
        assert_eq!(
            verdict(rate, s(100.0, 90.0, 110.0), s(150.0, 140.0, 160.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_metric_regresses_on_one_cycle() {
        let cycles = end_to_end("sim_cycles").unwrap();
        let base = s(6_965_830.0, 6_965_830.0, 6_965_830.0);
        assert_eq!(verdict(cycles, base, base), Verdict::Ok);
        let one_more = s(6_965_831.0, 6_965_831.0, 6_965_831.0);
        assert_eq!(verdict(cycles, base, one_more), Verdict::Regressed);
        let one_less = s(6_965_829.0, 6_965_829.0, 6_965_829.0);
        assert_eq!(verdict(cycles, base, one_less), Verdict::Ok);
    }

    fn file(wall: &[f64], failed: f64) -> String {
        let runs = wall.iter().map(|w| {
            Value::obj([
                ("workload", Value::from("apsp_n2")),
                ("trace", Value::Bool(false)),
                ("attempted", Value::Num(100.0)),
                ("failed", Value::Num(failed)),
                (
                    "metrics",
                    Value::obj([("run_wall_ms", Value::obj([("value", Value::Num(*w))]))]),
                ),
            ])
        });
        Value::obj([("runs", Value::Arr(runs.collect()))]).render()
    }

    #[test]
    fn compare_reports_rows_and_flags_regressions() {
        let base = file(&[60.0, 61.0, 62.0], 0.0);
        let (table, bad) = compare(&base, &file(&[61.0, 60.5, 62.5], 0.0)).unwrap();
        assert!(!bad, "{table}");
        assert!(
            table.contains("apsp_n2")
                && table.contains("run_wall_ms")
                && table.contains(" of 61.0000")
        );
        let (table, bad) = compare(&base, &file(&[80.0, 81.0, 82.0], 0.0)).unwrap();
        assert!(bad && table.contains("regressed"), "{table}");
        // A single run per side has no spread and is judged on the bound.
        let (table, bad) = compare(&file(&[60.0], 0.0), &file(&[61.0], 0.0)).unwrap();
        assert!(!bad && table.contains("60.0000..60.0000 (1)"), "{table}");
        let (_, bad) = compare(&file(&[60.0], 0.0), &file(&[76.0], 0.0)).unwrap();
        assert!(bad);
        // New failures regress even when every timing holds.
        let (_, bad) = compare(&base, &file(&[60.0, 61.0, 62.0], 1.0)).unwrap();
        assert!(bad);
        assert!(compare(&base, "{\"runs\": []}").is_err());
    }
}
