//! Order statistics for timing samples.

/// Summary of one metric's samples within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The number the run reports for the metric: the fastest sample for a
    /// host time ([`Summary::fastest`]), the median otherwise.
    pub value: f64,
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// `(p, value)`: the highest reported percentile with at least ten
    /// samples beyond it (see [`top_percentile`]).
    pub top: Option<(f64, f64)>,
}

impl Summary {
    /// Samples of a quantity that does not depend on host speed.
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            value: median(samples),
            min: fastest(samples),
            median: median(samples),
            q1,
            q3,
            n: samples.len(),
            top: top_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
        }
    }

    /// Samples of a host time. The host's speed moves in phases that last
    /// from seconds to minutes (README, "Why the fastest sample"); they
    /// shift the median of a run by tens of percent and its fastest
    /// sample by a few, so the fastest sample is what a run reports. The
    /// median, quartiles and top percentile stay in the table and the
    /// result file.
    pub fn fastest(samples: &[f64]) -> Summary {
        Summary {
            value: fastest(samples),
            ..Summary::of(samples)
        }
    }

    /// A value that is known exactly (a count), not sampled.
    pub fn exact(v: f64) -> Summary {
        Summary {
            value: v,
            min: v,
            median: v,
            q1: v,
            q3: v,
            n: 1,
            top: None,
        }
    }
}

/// The smallest sample.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(samples, n=4)` does (the "exclusive" method), so
/// the spreads `compare` prints are the ones the acceptance check takes.
/// A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        // j = i*(n+1)/4 clamped to [1, n-1]; interpolate between v[j-1], v[j].
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest rank of percentile `p` (to a tenth of a percent) among `n`
/// samples, in whole-number arithmetic so 99.9 % of 10 000 is 9 990.
fn rank(p: f64, n: usize) -> usize {
    ((p * 10.0).round() as usize * n).div_ceil(1000)
}

/// Nearest-rank percentile, `p` in (0, 100].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    v[rank(p, v.len()).clamp(1, v.len()) - 1]
}

/// The highest of p75/p90/p95/p99/p99.9 that still has at least ten of
/// `n` samples strictly beyond its nearest-rank position, or `None` when
/// even p75 does not (n < 40) and only the median is reportable.
pub fn top_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 75.0), 75.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0, 1.0], 50.0), 1.0);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        assert_eq!(top_percentile(30), None);
        assert_eq!(top_percentile(39), None);
        assert_eq!(top_percentile(40), Some(75.0));
        assert_eq!(top_percentile(99), Some(75.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(1000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_carries_count_and_top() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 40);
        assert_eq!((s.value, s.median, s.min), (20.5, 20.5, 1.0));
        assert_eq!(s.top, Some((75.0, 30.0)));
        let f = Summary::fastest(&v);
        assert_eq!((f.value, f.median, f.n), (1.0, 20.5, 40));
        assert_eq!(Summary::exact(7.0).value, 7.0);
    }
}
