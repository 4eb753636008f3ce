//! The ruler: percentile picking, medians and quartiles.

/// Samples a percentile may leave beyond itself and still be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

/// Nearest-rank percentile of an ascending slice (`pct` in `(0, 100]`).
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    let rank = (sorted.len() as f64 * pct / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by nearest rank; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    nearest_rank(&sorted(samples), 50.0)
}

/// Whether `pct` leaves at least [`MIN_SAMPLES_BEYOND`] of `n` samples
/// beyond it — the rule for reporting a tail percentile at all.
pub fn supports_percentile(n: usize, pct: f64) -> bool {
    let rank = (n as f64 * pct / 100.0).ceil() as usize;
    n >= rank + MIN_SAMPLES_BEYOND
}

/// The `pct`-th percentile, or `None` when the sample leaves fewer than
/// [`MIN_SAMPLES_BEYOND`] samples beyond it: a short run never reports a
/// tail it did not measure, and never another percentile under its name.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    supports_percentile(samples.len(), pct).then(|| nearest_rank(&sorted(samples), pct))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method) — the spread the driver computes.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Inter-quartile range as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&ramp(101)), 51.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond() {
        assert!(supports_percentile(200, 95.0));
        assert!(!supports_percentile(199, 95.0));
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        // 199 samples leave only 9 beyond p95: no figure, not a lower
        // percentile under the same name.
        assert_eq!(percentile(&ramp(199), 95.0), None);
        assert_eq!(percentile(&ramp(199), 90.0), Some(180.0));
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_needs_a_thousand() {
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(500), 99.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), [1.5, 3.0, 4.5]);
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }
}
