//! Minimal measurement helpers for the experiment harness.
//!
//! The evaluation of the paper reports per-query runtimes, accumulated
//! response times (Table 1) and averages over repeated runs. [`Timer`] and
//! [`Summary`] provide exactly that without pulling in a benchmarking
//! framework for the plain `experiments` binary.

use std::time::{Duration, Instant};

/// A simple wall-clock timer.
///
/// # Examples
///
/// ```
/// use asv_util::Timer;
/// let t = Timer::start();
/// let elapsed = t.elapsed();
/// assert!(elapsed.as_nanos() < u128::MAX);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts a new timer.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since the timer was started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in milliseconds as a float (the unit the paper plots).
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

/// Running summary statistics over a sequence of samples.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, sample: f64) {
        self.samples.push(sample);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of all samples (0.0 when empty).
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    /// Minimum sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min_or_zero()
    }

    /// Maximum sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max_or_zero()
    }

    /// p-th percentile (nearest-rank, `p` in `[0, 100]`; 0.0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// All recorded samples in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

trait OrZero {
    fn min_or_zero(self) -> f64;
    fn max_or_zero(self) -> f64;
}

impl OrZero for f64 {
    fn min_or_zero(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
    fn max_or_zero(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// Runs `f` `repetitions` times and returns the average wall-clock duration,
/// mirroring the paper's "average time of three runs" methodology (§3).
///
/// # Panics
/// Panics if `repetitions` is 0.
pub fn average_runtime<F: FnMut()>(repetitions: usize, mut f: F) -> Duration {
    assert!(repetitions > 0, "need at least one repetition");
    let mut total = Duration::ZERO;
    for _ in 0..repetitions {
        let t = Timer::start();
        f();
        total += t.elapsed();
    }
    total / repetitions as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_nonzero_time() {
        let t = Timer::start();
        std::hint::black_box((0..1000).sum::<u64>());
        assert!(t.elapsed() >= Duration::ZERO);
        assert!(t.elapsed_ms() >= 0.0);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.sum(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.add(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 4.0);
        assert_eq!(s.samples().len(), 4);
    }

    #[test]
    fn average_runtime_runs_the_closure() {
        let mut calls = 0;
        let avg = average_runtime(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(avg >= Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn average_runtime_zero_reps_panics() {
        average_runtime(0, || {});
    }
}
