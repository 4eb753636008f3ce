//! Update-batch generators (paper §3.1 and §3.4).
//!
//! The Figure 3 experiment updates "10,000 uniformly selected entries"; the
//! Figure 7 experiment applies batches of 100 to 1M updates to a column.
//! [`UpdateWorkload`] produces such batches as `(row, new value)` pairs with
//! uniformly chosen rows and values drawn uniformly from the value domain.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use asv_vmem::VALUES_PER_PAGE;

use crate::distributions::page_interval_start;

/// One round of hot-zone churn: a contiguous window of rows plus the
/// writes confined to it (see [`UpdateWorkload::hot_zone_churn`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnRound {
    /// The hot row window `[start, end)` this round's writes fall into.
    pub window: (usize, usize),
    /// The `(row, new value)` writes of the round.
    pub writes: Vec<(usize, u64)>,
}

/// A generator for random point-update batches.
#[derive(Clone, Debug)]
pub struct UpdateWorkload {
    seed: u64,
}

impl UpdateWorkload {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates `count` updates: uniformly random rows in `[0, num_rows)`
    /// and uniformly random new values in `[0, max_value]`.
    pub fn uniform_writes(
        &self,
        count: usize,
        num_rows: usize,
        max_value: u64,
    ) -> Vec<(usize, u64)> {
        assert!(num_rows > 0, "cannot generate updates for an empty column");
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..count)
            .map(|_| (rng.gen_range(0..num_rows), rng.gen_range(0..=max_value)))
            .collect()
    }

    /// Generates `count` updates whose rows are uniform but whose new values
    /// are confined to `value_range` — useful to stress a specific partial
    /// view.
    pub fn targeted_writes(
        &self,
        count: usize,
        num_rows: usize,
        value_range: (u64, u64),
    ) -> Vec<(usize, u64)> {
        assert!(num_rows > 0, "cannot generate updates for an empty column");
        assert!(value_range.0 <= value_range.1, "invalid value range");
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..count)
            .map(|_| {
                (
                    rng.gen_range(0..num_rows),
                    rng.gen_range(value_range.0..=value_range.1),
                )
            })
            .collect()
    }

    /// Generates `rounds` rounds of *hot-zone churn* for a linearly
    /// clustered column of `num_rows` rows over `[0, max_value]`
    /// ([`crate::Distribution::Linear`]'s page layout).
    ///
    /// Each round picks a fresh contiguous hot window of
    /// `ceil(num_rows * touch_fraction)` rows and confines all of its
    /// `writes_per_round` writes to that window; every new value is drawn
    /// from the *local* value interval of some page inside the window, so
    /// zone bands stay confined to the window's slice of the domain (only
    /// views whose predicate range overlaps that slice are affected) while
    /// page ↔ view membership genuinely churns — a row regularly receives
    /// a neighbouring window page's values, moving its page in and out of
    /// the views partitioning the domain. At small touch fractions most
    /// views see no old or new value of a round, so planning every view
    /// would waste almost all of the work.
    pub fn hot_zone_churn(
        &self,
        rounds: usize,
        writes_per_round: usize,
        num_rows: usize,
        touch_fraction: f64,
        max_value: u64,
    ) -> Vec<ChurnRound> {
        assert!(num_rows > 0, "cannot generate updates for an empty column");
        assert!(
            (0.0..=1.0).contains(&touch_fraction),
            "touch fraction must be in [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let num_pages = num_rows.div_ceil(VALUES_PER_PAGE).max(1);
        let window_len = ((num_rows as f64 * touch_fraction).ceil() as usize)
            .max(1)
            .min(num_rows);
        (0..rounds)
            .map(|_| {
                let start = rng.gen_range(0..=num_rows - window_len);
                let writes = (0..writes_per_round)
                    .map(|_| {
                        let row = rng.gen_range(start..start + window_len);
                        // Draw the value from the interval of another
                        // window row's page: still inside the window's
                        // slice of the domain, but membership-churning.
                        let donor = rng.gen_range(start..start + window_len);
                        let page = donor / VALUES_PER_PAGE;
                        let lo = page_interval_start(page, num_pages, max_value);
                        let hi = page_interval_start(page + 1, num_pages, max_value).max(lo + 1);
                        let value = rng.gen_range(lo..hi.min(max_value.saturating_add(1)));
                        (row, value)
                    })
                    .collect();
                ChurnRound {
                    window: (start, start + window_len),
                    writes,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_writes_are_deterministic_and_bounded() {
        let w = UpdateWorkload::new(11);
        let a = w.uniform_writes(1_000, 5_000, 999);
        let b = w.uniform_writes(1_000, 5_000, 999);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1_000);
        assert!(a.iter().all(|&(r, v)| r < 5_000 && v <= 999));
        let c = UpdateWorkload::new(12).uniform_writes(1_000, 5_000, 999);
        assert_ne!(a, c);
    }

    #[test]
    fn targeted_writes_stay_in_range() {
        let w = UpdateWorkload::new(11);
        let writes = w.targeted_writes(500, 100, (40, 60));
        assert!(writes
            .iter()
            .all(|&(r, v)| r < 100 && (40..=60).contains(&v)));
    }

    #[test]
    fn empty_batch_is_allowed() {
        let w = UpdateWorkload::new(0);
        assert!(w.uniform_writes(0, 10, 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty column")]
    fn zero_rows_panics() {
        UpdateWorkload::new(0).uniform_writes(1, 0, 10);
    }

    #[test]
    fn hot_zone_churn_confines_rows_and_values() {
        let num_rows = 64 * VALUES_PER_PAGE;
        let num_pages = 64;
        let max_value = 1_000_000;
        let w = UpdateWorkload::new(7);
        let rounds = w.hot_zone_churn(10, 200, num_rows, 0.05, max_value);
        assert_eq!(rounds.len(), 10);
        let window_len = (num_rows as f64 * 0.05).ceil() as usize;
        for round in &rounds {
            let (start, end) = round.window;
            assert_eq!(end - start, window_len);
            assert!(end <= num_rows);
            assert_eq!(round.writes.len(), 200);
            // Values stay inside the *window's* slice of the domain.
            let first_page = start / VALUES_PER_PAGE;
            let last_page = (end - 1) / VALUES_PER_PAGE;
            let lo = page_interval_start(first_page, num_pages, max_value);
            let hi = page_interval_start(last_page + 1, num_pages, max_value).max(lo + 1);
            for &(row, value) in &round.writes {
                assert!((start..end).contains(&row), "row stays in the window");
                assert!(
                    value >= lo && value < hi.min(max_value + 1),
                    "value {value} stays in the window's interval [{lo}, {hi})"
                );
            }
        }
        // Deterministic per seed, distinct across seeds.
        assert_eq!(rounds, w.hot_zone_churn(10, 200, num_rows, 0.05, max_value));
        assert_ne!(
            rounds,
            UpdateWorkload::new(8).hot_zone_churn(10, 200, num_rows, 0.05, max_value)
        );
    }

    #[test]
    fn hot_zone_churn_tiny_fraction_still_touches_a_row() {
        let w = UpdateWorkload::new(3);
        let rounds = w.hot_zone_churn(3, 5, 1_000, 0.0, 999);
        for round in &rounds {
            assert_eq!(round.window.1 - round.window.0, 1);
        }
    }
}
