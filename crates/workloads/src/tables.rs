//! Multi-column table workloads for conjunctive queries.
//!
//! The paper evaluates single columns; conjunctive reads need workloads in
//! which the *relationship between columns* matters, because that
//! relationship decides how far the predicates' page sets overlap:
//!
//! * **correlated** columns — all columns follow the same page-clustered
//!   ramp, so aligned predicates select the same rows and their page sets
//!   intersect in (nearly) every page;
//! * **anti-correlated** columns — odd columns follow the mirrored ramp, so
//!   aligned predicates select disjoint row sets and their page sets meet
//!   only where the two ramps cross;
//! * **independent** columns — every column gets its own shuffled page
//!   order, making cross-column selectivity the product of the per-column
//!   selectivities.
//!
//! Query generation mirrors the data: conjunctive queries place one range
//! per column, positioned so the per-column selectivity stays fixed while
//! the cross-column overlap follows the chosen correlation.

use asv_util::ValueRange;
use asv_vmem::VALUES_PER_PAGE;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How the columns of a generated table relate to each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnCorrelation {
    /// Every column follows the same page-clustered ramp: aligned
    /// predicates select (nearly) the same rows.
    Correlated,
    /// Odd columns follow the mirrored ramp (`max_value - v`): aligned
    /// predicates select (nearly) disjoint rows.
    AntiCorrelated,
    /// Every column shuffles its page order with its own stream: predicates
    /// select independent row sets.
    Independent,
}

impl ColumnCorrelation {
    /// Short name used in reports and test messages.
    pub fn name(&self) -> &'static str {
        match self {
            ColumnCorrelation::Correlated => "correlated",
            ColumnCorrelation::AntiCorrelated => "anti-correlated",
            ColumnCorrelation::Independent => "independent",
        }
    }

    /// All correlations, in report order.
    pub fn all() -> [ColumnCorrelation; 3] {
        [
            ColumnCorrelation::Correlated,
            ColumnCorrelation::AntiCorrelated,
            ColumnCorrelation::Independent,
        ]
    }
}

/// A conjunctive query: one range predicate per column, in column order.
pub type ConjunctiveQuery = Vec<ValueRange>;

/// Generator for multi-column table data and conjunctive query sequences.
#[derive(Clone, Debug)]
pub struct TableWorkload {
    seed: u64,
}

impl TableWorkload {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates `num_columns` columns of `pages` pages each over the value
    /// domain `[0, max_value]`, page-clustered (each page's values spread
    /// around a per-page level) with the requested cross-column structure.
    pub fn clustered_columns(
        &self,
        num_columns: usize,
        pages: usize,
        correlation: ColumnCorrelation,
        max_value: u64,
    ) -> Vec<Vec<u64>> {
        assert!(num_columns > 0, "need at least one column");
        assert!(pages > 0, "need at least one page");
        let mut columns = Vec::with_capacity(num_columns);
        for col in 0..num_columns {
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ (0xC0 + col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            // The page order decides which rows carry which levels.
            let mut page_order: Vec<usize> = (0..pages).collect();
            if correlation == ColumnCorrelation::Independent {
                page_order.shuffle(&mut rng);
            }
            let mirrored = correlation == ColumnCorrelation::AntiCorrelated && col % 2 == 1;
            let mut values = Vec::with_capacity(pages * VALUES_PER_PAGE);
            for &ordered_page in &page_order {
                let rank = ordered_page as u64;
                // Per-page level: a linear ramp over the page rank, spread
                // over a local band of ~2 page-widths for realistic overlap.
                let level = rank * max_value / pages as u64;
                let band = (max_value / pages as u64).max(1) * 2;
                for _ in 0..VALUES_PER_PAGE {
                    let v = level.saturating_add(rng.gen_range(0..=band)).min(max_value);
                    values.push(if mirrored { max_value - v } else { v });
                }
            }
            columns.push(values);
        }
        columns
    }

    /// Generates `num_queries` conjunctive queries of one range per column,
    /// each selecting `selectivity * max_value` of the domain. Correlated
    /// and anti-correlated workloads place all predicates of one query at
    /// the *same* anchor — on correlated data that selects (nearly) the
    /// same rows everywhere (large answers), on anti-correlated data
    /// (mirrored odd columns) it selects (nearly) disjoint rows, so the
    /// answer is (nearly) empty. Independent workloads draw every predicate
    /// position separately.
    pub fn conjunctive_queries(
        &self,
        num_queries: usize,
        num_columns: usize,
        selectivity: f64,
        correlation: ColumnCorrelation,
        max_value: u64,
    ) -> Vec<ConjunctiveQuery> {
        assert!(num_queries > 0, "need at least one query");
        assert!(num_columns > 0, "need at least one column");
        assert!(
            selectivity > 0.0 && selectivity <= 1.0,
            "selectivity must be in (0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let width = ((max_value as f64 * selectivity).round() as u64).max(1);
        let max_start = max_value.saturating_sub(width);
        let draw = move |rng: &mut StdRng| {
            if max_start == 0 {
                0
            } else {
                rng.gen_range(0..=max_start)
            }
        };
        (0..num_queries)
            .map(|_| {
                let anchor = draw(&mut rng);
                (0..num_columns)
                    .map(|_| {
                        let start = match correlation {
                            ColumnCorrelation::Correlated | ColumnCorrelation::AntiCorrelated => {
                                anchor
                            }
                            ColumnCorrelation::Independent => draw(&mut rng),
                        };
                        ValueRange::new(start, start + width - 1)
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: u64 = 1_000_000;

    #[test]
    fn columns_are_deterministic_and_sized() {
        let w = TableWorkload::new(7);
        let a = w.clustered_columns(3, 16, ColumnCorrelation::Correlated, MAX);
        let b = TableWorkload::new(7).clustered_columns(3, 16, ColumnCorrelation::Correlated, MAX);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        for col in &a {
            assert_eq!(col.len(), 16 * VALUES_PER_PAGE);
            assert!(col.iter().all(|&v| v <= MAX));
        }
        let c = TableWorkload::new(8).clustered_columns(3, 16, ColumnCorrelation::Correlated, MAX);
        assert_ne!(a, c);
    }

    #[test]
    fn correlated_columns_select_overlapping_rows() {
        let w = TableWorkload::new(3);
        let cols = w.clustered_columns(2, 64, ColumnCorrelation::Correlated, MAX);
        let range = ValueRange::new(0, MAX / 4);
        let hits = |col: &[u64]| -> Vec<usize> {
            col.iter()
                .enumerate()
                .filter(|(_, v)| range.contains(**v))
                .map(|(i, _)| i)
                .collect()
        };
        let a = hits(&cols[0]);
        let b = hits(&cols[1]);
        let b_set: std::collections::HashSet<usize> = b.iter().copied().collect();
        let shared = a.iter().filter(|i| b_set.contains(i)).count();
        // Most qualifying rows are shared between the correlated columns.
        assert!(shared * 2 > a.len(), "{shared} shared of {}", a.len());
    }

    #[test]
    fn anti_correlated_columns_select_disjoint_rows() {
        let w = TableWorkload::new(3);
        let cols = w.clustered_columns(2, 64, ColumnCorrelation::AntiCorrelated, MAX);
        let range = ValueRange::new(0, MAX / 4);
        let a: Vec<usize> = cols[0]
            .iter()
            .enumerate()
            .filter(|(_, v)| range.contains(**v))
            .map(|(i, _)| i)
            .collect();
        let b_set: std::collections::HashSet<usize> = cols[1]
            .iter()
            .enumerate()
            .filter(|(_, v)| range.contains(**v))
            .map(|(i, _)| i)
            .collect();
        let shared = a.iter().filter(|i| b_set.contains(i)).count();
        // The same low range selects (nearly) disjoint rows.
        assert!(
            shared * 10 < a.len().max(1),
            "{shared} shared of {}",
            a.len()
        );
    }

    #[test]
    fn queries_have_fixed_width_and_follow_correlation() {
        let w = TableWorkload::new(5);
        for correlation in ColumnCorrelation::all() {
            let queries = w.conjunctive_queries(50, 3, 0.05, correlation, MAX);
            assert_eq!(queries.len(), 50);
            for q in &queries {
                assert_eq!(q.len(), 3);
                for r in q {
                    assert_eq!(r.width(), (MAX as f64 * 0.05).round() as u64);
                    assert!(r.high() <= MAX);
                }
                match correlation {
                    ColumnCorrelation::Correlated | ColumnCorrelation::AntiCorrelated => {
                        assert_eq!(q[0], q[1]);
                        assert_eq!(q[0], q[2]);
                    }
                    ColumnCorrelation::Independent => {}
                }
            }
            // Positions vary across queries.
            assert!(queries.iter().any(|q| q[0] != queries[0][0]));
        }
    }

    #[test]
    fn correlation_names() {
        assert_eq!(ColumnCorrelation::Correlated.name(), "correlated");
        assert_eq!(ColumnCorrelation::AntiCorrelated.name(), "anti-correlated");
        assert_eq!(ColumnCorrelation::Independent.name(), "independent");
        assert_eq!(ColumnCorrelation::all().len(), 3);
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn invalid_selectivity_panics() {
        TableWorkload::new(0).conjunctive_queries(1, 1, 0.0, ColumnCorrelation::Correlated, MAX);
    }

    #[test]
    #[should_panic(expected = "column")]
    fn zero_columns_panic() {
        TableWorkload::new(0).clustered_columns(0, 4, ColumnCorrelation::Correlated, MAX);
    }
}
