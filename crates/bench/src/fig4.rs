//! Figure 4 — adaptive query processing, single-view mode.
//!
//! Paper setup (§3.2): a single-column table of 1M pages, filled with the
//! sine, linear and sparse distributions. A sequence of 250 queries varies
//! the selected value range step-wise from 50M down to 5,000 and is fired in
//! shuffled order. Up to 100 partial views may be created adaptively. Per
//! query, the response time and the number of scanned physical pages are
//! reported; the baseline answers every query with a full column scan.

use asv_core::{AdaptiveColumn, AdaptiveConfig, RangeQuery};
use asv_vmem::Backend;
use asv_workloads::{Distribution, QueryWorkload, SweepSpec};

use crate::report::Table;
use crate::scale::Scale;

/// Per-query measurements (one plotted point of Figure 4).
#[derive(Clone, Copy, Debug)]
pub struct Fig4QueryRow {
    /// Position in the (shuffled) query sequence.
    pub query_idx: usize,
    /// Response time of the adaptive layer in milliseconds.
    pub adaptive_ms: f64,
    /// Physical pages scanned by the adaptive layer.
    pub scanned_pages: usize,
    /// Number of views used for this query.
    pub views_used: usize,
    /// Response time of the full-scan baseline in milliseconds.
    pub fullscan_ms: f64,
}

/// The result of one distribution's Figure 4 run.
#[derive(Clone, Debug)]
pub struct Fig4Result {
    /// Distribution name (sine / linear / sparse).
    pub distribution: String,
    /// Per-query rows in firing order.
    pub rows: Vec<Fig4QueryRow>,
    /// Number of partial views that exist after the sequence.
    pub final_views: usize,
    /// Accumulated adaptive response time in seconds (Table 1).
    pub adaptive_total_s: f64,
    /// Accumulated full-scan response time in seconds (Table 1).
    pub fullscan_total_s: f64,
}

/// Runs Figure 4 for one distribution on `backend`.
pub fn run_distribution<B: Backend>(
    backend: &B,
    dist: &Distribution,
    scale: &Scale,
    seed: u64,
) -> Fig4Result {
    let values = dist.generate_pages(scale.fig45_pages, seed);
    let spec = SweepSpec {
        num_queries: scale.num_queries,
        ..SweepSpec::default()
    };
    let queries = QueryWorkload::new(seed ^ 0xF164).selectivity_sweep(&spec);

    let config = AdaptiveConfig::paper_single_view();
    let mut adaptive = AdaptiveColumn::from_values(backend.clone(), &values, config)
        .expect("column materialization");

    let mut rows = Vec::with_capacity(queries.len());
    let mut adaptive_total = 0.0f64;
    let mut fullscan_total = 0.0f64;
    for (query_idx, range) in queries.iter().enumerate() {
        let q = RangeQuery::from_range(*range);
        let outcome = adaptive.query(&q).expect("adaptive query");
        let baseline = adaptive.full_scan(&q);
        assert_eq!(
            (outcome.count, outcome.sum),
            (baseline.count, baseline.sum),
            "adaptive answer diverges from full scan for query {query_idx}"
        );
        adaptive_total += outcome.elapsed.as_secs_f64();
        fullscan_total += baseline.elapsed.as_secs_f64();
        rows.push(Fig4QueryRow {
            query_idx,
            adaptive_ms: outcome.elapsed_ms(),
            scanned_pages: outcome.scanned_pages,
            views_used: outcome.num_views_used(),
            fullscan_ms: baseline.elapsed.as_secs_f64() * 1e3,
        });
    }
    Fig4Result {
        distribution: dist.name().to_string(),
        rows,
        final_views: adaptive.views().num_partial_views(),
        adaptive_total_s: adaptive_total,
        fullscan_total_s: fullscan_total,
    }
}

/// Runs Figure 4 for all three clustered distributions (4a sine, 4b linear,
/// 4c sparse).
pub fn run_all<B: Backend>(backend: &B, scale: &Scale, seed: u64) -> Vec<Fig4Result> {
    [
        Distribution::sine(),
        Distribution::linear(),
        Distribution::sparse(),
    ]
    .iter()
    .map(|d| run_distribution(backend, d, scale, seed))
    .collect()
}

/// Renders the per-query series of one distribution.
pub fn to_table(result: &Fig4Result) -> Table {
    let mut table = Table::new(
        format!(
            "Figure 4 ({}): adaptive single-view mode, per-query series",
            result.distribution
        ),
        &[
            "query",
            "adaptive ms",
            "scanned pages",
            "views used",
            "fullscan ms",
        ],
    );
    for r in &result.rows {
        table.add_row(vec![
            r.query_idx.to_string(),
            format!("{:.3}", r.adaptive_ms),
            r.scanned_pages.to_string(),
            r.views_used.to_string(),
            format!("{:.3}", r.fullscan_ms),
        ]);
    }
    table
}

/// Renders the summary line of one distribution (used by Table 1 as well).
pub fn summary_table(results: &[Fig4Result]) -> Table {
    let mut table = Table::new(
        "Figure 4 summary: accumulated response time over the sequence",
        &[
            "distribution",
            "fullscan total s",
            "adaptive total s",
            "speedup",
            "final views",
        ],
    );
    for r in results {
        table.add_row(vec![
            r.distribution.clone(),
            format!("{:.2}", r.fullscan_total_s),
            format!("{:.2}", r.adaptive_total_s),
            format!("{:.2}x", r.fullscan_total_s / r.adaptive_total_s.max(1e-9)),
            r.final_views.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sine_run_builds_views_and_matches_baseline() {
        let result = run_distribution(
            &asv_vmem::SimBackend::new(),
            &Distribution::sine(),
            &Scale::tiny(),
            3,
        );
        assert_eq!(result.distribution, "sine");
        assert_eq!(result.rows.len(), Scale::tiny().num_queries);
        assert!(result.final_views >= 1, "clustered data must produce views");
        assert!(result.adaptive_total_s > 0.0 && result.fullscan_total_s > 0.0);
        // Later queries should scan fewer pages than the column holds at
        // least once (views are being used).
        assert!(result
            .rows
            .iter()
            .any(|r| r.scanned_pages < Scale::tiny().fig45_pages));
        let table = to_table(&result);
        assert_eq!(table.num_rows(), result.rows.len());
        let summary = summary_table(std::slice::from_ref(&result));
        assert_eq!(summary.num_rows(), 1);
    }
}
