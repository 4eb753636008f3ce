//! Figure 5 — adaptive query processing, multi-view mode.
//!
//! Paper setup (§3.2): the sine distribution with queries of *fixed*
//! selectivity — 1 % (up to 200 views allowed) and 10 % (up to 20 views).
//! Multiple partial views answer a query together whenever they cover the
//! selected range in conjunction. Reported per query: response time and the
//! number of views considered.

use asv_core::{AdaptiveColumn, AdaptiveConfig, RangeQuery};
use asv_vmem::Backend;
use asv_workloads::{Distribution, QueryWorkload};

use crate::report::Table;
use crate::scale::Scale;

/// Per-query measurements (one plotted point of Figure 5).
#[derive(Clone, Copy, Debug)]
pub struct Fig5QueryRow {
    /// Position in the query sequence.
    pub query_idx: usize,
    /// Response time of the adaptive layer in milliseconds.
    pub adaptive_ms: f64,
    /// Number of views used for this query.
    pub views_used: usize,
    /// Physical pages scanned.
    pub scanned_pages: usize,
    /// Response time of the full-scan baseline in milliseconds.
    pub fullscan_ms: f64,
}

/// Result of one Figure 5 configuration.
#[derive(Clone, Debug)]
pub struct Fig5Result {
    /// Query selectivity (fraction of the value domain).
    pub selectivity: f64,
    /// Maximum number of views allowed.
    pub max_views: usize,
    /// Per-query rows.
    pub rows: Vec<Fig5QueryRow>,
    /// Partial views existing after the sequence.
    pub final_views: usize,
    /// Largest number of views used by any query.
    pub max_views_used: usize,
    /// Accumulated adaptive response time in seconds.
    pub adaptive_total_s: f64,
    /// Accumulated full-scan response time in seconds.
    pub fullscan_total_s: f64,
}

/// Runs one Figure 5 configuration (fixed selectivity, multi-view mode) on
/// `backend`.
pub fn run_config<B: Backend>(
    backend: &B,
    selectivity: f64,
    max_views: usize,
    scale: &Scale,
    seed: u64,
) -> Fig5Result {
    let dist = Distribution::sine();
    let values = dist.generate_pages(scale.fig45_pages, seed);
    let queries = QueryWorkload::new(seed ^ 0xF165).fixed_selectivity(
        scale.num_queries,
        selectivity,
        dist.max_value(),
    );
    let config = AdaptiveConfig::paper_multi_view(max_views);
    let mut adaptive = AdaptiveColumn::from_values(backend.clone(), &values, config)
        .expect("column materialization");

    let mut rows = Vec::with_capacity(queries.len());
    let mut adaptive_total = 0.0f64;
    let mut fullscan_total = 0.0f64;
    let mut max_views_used = 0usize;
    for (query_idx, range) in queries.iter().enumerate() {
        let q = RangeQuery::from_range(*range);
        let outcome = adaptive.query(&q).expect("adaptive query");
        let baseline = adaptive.full_scan(&q);
        assert_eq!(
            (outcome.count, outcome.sum),
            (baseline.count, baseline.sum),
            "adaptive answer diverges from full scan for query {query_idx}"
        );
        max_views_used = max_views_used.max(outcome.num_views_used());
        adaptive_total += outcome.elapsed.as_secs_f64();
        fullscan_total += baseline.elapsed.as_secs_f64();
        rows.push(Fig5QueryRow {
            query_idx,
            adaptive_ms: outcome.elapsed_ms(),
            views_used: outcome.num_views_used(),
            scanned_pages: outcome.scanned_pages,
            fullscan_ms: baseline.elapsed.as_secs_f64() * 1e3,
        });
    }
    Fig5Result {
        selectivity,
        max_views,
        rows,
        final_views: adaptive.views().num_partial_views(),
        max_views_used,
        adaptive_total_s: adaptive_total,
        fullscan_total_s: fullscan_total,
    }
}

/// Runs both paper configurations: 1 % selectivity (≤ 200 views, Figure 5a)
/// and 10 % selectivity (≤ 20 views, Figure 5b).
pub fn run_all<B: Backend>(backend: &B, scale: &Scale, seed: u64) -> Vec<Fig5Result> {
    vec![
        run_config(backend, 0.01, 200, scale, seed),
        run_config(backend, 0.10, 20, scale, seed),
    ]
}

/// Renders the per-query series of one configuration.
pub fn to_table(result: &Fig5Result) -> Table {
    let mut table = Table::new(
        format!(
            "Figure 5 (sine, selectivity {:.0}%, max {} views): multi-view mode",
            result.selectivity * 100.0,
            result.max_views
        ),
        &[
            "query",
            "adaptive ms",
            "views used",
            "scanned pages",
            "fullscan ms",
        ],
    );
    for r in &result.rows {
        table.add_row(vec![
            r.query_idx.to_string(),
            format!("{:.3}", r.adaptive_ms),
            r.views_used.to_string(),
            r.scanned_pages.to_string(),
            format!("{:.3}", r.fullscan_ms),
        ]);
    }
    table
}

/// Renders the summary over all configurations.
pub fn summary_table(results: &[Fig5Result]) -> Table {
    let mut table = Table::new(
        "Figure 5 summary: accumulated response time over the sequence",
        &[
            "selectivity",
            "max views",
            "fullscan total s",
            "adaptive total s",
            "speedup",
            "max views used",
            "final views",
        ],
    );
    for r in results {
        table.add_row(vec![
            format!("{:.0}%", r.selectivity * 100.0),
            r.max_views.to_string(),
            format!("{:.2}", r.fullscan_total_s),
            format!("{:.2}", r.adaptive_total_s),
            format!("{:.2}x", r.fullscan_total_s / r.adaptive_total_s.max(1e-9)),
            r.max_views_used.to_string(),
            r.final_views.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_multi_view_run_uses_views() {
        let result = run_config(&asv_vmem::SimBackend::new(), 0.05, 50, &Scale::tiny(), 5);
        assert_eq!(result.rows.len(), Scale::tiny().num_queries);
        assert!(result.final_views >= 1);
        assert!(result.max_views_used >= 1);
        assert!(result.adaptive_total_s > 0.0);
        let t = to_table(&result);
        assert_eq!(t.num_rows(), result.rows.len());
        let s = summary_table(std::slice::from_ref(&result));
        assert_eq!(s.num_rows(), 1);
    }
}
