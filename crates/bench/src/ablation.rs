//! Ablation study over the design parameters of the adaptive layer.
//!
//! The paper fixes the discard tolerance `d`, the replacement tolerance `r`
//! (both 0) and the view limit per experiment. This module sweeps the knobs
//! that DESIGN.md calls out as design choices and reports their effect on
//! the accumulated response time of a Figure-4-style query sequence:
//!
//! * the maximum number of partial views,
//! * the discard / replacement tolerances,
//! * the routing mode,
//! * the view-creation optimizations,
//! * adaptive creation disabled entirely (static full-view-only baseline).

use asv_core::{AdaptiveColumn, AdaptiveConfig, CreationOptions, RangeQuery, RoutingMode};
use asv_vmem::Backend;
use asv_workloads::{Distribution, QueryWorkload, SweepSpec};

use crate::report::Table;
use crate::scale::Scale;

/// One ablation configuration and its measured outcome.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Human-readable description of the configuration.
    pub label: String,
    /// Accumulated response time over the sequence, in seconds.
    pub total_s: f64,
    /// Total physical pages scanned over the sequence.
    pub scanned_pages: usize,
    /// Partial views existing after the sequence.
    pub final_views: usize,
}

/// The set of configurations the ablation sweeps.
pub fn configurations() -> Vec<(String, AdaptiveConfig)> {
    let base = AdaptiveConfig::paper_single_view();
    let mut configs = vec![
        ("baseline (paper defaults)".to_string(), base),
        (
            "adaptive creation disabled".to_string(),
            base.with_adaptive_creation(false),
        ),
        ("max_views = 10".to_string(), base.with_max_views(10)),
        ("max_views = 400".to_string(), base.with_max_views(400)),
        (
            "discard tolerance d = 16".to_string(),
            base.with_discard_tolerance(16),
        ),
        (
            "replacement tolerance r = 16".to_string(),
            base.with_replacement_tolerance(16),
        ),
        (
            "multi-view routing".to_string(),
            base.with_routing(RoutingMode::MultiView),
        ),
        (
            "creation: no optimizations".to_string(),
            base.with_creation(CreationOptions::NONE),
        ),
        (
            "creation: coalescing only".to_string(),
            base.with_creation(CreationOptions::COALESCED),
        ),
        (
            "creation: background thread only".to_string(),
            base.with_creation(CreationOptions::CONCURRENT),
        ),
    ];
    configs.shrink_to_fit();
    configs
}

/// Runs the ablation on the sine distribution with a Figure-4-style query
/// sweep, on `backend`.
pub fn run<B: Backend>(backend: &B, scale: &Scale, seed: u64) -> Vec<AblationRow> {
    let dist = Distribution::sine();
    let values = dist.generate_pages(scale.fig45_pages, seed);
    let spec = SweepSpec {
        num_queries: scale.num_queries,
        ..SweepSpec::default()
    };
    let queries: Vec<RangeQuery> = QueryWorkload::new(seed ^ 0xAB1A)
        .selectivity_sweep(&spec)
        .into_iter()
        .map(RangeQuery::from_range)
        .collect();

    configurations()
        .into_iter()
        .map(|(label, config)| {
            let mut adaptive = AdaptiveColumn::from_values(backend.clone(), &values, config)
                .expect("column materialization");
            let mut total_s = 0.0f64;
            let mut scanned_pages = 0usize;
            for q in &queries {
                let outcome = adaptive.query(q).expect("query");
                total_s += outcome.elapsed.as_secs_f64();
                scanned_pages += outcome.scanned_pages;
            }
            AblationRow {
                label,
                total_s,
                scanned_pages,
                final_views: adaptive.views().num_partial_views(),
            }
        })
        .collect()
}

/// Renders the ablation rows.
pub fn to_table(rows: &[AblationRow]) -> Table {
    let mut table = Table::new(
        "Ablation: design-parameter sweep (sine distribution, Figure-4 query sweep)",
        &["configuration", "total s", "scanned pages", "final views"],
    );
    for r in rows {
        table.add_row(vec![
            r.label.clone(),
            format!("{:.2}", r.total_s),
            r.scanned_pages.to_string(),
            r.final_views.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configurations_cover_all_knobs() {
        let configs = configurations();
        assert!(configs.len() >= 9);
        assert!(configs.iter().any(|(_, c)| !c.adaptive_creation));
        assert!(configs
            .iter()
            .any(|(_, c)| c.routing == RoutingMode::MultiView));
        assert!(configs.iter().any(|(_, c)| c.discard_tolerance > 0));
        assert!(configs.iter().any(|(_, c)| c.replacement_tolerance > 0));
    }

    #[test]
    fn tiny_ablation_runs_all_configurations() {
        let rows = run(&asv_vmem::SimBackend::new(), &Scale::tiny(), 3);
        assert_eq!(rows.len(), configurations().len());
        for r in &rows {
            assert!(r.total_s > 0.0, "{} produced no measurement", r.label);
        }
        // The static configuration creates no views.
        let static_row = rows
            .iter()
            .find(|r| r.label.contains("disabled"))
            .expect("static configuration present");
        assert_eq!(static_row.final_views, 0);
        // The paper baseline creates at least one view and scans fewer pages
        // than the static configuration.
        let baseline = &rows[0];
        assert!(baseline.final_views >= 1);
        assert!(baseline.scanned_pages <= static_row.scanned_pages);
        let table = to_table(&rows);
        assert_eq!(table.num_rows(), rows.len());
    }
}
