//! Sensor time-series scenario: the workload the paper's introduction
//! motivates — clustered (sine-shaped) sensor readings queried by value
//! range, where the adaptive storage layer gradually builds up partial views
//! and routes queries to them.
//!
//! This is a miniature of the Figure 4 experiment: a shuffled sequence of
//! range queries of decreasing width, answered once by the adaptive layer
//! and once with full scans, reporting the accumulated response times.
//!
//! Run with:
//! ```text
//! cargo run --release --example sensor_timeseries [sim|mmap]
//! ```

use adaptive_storage_views::core::SequenceStats;
use adaptive_storage_views::prelude::*;
use adaptive_storage_views::workloads::SweepSpec;

fn main() {
    let backend = AnyBackend::from_cli_arg().unwrap_or_else(|e| panic!("{e}"));
    let pages = 8_192; // ≈ 32 MiB of sensor readings
    let dist = Distribution::sine();
    let values = dist.generate_pages(pages, 7);

    let spec = SweepSpec {
        num_queries: 120,
        ..SweepSpec::default()
    };
    let queries: Vec<RangeQuery> = QueryWorkload::new(99)
        .selectivity_sweep(&spec)
        .into_iter()
        .map(RangeQuery::from_range)
        .collect();

    // Adaptive run (single-view routing, paper defaults).
    let mut adaptive = AdaptiveColumn::from_values(backend, &values, AdaptiveConfig::default())
        .expect("adaptive column");
    let mut adaptive_stats = SequenceStats::new();
    let mut fullscan_stats = SequenceStats::new();

    for q in &queries {
        let outcome = adaptive.query(q).expect("query");
        let baseline = adaptive.full_scan(q);
        assert_eq!(outcome.count, baseline.count);
        adaptive_stats.record(&outcome);
        fullscan_stats.record(&baseline);
    }

    println!(
        "sensor time-series workload ({} pages, {} queries)",
        pages,
        queries.len()
    );
    println!(
        "  full scans only       : {:>8.2} s accumulated ({:>7.2} ms mean)",
        fullscan_stats.accumulated_seconds(),
        fullscan_stats.mean_ms()
    );
    println!(
        "  adaptive view routing : {:>8.2} s accumulated ({:>7.2} ms mean)",
        adaptive_stats.accumulated_seconds(),
        adaptive_stats.mean_ms()
    );
    println!(
        "  speedup               : {:>8.2}x",
        fullscan_stats.accumulated_seconds() / adaptive_stats.accumulated_seconds().max(1e-9)
    );
    println!(
        "  partial views created : {:>8} (of {} allowed), {} candidate views retained",
        adaptive.views().num_partial_views(),
        adaptive.config().max_views,
        adaptive_stats.views_retained()
    );
    println!(
        "  pages scanned         : {:>8} adaptive vs {} full scans",
        adaptive_stats.total_scanned_pages(),
        fullscan_stats.total_scanned_pages()
    );

    // Show how the scan effort drops over the sequence (first vs last decile).
    let records = adaptive_stats.records();
    let decile = records.len() / 10;
    let early: usize = records[..decile].iter().map(|r| r.scanned_pages).sum();
    let late: usize = records[records.len() - decile..]
        .iter()
        .map(|r| r.scanned_pages)
        .sum();
    println!(
        "  early-phase scan work : {:>8} pages over the first {decile} queries",
        early
    );
    println!(
        "  late-phase scan work  : {:>8} pages over the last {decile} queries",
        late
    );
}
