//! End-to-end integration tests: workload generation → storage layer →
//! adaptive view layer, on both rewiring backends.

use adaptive_storage_views::core::{RoutingMode, SequenceStats, ServeTable};
use adaptive_storage_views::prelude::*;
use adaptive_storage_views::vmem::Backend;
use adaptive_storage_views::workloads::SweepSpec;

const PAGES: usize = 512;

fn reference_answer(values: &[u64], range: &ValueRange) -> (u64, u128) {
    values
        .iter()
        .filter(|v| range.contains(**v))
        .fold((0u64, 0u128), |(c, s), &v| (c + 1, s + v as u128))
}

fn run_sequence<B: Backend>(backend: B, dist: &Distribution, routing: RoutingMode) {
    let values = dist.generate_pages(PAGES, 0xE2E);
    let spec = SweepSpec {
        num_queries: 40,
        ..SweepSpec::default()
    };
    let queries = QueryWorkload::new(17).selectivity_sweep(&spec);
    let config = AdaptiveConfig::default()
        .with_routing(routing)
        .with_max_views(32);
    let mut adaptive = AdaptiveColumn::from_values(backend, &values, config).unwrap();
    let mut stats = SequenceStats::new();
    for range in &queries {
        let outcome = adaptive.query(&RangeQuery::from_range(*range)).unwrap();
        let (count, sum) = reference_answer(&values, range);
        assert_eq!(outcome.count, count, "{} {:?}", dist.name(), routing);
        assert_eq!(outcome.sum, sum, "{} {:?}", dist.name(), routing);
        stats.record(&outcome);
    }
    // The adaptive layer must have created at least one view on clustered
    // data and must scan fewer pages in total than pure full scanning.
    if dist.name() != "uniform" {
        assert!(
            adaptive.views().num_partial_views() > 0,
            "no views created for {}",
            dist.name()
        );
        assert!(
            stats.total_scanned_pages() < queries.len() * PAGES,
            "no scan savings for {}",
            dist.name()
        );
    }
}

#[test]
fn adaptive_sequences_are_exact_on_sim_backend() {
    for dist in [
        Distribution::sine(),
        Distribution::linear(),
        Distribution::sparse(),
        Distribution::uniform(),
    ] {
        run_sequence(SimBackend::new(), &dist, RoutingMode::SingleView);
        run_sequence(SimBackend::new(), &dist, RoutingMode::MultiView);
    }
}

#[cfg(all(feature = "mmap", target_os = "linux"))]
#[test]
fn adaptive_sequences_are_exact_on_mmap_backend() {
    for dist in [Distribution::sine(), Distribution::sparse()] {
        run_sequence(MmapBackend::new(), &dist, RoutingMode::SingleView);
        run_sequence(MmapBackend::new(), &dist, RoutingMode::MultiView);
    }
}

#[test]
fn later_queries_scan_fewer_pages_on_clustered_data() {
    let dist = Distribution::sine();
    let values = dist.generate_pages(PAGES, 1);
    let mut adaptive = AdaptiveColumn::from_values(
        AnyBackend::default_backend(),
        &values,
        AdaptiveConfig::paper_single_view(),
    )
    .unwrap();
    // Repeatedly query similar ranges: after the first query, partial views
    // should take over.
    let q = RangeQuery::new(10_000_000, 12_000_000);
    let first = adaptive.query(&q).unwrap();
    assert_eq!(first.scanned_pages, PAGES);
    let narrower = RangeQuery::new(10_500_000, 11_500_000);
    let second = adaptive.query(&narrower).unwrap();
    assert!(
        second.scanned_pages < PAGES / 2,
        "second query should use a partial view (scanned {})",
        second.scanned_pages
    );
}

#[test]
fn tables_hold_adaptive_ready_columns() {
    // A multi-column serving table answers range and conjunctive reads
    // over its columns, and one column's data wraps in the adaptive layer.
    let backend = SimBackend::new();
    let mut table = ServeTable::new(backend.clone(), AdaptiveConfig::default());
    let temperature = Distribution::sine().generate_pages(64, 2);
    let pressure = Distribution::linear().generate_pages(64, 3);
    let t = table.add_column(&temperature).unwrap();
    let p = table.add_column(&pressure).unwrap();
    let q = RangeQuery::new(0, 50_000_000);
    table.install_view(t, *q.range()).unwrap();
    let snap = table.handle().pin();
    assert_eq!(
        (snap.num_columns(), snap.num_rows(t)),
        (2, temperature.len())
    );
    let answer = snap.query_range(t, q.range());
    assert_eq!(
        (answer.count, answer.sum),
        reference_answer(&temperature, q.range())
    );
    let high = ValueRange::new(40_000_000, u64::MAX);
    let both = snap.query_conjunctive(&[(t, *q.range()), (p, high)]);
    let expected = (0..temperature.len())
        .filter(|&row| q.range().contains(temperature[row]) && high.contains(pressure[row]))
        .count();
    assert!(expected > 0, "the two predicates share rows");
    assert_eq!(both.count, expected as u64);
    let mut adaptive =
        AdaptiveColumn::from_values(backend, &temperature, AdaptiveConfig::default()).unwrap();
    let outcome = adaptive.query(&q).unwrap();
    assert_eq!(outcome.count, answer.count);
}

#[test]
fn routing_mode_can_be_switched_mid_sequence() {
    let dist = Distribution::sine();
    let values = dist.generate_pages(256, 5);
    let mut adaptive = AdaptiveColumn::from_values(
        SimBackend::new(),
        &values,
        AdaptiveConfig::default().with_max_views(50),
    )
    .unwrap();
    for i in 0..10u64 {
        let lo = i * 9_000_000;
        let q = RangeQuery::new(lo, lo + 4_000_000);
        let a = adaptive.query(&q).unwrap();
        let (count, _) = reference_answer(&values, q.range());
        assert_eq!(a.count, count);
    }
    adaptive.set_routing(RoutingMode::MultiView);
    let q = RangeQuery::new(5_000_000, 85_000_000);
    let outcome = adaptive.query(&q).unwrap();
    let (count, sum) = reference_answer(&values, q.range());
    assert_eq!((outcome.count, outcome.sum), (count, sum));
}
