//! Property-based tests over the whole stack.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these run randomized cases from the workspace's seeded RNG shim — fully
//! deterministic for the hard-coded seeds. The central invariants:
//!
//! 1. For *any* data and *any* query sequence, the adaptive layer returns
//!    exactly the same answers as a naive filter over the raw values — in
//!    both routing modes, with and without the creation optimizations, and
//!    on clustered data whose overlapping views share pages.
//! 2. A served snapshot collects exactly the rows a naive filter selects.
//! 3. For *any* update batch, batched view alignment leaves every partial
//!    view indexing exactly the pages a from-scratch rebuild would index.
//! 4. The retention policy never exceeds the configured view limit.

use adaptive_storage_views::core::{
    align_views_after_updates, build_view_for_range, CreationOptions, RoutingMode, ServeTable,
    ViewSet,
};
use adaptive_storage_views::prelude::*;
use adaptive_storage_views::storage::VALUES_PER_PAGE;
use adaptive_storage_views::vmem::maps::kernel_mapping_tables;
use adaptive_storage_views::vmem::{Backend, ViewBuffer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small domains keep page-level clustering interesting while still hitting
/// lots of edge cases (empty ranges, full ranges, repeated values).
const MAX_VALUE: u64 = 10_000;

fn reference(values: &[u64], range: &ValueRange) -> (u64, u128) {
    values
        .iter()
        .filter(|v| range.contains(**v))
        .fold((0u64, 0u128), |(c, s), &v| (c + 1, s + v as u128))
}

/// Between a handful of rows and ~6 pages, values in a small domain.
fn arb_values(rng: &mut StdRng) -> Vec<u64> {
    let len = rng.gen_range(1usize..6 * VALUES_PER_PAGE);
    (0..len).map(|_| rng.gen_range(0..=MAX_VALUE)).collect()
}

fn arb_queries(rng: &mut StdRng) -> Vec<(u64, u64)> {
    let n = rng.gen_range(1usize..12);
    (0..n)
        .map(|_| (rng.gen_range(0..=MAX_VALUE), rng.gen_range(0..=MAX_VALUE)))
        .collect()
}

fn normalize(lo: u64, hi: u64) -> ValueRange {
    if lo <= hi {
        ValueRange::new(lo, hi)
    } else {
        ValueRange::new(hi, lo)
    }
}

#[test]
fn adaptive_answers_equal_naive_filter() {
    let mut rng = StdRng::seed_from_u64(0xADA0);
    for case in 0..48 {
        let values = arb_values(&mut rng);
        let queries = arb_queries(&mut rng);
        let multi_view = rng.gen_bool(0.5);
        let concurrent = rng.gen_bool(0.5);
        let max_views = rng.gen_range(1usize..8);
        let routing = if multi_view {
            RoutingMode::MultiView
        } else {
            RoutingMode::SingleView
        };
        let creation = if concurrent {
            CreationOptions::ALL
        } else {
            CreationOptions::COALESCED
        };
        let config = AdaptiveConfig::default()
            .with_routing(routing)
            .with_max_views(max_views)
            .with_creation(creation);
        let mut adaptive = AdaptiveColumn::from_values(SimBackend::new(), &values, config).unwrap();
        for &(lo, hi) in &queries {
            let range = normalize(lo, hi);
            let outcome = adaptive.query(&RangeQuery::from_range(range)).unwrap();
            let (count, sum) = reference(&values, &range);
            assert_eq!(outcome.count, count, "case {case}, query {range}");
            assert_eq!(outcome.sum, sum, "case {case}, query {range}");
            assert!(adaptive.views().num_partial_views() <= max_views);
        }
    }

    // Clustered columns: overlapping queries leave overlapping views that
    // share boundary pages, and multi-view routing combines them.
    let mut rng = StdRng::seed_from_u64(0xE00D);
    let mut most_views_used = 0;
    for case in 0..3 {
        let (values, queries) = clustered_case(&mut rng);
        for routing in [RoutingMode::SingleView, RoutingMode::MultiView] {
            let config = AdaptiveConfig::default()
                .with_routing(routing)
                .with_max_views(8);
            let what = format!("clustered case {case}, {routing:?}");
            let used =
                answers_equal_naive_filter(SimBackend::new(), &values, &queries, config, &what);
            most_views_used = most_views_used.max(used);
            #[cfg(all(feature = "mmap", target_os = "linux"))]
            answers_equal_naive_filter(MmapBackend::new(), &values, &queries, config, &what);
        }
    }
    assert!(most_views_used >= 2, "no query combined views");

    // Two overlapping views, then a query spanning both: multi-view
    // routing scans their shared pages once.
    let values: Vec<u64> = (0..CLUSTERED_PAGES * VALUES_PER_PAGE)
        .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
        .collect();
    let queries = [
        ValueRange::new(5_000, 12_000),
        ValueRange::new(11_000, 20_000),
        ValueRange::new(6_000, 19_000),
    ];
    let config = AdaptiveConfig::paper_multi_view(8);
    let used = answers_equal_naive_filter(SimBackend::new(), &values, &queries, config, "shared");
    assert!(used >= 2, "the spanning query combines both views");
}

const CLUSTERED_PAGES: usize = 48;

/// A clustered column with seeded jitter (page `p` holds values around
/// `p * 1000`) and overlapping queries of varying widths.
fn clustered_case(rng: &mut StdRng) -> (Vec<u64>, Vec<ValueRange>) {
    let values = (0..CLUSTERED_PAGES * VALUES_PER_PAGE)
        .map(|i| (i / VALUES_PER_PAGE) as u64 * 1000 + rng.gen_range(0u64..1500))
        .collect();
    let domain_max = CLUSTERED_PAGES as u64 * 1000 + 1500;
    let queries = (0..14)
        .map(|_| {
            let lo = rng.gen_range(0..domain_max - 1);
            let width = rng.gen_range(500..domain_max / 3);
            ValueRange::new(lo, (lo + width).min(domain_max))
        })
        .collect();
    (values, queries)
}

/// Runs `queries` through an adaptive column, asserting every answer
/// against a naive filter. Returns the most views one query used.
fn answers_equal_naive_filter<B: Backend>(
    backend: B,
    values: &[u64],
    queries: &[ValueRange],
    config: AdaptiveConfig,
    what: &str,
) -> usize {
    let mut adaptive = AdaptiveColumn::from_values(backend, values, config).unwrap();
    let mut most_views_used = 0;
    for range in queries {
        let outcome = adaptive.query(&RangeQuery::from_range(*range)).unwrap();
        assert_eq!(
            (outcome.count, outcome.sum),
            reference(values, range),
            "{what}, query {range}"
        );
        most_views_used = most_views_used.max(outcome.num_views_used());
    }
    most_views_used
}

#[test]
fn collected_rows_are_exactly_the_matching_rows() {
    let mut rng = StdRng::seed_from_u64(0xADA1);
    for case in 0..48 {
        let values = arb_values(&mut rng);
        let range = normalize(rng.gen_range(0..=MAX_VALUE), rng.gen_range(0..=MAX_VALUE));
        let view = normalize(rng.gen_range(0..=MAX_VALUE), rng.gen_range(0..=MAX_VALUE));
        let mut table = ServeTable::new(SimBackend::new(), AdaptiveConfig::default());
        let col = table.add_column(&values).unwrap();
        table.install_view(col, view).unwrap();
        let rows = table.handle().pin().collect_rows(col, &range);
        let expected: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| range.contains(**v))
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(rows, expected, "case {case}, query {range}, view {view}");
    }
}

#[test]
fn alignment_equals_rebuild_for_any_batch() {
    let mut rng = StdRng::seed_from_u64(0xADA2);
    for case in 0..48 {
        let values = arb_values(&mut rng);
        let range = normalize(rng.gen_range(0..=MAX_VALUE), rng.gen_range(0..=MAX_VALUE));
        let num_writes = rng.gen_range(0usize..120);
        let writes: Vec<(usize, u64)> = (0..num_writes)
            .map(|_| {
                (
                    rng.gen_range(0usize..6 * VALUES_PER_PAGE) % values.len(),
                    rng.gen_range(0..=MAX_VALUE),
                )
            })
            .collect();

        alignment_equals_rebuild(SimBackend::new(), &values, range, &writes, case);
        #[cfg(all(feature = "mmap", target_os = "linux"))]
        alignment_equals_rebuild(MmapBackend::new(), &values, range, &writes, case);
    }
}

fn alignment_equals_rebuild<B: Backend>(
    backend: B,
    values: &[u64],
    range: ValueRange,
    writes: &[(usize, u64)],
    case: usize,
) {
    let at = format!("{} case {case}, view {range}", backend.name());
    let mut column = Column::from_values(backend, values).unwrap();
    let mut views = ViewSet::new(2);
    let (buf, _) = build_view_for_range(&column, &range, &CreationOptions::COALESCED).unwrap();
    views.insert_unchecked(range, buf);

    let updates = column.write_batch(writes);
    align_views_after_updates(&column, &mut views, &updates).unwrap();

    // Checkpoint: the table the view owns is the one the kernel holds (the
    // `/proc/self/maps` oracle answers on the mmap backend only), and it
    // maps every slot of the aligned view's prefix.
    let view = views.partial_view(0).unwrap();
    let table = view.buffer().mapping();
    if let Some(kernel) = kernel_mapping_tables(&[view.buffer()]).unwrap() {
        assert_eq!(table, &kernel[0], "{at}: owned table drifted");
    }
    assert!(
        (0..view.num_pages()).all(|slot| table.phys_for_slot(slot).is_some()),
        "{at}: gap in the mapped prefix"
    );

    // Compare the aligned view's page set against a rebuild.
    let aligned: Vec<usize> = column
        .backend()
        .mapping_table(column.store(), view.buffer())
        .unwrap()
        .phys_pages_sorted();
    let expected: Vec<usize> = (0..column.num_pages())
        .filter(|&p| {
            column
                .page_ref(p)
                .values()
                .iter()
                .any(|v| range.contains(*v))
        })
        .collect();
    assert_eq!(aligned, expected, "{at}");

    // And scanning the aligned view answers the view's range exactly.
    let mut count = 0u64;
    for raw in view.buffer().iter_pages() {
        count += column.wrap_view_page(raw).scan_filter(&range).count;
    }
    let current: Vec<u64> = column.to_vec();
    let (exp_count, _) = reference(&current, &range);
    assert_eq!(count, exp_count, "{at}");
}

#[test]
fn full_view_scan_equals_naive_filter() {
    let mut rng = StdRng::seed_from_u64(0xADA3);
    for case in 0..48 {
        let values = arb_values(&mut rng);
        let range = normalize(rng.gen_range(0..=MAX_VALUE), rng.gen_range(0..=MAX_VALUE));
        let column = Column::from_values(SimBackend::new(), &values).unwrap();
        let res = column.full_scan(&range);
        let (count, sum) = reference(&values, &range);
        assert_eq!(res.count, count, "case {case}, query {range}");
        assert_eq!(res.sum, sum, "case {case}, query {range}");
    }
}
