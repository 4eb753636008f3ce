//! Cross-variant equivalence: every indexing variant (explicit baselines,
//! physical scan, virtual view, adaptive layer, plain full scan) must
//! produce identical answers for identical workloads.

use adaptive_storage_views::baselines::{
    BitmapIndex, PageIdVectorIndex, PhysicalScanBaseline, RangeIndex, VirtualViewIndex,
    ZoneMapIndex,
};
use adaptive_storage_views::core::CreationOptions;
use adaptive_storage_views::prelude::*;
use adaptive_storage_views::workloads::DEFAULT_MAX_VALUE;

const PAGES: usize = 256;

fn reference(values: &[u64], range: &ValueRange) -> (u64, u128) {
    values
        .iter()
        .filter(|v| range.contains(**v))
        .fold((0u64, 0u128), |(c, s), &v| (c + 1, s + v as u128))
}

fn all_variants_agree(dist: &Distribution, k: u64, writes: &[(usize, u64)]) {
    let values = dist.generate_pages(PAGES, 0xBA5E);
    let index_range = ValueRange::new(0, k);
    let query = ValueRange::new(0, k / 2);

    let mut variants: Vec<Box<dyn RangeIndex>> = vec![
        Box::new(ZoneMapIndex::build(&values, index_range)),
        Box::new(BitmapIndex::build(SimBackend::new(), &values, index_range).unwrap()),
        Box::new(PageIdVectorIndex::build(SimBackend::new(), &values, index_range).unwrap()),
        Box::new(PhysicalScanBaseline::build(&values, index_range)),
        Box::new(
            VirtualViewIndex::build(
                SimBackend::new(),
                &values,
                index_range,
                &CreationOptions::ALL,
            )
            .unwrap(),
        ),
    ];
    // On Linux, additionally cross-check the virtual view on the real
    // rewiring backend (the AnyBackend default there).
    #[cfg(target_os = "linux")]
    variants.push(Box::new(
        VirtualViewIndex::build(
            AnyBackend::default_backend(),
            &values,
            index_range,
            &CreationOptions::NONE,
        )
        .unwrap(),
    ));

    // Expected answer: apply the writes to a plain copy and filter.
    let mut updated = values.clone();
    for &(row, v) in writes {
        updated[row] = v;
    }
    let (exp_count, exp_sum) = reference(&updated, &query);

    for variant in &mut variants {
        variant.apply_writes(writes);
        let answer = variant.query(&query);
        assert_eq!(
            (answer.count, answer.sum),
            (exp_count, exp_sum),
            "variant {} disagrees for {} / k={k}",
            variant.name(),
            dist.name()
        );
    }
}

#[test]
fn variants_agree_without_updates() {
    for dist in [Distribution::uniform(), Distribution::sine()] {
        for k in [2_000u64, 20_000, 200_000] {
            all_variants_agree(&dist, k, &[]);
        }
    }
}

#[test]
fn variants_agree_after_random_updates() {
    let values_len = PAGES * adaptive_storage_views::storage::VALUES_PER_PAGE;
    for dist in [Distribution::uniform(), Distribution::linear()] {
        let writes = UpdateWorkload::new(77).uniform_writes(2_000, values_len, DEFAULT_MAX_VALUE);
        all_variants_agree(&dist, 50_000, &writes);
    }
}

#[test]
fn variants_agree_after_targeted_updates() {
    // Updates that deliberately move values into and out of the indexed
    // range stress the index-maintenance paths of every variant.
    let values_len = PAGES * adaptive_storage_views::storage::VALUES_PER_PAGE;
    let k = 10_000u64;
    let mut writes = UpdateWorkload::new(5).targeted_writes(1_000, values_len, (0, k));
    writes.extend(UpdateWorkload::new(6).targeted_writes(
        1_000,
        values_len,
        (k + 1, DEFAULT_MAX_VALUE),
    ));
    all_variants_agree(&Distribution::uniform(), k, &writes);
}

#[test]
fn adaptive_layer_matches_explicit_baselines() {
    let dist = Distribution::sine();
    let values = dist.generate_pages(PAGES, 0xADA);
    let queries = QueryWorkload::new(3).fixed_selectivity(25, 0.05, dist.max_value());

    let mut adaptive = AdaptiveColumn::from_values(
        SimBackend::new(),
        &values,
        AdaptiveConfig::default().with_max_views(16),
    )
    .unwrap();
    for range in &queries {
        let outcome = adaptive.query(&RangeQuery::from_range(*range)).unwrap();
        let (count, sum) = reference(&values, range);
        assert_eq!((outcome.count, outcome.sum), (count, sum));
        // A freshly built explicit bitmap over the same range agrees too.
        let bitmap = BitmapIndex::build(SimBackend::new(), &values, *range).unwrap();
        let answer = bitmap.query(range);
        assert_eq!((answer.count, answer.sum), (count, sum));
    }
}

/// Clustered data with a partially filled last page: page `p` holds the
/// values `p * 1000 ..`, so which pages qualify — and what the widened
/// range of the resulting view must be — is known in closed form.
fn clustered_values(full_pages: usize, tail: usize) -> Vec<u64> {
    let per_page = adaptive_storage_views::storage::VALUES_PER_PAGE;
    (0..full_pages * per_page + tail)
        .map(|i| ((i / per_page) * 1000 + i % per_page) as u64)
        .collect()
}

/// Drives `AdaptiveColumn::query` through the page filter in both forms
/// (count-only and aggregate) against a naive `Vec<u64>` filter.
/// Root-level on purpose: tier-1 runs only this package's tests, and this
/// is where it sees the filter's lean pass, bounds pass and CPU dispatch.
fn adaptive_query_forms_match_naive_filter<B: Backend>(backend: B) {
    let values = clustered_values(40, 100);
    let per_page = adaptive_storage_views::storage::VALUES_PER_PAGE as u64;
    let ranges = [
        ValueRange::new(5_000, 9_400),   // pages 5..=9; leaves a widened view
        ValueRange::new(6_100, 8_300),   // routed to that view
        ValueRange::new(4_600, 4_900),   // between clusters: nothing qualifies
        ValueRange::new(2_000, 31_200),  // wide
        ValueRange::point(7_005),        // point
        ValueRange::new(40_050, 90_000), // the partial last page
        ValueRange::full(),
    ];
    for form in ["count-only", "aggregate"] {
        let mut column =
            AdaptiveColumn::from_values(backend.clone(), &values, AdaptiveConfig::default())
                .unwrap();
        for (idx, range) in ranges.iter().enumerate() {
            let query = RangeQuery::from_range(*range);
            let outcome = if form == "count-only" {
                column.query(&query.count_only())
            } else {
                column.query(&query)
            }
            .unwrap();
            let what = format!("{form}, {range:?}");
            let (count, sum) = reference(&values, range);
            assert_eq!(outcome.count, count, "{what}");
            assert_eq!(
                outcome.sum,
                if form == "count-only" { 0 } else { sum },
                "{what}"
            );
            if idx == 0 {
                // Page 4 tops out at 4000 + 510 and page 10 starts at
                // 10000: the bounds pass over those non-qualifying pages
                // widens the view beyond the query.
                let widened = ValueRange::new(4_000 + per_page, 9_999);
                assert!(
                    column
                        .views()
                        .partial_views()
                        .iter()
                        .any(|view| *view.range() == widened),
                    "{what}: no view with the widened range {widened:?}"
                );
            }
        }
    }
}

#[test]
fn adaptive_query_forms_match_naive_filter_sim() {
    adaptive_query_forms_match_naive_filter(SimBackend::new());
}

#[cfg(all(feature = "mmap", target_os = "linux"))]
#[test]
fn adaptive_query_forms_match_naive_filter_mmap() {
    adaptive_query_forms_match_naive_filter(MmapBackend::new());
}
