//! Property test: synchronous alignment and a rebuild-from-scratch are
//! semantically identical, and replaying a plan equals aligning in place
//! and indexes what a view built afresh on the updated column indexes.
//!
//! Seeded-RNG property loops (the workspace's offline replacement for
//! proptest) drive random update batches through two twin columns per
//! case — one aligned with the batch (§2.4), one rebuilt from scratch — and
//! assert, on both backends:
//!
//! * both answer random range queries identically after the batch, and
//!   equal to a scalar rescan of the raw values;
//! * both views index exactly the same physical pages, after batches that
//!   add pages to views and remove pages from them.

use asv_core::{build_view_for_range, AdaptiveColumn, AdaptiveConfig, CreationOptions, RangeQuery};
use asv_storage::Column;
use asv_util::ValueRange;
use asv_vmem::{Backend, SimBackend, VALUES_PER_PAGE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAGES: usize = 40;
const VIEW_RANGES: [(u64, u64); 3] = [(3_000, 8_400), (12_000, 18_510), (25_000, 33_000)];
const UPDATES_PER_BATCH: usize = 300;
const QUERIES_PER_CASE: usize = 12;

/// Clustered data: value ranges map to page ranges, so the partial views
/// index meaningful page subsets.
fn clustered_values(rng: &mut StdRng) -> Vec<u64> {
    (0..PAGES * VALUES_PER_PAGE)
        .map(|i| {
            let page = (i / VALUES_PER_PAGE) as u64;
            page * 1000 + rng.gen_range(0u64..1500)
        })
        .collect()
}

/// Random writes across the whole column; values land inside and around
/// the view ranges so batches trigger both page additions and removals.
fn random_writes(rng: &mut StdRng) -> Vec<(usize, u64)> {
    let domain_max = PAGES as u64 * 1000 + 1500;
    (0..UPDATES_PER_BATCH)
        .map(|_| {
            let row = rng.gen_range(0..PAGES * VALUES_PER_PAGE);
            let value = rng.gen_range(0..domain_max);
            (row, value)
        })
        .collect()
}

fn random_queries(rng: &mut StdRng) -> Vec<RangeQuery> {
    let domain_max = PAGES as u64 * 1000 + 1500;
    (0..QUERIES_PER_CASE)
        .map(|_| {
            let lo = rng.gen_range(0..domain_max - 1);
            let width = rng.gen_range(500..domain_max / 4);
            RangeQuery::new(lo, (lo + width).min(domain_max))
        })
        .collect()
}

/// Builds an adaptive column with the three fixed partial views installed
/// (adaptive creation disabled so all twins keep identical view sets).
fn column_with_views<B: Backend>(backend: B, values: &[u64]) -> AdaptiveColumn<B> {
    let config = AdaptiveConfig::default().with_adaptive_creation(false);
    let mut col = AdaptiveColumn::from_values(backend, values, config).expect("column");
    for &(lo, hi) in &VIEW_RANGES {
        let range = ValueRange::new(lo, hi);
        let (buffer, _) =
            build_view_for_range(col.column(), &range, &CreationOptions::ALL).expect("view");
        col.install_view(range, buffer);
    }
    col
}

/// The slot → page layout of every partial view, in slot order.
fn view_layouts<B: Backend>(col: &AdaptiveColumn<B>) -> Vec<Vec<usize>> {
    col.views()
        .partial_views()
        .iter()
        .map(|view| {
            let table = col
                .column()
                .backend()
                .mapping_table(col.column().store(), view.buffer())
                .expect("mapping table");
            (0..view.num_pages())
                .map(|slot| table.phys_for_slot(slot).expect("dense mapped prefix"))
                .collect()
        })
        .collect()
}

fn scalar_answer(values: &[u64], q: &RangeQuery) -> (u64, u128) {
    let mut count = 0u64;
    let mut sum = 0u128;
    for &v in values {
        if q.range().contains(v) {
            count += 1;
            sum += v as u128;
        }
    }
    (count, sum)
}

/// The physical pages every partial view maps, ascending.
fn view_page_sets<B: Backend>(col: &AdaptiveColumn<B>) -> Vec<Vec<usize>> {
    view_layouts(col)
        .into_iter()
        .map(|mut pages| {
            pages.sort_unstable();
            pages
        })
        .collect()
}

fn check_backend<B: Backend>(make_backend: impl Fn() -> B, label: &str) {
    for case_seed in 0u64..3 {
        let mut rng = StdRng::seed_from_u64(0xA116_4E55 + case_seed);
        let mut values = clustered_values(&mut rng);
        let mut writes = random_writes(&mut rng);
        // Last, move every row of one page of the first view's range out of
        // every view, so the batch removes pages as well as adding them.
        let wiped = 4 + case_seed as usize;
        writes.extend((0..VALUES_PER_PAGE).map(|slot| (wiped * VALUES_PER_PAGE + slot, 10_000)));
        let queries = random_queries(&mut rng);

        let mut sync = column_with_views(make_backend(), &values);
        let mut rebuilt = column_with_views(make_backend(), &values);

        let sync_updates = sync.write_batch(&writes);
        rebuilt.write_batch(&writes);
        for &(row, value) in &writes {
            values[row] = value;
        }

        let generation_before = sync.view_generation();
        let stats = sync.align_views(&sync_updates).expect("sync align");
        assert_eq!(sync.view_generation(), generation_before + 1);
        assert!(
            stats.pages_added > 0 && stats.pages_removed > 0,
            "{label}/case{case_seed}: the batch must add and remove pages"
        );
        rebuilt.rebuild_views().expect("rebuild");
        assert_eq!(
            view_page_sets(&sync),
            view_page_sets(&rebuilt),
            "{label}/case{case_seed}: aligned and rebuilt views index different pages"
        );

        // Both twins answer every query identically, and correctly.
        for q in &queries {
            let expected = scalar_answer(&values, q);
            let s = sync.query(q).expect("sync query");
            let r = rebuilt.query(q).expect("rebuilt query");
            let f = sync.full_scan(q);
            for (who, out) in [
                ("sync", (s.count, s.sum)),
                ("rebuilt", (r.count, r.sum)),
                ("full-scan", (f.count, f.sum)),
            ] {
                assert_eq!(
                    out, expected,
                    "{label}/case{case_seed}: {who} disagrees with the scalar rescan"
                );
            }
        }
    }
}

#[test]
fn sync_and_rebuild_agree_on_sim_backend() {
    check_backend(SimBackend::new, "sim");
}

#[cfg(target_os = "linux")]
#[test]
fn sync_and_rebuild_agree_on_mmap_backend() {
    check_backend(asv_vmem::MmapBackend::new, "mmap");
}

/// The raw (non-AdaptiveColumn) pipeline: replaying a plan on a twin
/// column must equal in-place synchronous alignment, and both must index
/// what a view built from scratch on the updated column indexes. That last
/// side shares no planning code with the other two, so a planner fault
/// (one that skips a view, say) shows there.
#[test]
fn plan_replay_equals_in_place_alignment() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let values = clustered_values(&mut rng);
    let writes = random_writes(&mut rng);

    let build = || {
        let column = Column::from_values(SimBackend::new(), &values).expect("column");
        let mut views = asv_core::ViewSet::new(8);
        for &(lo, hi) in &VIEW_RANGES {
            let range = ValueRange::new(lo, hi);
            let (buffer, _) =
                build_view_for_range(&column, &range, &CreationOptions::ALL).expect("view");
            views.insert_unchecked(range, buffer);
        }
        (column, views)
    };

    let (mut col_a, mut views_a) = build();
    assert_eq!(views_a.num_partial_views(), VIEW_RANGES.len());
    let pages_before: Vec<Vec<usize>> = views_a
        .mappings()
        .map(|(_, _, _, table)| table.phys_pages_sorted())
        .collect();
    let updates = col_a.write_batch(&writes);
    let snapshot = asv_core::snapshot_alignment(&col_a, views_a.mappings(), &updates);
    let plan = asv_core::plan_alignment(&snapshot);
    asv_core::apply_plan(&col_a, &mut views_a, &plan).expect("apply");

    let (mut col_b, mut views_b) = build();
    let updates_b = col_b.write_batch(&writes);
    asv_core::align_views_after_updates(&col_b, &mut views_b, &updates_b).expect("sync");

    for (idx, before) in pages_before.iter().enumerate() {
        let table_a = col_a
            .backend()
            .mapping_table(col_a.store(), views_a.partial_view(idx).unwrap().buffer())
            .unwrap();
        let table_b = col_b
            .backend()
            .mapping_table(col_b.store(), views_b.partial_view(idx).unwrap().buffer())
            .unwrap();
        let layout = |t: &asv_vmem::MappingTable, n: usize| -> Vec<usize> {
            (0..n).map(|s| t.phys_for_slot(s).unwrap()).collect()
        };
        let n = views_a.partial_view(idx).unwrap().num_pages();
        assert_eq!(n, views_b.partial_view(idx).unwrap().num_pages());
        assert_eq!(layout(&table_a, n), layout(&table_b, n), "view {idx}");
        // The independent side: the view built afresh over its range.
        let range = *views_a.partial_view(idx).unwrap().range();
        let (fresh, _) =
            build_view_for_range(&col_a, &range, &CreationOptions::ALL).expect("fresh view");
        let fresh = col_a
            .backend()
            .mapping_table(col_a.store(), &fresh)
            .unwrap();
        assert_ne!(
            fresh.phys_pages_sorted(),
            *before,
            "view {idx}: the batch changes the view's pages"
        );
        assert_eq!(
            table_a.phys_pages_sorted(),
            fresh.phys_pages_sorted(),
            "view {idx}: aligned and built-afresh views index different pages"
        );
    }
}
