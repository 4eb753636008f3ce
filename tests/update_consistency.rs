//! Update-path integration tests: writes through the storage layer, batched
//! view alignment, and queries afterwards must stay consistent across the
//! whole stack and across both backends.

use adaptive_storage_views::core::{
    align_views_after_updates, build_view_for_range, rebuild_all_views, CreationOptions, ViewSet,
};
use adaptive_storage_views::prelude::*;
use adaptive_storage_views::storage::VALUES_PER_PAGE;
use adaptive_storage_views::vmem::maps::kernel_mapping_tables;
use adaptive_storage_views::vmem::{Backend, ViewBuffer};

const PAGES: usize = 256;

fn reference(values: &[u64], range: &ValueRange) -> (u64, u128) {
    values
        .iter()
        .filter(|v| range.contains(**v))
        .fold((0u64, 0u128), |(c, s), &v| (c + 1, s + v as u128))
}

/// The pages a view *should* index after all updates.
fn expected_pages<B: Backend>(column: &Column<B>, range: &ValueRange) -> Vec<usize> {
    (0..column.num_pages())
        .filter(|&p| {
            column
                .page_ref(p)
                .values()
                .iter()
                .any(|v| range.contains(*v))
        })
        .collect()
}

fn view_pages<B: Backend>(column: &Column<B>, views: &ViewSet<B>, idx: usize) -> Vec<usize> {
    let table = column
        .backend()
        .mapping_table(column.store(), views.partial_view(idx).unwrap().buffer())
        .unwrap();
    table.phys_pages_sorted()
}

/// Checkpoint after an alignment round: the mapping table every view owns
/// is the one the kernel holds (asked through the `/proc/self/maps` oracle
/// where views live in kernel virtual memory — the mmap backend), and it
/// maps every slot of the view's prefix.
fn check_owned_tables<B: Backend>(views: &ViewSet<B>, at: &str) {
    let buffers: Vec<&B::View> = views.partial_views().iter().map(|v| v.buffer()).collect();
    if let Some(kernel) = kernel_mapping_tables(&buffers).unwrap() {
        for (i, (buffer, kernel)) in buffers.iter().zip(&kernel).enumerate() {
            assert_eq!(buffer.mapping(), kernel, "{at}: view {i} drifted");
        }
    }
    for (i, view) in views.partial_views().iter().enumerate() {
        let table = view.buffer().mapping();
        assert!(
            (0..view.num_pages()).all(|slot| table.phys_for_slot(slot).is_some()),
            "{at}: view {i} has a gap"
        );
        assert_eq!(table.len(), view.num_pages(), "{at}: view {i}");
    }
}

fn alignment_equals_rebuild<B: Backend>(backend: B) {
    let dist = Distribution::sine();
    let mut values = dist.generate_pages(PAGES, 0x0DD);
    let ranges = [
        ValueRange::new(0, 5_000_000),
        ValueRange::new(40_000_000, 60_000_000),
        ValueRange::new(99_000_000, 100_000_000),
    ];
    let mut column = Column::from_values(backend, &values).unwrap();
    let mut views = ViewSet::new(8);
    for r in &ranges {
        let (buf, _) = build_view_for_range(&column, r, &CreationOptions::ALL).unwrap();
        views.insert_unchecked(*r, buf);
    }

    // Three successive batches, each aligned individually.
    for batch_idx in 0..3u64 {
        let writes =
            UpdateWorkload::new(batch_idx).uniform_writes(1_500, column.num_rows(), 100_000_000);
        for &(row, v) in &writes {
            values[row] = v;
        }
        let updates = column.write_batch(&writes);
        align_views_after_updates(&column, &mut views, &updates).unwrap();
        check_owned_tables(&views, &format!("batch {batch_idx}"));

        for (i, r) in ranges.iter().enumerate() {
            assert_eq!(
                view_pages(&column, &views, i),
                expected_pages(&column, r),
                "batch {batch_idx}: view {i} misaligned"
            );
            // Scanning the view yields exactly the qualifying values.
            let view = views.partial_view(i).unwrap();
            let mut count = 0u64;
            let mut sum = 0u128;
            for raw in adaptive_storage_views::vmem::ViewBuffer::iter_pages(view.buffer()) {
                let page = column.wrap_view_page(raw);
                let res = page.scan_filter(r);
                count += res.count;
                sum += res.sum;
            }
            let (exp_count, exp_sum) = reference(&values, r);
            assert_eq!((count, sum), (exp_count, exp_sum), "view {i} content wrong");
        }
    }

    // A full rebuild produces the same page sets as incremental alignment.
    rebuild_all_views(&column, &mut views, &CreationOptions::ALL).unwrap();
    check_owned_tables(&views, "rebuild");
    for (i, r) in ranges.iter().enumerate() {
        assert_eq!(view_pages(&column, &views, i), expected_pages(&column, r));
    }
}

#[test]
fn alignment_equals_rebuild_on_sim_backend() {
    alignment_equals_rebuild(SimBackend::new());
}

#[cfg(all(feature = "mmap", target_os = "linux"))]
#[test]
fn alignment_equals_rebuild_on_mmap_backend() {
    alignment_equals_rebuild(MmapBackend::new());
}

#[test]
fn adaptive_column_stays_exact_under_interleaved_updates_and_queries() {
    let dist = Distribution::linear();
    let mut values = dist.generate_pages(PAGES, 0xF00D);
    let mut adaptive = AdaptiveColumn::from_values(
        AnyBackend::default_backend(),
        &values,
        AdaptiveConfig::default().with_max_views(16),
    )
    .unwrap();

    for round in 0..5u64 {
        // A few queries build/refresh views.
        for i in 0..5u64 {
            let lo = (round * 13 + i * 7) * 1_000_000 % 90_000_000;
            let q = RangeQuery::new(lo, lo + 5_000_000);
            let outcome = adaptive.query(&q).unwrap();
            let (count, sum) = reference(&values, q.range());
            assert_eq!((outcome.count, outcome.sum), (count, sum), "round {round}");
        }
        // Then a batch of updates lands and views are re-aligned.
        let writes = UpdateWorkload::new(round).uniform_writes(800, values.len(), 100_000_000);
        for &(row, v) in &writes {
            values[row] = v;
        }
        let updates = adaptive.write_batch(&writes);
        adaptive.align_views(&updates).unwrap();
        check_owned_tables(adaptive.views(), &format!("round {round}"));
    }

    // Final verification across a spread of ranges.
    for lo in (0..90_000_000u64).step_by(10_000_000) {
        let q = RangeQuery::new(lo, lo + 9_999_999);
        let outcome = adaptive.query(&q).unwrap();
        let (count, sum) = reference(&values, q.range());
        assert_eq!((outcome.count, outcome.sum), (count, sum));
    }
}

#[test]
fn updates_on_page_boundaries_are_handled() {
    // Rows at page boundaries (first/last slot of a page, last row of the
    // column) exercise the row → (page, slot) arithmetic end to end.
    let values: Vec<u64> = (0..(3 * VALUES_PER_PAGE + 17) as u64).collect();
    let range = ValueRange::new(1_000_000, 2_000_000);
    let mut column = Column::from_values(SimBackend::new(), &values).unwrap();
    let mut views = ViewSet::new(4);
    let (buf, _) = build_view_for_range(&column, &range, &CreationOptions::ALL).unwrap();
    views.insert_unchecked(range, buf);
    assert_eq!(views.partial_view(0).unwrap().num_pages(), 0);

    let boundary_rows = [
        0usize,
        VALUES_PER_PAGE - 1,
        VALUES_PER_PAGE,
        2 * VALUES_PER_PAGE - 1,
        3 * VALUES_PER_PAGE + 16,
    ];
    let writes: Vec<(usize, u64)> = boundary_rows.iter().map(|&r| (r, 1_500_000)).collect();
    let updates = column.write_batch(&writes);
    let stats = align_views_after_updates(&column, &mut views, &updates).unwrap();
    // The boundary rows touch physical pages 0, 1 and 3.
    assert_eq!(stats.pages_added, 3);
    assert_eq!(
        view_pages(&column, &views, 0),
        expected_pages(&column, &range)
    );
}
