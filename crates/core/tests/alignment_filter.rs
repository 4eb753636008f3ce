//! Exactness test: the alignment snapshot plans exactly the views §2.4
//! changes.
//!
//! [`snapshot_alignment`] keeps only the views whose range contains an old
//! or a new value of the batch. The oracle here replans *every* view: it
//! replays §2.4 against each view's own mapping table and drops the empty
//! plans. On both backends, for a removal-only batch, an addition-only
//! batch, values on the range bounds and a batch that touches no view:
//!
//! * the filtered plan equals the oracle op for op, for every chunk size;
//! * publishing it leaves every view indexing exactly the pages a rebuild
//!   would;
//! * a batch that touches no view plans no view, still moves an
//!   [`AdaptiveColumn`] to its next generation, and makes a [`ServeTable`]
//!   publish no alignment epoch.

use asv_core::{
    apply_chunked_plan, build_view_for_range, plan_alignment_chunked, snapshot_alignment,
    AdaptiveColumn, AdaptiveConfig, AlignChunking, ChunkedAlignmentPlan, CreationOptions,
    Parallelism, ServeTable, ViewOp, ViewSet,
};
use asv_storage::{dedup_last_write_wins, sorted_page_groups, Column, Update};
use asv_util::ValueRange;
use asv_vmem::{Backend, SimBackend, ViewBuffer, VALUES_PER_PAGE};

const PAGES: usize = 32;

/// The installed views. Page `p` holds the values `p*1000 + s` for slot
/// `s < 511`, so view 0 indexes pages 5..=9, view 1 page 12, view 2 pages
/// 20..=25, view 3 page 30 (slots 0..=100), and view 4 pages 25 and 26,
/// each through a single value on one of its bounds.
const RANGES: [(u64, u64); 5] = [
    (5_000, 9_400),
    (12_000, 12_510),
    (20_000, 25_510),
    (30_000, 30_100),
    (25_510, 26_000),
];

/// A view's plan: `(position, id, ops)`.
type Plan = Vec<(usize, u64, Vec<ViewOp>)>;

fn clustered_values() -> Vec<u64> {
    (0..PAGES * VALUES_PER_PAGE)
        .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
        .collect()
}

fn row(page: usize, slot: usize) -> usize {
    page * VALUES_PER_PAGE + slot
}

fn ranges() -> Vec<ValueRange> {
    RANGES
        .iter()
        .map(|&(lo, hi)| ValueRange::new(lo, hi))
        .collect()
}

fn column_with_views<B: Backend>(backend: B) -> (Column<B>, ViewSet<B>) {
    let column = Column::from_values(backend, &clustered_values()).expect("column");
    let mut views = ViewSet::new(RANGES.len());
    for range in ranges() {
        let (buffer, _) =
            build_view_for_range(&column, &range, &CreationOptions::ALL).expect("view");
        views.insert_unchecked(range, buffer);
    }
    (column, views)
}

/// Replans every view: the §2.4 replay over the whole deduplicated batch,
/// against a copy of each view's slot → page list, keeping the views whose
/// ops are not empty.
fn full_replan_oracle<B: Backend>(
    column: &Column<B>,
    views: &ViewSet<B>,
    batch: &[Update],
) -> Plan {
    let groups = sorted_page_groups(&dedup_last_write_wins(batch));
    views
        .iter()
        .filter_map(|(idx, view)| {
            let range = view.range();
            let mut slots = view.buffer().mapping().dense_pages().expect("dense view");
            let mut ops = Vec::new();
            for (page, updates) in &groups {
                let page = *page as usize;
                let new_qualifies = updates.iter().any(|u| range.contains(u.new_value));
                let old_qualified = updates.iter().any(|u| range.contains(u.old_value));
                match slots.iter().position(|&p| p == page) {
                    None if new_qualifies => {
                        ops.push(ViewOp::Map {
                            slot: slots.len(),
                            phys_page: page,
                        });
                        slots.push(page);
                    }
                    Some(hole) if !new_qualifies && old_qualified => {
                        let still_qualifies = column
                            .page_ref(page)
                            .values()
                            .iter()
                            .any(|v| range.contains(*v));
                        if !still_qualifies {
                            let last = slots.len() - 1;
                            if hole != last {
                                ops.push(ViewOp::Map {
                                    slot: hole,
                                    phys_page: slots[last],
                                });
                            }
                            slots.swap_remove(hole);
                            ops.push(ViewOp::Truncate { mapped_pages: last });
                        }
                    }
                    _ => {}
                }
            }
            (!ops.is_empty()).then_some((idx, view.id(), ops))
        })
        .collect()
}

/// A chunked plan with each view's ops concatenated across chunks, in view
/// order.
fn filtered_plan(plan: &ChunkedAlignmentPlan) -> Plan {
    let mut out: Plan = Vec::new();
    for chunk in &plan.chunks {
        for view in &chunk.views {
            match out.iter_mut().find(|(idx, _, _)| *idx == view.view_idx) {
                Some((_, _, ops)) => ops.extend_from_slice(&view.ops),
                None => out.push((view.view_idx, view.view_id, view.ops.clone())),
            }
        }
    }
    out.sort_by_key(|(idx, _, _)| *idx);
    out
}

/// The pages a view over `range` indexes after a rebuild.
fn rebuilt_pages<B: Backend>(column: &Column<B>, range: &ValueRange) -> Vec<usize> {
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

/// Runs one batch: the filtered plan must equal the oracle (which must
/// change exactly `changed` views), for every chunk size, and publishing it
/// must reach the rebuilt page sets.
fn check_case<B: Backend>(
    make_backend: &impl Fn() -> B,
    case: &str,
    writes: &[(usize, u64)],
    changed: &[usize],
) {
    let (mut column, mut views) = column_with_views(make_backend());
    let updates = column.write_batch(writes);
    let oracle = full_replan_oracle(&column, &views, &updates);
    let oracle_views: Vec<usize> = oracle.iter().map(|(idx, _, _)| *idx).collect();
    assert_eq!(
        oracle_views, changed,
        "{case}: the case changes these views"
    );

    let snapshot = snapshot_alignment(&column, views.mappings(), &updates);
    for chunk_updates in [0usize, 1, 4] {
        let plan = plan_alignment_chunked(&snapshot, Parallelism::Sequential, chunk_updates);
        assert_eq!(
            filtered_plan(&plan),
            oracle,
            "{case}/chunk{chunk_updates}: filtered plan differs from the full replan"
        );
    }

    let plan = plan_alignment_chunked(&snapshot, Parallelism::Sequential, 0);
    apply_chunked_plan(&column, &mut views, &plan).expect("apply");
    for (idx, view) in views.iter() {
        assert_eq!(
            view.buffer().mapping().phys_pages_sorted(),
            rebuilt_pages(&column, view.range()),
            "{case}: view {idx} diverged from a rebuild"
        );
    }
}

/// Every page-12 value leaves view 1's range: the old values are the only
/// thing tying the batch to view 1.
fn removal_only() -> Vec<(usize, u64)> {
    (0..VALUES_PER_PAGE)
        .map(|s| (row(12, s), 900_000 + s as u64))
        .collect()
}

/// Rows of pages no view covers receive values of views 0 and 3.
fn addition_only() -> Vec<(usize, u64)> {
    vec![(row(15, 7), 6_000), (row(16, 3), 30_050)]
}

/// Old and new values exactly on range bounds, plus values just outside.
fn on_bounds() -> Vec<(usize, u64)> {
    vec![
        // Old 25_510 and 26_000 are view 4's bounds and its only values on
        // pages 25 and 26; page 25 stays in view 2 through its other values.
        (row(25, VALUES_PER_PAGE - 1), 27_600),
        (row(26, 0), 27_601),
        // New values on bounds: page 17 joins view 0, page 18 view 4.
        (row(17, 1), 5_000),
        (row(18, 1), 26_000),
        // Just outside a bound: no view gains a page.
        (row(19, 1), 4_999),
        (row(14, 1), 26_001),
    ]
}

/// Values below every view move to a gap between views.
fn touches_no_view() -> Vec<(usize, u64)> {
    (0..40)
        .map(|i| (row(i % 4, i), 15_000 + i as u64))
        .collect()
}

fn check_backend<B: Backend>(make_backend: impl Fn() -> B) {
    check_case(&make_backend, "removal-only", &removal_only(), &[1]);
    check_case(&make_backend, "addition-only", &addition_only(), &[0, 3]);
    check_case(&make_backend, "on-bounds", &on_bounds(), &[0, 4]);
    check_case(&make_backend, "touches-no-view", &touches_no_view(), &[]);
}

#[test]
fn filtered_plan_equals_full_replan_sim() {
    check_backend(SimBackend::new);
}

#[cfg(target_os = "linux")]
#[test]
fn filtered_plan_equals_full_replan_mmap() {
    check_backend(asv_vmem::MmapBackend::new);
}

/// A batch that meets no view plans nothing, yet every alignment entry
/// point still behaves like a round: the single-owner column moves to its
/// next generation, and the serving table publishes the acknowledgement and
/// the retirement but no alignment epoch.
fn check_batch_touching_no_view<B: Backend>(make_backend: impl Fn() -> B) {
    let (mut column, views) = column_with_views(make_backend());
    let updates = column.write_batch(&touches_no_view());
    let snapshot = snapshot_alignment(&column, views.mappings(), &updates);
    assert_eq!(snapshot.num_planned_views(), 0);

    let config = AdaptiveConfig::default().with_adaptive_creation(false);
    let mut adaptive =
        AdaptiveColumn::from_values(make_backend(), &clustered_values(), config).expect("column");
    for range in ranges() {
        let (buffer, _) =
            build_view_for_range(adaptive.column(), &range, &CreationOptions::ALL).expect("view");
        adaptive.install_view(range, buffer);
    }
    let updates = adaptive.write_batch(&touches_no_view());
    let generation = adaptive.view_generation();
    let stats = adaptive.align_views(&updates).expect("align");
    assert_eq!((stats.pages_added, stats.pages_removed), (0, 0));
    assert_eq!(adaptive.view_generation(), generation + 1);
    let updates = adaptive.write_batch(&touches_no_view());
    adaptive.align_views_async(&updates).expect("async");
    adaptive.flush_pending_writes().expect("flush");
    assert_eq!(adaptive.view_generation(), generation + 2);

    // A quiesced batch on a serving table: (epochs published, views
    // planned, alignment chunks published). The acknowledgement and the
    // retirement are one epoch each; a round's last chunk publishes in the
    // retirement's epoch.
    let epochs_for = |writes: &[(usize, u64)], with_views: bool| {
        let config = AdaptiveConfig::default()
            .with_chunking(AlignChunking::default().with_group_commit_idle(0));
        let mut table = ServeTable::new(make_backend(), config);
        let col = table.add_column(&clustered_values()).expect("column");
        if with_views {
            for range in ranges() {
                table.install_view(col, range).expect("view");
            }
        }
        let before = table.generation();
        table.write_batch(col, writes);
        table.quiesce().expect("quiesce");
        (
            table.generation() - before,
            table.align_activity().planned_views,
            table.drain_publish_micros().len(),
        )
    };
    assert_eq!(epochs_for(&touches_no_view(), true), (2, 0, 0));
    assert_eq!(epochs_for(&touches_no_view(), false), (2, 0, 0));
    assert_eq!(
        epochs_for(&addition_only(), true),
        (2, 2, 1),
        "a batch that changes views publishes its chunk"
    );
}

#[test]
fn batch_touching_no_view_publishes_no_alignment_sim() {
    check_batch_touching_no_view(SimBackend::new);
}

#[cfg(target_os = "linux")]
#[test]
fn batch_touching_no_view_publishes_no_alignment_mmap() {
    check_batch_touching_no_view(asv_vmem::MmapBackend::new);
}
