//! Exactness test: the alignment snapshot plans exactly the views §2.4
//! changes.
//!
//! [`snapshot_alignment`] keeps only the views whose range contains an old
//! or a new value of the batch. The oracle here replans *every* view: it
//! replays §2.4 against each view's own mapping table and drops the empty
//! plans. On both backends, for a removal-only batch, an addition-only
//! batch, values on the range bounds, a batch that touches no view, rows
//! whose intermediate value meets a view but whose final value does not, a
//! batch wholly past the column, and uniform data where most page groups
//! meet no view:
//!
//! * the filtered plan equals the oracle op for op, for every chunk size;
//! * publishing it leaves every view indexing exactly the pages a rebuild
//!   would;
//! * a batch past the column plans no view, and publishing it still moves
//!   the view set to its next generation;
//! * a batch that touches no view plans no view, still moves an
//!   [`AdaptiveColumn`] to its next generation, and makes a [`ServeTable`]
//!   publish no alignment epoch.
//!
//! The oracle groups the batch with a `HashMap` dedup and a `HashMap`
//! grouping; a seeded property test checks [`PageGroups`], the one-sort
//! grouping the snapshot uses, against them.

use std::collections::HashMap;

use asv_core::{
    apply_chunked_plan, build_view_for_range, plan_alignment_chunked, snapshot_alignment,
    AdaptiveColumn, AdaptiveConfig, AlignChunking, ChunkedAlignmentPlan, CreationOptions,
    Parallelism, ServeTable, ViewOp, ViewSet,
};
use asv_storage::{Column, PageGroups, Update};
use asv_util::ValueRange;
use asv_vmem::{Backend, SimBackend, ViewBuffer, VALUES_PER_PAGE};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// Collapses repeated updates of the same row into one record carrying the
/// first old value and the last new value (paper §2.4, step 1), in the
/// order of each row's first occurrence.
fn dedup_last_write_wins(batch: &[Update]) -> Vec<Update> {
    let mut first_seen: HashMap<u64, usize> = HashMap::with_capacity(batch.len());
    let mut result: Vec<Update> = Vec::with_capacity(batch.len());
    for u in batch {
        match first_seen.get(&u.row) {
            Some(&idx) => result[idx].new_value = u.new_value,
            None => {
                first_seen.insert(u.row, result.len());
                result.push(*u);
            }
        }
    }
    result
}

/// Groups updates by the page they modify (paper §2.4, step 2), each
/// group in input order.
fn group_by_page(batch: &[Update]) -> HashMap<u64, Vec<Update>> {
    let mut groups: HashMap<u64, Vec<Update>> = HashMap::new();
    for u in batch {
        groups.entry(u.page()).or_default().push(*u);
    }
    groups
}

/// The deduplicated batch grouped by page, ascending by page, without the
/// pages past a column of `num_pages` pages.
fn sorted_page_groups(batch: &[Update], num_pages: usize) -> Vec<(usize, Vec<Update>)> {
    let mut groups: Vec<(usize, Vec<Update>)> = group_by_page(&dedup_last_write_wins(batch))
        .into_iter()
        .map(|(page, updates)| (page as usize, updates))
        .filter(|(page, _)| *page < num_pages)
        .collect();
    groups.sort_unstable_by_key(|(page, _)| *page);
    groups
}

/// Replans every view: the §2.4 replay over the whole deduplicated batch
/// (pages past the column ignored), against a copy of each view's slot →
/// page list, keeping the views whose ops are not empty.
fn full_replan_oracle<B: Backend>(
    column: &Column<B>,
    views: &ViewSet<B>,
    batch: &[Update],
) -> Plan {
    let groups = sorted_page_groups(batch, column.num_pages());
    views
        .iter()
        .filter_map(|(idx, view)| {
            let range = view.range();
            let mut slots = view.buffer().mapping().dense_pages().expect("dense view");
            let mut ops = Vec::new();
            for (page, updates) in &groups {
                let page = *page;
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
    let oracle = check_plan(&column, &mut views, &updates, case, &[0, 1, 4]);
    let oracle_views: Vec<usize> = oracle.iter().map(|(idx, _, _)| *idx).collect();
    assert_eq!(
        oracle_views, changed,
        "{case}: the case changes these views"
    );
}

/// Plans `updates` for every size in `chunk_sizes`, checks each plan op
/// for op against the oracle (so the chunks concatenate to the one-chunk
/// plan), publishes the one-chunk plan, checks that every view then
/// indexes the pages a rebuild would, and returns the oracle.
fn check_plan<B: Backend>(
    column: &Column<B>,
    views: &mut ViewSet<B>,
    updates: &[Update],
    case: &str,
    chunk_sizes: &[usize],
) -> Plan {
    let oracle = full_replan_oracle(column, views, updates);
    let snapshot = snapshot_alignment(column, views.mappings(), updates);
    for &chunk_updates in chunk_sizes {
        let plan = plan_alignment_chunked(&snapshot, Parallelism::Sequential, chunk_updates);
        assert_eq!(
            filtered_plan(&plan),
            oracle,
            "{case}/chunk{chunk_updates}: filtered plan differs from the full replan"
        );
    }

    let plan = plan_alignment_chunked(&snapshot, Parallelism::Sequential, 0);
    apply_chunked_plan(column, views, &plan).expect("apply");
    for (idx, view) in views.iter() {
        assert_eq!(
            view.buffer().mapping().phys_pages_sorted(),
            rebuilt_pages(column, view.range()),
            "{case}: view {idx} diverged from a rebuild"
        );
    }
    oracle
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

/// Rows written twice: first to a value of view 0 or 3, then to a gap
/// between views. Only the final value counts, so no view changes.
fn intermediate_value_only() -> Vec<(usize, u64)> {
    vec![
        (row(15, 7), 6_000),
        (row(3, 1), 30_050),
        (row(15, 7), 15_500),
        (row(3, 1), 3_999),
    ]
}

fn check_backend<B: Backend>(make_backend: impl Fn() -> B) {
    check_case(&make_backend, "removal-only", &removal_only(), &[1]);
    check_case(&make_backend, "addition-only", &addition_only(), &[0, 3]);
    check_case(&make_backend, "on-bounds", &on_bounds(), &[0, 4]);
    check_case(&make_backend, "touches-no-view", &touches_no_view(), &[]);
    check_case(
        &make_backend,
        "intermediate-value-only",
        &intermediate_value_only(),
        &[],
    );
    check_past_the_column(&make_backend);
    check_uniform(&make_backend);
}

/// Every update lies past the column, with old and new values inside
/// every view's range: no view is planned, and publishing the empty plan
/// still moves the view set to its next generation.
fn check_past_the_column<B: Backend>(make_backend: &impl Fn() -> B) {
    let (column, mut views) = column_with_views(make_backend());
    let updates: Vec<Update> = RANGES
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| Update::new(row(PAGES + i, i) as u64, lo, hi))
        .collect();
    let snapshot = snapshot_alignment(&column, views.mappings(), &updates);
    assert_eq!(snapshot.num_planned_views(), 0, "past-the-column");
    let generation = views.generation();
    let plan = check_plan(&column, &mut views, &updates, "past-the-column", &[0, 1]);
    assert!(plan.is_empty(), "past-the-column: the oracle plans nothing");
    assert_eq!(views.generation(), generation + 1);
}

/// Pages of the uniform column.
const UNIFORM_PAGES: usize = 1024;
/// Values of the uniform column lie in `[0, UNIFORM_DOMAIN)`.
const UNIFORM_DOMAIN: u64 = 1 << 20;

/// Uniform data under six views of 1/1024 of the domain each, and a batch
/// of uniform writes of which at least 90 % of the page groups meet no
/// view: the plans must still equal the oracle for every chunk size.
fn check_uniform<B: Backend>(make_backend: &impl Fn() -> B) {
    let mut rng = StdRng::seed_from_u64(85_051);
    let values: Vec<u64> = (0..UNIFORM_PAGES * VALUES_PER_PAGE)
        .map(|_| rng.gen_range(0..UNIFORM_DOMAIN))
        .collect();
    let mut column = Column::from_values(make_backend(), &values).expect("column");
    let width = UNIFORM_DOMAIN / 1024;
    let mut views = ViewSet::new(6);
    for k in [3u64, 100, 101, 400, 700, 1023] {
        let range = ValueRange::new(k * width, (k + 1) * width - 1);
        let (buffer, _) =
            build_view_for_range(&column, &range, &CreationOptions::ALL).expect("view");
        views.insert_unchecked(range, buffer);
    }
    let writes: Vec<(usize, u64)> = (0..4_000)
        .map(|_| {
            let row = rng.gen_range(0..column.num_rows());
            (row, rng.gen_range(0..UNIFORM_DOMAIN))
        })
        .collect();
    let updates = column.write_batch(&writes);

    let groups = sorted_page_groups(&updates, column.num_pages());
    let ranges: Vec<ValueRange> = views.iter().map(|(_, v)| *v.range()).collect();
    let meeting = groups
        .iter()
        .filter(|(_, updates)| {
            updates.iter().any(|u| {
                ranges
                    .iter()
                    .any(|r| r.contains(u.old_value) || r.contains(u.new_value))
            })
        })
        .count();
    assert!(
        meeting * 10 <= groups.len(),
        "uniform: {meeting} of {} groups meet a view",
        groups.len()
    );
    let oracle = check_plan(&column, &mut views, &updates, "uniform", &[1, 3, 64, 0]);
    assert!(!oracle.is_empty(), "uniform: the batch changes some view");
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

/// A batch that meets no view plans nothing, yet both alignment entry
/// points still behave like a round: the single-owner column moves to its
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
        table.try_write_batch(col, writes).unwrap();
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

/// Checks [`PageGroups`] against the `HashMap` oracle: the same
/// `deduped_size`, the same pages in the same order, and the same multiset
/// of updates per page.
fn check_grouping(case: &str, batch: &[Update], num_pages: usize) {
    let groups = PageGroups::new(batch, num_pages);
    assert_eq!(
        groups.deduped_size(),
        dedup_last_write_wins(batch).len(),
        "{case}: deduped size"
    );
    let sorted = |updates: &[Update]| {
        let mut updates = updates.to_vec();
        updates.sort_unstable_by_key(|u| (u.row, u.old_value, u.new_value));
        updates
    };
    let actual: Vec<(usize, Vec<Update>)> = groups
        .iter()
        .map(|(page, updates)| (page, sorted(updates)))
        .collect();
    let expected: Vec<(usize, Vec<Update>)> = sorted_page_groups(batch, num_pages)
        .into_iter()
        .map(|(page, updates)| (page, sorted(&updates)))
        .collect();
    assert_eq!(actual, expected, "{case}: groups");
}

/// `count` updates of uniform rows below `rows`, with random values.
fn random_updates(rng: &mut StdRng, count: usize, rows: u64) -> Vec<Update> {
    (0..count)
        .map(|_| Update::new(rng.gen_range(0..rows), rng.next_u64(), rng.next_u64()))
        .collect()
}

#[test]
fn page_groups_match_the_hashmap_oracle() {
    let pages = 200;
    let rows = (pages * VALUES_PER_PAGE) as u64;
    for seed in 85_061..85_066u64 {
        let mut rng = StdRng::seed_from_u64(seed);

        // Rows repeated 2–5 times, their writes interleaved.
        let distinct = random_updates(&mut rng, 500, rows);
        let mut repeated: Vec<Update> = Vec::new();
        for u in &distinct {
            for _ in 0..rng.gen_range(2..=5usize) {
                repeated.push(Update::new(u.row, rng.next_u64(), rng.next_u64()));
            }
        }
        for i in (1..repeated.len()).rev() {
            repeated.swap(i, rng.gen_range(0..=i));
        }
        check_grouping("repeated", &repeated, pages);

        // Rows past the column, some too large to pack with their position.
        let mut past = random_updates(&mut rng, 300, rows * 2);
        past.push(Update::new(u64::MAX, 1, 2));
        past.push(Update::new(u64::MAX - 7, 3, 4));
        check_grouping("past-the-column", &past, pages);
        let mut huge: Vec<Update> = (0..50)
            .map(|i| Update::new(u64::MAX - rng.gen_range(0..4u64), i, i + 1))
            .collect();
        huge.extend(random_updates(&mut rng, 50, rows));
        check_grouping("unpackable", &huge, pages);

        check_grouping("empty", &[], pages);

        let page = rng.gen_range(0..pages as u64);
        let one_page: Vec<Update> = (0..400)
            .map(|_| {
                let slot = rng.gen_range(0..VALUES_PER_PAGE as u64);
                Update::new(
                    page * VALUES_PER_PAGE as u64 + slot,
                    rng.next_u64(),
                    rng.next_u64(),
                )
            })
            .collect();
        check_grouping("one-page", &one_page, pages);
    }
    let mut rng = StdRng::seed_from_u64(85_066);
    let uniform = random_updates(&mut rng, 100_000, rows);
    check_grouping("uniform-100k", &uniform, pages);
}
