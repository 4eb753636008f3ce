//! The parallel execution layer: sharded scans over the selected views.
//!
//! Query answering scans the views chosen by the router, skipping physical
//! pages shared between views (paper §2.1). `scan_selected_views` is the
//! single entry point for that scan, in two interchangeable strategies built
//! on the unified [`ScanKernel`] of `asv-storage`:
//!
//! * **Sequential** (the default, [`Parallelism::Sequential`]): one pass in
//!   view order with a [`BitVec`] of processed pages — byte-for-byte the
//!   behaviour of the pre-parallel code path, including feeding qualifying
//!   pages to the candidate-view `PageSink` *while* scanning (so the
//!   concurrent-mapping optimization of §2.3 still overlaps mapping with
//!   scanning).
//! * **Sharded fork-join** ([`Parallelism::Threads`] / `Auto`): the physical
//!   page-id space is split into disjoint contiguous shards, one per worker
//!   of the scoped [`ThreadPool`]. Every worker walks all selected views but
//!   only processes pages whose embedded pageID falls into its shard,
//!   deduplicating shared pages with a shard-local bitvector. The partial
//!   [`ScanOutput`]s merge in ascending shard order, and each shard records
//!   its qualifying page ids so the candidate view can be materialized by
//!   feeding the sink in page order *after* the join.
//!
//! Both strategies produce identical `count`/`sum`/`scanned_pages` and
//! identical widening bounds, and the candidate views they build index the
//! same page sets — so view insert/discard decisions do not depend on the
//! degree of parallelism.

use asv_storage::{Column, ScanKernel, ScanOutput};
use asv_util::{split_ranges, BitVec, Parallelism, ThreadPool};
use asv_vmem::{Backend, ViewBuffer, VmemError};

use crate::adaptive::AdaptiveColumn;
use crate::creation::PageSink;
use crate::query::{QueryOutcome, RangeQuery};
use crate::router::{RouteSelection, ViewId};
use crate::viewset::ViewSet;

/// Fork-joins the *independent column scans* of one conjunctive plan: each
/// task owns one column mutably (the planner guarantees the columns are
/// distinct), runs the full adaptive path with row collection, and returns
/// its outcome in task order.
///
/// The scans touch disjoint state, so the outcomes — including the adaptive
/// view decisions each scan makes on its own column — are identical for
/// every worker count; [`Parallelism::Sequential`] simply runs them inline
/// in plan order.
pub(crate) fn scan_columns_fork_join<B: Backend>(
    tasks: Vec<(&mut AdaptiveColumn<B>, RangeQuery)>,
    parallelism: Parallelism,
) -> Vec<Result<QueryOutcome, VmemError>> {
    let pool = ThreadPool::new(parallelism);
    pool.scoped_map(
        tasks
            .into_iter()
            .map(|(column, query)| move || column.query_collect(&query))
            .collect(),
    )
}

/// Resolves the routed view ids to their buffers, in scan order.
fn selected_buffers<'a, B: Backend>(
    column: &'a Column<B>,
    views: &'a ViewSet<B>,
    selection: &RouteSelection,
) -> Vec<&'a B::View> {
    selection
        .views
        .iter()
        .map(|view_id| match view_id {
            ViewId::Full => column.full_view(),
            ViewId::Partial(idx) => views
                .partial_view(*idx)
                .expect("router returned a valid partial-view index")
                .buffer(),
        })
        .collect()
}

/// Scans the selected views with `kernel`, answering the query and feeding
/// qualifying physical pages to the candidate `sink` (if any). Shared pages
/// are processed at most once.
pub(crate) fn scan_selected_views<B: Backend>(
    column: &Column<B>,
    views: &ViewSet<B>,
    selection: &RouteSelection,
    kernel: &ScanKernel<'_>,
    parallelism: Parallelism,
    sink: Option<&mut PageSink<'_, B>>,
) -> Result<ScanOutput, VmemError> {
    let num_pages = column.num_pages();
    let buffers = selected_buffers(column, views, selection);
    let workers = parallelism.worker_count();
    if workers <= 1 || num_pages < 2 {
        scan_sequential(column, &buffers, kernel, sink)
    } else {
        scan_sharded(column, &buffers, kernel, workers, sink)
    }
}

/// The sequential strategy: one pass in view order, sink fed inline. The
/// pass reads one view slot ahead, across view boundaries, and hands that
/// page to the page it scans now as the successor to prefetch. Which page a
/// slot holds is only known once its pageID slot is read, so a successor
/// that turns out to be already processed was prefetched for nothing;
/// reading it before scanning the current page would stall on a cold line
/// instead.
fn scan_sequential<B: Backend>(
    column: &Column<B>,
    buffers: &[&B::View],
    kernel: &ScanKernel<'_>,
    mut sink: Option<&mut PageSink<'_, B>>,
) -> Result<ScanOutput, VmemError> {
    let num_pages = column.num_pages();
    let mut processed = BitVec::new(num_pages);
    let mut out = ScanOutput::new(kernel.mode(), false);
    let mut pages = buffers.iter().flat_map(|view| view.iter_pages()).peekable();
    while let Some(raw) = pages.next() {
        let page_id = raw[0] as usize;
        debug_assert!(page_id < num_pages, "corrupt embedded pageID {page_id}");
        if processed.test_and_set(page_id) {
            continue;
        }
        let res = kernel.scan_page(column.wrap_view_page(raw), pages.peek().copied(), &mut out);
        if res.count > 0 {
            if let Some(sink) = sink.as_deref_mut() {
                sink.add_page(page_id as u64)?;
            }
        }
    }
    Ok(out)
}

/// The fork-join strategy: disjoint page-id shards, one per worker.
fn scan_sharded<B: Backend>(
    column: &Column<B>,
    buffers: &[&B::View],
    kernel: &ScanKernel<'_>,
    workers: usize,
    sink: Option<&mut PageSink<'_, B>>,
) -> Result<ScanOutput, VmemError> {
    let num_pages = column.num_pages();
    let track_qualifying = sink.is_some();
    let pool = ThreadPool::with_workers(workers);
    let shards = split_ranges(num_pages, pool.workers());

    let partials = pool.scoped_map(
        shards
            .into_iter()
            .map(|pages| {
                move || {
                    let mut out = ScanOutput::new(kernel.mode(), track_qualifying);
                    // Shard-local dedup of pages shared between views.
                    let mut processed = BitVec::new(pages.len());
                    for view in buffers {
                        for raw in view.iter_pages() {
                            let page_id = raw[0] as usize;
                            debug_assert!(page_id < num_pages, "corrupt embedded pageID {page_id}");
                            if !pages.contains(&page_id)
                                || processed.test_and_set(page_id - pages.start)
                            {
                                continue;
                            }
                            // No successor: the next page this worker
                            // scans is wherever its shard's pages come next.
                            kernel.scan_page(column.wrap_view_page(raw), None, &mut out);
                        }
                    }
                    out
                }
            })
            .collect(),
    );

    let mut merged = ScanOutput::new(kernel.mode(), track_qualifying);
    for partial in partials {
        merged.merge(partial);
    }
    if let Some(sink) = sink {
        // Shards are disjoint and merged in ascending order; sorting turns
        // the per-shard scan orders into global page order, which maximizes
        // run coalescing and makes the candidate deterministic.
        let mut qualifying = merged.qualifying_pages.take().unwrap_or_default();
        qualifying.sort_unstable();
        for page_id in qualifying {
            sink.add_page(page_id)?;
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoutingMode;
    use crate::router::route;
    use asv_storage::ScanMode;
    use asv_util::ValueRange;
    use asv_vmem::{MmapBackend, SimBackend, VALUES_PER_PAGE};

    fn clustered_values(pages: usize) -> Vec<u64> {
        (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect()
    }

    /// Builds a column plus two overlapping partial views so that the
    /// multi-view path has shared pages to deduplicate.
    fn setup<B: Backend>(backend: B) -> (Column<B>, ViewSet<B>) {
        let column = Column::from_values(backend, &clustered_values(40)).unwrap();
        let mut views = ViewSet::new(10);
        for (lo, hi) in [(5_000u64, 12_510u64), (11_000, 20_510)] {
            let range = ValueRange::new(lo, hi);
            let (buffer, _) = crate::creation::build_view_for_range(
                &column,
                &range,
                &crate::config::CreationOptions::ALL,
            )
            .unwrap();
            views.insert_unchecked(range, buffer);
        }
        (column, views)
    }

    fn check_sharded_matches_sequential<B: Backend>(backend: B) {
        let (column, views) = setup(backend);
        let query = ValueRange::new(6_000, 19_000);
        let selection = route(&column, &views, &query, RoutingMode::MultiView);
        assert!(selection.views.len() >= 2, "need a multi-view selection");
        for mode in [
            ScanMode::CountOnly,
            ScanMode::Aggregate,
            ScanMode::CollectRows,
        ] {
            let kernel = ScanKernel::new(query, mode);
            let seq = scan_selected_views(
                &column,
                &views,
                &selection,
                &kernel,
                Parallelism::Sequential,
                None,
            )
            .unwrap();
            for threads in 2..=4 {
                let par = scan_selected_views(
                    &column,
                    &views,
                    &selection,
                    &kernel,
                    Parallelism::Threads(threads),
                    None,
                )
                .unwrap();
                assert_eq!(par.result.count, seq.result.count, "{mode:?}/{threads}");
                assert_eq!(par.result.sum, seq.result.sum, "{mode:?}/{threads}");
                assert_eq!(par.scanned_pages, seq.scanned_pages, "{mode:?}/{threads}");
                assert_eq!(par.below, seq.below, "{mode:?}/{threads}");
                assert_eq!(par.above, seq.above, "{mode:?}/{threads}");
                let sort = |rows: &Option<Vec<u64>>| {
                    rows.clone().map(|mut r| {
                        r.sort_unstable();
                        r
                    })
                };
                assert_eq!(sort(&par.rows), sort(&seq.rows), "{mode:?}/{threads}");
            }
        }
    }

    #[test]
    fn sharded_scan_matches_sequential_on_shared_pages_sim() {
        check_sharded_matches_sequential(SimBackend::new());
    }

    #[test]
    fn sharded_scan_matches_sequential_on_shared_pages_mmap() {
        check_sharded_matches_sequential(MmapBackend::new());
    }

    #[test]
    fn sharded_candidate_creation_maps_the_same_pages_in_page_order() {
        let (column, views) = setup(SimBackend::new());
        let query = ValueRange::new(6_000, 19_000);
        let selection = route(&column, &views, &query, RoutingMode::MultiView);
        let kernel = ScanKernel::new(query, ScanMode::Aggregate);
        let options = crate::config::CreationOptions::ALL;

        let build = |parallelism: Parallelism| {
            crate::creation::create_while_scanning(&column, &options, |sink| {
                scan_selected_views(
                    &column,
                    &views,
                    &selection,
                    &kernel,
                    parallelism,
                    Some(sink),
                )
            })
            .unwrap()
        };
        let (seq_view, _) = build(Parallelism::Sequential);
        let (par_view, _) = build(Parallelism::Threads(4));
        let page_ids = |view: &asv_vmem::SimView| -> Vec<u64> {
            let mut ids: Vec<u64> = view.iter_pages().map(|p| p[0]).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(page_ids(&seq_view), page_ids(&par_view));
        // The parallel candidate is fed in ascending page order.
        let par_order: Vec<u64> = par_view.iter_pages().map(|p| p[0]).collect();
        let mut sorted = par_order.clone();
        sorted.sort_unstable();
        assert_eq!(par_order, sorted);
    }
}
