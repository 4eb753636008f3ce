//! The scan of the selected views.
//!
//! Query answering scans the views chosen by the router, skipping physical
//! pages shared between views (paper §2.1). `scan_selected_views` is that
//! scan: one pass in view order over the unified [`ScanKernel`] of
//! `asv-storage`, with a [`BitVec`] of processed pages, feeding qualifying
//! pages to the candidate-view `PageSink` *while* scanning (so the
//! concurrent-mapping optimization of §2.3 overlaps mapping with scanning).

use asv_storage::{Column, ScanKernel, ScanOutput};
use asv_util::BitVec;
use asv_vmem::{Backend, ViewBuffer, VmemError};

use crate::creation::PageSink;
use crate::router::{RouteSelection, ViewId};
use crate::viewset::ViewSet;

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
    sink: Option<&mut PageSink>,
) -> Result<ScanOutput, VmemError> {
    let buffers = selected_buffers(column, views, selection);
    scan_sequential(column, &buffers, kernel, sink)
}

/// One pass in view order, sink fed inline. The pass reads one view slot
/// ahead, across view boundaries, and hands that page to the page it scans
/// now as the successor to prefetch. Which page a
/// slot holds is only known once its pageID slot is read, so a successor
/// that turns out to be already processed was prefetched for nothing;
/// reading it before scanning the current page would stall on a cold line
/// instead.
fn scan_sequential<B: Backend>(
    column: &Column<B>,
    buffers: &[&B::View],
    kernel: &ScanKernel<'_>,
    mut sink: Option<&mut PageSink>,
) -> Result<ScanOutput, VmemError> {
    let num_pages = column.num_pages();
    let mut processed = BitVec::new(num_pages);
    let mut out = ScanOutput::new(kernel.mode());
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
