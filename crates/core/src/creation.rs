//! Optimized partial-view creation (paper §2.3).
//!
//! View creation happens *while* the source views are scanned: every
//! qualifying physical page is handed to a [`PageSink`], which collects
//! the pages of the new view. Two optimizations are supported, matching
//! the paper:
//!
//! 1. **Consecutive mapping** — consecutive qualifying physical pages are
//!    grouped into runs and mapped with a single `mmap()` call.
//! 2. **Concurrent mapping** — the actual mapping calls are executed by a
//!    dedicated mapping thread fed through a concurrent queue, overlapping
//!    mapping with scanning. The new view is only handed back (and can only
//!    be published to the view index) once the mapping thread has drained
//!    the queue, mirroring the paper's completion signal.
//!
//! Once the scan ends, an admission check decides whether the view is kept
//! (for a query's candidate, the retention policy of Listing 1). The
//! synchronous path records the runs during the scan and reserves and maps
//! the view only after admission, so a rejected candidate makes no
//! `mmap` call at all. The concurrent path maps during the scan — that
//! overlap is its point — and drops a rejected view after the mapping
//! thread joins.

use std::sync::mpsc::{channel, Sender};

use asv_storage::Column;
use asv_util::{Run, RunBuilder};
use asv_vmem::{Backend, MapRequest, VmemError};

use crate::config::CreationOptions;

/// Receives qualifying physical pages during a scan and hands the runs they
/// form to the view under construction.
pub struct PageSink {
    mode: SinkMode,
    runs: RunBuilder,
    coalesce: bool,
    pages_added: usize,
}

enum SinkMode {
    /// Record the runs; they are mapped on the scanning thread once the
    /// view is admitted.
    Sync { runs: Vec<Run> },
    /// Send runs to the background mapping thread.
    Concurrent { tx: Sender<Run> },
}

impl PageSink {
    fn new(mode: SinkMode, options: &CreationOptions) -> Self {
        Self {
            mode,
            runs: RunBuilder::new(),
            coalesce: options.coalesce_runs,
            pages_added: 0,
        }
    }

    /// Registers the next qualifying physical page (in scan order).
    pub fn add_page(&mut self, phys_page: u64) -> Result<(), VmemError> {
        self.pages_added += 1;
        if self.coalesce {
            if let Some(run) = self.runs.push(phys_page) {
                self.emit(run)?;
            }
            Ok(())
        } else {
            self.emit(Run {
                start: phys_page,
                len: 1,
            })
        }
    }

    /// Number of pages registered so far.
    pub fn pages_added(&self) -> usize {
        self.pages_added
    }

    fn emit(&mut self, run: Run) -> Result<(), VmemError> {
        match &mut self.mode {
            SinkMode::Sync { runs } => {
                runs.push(run);
                Ok(())
            }
            SinkMode::Concurrent { tx } => tx
                .send(run)
                .map_err(|_| VmemError::Unsupported("mapping thread terminated early")),
        }
    }

    fn flush(&mut self) -> Result<(), VmemError> {
        if let Some(run) = self.runs.finish() {
            self.emit(run)?;
        }
        Ok(())
    }
}

/// Maps `runs` into consecutive slots of `view` from slot 0, in order: one
/// `map_run` per run.
fn map_runs<B: Backend>(
    backend: &B,
    store: &B::Store,
    view: &mut B::View,
    runs: impl IntoIterator<Item = Run>,
) -> Result<(), VmemError> {
    let mut next_slot = 0usize;
    for run in runs {
        backend.map_run(
            store,
            view,
            MapRequest {
                slot: next_slot,
                phys_page: run.start as usize,
                len: run.len as usize,
            },
        )?;
        next_slot += run.len as usize;
    }
    Ok(())
}

/// Creates a new partial-view buffer over `column` while the caller scans
/// the source views, and keeps it only if `admit` says so.
///
/// The closure `scan` receives a [`PageSink`]; it must call
/// [`PageSink::add_page`] for every *qualifying* physical page it
/// encounters, in scan order, and may return an arbitrary result (typically
/// the accumulated query answer). Once the scan ends, `admit` sees that
/// result and the number of pages added and decides whether the view is
/// kept. The function returns the fully mapped view buffer if it was
/// admitted, together with the scan's result.
///
/// Depending on `options`, pages are mapped one-by-one or coalesced into
/// runs. Without concurrent mapping the runs are only recorded during the
/// scan and mapped on the calling thread after admission, so a rejected
/// view costs no reservation and no `map_run`. With concurrent mapping a
/// dedicated thread maps them during the scan, and a rejected view is
/// dropped once that thread has finished.
pub fn create_while_scanning<B, T, F, A>(
    column: &Column<B>,
    options: &CreationOptions,
    scan: F,
    admit: A,
) -> Result<(Option<B::View>, T), VmemError>
where
    B: Backend,
    F: FnOnce(&mut PageSink) -> Result<T, VmemError>,
    A: FnOnce(&T, usize) -> bool,
{
    let backend = column.backend();
    let store = column.store();

    if options.concurrent_mapping {
        let mut view = column.reserve_partial_view()?;
        let (tx, rx) = channel::<Run>();
        let (view, scanned, pages) = std::thread::scope(|scope| {
            let mapper =
                scope.spawn(move || map_runs(backend, store, &mut view, rx).map(|()| view));
            let mut sink = PageSink::new(SinkMode::Concurrent { tx }, options);
            let scan_result = scan(&mut sink);
            let flush_result = sink.flush();
            let pages = sink.pages_added;
            // Close the queue so the mapping thread drains and terminates;
            // joining it is the "view is completely mapped" signal.
            drop(sink);
            let view = mapper
                .join()
                .map_err(|_| VmemError::Unsupported("mapping thread panicked"))??;
            flush_result?;
            Ok::<_, VmemError>((view, scan_result?, pages))
        })?;
        let admitted = admit(&scanned, pages);
        Ok((admitted.then_some(view), scanned))
    } else {
        let mut sink = PageSink::new(SinkMode::Sync { runs: Vec::new() }, options);
        let scanned = scan(&mut sink)?;
        sink.flush()?;
        if !admit(&scanned, sink.pages_added) {
            return Ok((None, scanned));
        }
        let SinkMode::Sync { runs } = sink.mode else {
            unreachable!("sync sink")
        };
        let mut view = column.reserve_partial_view()?;
        map_runs(backend, store, &mut view, runs)?;
        Ok((Some(view), scanned))
    }
}

/// `true` if physical page `page` of `column` holds a value in `range`:
/// the test that decides which pages a partial view for `range` maps. It
/// runs the page filter's count, which beats an early-exit scalar scan on
/// the pages that do not qualify, most pages of a typical view.
pub(crate) fn page_meets_range<B: Backend>(
    column: &Column<B>,
    page: usize,
    range: &asv_util::ValueRange,
) -> bool {
    column.page_ref(page).scan_filter_count(range).count > 0
}

/// Builds a partial view for `range` by scanning the column's full view —
/// the non-adaptive "create a single partial view" operation used by the
/// micro-benchmarks (Figures 3 and 6) and by rebuild-from-scratch.
///
/// Returns the mapped buffer and the number of qualifying pages.
pub fn build_view_for_range<B: Backend>(
    column: &Column<B>,
    range: &asv_util::ValueRange,
    options: &CreationOptions,
) -> Result<(B::View, usize), VmemError> {
    let (view, pages) = create_while_scanning(
        column,
        options,
        |sink| {
            (0..column.num_pages())
                .filter(|&p| page_meets_range(column, p, range))
                .try_for_each(|page| sink.add_page(page as u64))?;
            Ok(sink.pages_added())
        },
        |_, _| true,
    )?;
    Ok((
        view.expect("an admission that always says yes keeps the view"),
        pages,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_util::ValueRange;
    use asv_vmem::{MmapBackend, SimBackend, ViewBuffer, VALUES_PER_PAGE};

    /// Column with page p holding values p*1000 .. p*1000+VALUES_PER_PAGE.
    fn clustered_column<B: Backend>(backend: B, pages: usize) -> Column<B> {
        let values: Vec<u64> = (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect();
        Column::from_values(backend, &values).unwrap()
    }

    fn view_page_ids<B: Backend>(column: &Column<B>, view: &B::View) -> Vec<u64> {
        view.iter_pages()
            .map(|p| column.wrap_view_page(p).page_id())
            .collect()
    }

    fn check_all_variants<B: Backend>(backend: B) {
        let column = clustered_column(backend, 32);
        // Pages 4..=9 qualify for [4000, 9500].
        let range = ValueRange::new(4000, 9500);
        for options in [
            CreationOptions::NONE,
            CreationOptions::COALESCED,
            CreationOptions::CONCURRENT,
            CreationOptions::ALL,
        ] {
            let (view, qualifying) = build_view_for_range(&column, &range, &options).unwrap();
            assert_eq!(qualifying, 6, "options {options:?}");
            assert_eq!(view.mapped_pages(), 6, "options {options:?}");
            assert_eq!(
                view_page_ids(&column, &view),
                vec![4, 5, 6, 7, 8, 9],
                "options {options:?}"
            );
        }
    }

    #[test]
    fn all_creation_variants_agree_on_sim_backend() {
        check_all_variants(SimBackend::new());
    }

    #[test]
    fn all_creation_variants_agree_on_mmap_backend() {
        check_all_variants(MmapBackend::new());
    }

    #[test]
    fn scattered_qualifying_pages_map_in_scan_order() {
        let column = clustered_column(SimBackend::new(), 16);
        // Pages 2, 3 and 10 qualify.
        let ranges = [ValueRange::new(2000, 3500), ValueRange::new(10_100, 10_200)];
        let (view, _) = create_while_scanning(
            &column,
            &CreationOptions::ALL,
            |sink| {
                for page_idx in 0..column.num_pages() {
                    let page = column.page_ref(page_idx);
                    if page
                        .values()
                        .iter()
                        .any(|v| ranges.iter().any(|r| r.contains(*v)))
                    {
                        sink.add_page(page_idx as u64)?;
                    }
                }
                Ok(sink.pages_added())
            },
            |_, _| true,
        )
        .unwrap();
        assert_eq!(view_page_ids(&column, &view.unwrap()), vec![2, 3, 10]);
    }

    #[test]
    fn empty_scan_produces_empty_view() {
        let column = clustered_column(SimBackend::new(), 8);
        let (view, count) = build_view_for_range(
            &column,
            &ValueRange::new(900_000, 900_001),
            &CreationOptions::ALL,
        )
        .unwrap();
        assert_eq!(count, 0);
        assert_eq!(view.mapped_pages(), 0);
    }

    #[test]
    fn scan_closure_errors_propagate() {
        let column = clustered_column(SimBackend::new(), 4);
        for options in [CreationOptions::NONE, CreationOptions::CONCURRENT] {
            let err = create_while_scanning::<_, (), _, _>(
                &column,
                &options,
                |_| Err(VmemError::Unsupported("injected failure")),
                |_, _| true,
            );
            assert!(err.is_err(), "options {options:?}");
        }
    }

    #[test]
    fn admission_sees_the_scan_and_a_rejected_view_is_not_returned() {
        let column = clustered_column(SimBackend::new(), 8);
        for options in [
            CreationOptions::NONE,
            CreationOptions::COALESCED,
            CreationOptions::CONCURRENT,
            CreationOptions::ALL,
        ] {
            let mut seen = None;
            let (view, result) = create_while_scanning(
                &column,
                &options,
                |sink| {
                    for page in [1, 2, 5] {
                        sink.add_page(page)?;
                    }
                    Ok("scanned")
                },
                |result, pages| {
                    seen = Some((*result, pages));
                    false
                },
            )
            .unwrap();
            assert!(view.is_none(), "options {options:?}");
            assert_eq!(result, "scanned", "options {options:?}");
            assert_eq!(seen, Some(("scanned", 3)), "options {options:?}");
        }
    }

    #[test]
    fn coalescing_reduces_map_calls_but_not_results() {
        // Verified indirectly: both variants produce identical views even
        // for a run pattern with alternating gaps.
        let column = clustered_column(SimBackend::new(), 20);
        let pick = |p: u64| p % 3 != 2; // pages 0,1,3,4,6,7,... qualify
        for options in [CreationOptions::NONE, CreationOptions::COALESCED] {
            let (view, ()) = create_while_scanning(
                &column,
                &options,
                |sink| {
                    for page_idx in 0..column.num_pages() as u64 {
                        if pick(page_idx) {
                            sink.add_page(page_idx)?;
                        }
                    }
                    Ok(())
                },
                |_, _| true,
            )
            .unwrap();
            let expected: Vec<u64> = (0..20u64).filter(|&p| pick(p)).collect();
            assert_eq!(view_page_ids(&column, &view.unwrap()), expected);
        }
    }
}
