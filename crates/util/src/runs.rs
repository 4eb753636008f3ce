//! Grouping of consecutive page numbers into runs.
//!
//! The first view-creation optimization of the paper maps *consecutive
//! qualifying physical pages* with a single `mmap()` call instead of one
//! call per page (paper §2.3, optimization 1). [`RunBuilder`] performs the
//! grouping: qualifying page numbers are pushed in scan order and emitted as
//! maximal runs of consecutive pages.

/// A maximal run of consecutive page numbers `[start, start + len)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// First page number of the run.
    pub start: u64,
    /// Number of consecutive pages in the run (always >= 1).
    pub len: u64,
}

impl Run {
    /// Last page number contained in the run.
    #[inline]
    pub fn end_inclusive(&self) -> u64 {
        self.start + self.len - 1
    }

    /// Returns `true` if `page` belongs to this run.
    #[inline]
    pub fn contains(&self, page: u64) -> bool {
        page >= self.start && page < self.start + self.len
    }

    /// Iterates over the page numbers of the run.
    pub fn pages(&self) -> impl Iterator<Item = u64> {
        self.start..self.start + self.len
    }
}

/// Incrementally groups page numbers into maximal consecutive runs.
///
/// Pages may be pushed in any order overall, but a run is only extended by
/// the *immediately next* page number; any other page closes the current run
/// and starts a new one. This matches the scan-order behaviour of view
/// creation: "as soon as we encounter a non-qualifying page, we map all
/// previously seen qualifying pages in one call".
///
/// # Examples
///
/// ```
/// use asv_util::RunBuilder;
///
/// let mut rb = RunBuilder::new();
/// let mut flushed = Vec::new();
/// for page in [3u64, 4, 5, 9, 10, 20] {
///     if let Some(run) = rb.push(page) {
///         flushed.push(run);
///     }
/// }
/// flushed.extend(rb.finish());
/// assert_eq!(flushed.len(), 3);
/// assert_eq!(flushed[0].start, 3);
/// assert_eq!(flushed[0].len, 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunBuilder {
    current: Option<Run>,
}

impl RunBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self { current: None }
    }

    /// Pushes the next qualifying page number.
    ///
    /// Returns a completed [`Run`] when `page` does not extend the current
    /// run (the completed run must then be mapped / recorded by the caller).
    pub fn push(&mut self, page: u64) -> Option<Run> {
        match self.current.as_mut() {
            None => {
                self.current = Some(Run {
                    start: page,
                    len: 1,
                });
                None
            }
            Some(run) if page == run.start + run.len => {
                run.len += 1;
                None
            }
            Some(run) => {
                let finished = *run;
                self.current = Some(Run {
                    start: page,
                    len: 1,
                });
                Some(finished)
            }
        }
    }

    /// Closes and returns the current run, if any. The builder is reusable
    /// afterwards.
    pub fn finish(&mut self) -> Option<Run> {
        self.current.take()
    }
}

/// Convenience helper: groups an iterator of page numbers into runs.
///
/// Consecutive pages (in iteration order) are merged; the result preserves
/// first-seen order of runs.
pub fn group_into_runs<I: IntoIterator<Item = u64>>(pages: I) -> Vec<Run> {
    let mut rb = RunBuilder::new();
    let mut out = Vec::new();
    for p in pages {
        if let Some(run) = rb.push(p) {
            out.push(run);
        }
    }
    if let Some(run) = rb.finish() {
        out.push(run);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_produces_no_runs() {
        assert!(group_into_runs(std::iter::empty()).is_empty());
        assert!(RunBuilder::new().finish().is_none());
    }

    #[test]
    fn single_page_is_a_run_of_one() {
        let runs = group_into_runs([42]);
        assert_eq!(runs, vec![Run { start: 42, len: 1 }]);
        assert_eq!(runs[0].end_inclusive(), 42);
    }

    #[test]
    fn consecutive_pages_merge_into_one_run() {
        let runs = group_into_runs(0..1000);
        assert_eq!(
            runs,
            vec![Run {
                start: 0,
                len: 1000
            }]
        );
    }

    #[test]
    fn gaps_split_runs() {
        let runs = group_into_runs([1, 2, 3, 7, 8, 100]);
        assert_eq!(
            runs,
            vec![
                Run { start: 1, len: 3 },
                Run { start: 7, len: 2 },
                Run { start: 100, len: 1 },
            ]
        );
    }

    #[test]
    fn non_monotonic_input_closes_runs() {
        // Going backwards never extends a run.
        let runs = group_into_runs([5, 4, 3]);
        assert_eq!(runs.len(), 3);
    }

    #[test]
    fn run_helpers() {
        let run = Run { start: 10, len: 4 };
        assert!(run.contains(10));
        assert!(run.contains(13));
        assert!(!run.contains(14));
        assert_eq!(run.pages().collect::<Vec<_>>(), vec![10, 11, 12, 13]);
    }

    #[test]
    fn builder_is_reusable_after_finish() {
        let mut rb = RunBuilder::new();
        rb.push(1);
        rb.push(2);
        assert_eq!(rb.finish(), Some(Run { start: 1, len: 2 }));
        assert!(rb.push(9).is_none());
        assert_eq!(rb.finish(), Some(Run { start: 9, len: 1 }));
    }
}
