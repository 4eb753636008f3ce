//! Experiment scale presets.
//!
//! The paper runs on a 64 GB machine with 1M-page (≈4 GB) columns. The
//! presets below shrink the *page count* (and, where sensible, the query
//! count and batch sizes) while keeping every other parameter — value
//! domain, selectivities, view limits, tolerances — identical to the paper,
//! so the shapes of all results are preserved (see DESIGN.md §6).

/// Sizing parameters of one experiment run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Preset name (shown in reports).
    pub name: &'static str,
    /// Pages of the Figure 3 column (paper: 1,000,000).
    pub fig3_pages: usize,
    /// Random point updates applied before querying in Figure 3
    /// (paper: 10,000).
    pub fig3_updates: usize,
    /// Pages of the Figure 4/5 columns (paper: 1,000,000).
    pub fig45_pages: usize,
    /// Queries per sequence in Figures 4/5 and Table 1 (paper: 250).
    pub num_queries: usize,
    /// Pages of the Figure 6 column (paper: ≈1,000,000 / 3.9 GB).
    pub fig6_pages: usize,
    /// Pages of the Figure 7 column (paper: 1,000,000).
    pub fig7_pages: usize,
    /// Update-batch sizes of Figure 7 (paper: 100 … 1M in log steps).
    pub fig7_batch_sizes: Vec<usize>,
    /// Repetitions per measurement (paper: 3).
    pub repetitions: usize,
    /// Pages of the `recover-ingest` column.
    pub recover_pages: usize,
    /// Acknowledged-and-committed write batches `recover-ingest` runs
    /// unless `--batches` overrides it.
    pub recover_batches: usize,
    /// Point writes per `recover-ingest` batch.
    pub recover_writes_per_batch: usize,
}

impl Scale {
    /// Minimal sizing for unit/integration tests of the harness itself.
    pub fn tiny() -> Self {
        Self {
            name: "tiny",
            fig3_pages: 256,
            fig3_updates: 200,
            fig45_pages: 256,
            num_queries: 20,
            fig6_pages: 512,
            fig7_pages: 256,
            fig7_batch_sizes: vec![10, 100],
            repetitions: 1,
            recover_pages: 8,
            recover_batches: 6,
            recover_writes_per_batch: 16,
        }
    }

    /// Laptop-scale sizing (~64 MB columns); finishes in seconds. This is
    /// the default of the `experiments` binary.
    pub fn small() -> Self {
        Self {
            name: "small",
            fig3_pages: 16_384,
            fig3_updates: 10_000,
            fig45_pages: 16_384,
            num_queries: 100,
            fig6_pages: 32_768,
            fig7_pages: 16_384,
            fig7_batch_sizes: vec![100, 1_000, 10_000, 100_000],
            repetitions: 3,
            recover_pages: 256,
            recover_batches: 24,
            recover_writes_per_batch: 256,
        }
    }

    /// Half-GB columns and the paper's full query count; minutes per figure.
    pub fn medium() -> Self {
        Self {
            name: "medium",
            fig3_pages: 131_072,
            fig3_updates: 10_000,
            fig45_pages: 131_072,
            num_queries: 250,
            fig6_pages: 262_144,
            fig7_pages: 131_072,
            fig7_batch_sizes: vec![100, 1_000, 10_000, 100_000, 1_000_000],
            repetitions: 3,
            recover_pages: 1_024,
            recover_batches: 32,
            recover_writes_per_batch: 1_024,
        }
    }

    /// The paper's original sizing (1M pages ≈ 4 GB per column). Requires a
    /// machine comparable to the paper's testbed.
    pub fn paper() -> Self {
        Self {
            name: "paper",
            fig3_pages: 1_000_000,
            fig3_updates: 10_000,
            fig45_pages: 1_000_000,
            num_queries: 250,
            fig6_pages: 1_000_000,
            fig7_pages: 1_000_000,
            fig7_batch_sizes: vec![100, 1_000, 10_000, 100_000, 1_000_000],
            repetitions: 3,
            recover_pages: 4_096,
            recover_batches: 48,
            recover_writes_per_batch: 4_096,
        }
    }

    /// Looks up a preset by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "tiny" => Some(Self::tiny()),
            "small" => Some(Self::small()),
            "medium" => Some(Self::medium()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let t = Scale::tiny();
        let s = Scale::small();
        let m = Scale::medium();
        let p = Scale::paper();
        assert!(t.fig45_pages < s.fig45_pages);
        assert!(s.fig45_pages < m.fig45_pages);
        assert!(m.fig45_pages < p.fig45_pages);
        assert_eq!(p.fig45_pages, 1_000_000);
        assert_eq!(p.num_queries, 250);
        assert!(t.recover_pages < s.recover_pages);
        assert!(s.recover_pages < m.recover_pages);
        assert!(m.recover_pages < p.recover_pages);
        assert!(t.recover_batches <= s.recover_batches);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Scale::by_name("tiny").unwrap().name, "tiny");
        assert_eq!(Scale::by_name("small").unwrap().name, "small");
        assert_eq!(Scale::by_name("medium").unwrap().name, "medium");
        assert_eq!(Scale::by_name("paper").unwrap().name, "paper");
        assert!(Scale::by_name("galactic").is_none());
        assert_eq!(Scale::default().name, "small");
    }
}
