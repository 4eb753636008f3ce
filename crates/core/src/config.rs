//! Configuration of the adaptive storage layer.

use asv_util::Parallelism;

/// How queries are routed to views (paper §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Use exactly one view that fully covers the query; among candidates
    /// pick the one indexing the fewest physical pages.
    #[default]
    SingleView,
    /// Use multiple (partial) views if they cover the query range in
    /// conjunction; fall back to single-view routing otherwise. Shared
    /// physical pages are scanned only once (tracked with a bitvector).
    MultiView,
}

/// Options for (partial) view creation (paper §2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreationOptions {
    /// Optimization 1: map consecutive qualifying physical pages with a
    /// single `mmap()` call.
    pub coalesce_runs: bool,
    /// Optimization 2: perform the `mmap()` calls in a separate mapping
    /// thread fed by a concurrent queue, overlapping mapping with scanning.
    pub concurrent_mapping: bool,
}

impl CreationOptions {
    /// No optimizations (Figure 6, variant "No optimizations").
    pub const NONE: Self = Self {
        coalesce_runs: false,
        concurrent_mapping: false,
    };
    /// Only run coalescing (Figure 6, variant "Consecutively mapped").
    pub const COALESCED: Self = Self {
        coalesce_runs: true,
        concurrent_mapping: false,
    };
    /// Only the background mapping thread (Figure 6, variant
    /// "Concurrently mapped").
    pub const CONCURRENT: Self = Self {
        coalesce_runs: false,
        concurrent_mapping: true,
    };
    /// Both optimizations (Figure 6, variant "Both optimizations").
    pub const ALL: Self = Self {
        coalesce_runs: true,
        concurrent_mapping: true,
    };
}

impl Default for CreationOptions {
    fn default() -> Self {
        Self::ALL
    }
}

/// The write-queue knob of [`crate::ServeTable`]: when its queue of
/// writes awaiting a fold becomes an alignment round. An
/// [`crate::AdaptiveColumn`] reads none of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AlignChunking {
    /// Read by nothing: a serving table's fold re-aligns every affected
    /// view's page set at once, and its next tick publishes them in one
    /// epoch, whatever the batch's size. Stays only because
    /// `benchmark/src/sut.rs` sets it; ROADMAP item 12(a) deletes it.
    pub chunk_updates: usize,
    /// Group-commit threshold of the serving layer's maintenance loop
    /// ([`crate::serve`]): an *idle* maintenance tick (no alignment round
    /// in flight) folds the queued writes into a new round only once at
    /// least this many distinct rows are queued (repeated writes to a row
    /// count once), batching small writes into fewer alignment rounds. `0`
    /// (the default) folds on the first idle tick after any write;
    /// [`crate::serve::ServeTable::quiesce`] folds regardless of the
    /// threshold. Writes are never dropped and the writer never stalls.
    pub group_commit_idle: usize,
}

impl AlignChunking {
    /// Sets [`Self::chunk_updates`], which nothing reads. Stays only
    /// because `benchmark/src/sut.rs` calls it; ROADMAP item 12(a) deletes
    /// it.
    pub fn with_chunk_updates(mut self, chunk_updates: usize) -> Self {
        self.chunk_updates = chunk_updates;
        self
    }

    /// Builder-style setter for the idle group-commit threshold.
    pub fn with_group_commit_idle(mut self, group_commit_idle: usize) -> Self {
        self.group_commit_idle = group_commit_idle;
        self
    }
}

/// Configuration of an [`crate::AdaptiveColumn`] or a
/// [`crate::ServeTable`]. A serving table reads only
/// `chunking.group_commit_idle`, and an adaptive column everything but
/// `chunking`; a serving table's views are installed explicitly and never
/// mapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Query routing mode. Ignored by [`crate::ServeTable`].
    pub routing: RoutingMode,
    /// Maximum number of partial views kept per column. Once reached, "we
    /// stop the generation of new partial views altogether and perform
    /// query answering based on the static set of existing views"
    /// (paper §2.2). The paper's experiments use 20–200. Ignored by
    /// [`crate::ServeTable`].
    pub max_views: usize,
    /// Discard tolerance `d`: a candidate view covering a *subset* of an
    /// existing partial view is discarded if it indexes at least
    /// `existing.pages - d` pages (paper §2.2). The experiments use 0.
    /// Ignored by [`crate::ServeTable`].
    pub discard_tolerance: usize,
    /// Replacement tolerance `r`: a candidate view covering a *superset* of
    /// an existing partial view replaces it if it indexes at most
    /// `existing.pages + r` pages (paper §2.2). The experiments use 0.
    /// Ignored by [`crate::ServeTable`].
    pub replacement_tolerance: usize,
    /// Whether query processing is allowed to create new partial views at
    /// all. Disabling this turns the layer into a static view index.
    /// Ignored by [`crate::ServeTable`].
    pub adaptive_creation: bool,
    /// View-creation optimizations. Ignored by [`crate::ServeTable`].
    pub creation: CreationOptions,
    /// The write-queue knob of [`crate::ServeTable`]. Ignored by
    /// [`crate::AdaptiveColumn`].
    pub chunking: AlignChunking,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            routing: RoutingMode::SingleView,
            max_views: 100,
            discard_tolerance: 0,
            replacement_tolerance: 0,
            adaptive_creation: true,
            creation: CreationOptions::default(),
            chunking: AlignChunking::default(),
        }
    }
}

impl AdaptiveConfig {
    /// The configuration used for the paper's single-view experiments
    /// (Figure 4): single-view routing, up to 100 views, tolerances 0.
    pub fn paper_single_view() -> Self {
        Self::default()
    }

    /// The configuration used for the paper's multi-view experiments
    /// (Figure 5): multi-view routing with the given view limit
    /// (200 for 1% selectivity, 20 for 10% selectivity in the paper).
    pub fn paper_multi_view(max_views: usize) -> Self {
        Self {
            routing: RoutingMode::MultiView,
            max_views,
            ..Self::default()
        }
    }

    /// Builder-style setter for the routing mode.
    pub fn with_routing(mut self, routing: RoutingMode) -> Self {
        self.routing = routing;
        self
    }

    /// Builder-style setter for the view limit.
    pub fn with_max_views(mut self, max_views: usize) -> Self {
        self.max_views = max_views;
        self
    }

    /// Builder-style setter for the discard tolerance `d`.
    pub fn with_discard_tolerance(mut self, d: usize) -> Self {
        self.discard_tolerance = d;
        self
    }

    /// Builder-style setter for the replacement tolerance `r`.
    pub fn with_replacement_tolerance(mut self, r: usize) -> Self {
        self.replacement_tolerance = r;
        self
    }

    /// Builder-style setter for the creation options.
    pub fn with_creation(mut self, creation: CreationOptions) -> Self {
        self.creation = creation;
        self
    }

    /// Builder-style switch for adaptive creation.
    pub fn with_adaptive_creation(mut self, enabled: bool) -> Self {
        self.adaptive_creation = enabled;
        self
    }

    /// Returns `self` unchanged: scans and alignment plans run on one
    /// thread, and `Parallelism` has no other value. Stays only because
    /// `benchmark/src/sut.rs` calls it; ROADMAP item 12(a) deletes it.
    pub fn with_parallelism(self, _: Parallelism) -> Self {
        self
    }

    /// Builder-style setter for the serving table's write-queue knob.
    pub fn with_chunking(mut self, chunking: AlignChunking) -> Self {
        self.chunking = chunking;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = AdaptiveConfig::default();
        assert_eq!(c.routing, RoutingMode::SingleView);
        assert_eq!(c.max_views, 100);
        assert_eq!(c.discard_tolerance, 0);
        assert_eq!(c.replacement_tolerance, 0);
        assert!(c.adaptive_creation);
        assert_eq!(c.creation, CreationOptions::ALL);
        assert_eq!(c.chunking.chunk_updates, 0);
        assert_eq!(c.chunking.group_commit_idle, 0, "fold on first idle tick");
    }

    #[test]
    fn chunking_builder() {
        let c = AdaptiveConfig::default().with_chunking(
            AlignChunking::default()
                .with_chunk_updates(128)
                .with_group_commit_idle(32),
        );
        assert_eq!(c.chunking.chunk_updates, 128);
        assert_eq!(c.chunking.group_commit_idle, 32);
    }

    #[test]
    fn builder_setters() {
        let c = AdaptiveConfig::default()
            .with_routing(RoutingMode::MultiView)
            .with_max_views(20)
            .with_discard_tolerance(3)
            .with_replacement_tolerance(5)
            .with_creation(CreationOptions::NONE)
            .with_adaptive_creation(false);
        assert_eq!(c.routing, RoutingMode::MultiView);
        assert_eq!(c.max_views, 20);
        assert_eq!(c.discard_tolerance, 3);
        assert_eq!(c.replacement_tolerance, 5);
        assert_eq!(c.creation, CreationOptions::NONE);
        assert!(!c.adaptive_creation);
        assert_eq!(c.with_parallelism(Parallelism::Sequential), c);
    }

    #[test]
    fn paper_presets() {
        assert_eq!(AdaptiveConfig::paper_single_view().max_views, 100);
        let multi = AdaptiveConfig::paper_multi_view(200);
        assert_eq!(multi.routing, RoutingMode::MultiView);
        assert_eq!(multi.max_views, 200);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn creation_option_presets() {
        assert!(!CreationOptions::NONE.coalesce_runs);
        assert!(!CreationOptions::NONE.concurrent_mapping);
        assert!(CreationOptions::COALESCED.coalesce_runs);
        assert!(CreationOptions::CONCURRENT.concurrent_mapping);
        assert!(CreationOptions::ALL.coalesce_runs && CreationOptions::ALL.concurrent_mapping);
    }
}
