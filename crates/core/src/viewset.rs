//! The per-column set of partial views (the "view index").
//!
//! The view set stores all partial views of one column and implements the
//! retention policy of Listing 1 (lines 21-32): a candidate view produced as
//! a side-product of query answering is either discarded, replaces an
//! existing view, or is inserted — bounded by the maximum view count.

use asv_util::ValueRange;
use asv_vmem::{Backend, MappingTable, ViewBuffer};

use crate::query::ViewMaintenance;
use crate::view::PartialView;

/// The set of partial views of one column.
pub struct ViewSet<B: Backend> {
    partials: Vec<PartialView<B>>,
    max_views: usize,
    next_id: u64,
    /// Once the view limit has been reached, view generation stops for good
    /// (paper §2.2), even if views are later removed.
    generation_stopped: bool,
    /// The view epoch: bumped every time an update alignment (or rebuild)
    /// publishes a re-aligned view set. Queries observe a single epoch for
    /// their whole execution.
    generation: u64,
}

impl<B: Backend> ViewSet<B> {
    /// Creates an empty view set with the given view limit.
    pub fn new(max_views: usize) -> Self {
        Self {
            partials: Vec::new(),
            max_views,
            next_id: 0,
            generation_stopped: false,
            generation: 0,
        }
    }

    /// The current view epoch (number of published alignments/rebuilds).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Moves the set into the next view epoch. Called by the alignment /
    /// rebuild machinery when a re-aligned view set is published.
    pub(crate) fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// Number of partial views currently held.
    pub fn num_partial_views(&self) -> usize {
        self.partials.len()
    }

    /// Returns `true` if no partial views exist yet.
    pub fn is_empty(&self) -> bool {
        self.partials.is_empty()
    }

    /// The configured maximum number of partial views.
    pub fn max_views(&self) -> usize {
        self.max_views
    }

    /// Returns `true` if new partial views may still be generated.
    pub fn can_create_views(&self) -> bool {
        !self.generation_stopped && self.partials.len() < self.max_views
    }

    /// All partial views, in insertion order.
    pub fn partial_views(&self) -> &[PartialView<B>] {
        &self.partials
    }

    /// Mutable access to a partial view by position.
    pub fn partial_view_mut(&mut self, idx: usize) -> Option<&mut PartialView<B>> {
        self.partials.get_mut(idx)
    }

    /// A partial view by position.
    pub fn partial_view(&self, idx: usize) -> Option<&PartialView<B>> {
        self.partials.get(idx)
    }

    /// Iterates over `(position, view)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &PartialView<B>)> {
        self.partials.iter().enumerate()
    }

    /// Iterates over `(position, id, range, mapping table)` of every
    /// partial view: the input [`crate::align::snapshot_alignment`] takes.
    pub fn mappings(&self) -> impl Iterator<Item = (usize, u64, ValueRange, &MappingTable)> {
        self.iter()
            .map(|(idx, view)| (idx, view.id(), *view.range(), view.buffer().mapping()))
    }

    /// Removes all partial views (used by rebuild-from-scratch).
    pub fn clear(&mut self) {
        self.partials.clear();
    }

    /// Inserts a view unconditionally (used by rebuilds and by tests); the
    /// view receives a fresh id.
    pub fn insert_unchecked(&mut self, range: ValueRange, buffer: B::View) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.partials.push(PartialView::new(id, range, buffer));
        id
    }

    /// Offers a candidate view (covered `range`, mapped `buffer` with
    /// `candidate_pages` pages) to the view index, applying the retention
    /// policy of Listing 1 lines 21-32: the candidate is discarded,
    /// replaces an existing view of similar size that it covers, or is
    /// inserted while the view limit allows. The decision needs no buffer;
    /// [`crate::AdaptiveColumn::query`] makes it before mapping its
    /// candidate.
    #[allow(clippy::too_many_arguments)]
    pub fn offer_candidate(
        &mut self,
        range: ValueRange,
        buffer: B::View,
        candidate_pages: usize,
        full_view_pages: usize,
        discard_tolerance: usize,
        replacement_tolerance: usize,
    ) -> ViewMaintenance {
        let verdict = self.judge(
            &range,
            candidate_pages,
            full_view_pages,
            discard_tolerance,
            replacement_tolerance,
        );
        self.admit(verdict, range, buffer);
        verdict.outcome()
    }

    /// The retention policy's verdict on a candidate covering `range` and
    /// indexing `candidate_pages` pages. It needs no buffer, so a candidate
    /// can be judged before it is mapped.
    ///
    /// * The candidate must index strictly fewer pages than the full view
    ///   (`full_view_pages`), otherwise it is discarded.
    /// * If it covers a *subset* of an existing partial view while indexing
    ///   at least `existing - discard_tolerance` pages, it is discarded.
    /// * If it covers a *superset* of an existing partial view while
    ///   indexing at most `existing + replacement_tolerance` pages, it
    ///   replaces that view.
    /// * Otherwise it is inserted, provided the view limit has not been
    ///   reached; reaching the limit permanently stops view generation.
    pub(crate) fn judge(
        &self,
        range: &ValueRange,
        candidate_pages: usize,
        full_view_pages: usize,
        discard_tolerance: usize,
        replacement_tolerance: usize,
    ) -> Verdict {
        if candidate_pages >= full_view_pages {
            return Verdict::Reject(ViewMaintenance::DiscardedNotSmaller);
        }
        for (idx, existing) in self.partials.iter().enumerate() {
            // Candidate ⊆ existing but not (sufficiently) smaller: reject.
            if range.is_subset_of(existing.range())
                && candidate_pages + discard_tolerance >= existing.num_pages()
            {
                return Verdict::Reject(ViewMaintenance::DiscardedSubsumed);
            }
            // Candidate ⊇ existing and of similar size: replace.
            if range.covers(existing.range())
                && candidate_pages <= existing.num_pages() + replacement_tolerance
            {
                return Verdict::Replace(idx);
            }
        }
        if !self.can_create_views() {
            return Verdict::Reject(ViewMaintenance::NotAttempted);
        }
        Verdict::Insert
    }

    /// Applies `verdict`, which [`Self::judge`] gave on this set, to the
    /// candidate (`range`, `buffer`). A rejected buffer is dropped.
    pub(crate) fn admit(&mut self, verdict: Verdict, range: ValueRange, buffer: B::View) {
        match verdict {
            Verdict::Reject(_) => {}
            Verdict::Replace(idx) => {
                let id = self.next_id;
                self.next_id += 1;
                self.partials[idx] = PartialView::new(id, range, buffer);
            }
            Verdict::Insert => {
                self.insert_unchecked(range, buffer);
                if self.partials.len() >= self.max_views {
                    self.generation_stopped = true;
                }
            }
        }
    }
}

/// The retention policy's decision on a candidate view ([`ViewSet::judge`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Verdict {
    /// The candidate is not kept; the outcome says why.
    Reject(ViewMaintenance),
    /// The candidate replaces the partial view at this position.
    Replace(usize),
    /// The candidate becomes a new partial view.
    Insert,
}

impl Verdict {
    /// `true` if the candidate is kept (replaces or is inserted).
    pub(crate) fn admits(self) -> bool {
        !matches!(self, Verdict::Reject(_))
    }

    /// The [`ViewMaintenance`] outcome a query reports for this verdict.
    pub(crate) fn outcome(self) -> ViewMaintenance {
        match self {
            Verdict::Reject(outcome) => outcome,
            Verdict::Replace(_) => ViewMaintenance::ReplacedExisting,
            Verdict::Insert => ViewMaintenance::Inserted,
        }
    }
}

impl<B: Backend> std::fmt::Debug for ViewSet<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewSet")
            .field("num_partial_views", &self.partials.len())
            .field("max_views", &self.max_views)
            .field("generation_stopped", &self.generation_stopped)
            .field("generation", &self.generation)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_vmem::{MapRequest, PhysicalStore, SimBackend, SimStore, SimView};

    fn store() -> (SimBackend, SimStore) {
        let b = SimBackend::new();
        let s = b.create_store(100).unwrap();
        (b, s)
    }

    fn buffer(b: &SimBackend, s: &SimStore, pages: &[usize]) -> SimView {
        let mut v = b.reserve_view(s, s.num_pages()).unwrap();
        for (slot, &p) in pages.iter().enumerate() {
            b.map_run(s, &mut v, MapRequest::single(slot, p)).unwrap();
        }
        v
    }

    #[test]
    fn empty_set() {
        let set: ViewSet<SimBackend> = ViewSet::new(10);
        assert!(set.is_empty());
        assert_eq!(set.num_partial_views(), 0);
        assert_eq!(set.max_views(), 10);
        assert!(set.can_create_views());
        assert!(format!("{set:?}").contains("max_views"));
    }

    #[test]
    fn candidate_larger_than_full_view_is_discarded() {
        let (b, s) = store();
        let mut set: ViewSet<SimBackend> = ViewSet::new(10);
        let buf = buffer(&b, &s, &[0, 1, 2]);
        let m = set.offer_candidate(ValueRange::new(0, 10), buf, 100, 100, 0, 0);
        assert_eq!(m, ViewMaintenance::DiscardedNotSmaller);
        assert!(set.is_empty());
    }

    #[test]
    fn candidate_smaller_than_full_view_is_inserted() {
        let (b, s) = store();
        let mut set: ViewSet<SimBackend> = ViewSet::new(10);
        let buf = buffer(&b, &s, &[0, 1, 2]);
        let m = set.offer_candidate(ValueRange::new(0, 10), buf, 3, 100, 0, 0);
        assert_eq!(m, ViewMaintenance::Inserted);
        assert_eq!(set.num_partial_views(), 1);
        assert_eq!(set.partial_view(0).unwrap().num_pages(), 3);
    }

    #[test]
    fn subset_candidate_of_similar_size_is_discarded() {
        let (b, s) = store();
        let mut set: ViewSet<SimBackend> = ViewSet::new(10);
        set.insert_unchecked(ValueRange::new(0, 100), buffer(&b, &s, &[0, 1, 2, 3]));
        // Subset range, 4 pages >= 4 - 0: discard.
        let m = set.offer_candidate(
            ValueRange::new(10, 50),
            buffer(&b, &s, &[0, 1, 2, 3]),
            4,
            100,
            0,
            0,
        );
        assert_eq!(m, ViewMaintenance::DiscardedSubsumed);
        assert_eq!(set.num_partial_views(), 1);
    }

    #[test]
    fn subset_candidate_clearly_smaller_is_inserted() {
        let (b, s) = store();
        let mut set: ViewSet<SimBackend> = ViewSet::new(10);
        set.insert_unchecked(ValueRange::new(0, 100), buffer(&b, &s, &[0, 1, 2, 3]));
        // Subset range but indexes only 1 page < 4 - 0: useful, insert.
        let m = set.offer_candidate(ValueRange::new(10, 50), buffer(&b, &s, &[7]), 1, 100, 0, 0);
        assert_eq!(m, ViewMaintenance::Inserted);
        assert_eq!(set.num_partial_views(), 2);
    }

    #[test]
    fn discard_tolerance_widens_the_rejection_band() {
        let (b, s) = store();
        let mut set: ViewSet<SimBackend> = ViewSet::new(10);
        set.insert_unchecked(ValueRange::new(0, 100), buffer(&b, &s, &[0, 1, 2, 3]));
        // Candidate indexes 2 pages; with d = 2 this is within the band
        // (2 >= 4 - 2) and gets rejected even though it is smaller.
        let m = set.offer_candidate(
            ValueRange::new(10, 50),
            buffer(&b, &s, &[0, 1]),
            2,
            100,
            2,
            0,
        );
        assert_eq!(m, ViewMaintenance::DiscardedSubsumed);
    }

    #[test]
    fn superset_candidate_of_similar_size_replaces() {
        let (b, s) = store();
        let mut set: ViewSet<SimBackend> = ViewSet::new(10);
        set.insert_unchecked(ValueRange::new(10, 50), buffer(&b, &s, &[0, 1, 2]));
        let m = set.offer_candidate(
            ValueRange::new(0, 100),
            buffer(&b, &s, &[0, 1, 2]),
            3,
            100,
            0,
            0,
        );
        assert_eq!(m, ViewMaintenance::ReplacedExisting);
        assert_eq!(set.num_partial_views(), 1);
        assert_eq!(
            set.partial_view(0).unwrap().range(),
            &ValueRange::new(0, 100)
        );
    }

    #[test]
    fn superset_candidate_much_larger_is_inserted_not_replaced() {
        let (b, s) = store();
        let mut set: ViewSet<SimBackend> = ViewSet::new(10);
        set.insert_unchecked(ValueRange::new(10, 50), buffer(&b, &s, &[0]));
        // Superset but 5 pages > 1 + 0: not a replacement candidate.
        let m = set.offer_candidate(
            ValueRange::new(0, 100),
            buffer(&b, &s, &[0, 1, 2, 3, 4]),
            5,
            100,
            0,
            0,
        );
        assert_eq!(m, ViewMaintenance::Inserted);
        assert_eq!(set.num_partial_views(), 2);
    }

    #[test]
    fn replacement_tolerance_allows_slightly_larger_replacements() {
        let (b, s) = store();
        let mut set: ViewSet<SimBackend> = ViewSet::new(10);
        set.insert_unchecked(ValueRange::new(10, 50), buffer(&b, &s, &[0]));
        let m = set.offer_candidate(
            ValueRange::new(0, 100),
            buffer(&b, &s, &[0, 1, 2]),
            3,
            100,
            0,
            2,
        );
        assert_eq!(m, ViewMaintenance::ReplacedExisting);
        assert_eq!(set.num_partial_views(), 1);
        assert_eq!(set.partial_view(0).unwrap().num_pages(), 3);
    }

    #[test]
    fn view_limit_permanently_stops_generation() {
        let (b, s) = store();
        let mut set: ViewSet<SimBackend> = ViewSet::new(2);
        assert_eq!(
            set.offer_candidate(ValueRange::new(0, 10), buffer(&b, &s, &[0]), 1, 100, 0, 0),
            ViewMaintenance::Inserted
        );
        assert_eq!(
            set.offer_candidate(ValueRange::new(20, 30), buffer(&b, &s, &[1]), 1, 100, 0, 0),
            ViewMaintenance::Inserted
        );
        assert!(!set.can_create_views());
        // Limit reached: further unrelated candidates are not inserted.
        assert_eq!(
            set.offer_candidate(ValueRange::new(40, 60), buffer(&b, &s, &[2]), 1, 100, 0, 0),
            ViewMaintenance::NotAttempted
        );
        assert_eq!(set.num_partial_views(), 2);
        // Even after clearing, generation stays stopped (the paper stops
        // "altogether").
        set.clear();
        assert!(!set.can_create_views());
    }

    #[test]
    fn generation_starts_at_zero_and_bumps() {
        let mut set: ViewSet<SimBackend> = ViewSet::new(4);
        assert_eq!(set.generation(), 0);
        set.bump_generation();
        set.bump_generation();
        assert_eq!(set.generation(), 2);
        assert!(format!("{set:?}").contains("generation"));
    }

    #[test]
    fn replacement_still_happens_after_limit() {
        let (b, s) = store();
        let mut set: ViewSet<SimBackend> = ViewSet::new(1);
        set.offer_candidate(ValueRange::new(10, 50), buffer(&b, &s, &[0]), 1, 100, 0, 0);
        assert!(!set.can_create_views());
        // A superset candidate of similar size replaces the existing view
        // even though no *new* views may be created.
        let m = set.offer_candidate(ValueRange::new(0, 60), buffer(&b, &s, &[1]), 1, 100, 0, 0);
        assert_eq!(m, ViewMaintenance::ReplacedExisting);
    }
}
