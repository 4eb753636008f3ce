//! Query routing: choosing the view(s) that answer a query.
//!
//! Two modes exist (paper §2.1):
//!
//! * **single-view** — exactly one view that fully covers the query range is
//!   used; among all candidates the one indexing the fewest physical pages
//!   wins (the full view is always a candidate of last resort);
//! * **multi-view** — several partial views are used together if they cover
//!   the requested range *in conjunction*. The current policy mirrors the
//!   paper: "the system tries to answer a query using multiple views if
//!   possible, instead of directing the query to a single (potentially
//!   larger) view"; if the partial views cannot cover the range, routing
//!   falls back to the single-view choice.
//!
//! Both rules work on plain `(covered range, indexed pages)` candidates, so
//! the serving layer ([`crate::serve`]) routes its frozen per-epoch view
//! metadata with the same code as [`route`] routes a [`ViewSet`].

use asv_storage::Column;
use asv_util::ValueRange;
use asv_vmem::Backend;

use crate::config::RoutingMode;
use crate::viewset::ViewSet;

/// Identifies one view of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewId {
    /// The full view `v[-∞,∞]` owned by the column.
    Full,
    /// The partial view at the given position in the [`ViewSet`].
    Partial(usize),
}

/// The outcome of routing a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteSelection {
    /// The views to scan, in scan order.
    pub views: Vec<ViewId>,
    /// The value range covered by the selected views in conjunction. Always
    /// a superset of the query range. Used as the starting point of the
    /// range-widening step during adaptive view creation (Listing 1 line 4).
    pub covered: ValueRange,
    /// Total number of physical pages indexed by the selected views (pages
    /// shared between selected views counted once per view).
    pub indexed_pages: usize,
}

impl RouteSelection {
    /// Returns `true` if the selection is just the full view.
    pub fn is_full_scan(&self) -> bool {
        self.views == [ViewId::Full]
    }
}

/// Routes `query_range` to the most fitting view(s) of `column`.
pub fn route<B: Backend>(
    column: &Column<B>,
    views: &ViewSet<B>,
    query_range: &ValueRange,
    mode: RoutingMode,
) -> RouteSelection {
    match mode {
        RoutingMode::SingleView => route_single(column, views, query_range),
        RoutingMode::MultiView => route_multi(column, views, query_range),
    }
}

/// The routing candidates of `views`: each partial view's covered range and
/// indexed page count, in view-set order.
fn candidates<B: Backend>(
    views: &ViewSet<B>,
) -> impl Iterator<Item = (ValueRange, usize)> + Clone + '_ {
    views
        .partial_views()
        .iter()
        .map(|view| (*view.range(), view.num_pages()))
}

/// Single-view routing: the covering view with the fewest indexed pages.
pub fn route_single<B: Backend>(
    column: &Column<B>,
    views: &ViewSet<B>,
    query_range: &ValueRange,
) -> RouteSelection {
    match smallest_cover(candidates(views), query_range) {
        // Prefer a covering partial view unless the full view is strictly
        // smaller (it never is: a partial view can map at most all pages).
        Some((idx, pages)) if pages <= column.num_pages() => RouteSelection {
            views: vec![ViewId::Partial(idx)],
            covered: *views.partial_view(idx).expect("valid index").range(),
            indexed_pages: pages,
        },
        _ => RouteSelection {
            views: vec![ViewId::Full],
            covered: ValueRange::full(),
            indexed_pages: column.num_pages(),
        },
    }
}

/// Multi-view routing: a greedy interval cover of the query range by
/// partial views, falling back to single-view routing when impossible.
pub fn route_multi<B: Backend>(
    column: &Column<B>,
    views: &ViewSet<B>,
    query_range: &ValueRange,
) -> RouteSelection {
    match greedy_cover(candidates(views), query_range) {
        Some(cover) => RouteSelection {
            views: cover.views.into_iter().map(ViewId::Partial).collect(),
            covered: cover.covered,
            indexed_pages: cover.indexed_pages,
        },
        None => route_single(column, views, query_range),
    }
}

/// The candidate that covers `query_range` on its own while indexing the
/// fewest pages, as `(position, pages)`; the earliest candidate wins ties.
///
/// Candidates are `(covered range, indexed pages)` pairs identified by
/// their position in `candidates`, so the single-owner router (over a
/// [`ViewSet`]) and the serving layer (over frozen view metadata) share one
/// rule.
pub(crate) fn smallest_cover(
    candidates: impl Iterator<Item = (ValueRange, usize)>,
    query_range: &ValueRange,
) -> Option<(usize, usize)> {
    candidates
        .enumerate()
        .filter(|(_, (range, _))| range.covers(query_range))
        .map(|(idx, (_, pages))| (idx, pages))
        .min_by_key(|&(_, pages)| pages)
}

/// A set of candidates that cover a query range in conjunction
/// ([`greedy_cover`]).
#[derive(Debug)]
pub(crate) struct Cover {
    /// Positions of the chosen candidates, in pick order (left to right).
    pub views: Vec<usize>,
    /// The hull of the chosen candidates' ranges.
    pub covered: ValueRange,
    /// The chosen candidates' page counts, summed (shared pages counted
    /// once per candidate).
    pub indexed_pages: usize,
}

/// Tries to cover `query_range` with the `(covered range, indexed pages)`
/// candidates in conjunction, using the classic greedy interval-cover
/// strategy: repeatedly pick, among the candidates whose range contains the
/// first still-uncovered value, the one reaching furthest to the right
/// (ties broken by fewer indexed pages, then by position). `None` if a gap
/// remains.
pub(crate) fn greedy_cover(
    candidates: impl Iterator<Item = (ValueRange, usize)> + Clone,
    query_range: &ValueRange,
) -> Option<Cover> {
    let mut views: Vec<usize> = Vec::new();
    let mut covered: Option<ValueRange> = None;
    let mut indexed_pages = 0usize;
    let mut cursor = query_range.low();
    loop {
        // Among candidates covering `cursor`, pick the one extending
        // furthest; it always advances the cursor.
        let mut best: Option<(usize, ValueRange, usize)> = None; // (idx, range, pages)
        for (idx, (range, pages)) in candidates.clone().enumerate() {
            if range.contains(cursor) {
                let better = match best {
                    None => true,
                    Some((_, best_range, best_pages)) => {
                        range.high() > best_range.high()
                            || (range.high() == best_range.high() && pages < best_pages)
                    }
                };
                if better {
                    best = Some((idx, range, pages));
                }
            }
        }
        let (idx, range, pages) = best?;
        views.push(idx);
        indexed_pages += pages;
        let hull = covered.map_or(range, |c| c.hull(&range));
        covered = Some(hull);
        if range.high() >= query_range.high() {
            return Some(Cover {
                views,
                covered: hull,
                indexed_pages,
            });
        }
        // Below `query_range.high()`, so the increment cannot overflow.
        cursor = range.high() + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_vmem::{MapRequest, SimBackend};

    /// Builds a column of `pages` pages (all values zero — routing only
    /// looks at metadata) and a view set with the given (range, pages)
    /// partial views.
    fn setup(
        pages: usize,
        partials: &[(u64, u64, usize)],
    ) -> (Column<SimBackend>, ViewSet<SimBackend>) {
        let backend = SimBackend::new();
        let values = vec![0u64; pages * asv_vmem::VALUES_PER_PAGE];
        let column = Column::from_values(backend.clone(), &values).unwrap();
        let mut set = ViewSet::new(100);
        for &(lo, hi, n) in partials {
            let mut buf = column.reserve_partial_view().unwrap();
            for slot in 0..n {
                backend
                    .map_run(column.store(), &mut buf, MapRequest::single(slot, slot))
                    .unwrap();
            }
            set.insert_unchecked(ValueRange::new(lo, hi), buf);
        }
        (column, set)
    }

    #[test]
    fn empty_view_set_routes_to_full_view() {
        let (column, set) = setup(10, &[]);
        let sel = route(
            &column,
            &set,
            &ValueRange::new(5, 10),
            RoutingMode::SingleView,
        );
        assert!(sel.is_full_scan());
        assert_eq!(sel.indexed_pages, 10);
        assert!(sel.covered.is_full());
        let sel = route(
            &column,
            &set,
            &ValueRange::new(5, 10),
            RoutingMode::MultiView,
        );
        assert!(sel.is_full_scan());
    }

    #[test]
    fn single_view_picks_smallest_covering_view() {
        let (column, set) = setup(10, &[(0, 100, 6), (10, 60, 3), (20, 30, 1)]);
        // Query [15, 40]: covered by view 0 (6 pages) and view 1 (3 pages),
        // not by view 2.
        let sel = route_single(&column, &set, &ValueRange::new(15, 40));
        assert_eq!(sel.views, vec![ViewId::Partial(1)]);
        assert_eq!(sel.indexed_pages, 3);
        assert_eq!(sel.covered, ValueRange::new(10, 60));
    }

    #[test]
    fn single_view_falls_back_to_full_view_when_uncovered() {
        let (column, set) = setup(10, &[(10, 60, 3)]);
        let sel = route_single(&column, &set, &ValueRange::new(5, 40));
        assert!(sel.is_full_scan());
    }

    #[test]
    fn multi_view_covers_with_overlapping_views() {
        let (column, set) = setup(10, &[(0, 30, 2), (25, 70, 3), (65, 100, 2)]);
        let sel = route_multi(&column, &set, &ValueRange::new(5, 90));
        assert_eq!(
            sel.views,
            vec![ViewId::Partial(0), ViewId::Partial(1), ViewId::Partial(2)]
        );
        assert_eq!(sel.indexed_pages, 7);
        assert_eq!(sel.covered, ValueRange::new(0, 100));
    }

    #[test]
    fn multi_view_covers_with_adjacent_views() {
        // Ranges that touch without overlapping: [0,30] and [31,60].
        let (column, set) = setup(10, &[(0, 30, 2), (31, 60, 2)]);
        let sel = route_multi(&column, &set, &ValueRange::new(10, 55));
        assert_eq!(sel.views.len(), 2);
        assert_eq!(sel.covered, ValueRange::new(0, 60));
    }

    #[test]
    fn multi_view_greedy_picks_furthest_reaching_view_per_step() {
        // A view that already spans the whole query is preferred over
        // chaining two smaller ones (fewer views, fewer shared-page checks);
        // what the multi-view mode avoids is falling back to the *full*
        // view when partial views suffice.
        let (column, set) = setup(10, &[(0, 100, 8), (0, 50, 2), (45, 100, 2)]);
        let sel = route_multi(&column, &set, &ValueRange::new(10, 90));
        assert_eq!(sel.views, vec![ViewId::Partial(0)]);
        assert!(!sel.is_full_scan());
    }

    #[test]
    fn multi_view_falls_back_when_gap_exists() {
        let (column, set) = setup(10, &[(0, 30, 2), (50, 100, 2)]);
        // Gap between 30 and 50: cannot cover [10, 90] with partials.
        let sel = route_multi(&column, &set, &ValueRange::new(10, 90));
        assert!(sel.is_full_scan());
    }

    #[test]
    fn multi_view_single_partial_suffices() {
        let (column, set) = setup(10, &[(0, 100, 4)]);
        let sel = route_multi(&column, &set, &ValueRange::new(10, 90));
        assert_eq!(sel.views, vec![ViewId::Partial(0)]);
        assert!(!sel.is_full_scan());
    }

    #[test]
    fn greedy_cover_breaks_ties_by_fewer_pages() {
        // Two views with identical ranges but different page counts.
        let (column, set) = setup(10, &[(0, 100, 5), (0, 100, 2)]);
        let sel = route_multi(&column, &set, &ValueRange::new(10, 90));
        assert_eq!(sel.views, vec![ViewId::Partial(1)]);
        let _ = column;
    }

    #[test]
    fn point_query_routing() {
        let (column, set) = setup(10, &[(10, 60, 3)]);
        let sel = route(
            &column,
            &set,
            &ValueRange::point(42),
            RoutingMode::SingleView,
        );
        assert_eq!(sel.views, vec![ViewId::Partial(0)]);
        let sel = route(
            &column,
            &set,
            &ValueRange::point(5),
            RoutingMode::SingleView,
        );
        assert!(sel.is_full_scan());
    }
}
