//! A query's candidate view is judged before it is mapped.
//!
//! * **A rejected candidate makes no view call**: on the synchronous
//!   creation path ([`CreationOptions::NONE`] and
//!   [`CreationOptions::COALESCED`]) a candidate the retention policy
//!   discards — because every page meets its range, or because the view it
//!   was routed to already covers it — adds no `reserve_view` and no
//!   `map_run`. An admitted candidate reserves one view and makes exactly
//!   one `map_run` per page run, and its mapping equals the one
//!   [`build_view_for_range`] builds for its range.
//! * **Eager == deferred == Listing 1**: on a column of 90 % zero pages
//!   with a small view limit, the deferred path (`COALESCED`, mapped after
//!   admission) and the eager one (`ALL`, mapped by the mapping thread
//!   during the scan) give the same answers, the same per-query
//!   [`ViewMaintenance`] and the same view ranges and page sets, on both
//!   backends. Both equal a model of Listing 1 that widens each candidate
//!   from the pages its routed views hold and applies the retention
//!   policy to the widened range.

mod common;

use asv_core::{
    build_view_for_range, route, AdaptiveColumn, AdaptiveConfig, CreationOptions, RangeQuery,
    RoutingMode, ViewId, ViewMaintenance,
};
use asv_util::ValueRange;
use asv_vmem::{Backend, SimBackend, ViewBuffer, VALUES_PER_PAGE};
use asv_workloads::Distribution;
use common::CountingBackend;

const STRIPED_PAGES: usize = 32;

/// Page `p` holds `key(p) * 1000 + slot`, with `key(p) = (p % 8) * 4 + p / 8`:
/// the pages of consecutive keys are scattered, so a view over a few keys
/// maps several separate page runs.
fn striped_values() -> Vec<u64> {
    (0..STRIPED_PAGES * VALUES_PER_PAGE)
        .map(|i| {
            let page = i / VALUES_PER_PAGE;
            let key = (page % 8) * 4 + page / 8;
            (key * 1000 + i % VALUES_PER_PAGE) as u64
        })
        .collect()
}

/// Number of maximal stretches of `pages` (in slot order) whose next page
/// is the page after: the `map_run` calls a coalescing sink makes.
fn page_runs(pages: &[usize]) -> usize {
    pages
        .iter()
        .enumerate()
        .filter(|&(i, &page)| i == 0 || pages[i - 1] + 1 != page)
        .count()
}

fn check_admission_makes_only_the_kept_views_calls(options: CreationOptions) {
    let backend = CountingBackend::new();
    let config = AdaptiveConfig {
        creation: options,
        ..AdaptiveConfig::default()
    };
    let mut col = AdaptiveColumn::from_values(backend.clone(), &striped_values(), config).unwrap();
    let label = format!("{options:?}");

    // Keys 0..=5 sit on pages 0, 1, 8, 9, 16 and 24: four runs.
    let kept = RangeQuery::new(0, 5 * 1000 + 510);
    let before = backend.calls();
    let out = col.query(&kept).unwrap();
    let after = backend.calls();
    assert_eq!(out.view_maintenance, ViewMaintenance::Inserted, "{label}");
    let view = col.views().partial_view(0).unwrap();
    let pages: Vec<usize> = view.buffer().mapping().iter().map(|(_, p)| p).collect();
    assert_eq!(pages, [0, 1, 8, 9, 16, 24], "{label}: pages in scan order");
    let runs = if options.coalesce_runs {
        page_runs(&pages)
    } else {
        pages.len()
    };
    assert_eq!(runs, if options.coalesce_runs { 4 } else { 6 }, "{label}");
    assert_eq!(
        [
            after[0] - before[0],
            after[1] - before[1],
            after[2] - before[2]
        ],
        [1, runs, 0],
        "{label}: one reservation and one map_run per run"
    );
    let (rebuilt, qualifying) = build_view_for_range(col.column(), view.range(), &options).unwrap();
    assert_eq!(qualifying, pages.len(), "{label}");
    assert_eq!(
        rebuilt.mapping(),
        view.buffer().mapping(),
        "{label}: the kept view maps what a rebuild of its range maps"
    );

    // Every page holds key 0..31 values and meets this range.
    let every_page = RangeQuery::new(0, 40_000);
    // Routed to the view above, whose pages all meet this narrower range.
    let narrower = RangeQuery::new(100, 5 * 1000 + 400);
    for (query, routed, outcome) in [
        (
            every_page,
            ViewId::Full,
            ViewMaintenance::DiscardedNotSmaller,
        ),
        (
            narrower,
            ViewId::Partial(0),
            ViewMaintenance::DiscardedSubsumed,
        ),
    ] {
        let before = backend.calls();
        let out = col.query(&query).unwrap();
        assert_eq!(out.views_used, vec![routed], "{label}: {query:?}");
        assert_eq!(out.view_maintenance, outcome, "{label}: {query:?}");
        assert_eq!(
            backend.calls(),
            before,
            "{label}: a discarded candidate makes no view call"
        );
        assert_eq!(col.views().num_partial_views(), 1, "{label}");
    }
}

#[test]
fn rejected_candidates_make_no_view_calls_uncoalesced() {
    check_admission_makes_only_the_kept_views_calls(CreationOptions::NONE);
}

#[test]
fn rejected_candidates_make_no_view_calls_coalesced() {
    check_admission_makes_only_the_kept_views_calls(CreationOptions::COALESCED);
}

/// A view of the Listing 1 model: its covered range and its pages,
/// ascending.
type ModelView = (ValueRange, Vec<usize>);

/// Listing 1 on plain data: the candidate of a query is widened from the
/// pages the routed views hold, then kept, replacing or discarded by the
/// retention policy.
struct Listing1Model {
    views: Vec<ModelView>,
    stopped: bool,
    config: AdaptiveConfig,
}

impl Listing1Model {
    fn new(config: AdaptiveConfig) -> Self {
        Self {
            views: Vec::new(),
            stopped: false,
            config,
        }
    }

    /// The outcome of `range` routed to `routed` (page sets of the views
    /// scanned, covering `covered`) over `values`.
    fn query(
        &mut self,
        values: &[u64],
        range: &ValueRange,
        routed: &[Vec<usize>],
        covered: &ValueRange,
    ) -> ViewMaintenance {
        if self.stopped || self.views.len() >= self.config.max_views {
            return ViewMaintenance::NotAttempted;
        }
        let num_pages = values.len() / VALUES_PER_PAGE;
        let mut scanned: Vec<usize> = routed.iter().flatten().copied().collect();
        scanned.sort_unstable();
        scanned.dedup();
        let (mut below, mut above) = (None::<u64>, None::<u64>);
        let mut pages = Vec::new();
        for &page in &scanned {
            let slots = &values[page * VALUES_PER_PAGE..(page + 1) * VALUES_PER_PAGE];
            if slots.iter().any(|&v| range.contains(v)) {
                pages.push(page);
                continue;
            }
            // A page without qualifying values bounds the widening.
            if let Some(b) = slots.iter().copied().filter(|&v| v < range.low()).max() {
                below = below.max(Some(b));
            }
            if let Some(a) = slots.iter().copied().filter(|&v| v > range.high()).min() {
                above = Some(above.map_or(a, |cur: u64| cur.min(a)));
            }
        }
        let widened = range
            .widen_between(below, above)
            .intersect(covered)
            .unwrap_or(*range)
            .hull(range);
        if pages.len() >= num_pages {
            return ViewMaintenance::DiscardedNotSmaller;
        }
        for existing in &mut self.views {
            if widened.is_subset_of(&existing.0)
                && pages.len() + self.config.discard_tolerance >= existing.1.len()
            {
                return ViewMaintenance::DiscardedSubsumed;
            }
            if widened.covers(&existing.0)
                && pages.len() <= existing.1.len() + self.config.replacement_tolerance
            {
                *existing = (widened, pages);
                return ViewMaintenance::ReplacedExisting;
            }
        }
        self.views.push((widened, pages));
        if self.views.len() >= self.config.max_views {
            self.stopped = true;
        }
        ViewMaintenance::Inserted
    }
}

/// Range and ascending page set of every partial view of `col`.
fn view_state<B: Backend>(col: &AdaptiveColumn<B>) -> Vec<ModelView> {
    col.views()
        .iter()
        .map(|(_, view)| (*view.range(), view.buffer().mapping().phys_pages_sorted()))
        .collect()
}

/// The page sets of the views `col` routes `range` to, and their covered
/// range.
fn routed_pages<B: Backend>(
    col: &AdaptiveColumn<B>,
    range: &ValueRange,
) -> (Vec<Vec<usize>>, ValueRange) {
    let selection = route(col.column(), col.views(), range, col.config().routing);
    let pages = selection
        .views
        .iter()
        .map(|id| match id {
            ViewId::Full => (0..col.column().num_pages()).collect(),
            ViewId::Partial(idx) => {
                let view = col.views().partial_view(*idx).unwrap();
                view.buffer().mapping().phys_pages_sorted()
            }
        })
        .collect();
    (pages, selection.covered)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

const MAX_VALUE: u64 = 1_000_000;

/// Ranges of 0.05 % to 30 % of the domain, each seventh one a third of it
/// from 0 (every page meets it), and each fourth one widening its
/// predecessor a little.
fn sparse_queries(seed: u64, count: usize) -> Vec<RangeQuery> {
    let mut state = seed;
    let mut queries: Vec<RangeQuery> = Vec::with_capacity(count);
    for i in 0..count {
        let width = [500, 2_000, 10_000, 50_000, 300_000][(xorshift(&mut state) % 5) as usize];
        let (lo, hi) = match (i % 4, queries.last()) {
            (3, Some(prev)) => {
                let grow = 50 + xorshift(&mut state) % 150;
                let lo = prev.range().low().saturating_sub(grow);
                (lo, (prev.range().high() + grow).min(MAX_VALUE))
            }
            _ if i % 7 == 5 => (0, MAX_VALUE / 3),
            _ => {
                let lo = 1 + xorshift(&mut state) % (MAX_VALUE - width);
                (lo, lo + width)
            }
        };
        queries.push(RangeQuery::new(lo, hi));
    }
    queries
}

fn check_eager_matches_deferred<B: Backend>(make_backend: impl Fn() -> B, label: &str) {
    let values = Distribution::Sparse {
        max_value: MAX_VALUE,
        zero_page_fraction: 0.9,
    }
    .generate_pages(400, 47);
    let mut seen = Vec::new();
    for (routing, seed) in [
        (RoutingMode::SingleView, 0x4747),
        (RoutingMode::MultiView, 0x4748),
    ] {
        let config = AdaptiveConfig::default()
            .with_routing(routing)
            .with_max_views(8)
            .with_discard_tolerance(1)
            .with_replacement_tolerance(4);
        let column = |creation| {
            let mut config = config;
            config.creation = creation;
            AdaptiveColumn::from_values(make_backend(), &values, config).unwrap()
        };
        let mut deferred = column(CreationOptions::COALESCED);
        let mut eager = column(CreationOptions::ALL);
        let mut model = Listing1Model::new(config);
        for (i, q) in sparse_queries(seed, 30).iter().enumerate() {
            let at = format!("{label}/{routing:?} query {i} {:?}", q.range());
            let (routed, covered) = routed_pages(&deferred, q.range());
            let expected = model.query(&values, q.range(), &routed, &covered);
            let d = deferred.query(q).unwrap();
            let e = eager.query(q).unwrap();
            let reference = deferred.full_scan(q);
            assert_eq!((d.count, d.sum), (reference.count, reference.sum), "{at}");
            assert_eq!((e.count, e.sum), (d.count, d.sum), "{at}: answers");
            assert_eq!(e.view_maintenance, d.view_maintenance, "{at}: maintenance");
            assert_eq!(d.view_maintenance, expected, "{at}: Listing 1");
            assert_eq!(view_state(&eager), view_state(&deferred), "{at}: views");
            assert_eq!(view_state(&deferred), model.views, "{at}: model views");
            seen.push(d.view_maintenance);
        }
    }
    for outcome in [
        ViewMaintenance::Inserted,
        ViewMaintenance::ReplacedExisting,
        ViewMaintenance::DiscardedSubsumed,
        ViewMaintenance::DiscardedNotSmaller,
        ViewMaintenance::NotAttempted,
    ] {
        assert!(
            seen.contains(&outcome),
            "{label}: no query was {outcome:?}: {seen:?}"
        );
    }
}

#[test]
fn eager_and_deferred_creation_agree_with_listing1_sim() {
    check_eager_matches_deferred(SimBackend::new, "sim");
}

#[cfg(target_os = "linux")]
#[test]
fn eager_and_deferred_creation_agree_with_listing1_mmap() {
    check_eager_matches_deferred(asv_vmem::MmapBackend::new, "mmap");
}
