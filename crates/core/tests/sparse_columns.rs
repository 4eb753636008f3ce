//! Sparse-column coverage: columns whose physical store spans far more
//! pages than their data ([`Column::from_values_with_capacity`]) must not
//! inflate any layer's view of their row mass.
//!
//! * [`ZoneStats`] zones covering only capacity pages count zero rows and
//!   carry no band;
//! * cardinality estimates are bounded by *live* rows, never by the
//!   page-capacity bound `pages × VALUES_PER_PAGE`, so a sparse column
//!   whose page count dwarfs a dense column's still estimates fewer rows —
//!   the order in which [`asv_core::Snapshot::query_conjunctive`] applies
//!   predicates;
//! * adaptive answers over a sparse column equal a reference filter.
//!
//! Checked on the simulation backend everywhere and on the file backend
//! on Linux.

use asv_core::{AdaptiveColumn, AdaptiveConfig, RangeQuery, ZoneStats};
use asv_storage::Column;
use asv_util::ValueRange;
use asv_vmem::{Backend, SimBackend, VALUES_PER_PAGE};

const CAPACITY_PAGES: usize = 64;
const LIVE_ROWS: usize = VALUES_PER_PAGE + 37;

/// Sparse data: ~1.1 pages of live clustered values in a 64-page store.
fn sparse_values() -> Vec<u64> {
    (0..LIVE_ROWS as u64).map(|i| i * 3).collect()
}

/// Dense data: 8 full pages spanning [0, 1M), page-clustered.
fn dense_values() -> Vec<u64> {
    (0..8 * VALUES_PER_PAGE as u64)
        .map(|i| i * 1_000_000 / (8 * VALUES_PER_PAGE as u64))
        .collect()
}

fn check_zone_stats<B: Backend>(backend: B) {
    let values = sparse_values();
    let column = Column::from_values_with_capacity(backend, &values, CAPACITY_PAGES).unwrap();
    assert_eq!(column.num_pages(), CAPACITY_PAGES);
    let stats = ZoneStats::build(&column);
    let live_zone = stats.zone_of_row(0);
    assert!(stats.zone_rows(live_zone) > 0, "the live zone counts rows");
    let total_counted: usize = (0..stats.num_zones()).map(|z| stats.zone_rows(z)).sum();
    assert_eq!(
        total_counted, LIVE_ROWS,
        "zone row counts sum to the live rows, not the page capacity"
    );
    // Zones holding only capacity pages: no rows, no band.
    let last_zone = stats.num_zones() - 1;
    assert!(last_zone > live_zone, "capacity spans additional zones");
    assert_eq!(stats.zone_rows(last_zone), 0);
    assert!(stats.zone_band(last_zone).is_none());
    // The estimate is bounded by live rows, far below the capacity bound.
    let est = stats.estimate(&ValueRange::full());
    assert_eq!(est.est_rows as usize, LIVE_ROWS);
    assert!(
        (est.est_rows as usize) < CAPACITY_PAGES * VALUES_PER_PAGE / 8,
        "estimate must not scale with page capacity"
    );
}

fn check_planner_drives_with_live_rows<B: Backend>(make_backend: impl Fn() -> B) {
    let sparse =
        Column::from_values_with_capacity(make_backend(), &sparse_values(), CAPACITY_PAGES)
            .unwrap();
    let dense = Column::from_values(make_backend(), &dense_values()).unwrap();
    // Sparse predicate: everything (~LIVE_ROWS live values). Dense
    // predicate: half the dense column (~4 pages of rows). By live rows
    // the sparse predicate is ~4x cheaper; by page capacity it would
    // look ~8x more expensive (64 pages vs 8).
    let sparse_estimate = ZoneStats::build(&sparse).estimate(&ValueRange::full());
    let dense_estimate = ZoneStats::build(&dense).estimate(&ValueRange::new(0, 500_000));
    assert_eq!(
        sparse_estimate.est_rows as usize, LIVE_ROWS,
        "the sparse estimate is the live row count"
    );
    assert!(
        sparse.num_pages() * VALUES_PER_PAGE > dense.num_pages() * VALUES_PER_PAGE * 4,
        "by page capacity the sparse column is the larger one"
    );
    assert!(
        sparse_estimate.est_rows < dense_estimate.est_rows,
        "the sparse predicate applies first: {sparse_estimate:?} vs {dense_estimate:?}"
    );
}

fn check_sparse_answers_match_reference<B: Backend>(backend: B) {
    let values = sparse_values();
    let column = Column::from_values_with_capacity(backend, &values, CAPACITY_PAGES).unwrap();
    let mut adaptive = AdaptiveColumn::new(column, AdaptiveConfig::default()).unwrap();
    for (low, high) in [(0u64, u64::MAX), (100, 900), (0, 0), (2_000, 5_000)] {
        let range = ValueRange::new(low, high);
        let outcome = adaptive.query(&RangeQuery::from_range(range)).unwrap();
        let expected: Vec<u64> = values
            .iter()
            .copied()
            .filter(|v| range.contains(*v))
            .collect();
        assert_eq!(outcome.count as usize, expected.len(), "range {range:?}");
        assert_eq!(
            outcome.sum,
            expected.iter().map(|&v| v as u128).sum::<u128>(),
            "range {range:?}"
        );
    }
}

#[test]
fn sparse_zone_stats_on_sim_backend() {
    check_zone_stats(SimBackend::new());
}

#[test]
fn planner_uses_live_rows_on_sim_backend() {
    check_planner_drives_with_live_rows(SimBackend::new);
}

#[test]
fn sparse_answers_match_reference_on_sim_backend() {
    check_sparse_answers_match_reference(SimBackend::new());
}

#[cfg(target_os = "linux")]
mod file_backend {
    use super::*;

    fn with_temp_backend(run: impl FnOnce(asv_vmem::FileBackend)) {
        let backend = asv_vmem::FileBackend::temp();
        let dir = backend.dir().to_path_buf();
        run(backend);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sparse_zone_stats_on_file_backend() {
        with_temp_backend(check_zone_stats);
    }

    #[test]
    fn planner_uses_live_rows_on_file_backend() {
        let backend = asv_vmem::FileBackend::temp();
        let dir = backend.dir().to_path_buf();
        check_planner_drives_with_live_rows(|| backend.clone());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sparse_answers_match_reference_on_file_backend() {
        with_temp_backend(check_sparse_answers_match_reference);
    }
}
