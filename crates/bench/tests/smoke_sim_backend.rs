//! End-to-end smoke test of the experiment harness on the portable
//! simulation backend.
//!
//! Runs every figure/table driver at the `tiny` scale on
//! `AnyBackend::Sim` — the configuration that must work on *any* platform —
//! and asserts the produced series are non-empty and internally consistent.
//! For Figure 3 the reported result cardinalities are additionally checked
//! against a scalar rescan of the (updated) raw values.

use asv_bench::{ablation, fig3, fig4, fig5, fig6, fig7, table1, Scale};
use asv_util::{Parallelism, ValueRange};
use asv_vmem::AnyBackend;
use asv_workloads::{Distribution, UpdateWorkload, DEFAULT_MAX_VALUE};

const SEED: u64 = 0x51A0;

fn backend() -> AnyBackend {
    AnyBackend::sim()
}

#[test]
fn fig3_counts_match_a_scalar_rescan() {
    let scale = Scale::tiny();
    let rows = fig3::run(&backend(), &scale, SEED);
    assert_eq!(
        rows.len(),
        fig3::K_VALUES.len() * 5,
        "7 k-values x 5 variants"
    );

    // Reproduce the driver's data: same distribution, same seed, same
    // updates (the driver applies them through every index before querying).
    let dist = Distribution::Uniform {
        max_value: DEFAULT_MAX_VALUE,
    };
    let mut values = dist.generate_pages(scale.fig3_pages, SEED);
    let writes = UpdateWorkload::new(SEED ^ 0xF163).uniform_writes(
        scale.fig3_updates,
        values.len(),
        DEFAULT_MAX_VALUE,
    );
    for &(row, v) in &writes {
        values[row] = v;
    }

    for chunk in rows.chunks(5) {
        let k = chunk[0].k;
        let query = ValueRange::new(0, k / 2);
        let expected = values.iter().filter(|v| query.contains(**v)).count() as u64;
        for row in chunk {
            assert_eq!(row.k, k, "rows must be grouped by k");
            assert_eq!(
                row.count, expected,
                "variant {} disagrees with the scalar rescan for k={k}",
                row.variant
            );
            assert!(row.runtime_ms >= 0.0);
            assert!(row.indexed_pages <= scale.fig3_pages);
        }
    }
}

#[test]
fn fig4_series_are_complete_and_views_emerge() {
    let scale = Scale::tiny();
    let results = fig4::run_all(&backend(), &scale, SEED);
    assert_eq!(results.len(), 3, "sine, linear, sparse");
    for r in &results {
        assert_eq!(r.rows.len(), scale.num_queries);
        assert!(
            r.final_views >= 1,
            "{}: clustered data must produce views",
            r.distribution
        );
        assert!(r.adaptive_total_s > 0.0 && r.fullscan_total_s > 0.0);
        // The adaptive layer must beat a full scan on scan volume at least
        // once (the driver itself asserts count/sum equality per query).
        assert!(r.rows.iter().any(|q| q.scanned_pages < scale.fig45_pages));
    }
}

#[test]
fn fig5_multi_view_mode_uses_views() {
    let scale = Scale::tiny();
    let results = fig5::run_all(&backend(), &scale, SEED);
    assert_eq!(results.len(), 2, "1% and 10% selectivity configs");
    for r in &results {
        assert_eq!(r.rows.len(), scale.num_queries);
        assert!(r.final_views >= 1);
        assert!(r.final_views <= r.max_views);
        assert!(r.max_views_used >= 1);
        assert!(r.adaptive_total_s > 0.0 && r.fullscan_total_s > 0.0);
    }
}

#[test]
fn fig6_all_variants_map_the_same_pages() {
    let scale = Scale::tiny();
    let rows = fig6::run(&backend(), &scale, SEED);
    assert_eq!(rows.len(), 8, "2 distributions x 4 variants");
    for chunk in rows.chunks(4) {
        let pages = chunk[0].mapped_pages;
        assert!(pages > 0, "a view over clustered data must map pages");
        assert!(
            chunk.iter().all(|r| r.mapped_pages == pages),
            "optimizations must not change which pages qualify"
        );
        assert!(chunk.iter().all(|r| r.create_ms >= 0.0));
    }
}

#[test]
fn fig7_alignment_touches_pages_and_reports_timings() {
    let scale = Scale::tiny();
    let rows = fig7::run_all(&backend(), &scale, SEED);
    assert_eq!(rows.len(), 2 * scale.fig7_batch_sizes.len());
    for r in &rows {
        assert!(r.parse_ms >= 0.0 && r.align_ms >= 0.0);
        assert!(r.rebuild_ms > 0.0);
        assert!(r.indexed_pages_before <= fig7::NUM_VIEWS * scale.fig7_pages);
    }
    // Somewhere in the series an update batch must actually move pages.
    assert!(
        rows.iter().any(|r| r.pages_added + r.pages_removed > 0),
        "random updates over the full domain must change view membership"
    );
}

#[test]
fn fig7_background_alignment_matches_sync_results() {
    // Same figure, aligned via the epoch-handoff worker: identical page
    // movements and view sizes, only the timings may differ.
    let scale = Scale::tiny();
    let sync = fig7::run_all(&backend(), &scale, SEED);
    let bg = fig7::run_all_with_mode(
        &backend(),
        &scale,
        SEED,
        Parallelism::Threads(2),
        fig7::AlignMode::Background,
    );
    assert_eq!(sync.len(), bg.len());
    for (s, b) in sync.iter().zip(&bg) {
        assert_eq!(s.distribution, b.distribution);
        assert_eq!(s.batch_size, b.batch_size);
        assert_eq!(
            s.pages_added, b.pages_added,
            "{}/{}",
            s.distribution, s.batch_size
        );
        assert_eq!(s.pages_removed, b.pages_removed);
        assert_eq!(s.indexed_pages_before, b.indexed_pages_before);
    }
}

#[test]
fn table1_aggregates_all_five_experiments() {
    let entries = table1::run(&backend(), &Scale::tiny(), SEED);
    assert_eq!(entries.len(), 5);
    for e in &entries {
        assert!(e.fullscan_s > 0.0 && e.adaptive_s > 0.0);
        assert!(e.speedup() > 0.0);
    }
}

#[test]
fn ablation_covers_every_configuration() {
    let rows = ablation::run(&backend(), &Scale::tiny(), SEED);
    assert_eq!(rows.len(), ablation::configurations().len());
    for r in &rows {
        assert!(r.total_s > 0.0, "{} produced no measurement", r.label);
    }
}

#[test]
fn parallel_drivers_agree_with_sequential_drivers() {
    // Every figure driver must produce the same *results* (counts, view
    // counts, mapped pages) regardless of the scan parallelism; only the
    // timings may differ.
    let scale = Scale::tiny();
    let threads = Parallelism::Threads(2);

    let seq = fig4::run_all(&backend(), &scale, SEED);
    let par = fig4::run_all_with(&backend(), &scale, SEED, threads);
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.distribution, p.distribution);
        assert_eq!(s.final_views, p.final_views);
        let seq_pages: Vec<usize> = s.rows.iter().map(|r| r.scanned_pages).collect();
        let par_pages: Vec<usize> = p.rows.iter().map(|r| r.scanned_pages).collect();
        assert_eq!(seq_pages, par_pages, "{}", s.distribution);
    }

    let seq = fig6::run(&backend(), &scale, SEED);
    let par = fig6::run_with(&backend(), &scale, SEED, threads);
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(
            s.mapped_pages, p.mapped_pages,
            "{}/{}",
            s.distribution, s.variant
        );
    }
}

#[cfg(target_os = "linux")]
#[test]
fn fig3_sim_and_mmap_backends_agree_on_counts() {
    // The same experiment on both backends must report identical result
    // cardinalities and indexed page counts — only the timings may differ.
    let scale = Scale::tiny();
    let sim = fig3::run(&AnyBackend::sim(), &scale, SEED);
    let mmap = fig3::run(&AnyBackend::mmap(), &scale, SEED);
    assert_eq!(sim.len(), mmap.len());
    for (s, m) in sim.iter().zip(&mmap) {
        assert_eq!(s.k, m.k);
        assert_eq!(s.variant, m.variant);
        assert_eq!(s.count, m.count, "variant {} k={}", s.variant, s.k);
        assert_eq!(s.indexed_pages, m.indexed_pages);
    }
}
