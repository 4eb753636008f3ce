//! Differential property tests: the page filter must match the scalar
//! reference implementations **bit-identically** — every compiled build of
//! it the host CPU can run, and the production scan path on both backends.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! each test draws randomized cases from a hand-rolled xorshift generator
//! (fully deterministic for the hard-coded seeds) and checks the production
//! scan path — `Column::full_scan_with`, `scan_view` under a `ScanKernel`
//! masked by prebuilt `ExclusionMasks`, `probe_rows_with` — against a
//! per-page scalar model built from the `PageRef::*_scalar` reference
//! loops. Cases cover all scan modes, wide
//! and narrow selectivities, partially filled final pages, empty/dense
//! exclusion sets and sparse/clustered probe patterns.
//!
//! Widening bounds are compared on pages without a qualifying value only:
//! that is the contract the filter keeps (the scalar loops report more).

use asv_storage::page::write_page;
use asv_storage::simd::{supported_variants, PageExclusionMask};
use asv_storage::{
    scan_view, Column, ExclusionMasks, PageRef, PageScanResult, ScanKernel, ScanMode, ScanOutput,
};
use asv_util::{Parallelism, ThreadPool, ValueRange};
use asv_vmem::{Backend, MmapBackend, SimBackend, SLOTS_PER_PAGE, VALUES_PER_PAGE};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Draws a value column of `pages` pages; the final page is left partially
/// filled when `partial_tail` asks for it.
fn random_values(state: &mut u64, pages: usize, max_value: u64, partial_tail: bool) -> Vec<u64> {
    let mut len = pages * VALUES_PER_PAGE;
    if partial_tail {
        len -= (xorshift(state) as usize % (VALUES_PER_PAGE - 1)) + 1;
    }
    (0..len)
        .map(|_| xorshift(state) % (max_value + 1))
        .collect()
}

/// Draws a random range; roughly one in four is a degenerate point range.
fn random_range(state: &mut u64, max_value: u64) -> ValueRange {
    if xorshift(state).is_multiple_of(4) {
        let v = xorshift(state) % (max_value + 1);
        return ValueRange::new(v, v);
    }
    let a = xorshift(state) % (max_value + 1);
    let b = xorshift(state) % (max_value + 1);
    ValueRange::new(a.min(b), a.max(b))
}

/// Draws an ascending row sample where each row is kept with probability
/// `1/keep_one_in`.
fn random_rows(state: &mut u64, num_rows: usize, keep_one_in: u64) -> Vec<u64> {
    (0..num_rows as u64)
        .filter(|_| xorshift(state).is_multiple_of(keep_one_in))
        .collect()
}

/// The scalar model of a full scan: per-page reference loops folded with
/// the same merge rule as [`ScanOutput`].
fn scalar_full_scan<B: Backend>(
    column: &Column<B>,
    range: &ValueRange,
    mode: ScanMode,
    excluded_rows: &[u64],
) -> ScanOutput {
    let mut out = ScanOutput::new(mode);
    for p in 0..column.num_pages() {
        let page = column.page_ref(p);
        let base = (p * VALUES_PER_PAGE) as u64;
        let end = base + VALUES_PER_PAGE as u64;
        let lo = excluded_rows.partition_point(|&r| r < base);
        let hi = excluded_rows.partition_point(|&r| r < end);
        let slots: Vec<usize> = excluded_rows[lo..hi]
            .iter()
            .map(|&r| (r - base) as usize)
            .collect();
        let res = if slots.is_empty() {
            match mode {
                ScanMode::CountOnly => page.scan_filter_count_scalar(range),
                ScanMode::Aggregate => page.scan_filter_scalar(range),
                ScanMode::CollectRows => {
                    let rows = out.rows.get_or_insert_with(Vec::new);
                    page.scan_filter_collect_scalar(range, rows)
                }
            }
        } else {
            let count_only = matches!(mode, ScanMode::CountOnly);
            let rows = matches!(mode, ScanMode::CollectRows)
                .then(|| out.rows.get_or_insert_with(Vec::new));
            page.scan_filter_excluding_scalar(range, &slots, count_only, rows)
        };
        merge_page(&mut out, &res);
    }
    out
}

/// The model of a probe: the per-page candidate loop over runs grouped
/// here, independently of the production run grouping and sharding.
fn scalar_probe<B: Backend>(
    column: &Column<B>,
    range: &ValueRange,
    mode: ScanMode,
    rows: &[u64],
) -> ScanOutput {
    let mut out = ScanOutput::new(mode);
    let mut start = 0usize;
    while start < rows.len() {
        let page_id = rows[start] / VALUES_PER_PAGE as u64;
        let mut end = start + 1;
        while end < rows.len() && rows[end] / VALUES_PER_PAGE as u64 == page_id {
            end += 1;
        }
        let page = column.page_ref(page_id as usize);
        let count_only = matches!(mode, ScanMode::CountOnly);
        let rows_out =
            matches!(mode, ScanMode::CollectRows).then(|| out.rows.get_or_insert_with(Vec::new));
        let res = page.probe_rows(range, &rows[start..end], count_only, rows_out);
        out.scanned_pages += 1;
        out.result.merge(&res);
        start = end;
    }
    out
}

fn merge_page(out: &mut ScanOutput, res: &PageScanResult) {
    out.scanned_pages += 1;
    if res.count == 0 {
        if let Some(b) = res.below_max {
            out.below = Some(out.below.map_or(b, |cur| cur.max(b)));
        }
        if let Some(a) = res.above_min {
            out.above = Some(out.above.map_or(a, |cur| cur.min(a)));
        }
    }
    out.result.merge(res);
}

fn assert_outputs_match(chunked: &ScanOutput, scalar: &ScanOutput, what: &str) {
    assert_eq!(chunked.result.count, scalar.result.count, "{what}: count");
    assert_eq!(chunked.result.sum, scalar.result.sum, "{what}: sum");
    assert_eq!(chunked.below, scalar.below, "{what}: below bound");
    assert_eq!(chunked.above, scalar.above, "{what}: above bound");
    assert_eq!(chunked.rows, scalar.rows, "{what}: collected rows");
    assert_eq!(
        chunked.scanned_pages, scalar.scanned_pages,
        "{what}: scanned pages"
    );
}

const MODES: [ScanMode; 3] = [
    ScanMode::CountOnly,
    ScanMode::Aggregate,
    ScanMode::CollectRows,
];

/// Selectivity shaping: narrow, medium and (almost) full-domain maxima so
/// the drawn ranges hit very different qualification rates.
const MAX_VALUES: [u64; 3] = [80, 5_000, u64::MAX / 2];

fn check_full_scans_match<B: Backend>(backend: &B, seed: u64) {
    let mut state = seed;
    for case in 0..12 {
        let max_value = MAX_VALUES[case % MAX_VALUES.len()];
        let pages = 1 + (xorshift(&mut state) as usize % 5);
        let values = random_values(&mut state, pages, max_value, case % 2 == 1);
        let column = Column::from_values(backend.clone(), &values).unwrap();
        for _ in 0..4 {
            let range = random_range(&mut state, max_value);
            for mode in MODES {
                let chunked = column.full_scan_with(&range, mode);
                let scalar = scalar_full_scan(&column, &range, mode, &[]);
                assert_outputs_match(
                    &chunked,
                    &scalar,
                    &format!(
                        "case {case}, {mode:?}, range {range:?}, {} values",
                        values.len()
                    ),
                );
            }
        }
    }
}

fn check_excluding_scans_match<B: Backend>(backend: &B, seed: u64) {
    let mut state = seed;
    for case in 0..10 {
        let max_value = MAX_VALUES[case % MAX_VALUES.len()];
        let pages = 1 + (xorshift(&mut state) as usize % 4);
        let values = random_values(&mut state, pages, max_value, case % 2 == 0);
        let column = Column::from_values(backend.clone(), &values).unwrap();
        // Exclusion density from empty through ~half of all rows.
        let keep_one_in = [u64::MAX, 97, 11, 2][case % 4];
        let excluded = random_rows(&mut state, values.len(), keep_one_in);
        let masks = ExclusionMasks::from_rows(excluded.clone());
        let pool = ThreadPool::new(Parallelism::Sequential);
        let scan = |kernel: ScanKernel<'_>| {
            scan_view(
                &kernel,
                column.full_view(),
                |raw| column.wrap_view_page(raw),
                &pool,
            )
        };
        for _ in 0..3 {
            let range = random_range(&mut state, max_value);
            for mode in MODES {
                let scalar = scalar_full_scan(&column, &range, mode, &excluded);
                let masked = scan(ScanKernel::new(range, mode).with_exclusion_masks(&masks));
                let what = format!(
                    "case {case}, {mode:?}, {} excluded of {}",
                    excluded.len(),
                    values.len()
                );
                assert_outputs_match(&masked, &scalar, &what);
            }
        }
    }
}

fn check_probes_match<B: Backend>(backend: &B, seed: u64) {
    let mut state = seed;
    for case in 0..10 {
        let max_value = MAX_VALUES[case % MAX_VALUES.len()];
        let pages = 1 + (xorshift(&mut state) as usize % 5);
        let values = random_values(&mut state, pages, max_value, case % 2 == 1);
        let column = Column::from_values(backend.clone(), &values).unwrap();
        // Probe patterns from a handful of rows through near-every row.
        let keep_one_in = [151, 17, 3, 1][case % 4];
        let rows = random_rows(&mut state, values.len(), keep_one_in);
        for _ in 0..3 {
            let range = random_range(&mut state, max_value);
            for mode in MODES {
                let chunked = column.probe_rows_with(&range, mode, &rows, Parallelism::Sequential);
                let scalar = scalar_probe(&column, &range, mode, &rows);
                assert_outputs_match(
                    &chunked,
                    &scalar,
                    &format!("case {case}, {mode:?}, {} candidates", rows.len()),
                );
            }
        }
    }
}

#[test]
fn full_scans_match_scalar_reference_sim() {
    check_full_scans_match(&SimBackend::new(), 0x5EED_0001);
}

#[test]
fn full_scans_match_scalar_reference_mmap() {
    check_full_scans_match(&MmapBackend::new(), 0x5EED_0002);
}

#[test]
fn excluding_scans_match_scalar_reference_sim() {
    check_excluding_scans_match(&SimBackend::new(), 0x5EED_0003);
}

#[test]
fn excluding_scans_match_scalar_reference_mmap() {
    check_excluding_scans_match(&MmapBackend::new(), 0x5EED_0004);
}

#[test]
fn probes_match_scalar_reference_sim() {
    check_probes_match(&SimBackend::new(), 0x5EED_0005);
}

#[test]
fn probes_match_scalar_reference_mmap() {
    check_probes_match(&MmapBackend::new(), 0x5EED_0006);
}

#[test]
fn partial_final_page_is_scanned_exactly() {
    // A column whose last page holds a single value: the chunked tail path
    // (masked partial chunk) must see exactly that value, not the stale
    // slots behind it.
    let values: Vec<u64> = (0..VALUES_PER_PAGE as u64 + 1).collect();
    let column = Column::from_values(SimBackend::new(), &values).unwrap();
    let range = ValueRange::new(VALUES_PER_PAGE as u64, u64::MAX);
    let out = column.full_scan_with(&range, ScanMode::CollectRows);
    assert_eq!(out.result.count, 1);
    assert_eq!(out.result.sum, VALUES_PER_PAGE as u128);
    assert_eq!(out.rows.as_deref(), Some(&[VALUES_PER_PAGE as u64][..]));
    let scalar = scalar_full_scan(&column, &range, ScanMode::CollectRows, &[]);
    assert_outputs_match(&out, &scalar, "partial tail");
}

/// Builds one raw page: pageID, `values`, then stale garbage a scan must
/// never read.
fn raw_page(page_id: u64, values: &[u64]) -> Vec<u64> {
    let mut raw = vec![0x5CA1_AB1E_u64; SLOTS_PER_PAGE];
    write_page(&mut raw, page_id, values);
    raw
}

/// Checks every supported build of the page filter against the scalar
/// reference loops on `page`, in all modes, without and with `excluded`.
fn check_variants_on_page(page: &PageRef<'_>, range: &ValueRange, excluded: &[usize], what: &str) {
    let mask = PageExclusionMask::from_slots(excluded.iter().copied());
    // The scalar exclusion loop takes the slots that exist on the page.
    let excluded_valid: Vec<usize> = excluded
        .iter()
        .copied()
        .filter(|&s| s < page.valid_values())
        .collect();
    for variant in supported_variants() {
        for count_only in [false, true] {
            for collect in [false, true] {
                for masked in [false, true] {
                    let what = format!(
                        "{what}: {} count_only={count_only} collect={collect} masked={masked}",
                        variant.name()
                    );
                    let (mut got_rows, mut want_rows) = (Vec::new(), Vec::new());
                    let got = variant.filter(
                        page,
                        None,
                        range,
                        masked.then_some(&mask),
                        count_only,
                        collect.then_some(&mut got_rows),
                    );
                    let want = page.scan_filter_excluding_scalar(
                        range,
                        if masked { &excluded_valid } else { &[] },
                        count_only,
                        collect.then_some(&mut want_rows),
                    );
                    assert_eq!(got.count, want.count, "{what}: count");
                    assert_eq!(got.sum, want.sum, "{what}: sum");
                    assert_eq!(got_rows, want_rows, "{what}: rows");
                    if want.count == 0 {
                        assert_eq!(got.below_max, want.below_max, "{what}: below");
                        assert_eq!(got.above_min, want.above_min, "{what}: above");
                    } else {
                        assert_eq!((got.below_max, got.above_min), (None, None), "{what}");
                    }
                }
            }
        }
    }
}

/// Ranges the `(v - low) <= (high - low)` form of the predicate is
/// sensitive to, around a pivot value `x`.
fn edge_ranges(x: u64) -> Vec<ValueRange> {
    vec![
        ValueRange::new(0, u64::MAX),
        ValueRange::new(x, x),
        ValueRange::new(0, 0),
        ValueRange::new(u64::MAX, u64::MAX),
        ValueRange::new(0, x),
        ValueRange::new(x, u64::MAX),
        ValueRange::new(x.saturating_sub(1), x.saturating_add(1)),
        ValueRange::new(1, u64::MAX - 1),
    ]
}

#[test]
fn every_variant_matches_scalar_on_seeded_pages() {
    let mut state = 0x5EED_0008u64;
    // Fill levels: empty, the partial-vector tails 1..=8, and full.
    let fills = [
        0usize,
        1,
        2,
        3,
        4,
        5,
        6,
        7,
        8,
        9,
        63,
        64,
        65,
        255,
        510,
        VALUES_PER_PAGE,
    ];
    for (case, &fill) in fills.iter().cycle().take(fills.len() * 3).enumerate() {
        let max_value = MAX_VALUES[case % MAX_VALUES.len()];
        let values: Vec<u64> = (0..fill)
            .map(|_| match xorshift(&mut state) % 16 {
                0 => 0,
                1 => u64::MAX,
                _ => xorshift(&mut state) % (max_value + 1),
            })
            .collect();
        // A pageID inside the value domain: the header slot must not count.
        let page_id = xorshift(&mut state) % (max_value.min(1 << 40) + 1);
        let raw = raw_page(page_id, &values);
        let page = PageRef::new(&raw, fill);
        // Exclusions from none through dense, always hitting the last
        // slots of the page and of the fill level.
        let keep_one_in = [u64::MAX, 97, 11, 2][case % 4];
        let mut excluded = random_rows(&mut state, VALUES_PER_PAGE, keep_one_in)
            .into_iter()
            .map(|r| r as usize)
            .collect::<Vec<_>>();
        excluded.extend([
            fill.saturating_sub(1),
            VALUES_PER_PAGE - 2,
            VALUES_PER_PAGE - 1,
        ]);
        excluded.sort_unstable();
        excluded.dedup();
        let pivot = values.first().copied().unwrap_or(page_id);
        let mut ranges = edge_ranges(pivot);
        ranges.push(ValueRange::new(page_id, page_id));
        ranges.extend((0..4).map(|_| random_range(&mut state, max_value)));
        for range in &ranges {
            check_variants_on_page(
                &page,
                range,
                &excluded,
                &format!("case {case}, fill {fill}, {range:?}"),
            );
        }
    }
}

#[test]
fn every_variant_handles_all_and_none_qualifying_pages() {
    let values: Vec<u64> = (0..VALUES_PER_PAGE as u64).map(|i| 1_000 + i * 3).collect();
    let raw = raw_page(1_500, &values); // the pageID would qualify, too
    let page = PageRef::new(&raw, values.len());
    let tail_chunk: Vec<usize> = (VALUES_PER_PAGE - 8..VALUES_PER_PAGE).collect();
    for range in [
        ValueRange::new(1_000, 1_000 + 3 * VALUES_PER_PAGE as u64), // all qualify
        ValueRange::new(0, 999),                                    // none: all above
        ValueRange::new(10_000, u64::MAX),                          // none: all below
        ValueRange::new(1_001, 1_002),                              // none: both sides
    ] {
        check_variants_on_page(&page, &range, &tail_chunk, &format!("{range:?}"));
        check_variants_on_page(&page, &range, &[0], &format!("{range:?}"));
    }
}

#[test]
fn min_max_matches_scalar_fold_across_fill_levels() {
    let mut state = 0x5EED_0007u64;
    for len in [0usize, 1, 7, 8, 9, 63, 64, 65, VALUES_PER_PAGE] {
        let values: Vec<u64> = (0..len).map(|_| xorshift(&mut state)).collect();
        let column = Column::from_values(SimBackend::new(), &values).unwrap();
        if values.is_empty() {
            assert_eq!(column.num_pages(), 0);
            continue;
        }
        let expected = Some((*values.iter().min().unwrap(), *values.iter().max().unwrap()));
        assert_eq!(column.page_ref(0).min_max(), expected, "len {len}");
    }
}
