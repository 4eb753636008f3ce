//! The `filter-kernel` microbench: the production page filter vs its
//! scalar references (new experiment, beyond the paper).
//!
//! Every other experiment measures the adaptive machinery end to end; this
//! one isolates the page-filter hot path itself. For each kernel mode ×
//! selectivity cell it runs both variants over the same column:
//!
//! * **scalar** — the original per-value branchy loops
//!   ([`asv_storage::PageRef::scan_filter_scalar`] and friends), kept as
//!   reference implementations;
//! * **chunked** — the page filter of `asv_storage::simd` the production
//!   scan path runs on, in the build selected for the running CPU (the
//!   report records which: [`FilterKernelReport::kernel_isa`]), driven by
//!   the production page loop (`ScanKernel::scan_pages`), which hands each
//!   page its successor to prefetch. The label predates that filter and is
//!   kept so histories and CI paths line up.
//!
//! The modes are the five kernel entry points: `scan` (count + checksum),
//! `count` (count-only fast path), `collect` (row-id collection),
//! `exclude` (overlay-aware scan skipping excluded rows) and `probe`
//! (per-candidate semi-join qualification). `probe` has a single loop
//! ([`asv_storage::PageRef::probe_rows`]): it is timed once and both of
//! its variant rows carry that timing, so the two answer tables keep the
//! same shape. Every cell's full answer — count, checksum, collected-row
//! checksum, widening bounds — is asserted **bit-identical** across the
//! two variants before any timing is reported, and the per-variant answers
//! are also exported as tables so the `compare` subcommand can gate them at
//! `--max-delta-pct 0`.
//!
//! Timings are wall-clock per full pass over the column (probe: over the
//! candidate set), summarized as mean and p95 over
//! [`Scale::kernel_passes`] passes.

use std::time::Instant;

use asv_storage::{simd, Column, ExclusionMasks, PageScanResult, ScanKernel, ScanMode, ScanOutput};
use asv_util::ValueRange;
use asv_vmem::{Backend, PhysicalStore, VALUES_PER_PAGE};
use asv_workloads::KernelWorkload;

use crate::report::Table;
use crate::scale::Scale;

/// Selectivities (percent of qualifying values) the microbench sweeps.
pub const SELECTIVITIES: [f64; 4] = [1.0, 10.0, 50.0, 90.0];

/// The kernel modes, in report order.
pub const MODES: [&str; 5] = ["scan", "count", "collect", "exclude", "probe"];

/// The two measured variants, in report order.
pub const VARIANTS: [&str; 2] = ["scalar", "chunked"];

/// The complete answer of one (mode, selectivity, variant) cell — the
/// equivalence witness the microbench asserts across variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelAnswer {
    /// Qualifying values.
    pub count: u64,
    /// Exact checksum of qualifying values (0 in `count` mode).
    pub sum: u128,
    /// Wrapping sum of `row + 1` over collected rows (0 unless rows are
    /// collected).
    pub rows_sum: u64,
    /// Merged widening bound below the range (scan modes only).
    pub below: Option<u64>,
    /// Merged widening bound above the range (scan modes only).
    pub above: Option<u64>,
}

impl KernelAnswer {
    /// A compact exact witness of the answer, rendered as a non-numeric
    /// label so the `compare` subcommand requires byte equality instead of
    /// a float tolerance.
    pub fn checksum_label(&self) -> String {
        let below = self.below.map_or(u64::MAX, |b| b);
        let above = self.above.map_or(u64::MAX, |a| a);
        format!(
            "x{:x}.{:x}.{:x}.{:x}",
            self.sum, self.rows_sum, below, above
        )
    }
}

/// One measured (mode, selectivity, variant) cell.
#[derive(Clone, Debug)]
pub struct KernelCell {
    /// Kernel mode (one of [`MODES`]).
    pub mode: &'static str,
    /// Measured variant (one of [`VARIANTS`]).
    pub variant: &'static str,
    /// Target selectivity in percent.
    pub selectivity: f64,
    /// Mean wall-clock time of one pass, in nanoseconds.
    pub mean_ns: f64,
    /// 95th-percentile pass time, in nanoseconds.
    pub p95_ns: f64,
    /// Values qualified per second, in millions (probe: candidates).
    pub mvalues_per_sec: f64,
    /// The cell's (variant-independent) answer.
    pub answer: KernelAnswer,
}

/// The full result of one `filter-kernel` run.
#[derive(Clone, Debug)]
pub struct FilterKernelReport {
    /// All measured cells (mode-major, selectivity, then variant order).
    pub cells: Vec<KernelCell>,
    /// Values per pass each non-probe cell processes.
    pub values_per_pass: usize,
    /// Candidates per pass the probe cells process.
    pub probe_rows_per_pass: usize,
    /// The page-filter build the `chunked` cells ran (`"portable"`,
    /// `"avx2"`): timings are only comparable between equal values.
    pub kernel_isa: &'static str,
    /// Hardware threads the process could use (machine fingerprint).
    pub nproc: usize,
}

impl FilterKernelReport {
    /// Mean scalar/chunked speedup of the `count` (CountOnly) cells — the
    /// headline number of the kernel restructuring.
    pub fn count_only_speedup(&self) -> f64 {
        self.speedup_for("count")
    }

    /// Mean scalar/chunked speedup over the cells of `mode`.
    pub fn speedup_for(&self, mode: &str) -> f64 {
        let mut ratios = Vec::new();
        for sel in SELECTIVITIES {
            let mean_of = |variant: &str| {
                self.cells
                    .iter()
                    .find(|c| c.mode == mode && c.variant == variant && c.selectivity == sel)
                    .map(|c| c.mean_ns)
            };
            if let (Some(scalar), Some(chunked)) = (mean_of("scalar"), mean_of("chunked")) {
                if chunked > 0.0 {
                    ratios.push(scalar / chunked);
                }
            }
        }
        if ratios.is_empty() {
            return 1.0;
        }
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

/// Merges one page's result into a running [`KernelAnswer`], applying the
/// same non-qualifying-page bound rule as [`asv_storage::ScanOutput`].
fn merge_page(answer: &mut KernelAnswer, res: &PageScanResult) {
    answer.count += res.count;
    answer.sum += res.sum;
    if res.count == 0 {
        if let Some(b) = res.below_max {
            answer.below = Some(answer.below.map_or(b, |cur| cur.max(b)));
        }
        if let Some(a) = res.above_min {
            answer.above = Some(answer.above.map_or(a, |cur| cur.min(a)));
        }
    }
}

fn empty_answer() -> KernelAnswer {
    KernelAnswer {
        count: 0,
        sum: 0,
        rows_sum: 0,
        below: None,
        above: None,
    }
}

fn rows_checksum(rows: &[u64]) -> u64 {
    rows.iter().fold(0u64, |acc, &r| acc.wrapping_add(r + 1))
}

/// Groups ascending candidate rows into `(page, index range)` runs.
fn probe_runs(rows: &[u64]) -> Vec<(usize, std::ops::Range<usize>)> {
    let mut runs = Vec::new();
    let mut start = 0usize;
    while start < rows.len() {
        let page = (rows[start] / VALUES_PER_PAGE as u64) as usize;
        let mut end = start + 1;
        while end < rows.len() && (rows[end] / VALUES_PER_PAGE as u64) as usize == page {
            end += 1;
        }
        runs.push((page, start..end));
        start = end;
    }
    runs
}

/// Per-page excluded slots, the shape the pre-kernel exclusion path derived
/// on every page visit (the scalar `exclude` cells re-derive this *inside*
/// the timed pass, exactly like the old implementation did).
fn excluded_slots_on(excluded_rows: &[u64], page: usize) -> Vec<usize> {
    let base = (page * VALUES_PER_PAGE) as u64;
    let end = base + VALUES_PER_PAGE as u64;
    let lo = excluded_rows.partition_point(|&r| r < base);
    let hi = excluded_rows.partition_point(|&r| r < end);
    excluded_rows[lo..hi]
        .iter()
        .map(|&r| (r - base) as usize)
        .collect()
}

/// One pass of a `chunked` scan-mode cell: the production page loop
/// ([`ScanKernel::scan_pages`], which hands each page its successor to
/// prefetch) over every page of the column, so the perf history measures
/// the loop queries run.
fn production_pass<B: Backend>(
    column: &Column<B>,
    mode: &str,
    range: &ValueRange,
    masks: &ExclusionMasks,
    rows_buf: &mut Vec<u64>,
) -> KernelAnswer {
    let scan_mode = match mode {
        "count" => ScanMode::CountOnly,
        "collect" => ScanMode::CollectRows,
        _ => ScanMode::Aggregate,
    };
    let mut kernel = ScanKernel::new(*range, scan_mode);
    if mode == "exclude" {
        kernel = kernel.with_exclusion_masks(masks);
    }
    let mut out = ScanOutput::new(scan_mode, false);
    if out.rows.is_some() {
        rows_buf.clear();
        out.rows = Some(std::mem::take(rows_buf));
    }
    kernel.scan_pages(
        (0..column.num_pages()).map(|p| column.store().page(p)),
        |raw| column.wrap_view_page(raw),
        &mut out,
    );
    let mut answer = KernelAnswer {
        count: out.result.count,
        sum: out.result.sum,
        below: out.below,
        above: out.above,
        ..empty_answer()
    };
    if let Some(rows) = out.rows {
        answer.rows_sum = rows_checksum(&rows);
        *rows_buf = rows;
    }
    answer
}

/// Runs one timed pass of `(mode, variant)` and returns its answer.
#[allow(clippy::too_many_arguments)]
fn run_pass<B: Backend>(
    column: &Column<B>,
    mode: &str,
    variant: &str,
    range: &ValueRange,
    excluded_rows: &[u64],
    masks: &ExclusionMasks,
    runs: &[(usize, std::ops::Range<usize>)],
    probe_rows: &[u64],
    rows_buf: &mut Vec<u64>,
) -> KernelAnswer {
    if variant == "chunked" && mode != "probe" {
        return production_pass(column, mode, range, masks, rows_buf);
    }
    let mut answer = empty_answer();
    match mode {
        "scan" => {
            for p in 0..column.num_pages() {
                merge_page(&mut answer, &column.page_ref(p).scan_filter_scalar(range));
            }
        }
        "count" => {
            for p in 0..column.num_pages() {
                merge_page(
                    &mut answer,
                    &column.page_ref(p).scan_filter_count_scalar(range),
                );
            }
        }
        "collect" => {
            rows_buf.clear();
            for p in 0..column.num_pages() {
                let res = column
                    .page_ref(p)
                    .scan_filter_collect_scalar(range, rows_buf);
                merge_page(&mut answer, &res);
            }
            answer.rows_sum = rows_checksum(rows_buf);
        }
        "exclude" => {
            for p in 0..column.num_pages() {
                let page = column.page_ref(p);
                let slots = excluded_slots_on(excluded_rows, p);
                let res = if slots.is_empty() {
                    page.scan_filter_scalar(range)
                } else {
                    page.scan_filter_excluding_scalar(range, &slots, false, None)
                };
                merge_page(&mut answer, &res);
            }
        }
        "probe" => {
            rows_buf.clear();
            for (p, idx) in runs {
                let page = column.page_ref(*p);
                let candidates = &probe_rows[idx.clone()];
                let res = page.probe_rows(range, candidates, false, Some(rows_buf));
                answer.count += res.count;
                answer.sum += res.sum;
            }
            answer.rows_sum = rows_checksum(rows_buf);
        }
        other => unreachable!("unknown kernel mode '{other}'"),
    }
    answer
}

/// Runs the full mode × selectivity × variant sweep on `backend`.
///
/// # Panics
/// Panics if any cell's chunked answer deviates from its scalar answer —
/// the kernels must be bit-identical before their timings mean anything.
pub fn run_with<B: Backend>(backend: &B, scale: &Scale, seed: u64) -> FilterKernelReport {
    let workload = KernelWorkload::generate(scale.kernel_pages, seed ^ 0xF117E);
    let column =
        Column::from_values(backend.clone(), workload.values()).expect("column materialization");
    let masks = ExclusionMasks::from_rows(workload.excluded_rows().to_vec());
    let runs = probe_runs(workload.probe_rows());
    let passes = scale.kernel_passes.max(1);

    let mut rows_buf: Vec<u64> = Vec::new();
    let mut cells = Vec::new();
    for mode in MODES {
        for sel in SELECTIVITIES {
            let range = workload.range_for_selectivity(sel);
            let mut answers = [empty_answer(), empty_answer()];
            for (variant_idx, variant) in VARIANTS.iter().enumerate() {
                if mode == "probe" && variant_idx > 0 {
                    // One loop, one timing: the row repeats the scalar cell.
                    let timed: &KernelCell = cells.last().expect("the scalar cell precedes it");
                    let repeated = KernelCell {
                        variant,
                        ..timed.clone()
                    };
                    answers[variant_idx] = repeated.answer;
                    cells.push(repeated);
                    continue;
                }
                let mut pass_ns: Vec<f64> = Vec::with_capacity(passes);
                let mut answer = empty_answer();
                for _ in 0..passes {
                    let started = Instant::now();
                    answer = run_pass(
                        &column,
                        mode,
                        variant,
                        &range,
                        workload.excluded_rows(),
                        &masks,
                        &runs,
                        workload.probe_rows(),
                        &mut rows_buf,
                    );
                    pass_ns.push(started.elapsed().as_nanos() as f64);
                }
                answers[variant_idx] = answer;
                let processed = if mode == "probe" {
                    workload.probe_rows().len()
                } else {
                    workload.values().len()
                };
                let mean_ns = pass_ns.iter().sum::<f64>() / pass_ns.len() as f64;
                let p95_ns = percentile_95(&mut pass_ns);
                cells.push(KernelCell {
                    mode,
                    variant,
                    selectivity: sel,
                    mean_ns,
                    p95_ns,
                    mvalues_per_sec: processed as f64 / mean_ns.max(1.0) * 1_000.0,
                    answer,
                });
            }
            assert_eq!(
                answers[0], answers[1],
                "chunked answer deviates from scalar ({mode}, {sel}%)"
            );
        }
    }
    FilterKernelReport {
        cells,
        values_per_pass: workload.values().len(),
        probe_rows_per_pass: workload.probe_rows().len(),
        kernel_isa: simd::selected_variant().name(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

fn percentile_95(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let idx = ((samples.len() as f64) * 0.95).ceil() as usize;
    samples[idx.saturating_sub(1).min(samples.len() - 1)]
}

/// Renders the timing cells, with a per-cell scalar/chunked speedup column.
pub fn to_table(report: &FilterKernelReport) -> Table {
    let mut table = Table::new(
        format!(
            "Filter kernel: production filter (chunked, {} build) vs scalar reference \
             (per full pass; speedup = scalar mean / chunked mean)",
            report.kernel_isa
        ),
        &[
            "mode",
            "sel",
            "variant",
            "mean ms",
            "p95 ms",
            "Mvalues/s",
            "speedup",
        ],
    );
    for cell in &report.cells {
        let speedup = if cell.variant == "chunked" {
            report
                .cells
                .iter()
                .find(|c| {
                    c.mode == cell.mode
                        && c.selectivity == cell.selectivity
                        && c.variant == "scalar"
                })
                .map(|scalar| scalar.mean_ns / cell.mean_ns.max(1.0))
        } else {
            None
        };
        table.add_row(vec![
            cell.mode.to_string(),
            format!("{:.0}%", cell.selectivity),
            cell.variant.to_string(),
            format!("{:.3}", cell.mean_ns / 1e6),
            format!("{:.3}", cell.p95_ns / 1e6),
            format!("{:.1}", cell.mvalues_per_sec),
            speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
        ]);
    }
    table
}

/// Renders one variant's answers as an exact-match table (counts are plain
/// integers, checksums non-numeric labels), for
/// `experiments compare ... --max-delta-pct 0` between the two variants.
pub fn answers_table(report: &FilterKernelReport, variant: &str) -> Table {
    let mut table = Table::new(
        format!("Filter kernel answers ({variant})"),
        &["mode", "sel", "count", "checksum"],
    );
    for cell in report.cells.iter().filter(|c| c.variant == variant) {
        table.add_row(vec![
            cell.mode.to_string(),
            format!("{:.0}%", cell.selectivity),
            cell.answer.count.to_string(),
            cell.answer.checksum_label(),
        ]);
    }
    table
}

/// Builds the one-line JSON record appended to `BENCH_filter_kernel.json`
/// after every run — the tracked perf history (hand-rendered: the harness
/// has no JSON dependency).
pub fn bench_json_line(
    report: &FilterKernelReport,
    backend: &str,
    scale: &str,
    seed: u64,
    unix_ms: u128,
) -> String {
    let mut cells = String::new();
    for (i, cell) in report.cells.iter().enumerate() {
        if i > 0 {
            cells.push(',');
        }
        cells.push_str(&format!(
            "{{\"mode\":\"{}\",\"variant\":\"{}\",\"selectivity\":{},\
             \"mean_ns\":{:.0},\"p95_ns\":{:.0},\"mvalues_per_sec\":{:.2}}}",
            cell.mode,
            cell.variant,
            cell.selectivity,
            cell.mean_ns,
            cell.p95_ns,
            cell.mvalues_per_sec,
        ));
    }
    format!(
        "{{\"experiment\":\"filter-kernel\",\"backend\":\"{}\",\"scale\":\"{}\",\
         \"seed\":{},\"unix_ms\":{},\"kernel_isa\":\"{}\",\"nproc\":{},\
         \"values_per_pass\":{},\"probe_rows_per_pass\":{},\
         \"count_only_speedup\":{:.3},\"cells\":[{}]}}",
        backend,
        scale,
        seed,
        unix_ms,
        report.kernel_isa,
        report.nproc,
        report.values_per_pass,
        report.probe_rows_per_pass,
        report.count_only_speedup(),
        cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_vmem::SimBackend;

    #[test]
    fn tiny_run_is_equivalent_and_fully_populated() {
        let scale = Scale::tiny();
        let report = run_with(&SimBackend::new(), &scale, 99);
        // modes x selectivities x variants
        assert_eq!(
            report.cells.len(),
            MODES.len() * SELECTIVITIES.len() * VARIANTS.len()
        );
        assert_eq!(
            report.values_per_pass,
            scale.kernel_pages * asv_vmem::VALUES_PER_PAGE
        );
        assert!(report.probe_rows_per_pass > 0);
        for cell in &report.cells {
            assert!(cell.mean_ns > 0.0, "{} {}", cell.mode, cell.variant);
            assert!(cell.p95_ns >= cell.mean_ns * 0.5);
            assert!(cell.mvalues_per_sec > 0.0);
        }
        // Wider predicates qualify more values.
        let count_at = |sel: f64| {
            report
                .cells
                .iter()
                .find(|c| c.mode == "count" && c.selectivity == sel && c.variant == "chunked")
                .unwrap()
                .answer
                .count
        };
        assert!(count_at(1.0) < count_at(50.0));
        assert!(count_at(50.0) < count_at(90.0));
        // Excluding rows can only shrink the answer.
        for sel in SELECTIVITIES {
            let find = |mode: &str| {
                report
                    .cells
                    .iter()
                    .find(|c| c.mode == mode && c.selectivity == sel && c.variant == "chunked")
                    .unwrap()
            };
            assert!(find("exclude").answer.count <= find("scan").answer.count);
            assert_eq!(find("scan").answer, find("collect").answer_without_rows());
        }
        let table = to_table(&report);
        assert_eq!(table.num_rows(), report.cells.len());
        assert!(report.count_only_speedup() > 0.0);
    }

    impl KernelCell {
        /// The cell's answer with the rows checksum blanked (scan vs
        /// collect comparison).
        fn answer_without_rows(&self) -> KernelAnswer {
            KernelAnswer {
                rows_sum: 0,
                ..self.answer
            }
        }
    }

    #[test]
    fn answers_tables_match_across_variants() {
        let report = run_with(&SimBackend::new(), &Scale::tiny(), 5);
        let scalar = answers_table(&report, "scalar").to_csv();
        let chunked = answers_table(&report, "chunked").to_csv();
        assert_eq!(scalar, chunked, "variant answers must render identically");
        assert!(scalar.lines().count() > 1);
    }

    #[test]
    fn bench_json_line_is_one_line_and_balanced() {
        let report = run_with(&SimBackend::new(), &Scale::tiny(), 5);
        let line = bench_json_line(&report, "sim", "tiny", 5, 1_700_000_000_000);
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "balanced braces"
        );
        assert!(line.contains("\"experiment\":\"filter-kernel\""));
        assert!(line.contains("\"backend\":\"sim\""));
        assert!(line.contains("\"mode\":\"probe\""));
        assert!(line.contains(&format!("\"kernel_isa\":\"{}\"", report.kernel_isa)));
        assert!(line.contains(&format!("\"nproc\":{}", report.nproc)));
    }

    #[test]
    fn percentile_of_small_samples() {
        assert_eq!(percentile_95(&mut [5.0]), 5.0);
        assert_eq!(percentile_95(&mut [3.0, 1.0, 2.0]), 3.0);
        let mut twenty: Vec<f64> = (1..=20).map(|v| v as f64).collect();
        assert_eq!(percentile_95(&mut twenty), 19.0);
    }
}
