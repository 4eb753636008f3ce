//! Runs one workload: untraced repetitions for the end-to-end metrics, one
//! traced repetition plus the direct probes for the layer metrics, and the
//! oracle check over every answer of every repetition.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOAD_SPECIFIC};
use crate::oracle::Tally;
use crate::probes;
use crate::stats::{median, percentile};
use crate::sut::{AnyBackend, VALUES_PER_PAGE};
use crate::trace::{self, Trace};
use crate::traced_backend::TracedBackend;
use crate::workloads::{durable_ingest, Rep, RepEnv, Sizes, Workload};

/// Allowed gap between the driver thread's root spans and its timed wall.
pub const CONSERVATION_TOLERANCE_PCT: f64 = 5.0;

pub struct RunConfig<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// Timed seconds of untraced repetitions.
    pub untraced_seconds: f64,
    /// Untraced repetitions to run whatever the seconds (at least one runs).
    pub min_reps: usize,
    /// Whether a traced repetition and the probes follow.
    pub traced: bool,
    pub out_dir: &'a Path,
    pub sizes: &'a Sizes,
}

pub type Figures = Vec<(&'static str, f64)>;

/// Everything one run of one workload found.
pub struct Outcome {
    pub workload: Workload,
    pub backend: &'static str,
    pub store_fs: String,
    pub untraced_reps: usize,
    pub tally: Tally,
    /// The [`END_TO_END`] metrics, in catalogue order; a tail percentile
    /// the run's sample cannot support is missing.
    pub end_to_end: Figures,
    /// Every [`WORKLOAD_SPECIFIC`] metric (0 where the workload has none).
    pub specific: Figures,
    /// Every [`PER_LAYER`] metric, traced runs only.
    pub layers: Option<Figures>,
    pub self_ms_by_name: BTreeMap<&'static str, f64>,
    pub trace_file: Option<PathBuf>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }
}

fn backend_for(workload: Workload, out_dir: &Path) -> AnyBackend {
    if workload.backend() == "file" {
        AnyBackend::file_in(durable_ingest::work_dir(out_dir).join("store"))
    } else {
        AnyBackend::mmap()
    }
}

/// Counts every answer that differs from the oracle's as a failed op.
fn check_answers(rep: &Rep, expected: &[crate::oracle::Answer], tally: &mut Tally) {
    if rep.answers.len() != expected.len() {
        eprintln!(
            "answer count {} differs from the oracle's {}",
            rep.answers.len(),
            expected.len()
        );
        tally.failed += 1;
        tally.mismatches += 1;
    }
    for (got, want) in rep.answers.iter().zip(expected) {
        if let Some(got) = got {
            tally.check(got, want);
        }
    }
}

fn pooled(reps: &[Rep], field: impl Fn(&Rep) -> &Vec<f64>) -> Vec<f64> {
    reps.iter().flat_map(|r| field(r).iter().copied()).collect()
}

fn per_rep(reps: &[Rep], field: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(field).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The tail percentile of `samples`; a sample too short for it yields no
/// figure and a note.
fn tail(samples: &[f64], pct: f64, what: &str, notes: &mut Vec<String>) -> Option<f64> {
    let value = percentile(samples, pct);
    if value.is_none() {
        notes.push(format!(
            "{what}: {} samples do not leave ten beyond p{pct}, not reported",
            samples.len()
        ));
    }
    value
}

/// The gated figures (a tail the sample cannot support is left out) and
/// the workload's own ones (0 for those it does not report).
fn end_to_end(workload: Workload, reps: &[Rep], notes: &mut Vec<String>) -> (Figures, Figures) {
    let reads = pooled(reps, |r| &r.reads_ms);
    let ops = pooled(reps, |r| r.op_ms(workload.defining_op()));
    notes.push(format!(
        "{} repetitions; {} read and {} {:?} samples pooled",
        reps.len(),
        reads.len(),
        ops.len(),
        workload.defining_op()
    ));
    notes.push(format!(
        "sequence_s per repetition: {}",
        reps.iter()
            .map(|r| format!("{:.3}", r.sequence_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let e2e: Figures = [
        ("setup_s", Some(median(&per_rep(reps, |r| r.setup_s)))),
        ("read_p50_ms", Some(median(&reads))),
        ("read_p95_ms", tail(&reads, 95.0, "read_p95_ms", notes)),
        ("op_p50_ms", Some(median(&ops))),
        ("op_p90_ms", tail(&ops, 90.0, "op_p90_ms", notes)),
        ("sequence_s", Some(median(&per_rep(reps, |r| r.sequence_s)))),
        (
            "peak_rss_mb",
            Some(median(&per_rep(reps, |r| r.peak_rss_mb))),
        ),
    ]
    .into_iter()
    .filter_map(|(name, value)| Some((name, value?)))
    .collect();
    debug_assert!(e2e.iter().all(|m| END_TO_END.iter().any(|e| e.name == m.0)));

    let aligns = pooled(reps, |r| &r.aligns_ms);
    let commits = pooled(reps, |r| &r.commits_ms);
    // Rates are per repetition, then the median: a repetition a noisy
    // neighbour slowed down does not drag the figure.
    let measured = [
        (
            "scan_mvalues_per_s",
            median(&per_rep(reps, |r| {
                ratio(
                    r.values_filtered as f64 / 1e6,
                    r.reads_ms.iter().sum::<f64>() / 1e3,
                )
            })),
        ),
        (
            "reads_per_s",
            median(&per_rep(reps, |r| ratio(r.reads_ms.len() as f64, r.wall_s))),
        ),
        ("align_p50_ms", median(&aligns)),
        ("align_p95_ms", percentile(&aligns, 95.0).unwrap_or(0.0)),
        (
            "writes_per_s",
            median(&per_rep(reps, |r| ratio(r.writes as f64, r.write_wall_s))),
        ),
        ("commit_p50_ms", median(&commits)),
        ("commit_p95_ms", percentile(&commits, 95.0).unwrap_or(0.0)),
        ("recover_s", median(&pooled(reps, |r| &r.recovers_s))),
        (
            "journal_bytes_per_write",
            median(&per_rep(reps, |r| {
                ratio(r.journal_bytes as f64, r.writes as f64)
            })),
        ),
    ];
    let specific = WORKLOAD_SPECIFIC
        .iter()
        .zip(measured)
        .map(|((layer, reported_by), (name, value))| {
            debug_assert_eq!(layer.name, name);
            if !reported_by.contains(&workload) {
                return (name, 0.0);
            }
            if value == 0.0 {
                notes.push(format!("{name}: too few samples, reported as 0"));
            }
            (name, value)
        })
        .collect();
    (e2e, specific)
}

/// Derives every [`PER_LAYER`] metric from the traced repetition, what it
/// observed from outside, and the probes.
fn layer_figures(
    workload: Workload,
    sizes: &Sizes,
    rep: &Rep,
    trace: &Trace,
    extra: &[(&'static str, f64)],
) -> Figures {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|l| (l.name, 0.0)).collect();
    let mut set = |name: &'static str, value: f64| {
        // `+ 0.0` turns the -0.0 an empty f64 sum yields into 0.0.
        *m.get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the catalogue")) = value + 0.0;
    };
    let p50 = |name: &str| median(&trace.durations_ms(name));
    let self_by_name = trace.self_ms_by_name();
    let self_of = |name: &str| self_by_name.get(name).copied().unwrap_or(0.0);

    let map_runs = trace.calls("vmem.map_run") as f64;
    let pages_mapped = trace.count("vmem.pages_mapped") as f64;
    set("vmem.map_run_calls", map_runs);
    set("vmem.pages_mapped", pages_mapped);
    set("vmem.pages_per_map_run", ratio(pages_mapped, map_runs));
    set("vmem.map_run_busy_ms", trace.busy_ms("vmem.map_run"));
    set(
        "vmem.reserve_view_calls",
        trace.calls("vmem.reserve_view") as f64,
    );
    set("vmem.reserve_busy_ms", trace.busy_ms("vmem.reserve_view"));
    set(
        "vmem.maps_parse_calls",
        trace.calls("vmem.maps_parse") as f64,
    );
    set("vmem.maps_parse_busy_ms", trace.busy_ms("vmem.maps_parse"));
    set(
        "vmem.truncate_calls",
        trace.calls("vmem.truncate_view") as f64,
    );
    set("vmem.truncate_busy_ms", trace.busy_ms("vmem.truncate_view"));
    set("vmem.errors", trace.count("vmem.errors") as f64);

    let queries = trace.count("core.queries") as f64;
    let pages_scanned = trace.count("core.pages_scanned") as f64;
    set("core.query_busy_ms", trace.busy_ms("core.query"));
    set("core.query_self_ms", self_of("core.query"));
    set("core.pages_scanned", pages_scanned);
    let all_pages = queries * workload.column_pages(sizes) as f64;
    set(
        "core.scan_skip_ratio",
        if all_pages > 0.0 {
            1.0 - pages_scanned / all_pages
        } else {
            0.0
        },
    );
    set(
        "core.views_used_per_query",
        ratio(trace.count("core.views_used") as f64, queries),
    );
    set(
        "core.route_partial_hit_ratio",
        ratio(trace.count("core.partial_hits") as f64, queries),
    );
    let inserted = trace.count("core.views_inserted") as f64;
    let replaced = trace.count("core.views_replaced") as f64;
    let discarded = trace.count("core.views_discarded") as f64;
    set("core.views_inserted", inserted);
    set("core.views_replaced", replaced);
    set("core.views_discarded", discarded);
    set(
        "core.view_retain_ratio",
        ratio(inserted + replaced, inserted + replaced + discarded),
    );
    set("core.align_busy_ms", trace.busy_ms("core.align_views"));
    set("core.align_self_ms", self_of("core.align_views"));
    set(
        "core.align_parse_ms",
        trace.count("core.align_parse_us") as f64 / 1e3,
    );
    set(
        "core.align_apply_ms",
        trace.count("core.align_apply_us") as f64 / 1e3,
    );
    set(
        "core.align_pages_added",
        trace.count("core.align_pages_added") as f64,
    );
    set(
        "core.align_pages_removed",
        trace.count("core.align_pages_removed") as f64,
    );
    set(
        "core.write_batch_busy_ms",
        trace.busy_ms("core.write_batch"),
    );

    let pins_us: Vec<f64> = trace
        .durations_ms("serve.pin")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    set("serve.pin_us_p50", median(&pins_us));
    set(
        "serve.pin_us_p99",
        percentile(&pins_us, 99.0).unwrap_or(0.0),
    );
    set("serve.query_range_ms_p50", p50("serve.query_range"));
    set("serve.query_conj_ms_p50", p50("serve.query_conj"));
    if !pins_us.is_empty() {
        set(
            "serve.read_p99_ms",
            percentile(&trace.durations_ms("op.read"), 99.0).unwrap_or(0.0),
        );
    }
    let ticks_ms = trace.durations_ms("serve.tick");
    set(
        "serve.write_batch_busy_ms",
        trace.busy_ms("serve.write_batch"),
    );
    set("serve.tick_busy_ms", ticks_ms.iter().sum());
    set("serve.tick_p50_us", median(&ticks_ms) * 1e3);
    set(
        "serve.tick_max_ms",
        ticks_ms.iter().copied().fold(0.0, f64::max),
    );
    set("serve.ticks", ticks_ms.len() as f64);
    set(
        "serve.maint_busy_share",
        ratio(ticks_ms.iter().sum::<f64>(), rep.wall_s * 1e3),
    );

    for (layer, ms) in trace.self_ms_by_layer() {
        match layer {
            "vmem" => set("vmem.self_ms", ms),
            "core" => set("core.self_ms", ms),
            "serve" => set("serve.self_ms", ms),
            "bench" => set("bench.self_ms", ms),
            other => panic!("span layer {other} has no self-time metric"),
        }
    }
    set("bench.spans_recorded", trace.spans.len() as f64);
    set("bench.traced_wall_ms", rep.wall_s * 1e3);
    set(
        "bench.conservation_pct",
        ratio(
            (trace.root_ms(rep.driver_thread) - rep.wall_s * 1e3).abs() * 100.0,
            rep.wall_s * 1e3,
        ),
    );

    for &(name, value) in rep.observed.iter().chain(extra) {
        set(name, value);
    }
    let planned = m["serve.align_planned_views"];
    let candidates = m["serve.align_candidate_views"];
    if candidates > 0.0 {
        m.insert("serve.align_prune_ratio", 1.0 - planned / candidates);
    }
    // Time inside asv_storage and wal is not separable by spans from
    // outside: these two are estimates, probe cost × the counted work.
    let scan_rate = m["storage.scan_mvalues_per_s.sel10"];
    m.insert(
        "storage.scan_est_ms",
        ratio(pages_scanned * VALUES_PER_PAGE as f64 / 1e3, scan_rate),
    );
    let commits = rep.commits_ms.len() as f64;
    m.insert(
        "wal.io_est_ms",
        m["wal.records"] * m["wal.append_us_per_record"] / 1e3 + commits * m["wal.sync_ms_p50"],
    );
    PER_LAYER.iter().map(|l| (l.name, m[l.name])).collect()
}

/// The probes of the layers `workload` exercises.
fn run_probes(
    cfg: &RunConfig<'_>,
    backend: &AnyBackend,
    traced: &Rep,
    env: &RepEnv<'_>,
) -> Figures {
    let sizes = cfg.sizes;
    let mut out = probes::storage(
        &AnyBackend::mmap(),
        &cfg.workload.probe_values(cfg.seed, sizes),
    );
    if matches!(cfg.workload, Workload::ServeMixed | Workload::DurableIngest) {
        out.extend(probes::util());
    }
    if cfg.workload == Workload::DurableIngest {
        let dir = durable_ingest::work_dir(cfg.out_dir);
        let rows = sizes.durable_pages * VALUES_PER_PAGE;
        out.extend(probes::wal(&dir, rows, sizes.durable_batch, 1 << 20));
        out.extend(probes::wal_replay(
            &dir.join(durable_ingest::SEALED_JOURNAL),
        ));
        out.push(("wal.journal_bytes", traced.journal_bytes as f64));
        // Base: the same ingest on an in-memory table of the file backend.
        let twin_s = durable_ingest::twin_ingest_s(backend, env);
        out.push((
            "wal.overhead_pct",
            ratio((traced.write_wall_s - twin_s) * 100.0, twin_s),
        ));
    }
    out
}

pub fn run(cfg: &RunConfig<'_>) -> Outcome {
    let backend = backend_for(cfg.workload, cfg.out_dir);
    std::fs::create_dir_all(cfg.out_dir).expect("--out directory");
    let expected = cfg.workload.expected_answers(cfg.seed, cfg.sizes);
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    let env = RepEnv {
        out_dir: cfg.out_dir,
        seed: cfg.seed,
        sizes: cfg.sizes,
        traced: false,
    };
    let mut reps: Vec<Rep> = Vec::new();
    let mut timed = 0.0;
    // Whole repetitions only: stop where one more would overshoot
    // `--seconds` by more than stopping undershoots it.
    while reps.len() < cfg.min_reps
        || reps
            .last()
            .is_none_or(|last| timed + last.wall_s / 2.0 < cfg.untraced_seconds)
    {
        let rep = cfg.workload.run_rep(&backend, &env);
        timed += rep.wall_s;
        tally.absorb(rep.tally);
        check_answers(&rep, &expected, &mut tally);
        reps.push(rep);
    }
    let (end_to_end, specific) = end_to_end(cfg.workload, &reps, &mut notes);

    let mut outcome = Outcome {
        workload: cfg.workload,
        backend: cfg.workload.backend(),
        store_fs: crate::machine::fs_type(cfg.out_dir),
        untraced_reps: reps.len(),
        tally,
        end_to_end,
        specific,
        layers: None,
        self_ms_by_name: BTreeMap::new(),
        trace_file: None,
        notes,
    };
    if cfg.traced {
        let untraced_wall = median(&per_rep(&reps, |r| r.wall_s));
        drop(reps);
        trace_and_probe(cfg, &backend, &expected, untraced_wall, &mut outcome);
    }
    if cfg.workload == Workload::DurableIngest {
        let _ = std::fs::remove_dir_all(durable_ingest::work_dir(cfg.out_dir));
    }
    outcome
}

fn trace_and_probe(
    cfg: &RunConfig<'_>,
    backend: &AnyBackend,
    expected: &[crate::oracle::Answer],
    untraced_wall: f64,
    outcome: &mut Outcome,
) {
    let env = RepEnv {
        out_dir: cfg.out_dir,
        seed: cfg.seed,
        sizes: cfg.sizes,
        traced: true,
    };
    // The workload switches recording on for its timed phase only, so the
    // trace holds exactly what the timed wall covers.
    drop(trace::collect());
    let rep = cfg
        .workload
        .run_rep(&TracedBackend::new(backend.clone()), &env);
    let trace = trace::collect();
    outcome.tally.absorb(rep.tally);
    check_answers(&rep, expected, &mut outcome.tally);

    let trace_file = cfg
        .out_dir
        .join(format!("{}.trace.jsonl", cfg.workload.name()));
    trace
        .write_jsonl(&trace_file)
        .expect("trace file under --out");
    outcome.trace_file = Some(trace_file);

    let mut extra = run_probes(cfg, backend, &rep, &env);
    extra.push((
        "bench.trace_overhead_pct",
        ratio((rep.wall_s - untraced_wall) * 100.0, untraced_wall),
    ));
    extra.push(("bench.untraced_reps", outcome.untraced_reps as f64));
    extra.push(("bench.oracle_mismatches", outcome.tally.mismatches as f64));
    let layers = layer_figures(cfg.workload, cfg.sizes, &rep, &trace, &extra);

    let conservation = layers
        .iter()
        .find(|l| l.0 == "bench.conservation_pct")
        .map_or(0.0, |l| l.1);
    if conservation > CONSERVATION_TOLERANCE_PCT {
        outcome.notes.push(format!(
            "CONSERVATION FAILED: root spans differ from the timed wall by {conservation:.2} % (> {CONSERVATION_TOLERANCE_PCT} %)"
        ));
        outcome.tally.failed += 1;
    }
    outcome.self_ms_by_name = trace.self_ms_by_name();
    outcome.layers = Some(layers);
}
