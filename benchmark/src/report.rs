//! What a run prints and writes: every metric by name with its unit, the
//! per-layer self-time table, the driver's JSON line and `results.json`.

use std::path::Path;

use crate::json::Json;
use crate::machine::Fingerprint;
use crate::metrics::{specific_layers, END_TO_END, PER_LAYER};
use crate::runner::{Figures, Outcome};
use crate::workloads::Sizes;
use crate::Args;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(
            specific_layers()
                .chain(PER_LAYER.iter())
                .map(|l| (l.name, l.unit)),
        )
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn print_figures(title: &str, figures: &Figures) {
    println!("  {title}");
    for (name, value) in figures {
        println!("    {name:<42} {value:>16.6} {}", unit_of(name));
    }
}

pub fn print_outcome(outcome: &Outcome) {
    println!(
        "== {} (backend {}, store fs {}, {} untraced repetitions)",
        outcome.workload.name(),
        outcome.backend,
        outcome.store_fs,
        outcome.untraced_reps
    );
    println!(
        "  ops attempted {}  failed {}  (oracle mismatches {})",
        outcome.tally.attempted, outcome.tally.failed, outcome.tally.mismatches
    );
    print_figures("end-to-end (tracing off, gated)", &outcome.end_to_end);
    print_figures(
        "end-to-end, this workload's own ops (tracing off, 0 = none)",
        &outcome.specific,
    );
    if let Some(layers) = &outcome.layers {
        print_figures("per layer (traced run and direct probes)", layers);
        println!("  self time per span (traced run)");
        for (name, ms) in &outcome.self_ms_by_name {
            println!("    {name:<42} {ms:>16.3} ms");
        }
    }
    if let Some(path) = &outcome.trace_file {
        println!("  trace: {}", path.display());
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

fn figures_json(figures: &Figures) -> Json {
    Json::Obj(
        figures
            .iter()
            .map(|(name, value)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })
            .collect(),
    )
}

/// The gated metrics the run could not report (a tail percentile its
/// sample does not support).
pub fn missing_end_to_end(outcome: &Outcome) -> Vec<&'static str> {
    END_TO_END
        .iter()
        .map(|m| m.name)
        .filter(|name| outcome.end_to_end.iter().all(|f| f.0 != *name))
        .collect()
}

/// The last line of standard output the driver reads: with `--trace 0`
/// every end-to-end metric, with `--trace 1` every per-layer metric.
pub fn contract_line(outcome: &Outcome, traced: bool, correct: bool) -> Json {
    let metrics = if traced {
        let mut all = outcome.specific.clone();
        all.extend(outcome.layers.iter().flatten().copied());
        figures_json(&all)
    } else {
        figures_json(&outcome.end_to_end)
    };
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.tally.attempted as i64)),
        ("failed", Json::Int(outcome.tally.failed as i64)),
        ("metrics", metrics),
    ])
}

fn sizes_json(sizes: &Sizes) -> Json {
    let n = |v: usize| Json::Int(v as i64);
    Json::obj([
        ("smoke", Json::Bool(sizes.smoke)),
        ("scan_pages", n(sizes.scan_pages)),
        ("adaptive_queries", n(sizes.adaptive_queries)),
        ("adaptive_max_views", n(sizes.adaptive_max_views)),
        ("wide_queries", n(sizes.wide_queries)),
        ("align_pages", n(sizes.align_pages)),
        ("align_views", n(sizes.align_views)),
        ("align_small_batches", n(sizes.align_small_batches)),
        ("align_small_batch", n(sizes.align_small_batch)),
        ("align_large_batches", n(sizes.align_large_batches)),
        ("align_large_batch", n(sizes.align_large_batch)),
        ("serve_pages", n(sizes.serve_pages)),
        ("serve_views", n(sizes.serve_views)),
        ("serve_rounds", n(sizes.serve_rounds)),
        ("serve_writes_per_round", n(sizes.serve_writes_per_round)),
        ("serve_reads_per_round", n(sizes.serve_reads_per_round)),
        ("durable_pages", n(sizes.durable_pages)),
        ("durable_batches", n(sizes.durable_batches)),
        ("durable_batch", n(sizes.durable_batch)),
        ("durable_read_every", n(sizes.durable_read_every)),
        ("durable_recoveries", n(sizes.durable_recoveries)),
    ])
}

/// One workload's entry of `results.json`.
pub fn workload_json(args: &Args, sizes: &Sizes, o: &Outcome) -> Json {
    Json::obj([
        ("name", Json::str(o.workload.name())),
        ("backend", Json::str(o.backend)),
        ("store_fs", Json::str(&o.store_fs)),
        (
            "op_stream_hash",
            Json::Str(format!(
                "{:016x}",
                o.workload.op_stream_hash(args.seed, sizes)
            )),
        ),
        ("untraced_repetitions", Json::Int(o.untraced_reps as i64)),
        ("attempted", Json::Int(o.tally.attempted as i64)),
        ("failed", Json::Int(o.tally.failed as i64)),
        ("oracle_mismatches", Json::Int(o.tally.mismatches as i64)),
        ("end_to_end", figures_json(&o.end_to_end)),
        ("end_to_end_workload_specific", figures_json(&o.specific)),
        (
            "per_layer",
            o.layers
                .as_ref()
                .map_or(Json::Obj(Vec::new()), figures_json),
        ),
        (
            "trace_file",
            Json::str(
                &o.trace_file
                    .as_ref()
                    .map_or(String::new(), |p| p.display().to_string()),
            ),
        ),
        (
            "notes",
            Json::Arr(o.notes.iter().map(|n| Json::str(n)).collect()),
        ),
    ])
}

/// `results.json`: every figure of every workload under the machine
/// fingerprint, so results are only ever compared like-for-like.
pub fn results_json(args: &Args, sizes: &Sizes, workloads: Vec<Json>) -> Json {
    let fp = Fingerprint::read(Path::new("."));
    let fingerprint = Json::obj([
        ("nproc", Json::Int(fp.nproc as i64)),
        ("kernel", Json::str(&fp.kernel)),
        ("page_size", Json::Int(fp.page_size as i64)),
        ("thp", Json::str(&fp.thp)),
        ("vm_max_map_count", Json::str(&fp.max_map_count)),
        ("git_commit", Json::str(&fp.git_commit)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "fsync_every_chunks",
            Json::Int(crate::sut::FSYNC_EVERY_CHUNKS as i64),
        ),
        ("frozen_sizes", sizes_json(sizes)),
    ]);
    Json::obj([
        ("fingerprint", fingerprint),
        ("workloads", Json::Arr(workloads)),
    ])
}
