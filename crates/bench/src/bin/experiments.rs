//! Regenerates the paper's tables and figures as text tables and CSV files.
//!
//! ```text
//! experiments [fig3|fig4|fig5|fig6|fig7|table1|ablation|scaling|align-overlap|
//!              table-scan|filter-kernel|serve|recover|all]
//!             [--backend sim|mmap|file] [--scale tiny|small|medium|paper]
//!             [--seed N] [--csv-dir DIR] [--threads N]
//!             [--align-mode sync|background]
//!             [--chunk-updates LIST] [--write-every LIST] [--clients LIST]
//!             [--writers LIST] [--journal PATH] [--store-dir DIR]
//! experiments recover-ingest --journal PATH [--batches N] [...]
//! experiments recover-verify --journal PATH [--csv-dir DIR] [...]
//! experiments compare DIR_A DIR_B [--max-delta-pct X]
//! ```
//!
//! The backend defaults to real memory rewiring (`mmap`) on Linux and to
//! the portable simulation (`sim`) everywhere else; `--backend` overrides
//! the choice at runtime. `--backend file` selects the durable file-backed
//! tier, storing under a process-unique temp directory unless
//! `--store-dir` pins one.
//!
//! `--threads N` shards the scan path of every figure driver across `N`
//! fork-join workers (`--threads 0` sizes the pool by the available
//! hardware parallelism). The default is 1: sequential scans, bit-identical
//! to the pre-parallel harness. The `scaling` experiment ignores the flag
//! and sweeps its own thread counts.
//!
//! `--align-mode background` makes `fig7` align its views via the
//! epoch-handoff worker instead of the stop-the-world call (pages
//! added/removed are identical; only the timings move off the query path).
//! The `align-overlap` experiment always measures both modes against each
//! other; `--chunk-updates 0,64,256` overrides the chunk sizes it sweeps
//! (0 = unchunked; default derives `[0, batch/8]` per batch size) and
//! `--write-every 0,8` the write rates (a queued burst every N
//! during-alignment queries; 0 = read-only).
//!
//! Results are printed to stdout; with `--csv-dir` the per-figure series are
//! additionally written as CSV files (one per figure), which is what
//! `EXPERIMENTS.md` records.
//!
//! The `filter-kernel` experiment additionally appends one JSON line of
//! timing history to `BENCH_filter_kernel.json` (inside `--csv-dir` when
//! given, else the working directory) and — with `--csv-dir` — writes the
//! per-variant answer tables to `DIR/filter_kernel_scalar/` and
//! `DIR/filter_kernel_chunked/`, so
//! `experiments compare DIR/filter_kernel_scalar DIR/filter_kernel_chunked
//! --max-delta-pct 0` gates the chunked kernels on exact answer equality.
//!
//! The `serve` experiment sweeps reader-thread counts (`--clients 1,2,4,8`
//! overrides the list) × writer-shard counts (`--writers 0,2`; 0 = direct
//! maintenance-thread writes, N > 0 = N writer threads feeding N sharded
//! ingest lanes) over the concurrent serving layer. `--threads` turns on
//! intra-query morsel fan-out on the reader snapshots. Every cell must
//! answer bit-identically to a single-threaded sequential twin; the run
//! appends one JSON line of throughput/tail-latency history (with the
//! clients and writers axes) to `BENCH_serve.json` and — with `--csv-dir`
//! — writes each cell's answer table to `DIR/serve_clients_{LABEL}/`
//! (`seq` for the twin, `{C}` for direct-write cells, `{C}w{W}` for
//! sharded-ingest cells), so `experiments compare DIR/serve_clients_seq
//! DIR/serve_clients_2w2 --max-delta-pct 0` gates determinism across all
//! axes.
//!
//! The `recover` experiment measures the durable tier: it runs the same
//! seeded batch workload once in-memory and once with the write-ahead
//! journal attached (sweeping the fsync policy), drops the durable table
//! without a quiesce and times `ServeTable::recover`. Recovered answers
//! must be bit-identical to the live table and to an independent replay
//! of the sealed batch prefix; the run appends one JSON line of
//! overhead/recovery-time history to `BENCH_recover.json` and — with
//! `--csv-dir` — writes the live and recovered probe-answer tables to
//! `DIR/recover_live/` and `DIR/recover_recovered/`, so
//! `experiments compare DIR/recover_live DIR/recover_recovered
//! --max-delta-pct 0` gates recovery exactness. `--journal PATH` pins the
//! journal file (default: a temp path, removed afterwards).
//!
//! The hidden `recover-ingest` / `recover-verify` modes split that loop
//! across processes for the kill-and-recover integration test:
//! `recover-ingest` journals acknowledged batches at `--journal`,
//! printing a `sealed batch N` marker per commit until `--batches` run
//! out (or SIGKILL arrives first); `recover-verify` recovers the journal,
//! regenerates the sealed batch prefix independently, writes both
//! probe-answer tables under `--csv-dir` and exits non-zero if they
//! differ.
//!
//! The `compare` subcommand diffs two `--csv-dir` outputs and prints
//! per-experiment timing deltas; `--max-delta-pct X` turns it into a check
//! that fails (exit code 1) when any per-row delta exceeds `X` percent
//! (`--max-delta-pct 0` against the same directory twice is the harness
//! self-check CI runs).

use std::process::ExitCode;

use std::path::PathBuf;

use asv_bench::{
    ablation, align_overlap, compare, fig3, fig4, fig5, fig6, fig7, filter_kernel, recover, report,
    scaling, serve, table1, table_scan, Scale, DEFAULT_SEED,
};
use asv_core::Parallelism;
use asv_vmem::{AnyBackend, Backend};

struct Args {
    experiments: Vec<String>,
    backend: AnyBackend,
    scale: Scale,
    seed: u64,
    csv_dir: Option<String>,
    parallelism: Parallelism,
    align_mode: fig7::AlignMode,
    overlap: align_overlap::OverlapConfig,
    clients: Vec<usize>,
    writers: Vec<usize>,
    journal: Option<PathBuf>,
    batches: Option<usize>,
    max_delta_pct: Option<f64>,
}

/// Parses a comma-separated list of non-negative integers.
fn parse_usize_list(flag: &str, value: &str) -> Result<Vec<usize>, String> {
    value
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| format!("invalid {flag} entry '{part}'"))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut experiments = Vec::new();
    let mut backend = AnyBackend::default_backend();
    let mut scale = Scale::default();
    let mut seed = DEFAULT_SEED;
    let mut csv_dir = None;
    let mut parallelism = Parallelism::Sequential;
    let mut align_mode = fig7::AlignMode::Sync;
    let mut overlap = align_overlap::OverlapConfig::default();
    let mut clients = serve::DEFAULT_CLIENTS.to_vec();
    let mut writers = serve::DEFAULT_WRITERS.to_vec();
    let mut journal = None;
    let mut batches = None;
    let mut store_dir: Option<String> = None;
    let mut max_delta_pct = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => {
                let name = args.next().ok_or("--backend needs a value")?;
                backend = AnyBackend::from_name(&name).ok_or_else(|| {
                    format!(
                        "unknown backend '{name}' (available on this platform: {})",
                        AnyBackend::available_names().join("|")
                    )
                })?;
            }
            "--scale" => {
                let name = args.next().ok_or("--scale needs a value")?;
                scale = Scale::by_name(&name)
                    .ok_or_else(|| format!("unknown scale '{name}' (tiny|small|medium|paper)"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("invalid seed '{v}'"))?;
            }
            "--csv-dir" => {
                csv_dir = Some(args.next().ok_or("--csv-dir needs a value")?);
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid thread count '{v}'"))?;
                parallelism = Parallelism::from_threads(n);
            }
            "--align-mode" => {
                let v = args.next().ok_or("--align-mode needs a value")?;
                align_mode = fig7::AlignMode::by_name(&v)
                    .ok_or_else(|| format!("unknown align mode '{v}' (sync|background)"))?;
            }
            "--chunk-updates" => {
                let v = args.next().ok_or("--chunk-updates needs a value")?;
                overlap.chunk_sizes = Some(parse_usize_list("--chunk-updates", &v)?);
            }
            "--write-every" => {
                let v = args.next().ok_or("--write-every needs a value")?;
                let rates = parse_usize_list("--write-every", &v)?;
                if rates.is_empty() {
                    return Err("--write-every needs at least one entry".to_string());
                }
                overlap.write_everys = rates;
            }
            "--clients" => {
                let v = args.next().ok_or("--clients needs a value")?;
                let list = parse_usize_list("--clients", &v)?;
                if list.is_empty() || list.contains(&0) {
                    return Err("--clients needs at least one positive entry".to_string());
                }
                clients = list;
            }
            "--writers" => {
                let v = args.next().ok_or("--writers needs a value")?;
                let list = parse_usize_list("--writers", &v)?;
                if list.is_empty() {
                    return Err("--writers needs at least one entry".to_string());
                }
                writers = list;
            }
            "--journal" => {
                journal = Some(PathBuf::from(args.next().ok_or("--journal needs a value")?));
            }
            "--batches" => {
                let v = args.next().ok_or("--batches needs a value")?;
                batches = Some(
                    v.parse()
                        .map_err(|_| format!("invalid batch count '{v}'"))?,
                );
            }
            "--store-dir" => {
                store_dir = Some(args.next().ok_or("--store-dir needs a value")?);
            }
            "--max-delta-pct" => {
                let v = args.next().ok_or("--max-delta-pct needs a value")?;
                let bound: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid delta bound '{v}'"))?;
                // NaN would make every `>` comparison false and turn the
                // gate into a no-op; negative bounds are meaningless.
                if !bound.is_finite() || bound < 0.0 {
                    return Err(format!("delta bound '{v}' must be a finite value >= 0"));
                }
                max_delta_pct = Some(bound);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: experiments [fig3|fig4|fig5|fig6|fig7|table1|ablation|scaling|\
                            align-overlap|table-scan|filter-kernel|serve|recover|all] \
                            [--backend sim|mmap|file] [--scale tiny|small|medium|paper] \
                            [--seed N] [--csv-dir DIR] [--threads N] \
                            [--align-mode sync|background] \
                            [--chunk-updates LIST] [--write-every LIST] [--clients LIST] \
                            [--writers LIST] [--journal PATH] [--store-dir DIR]\n\
                     usage: experiments recover-ingest --journal PATH [--batches N]\n\
                     usage: experiments recover-verify --journal PATH [--csv-dir DIR]\n\
                     usage: experiments compare DIR_A DIR_B [--max-delta-pct X]"
                        .to_string(),
                );
            }
            name if !name.starts_with('-') => experiments.push(name.to_string()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    if let Some(dir) = store_dir {
        #[cfg(target_os = "linux")]
        {
            if !matches!(backend, AnyBackend::File(_)) {
                return Err("--store-dir requires --backend file".to_string());
            }
            backend = AnyBackend::file_in(dir);
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = dir;
            return Err("--store-dir requires --backend file (Linux only)".to_string());
        }
    }
    Ok(Args {
        experiments,
        backend,
        scale,
        seed,
        csv_dir,
        parallelism,
        align_mode,
        overlap,
        clients,
        writers,
        journal,
        batches,
        max_delta_pct,
    })
}

/// Dispatches once on the selected backend so every experiment's measured
/// loops run monomorphized over the concrete backend type — the enum is
/// consulted once per experiment, never inside a timed scan.
macro_rules! with_concrete_backend {
    ($any:expr, |$b:ident| $body:expr) => {
        match $any {
            AnyBackend::Sim($b) => $body,
            #[cfg(target_os = "linux")]
            AnyBackend::Mmap($b) => $body,
            #[cfg(target_os = "linux")]
            AnyBackend::File($b) => $body,
        }
    };
}

fn maybe_write_csv(csv_dir: &Option<String>, name: &str, table: &report::Table) {
    if let Some(dir) = csv_dir {
        let path = format!("{dir}/{name}.csv");
        if let Err(e) = report::write_csv(&path, &table.to_csv()) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("(wrote {path})");
        }
    }
}

fn run_fig3(args: &Args) {
    let rows = with_concrete_backend!(&args.backend, |b| fig3::run_with(
        b,
        &args.scale,
        args.seed,
        args.parallelism
    ));
    let table = fig3::to_table(&rows);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "fig3", &table);
}

fn run_fig4(args: &Args) {
    let results = with_concrete_backend!(&args.backend, |b| fig4::run_all_with(
        b,
        &args.scale,
        args.seed,
        args.parallelism
    ));
    for r in &results {
        let table = fig4::to_table(r);
        println!("{}", table.render());
        maybe_write_csv(&args.csv_dir, &format!("fig4_{}", r.distribution), &table);
    }
    println!("{}", fig4::summary_table(&results).render());
}

fn run_fig5(args: &Args) {
    let results = with_concrete_backend!(&args.backend, |b| fig5::run_all_with(
        b,
        &args.scale,
        args.seed,
        args.parallelism
    ));
    for r in &results {
        let table = fig5::to_table(r);
        println!("{}", table.render());
        maybe_write_csv(
            &args.csv_dir,
            &format!("fig5_sel{:.0}pct", r.selectivity * 100.0),
            &table,
        );
    }
    println!("{}", fig5::summary_table(&results).render());
}

fn run_fig6(args: &Args) {
    let rows = with_concrete_backend!(&args.backend, |b| fig6::run_with(
        b,
        &args.scale,
        args.seed,
        args.parallelism
    ));
    let table = fig6::to_table(&rows);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "fig6", &table);
}

fn run_fig7(args: &Args) {
    let rows = with_concrete_backend!(&args.backend, |b| fig7::run_all_with_mode(
        b,
        &args.scale,
        args.seed,
        args.parallelism,
        args.align_mode
    ));
    let table = fig7::to_table(&rows);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "fig7", &table);
}

fn run_align_overlap(args: &Args) {
    let rows = with_concrete_backend!(&args.backend, |b| align_overlap::run_with_config(
        b,
        &args.scale,
        args.seed,
        args.parallelism,
        &args.overlap
    ));
    let table = align_overlap::to_table(&rows);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "align_overlap", &table);
}

fn run_ablation(args: &Args) {
    let rows = with_concrete_backend!(&args.backend, |b| ablation::run_with(
        b,
        &args.scale,
        args.seed,
        args.parallelism
    ));
    let table = ablation::to_table(&rows);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "ablation", &table);
}

fn run_table1(args: &Args) {
    let entries = with_concrete_backend!(&args.backend, |b| table1::run_with(
        b,
        &args.scale,
        args.seed,
        args.parallelism
    ));
    let table = table1::to_table(&entries);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "table1", &table);
}

fn run_scaling(args: &Args) {
    let rows = with_concrete_backend!(&args.backend, |b| scaling::run(b, &args.scale, args.seed));
    let table = scaling::to_table(&rows);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "scaling", &table);
}

fn run_table_scan(args: &Args) {
    let rows = with_concrete_backend!(&args.backend, |b| table_scan::run_with(
        b,
        &args.scale,
        args.seed,
        args.parallelism
    ));
    let table = table_scan::to_table(&rows);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "table_scan", &table);
}

fn run_filter_kernel(args: &Args) {
    let report = with_concrete_backend!(&args.backend, |b| filter_kernel::run_with(
        b,
        &args.scale,
        args.seed
    ));
    let table = filter_kernel::to_table(&report);
    println!("{}", table.render());
    println!(
        "count-only speedup (chunked vs scalar, mean over selectivities): {:.2}x\n",
        report.count_only_speedup()
    );
    maybe_write_csv(&args.csv_dir, "filter_kernel", &table);
    if let Some(dir) = &args.csv_dir {
        for variant in filter_kernel::VARIANTS {
            let answers = filter_kernel::answers_table(&report, variant);
            let path = format!("{dir}/filter_kernel_{variant}/answers.csv");
            if let Err(e) = report::write_csv(&path, &answers.to_csv()) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("(wrote {path})");
            }
        }
    }
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let line = filter_kernel::bench_json_line(
        &report,
        args.backend.name(),
        args.scale.name,
        args.seed,
        unix_ms,
    );
    let bench_path = match &args.csv_dir {
        Some(dir) => format!("{dir}/BENCH_filter_kernel.json"),
        None => "BENCH_filter_kernel.json".to_string(),
    };
    if let Err(e) = report::append_line(&bench_path, &line) {
        eprintln!("warning: could not append to {bench_path}: {e}");
    } else {
        println!("(appended perf-history line to {bench_path})");
    }
}

fn run_serve(args: &Args) {
    let report = with_concrete_backend!(&args.backend, |b| serve::run_with(
        b,
        &args.scale,
        args.seed,
        args.parallelism,
        &args.clients,
        &args.writers
    ));
    let table = serve::to_table(&report);
    println!("{}", table.render());
    println!(
        "best read-throughput speedup over the sequential twin: {:.2}x\n",
        report.best_speedup()
    );
    maybe_write_csv(&args.csv_dir, "serve", &table);
    if let Some(dir) = &args.csv_dir {
        for cell in &report.cells {
            let label = serve::cell_label(cell);
            let answers = serve::answers_table(cell);
            let path = format!("{dir}/serve_clients_{label}/answers.csv");
            if let Err(e) = report::write_csv(&path, &answers.to_csv()) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("(wrote {path})");
            }
        }
    }
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let line = serve::bench_json_line(
        &report,
        args.backend.name(),
        args.scale.name,
        args.seed,
        &args.parallelism.to_string(),
        unix_ms,
    );
    let bench_path = match &args.csv_dir {
        Some(dir) => format!("{dir}/BENCH_serve.json"),
        None => "BENCH_serve.json".to_string(),
    };
    if let Err(e) = report::append_line(&bench_path, &line) {
        eprintln!("warning: could not append to {bench_path}: {e}");
    } else {
        println!("(appended perf-history line to {bench_path})");
    }
}

/// The journal path of the `recover` modes: `--journal` when given, else
/// a process-unique temp file (removed by `run_recover` afterwards).
fn journal_path(args: &Args) -> (PathBuf, bool) {
    match &args.journal {
        Some(path) => (path.clone(), false),
        None => (
            std::env::temp_dir().join(format!("asv-recover-{}.wal", std::process::id())),
            true,
        ),
    }
}

fn run_recover(args: &Args) {
    let (journal, ephemeral) = journal_path(args);
    let report = with_concrete_backend!(&args.backend, |b| recover::run_with(
        b,
        &args.scale,
        args.seed,
        &recover::DEFAULT_FSYNC_EVERY,
        &journal
    ));
    if ephemeral {
        let _ = std::fs::remove_file(&journal);
    }
    let table = recover::to_table(&report);
    println!("{}", table.render());
    println!(
        "journal overhead at fsync-per-commit: {:.1}%; slowest recovery: {:.2} ms\n",
        report.strict_overhead_pct(),
        report.max_recover_ms()
    );
    maybe_write_csv(&args.csv_dir, "recover", &table);
    if let Some(dir) = &args.csv_dir {
        // The live and recovered answer sets are asserted identical inside
        // run_with; exporting both makes the `compare --max-delta-pct 0`
        // gate reproducible from the CSV artifacts alone.
        let answers = recover::answers_table(&report.answers);
        for label in ["live", "recovered"] {
            let path = format!("{dir}/recover_{label}/answers.csv");
            if let Err(e) = report::write_csv(&path, &answers.to_csv()) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("(wrote {path})");
            }
        }
    }
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let line = recover::bench_json_line(
        &report,
        args.backend.name(),
        args.scale.name,
        args.seed,
        unix_ms,
    );
    let bench_path = match &args.csv_dir {
        Some(dir) => format!("{dir}/BENCH_recover.json"),
        None => "BENCH_recover.json".to_string(),
    };
    if let Err(e) = report::append_line(&bench_path, &line) {
        eprintln!("warning: could not append to {bench_path}: {e}");
    } else {
        println!("(appended perf-history line to {bench_path})");
    }
}

/// The hidden `recover-ingest` mode (see the module docs): journals
/// acknowledged batches until `--batches` run out or SIGKILL arrives,
/// flushing a `sealed batch N` marker per commit.
fn run_recover_ingest(args: &Args) -> Result<(), String> {
    use std::io::Write as _;
    let journal = args
        .journal
        .as_ref()
        .ok_or("recover-ingest needs --journal PATH")?;
    let batches = args.batches.unwrap_or(args.scale.recover_batches);
    with_concrete_backend!(&args.backend, |b| recover::run_ingest(
        b,
        &args.scale,
        args.seed,
        journal,
        batches,
        |k| {
            // Explicit flush: a piped stdout is block-buffered, and the
            // kill-and-recover test reads these markers live.
            println!("sealed batch {k}");
            let _ = std::io::stdout().flush();
        }
    ));
    println!("(ingest complete: {batches} batches sealed, no quiesce)");
    Ok(())
}

/// The hidden `recover-verify` mode (see the module docs): recovers the
/// journal, writes the recovered and reference probe-answer tables under
/// `--csv-dir`, and reports whether they match.
fn run_recover_verify(args: &Args) -> Result<bool, String> {
    let journal = args
        .journal
        .as_ref()
        .ok_or("recover-verify needs --journal PATH")?;
    let out = with_concrete_backend!(&args.backend, |b| recover::run_verify(
        b,
        &args.scale,
        args.seed,
        journal
    ));
    println!(
        "(recover-verify: sealed_epoch={}, records_replayed={}, batches_applied={}, \
         discarded_bytes={})",
        out.info.sealed_epoch,
        out.info.records_replayed,
        out.info.batches_applied,
        out.info.discarded_bytes
    );
    if let Some(dir) = &args.csv_dir {
        for (label, answers) in [("recovered", &out.recovered), ("reference", &out.reference)] {
            let path = format!("{dir}/recover_{label}/answers.csv");
            let table = recover::answers_table(answers);
            if let Err(e) = report::write_csv(&path, &table.to_csv()) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("(wrote {path})");
            }
        }
    }
    let matches = out.recovered == out.reference;
    if matches {
        println!("recover-verify passed: recovered answers match the sealed-prefix reference");
    } else {
        eprintln!("recover-verify FAILED: recovered answers diverge from the reference");
    }
    Ok(matches)
}

/// The `compare` subcommand: `experiments compare DIR_A DIR_B`.
fn run_compare(args: &Args) -> ExitCode {
    let [_, dir_a, dir_b] = args.experiments.as_slice() else {
        eprintln!("usage: experiments compare DIR_A DIR_B [--max-delta-pct X]");
        return ExitCode::from(2);
    };
    let report = match compare::compare_dirs(dir_a, dir_b) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("compare failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report.to_table().render());
    for name in &report.only_a {
        println!("(only in {dir_a}: {name})");
    }
    for name in &report.only_b {
        println!("(only in {dir_b}: {name})");
    }
    let max_delta = report.max_abs_delta_pct();
    println!("max |Δ row|: {max_delta:.2}%");
    if let Some(bound) = args.max_delta_pct {
        // Coverage gaps and incomparable files fail the check too: a gate
        // that silently skips half the measurements is no gate.
        let mut failures = Vec::new();
        if max_delta > bound {
            failures.push(format!("max delta {max_delta:.2}% exceeds bound {bound}%"));
        }
        if report.has_incomparable() {
            failures.push("incomparable file(s), see table".to_string());
        }
        if report.has_coverage_gaps() {
            failures.push("directories hold different file sets".to_string());
        }
        if !failures.is_empty() {
            eprintln!("compare check failed: {}", failures.join("; "));
            return ExitCode::from(1);
        }
        println!("compare check passed (bound {bound}%)");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.experiments.first().map(String::as_str) == Some("compare") {
        return run_compare(&args);
    }
    println!(
        "# adaptive-storage-views experiments (backend: {}, scale: {}, seed: {}, threads: {}, \
         align mode: {})",
        args.backend.name(),
        args.scale.name,
        args.seed,
        args.parallelism,
        args.align_mode.name()
    );
    println!(
        "# column sizes: fig3 {} pages, fig4/5 {} pages, fig6 {} pages, fig7 {} pages\n",
        args.scale.fig3_pages, args.scale.fig45_pages, args.scale.fig6_pages, args.scale.fig7_pages
    );
    for exp in &args.experiments {
        match exp.as_str() {
            "fig3" => run_fig3(&args),
            "fig4" => run_fig4(&args),
            "fig5" => run_fig5(&args),
            "fig6" => run_fig6(&args),
            "fig7" => run_fig7(&args),
            "table1" => run_table1(&args),
            "ablation" => run_ablation(&args),
            "scaling" => run_scaling(&args),
            "align-overlap" => run_align_overlap(&args),
            "table-scan" => run_table_scan(&args),
            "filter-kernel" => run_filter_kernel(&args),
            "serve" => run_serve(&args),
            "recover" => run_recover(&args),
            "recover-ingest" => {
                if let Err(msg) = run_recover_ingest(&args) {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            }
            "recover-verify" => match run_recover_verify(&args) {
                Ok(true) => {}
                Ok(false) => return ExitCode::from(1),
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::from(2);
                }
            },
            "all" => {
                run_fig3(&args);
                run_fig4(&args);
                run_fig5(&args);
                run_fig6(&args);
                run_fig7(&args);
                run_table1(&args);
                run_ablation(&args);
                run_scaling(&args);
                run_align_overlap(&args);
                run_table_scan(&args);
                run_filter_kernel(&args);
                run_serve(&args);
                run_recover(&args);
            }
            other => {
                eprintln!("unknown experiment '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}
