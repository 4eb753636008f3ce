//! Regenerates the paper's tables and figures as text tables and CSV files.
//!
//! ```text
//! experiments [fig3|fig4|fig5|fig6|fig7|table1|ablation|all]
//!             [--backend sim|mmap|file] [--scale tiny|small|medium|paper]
//!             [--seed N] [--csv-dir DIR] [--store-dir DIR]
//! experiments recover-ingest --journal PATH [--batches N] [...]
//! experiments recover-verify --journal PATH [...]
//! ```
//!
//! The backend defaults to real memory rewiring (`mmap`) on Linux and to
//! the portable simulation (`sim`) everywhere else; `--backend` overrides
//! the choice at runtime. `--backend file` selects the durable file-backed
//! tier, storing under a process-unique temp directory unless
//! `--store-dir` pins one.
//!
//! Results are printed to stdout; with `--csv-dir` the per-figure series are
//! additionally written as CSV files (one per figure). The header line names
//! the backend, the scale and the page-filter build the CPU selected
//! (`kernel: avx2` on any recent x86-64, else `portable`).
//!
//! Timing claims belong to the benchmark of record (`benchmark/`), and
//! exactness to the integration tests; this binary reproduces the paper's
//! figures.
//!
//! The hidden `recover-ingest` / `recover-verify` modes split a journaled
//! ingest across processes for the kill-and-recover integration test:
//! `recover-ingest` journals acknowledged batches at `--journal`,
//! printing a `sealed batch N` marker per commit until `--batches` run
//! out (or SIGKILL arrives first); `recover-verify` recovers the journal,
//! regenerates the sealed batch prefix independently and exits with
//! status 1 if the recovered answers differ from it.

use std::process::ExitCode;

use std::path::PathBuf;

use asv_bench::{
    ablation, fig3, fig4, fig5, fig6, fig7, recover, report, table1, Scale, DEFAULT_SEED,
};
use asv_vmem::{AnyBackend, Backend};

struct Args {
    experiments: Vec<String>,
    backend: AnyBackend,
    scale: Scale,
    seed: u64,
    csv_dir: Option<String>,
    journal: Option<PathBuf>,
    batches: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut experiments = Vec::new();
    let mut backend = AnyBackend::default_backend();
    let mut scale = Scale::default();
    let mut seed = DEFAULT_SEED;
    let mut csv_dir = None;
    let mut journal = None;
    let mut batches = None;
    let mut store_dir: Option<String> = None;
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
            "--help" | "-h" => {
                return Err(
                    "usage: experiments [fig3|fig4|fig5|fig6|fig7|table1|ablation|all] \
                            [--backend sim|mmap|file] [--scale tiny|small|medium|paper] \
                            [--seed N] [--csv-dir DIR] [--store-dir DIR]\n\
                     usage: experiments recover-ingest --journal PATH [--batches N]\n\
                     usage: experiments recover-verify --journal PATH"
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
        journal,
        batches,
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
    let rows = with_concrete_backend!(&args.backend, |b| fig3::run(b, &args.scale, args.seed));
    let table = fig3::to_table(&rows);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "fig3", &table);
}

fn run_fig4(args: &Args) {
    let results =
        with_concrete_backend!(&args.backend, |b| fig4::run_all(b, &args.scale, args.seed));
    for r in &results {
        let table = fig4::to_table(r);
        println!("{}", table.render());
        maybe_write_csv(&args.csv_dir, &format!("fig4_{}", r.distribution), &table);
    }
    println!("{}", fig4::summary_table(&results).render());
}

fn run_fig5(args: &Args) {
    let results =
        with_concrete_backend!(&args.backend, |b| fig5::run_all(b, &args.scale, args.seed));
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
    let rows = with_concrete_backend!(&args.backend, |b| fig6::run(b, &args.scale, args.seed));
    let table = fig6::to_table(&rows);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "fig6", &table);
}

fn run_fig7(args: &Args) {
    let rows = with_concrete_backend!(&args.backend, |b| fig7::run_all(b, &args.scale, args.seed));
    let table = fig7::to_table(&rows);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "fig7", &table);
}

fn run_ablation(args: &Args) {
    let rows = with_concrete_backend!(&args.backend, |b| ablation::run(b, &args.scale, args.seed));
    let table = ablation::to_table(&rows);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "ablation", &table);
}

fn run_table1(args: &Args) {
    let entries = with_concrete_backend!(&args.backend, |b| table1::run(b, &args.scale, args.seed));
    let table = table1::to_table(&entries);
    println!("{}", table.render());
    maybe_write_csv(&args.csv_dir, "table1", &table);
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
/// journal and reports whether its answers match the sealed-prefix
/// reference.
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
    let matches = out.recovered == out.reference;
    if matches {
        println!("recover-verify passed: recovered answers match the sealed-prefix reference");
    } else {
        eprintln!("recover-verify FAILED: recovered answers diverge from the reference");
    }
    Ok(matches)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# adaptive-storage-views experiments (backend: {}, scale: {}, seed: {}, kernel: {})",
        args.backend.name(),
        args.scale.name,
        args.seed,
        asv_storage::simd::selected_variant().name()
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
            }
            other => {
                eprintln!("unknown experiment '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}
