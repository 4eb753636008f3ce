//! The benchmark of record of adaptive-storage-views.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--smoke]
//! benchmark suite [--workload W]... [--seed N] [--seconds S] [--traced-only] [--out DIR] [--smoke]
//! benchmark aa [--sets 2] [--runs 5] [--seed N] [--seconds S] [--out DIR] [--smoke]
//! benchmark manifest
//! ```
//!
//! The first form is the driver's: one workload, one JSON object as the
//! last line of standard output. See `README.md` beside this package.

mod aa;
mod gen;
mod json;
mod machine;
mod metrics;
mod oracle;
mod probes;
mod report;
mod runner;
mod stats;
mod sut;
mod trace;
mod traced_backend;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use runner::RunConfig;
use workloads::{Sizes, Workload};

/// Default `--out`, relative to the repo root the command runs from.
const DEFAULT_OUT: &str = "benchmark/out";

pub struct Args {
    pub command: String,
    /// The `--workload` selections, in order; empty selects all five.
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub traced_only: bool,
    pub out: PathBuf,
    pub smoke: bool,
    pub sets: usize,
    pub runs: usize,
}

impl Args {
    /// The workloads this invocation is about.
    pub fn selected_workloads(&self) -> Vec<Workload> {
        if self.workloads.is_empty() {
            Workload::ALL.to_vec()
        } else {
            self.workloads.clone()
        }
    }
}

fn usage() -> String {
    format!(
        "usage: benchmark [suite|aa|manifest] [--workload {}] [--seed N] [--seconds S] \
         [--trace 0|1] [--traced-only] [--sets N] [--runs N] [--out DIR] [--smoke]",
        Workload::ALL.map(Workload::name).join("|")
    )
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workloads: Vec::new(),
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        traced_only: false,
        out: PathBuf::from(DEFAULT_OUT),
        smoke: false,
        sets: 2,
        runs: 5,
    };
    let mut seconds_given = false;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str, text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{flag}: '{text}' is not a non-negative number"))
        };
        match arg.as_str() {
            "suite" | "aa" | "manifest" => args.command = arg.clone(),
            "--workload" => {
                let name = value("--workload")?;
                let workload =
                    Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?;
                args.workloads.push(workload);
            }
            "--seed" => {
                let text = value("--seed")?;
                args.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: '{text}' is not a whole number"))?;
            }
            "--seconds" => {
                args.seconds = number("--seconds", value("--seconds")?)?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--sets" => args.sets = number("--sets", value("--sets")?)? as usize,
            "--runs" => args.runs = number("--runs", value("--runs")?)? as usize,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--traced-only" => args.traced_only = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.smoke && !seconds_given {
        // Smoke runs are for CI: one second per workload unless told otherwise.
        args.seconds = 1.0;
    }
    Ok(args)
}

fn sizes_of(args: &Args) -> &'static Sizes {
    if args.smoke {
        &Sizes::SMOKE
    } else {
        &Sizes::FULL
    }
}

/// The driver's form: one workload, the contract's JSON as the last line.
fn run_one(args: &Args) -> ExitCode {
    let &[workload] = args.workloads.as_slice() else {
        eprintln!("exactly one --workload is needed\n{}", usage());
        return ExitCode::from(2);
    };
    // A traced run splits its seconds: half untraced (the base of the trace
    // overhead and of the workload-specific figures), then the traced
    // repetition and the probes.
    let outcome = runner::run(&RunConfig {
        workload,
        seed: args.seed,
        untraced_seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        // An untraced run waits until its sample supports the gated tails.
        min_reps: if args.trace {
            1
        } else {
            workload.min_reps(sizes_of(args))
        },
        traced: args.trace,
        out_dir: &args.out,
        sizes: sizes_of(args),
    });
    report::print_outcome(&outcome);
    // The result of an untraced run is every gated metric: one it could
    // not measure makes the run incorrect.
    let missing = if args.trace {
        Vec::new()
    } else {
        report::missing_end_to_end(&outcome)
    };
    for name in &missing {
        eprintln!("{name}: not measured");
    }
    let correct = outcome.correct() && missing.is_empty();
    println!(
        "{}",
        report::contract_line(&outcome, args.trace, correct).compact()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `suite --workload W`: the untraced run, then the traced run, of one
/// workload; prints every metric and leaves `<out>/W.result.json` and
/// `<out>/W.trace.jsonl`.
fn run_suite_workload(args: &Args, workload: Workload) -> ExitCode {
    let outcome = runner::run(&RunConfig {
        workload,
        seed: args.seed,
        untraced_seconds: if args.traced_only { 0.0 } else { args.seconds },
        min_reps: if args.traced_only {
            1
        } else {
            workload.min_reps(sizes_of(args))
        },
        traced: true,
        out_dir: &args.out,
        sizes: sizes_of(args),
    });
    report::print_outcome(&outcome);
    let entry = report::workload_json(args, sizes_of(args), &outcome);
    std::fs::write(result_file(args, workload), format!("{}\n", entry.pretty()))
        .expect("result file under --out");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: {} ops failed", workload.name(), outcome.tally.failed);
        ExitCode::FAILURE
    }
}

fn result_file(args: &Args, workload: Workload) -> PathBuf {
    args.out.join(format!("{}.result.json", workload.name()))
}

/// The whole suite: each workload in a process of its own, as the driver
/// runs them (peak RSS and allocator state do not carry over), then
/// `results.json` assembled from the per-workload files under the machine
/// fingerprint.
fn run_suite(args: &Args, raw: &[String]) -> ExitCode {
    if let &[workload] = args.workloads.as_slice() {
        return run_suite_workload(args, workload);
    }
    let exe = std::env::current_exe().expect("path of this executable");
    // The child gets this invocation's flags minus its workload selection.
    let mut flags = Vec::new();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => drop(it.next()),
            other => flags.push(other),
        }
    }
    let mut failed = Vec::new();
    let mut entries = Vec::new();
    for workload in args.selected_workloads() {
        let status = std::process::Command::new(&exe)
            .args(&flags)
            .args(["--workload", workload.name()])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(workload.name());
        }
        if let Ok(text) = std::fs::read_to_string(result_file(args, workload)) {
            entries.push(json::Json::Raw(text));
        }
    }
    let results = report::results_json(args, sizes_of(args), entries);
    let path = args.out.join("results.json");
    std::fs::write(&path, format!("{}\n", results.pretty())).expect("results.json under --out");
    println!("results: {}", path.display());
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "manifest" => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        "suite" => run_suite(&args, &raw),
        "aa" => aa::run(&args),
        _ => run_one(&args),
    }
}
