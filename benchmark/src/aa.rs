//! The A/A self-check: the suite run as two interleaved sets of the same
//! code. Run `r` of every set gets seed `--seed + r` and the sets' runs of
//! one workload follow each other directly, the set that goes first
//! alternating: each pair sees the same inputs — as a parent-versus-change
//! comparison would — and what differs between the sets is the machine
//! alone. Per metric × workload it prints each set's median and quartiles
//! and fails if the sets' medians differ by more than the metric's bound —
//! or, from ten runs a set on (the driver's acceptance test; quartiles of
//! fewer values sit next to the extremes), if a set's own quartiles spread
//! by more than it.

use std::process::{Command, ExitCode};

use crate::metrics::END_TO_END;
use crate::stats::{quartiles, spread};
use crate::workloads::Workload;
use crate::Args;

/// Runs a set from which its spread is held against the bound.
const RUNS_FOR_SPREAD_RULE: usize = 10;

/// The value of metric `name` in a result line (`"name":{"value":X,...`).
/// The harness writes that line itself, so a substring search is enough and
/// no JSON reader is needed.
fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// One run of one workload in a process of its own, exactly as the driver
/// starts it (peak RSS and allocator state do not carry over between runs).
/// Returns every end-to-end metric, in catalogue order.
fn run_in_child(args: &Args, workload: Workload, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    END_TO_END
        .iter()
        .map(|m| metric_value(line, m.name).ok_or(format!("no {} in '{line}'", m.name)))
        .collect()
}

pub fn run(args: &Args) -> ExitCode {
    let workloads = args.selected_workloads();
    // samples[set][workload][metric] = one value per run.
    let mut samples =
        vec![vec![vec![Vec::<f64>::new(); END_TO_END.len()]; workloads.len()]; args.sets];
    let mut failed_runs = 0;
    for run in 0..args.runs {
        let seed = args.seed + run as u64;
        for (w, workload) in workloads.iter().enumerate() {
            // The sets' runs of one workload and seed follow each other
            // directly; which set goes first alternates from run to run.
            let mut order: Vec<usize> = (0..args.sets).collect();
            if run % 2 == 1 {
                order.reverse();
            }
            for set in order {
                match run_in_child(args, *workload, seed) {
                    Ok(values) => {
                        eprintln!(
                            "run {run} set {set} seed {seed} {}: {values:?}",
                            workload.name()
                        );
                        for (m, value) in values.into_iter().enumerate() {
                            samples[set][w][m].push(value);
                        }
                    }
                    Err(message) => {
                        eprintln!("{message}");
                        failed_runs += 1;
                    }
                }
            }
        }
    }

    let mut violations = 0;
    // Per metric: the widest spread of any set and the widest gap between
    // two sets' medians, on any workload.
    let mut widest = vec![(0.0f64, 0.0f64); END_TO_END.len()];
    println!(
        "{:<15} {:<19} {:>4}  q1 / median / q3 (spread) per set; delta between sets",
        "workload", "metric", "set"
    );
    for (w, workload) in workloads.iter().map(|w| w.name()).enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let mut medians = Vec::new();
            for (set, set_samples) in samples.iter().enumerate() {
                let values = &set_samples[w][m];
                let [q1, q2, q3] = quartiles(values);
                let iqr = spread(values);
                // `setup_s` is exempt from the spread rule, as in the driver.
                let wide = iqr > metric.bound && metric.name != "setup_s";
                violations += (wide && args.runs >= RUNS_FOR_SPREAD_RULE) as usize;
                widest[m].0 = widest[m].0.max(iqr);
                println!(
                    "{workload:<15} {:<19} {set:>4}  {q1:.5} / {q2:.5} / {q3:.5} {} ({:.2} %{})",
                    metric.name,
                    metric.unit,
                    iqr * 100.0,
                    if wide { " > bound" } else { "" }
                );
                medians.push(q2);
            }
            let (lo, hi) = medians
                .iter()
                .fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let delta = if lo > 0.0 { hi / lo - 1.0 } else { 0.0 };
            let apart = delta > metric.bound;
            violations += apart as usize;
            widest[m].1 = widest[m].1.max(delta);
            println!(
                "{workload:<15} {:<19}  a/a  medians differ by {:.2} % (bound {:.0} %){}",
                metric.name,
                delta * 100.0,
                metric.bound * 100.0,
                if apart { "  FAIL" } else { "" }
            );
        }
    }
    println!("widest spread and widest gap between sets per metric, over all workloads:");
    for (metric, (iqr, delta)) in END_TO_END.iter().zip(widest) {
        println!(
            "{:<15} spread {:>6.2} % (a third of the bound: {:.2} %)  gap {:>6.2} %  bound {:.0} %",
            metric.name,
            iqr * 100.0,
            metric.bound * 100.0 / 3.0,
            delta * 100.0,
            metric.bound * 100.0
        );
    }
    if failed_runs > 0 || violations > 0 {
        eprintln!("A/A check failed: {violations} bound violations, {failed_runs} failed runs");
        ExitCode::FAILURE
    } else {
        println!("A/A check passed: every end-to-end metric within its bound on every workload");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_come_out_of_the_result_line() {
        let line = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"},"read_p50_ms":{"value":12,"unit":"ms"}}}"#;
        assert_eq!(metric_value(line, "setup_s"), Some(0.25));
        assert_eq!(metric_value(line, "read_p50_ms"), Some(12.0));
        assert_eq!(metric_value(line, "read_p95_ms"), None);
    }
}
