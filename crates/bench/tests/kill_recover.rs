//! Kill-and-recover integration test: a real SIGKILL against a real
//! process, not an injected fault.
//!
//! The test spawns the `experiments` binary in its hidden
//! `recover-ingest` mode, which journals acknowledged write batches and
//! flushes a `sealed batch N` marker after each commit. Once enough
//! markers have streamed out, the child is SIGKILLed mid-run — whatever
//! instant the kernel picks is the crash point. A second invocation in
//! `recover-verify` mode then recovers the journal, regenerates the
//! sealed batch prefix independently from the same seed, and exits with
//! status 1 unless the recovered table answers the probe queries exactly
//! as the regenerated values do.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Markers to wait for before delivering SIGKILL: enough that the kill
/// lands well inside the batch loop, past the column load and the first
/// commits.
const SEALED_BEFORE_KILL: usize = 5;

/// Batch budget of the child — a bound, not a target: the kill arrives
/// after ~[`SEALED_BEFORE_KILL`] batches, and even a never-killed child
/// exits (without a quiesce) rather than running forever.
const BATCH_BUDGET: usize = 20_000;

fn experiments_bin() -> &'static str {
    env!("CARGO_BIN_EXE_experiments")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asv-kill-recover-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Spawns `recover-ingest`, SIGKILLs it after enough sealed markers, and
/// returns how many seals were observed before the kill.
fn ingest_then_kill(journal: &Path, backend_args: &[&str]) -> usize {
    let mut child = Command::new(experiments_bin())
        .args([
            "recover-ingest",
            "--scale",
            "tiny",
            "--seed",
            "42",
            "--journal",
        ])
        .arg(journal)
        .args(["--batches", &BATCH_BUDGET.to_string()])
        .args(backend_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn recover-ingest");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut sealed = 0usize;
    let mut line = String::new();
    while sealed < SEALED_BEFORE_KILL {
        line.clear();
        let n = reader.read_line(&mut line).expect("read ingest marker");
        assert!(
            n > 0,
            "ingest child exited after only {sealed} sealed batches"
        );
        if line.starts_with("sealed batch") {
            sealed += 1;
        }
    }
    // On Unix `kill()` delivers SIGKILL: no atexit hooks, no Drop glue,
    // no final flush — the journal tail is whatever made it to the file.
    child.kill().expect("SIGKILL the ingest child");
    let _ = child.wait();
    sealed
}

fn run_kill_recover(tag: &str, backend_args: &[&str]) {
    let dir = scratch_dir(tag);
    let journal = dir.join("serve.wal");
    let sealed = ingest_then_kill(&journal, backend_args);
    assert!(sealed >= SEALED_BEFORE_KILL);

    let status = Command::new(experiments_bin())
        .args([
            "recover-verify",
            "--scale",
            "tiny",
            "--seed",
            "42",
            "--journal",
        ])
        .arg(&journal)
        .args(backend_args)
        .status()
        .expect("run recover-verify");
    assert!(
        status.success(),
        "recover-verify failed after SIGKILL (exit: {status})"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_ingest_recovers_exactly_on_sim_backend() {
    run_kill_recover("sim", &["--backend", "sim"]);
}

#[cfg(target_os = "linux")]
#[test]
fn sigkill_mid_ingest_recovers_exactly_on_file_backend() {
    // The child's stores and the verifier's rebuilt stores land in one
    // pinned directory so the test can clean up what the SIGKILLed child
    // never will.
    let dir = scratch_dir("file-stores");
    let stores = dir.join("stores");
    run_kill_recover(
        "file",
        &["--backend", "file", "--store-dir", stores.to_str().unwrap()],
    );
    let _ = std::fs::remove_dir_all(&dir);
}
