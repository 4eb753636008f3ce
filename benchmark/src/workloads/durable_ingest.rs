//! `durable_ingest` — the write-ahead journal and the file backend.
//!
//! A durable `ServeTable` on the `file` backend, one fsync per commit
//! (stated, fixed), store and journal on disk under `--out`. Batches of
//! uniform writes (`write_batch` + `tick` each), a verifying range read
//! every few batches; then the table is dropped **without** `quiesce` (the
//! in-process stand-in for a kill) and `ServeTable::recover` rebuilds it
//! from the journal alone, several times from the same journal bytes.
//! Every sealed batch must be readable afterwards. Write-heavy, `wal`- and
//! `FileBackend`-dominated: the only workload where journal group-append or
//! a cheaper record format can show. One thread.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::gen::{range_of_width, uniform_writes, Distribution, Range, SplitMix, StreamHash};
use crate::machine;
use crate::oracle::{self, Answer, Read, Step};
use crate::sut::{self, Backend, ServeTable, TableHandle, VALUES_PER_PAGE};
use crate::trace;
use crate::workloads::{attempt, Rep, RepEnv, Sizes};

/// Range reads answered on the recovered table: the whole column plus
/// seeded ranges, so every sealed write is covered by at least one.
const RECOVERY_PROBES: usize = 8;

fn distribution() -> Distribution {
    Distribution::Clustered { reversed: false }
}

fn domain(sizes: &Sizes) -> u64 {
    distribution().max_value(sizes.durable_pages)
}

pub fn values(sizes: &Sizes) -> Vec<u64> {
    distribution().generate(sizes.durable_pages, 0)
}

pub struct Inputs {
    pub batches: Vec<Vec<(usize, u64)>>,
    /// The verifying read after batch `i` (every `durable_read_every`-th).
    pub reads: Vec<Option<Read>>,
    pub probes: Vec<Read>,
}

pub fn inputs(seed: u64, sizes: &Sizes) -> Inputs {
    let rows = sizes.durable_pages * VALUES_PER_PAGE;
    let domain = domain(sizes);
    let mut rng = SplitMix::stream(seed, 0xD0AB);
    let range_read = |range: Range| Read::Range {
        col: 0,
        range,
        count_only: false,
    };
    let batches = (0..sizes.durable_batches)
        .map(|_| uniform_writes(&mut rng, sizes.durable_batch, rows, domain))
        .collect();
    let reads = (0..sizes.durable_batches)
        .map(|i| {
            ((i + 1) % sizes.durable_read_every == 0)
                .then(|| range_read(range_of_width(&mut rng, 0, domain, 50)))
        })
        .collect();
    let mut probes = vec![range_read(Range {
        lo: 0,
        hi: u64::MAX,
    })];
    probes
        .extend((1..RECOVERY_PROBES).map(|_| range_read(range_of_width(&mut rng, 0, domain, 200))));
    Inputs {
        batches,
        reads,
        probes,
    }
}

pub fn stream_hash(seed: u64, sizes: &Sizes) -> StreamHash {
    let inputs = inputs(seed, sizes);
    let mut hash = StreamHash::default();
    for batch in &inputs.batches {
        hash.push_writes(batch);
    }
    for read in inputs.reads.iter().flatten().chain(&inputs.probes) {
        read.hash_into(&mut hash);
    }
    hash
}

fn answer_read<B: Backend>(handle: &TableHandle<B>, read: &Read) -> Answer {
    sut::snapshot_answer(&sut::pin(handle), read)
}

/// The pre-crash journal bytes, kept beside the live journal.
pub const SEALED_JOURNAL: &str = "journal.sealed";

/// Journal and store directory of this workload under `--out`.
pub fn work_dir(out_dir: &Path) -> PathBuf {
    out_dir.join("durable_ingest.work")
}

/// Loads the column: the part of set-up shared by the durable table and its
/// in-memory twin. No view is installed — with none to align, folds cost no
/// `/proc/self/maps` parse and the journal is what the workload measures.
fn load<B: Backend>(table: &mut ServeTable<B>, sizes: &Sizes) -> TableHandle<B> {
    let data = values(sizes);
    sut::table_add_column(table, &data).expect("set-up: column");
    drop(data);
    sut::table_handle(table)
}

/// The timed ingest: every batch committed, some followed by a
/// verifying read (every `durable_read_every`-th batch). Fills the commit/read figures of `rep`.
fn ingest<B: Backend>(
    table: &mut ServeTable<B>,
    handle: &TableHandle<B>,
    inputs: &Inputs,
    rep: &mut Rep,
) {
    let mut op_id = 0u64;
    let timed = Instant::now();
    for (batch, read) in inputs.batches.iter().zip(&inputs.reads) {
        op_id += 1;
        {
            let _root = trace::root("op.commit", op_id);
            let committed = attempt(&mut rep.tally, || {
                sut::table_write_batch(table, 0, batch)?;
                sut::table_tick(table)
            });
            if let Some((_, ms)) = committed {
                rep.commits_ms.push(ms);
                rep.writes += batch.len() as u64;
            }
        }
        if let Some(read) = read {
            op_id += 1;
            let _root = trace::root("op.read", op_id);
            let answered = attempt(&mut rep.tally, || Ok(answer_read(handle, read)));
            rep.record_read(answered);
        }
    }
    rep.write_wall_s = timed.elapsed().as_secs_f64();
}

/// Wall time of the same ingest on an in-memory table of the same backend:
/// the base of `wal.overhead_pct`.
pub fn twin_ingest_s<B: Backend>(backend: &B, env: &RepEnv<'_>) -> f64 {
    let inputs = inputs(env.seed, env.sizes);
    let mut table = sut::table_new(backend.clone());
    let handle = load(&mut table, env.sizes);
    let mut scratch = Rep::default();
    ingest(&mut table, &handle, &inputs, &mut scratch);
    scratch.write_wall_s
}

pub fn run<B: Backend>(backend: &B, env: &RepEnv<'_>) -> Rep {
    let sizes = env.sizes;
    let mut rep = Rep {
        driver_thread: trace::current_thread(),
        ..Rep::default()
    };
    let inputs = inputs(env.seed, sizes);
    let dir = work_dir(env.out_dir);
    let journal = dir.join("journal.wal");
    let sealed_copy = dir.join(SEALED_JOURNAL);

    // Stores and journals of earlier repetitions stay on disk by design
    // (that is the backend's durability contract); start from nothing.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work directory under --out");

    let setup = Instant::now();
    let mut table = sut::table_durable(backend.clone(), &journal).expect("set-up: journal");
    let handle = load(&mut table, sizes);
    rep.setup_s = setup.elapsed().as_secs_f64();
    machine::reset_peak_rss();

    trace::set_enabled(env.traced);
    ingest(&mut table, &handle, &inputs, &mut rep);
    if env.traced {
        rep.observe(
            "serve.epochs_published",
            sut::table_generation(&table) as f64,
        );
        rep.observe("vmem.map_regions_end", machine::map_regions() as f64);
    }

    // The kill: no quiesce, so the journal ends in whatever the last commit
    // sealed and recovery takes the non-checkpoint path.
    drop(table);
    rep.journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    // Recovery compacts the journal it replays; every recovery gets the
    // same pre-crash bytes back first (the copy is not timed).
    std::fs::copy(&journal, &sealed_copy).expect("copy of the sealed journal");
    let mut recovered = None;
    for i in 0..sizes.durable_recoveries {
        drop(recovered.take());
        std::fs::copy(&sealed_copy, &journal).expect("restore of the sealed journal");
        let _root = trace::root("op.recover", (1 << 32) + i as u64);
        if let Some(((table, info), ms)) = attempt(&mut rep.tally, || {
            sut::table_recover(backend.clone(), &journal)
        }) {
            rep.recovers_s.push(ms / 1e3);
            if info.batches_applied != inputs.batches.len() {
                // A committed (fsynced) batch that recovery lost.
                eprintln!(
                    "recovery replayed {} of {} sealed batches",
                    info.batches_applied,
                    inputs.batches.len()
                );
                rep.tally.failed += 1;
            }
            recovered = Some(table);
        }
    }
    trace::set_enabled(false);
    // Ingest plus recoveries; the journal copies in between are not timed.
    rep.wall_s = rep.write_wall_s + rep.recovers_s.iter().sum::<f64>();
    rep.peak_rss_mb = machine::peak_rss_mb();

    // Every sealed batch is readable: the recovered table answers the probe
    // set, checked against the oracle of the sealed prefix (all batches).
    for probe in &inputs.probes {
        rep.tally.attempted += 1;
        match &recovered {
            Some(table) => rep
                .answers
                .push(Some(answer_read(&sut::table_handle(table), probe))),
            None => {
                rep.tally.failed += 1;
                rep.answers.push(None);
            }
        }
    }
    rep.sequence_s = (rep.commits_ms.iter().sum::<f64>() + rep.reads_ms.iter().sum::<f64>()) / 1e3
        + rep.recovers_s.iter().sum::<f64>();
    rep
}

pub fn expected(seed: u64, sizes: &Sizes) -> Vec<Answer> {
    let inputs = inputs(seed, sizes);
    let mut steps = Vec::new();
    for (writes, read) in inputs.batches.into_iter().zip(inputs.reads) {
        steps.push(Step::Write { col: 0, writes });
        steps.extend(read.map(Step::Read));
    }
    steps.extend(inputs.probes.into_iter().map(Step::Read));
    oracle::replay(vec![values(sizes)], &steps)
}
