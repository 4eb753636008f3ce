//! `serve_mixed` — reads beside writes on the serving layer.
//!
//! A two-column `ServeTable` (the working set that fits) with installed
//! views, driven through barrier-phased rounds: the maintenance thread
//! commits a zipfian write burst (`write_batch` per column + `tick`), then
//! one reader thread answers the round's reads (pin + query each; 80 %
//! range at 1–10 % selectivity, 20 % two-predicate conjunctive) while
//! maintenance keeps ticking — fold, align, publish. Overlay and
//! exclusion-mask kernels, epoch pin/publish, grace-gated folds and
//! incremental alignment all run concurrently; `wal` does nothing. Answer
//! invariance within a round keeps every read oracle-checkable. Two
//! threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::gen::{zipfian_writes, Distribution, Range, SplitMix, StreamHash, Zipf};
use crate::machine;
use crate::oracle::{self, Answer, Read, Step};
use crate::sut::{self, Backend, ServeTable, VALUES_PER_PAGE};
use crate::trace;
use crate::workloads::{attempt, Rep, RepEnv, Sizes};

const COLUMNS: usize = 2;
const ZIPF_EXPONENT: f64 = 1.05;
const ZIPF_RANKS: usize = 65_536;
/// Pause of the maintenance loop after a tick that published nothing.
const IDLE_TICK_PAUSE: std::time::Duration = std::time::Duration::from_micros(20);

fn distribution(col: usize) -> Distribution {
    Distribution::Clustered { reversed: col == 1 }
}

fn domain(sizes: &Sizes) -> u64 {
    distribution(0).max_value(sizes.serve_pages)
}

pub fn values(sizes: &Sizes, col: usize) -> Vec<u64> {
    // Clustered columns are the same for every seed; the seed drives the
    // writes and the reads.
    distribution(col).generate(sizes.serve_pages, 0)
}

/// Adjacent bands tiling the domain: a read narrower than a band is routed
/// to one view when it falls inside it and to the full view when it
/// straddles two, so both read paths stay in the mix.
pub fn view_ranges(sizes: &Sizes) -> Vec<Range> {
    let stride = domain(sizes) / sizes.serve_views as u64;
    (0..sizes.serve_views as u64)
        .map(|i| Range {
            lo: i * stride,
            hi: (i + 1) * stride - 1,
        })
        .collect()
}

/// One round: the burst per column, then the reads.
pub struct Round {
    pub writes: [Vec<(usize, u64)>; COLUMNS],
    pub reads: Vec<Read>,
}

pub fn rounds(seed: u64, sizes: &Sizes) -> Vec<Round> {
    let rows = sizes.serve_pages * VALUES_PER_PAGE;
    let domain = domain(sizes);
    let zipf = Zipf::new(ZIPF_RANKS.min(rows), ZIPF_EXPONENT);
    let mut rng = SplitMix::stream(seed, 0x5E17);
    let hot_base = rng.below(rows as u64);
    let width = |rng: &mut SplitMix| domain / 1000 * rng.in_range(10, 100);
    let band = domain / sizes.serve_views as u64;
    (0..sizes.serve_rounds)
        .map(|_| {
            let per_col = sizes.serve_writes_per_round / COLUMNS;
            let writes =
                [0, 1].map(|_| zipfian_writes(&mut rng, &zipf, per_col, rows, domain, hot_base));
            let reads = (0..sizes.serve_reads_per_round)
                .map(|i| {
                    let w = width(&mut rng);
                    // Of the range reads, three in four fall inside one view
                    // band and one straddles two (a full-view scan), by
                    // position in the round: the cheap reads are a fixed
                    // majority, so the median read sits inside their mode.
                    let lo = if i % 5 != 4 && i % 4 != 3 {
                        rng.below(sizes.serve_views as u64) * band + rng.below(band - w)
                    } else {
                        rng.in_range(1, sizes.serve_views as u64 - 1) * band - w / 2
                    };
                    if i % 5 == 4 {
                        // Column 1 is column 0 reversed: mirror the range so
                        // the two predicates select overlapping rows.
                        let w1 = width(&mut rng);
                        let centre = domain - (lo + w / 2);
                        let lo1 = centre.saturating_sub(w1 / 2).min(domain - w1);
                        Read::Conjunctive {
                            predicates: vec![
                                (0, Range { lo, hi: lo + w }),
                                (
                                    1,
                                    Range {
                                        lo: lo1,
                                        hi: lo1 + w1,
                                    },
                                ),
                            ],
                        }
                    } else {
                        Read::Range {
                            col: i % COLUMNS,
                            range: Range { lo, hi: lo + w },
                            count_only: false,
                        }
                    }
                })
                .collect();
            Round { writes, reads }
        })
        .collect()
}

pub fn stream_hash(seed: u64, sizes: &Sizes) -> StreamHash {
    let mut hash = StreamHash::default();
    for round in rounds(seed, sizes) {
        for writes in &round.writes {
            hash.push_writes(writes);
        }
        for read in &round.reads {
            read.hash_into(&mut hash);
        }
    }
    hash
}

fn build_table<B: Backend>(backend: &B, sizes: &Sizes) -> ServeTable<B> {
    let mut table = sut::table_new(backend.clone());
    for col in 0..COLUMNS {
        sut::table_add_column(&mut table, &values(sizes, col)).expect("set-up: column");
        for view in view_ranges(sizes) {
            sut::table_install_view(&mut table, col, &view).expect("set-up: view");
        }
    }
    table
}

pub fn run<B: Backend>(backend: &B, env: &RepEnv<'_>) -> Rep {
    let sizes = env.sizes;
    let mut rep = Rep {
        driver_thread: trace::current_thread(),
        ..Rep::default()
    };
    let rounds = rounds(env.seed, sizes);

    let setup = Instant::now();
    let mut table = build_table(backend, sizes);
    let handle = sut::table_handle(&table);
    rep.setup_s = setup.elapsed().as_secs_f64();
    machine::reset_peak_rss();

    let generation_start = sut::table_generation(&table);
    // Rounds committed and opened for reading / rounds the reader finished.
    let round_ready = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let mut fold_lags_ms = Vec::new();
    let (mut queued_max, mut live_epochs_max, mut tick_failures) = (0usize, 0usize, 0u64);

    trace::set_enabled(env.traced);
    let timed = Instant::now();
    let reader_out = std::thread::scope(|scope| {
        let (round_ready, finished, rounds) = (&round_ready, &finished, &rounds);
        let reader = scope.spawn(move || {
            // The reader fills the read figures of a repetition record of
            // its own; the maintenance thread merges them in afterwards.
            let mut out = Rep::default();
            for (k, round) in rounds.iter().enumerate() {
                while round_ready.load(Ordering::Acquire) <= k {
                    std::thread::yield_now();
                }
                for (i, read) in round.reads.iter().enumerate() {
                    let _root = trace::root("op.read", (k as u64 + 1) << 16 | (i as u64 + 1));
                    let answered = attempt(&mut out.tally, || {
                        let snapshot = sut::pin(&handle);
                        Ok(sut::snapshot_answer(&snapshot, read))
                    });
                    out.record_read(answered);
                }
                finished.store(k + 1, Ordering::Release);
            }
            trace::flush_thread();
            out
        });

        // The maintenance thread: commit the burst, open the round, keep
        // folding and aligning until the reader has answered it.
        let mut pending_since: Option<Instant> = None;
        for (k, round) in rounds.iter().enumerate() {
            {
                let _root = trace::root("op.commit", (k as u64 + 1) << 16);
                let committed = attempt(&mut rep.tally, || {
                    for (col, writes) in round.writes.iter().enumerate() {
                        sut::table_write_batch(&mut table, col, writes)?;
                    }
                    sut::table_tick(&mut table)
                });
                if let Some((_, ms)) = committed {
                    rep.commits_ms.push(ms);
                    rep.writes += round.writes.iter().map(Vec::len).sum::<usize>() as u64;
                }
            }
            let _ = pending_since.get_or_insert_with(Instant::now);
            queued_max = queued_max.max(sut::table_queued_writes(&table, COLUMNS));
            if env.traced {
                live_epochs_max = live_epochs_max.max(sut::table_live_epochs(&mut table));
            }
            round_ready.store(k + 1, Ordering::Release);

            let _root = trace::root("op.maintain", (k as u64 + 1) << 16 | 0xFFFF);
            while finished.load(Ordering::Acquire) <= k {
                if sut::table_work_pending(&table, COLUMNS) {
                    let before = sut::table_generation(&table);
                    if sut::table_tick(&mut table).is_err() {
                        tick_failures += 1;
                    }
                    if sut::table_generation(&table) == before {
                        // Nothing to publish yet (planner busy or a reader
                        // still pins an old epoch): leave it the core.
                        std::thread::sleep(IDLE_TICK_PAUSE);
                    }
                } else {
                    if let Some(since) = pending_since.take() {
                        fold_lags_ms.push(since.elapsed().as_secs_f64() * 1e3);
                    }
                    std::thread::yield_now();
                }
            }
        }
        reader.join().expect("reader thread")
    });
    rep.wall_s = timed.elapsed().as_secs_f64();
    trace::set_enabled(false);
    rep.write_wall_s = rep.wall_s;
    rep.peak_rss_mb = machine::peak_rss_mb();

    rep.tally.absorb(reader_out.tally);
    rep.tally.attempted += tick_failures;
    rep.tally.failed += tick_failures;
    rep.reads_ms = reader_out.reads_ms;
    rep.answers = reader_out.answers;
    rep.sequence_s = (rep.reads_ms.iter().sum::<f64>() + rep.commits_ms.iter().sum::<f64>()) / 1e3;

    // Drain what the rounds left queued, outside the timed phase.
    let quiesce = Instant::now();
    sut::table_quiesce(&mut table).expect("quiesce after the timed phase");
    if env.traced {
        rep.observe("serve.quiesce_ms", quiesce.elapsed().as_secs_f64() * 1e3);
        rep.observe(
            "serve.epochs_published",
            (sut::table_generation(&table) - generation_start) as f64,
        );
        rep.observe("serve.queued_writes_max", queued_max as f64);
        rep.observe("serve.live_epochs_max", live_epochs_max as f64);
        rep.observe("serve.fold_lag_ms_p50", crate::stats::median(&fold_lags_ms));
        let (planned, candidates) = sut::table_align_activity(&table);
        rep.observe("serve.align_planned_views", planned as f64);
        rep.observe("serve.align_candidate_views", candidates as f64);
        let publish_us = sut::table_publish_micros(&mut table);
        rep.observe("serve.publish_us_p50", crate::stats::median(&publish_us));
        rep.observe(
            "serve.publish_us_p99",
            crate::stats::percentile(&publish_us, 99.0).unwrap_or(0.0),
        );
        rep.observe("vmem.map_regions_end", machine::map_regions() as f64);
    }
    rep
}

pub fn expected(seed: u64, sizes: &Sizes) -> Vec<Answer> {
    let mut steps = Vec::new();
    for round in rounds(seed, sizes) {
        for (col, writes) in round.writes.into_iter().enumerate() {
            steps.push(Step::Write { col, writes });
        }
        steps.extend(round.reads.into_iter().map(Step::Read));
    }
    oracle::replay((0..COLUMNS).map(|col| values(sizes, col)).collect(), &steps)
}
