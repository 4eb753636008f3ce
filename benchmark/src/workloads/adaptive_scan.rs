//! `adaptive_scan` — the paper's core loop (Fig. 4/5, Table 1).
//!
//! One `AdaptiveColumn` per value distribution (`sine`, then `sparse`),
//! multi-view routing with adaptive creation on; each answers a sequence of
//! range queries (count + sum) whose selectivity is drawn from
//! {0.1, 1, 5, 10} % of the value domain. Views appear as a side-product of
//! early queries and later queries route to them, so `asv_core` routing and
//! creation and `asv_vmem` remaps sit on the query path; `serve` and `wal`
//! do nothing. Read-only, one thread.

use std::time::Instant;

use crate::gen::{Distribution, Range, SplitMix, StreamHash, DOMAIN_MAX};
use crate::machine;
use crate::oracle::{Answer, SortedOracle};
use crate::sut::{self, Backend, ColumnConfig};
use crate::trace;
use crate::workloads::{attempt, Rep, RepEnv, Sizes};

/// Query widths in permille of the value domain.
const SELECTIVITY_PERMILLE: [u64; 4] = [1, 10, 50, 100];

/// Queries of the full-scan baseline sample (`core.speedup_vs_fullscan`).
const FULLSCAN_SAMPLE: usize = 20;

/// View limit of the sparse phase. A sparse view maps up to ~3 000 separate
/// page runs (non-zero pages are scattered one by one), so the limit — not the
/// query count — is what keeps the process below `vm.max_map_count`, the
/// ceiling the paper names for rewiring.
const SPARSE_MAX_VIEWS: usize = 16;

/// The two phases: distribution, the lowest value queries may select
/// (sparse queries stay off the zero pages, which no view can exclude) and
/// the partial-view limit.
fn phases(sizes: &Sizes) -> [(Distribution, u64, usize); 2] {
    [
        // One sine period per 1024 pages: a view holds a few dozen page
        // runs, far below the mapping ceiling even at the full view limit.
        (
            Distribution::Sine {
                cycles: (sizes.scan_pages / 1024).max(2),
            },
            0,
            sizes.adaptive_max_views,
        ),
        (
            Distribution::Sparse { zero_pages_pct: 90 },
            1,
            SPARSE_MAX_VIEWS.min(sizes.adaptive_max_views),
        ),
    ]
}

pub fn values(seed: u64, sizes: &Sizes, phase: usize) -> Vec<u64> {
    phases(sizes)[phase]
        .0
        .generate(sizes.scan_pages, seed ^ (phase as u64 + 1) << 32)
}

/// Fixed seed of the sequence's *shape* (see [`queries`]).
const SHAPE_SEED: u64 = 0x5AAE;

/// The query sequence of one phase. Its shape is the same for every seed:
/// query `i` has a fixed selectivity class (each class exactly a quarter of
/// the sequence) and a fixed stratum of the domain (each of the
/// `adaptive_queries` strata used once), in a fixed shuffled order. The
/// seed places the range inside its stratum. Which views appear, and when,
/// therefore varies a little from seed to seed, not wholesale — seeds
/// sample the same experiment instead of 250-query experiments of their
/// own, whose accumulated time differed by a quarter.
pub fn queries(seed: u64, sizes: &Sizes, phase: usize) -> Vec<Range> {
    let n = sizes.adaptive_queries;
    let min_lo = phases(sizes)[phase].1;
    let mut shape = SplitMix::stream(SHAPE_SEED, phase as u64);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, shape.below(i as u64 + 1) as usize);
    }
    let mut rng = SplitMix::stream(seed, 0xAD00 + phase as u64);
    order
        .into_iter()
        .map(|slot| {
            let permille = SELECTIVITY_PERMILLE[slot % 4];
            let width = (DOMAIN_MAX - min_lo) / 1000 * permille;
            let stratum = (DOMAIN_MAX - min_lo - width) / n as u64;
            let lo = min_lo + slot as u64 * stratum + rng.below(stratum);
            Range {
                lo,
                hi: lo + width - 1,
            }
        })
        .collect()
}

pub fn stream_hash(seed: u64, sizes: &Sizes) -> StreamHash {
    let mut hash = StreamHash::default();
    for phase in 0..2 {
        hash.push_values(&values(seed, sizes, phase));
        for query in queries(seed, sizes, phase) {
            hash.push_range(&query);
        }
    }
    hash
}

pub fn run<B: Backend>(backend: &B, env: &RepEnv<'_>) -> Rep {
    let sizes = env.sizes;
    let mut rep = Rep {
        driver_thread: trace::current_thread(),
        ..Rep::default()
    };
    let (mut live_views, mut map_regions, mut fullscan_ms) = (0, 0, 0.0);
    let mut op_id = 0u64;
    for phase in 0..2 {
        let setup = Instant::now();
        let data = values(env.seed, sizes, phase);
        let config = ColumnConfig {
            max_views: phases(sizes)[phase].2,
            adaptive_creation: true,
        };
        let mut column = sut::column_from_values(backend.clone(), &data, config)
            .expect("set-up: column materialization");
        drop(data);
        let queries = queries(env.seed, sizes, phase);
        rep.setup_s += setup.elapsed().as_secs_f64();
        machine::reset_peak_rss();

        trace::set_enabled(env.traced);
        let timed = Instant::now();
        for query in &queries {
            op_id += 1;
            let _root = trace::root("op.read", op_id);
            let read = attempt(&mut rep.tally, || {
                sut::column_query(&mut column, query, false).map(Answer::Range)
            });
            rep.record_read(read);
        }
        rep.wall_s += timed.elapsed().as_secs_f64();
        trace::set_enabled(false);
        rep.peak_rss_mb = rep.peak_rss_mb.max(machine::peak_rss_mb());

        if env.traced {
            live_views += sut::column_live_views(&column);
            map_regions = map_regions.max(machine::map_regions());
            // The full-scan baseline on a sample of the same queries, after
            // the timed phase.
            for query in queries.iter().take(FULLSCAN_SAMPLE) {
                let started = Instant::now();
                std::hint::black_box(sut::column_full_scan(&column, query));
                fullscan_ms += started.elapsed().as_secs_f64() * 1e3;
            }
        }
    }
    rep.sequence_s = rep.reads_ms.iter().sum::<f64>() / 1e3;
    if env.traced {
        rep.observe("core.views_live_end", live_views as f64);
        rep.observe("vmem.map_regions_end", map_regions as f64);
        // Base: the same column's plain full scan of every query, estimated
        // from the sample's mean.
        let all_full_ms = fullscan_ms / (2 * FULLSCAN_SAMPLE) as f64 * rep.reads_ms.len() as f64;
        rep.observe(
            "core.speedup_vs_fullscan",
            all_full_ms / (rep.sequence_s * 1e3).max(1e-9),
        );
    }
    rep
}

pub fn expected(seed: u64, sizes: &Sizes) -> Vec<Answer> {
    let answer_phase = |phase: usize| -> Vec<Answer> {
        let oracle = SortedOracle::new(values(seed, sizes, phase));
        queries(seed, sizes, phase)
            .iter()
            .map(|q| Answer::Range(oracle.range(q)))
            .collect()
    };
    // Two phases, two cores: the oracle runs outside every timed phase.
    let (mut first, second) = std::thread::scope(|scope| {
        let second = scope.spawn(|| answer_phase(1));
        (answer_phase(0), second.join().expect("oracle thread"))
    });
    first.extend(second);
    first
}
