//! `wide_scan` — the bypass for every view and routing optimisation.
//!
//! Uniform values, queries cycling selectivity {25, 50, 75, 90} %, every
//! third one `count_only`, through the same
//! `AdaptiveColumn::query`. Every page qualifies, so candidate views are
//! built and discarded (the wasted-candidate cost) and `asv_storage` kernel
//! throughput *is* the result — including the 90 % cell where the chunked
//! kernels lose. Read-only, one thread.

use std::time::Instant;

use crate::gen::{range_of_width, Distribution, Range, SplitMix, StreamHash, DOMAIN_MAX};
use crate::machine;
use crate::oracle::{Answer, RangeAnswer, SortedOracle};
use crate::sut::{self, Backend, ColumnConfig, VALUES_PER_PAGE};
use crate::trace;
use crate::workloads::{attempt, Rep, RepEnv, Sizes};

const SELECTIVITY_PERMILLE: [u64; 4] = [250, 500, 750, 900];

pub fn values(seed: u64, sizes: &Sizes) -> Vec<u64> {
    Distribution::Uniform.generate(sizes.scan_pages, seed)
}

/// The queries with their count-only flag.
pub fn queries(seed: u64, sizes: &Sizes) -> Vec<(Range, bool)> {
    let mut rng = SplitMix::stream(seed, 0x71DE);
    (0..sizes.wide_queries)
        .map(|i| {
            let range = range_of_width(&mut rng, 0, DOMAIN_MAX, SELECTIVITY_PERMILLE[i % 4]);
            // One query in three is count-only, and three does not divide
            // the selectivity cycle, so each selectivity meets both modes.
            // Not one in two: with two equally likely costs the median
            // read would sit on the edge between them and flip run to run.
            (range, i % 3 == 2)
        })
        .collect()
}

pub fn stream_hash(seed: u64, sizes: &Sizes) -> StreamHash {
    let mut hash = StreamHash::default();
    hash.push_values(&values(seed, sizes));
    for (range, count_only) in queries(seed, sizes) {
        hash.push(count_only as u64);
        hash.push_range(&range);
    }
    hash
}

pub fn run<B: Backend>(backend: &B, env: &RepEnv<'_>) -> Rep {
    let sizes = env.sizes;
    let mut rep = Rep {
        driver_thread: trace::current_thread(),
        ..Rep::default()
    };
    let setup = Instant::now();
    let data = values(env.seed, sizes);
    let config = ColumnConfig {
        max_views: sizes.adaptive_max_views,
        adaptive_creation: true,
    };
    let mut column =
        sut::column_from_values(backend.clone(), &data, config).expect("set-up: column");
    drop(data);
    let queries = queries(env.seed, sizes);
    rep.setup_s = setup.elapsed().as_secs_f64();
    machine::reset_peak_rss();

    trace::set_enabled(env.traced);
    let timed = Instant::now();
    for (i, (range, count_only)) in queries.iter().enumerate() {
        let _root = trace::root("op.read", i as u64 + 1);
        let read = attempt(&mut rep.tally, || {
            sut::column_query(&mut column, range, *count_only).map(Answer::Range)
        });
        rep.record_read(read);
    }
    rep.wall_s = timed.elapsed().as_secs_f64();
    trace::set_enabled(false);
    rep.sequence_s = rep.reads_ms.iter().sum::<f64>() / 1e3;
    rep.values_filtered = (sizes.scan_pages * VALUES_PER_PAGE * queries.len()) as u64;
    rep.peak_rss_mb = machine::peak_rss_mb();
    if env.traced {
        rep.observe(
            "core.views_live_end",
            sut::column_live_views(&column) as f64,
        );
        rep.observe("vmem.map_regions_end", machine::map_regions() as f64);
    }
    rep
}

pub fn expected(seed: u64, sizes: &Sizes) -> Vec<Answer> {
    let oracle = SortedOracle::new(values(seed, sizes));
    queries(seed, sizes)
        .iter()
        .map(|(range, count_only)| {
            let full = oracle.range(range);
            Answer::Range(if *count_only {
                // A count-only query skips the checksum: its sum stays 0.
                RangeAnswer {
                    count: full.count,
                    sum: 0,
                }
            } else {
                full
            })
        })
        .collect()
}
