//! `update_align` — the paper's Fig. 7 in the foreground.
//!
//! A uniform `AdaptiveColumn` whose untimed warm-up queries install five
//! partial views, each covering 1/1024 of the value domain (the paper's
//! set-up). Then small batches of uniform point updates (`write_batch` +
//! `align_views`), then large ones, with one range query through a view
//! after every batch. Small batches are dominated by `asv_vmem` (the
//! `/proc/self/maps` parse, remap syscalls), large ones by `asv_core`
//! alignment planning; kernels do little. One thread.

use std::time::Instant;

use crate::gen::{uniform_writes, Distribution, Range, SplitMix, StreamHash, DOMAIN_MAX};
use crate::machine;
use crate::oracle::{self, Answer, Read, Step};
use crate::sut::{self, Backend, ColumnConfig, VALUES_PER_PAGE};
use crate::trace;
use crate::workloads::{attempt, Rep, RepEnv, Sizes};

/// Each view covers this fraction of the value domain (paper §3.4).
const VIEW_FRACTION: u64 = 1024;

pub fn values(seed: u64, sizes: &Sizes) -> Vec<u64> {
    Distribution::Uniform.generate(sizes.align_pages, seed)
}

/// One view range per equal stratum of the domain, so no view subsumes
/// another and the retention policy keeps all of them.
pub fn view_ranges(seed: u64, sizes: &Sizes) -> Vec<Range> {
    let mut rng = SplitMix::stream(seed, 0xA116);
    let width = DOMAIN_MAX / VIEW_FRACTION;
    let stratum = DOMAIN_MAX / sizes.align_views as u64;
    (0..sizes.align_views as u64)
        .map(|i| {
            let lo = i * stratum + rng.below(stratum - width);
            Range {
                lo,
                hi: lo + width - 1,
            }
        })
        .collect()
}

/// The update batches: the small ones, then the large ones.
pub fn batches(seed: u64, sizes: &Sizes) -> Vec<Vec<(usize, u64)>> {
    let rows = sizes.align_pages * VALUES_PER_PAGE;
    let mut rng = SplitMix::stream(seed, 0xBA7C);
    let sizes_of = std::iter::repeat_n(sizes.align_small_batch, sizes.align_small_batches).chain(
        std::iter::repeat_n(sizes.align_large_batch, sizes.align_large_batches),
    );
    sizes_of
        .map(|n| uniform_writes(&mut rng, n, rows, DOMAIN_MAX))
        .collect()
}

pub fn stream_hash(seed: u64, sizes: &Sizes) -> StreamHash {
    let mut hash = StreamHash::default();
    hash.push_values(&values(seed, sizes));
    for view in view_ranges(seed, sizes) {
        hash.push_range(&view);
    }
    for batch in batches(seed, sizes) {
        hash.push_writes(&batch);
    }
    hash
}

pub fn run<B: Backend>(backend: &B, env: &RepEnv<'_>) -> Rep {
    let sizes = env.sizes;
    let mut rep = Rep {
        driver_thread: trace::current_thread(),
        ..Rep::default()
    };
    let views = view_ranges(env.seed, sizes);
    let batches = batches(env.seed, sizes);

    let setup = Instant::now();
    let data = values(env.seed, sizes);
    let config = ColumnConfig {
        max_views: sizes.align_views,
        adaptive_creation: true,
    };
    let mut column =
        sut::column_from_values(backend.clone(), &data, config).expect("set-up: column");
    drop(data);
    // Warm-up: each query leaves its view behind; once the limit is
    // reached the view set is static for the timed phase.
    for view in &views {
        sut::column_query(&mut column, view, false).expect("set-up: warm-up query");
    }
    assert_eq!(
        sut::column_live_views(&column),
        sizes.align_views,
        "set-up: every warm-up query must install its view"
    );
    rep.setup_s = setup.elapsed().as_secs_f64();
    machine::reset_peak_rss();

    let mut large_ms = 0.0;
    trace::set_enabled(env.traced);
    let timed = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let small = i < sizes.align_small_batches;
        {
            let _root = trace::root("op.align", 2 * i as u64 + 1);
            let aligned = attempt(&mut rep.tally, || {
                let updates = sut::column_write_batch(&mut column, batch);
                sut::column_align(&mut column, &updates)
            });
            if let Some((_, ms)) = aligned {
                if small {
                    rep.aligns_ms.push(ms);
                } else {
                    large_ms += ms;
                    rep.writes += batch.len() as u64;
                }
            }
        }
        let _root = trace::root("op.read", 2 * i as u64 + 2);
        let view = &views[i % views.len()];
        let read = attempt(&mut rep.tally, || {
            sut::column_query(&mut column, view, false).map(Answer::Range)
        });
        rep.record_read(read);
    }
    rep.wall_s = timed.elapsed().as_secs_f64();
    trace::set_enabled(false);
    rep.write_wall_s = large_ms / 1e3;
    rep.sequence_s =
        (rep.reads_ms.iter().sum::<f64>() + rep.aligns_ms.iter().sum::<f64>() + large_ms) / 1e3;
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
    let views = view_ranges(seed, sizes);
    let mut steps = Vec::new();
    for (i, writes) in batches(seed, sizes).into_iter().enumerate() {
        steps.push(Step::Write { col: 0, writes });
        steps.push(Step::Read(Read::Range {
            col: 0,
            range: views[i % views.len()],
            count_only: false,
        }));
    }
    oracle::replay(vec![values(seed, sizes)], &steps)
}
