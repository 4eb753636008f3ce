//! Backend equivalence and robustness tests.
//!
//! The simulation backend exists so that every algorithm of the upper layers
//! can be tested deterministically; that is only sound if it behaves exactly
//! like the mmap backend — and the mapping table every view owns is only
//! sound if it says what the kernel holds. These tests drive the real
//! backends and the simulation through identical random operation sequences
//! and require the view's own table, the `/proc/self/maps` oracle and the
//! simulation's table to agree pair for pair, and additionally fuzz the
//! `/proc/self/maps` parser.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! the randomized tests loop over seeded draws from the workspace's RNG
//! shim — fully deterministic for the hard-coded seeds.

use asv_vmem::{parse_maps_line, Backend, MapRequest, PhysicalStore, SimBackend, ViewBuffer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[cfg(all(feature = "mmap", target_os = "linux"))]
use asv_vmem::{maps::kernel_mapping_tables, FileBackend, MmapBackend, SLOTS_PER_PAGE};

/// The view's table must be compared with the kernel's every this many ops.
#[cfg(all(feature = "mmap", target_os = "linux"))]
const CHECK_EVERY: usize = 5;

/// The scenarios the differential test must have driven at least once.
#[cfg(all(feature = "mmap", target_os = "linux"))]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Scenario {
    Write,
    MultiPageRun,
    RemapMappedSlot,
    PageAtSecondSlot,
    SwapRemove,
    TruncateThenRemap,
    TruncateToLarger,
    RejectedSlotRange,
    RejectedPageRange,
}

#[cfg(all(feature = "mmap", target_os = "linux"))]
fn run(slot: usize, phys_page: usize, len: usize) -> MapRequest {
    MapRequest {
        slot,
        phys_page,
        len,
    }
}

/// The three tables of one step — the real view's own, the kernel's and the
/// simulation's — must agree pair for pair, and know the same pages.
#[cfg(all(feature = "mmap", target_os = "linux"))]
fn check_tables<V: ViewBuffer>(real_view: &V, sim_view: &impl ViewBuffer, at: &str) {
    let owned: Vec<(usize, usize)> = real_view.mapping().iter().collect();
    let kernel = kernel_mapping_tables(&[real_view])
        .unwrap()
        .expect("real views live in kernel virtual memory");
    assert_eq!(owned, kernel[0].iter().collect::<Vec<_>>(), "{at}: kernel");
    assert_eq!(
        owned,
        sim_view.mapping().iter().collect::<Vec<_>>(),
        "{at}: sim"
    );
    assert_eq!(real_view.mapping(), &kernel[0], "{at}");
    assert_eq!(real_view.mapped_pages(), sim_view.mapped_pages(), "{at}");
    for &(_, page) in &owned {
        let slot = real_view
            .mapping()
            .slot_for_phys(page)
            .expect("mapped page");
        assert_eq!(real_view.mapping().phys_for_slot(slot), Some(page), "{at}");
    }
    for page in 0..real_view.capacity_pages() {
        assert_eq!(
            real_view.mapping().contains_phys(page),
            kernel[0].contains_phys(page),
            "{at}: page {page}"
        );
    }
}

/// Drives `real` and the simulation through the same seeded op sequences —
/// every rewiring situation alignment and view creation produce, plus calls
/// the backends must reject — and compares the view's own mapping table
/// with the `/proc/self/maps` oracle and with the simulation's.
#[cfg(all(feature = "mmap", target_os = "linux"))]
fn owned_tables_track_the_kernel<B: Backend>(real: B, seed: u64) {
    let sim = SimBackend::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::BTreeSet::new();
    for case in 0..24 {
        let pages = rng.gen_range(4usize..24);
        let mut sim_store = sim.create_store(pages).unwrap();
        let mut real_store = real.create_store(pages).unwrap();
        let mut sim_view = sim.reserve_view(&sim_store, pages).unwrap();
        let mut real_view = real.reserve_view(&real_store, pages).unwrap();

        for step in 0..rng.gen_range(0usize..48) {
            let at = format!("{} case {case}, step {step}", real.name());
            let mapped = sim_view.mapped_pages();
            let (a, b) = (rng.gen_range(0..pages), rng.gen_range(0..pages));
            // One scenario per step, as (requests, truncate-before-them).
            let (scenario, requests, truncate): (_, Vec<MapRequest>, Option<usize>) = match rng
                .gen_range(0u32..9)
            {
                0 => {
                    let slot = 1 + a % (SLOTS_PER_PAGE - 1);
                    let value = rng.gen_range(0..u64::MAX);
                    sim_store.page_mut(b)[slot] = value;
                    real_store.page_mut(b)[slot] = value;
                    (Scenario::Write, vec![], None)
                }
                1 => {
                    let len = rng.gen_range(2usize..=4).min(pages - a).min(pages - b);
                    (Scenario::MultiPageRun, vec![run(a, b, len)], None)
                }
                2 if mapped > 0 => (Scenario::RemapMappedSlot, vec![run(a % mapped, b, 1)], None),
                3 if mapped > 0 => {
                    // A page some slot maps, mapped at another slot too.
                    let (from, page) = sim_view.mapping().iter().next().unwrap();
                    let to = if a == from { (a + 1) % pages } else { a };
                    (Scenario::PageAtSecondSlot, vec![run(to, page, 1)], None)
                }
                4 if mapped > 0 && sim_view.mapping().phys_for_slot(mapped - 1).is_some() => {
                    // What `apply_plan` replays for a removal: the last
                    // page moves into the hole, then the tail slot goes.
                    let last = mapped - 1;
                    let last_page = sim_view.mapping().phys_for_slot(last).unwrap();
                    let hole = a % mapped;
                    if hole != last {
                        let fill = run(hole, last_page, 1);
                        sim.map_run(&sim_store, &mut sim_view, fill).unwrap();
                        real.map_run(&real_store, &mut real_view, fill).unwrap();
                        // Between the two calls one page sits at two slots.
                        check_tables(&real_view, &sim_view, &at);
                    }
                    (Scenario::SwapRemove, vec![], Some(last))
                }
                5 if mapped > 0 => {
                    let keep = a % mapped;
                    let len = rng.gen_range(1usize..=3).min(pages - keep).min(pages - b);
                    (
                        Scenario::TruncateThenRemap,
                        vec![run(keep, b, len)],
                        Some(keep),
                    )
                }
                6 => (Scenario::TruncateToLarger, vec![], Some(mapped + a)),
                7 => (
                    Scenario::RejectedSlotRange,
                    vec![run(pages - a % 2, b, 1 + a % 2 + a % 3)],
                    None,
                ),
                8 => (
                    Scenario::RejectedPageRange,
                    vec![run(a, pages - b % 2, 1 + b % 2 + b % 3)],
                    None,
                ),
                _ => continue,
            };
            seen.insert(scenario);
            if let Some(new_mapped) = truncate {
                sim.truncate_view(&mut sim_view, new_mapped).unwrap();
                real.truncate_view(&mut real_view, new_mapped).unwrap();
                if scenario == Scenario::TruncateToLarger {
                    assert_eq!(real_view.mapped_pages(), mapped, "{at}: no-op");
                }
            }
            let rejected = matches!(
                scenario,
                Scenario::RejectedSlotRange | Scenario::RejectedPageRange
            );
            for req in requests {
                let before = real_view.mapping().clone();
                let ok_sim = sim.map_run(&sim_store, &mut sim_view, req).is_ok();
                let ok_real = real.map_run(&real_store, &mut real_view, req).is_ok();
                assert_eq!(ok_sim, ok_real, "{at}: acceptance differs for {req:?}");
                assert_eq!(ok_real, !rejected, "{at}: {req:?}");
                if rejected {
                    assert_eq!(real_view.mapping(), &before, "{at}: table moved");
                    check_tables(&real_view, &sim_view, &at);
                }
            }
            if step % CHECK_EVERY == CHECK_EVERY - 1 {
                check_tables(&real_view, &sim_view, &at);
            }
        }

        check_tables(
            &real_view,
            &sim_view,
            &format!("{} case {case}", real.name()),
        );
        for p in 0..pages {
            assert_eq!(sim_store.page(p), real_store.page(p), "page {p} differs");
        }
        // Every mapped slot shows the same data on both sides.
        for (slot, _) in sim_view.mapping().iter() {
            assert_eq!(sim_view.page(slot), real_view.page(slot), "slot {slot}");
        }
    }
    assert_eq!(seen.len(), 9, "scenarios driven: {seen:?}");
}

#[cfg(all(feature = "mmap", target_os = "linux"))]
#[test]
fn mmap_views_own_the_table_the_kernel_holds() {
    owned_tables_track_the_kernel(MmapBackend::new(), 0xE01);
}

#[cfg(all(feature = "mmap", target_os = "linux"))]
#[test]
fn file_views_own_the_table_the_kernel_holds() {
    let backend = FileBackend::temp();
    let dir = backend.dir().to_path_buf();
    owned_tables_track_the_kernel(backend, 0xE04);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn maps_parser_never_panics_on_arbitrary_lines() {
    // Must never panic; errors are fine. Draw lines from a character pool
    // heavy on the delimiters the parser splits on.
    const POOL: &[char] = &[
        'a', 'f', 'z', '0', '7', '9', '-', ':', ' ', '\t', '/', '(', ')', '.', 'ـ', 'é', '🦀', 'x',
        'p', 's', 'w', 'r',
    ];
    let mut rng = StdRng::seed_from_u64(0xE02);
    for _ in 0..500 {
        let len = rng.gen_range(0usize..120);
        let line: String = (0..len)
            .map(|_| POOL[rng.gen_range(0usize..POOL.len())])
            .collect();
        let _ = parse_maps_line(&line);
    }
}

#[test]
fn maps_parser_roundtrips_wellformed_lines() {
    let mut rng = StdRng::seed_from_u64(0xE03);
    for _ in 0..200 {
        let start = rng.gen_range(0usize..0x7fff_ffff);
        let len = rng.gen_range(1usize..0xffff);
        let offset_pages = rng.gen_range(0u64..0xffff);
        let inode = rng.gen_range(0u64..1_000_000);
        let shared = rng.gen_bool(0.5);

        let end = start + len * 4096;
        let perms = if shared { "rw-s" } else { "rw-p" };
        let line = format!(
            "{start:x}-{end:x} {perms} {:08x} 00:01 {inode} /memfd:asv (deleted)",
            offset_pages * 4096
        );
        let entry = parse_maps_line(&line).unwrap();
        assert_eq!(entry.start, start);
        assert_eq!(entry.end, end);
        assert_eq!(entry.offset, offset_pages * 4096);
        assert_eq!(entry.inode, inode);
        assert_eq!(entry.is_shared_file_mapping(), shared && inode != 0);
    }
}

#[test]
fn writes_after_remapping_are_visible_through_both_backends() {
    // Regression-style scenario: map, write, remap elsewhere, write again.
    fn for_each_backend<B: Backend>(backend: &B) {
        let mut store = backend.create_store(4).unwrap();
        let mut view = backend.reserve_view(&store, 4).unwrap();
        backend
            .map_run(&store, &mut view, MapRequest::single(0, 1))
            .unwrap();
        store.page_mut(1)[5] = 111;
        assert_eq!(view.page(0)[5], 111);
        backend
            .map_run(&store, &mut view, MapRequest::single(0, 2))
            .unwrap();
        store.page_mut(2)[5] = 222;
        assert_eq!(view.page(0)[5], 222);
        // The old physical page keeps its data.
        assert_eq!(store.page(1)[5], 111);
    }

    for_each_backend(&SimBackend::new());
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    for_each_backend(&MmapBackend::new());
}

#[test]
fn many_small_views_over_one_store() {
    // A store can back many simultaneously live views (the whole point of
    // the design); exercise a fan-out of 64 views on both backends.
    fn run<B: Backend>(backend: &B) {
        let mut store = backend.create_store(64).unwrap();
        for p in 0..64 {
            store.page_mut(p)[0] = p as u64;
        }
        let mut views = Vec::new();
        for i in 0..64usize {
            let mut v = backend.reserve_view(&store, 64).unwrap();
            backend
                .map_run(&store, &mut v, MapRequest::single(0, i))
                .unwrap();
            views.push(v);
        }
        for (i, v) in views.iter().enumerate() {
            assert_eq!(v.page(0)[0], i as u64);
        }
    }
    run(&SimBackend::new());
    #[cfg(all(feature = "mmap", target_os = "linux"))]
    run(&MmapBackend::new());
}
