//! Property-based tests for the utility data structures.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these run randomized cases from the workspace's seeded RNG shim: each
//! test draws a few hundred random inputs, checks the invariant against a
//! std-collection reference model, and is fully deterministic for the
//! hard-coded seed.

use asv_util::{group_into_runs, BitVec, RunBuilder, ValueRange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const CASES: usize = 200;

// ---------------------------------------------------------------- BitVec

#[test]
fn bitvec_matches_a_reference_set() {
    let mut rng = StdRng::seed_from_u64(0x0B17);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..2048);
        let num_ops = rng.gen_range(0usize..256);
        let mut bv = BitVec::new(len);
        let mut reference: BTreeSet<usize> = BTreeSet::new();
        for _ in 0..num_ops {
            let idx = rng.gen_range(0usize..2048) % len;
            if rng.gen_bool(0.5) {
                bv.set(idx);
                reference.insert(idx);
            } else {
                bv.clear(idx);
                reference.remove(&idx);
            }
        }
        assert_eq!(bv.count_ones(), reference.len());
        assert_eq!(bv.count_zeros(), len - reference.len());
        assert_eq!(
            bv.iter_ones().collect::<Vec<_>>(),
            reference.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(bv.any(), !reference.is_empty());
        for i in 0..len {
            assert_eq!(bv.get(i), reference.contains(&i));
        }
    }
}

#[test]
fn bitvec_test_and_set_is_idempotent_on_the_second_call() {
    let mut rng = StdRng::seed_from_u64(0x0B18);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..512);
        let idx = rng.gen_range(0usize..512) % len;
        let mut bv = BitVec::new(len);
        assert!(!bv.test_and_set(idx));
        assert!(bv.test_and_set(idx));
        assert_eq!(bv.count_ones(), 1);
    }
}

#[test]
fn bitvec_union_and_intersection_match_set_semantics() {
    let mut rng = StdRng::seed_from_u64(0x0B19);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..512);
        let draw_set = |rng: &mut StdRng| -> BTreeSet<usize> {
            let n = rng.gen_range(0usize..64);
            (0..n).map(|_| rng.gen_range(0usize..512) % len).collect()
        };
        let sa = draw_set(&mut rng);
        let sb = draw_set(&mut rng);
        let mut a = BitVec::new(len);
        let mut b = BitVec::new(len);
        for &i in &sa {
            a.set(i);
        }
        for &i in &sb {
            b.set(i);
        }
        let mut union = a.clone();
        union.union_with(&b);
        let mut inter = a.clone();
        inter.intersect_with(&b);
        assert_eq!(
            union.iter_ones().collect::<BTreeSet<_>>(),
            sa.union(&sb).copied().collect::<BTreeSet<_>>()
        );
        assert_eq!(
            inter.iter_ones().collect::<BTreeSet<_>>(),
            sa.intersection(&sb).copied().collect::<BTreeSet<_>>()
        );
    }
}

// ------------------------------------------------------------------ Runs

#[test]
fn runs_cover_exactly_the_input_pages() {
    let mut rng = StdRng::seed_from_u64(0x9045);
    for _ in 0..CASES {
        let num_pages = rng.gen_range(0usize..512);
        let pages: BTreeSet<u64> = (0..num_pages)
            .map(|_| rng.gen_range(0u64..10_000))
            .collect();
        let sorted: Vec<u64> = pages.iter().copied().collect();
        let runs = group_into_runs(sorted.iter().copied());
        // Every page is covered exactly once, in order, and runs are maximal.
        let mut reconstructed = Vec::new();
        for r in &runs {
            assert!(r.len >= 1);
            reconstructed.extend(r.pages());
        }
        assert_eq!(reconstructed, sorted);
        for w in runs.windows(2) {
            // Maximality: consecutive runs are separated by a gap.
            assert!(w[1].start > w[0].end_inclusive() + 1);
        }
        // Builder and helper agree.
        let mut rb = RunBuilder::new();
        let mut built = Vec::new();
        for &p in &sorted {
            if let Some(r) = rb.push(p) {
                built.push(r);
            }
        }
        built.extend(rb.finish());
        assert_eq!(built, runs);
    }
}

// ------------------------------------------------------------ ValueRange

#[test]
fn range_algebra_laws() {
    let mut rng = StdRng::seed_from_u64(0x4A1E);
    for _ in 0..CASES {
        let (a_lo, a_hi) = (rng.gen_range(0u64..1000), rng.gen_range(0u64..1000));
        let (b_lo, b_hi) = (rng.gen_range(0u64..1000), rng.gen_range(0u64..1000));
        let probe = rng.gen_range(0u64..1000);
        let a = ValueRange::new(a_lo.min(a_hi), a_lo.max(a_hi));
        let b = ValueRange::new(b_lo.min(b_hi), b_lo.max(b_hi));
        // covers ⇔ subset duality.
        assert_eq!(a.covers(&b), b.is_subset_of(&a));
        // Intersection is symmetric and contained in both.
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        assert_eq!(ab, ba);
        if let Some(i) = ab {
            assert!(a.covers(&i) && b.covers(&i));
            assert!(a.overlaps(&b));
        } else {
            assert!(!a.overlaps(&b));
        }
        // Hull covers both inputs.
        let h = a.hull(&b);
        assert!(h.covers(&a) && h.covers(&b));
        // Membership is consistent with intersection.
        if a.contains(probe) && b.contains(probe) {
            assert!(ab.expect("non-empty").contains(probe));
        }
        // The full range covers everything.
        assert!(ValueRange::full().covers(&h));
    }
}

#[test]
fn widen_between_always_contains_the_query_range() {
    let mut rng = StdRng::seed_from_u64(0x71DE);
    for _ in 0..CASES {
        let (lo, hi) = (rng.gen_range(0u64..1000), rng.gen_range(0u64..1000));
        let below = rng.gen_bool(0.5).then(|| rng.gen_range(0u64..1000));
        let above = rng.gen_bool(0.5).then(|| rng.gen_range(0u64..1000));
        let q = ValueRange::new(lo.min(hi), lo.max(hi));
        // Only meaningful when the observations are on the correct sides.
        let below = below.filter(|b| *b < q.low());
        let above = above.filter(|a| *a > q.high());
        let widened = q.widen_between(below, above);
        assert!(widened.covers(&q));
        if let Some(b) = below {
            assert!(widened.low() > b);
        }
        if let Some(a) = above {
            assert!(widened.high() < a);
        }
    }
}
