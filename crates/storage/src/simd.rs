//! The page filter: one safe source, compiled once per CPU level.
//!
//! Every page the adaptive path, the snapshot path and the full-scan
//! baseline touch goes through `page.scanAndFilter(q)` (Listing 1), so this
//! loop is the hottest code of the whole reproduction. It is built so that
//! its cost stays below the cost of the memory access it filters.
//!
//! # Two passes
//!
//! * The **lean pass** runs over every page. Per value it evaluates the
//!   range predicate as a 0/1 mask and folds exactly three things: the
//!   count, and the masked value split into two 32-bit halves (the
//!   checksum; skipped for count-only scans). It is a plain reduction loop
//!   over the page's slots — no lanes spelled out, no data-dependent
//!   branch — which LLVM's loop vectorizer turns into full-width vector
//!   code whenever the target has a 64-bit integer compare.
//! * The **bounds pass** computes the widening bounds of the paper's §2.2
//!   (largest value below the range, smallest value above it). The scan
//!   consumes those only for pages *without* a qualifying value, so the
//!   pass runs only on such pages, right after their lean pass, while the
//!   page sits in L1; pages with a qualifying value report no bounds. On a
//!   page where nothing qualifies both bounds fall out of one min/max fold
//!   over `v - low` (see `bounds_pass`), again a plain vectorizable
//!   reduction.
//!
//! Row-id collection is a third, branch-free compaction loop that runs only
//! on pages the lean pass found a qualifying value on.
//!
//! # The qualify mask
//!
//! A conjunctive read filters a page against several columns' predicates
//! and keeps the slots where all of them hold. [`QualifyMask`] carries those
//! slots, one bit per value slot, and [`KernelVariant::retain_qualifying`]
//! narrows it by one predicate. It starts with the lean pass, count only: a page where
//! nothing qualifies clears the mask and a page where everything qualifies
//! keeps it, so only a page in between pays for its bits. Those come out of
//! a plain loop per 64-slot word (`bits |= qualifies(v) << slot`), which
//! the loop vectorizer handles like the lean pass; a word with no surviving
//! slot left is skipped.
//!
//! # Blocks and the next page
//!
//! A view is a list of 4 KiB pages, often each in a mapping of its own, and
//! the hardware prefetcher stops at every page boundary: left alone, each
//! page a scan enters starts with cache misses. The scan loop, however,
//! knows which page it reads next long before the hardware does, so a
//! sequential caller hands the filter the raw slots of the successor page
//! (`next`). The lean pass runs in blocks of 64 slots (eight cache lines)
//! and, before each block, hints the same eight lines of `next` into
//! the cache. The hints are spread through the page, one block's worth at a
//! time, rather than issued as a burst at page entry: a burst of 64 hints
//! competes with the current page's own loads and measured slower on a
//! cache-resident view, while the interleaved hints were faster both warm
//! and cold. Looking one page ahead measured equal to looking two ahead.
//!
//! Blocking only regroups exact integer sums, so count and checksum do not
//! change; the bounds pass, the compaction and the take-back below are not
//! blocked and touch only the current page. Without a successor (the last
//! page, a sharded worker, a single-page call) the blocks run without
//! hints.
//!
//! # What must not count
//!
//! The lean pass runs over the page slice *including* its pageID slot, so a
//! full page is one aligned 512-slot loop without a remainder. What must
//! not count — the pageID slot, and the slots of a [`PageExclusionMask`]
//! in the masked scan mode — is evaluated again one slot at a time
//! afterwards and taken back out of the count and the checksum. Both are
//! exact integer sums, so adding a contribution and subtracting the same
//! contribution cancels without error. The bounds and compaction loops,
//! which cannot take anything back, test the mask per value. No engine
//! read path masks slots: a served write lands in its page's copy
//! (`asv_core::serve`). The masked mode stays because the benchmark
//! measures it (`kernel_scan` in `benchmark/src/sut.rs`).
//!
//! # Exactness
//!
//! * **Predicate.** `low <= v <= high` is evaluated as
//!   `(v - low) mod 2^64 <= high - low`: for `v >= low` the difference does
//!   not wrap and the comparison is `v <= high`; for `v < low` it wraps to
//!   at least `2^64 - low`, which exceeds `high - low <= 2^64 - 1 - low`.
//!   The unsigned comparison is carried out as a signed one on operands
//!   with the top bit flipped (`a <= b` unsigned iff `a ^ 2^63 <= b ^ 2^63`
//!   signed), and flipping the top bit of a difference equals flipping it
//!   on the subtrahend — so one subtraction and one *signed* compare per
//!   value remain, which is what AVX2 has an instruction for.
//! * **Checksum.** The masked value is accumulated as two `u64` sums of its
//!   32-bit halves; `lo + (hi << 32)` in `u128` is exactly the scalar
//!   `u128` sum. A page has [`asv_vmem::SLOTS_PER_PAGE`] (= 512) slots, so
//!   each half-sum stays below `2^41`.
//!
//! All answers are bit-identical to the scalar reference loops in
//! [`crate::page`] (`*_scalar`), which stay as the differential-test oracle.
//!
//! # One source, one build per CPU level
//!
//! The crates compile for the baseline of their target; on x86-64 that is
//! SSE2, which has no 64-bit integer compare, min or max, so the baseline
//! build of the loops above is scalar code. The same source is therefore
//! compiled a second time under `#[target_feature(enable = "avx2")]`: the
//! `#[inline(always)]` core is inlined into a function that may use AVX2
//! and the identical loops come out as 256-bit vector code
//! ([`KernelVariant`]). Which build runs is decided once per process with
//! `is_x86_feature_detected!`; CPUs without AVX2 and non-x86 targets run
//! the portable build. The loops use one intrinsic, a prefetch hint
//! (`_mm_prefetch`, part of x86-64's baseline; a no-op elsewhere), and
//! there is nothing to configure.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
use std::ops::Range;
use std::sync::OnceLock;

use asv_util::ValueRange;
use asv_vmem::VALUES_PER_PAGE;

use crate::page::{PageRef, PageScanResult};

/// Number of values the min/max and copy helpers below process per chunk:
/// eight `u64` lanes are one 64-byte cache line.
pub const LANES: usize = 8;

/// Words needed to carry one exclusion bit per value slot of a page.
const MASK_WORDS: usize = VALUES_PER_PAGE.div_ceil(64);

/// A per-page exclusion bitmask: one bit per value slot, set = the slot is
/// treated as absent by a masked scan
/// ([`crate::ScanKernel::with_exclusion_masks`]).
///
/// The page filter scans the page as if nothing were excluded and takes
/// the masked slots' contributions back out (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageExclusionMask {
    words: [u64; MASK_WORDS],
}

impl PageExclusionMask {
    /// An empty mask (no slot excluded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a mask from ascending value-slot indexes. Slots beyond
    /// [`VALUES_PER_PAGE`] are rejected.
    ///
    /// # Panics
    /// Panics if a slot is `>= VALUES_PER_PAGE`.
    pub fn from_slots(slots: impl IntoIterator<Item = usize>) -> Self {
        let mut mask = Self::default();
        for slot in slots {
            mask.set(slot);
        }
        mask
    }

    /// Marks `slot` as excluded.
    ///
    /// # Panics
    /// Panics if `slot >= VALUES_PER_PAGE`.
    #[inline]
    pub fn set(&mut self, slot: usize) {
        assert!(slot < VALUES_PER_PAGE, "slot {slot} out of page bounds");
        self.words[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Returns `true` if `slot` is excluded.
    #[inline]
    pub fn excluded(&self, slot: usize) -> bool {
        debug_assert!(slot < VALUES_PER_PAGE);
        (self.words[slot / 64] >> (slot % 64)) & 1 == 1
    }

    /// The excluded slots, ascending.
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.words)
    }
}

/// The surviving value slots of one page under a conjunction of range
/// predicates: one bit per value slot, set = every predicate applied so far
/// holds there.
///
/// A conjunctive read starts each page from [`Self::valid`] and narrows
/// the mask once per predicate with [`KernelVariant::retain_qualifying`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QualifyMask {
    words: [u64; MASK_WORDS],
}

impl QualifyMask {
    /// The first `valid_values` value slots of a page, all set.
    ///
    /// # Panics
    /// Panics if `valid_values > VALUES_PER_PAGE`.
    pub fn valid(valid_values: usize) -> Self {
        assert!(
            valid_values <= VALUES_PER_PAGE,
            "valid_values {valid_values} exceeds {VALUES_PER_PAGE}"
        );
        let mut words = [0u64; MASK_WORDS];
        for (idx, word) in words.iter_mut().enumerate() {
            let bits = valid_values.saturating_sub(idx * 64).min(64);
            *word = u64::MAX.checked_shr(64 - bits as u32).unwrap_or(0);
        }
        Self { words }
    }

    /// Returns `true` if no slot survives.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The surviving slots, ascending.
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.words)
    }
}

/// The set bits of `words`, ascending, as bit indexes.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(word, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                word * 64 + bit
            })
        })
    })
}

/// Precomputed per-page exclusion bitmasks for a set of excluded global row
/// ids, built once and handed to scans by reference
/// (`ScanKernel::with_exclusion_masks`).
///
/// No engine read path excludes rows: a served write lands in its page's
/// copy (`asv_core::serve`). The masks stay because the benchmark measures
/// the masked scan mode (`kernel_scan` and `exclusion_masks` in
/// `benchmark/src/sut.rs`).
#[derive(Clone, Debug, Default)]
pub struct ExclusionMasks {
    pages: Vec<u64>,
    masks: Vec<PageExclusionMask>,
}

impl ExclusionMasks {
    /// Builds the per-page masks from ascending, duplicate-free global row
    /// ids.
    pub fn from_rows(rows: Vec<u64>) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must ascend");
        let mut pages = Vec::new();
        let mut masks: Vec<PageExclusionMask> = Vec::new();
        for &row in &rows {
            let page = row / VALUES_PER_PAGE as u64;
            let slot = (row % VALUES_PER_PAGE as u64) as usize;
            if pages.last() != Some(&page) {
                pages.push(page);
                masks.push(PageExclusionMask::new());
            }
            masks.last_mut().expect("pushed above").set(slot);
        }
        Self { pages, masks }
    }

    /// The exclusion mask of `page_id`, if any of its slots are excluded.
    #[inline]
    pub fn mask_for(&self, page_id: u64) -> Option<&PageExclusionMask> {
        self.pages
            .binary_search(&page_id)
            .ok()
            .map(|idx| &self.masks[idx])
    }
}

/// Top bit of a `u64`: flipping it maps unsigned order onto signed order.
const SIGN_BIT: u64 = 1 << 63;

/// The range predicate in the form the hot loops evaluate it (see the
/// module docs for the exactness argument).
#[derive(Clone, Copy)]
struct Predicate {
    low: u64,
    high: u64,
    /// `low ^ 2^63`: subtracting it yields the key of [`Self::key`].
    biased_low: u64,
    /// `(high - low) ^ 2^63` as a signed number: the largest qualifying key.
    max_key: i64,
}

impl Predicate {
    #[inline(always)]
    fn new(range: &ValueRange) -> Self {
        let (low, high) = (range.low(), range.high());
        Self {
            low,
            high,
            biased_low: low ^ SIGN_BIT,
            max_key: ((high - low) ^ SIGN_BIT) as i64,
        }
    }

    /// `(v - low) mod 2^64` with the top bit flipped, as a signed number:
    /// signed order on keys is unsigned order on `v - low`.
    #[inline(always)]
    fn key(&self, v: u64) -> i64 {
        v.wrapping_sub(self.biased_low) as i64
    }

    /// The value a key was computed from.
    #[inline(always)]
    fn value_of(&self, key: i64) -> u64 {
        (key as u64).wrapping_add(self.biased_low)
    }

    /// 1 if `low <= v <= high`, else 0.
    #[inline(always)]
    fn qualifies(&self, v: u64) -> u64 {
        (self.key(v) <= self.max_key) as u64
    }
}

/// Hints the cache lines of `next` at slots `lines` into L1. A hint, not a
/// load: it never faults and changes no value, so it cannot alter an answer.
#[inline(always)]
fn prefetch(next: &[u64], lines: Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    for line in next
        .get(lines.start..lines.end.min(next.len()))
        .unwrap_or_default()
        .iter()
        .step_by(LANES)
    {
        // SAFETY: `_mm_prefetch` is SSE, part of the x86-64 baseline, and a
        // prefetch is a hint that never faults, whatever the address; this
        // one is even in bounds.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((line as *const u64).cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (next, lines);
}

/// The lean pass: count and (with `SUM`) split-half checksum of the
/// qualifying values among `slots`. A plain reduction without a
/// data-dependent branch, so the loop vectorizer handles it. It runs in
/// blocks of eight cache lines and hints the same lines of `next` before
/// each block (see the module docs).
#[inline(always)]
fn lean_pass<const SUM: bool>(slots: &[u64], next: Option<&[u64]>, pred: Predicate) -> (u64, u128) {
    let (mut count, mut sum_lo, mut sum_hi) = (0u64, 0u64, 0u64);
    let mut start = 0;
    for block in slots.chunks(8 * LANES) {
        if let Some(next) = next {
            prefetch(next, start..start + block.len());
        }
        start += block.len();
        for &v in block {
            let q = pred.qualifies(v);
            count += q;
            if SUM {
                let masked = v & q.wrapping_neg();
                sum_lo += masked & 0xFFFF_FFFF;
                sum_hi += masked >> 32;
            }
        }
    }
    (count, sum_lo as u128 + ((sum_hi as u128) << 32))
}

/// The bounds pass over a page on which **no kept value qualifies**:
/// returns (largest value below the range, smallest value above it).
///
/// With `w = (v - low) mod 2^64`, a value above the range has
/// `w = v - low`, somewhere in `(high - low, 2^64 - 1 - low]`, and a value
/// below it has `w = 2^64 - (low - v)`, somewhere in `[2^64 - low, 2^64 - 1]`.
/// The second interval lies entirely above the first and `w` grows with `v`
/// inside each, so — as long as nothing qualifies — the maximum of `w` is
/// the largest below-value if there is one, and the minimum of `w` is the
/// smallest above-value if there is one. One min/max fold over the keys
/// therefore yields both bounds; mapping the extremes back to values and
/// checking which side of the range they are on tells whether that side
/// had a value at all.
#[inline(always)]
fn bounds_pass(
    values: &[u64],
    pred: Predicate,
    exclusion: Option<&PageExclusionMask>,
) -> (Option<u64>, Option<u64>) {
    let (mut min_key, mut max_key) = (i64::MAX, i64::MIN);
    let mut kept = values.len();
    match exclusion {
        None => {
            for &v in values {
                let key = pred.key(v);
                min_key = min_key.min(key);
                max_key = max_key.max(key);
            }
        }
        Some(mask) => {
            kept = 0;
            for (slot, &v) in values.iter().enumerate() {
                if !mask.excluded(slot) {
                    let key = pred.key(v);
                    min_key = min_key.min(key);
                    max_key = max_key.max(key);
                    kept += 1;
                }
            }
        }
    }
    if kept == 0 {
        return (None, None);
    }
    let (smallest, largest) = (pred.value_of(min_key), pred.value_of(max_key));
    (
        (largest < pred.low).then_some(largest),
        (smallest > pred.high).then_some(smallest),
    )
}

/// Appends the global row ids (`base_row + slot`) of the qualifying kept
/// values to `rows_out`: every slot's row id is stored unconditionally and
/// the write position advances by the 0/1 qualify mask, so the loop has no
/// data-dependent branch at any selectivity. `values` are the value slots
/// of one page, at most [`VALUES_PER_PAGE`].
#[inline(always)]
fn collect_rows(
    values: &[u64],
    pred: Predicate,
    exclusion: Option<&PageExclusionMask>,
    base_row: u64,
    rows_out: &mut Vec<u64>,
) {
    let mut rows = [0u64; VALUES_PER_PAGE];
    let mut found = 0usize;
    match exclusion {
        None => {
            for (slot, &v) in values.iter().enumerate() {
                rows[found] = base_row + slot as u64;
                found += pred.qualifies(v) as usize;
            }
        }
        Some(mask) => {
            for (slot, &v) in values.iter().enumerate() {
                rows[found] = base_row + slot as u64;
                found += (pred.qualifies(v) & !mask.excluded(slot) as u64) as usize;
            }
        }
    }
    rows_out.extend_from_slice(&rows[..found]);
}

/// The one page-filter core: every scan mode of every compiled build is
/// this function. `slots` is the page slice from its pageID slot through
/// its last valid value; `next` is the raw slots of the page the caller
/// scans next, prefetched while this one is filtered.
#[inline(always)]
fn filter_page(
    slots: &[u64],
    next: Option<&[u64]>,
    range: &ValueRange,
    exclusion: Option<&PageExclusionMask>,
    count_only: bool,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    let pred = Predicate::new(range);
    let (&page_id, values) = slots
        .split_first()
        .expect("a page slice starts with its pageID slot");
    let (mut count, mut sum) = if count_only {
        lean_pass::<false>(slots, next, pred)
    } else {
        lean_pass::<true>(slots, next, pred)
    };
    // Take back out what rode along but must not count.
    let mut take_out = |v: u64| {
        let q = pred.qualifies(v);
        count -= q;
        if !count_only {
            sum -= (v & q.wrapping_neg()) as u128;
        }
    };
    take_out(page_id);
    if let Some(mask) = exclusion {
        mask.slots()
            .take_while(|&slot| slot < values.len())
            .for_each(|slot| take_out(values[slot]));
    }
    let (below_max, above_min) = if count == 0 {
        bounds_pass(values, pred, exclusion)
    } else {
        if let Some(rows_out) = rows_out {
            let base_row = page_id * VALUES_PER_PAGE as u64;
            collect_rows(values, pred, exclusion, base_row, rows_out);
        }
        (None, None)
    };
    PageScanResult {
        count,
        sum,
        below_max,
        above_min,
    }
}

/// The qualify-mask core: clears from `mask` every slot whose value in
/// `values` (the valid values of one page) lies outside `range`, and every
/// slot past `values`. `next` is prefetched as by [`filter_page`].
///
/// A count-only lean pass decides first, as on a scan: a page with no
/// qualifying value clears the mask and one whose every value qualifies
/// keeps it. Only a page in between is evaluated slot by slot, one 64-slot
/// word at a time, and a word with no surviving slot is skipped.
#[inline(always)]
fn retain_qualifying(
    values: &[u64],
    next: Option<&[u64]>,
    range: &ValueRange,
    mask: &mut QualifyMask,
) {
    let pred = Predicate::new(range);
    let (count, _) = lean_pass::<false>(values, next, pred);
    if count == 0 {
        *mask = QualifyMask::default();
        return;
    }
    let valid = QualifyMask::valid(values.len());
    for (word, bits) in mask.words.iter_mut().zip(valid.words) {
        *word &= bits;
    }
    if count as usize == values.len() {
        return;
    }
    for (word, chunk) in mask.words.iter_mut().zip(values.chunks(64)) {
        if *word != 0 {
            let mut bits = 0u64;
            for (bit, &v) in chunk.iter().enumerate() {
                bits |= pred.qualifies(v) << bit;
            }
            *word &= bits;
        }
    }
}

/// Signature every compiled build of [`retain_qualifying`] shares.
type RetainFn = unsafe fn(&[u64], Option<&[u64]>, &ValueRange, &mut QualifyMask);

/// [`retain_qualifying`] compiled for the crate's baseline target.
fn retain_qualifying_portable(
    values: &[u64],
    next: Option<&[u64]>,
    range: &ValueRange,
    mask: &mut QualifyMask,
) {
    retain_qualifying(values, next, range, mask)
}

/// [`retain_qualifying`] compiled with AVX2 available.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn retain_qualifying_avx2(
    values: &[u64],
    next: Option<&[u64]>,
    range: &ValueRange,
    mask: &mut QualifyMask,
) {
    retain_qualifying(values, next, range, mask)
}

/// Signature every compiled build of [`filter_page`] shares.
type FilterPageFn = unsafe fn(
    &[u64],
    Option<&[u64]>,
    &ValueRange,
    Option<&PageExclusionMask>,
    bool,
    Option<&mut Vec<u64>>,
) -> PageScanResult;

/// [`filter_page`] compiled for the crate's baseline target.
fn filter_page_portable(
    slots: &[u64],
    next: Option<&[u64]>,
    range: &ValueRange,
    exclusion: Option<&PageExclusionMask>,
    count_only: bool,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    filter_page(slots, next, range, exclusion, count_only, rows_out)
}

/// [`filter_page`] compiled with AVX2 available: the `#[inline(always)]`
/// core is inlined here and its loops are vectorized for 256-bit registers.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn filter_page_avx2(
    slots: &[u64],
    next: Option<&[u64]>,
    range: &ValueRange,
    exclusion: Option<&PageExclusionMask>,
    count_only: bool,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    filter_page(slots, next, range, exclusion, count_only, rows_out)
}

/// One compiled build of the page filter and the qualify-mask kernel that
/// the running CPU supports.
///
/// Values of this type exist only for builds whose CPU features were
/// detected ([`supported_variants`] is the only constructor), which is what
/// makes [`Self::filter`] and [`Self::retain_qualifying`] safe calls.
#[derive(Clone, Copy, Debug)]
pub struct KernelVariant {
    name: &'static str,
    filter: FilterPageFn,
    retain: RetainFn,
}

impl KernelVariant {
    /// The instruction-set level this build was compiled for (`"portable"`,
    /// `"avx2"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Filters `page` against `range` with this build. `next`, the raw
    /// slots of the page the caller scans next, is prefetched along the
    /// way and changes no answer. `exclusion` treats the masked slots as
    /// absent, `count_only` skips the checksum (`sum` stays 0) and
    /// `rows_out` collects the qualifying global row ids.
    pub fn filter(
        &self,
        page: &PageRef<'_>,
        next: Option<&[u64]>,
        range: &ValueRange,
        exclusion: Option<&PageExclusionMask>,
        count_only: bool,
        rows_out: Option<&mut Vec<u64>>,
    ) -> PageScanResult {
        // SAFETY: a `KernelVariant` is only constructed by
        // `supported_variants`, which pairs `filter_page_avx2` with a
        // successful `is_x86_feature_detected!("avx2")`; the portable build
        // has no requirement.
        unsafe { (self.filter)(page.slots(), next, range, exclusion, count_only, rows_out) }
    }

    /// Narrows `mask` to the slots of `page` whose value lies in `range`:
    /// every slot whose value does not qualify, and every slot past the
    /// page's valid values, is cleared. `next` is prefetched along the way,
    /// as by [`Self::filter`], and changes no answer.
    pub fn retain_qualifying(
        &self,
        page: &PageRef<'_>,
        next: Option<&[u64]>,
        range: &ValueRange,
        mask: &mut QualifyMask,
    ) {
        // SAFETY: as in `filter`: `retain_qualifying_avx2` is only paired
        // with a detected AVX2 CPU.
        unsafe { (self.retain)(page.values(), next, range, mask) }
    }
}

/// Every compiled build the running CPU supports, fastest last. Differential
/// tests run all of them; production runs [`selected_variant`].
#[doc(hidden)]
pub fn supported_variants() -> Vec<KernelVariant> {
    let portable = KernelVariant {
        name: "portable",
        filter: filter_page_portable,
        retain: retain_qualifying_portable,
    };
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        let avx2 = KernelVariant {
            name: "avx2",
            filter: filter_page_avx2,
            retain: retain_qualifying_avx2,
        };
        return vec![portable, avx2];
    }
    vec![portable]
}

/// The build every production scan of this process runs: the fastest one
/// the CPU supports, detected on first use.
pub fn selected_variant() -> &'static KernelVariant {
    static SELECTED: OnceLock<KernelVariant> = OnceLock::new();
    SELECTED.get_or_init(|| {
        *supported_variants()
            .last()
            .expect("the portable build is always supported")
    })
}

/// Chunked branch-free min/max fold over the valid values of a page.
pub fn min_max_chunked(values: &[u64]) -> Option<(u64, u64)> {
    if values.is_empty() {
        return None;
    }
    let mut mins = [u64::MAX; LANES];
    let mut maxs = [0u64; LANES];
    let mut chunks = values.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (i, &v) in chunk.iter().enumerate() {
            mins[i] = mins[i].min(v);
            maxs[i] = maxs[i].max(v);
        }
    }
    for &v in chunks.remainder() {
        mins[0] = mins[0].min(v);
        maxs[0] = maxs[0].max(v);
    }
    let min = mins.iter().copied().min().unwrap_or(u64::MAX);
    let max = maxs.iter().copied().max().unwrap_or(0);
    Some((min, max))
}

/// Chunked min/max fold that *continues* an accumulator across slices — the
/// multi-page variant of [`min_max_chunked`] used by zone-statistics
/// construction, where one zone band folds over the valid values of many
/// consecutive pages without materializing a per-page `Option` in between.
///
/// The fold identities are `(u64::MAX, 0)`: start from
/// `(u64::MAX, 0)` and the result is `(min, max)` of everything folded, or
/// the identities unchanged if every slice was empty (callers detect the
/// empty zone from the row count they track alongside).
pub fn fold_min_max_chunked(values: &[u64], acc: (u64, u64)) -> (u64, u64) {
    let mut mins = [acc.0; LANES];
    let mut maxs = [acc.1; LANES];
    let mut chunks = values.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (i, &v) in chunk.iter().enumerate() {
            mins[i] = mins[i].min(v);
            maxs[i] = maxs[i].max(v);
        }
    }
    for &v in chunks.remainder() {
        mins[0] = mins[0].min(v);
        maxs[0] = maxs[0].max(v);
    }
    let min = mins.iter().copied().min().unwrap_or(acc.0);
    let max = maxs.iter().copied().max().unwrap_or(acc.1);
    (min, max)
}

/// Chunked page copy: materializes a page's words through the same
/// [`LANES`]-wide chunk structure as the filter kernels, so the serving
/// layer's page-freeze copy loop compiles to full-width vector moves with
/// one reserve and one bounds check per chunk instead of per-value
/// iterator stepping.
pub fn copy_values_chunked(src: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(src.len());
    let mut chunks = src.chunks_exact(LANES);
    for chunk in &mut chunks {
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(chunks.remainder());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::write_page;
    use asv_vmem::SLOTS_PER_PAGE;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Scalar reference of the full filter under the narrowed bounds
    /// contract, written independently of the implementations in `page.rs`.
    fn reference(values: &[u64], range: &ValueRange, excluded: &[usize]) -> PageScanResult {
        let mut res = PageScanResult::default();
        for (idx, &v) in values.iter().enumerate() {
            if excluded.contains(&idx) {
                continue;
            }
            if range.contains(v) {
                res.count += 1;
                res.sum += v as u128;
            } else if v < range.low() {
                res.below_max = Some(res.below_max.map_or(v, |b| b.max(v)));
            } else {
                res.above_min = Some(res.above_min.map_or(v, |a| a.min(v)));
            }
        }
        if res.count > 0 {
            res.below_max = None;
            res.above_min = None;
        }
        res
    }

    fn random_values(len: usize, state: &mut u64) -> Vec<u64> {
        (0..len)
            .map(|_| match xorshift(state) % 10 {
                0 => 0,
                1 => u64::MAX,
                _ => xorshift(state) % 1_000,
            })
            .collect()
    }

    /// A raw page holding `values`, with stale garbage behind them.
    fn raw_page(page_id: u64, values: &[u64]) -> Vec<u64> {
        let mut raw = vec![0xDEAD_BEEF_u64; SLOTS_PER_PAGE];
        write_page(&mut raw, page_id, values);
        raw
    }

    #[test]
    fn every_variant_matches_reference_across_lengths_and_ranges() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for variant in supported_variants() {
            for len in [0usize, 1, 7, 8, 9, 63, 64, 100, VALUES_PER_PAGE] {
                let values = random_values(len, &mut state);
                // The pageID (3) lies inside several of the ranges: the
                // header slot must never count.
                let raw = raw_page(3, &values);
                let page = PageRef::new(&raw, len);
                let base = 3 * VALUES_PER_PAGE as u64;
                for range in [
                    ValueRange::new(100, 600),
                    ValueRange::full(),
                    ValueRange::point(0),
                    ValueRange::point(3),
                    ValueRange::new(0, 5),
                    ValueRange::new(999, u64::MAX),
                    ValueRange::point(u64::MAX),
                    ValueRange::new(2_000, 3_000),
                ] {
                    let what = format!("{} len {len} {range:?}", variant.name());
                    let expected = reference(&values, &range, &[]);
                    assert_eq!(
                        variant.filter(&page, None, &range, None, false, None),
                        expected,
                        "{what}"
                    );
                    let count_only = variant.filter(&page, None, &range, None, true, None);
                    assert_eq!(
                        count_only,
                        PageScanResult {
                            sum: 0,
                            ..expected.clone()
                        },
                        "{what}"
                    );
                    let mut rows = Vec::new();
                    let collected =
                        variant.filter(&page, None, &range, None, false, Some(&mut rows));
                    assert_eq!(collected, expected, "{what}");
                    let expected_rows: Vec<u64> = values
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| range.contains(**v))
                        .map(|(i, _)| base + i as u64)
                        .collect();
                    assert_eq!(rows, expected_rows, "{what}");
                }
            }
        }
    }

    #[test]
    fn every_variant_retains_the_reference_slots_across_lengths_and_ranges() {
        let mut state = 0x00dd_ba11_5eed_u64;
        for variant in supported_variants() {
            for len in 0..=VALUES_PER_PAGE {
                let values = random_values(len, &mut state);
                let raw = raw_page(3, &values);
                let page = PageRef::new(&raw, len);
                // A sparse start: the slots of another full page whose value
                // passes a wide filter, so it includes slots past `len`,
                // which must clear as well.
                let other = random_values(VALUES_PER_PAGE, &mut state);
                let other = raw_page(4, &other);
                let mut sparse = QualifyMask::valid(VALUES_PER_PAGE);
                let wide = ValueRange::new(0, 400);
                variant.retain_qualifying(
                    &PageRef::new(&other, VALUES_PER_PAGE),
                    None,
                    &wide,
                    &mut sparse,
                );
                let starts = [
                    QualifyMask::valid(VALUES_PER_PAGE),
                    QualifyMask::valid(len),
                    sparse,
                    QualifyMask::default(),
                ];
                for range in [
                    ValueRange::new(100, 600),
                    ValueRange::full(),
                    ValueRange::point(0),
                    ValueRange::point(3),
                    ValueRange::new(999, u64::MAX),
                    ValueRange::point(u64::MAX),
                    ValueRange::new(2_000, 3_000),
                ] {
                    for (n, start) in starts.iter().enumerate() {
                        let what = format!("{} len {len} {range:?} start #{n}", variant.name());
                        let expected: Vec<usize> = start
                            .slots()
                            .filter(|&slot| slot < len && range.contains(values[slot]))
                            .collect();
                        for next in [None, Some(raw.as_slice())] {
                            let mut mask = *start;
                            variant.retain_qualifying(&page, next, &range, &mut mask);
                            assert_eq!(mask.slots().collect::<Vec<_>>(), expected, "{what}");
                            assert_eq!(mask.is_empty(), expected.is_empty(), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn qualify_masks_start_from_the_valid_slots() {
        for len in [0usize, 1, 63, 64, 65, 128, 500, VALUES_PER_PAGE] {
            let mask = QualifyMask::valid(len);
            assert_eq!(
                mask.slots().collect::<Vec<_>>(),
                (0..len).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn successor_page_never_changes_the_answer() {
        let mut state = 0x0bad_cafe_f00du64;
        let other = raw_page(9, &random_values(VALUES_PER_PAGE, &mut state));
        // The valid prefix of a short last page: fewer slots than a block.
        let short = raw_page(10, &random_values(3, &mut state));
        let short = &short[..4];
        for variant in supported_variants() {
            for len in [1usize, 63, 64, 65, VALUES_PER_PAGE] {
                let values = random_values(len, &mut state);
                let raw = raw_page(3, &values);
                let page = PageRef::new(&raw, len);
                let excluded: Vec<usize> = (0..len)
                    .filter(|_| xorshift(&mut state).is_multiple_of(5))
                    .collect();
                let mask = PageExclusionMask::from_slots(excluded.iter().copied());
                let nexts = [
                    None,
                    Some(raw.as_slice()),
                    Some(other.as_slice()),
                    Some(short),
                ];
                for range in [
                    ValueRange::new(100, 600),
                    ValueRange::full(),
                    ValueRange::point(3),
                    ValueRange::new(2_000, 3_000),
                ] {
                    for masked in [false, true] {
                        let skip: &[usize] = if masked { &excluded } else { &[] };
                        let exclusion = masked.then_some(&mask);
                        let expected = reference(&values, &range, skip);
                        let expected_rows: Vec<u64> = values
                            .iter()
                            .enumerate()
                            .filter(|(i, v)| !skip.contains(i) && range.contains(**v))
                            .map(|(i, _)| 3 * VALUES_PER_PAGE as u64 + i as u64)
                            .collect();
                        for (n, next) in nexts.iter().enumerate() {
                            let what = format!(
                                "{} len {len} {range:?} masked {masked} next #{n}",
                                variant.name()
                            );
                            let filter = |count_only: bool, rows: Option<&mut Vec<u64>>| {
                                variant.filter(&page, *next, &range, exclusion, count_only, rows)
                            };
                            assert_eq!(filter(false, None), expected, "{what}");
                            let count_only = PageScanResult {
                                sum: 0,
                                ..expected.clone()
                            };
                            assert_eq!(filter(true, None), count_only, "{what}");
                            let mut rows = Vec::new();
                            assert_eq!(filter(false, Some(&mut rows)), expected, "{what}");
                            assert_eq!(rows, expected_rows, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn checksum_is_exact_at_domain_extremes() {
        // u64::MAX values stress the 32-bit-split accumulation, and the
        // pageID rides along with them.
        let raw = raw_page(
            u64::MAX / VALUES_PER_PAGE as u64,
            &[u64::MAX; VALUES_PER_PAGE],
        );
        let page = PageRef::new(&raw, VALUES_PER_PAGE);
        for variant in supported_variants() {
            let res = variant.filter(&page, None, &ValueRange::full(), None, false, None);
            assert_eq!(res.count, VALUES_PER_PAGE as u64);
            assert_eq!(res.sum, (u64::MAX as u128) * VALUES_PER_PAGE as u128);
        }
    }

    #[test]
    fn exclusion_mask_matches_reference() {
        let mut state = 0xdead_beefu64;
        for variant in supported_variants() {
            for len in [1usize, 8, 17, 200, VALUES_PER_PAGE] {
                let values = random_values(len, &mut state);
                let raw = raw_page(0, &values);
                let page = PageRef::new(&raw, len);
                // Includes bits beyond `len`, which the scan must ignore.
                let excluded: Vec<usize> = (0..VALUES_PER_PAGE)
                    .filter(|_| xorshift(&mut state).is_multiple_of(4))
                    .collect();
                let mask = PageExclusionMask::from_slots(excluded.iter().copied());
                assert_eq!(mask.slots().collect::<Vec<_>>(), excluded);
                for range in [ValueRange::new(50, 700), ValueRange::new(2_000, 3_000)] {
                    let what = format!("{} len {len} {range:?}", variant.name());
                    let expected = reference(&values, &range, &excluded);
                    let got = variant.filter(&page, None, &range, Some(&mask), false, None);
                    assert_eq!(got, expected, "{what}");
                    // Count-only zeroes the checksum but keeps everything else.
                    let count_only = variant.filter(&page, None, &range, Some(&mask), true, None);
                    assert_eq!(
                        count_only,
                        PageScanResult {
                            sum: 0,
                            ..expected.clone()
                        },
                        "{what}"
                    );
                    // Collection honours the exclusions.
                    let mut rows = Vec::new();
                    variant.filter(&page, None, &range, Some(&mask), false, Some(&mut rows));
                    let expected_rows: Vec<u64> = values
                        .iter()
                        .enumerate()
                        .filter(|(i, v)| !excluded.contains(i) && range.contains(**v))
                        .map(|(i, _)| i as u64)
                        .collect();
                    assert_eq!(rows, expected_rows, "{what}");
                }
            }
        }
    }

    #[test]
    fn fully_excluded_page_reports_nothing() {
        let values = vec![7u64; 20];
        let raw = raw_page(0, &values);
        let page = PageRef::new(&raw, values.len());
        let mask = PageExclusionMask::from_slots(0..values.len());
        for variant in supported_variants() {
            for range in [
                ValueRange::point(7),
                ValueRange::new(0, 3),
                ValueRange::full(),
            ] {
                let res = variant.filter(&page, None, &range, Some(&mask), false, None);
                assert_eq!(res, PageScanResult::default(), "{}", variant.name());
            }
        }
    }

    #[test]
    fn selected_variant_is_the_fastest_supported_one() {
        let supported = supported_variants();
        assert_eq!(supported[0].name(), "portable");
        assert_eq!(selected_variant().name(), supported.last().unwrap().name());
    }

    #[test]
    fn exclusion_masks_index_per_page() {
        let vpp = VALUES_PER_PAGE as u64;
        let rows = vec![3, 5, vpp, 2 * vpp + 7, 2 * vpp + 8];
        let masks = ExclusionMasks::from_rows(rows);
        assert!(masks.mask_for(0).unwrap().excluded(3));
        assert!(masks.mask_for(0).unwrap().excluded(5));
        assert!(!masks.mask_for(0).unwrap().excluded(4));
        assert!(masks.mask_for(1).unwrap().excluded(0));
        assert!(masks.mask_for(2).unwrap().excluded(7));
        assert!(masks.mask_for(3).is_none());
        assert!(ExclusionMasks::from_rows(Vec::new()).mask_for(0).is_none());
    }

    #[test]
    fn min_max_matches_iterator_fold() {
        let mut state = 42u64;
        for len in [0usize, 1, 5, 8, 64, 100, VALUES_PER_PAGE] {
            let values = random_values(len, &mut state);
            let expected = values
                .iter()
                .copied()
                .min()
                .zip(values.iter().copied().max());
            assert_eq!(min_max_chunked(&values), expected, "len {len}");
        }
    }

    #[test]
    fn fold_min_max_continues_accumulators_across_slices() {
        let mut state = 0xfeed_faceu64;
        for lens in [
            vec![0usize],
            vec![0, 0, 0],
            vec![1, 7, 8],
            vec![VALUES_PER_PAGE, 100, 0, 9],
        ] {
            let slices: Vec<Vec<u64>> = lens
                .iter()
                .map(|&len| random_values(len, &mut state))
                .collect();
            let mut acc = (u64::MAX, 0u64);
            for slice in &slices {
                acc = fold_min_max_chunked(slice, acc);
            }
            let all: Vec<u64> = slices.iter().flatten().copied().collect();
            match min_max_chunked(&all) {
                Some(expected) => assert_eq!(acc, expected, "lens {lens:?}"),
                None => assert_eq!(acc, (u64::MAX, 0), "lens {lens:?}"),
            }
        }
    }

    #[test]
    fn chunked_copy_is_exact() {
        let mut state = 0xc0ff_ee00u64;
        for len in [0usize, 1, 7, 8, 9, 64, 100, VALUES_PER_PAGE + 1] {
            let values = random_values(len, &mut state);
            assert_eq!(copy_values_chunked(&values), values, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "out of page bounds")]
    fn mask_rejects_out_of_page_slots() {
        PageExclusionMask::from_slots([VALUES_PER_PAGE]);
    }
}
