//! The shared-table concurrent serving layer: epoch-pinned reader
//! snapshots over a single-writer maintenance loop.
//!
//! Every structure of the adaptive layer so far is single-threaded: one
//! owner interleaves queries, writes and alignment rounds on one thread.
//! This module lifts a whole table into a *serving* arrangement in which
//!
//! * **N reader threads** hold cheap [`TableHandle`]s and pin
//!   epoch-consistent [`Snapshot`]s ([`TableHandle::pin`]) to run full
//!   queries — routed range scans, page-by-page conjunctive queries,
//!   point reads — without taking any lock, and
//! * **one maintenance thread** owns the [`ServeTable`]: it ingests
//!   writes, folds the write queue into alignment rounds, publishes
//!   re-aligned view epochs chunk by chunk, and reclaims superseded epochs
//!   once the last pinned reader lets go.
//!
//! # The epoch protocol
//!
//! The handoff primitive is [`asv_util::EpochCell`] (userspace RCU): the
//! maintainer [`publishes`](asv_util::EpochCell::publish) immutable
//! [`TableEpoch`]s, readers pin the latest one with two atomic stores and
//! keep it alive through an [`Arc`] for as long as they need it. A pin
//! never blocks on a publish and a publish never waits for readers — old
//! epochs are reclaimed lazily ([`asv_util::EpochCell::try_reclaim`]) when
//! the last pin drops.
//!
//! A [`TableEpoch`] is a frozen, self-contained description of what a
//! reader may touch:
//!
//! * the column's own full view (`Arc<B::View>`, mapped once by
//!   [`Column::from_values`], never remapped: slot `i` is physical page `i`),
//! * per partial view the **ascending physical page set** it holds
//!   ([`ViewMeta`]), which readers scan *through the full view*. A served
//!   view maps nothing: it is a [`MappingTable`] the maintainer replays
//!   each published alignment chunk's ops onto, so after the column loads
//!   serving makes no virtual-memory call,
//! * **page copies**: every page written since its last retirement has a
//!   copy, and a staged write lands in it, so the copy holds the page's
//!   acknowledged content. Each copy carries the band of the values
//!   written to the page since it was taken. Readers substitute the copy
//!   for the live page, which the maintainer folds queued writes into
//!   *while readers are scanning*. A copy an epoch holds is never written
//!   again: the next write to the page clones it first, so the epoch
//!   decides which version of a page a reader sees,
//! * a [`ZoneStats`] clone: per-zone value bands that order conjunctive
//!   predicates and let routed reads skip pages (see "Zone bands skip
//!   routed pages" below).
//!
//! # The maintenance loop
//!
//! [`ServeTable::try_write`] stages a write: the value lands in its page's
//! copy (taken from the store on the page's first write since its last
//! retirement), the copy's band and the column's zone band widen to cover
//! it, the write queues for the next fold, and the acknowledgement becomes
//! visible to *new* pins at the next [`ServeTable::tick`] (which publishes
//! a new epoch). When a fold starts, the queued writes are written to the
//! store and the round is snapshotted with
//! [`crate::align::snapshot_alignment`], which keeps only the views whose
//! range contains an old or a new value of the batch — every other view
//! keeps its epoch verbatim — and planned on the spot, on the maintenance
//! thread (the loop of the paper's Listing 1 plans inline too, §2.4), in
//! chunks of at most `AlignChunking::chunk_updates` updates. Readers never
//! wait on the plan: they keep answering from the epochs they pinned. Each
//! later tick replays **one planned chunk** onto the views' tables and
//! publishes the re-sorted page sets, so the per-tick publish work is
//! bounded by the chunk size and interleaves with group-commit folding; a
//! chunk that changes no view publishes nothing and costs no tick. When the
//! round's last chunk lands (at once, for a round with no view to plan),
//! the round retires: every page without a write queued since the fold
//! drops its copy, because the store holds its values and the views are
//! aligned to them. A page with a queued write keeps its copy, which holds
//! the writes the store lacks. New rounds fold the queue only after
//! a **grace check**: every epoch except the current one must be unpinned,
//! because older epochs may lack copies of the pages about to be
//! folded. The fold itself never blocks the writer — if grace has not
//! elapsed the fold is simply retried on a later tick while writes keep
//! queueing.
//!
//! Within one round all published epochs give bit-identical answers: a
//! chunk publish only changes *which* pages a view scans (every page the
//! round wrote keeps its copy, and joins the routed reads its band meets,
//! until retirement), and the retire epoch swaps a dropped copy for a store
//! page holding the same values. This is what makes the serving layer
//! deterministic: concurrent readers pinning *different* mid-round epochs
//! still compute identical results.
//!
//! # Reads in physical page order
//!
//! A routed read visits pages in ascending physical order: the smallest
//! view covering the range on its own, else the union of a greedy
//! multi-view cover (`router::greedy_cover`, the rule [`crate::router`]'s
//! multi-view mode uses) if it indexes fewer pages than the column,
//! else every page. The union is a linear merge of the views' sorted page
//! sets, so a page two views share is scanned once. The copied pages whose
//! band meets the range join the list by the same merge. The list is
//! exact: a view holds every page with a value in its range as of its last
//! alignment, and every value written since lies on a copied page, inside
//! its copy's band. Before the page pass the routed list drops the pages
//! whose zone band misses the range (next section). Row ids therefore come
//! out of the page scan ascending — no read sorts or merges its rows.
//!
//! # Zone bands skip routed pages
//!
//! A view is a coarse index: it holds every page with a value in its range
//! and says nothing about the page's other values, so most routed pages of
//! a narrow read hold no qualifying row. Each epoch's [`ZoneStats`] bound
//! the values of every page group, and a routed read skips each page
//! whose zone band misses the range ([`ZoneStats::page_may_match`])
//! before touching it. The bands are answer-critical, and sound because
//! an epoch's bands cover every value it reads from a page, copy or not:
//!
//! * a write widens its zone's band when it is staged, so the epoch that
//!   acknowledges it already covers the new value;
//! * commit comes before fold: the store only ever receives values the
//!   current epoch's bands cover, every older epoch is unpinned (grace),
//!   and epochs pinned mid-round read the folded pages from their copies;
//! * bands never narrow: once the column loads they only widen, so a
//!   later epoch's band covers everything an earlier one's did.
//!
//! A full scan (no route) visits every page.
//!
//! # Conjunctive reads, page by page
//!
//! Page `i` of every column holds rows `[511 i, 511 i + 511)`, so a
//! conjunctive read intersects its predicates' routed page sets (a linear
//! merge; each set holds its column's copied pages the predicate meets)
//! and drops every page of the intersection that some predicate column's
//! zone band rejects, before it reads a value. It then filters each
//! remaining page once: the page's valid slots narrow by one
//! [`asv_storage::QualifyMask`] per predicate, each read from the column's
//! copy of the page if it has one, and the survivors fold straight into
//! the answer. No row list is built and no row is probed or evaluated on
//! its own.
//!
//! # The ingest front door
//!
//! Writer threads send writes through cloneable [`TableWriter`] handles
//! ([`ServeTable::writer`]): one MPSC lane carries acknowledged writes from
//! any number of writer threads to the maintenance thread, which drains it
//! at the top of each [`ServeTable::tick`] — so staged writes become
//! readable at the same tick boundary as direct maintenance-thread writes,
//! and commit-before-fold / grace-before-fold are untouched (draining
//! happens strictly before the tick's first publish). The lane is a FIFO
//! channel, so writes from one writer thread apply in send order.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, PoisonError, RwLock};

use asv_storage::{
    copy_values_chunked, Column, PageRef, QualifyMask, ScanKernel, ScanMode, ScanOutput,
};
use asv_util::{EpochCell, Pinned, Reader, Timer, ValueRange};
use asv_vmem::{Backend, MappingTable, ViewBuffer, VmemError, VALUES_PER_PAGE};

use crate::align::{plan_alignment_chunked, snapshot_alignment, AlignmentPlan, ViewOp};
use crate::config::AdaptiveConfig;
use crate::creation::page_meets_range;
use crate::router::{greedy_cover, smallest_cover};
use crate::wal::{self, FaultPlan, Head, Journal, JournalReader, JournalScan, WalRecord};
use crate::zones::ZoneStats;

/// Frozen metadata of one partial view inside an epoch: its covered range
/// and the set of physical pages it holds, ascending.
///
/// No view buffer is mapped for a served partial view: readers scan the
/// listed pages through the column's full view (slot `i` = physical page
/// `i`, never remapped) — the paper's explicit page-id vector, read
/// through virtual memory (§3.2).
#[derive(Clone, Debug)]
pub struct ViewMeta {
    /// The value range the view covers.
    pub range: ValueRange,
    /// Physical page ids the view maps, ascending and duplicate-free.
    pub phys: Vec<usize>,
}

/// The frozen per-column state of one epoch.
pub struct ColumnEpoch<B: Backend> {
    /// The column's own full view (slot `i` = physical page `i`), shared
    /// with the column and across all of its epochs.
    full_view: Arc<B::View>,
    num_rows: usize,
    num_pages: usize,
    /// Partial-view metadata, one entry per installed view; views a chunk
    /// left untouched share their `Arc` across epochs.
    views: Vec<Arc<ViewMeta>>,
    /// The copy of every page written since its last retirement, as
    /// `(physical page id, band, slots)` sorted by page id. The slots are
    /// the page's acknowledged content; the band covers every value
    /// written to the page since the copy was taken. A fold may write
    /// these pages concurrently with readers of this epoch; the copy is the
    /// race-free source. Sorted so an ascending page walk finds its copies
    /// with a cursor and a point read with a binary search.
    copies: Vec<(usize, ValueRange, Arc<Vec<u64>>)>,
    /// Zone statistics: they order conjunctive predicates and decide which
    /// routed pages a read skips, so they must cover every value this
    /// epoch reads from a page (see the [module docs](self)).
    stats: Arc<ZoneStats>,
}

impl<B: Backend> ColumnEpoch<B> {
    /// The raw slots of physical page `phys`: the epoch's copy if the
    /// page has one, the live store page otherwise.
    fn page_raw(&self, phys: usize) -> &[u64] {
        match self
            .copies
            .binary_search_by_key(&phys, |&(page, _, _)| page)
        {
            Ok(idx) => self.copies[idx].2.as_slice(),
            Err(_) => self.full_view.page(phys),
        }
    }

    /// Routing over the frozen view metadata and page copies: the
    /// ascending physical pages a scan of `range` visits, or `None` for a
    /// full scan.
    ///
    /// The smallest view covering `range` on its own wins if it beats the
    /// full scan. Otherwise a greedy multi-view cover is used if the union
    /// of its page sets is smaller than the column; the union is a linear
    /// merge, so a page shared by two views is listed once. Every copied
    /// page whose band meets `range` joins the views' pages by the same
    /// merge: the views hold the pages with a value in `range` as of their
    /// last alignment, and each value written since lies on a copied page,
    /// inside its band.
    fn route(&self, range: &ValueRange) -> Option<Cow<'_, [usize]>> {
        let views = self.view_pages(range)?;
        let written: Vec<usize> = self
            .copies
            .iter()
            .filter(|(_, band, _)| band.overlaps(range))
            .map(|&(page, _, _)| page)
            .collect();
        if written.is_empty() {
            return Some(views);
        }
        Some(Cow::Owned(union_sorted(&views, &written)))
    }

    /// The views' half of [`Self::route`]: the ascending pages of the
    /// smallest view covering `range`, else of a greedy multi-view cover,
    /// or `None` if neither beats a full scan.
    fn view_pages(&self, range: &ValueRange) -> Option<Cow<'_, [usize]>> {
        let candidates = self.views.iter().map(|v| (v.range, v.phys.len()));
        if let Some((idx, pages)) = smallest_cover(candidates.clone(), range) {
            return (pages < self.num_pages)
                .then(|| Cow::Borrowed(self.views[idx].phys.as_slice()));
        }
        let cover = greedy_cover(candidates, range)?;
        let mut sets = cover
            .views
            .iter()
            .map(|&idx| self.views[idx].phys.as_slice());
        let first = sets.next()?.to_vec();
        let pages = sets.fold(first, |acc, set| union_sorted(&acc, set));
        (pages.len() < self.num_pages).then_some(Cow::Owned(pages))
    }

    /// Scans the ascending physical pages `phys` in order. Each page's
    /// slots are resolved once: a cursor walks the page-sorted `copies`
    /// alongside the pages, so the walk costs one comparison per page plus
    /// one per copy. The slice resolved as one page's successor, to
    /// prefetch, is the page scanned next. Its valid count follows from
    /// its pageID slot, which copies keep, once it is scanned.
    fn scan_phys(
        &self,
        kernel: &ScanKernel<'_>,
        mode: ScanMode,
        phys: impl Iterator<Item = usize>,
    ) -> ScanOutput {
        let mut out = ScanOutput::new(mode);
        let mut copies = self.copies.iter().peekable();
        let mut prev = None;
        let resolve = |phys: usize| {
            debug_assert!(prev < Some(phys), "pages are scanned ascending");
            prev = Some(phys);
            while copies.next_if(|&&(page, _, _)| page < phys).is_some() {}
            match copies.next_if(|&&(page, _, _)| page == phys) {
                Some((_, _, copy)) => copy.as_slice(),
                None => self.full_view.page(phys),
            }
        };
        kernel.scan_pages(
            phys.map(resolve),
            |raw| PageRef::new(raw, valid_rows(self.num_rows, raw[0] as usize)),
            &mut out,
        );
        out
    }

    /// Routed range scan. A written page is read from its copy, so every
    /// acknowledged write counts exactly once. Pages are visited in
    /// ascending physical order, so collected rows come out ascending
    /// without a sort.
    ///
    /// A routed page whose zone band misses `range` is skipped
    /// ([`ZoneStats::page_may_match`]): the epoch's bands cover every
    /// value its pages and copies hold (see the [module docs](self)). A
    /// full scan visits every page.
    ///
    /// The page loop hands every page its successor to prefetch
    /// ([`ScanKernel::scan_pages`]).
    fn scan(&self, range: &ValueRange, mode: ScanMode) -> ScanOutput {
        let kernel = ScanKernel::new(*range, mode);
        match self.route(range) {
            Some(pages) => {
                let may_match = |&page: &usize| self.stats.page_may_match(page, range);
                self.scan_phys(&kernel, mode, pages.iter().copied().filter(may_match))
            }
            None => self.scan_phys(&kernel, mode, 0..self.num_pages),
        }
    }

    /// Point read of `row` through its page's copy, if it has one; `None`
    /// past the column's end.
    fn value(&self, row: usize) -> Option<u64> {
        let (page, slot) = (row / VALUES_PER_PAGE, row % VALUES_PER_PAGE);
        (row < self.num_rows).then(|| self.page_raw(page)[1 + slot])
    }
}

/// How many of the first `num_rows` rows page `page` holds: the last page
/// of a column may be partially filled, and pages past the data (a store
/// sized with spare capacity) hold none.
fn valid_rows(num_rows: usize, page: usize) -> usize {
    num_rows
        .saturating_sub(page * VALUES_PER_PAGE)
        .min(VALUES_PER_PAGE)
}

/// The ascending intersection of two ascending, duplicate-free page sets,
/// by a linear merge: the counterpart of [`union_sorted`].
fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut b = b.iter().peekable();
    let mut in_b = |page: &usize| {
        while b.next_if(|&other| other < page).is_some() {}
        b.next_if_eq(&page).is_some()
    };
    a.iter().copied().filter(|page| in_b(page)).collect()
}

/// The ascending union of two ascending, duplicate-free page sets.
fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl<B: Backend> std::fmt::Debug for ColumnEpoch<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnEpoch")
            .field("num_rows", &self.num_rows)
            .field("num_views", &self.views.len())
            .field("copied_pages", &self.copies.len())
            .finish()
    }
}

/// One published epoch of the whole table: a consistent multi-column
/// snapshot readers pin with a single [`TableHandle::pin`].
pub struct TableEpoch<B: Backend> {
    columns: Vec<Arc<ColumnEpoch<B>>>,
    generation: u64,
}

impl<B: Backend> TableEpoch<B> {
    /// The table generation this epoch was published as.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl<B: Backend> std::fmt::Debug for TableEpoch<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableEpoch")
            .field("generation", &self.generation)
            .field("columns", &self.columns)
            .finish()
    }
}

/// Aggregate answer of a range query: qualifying-row count and value
/// checksum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RangeAnswer {
    /// Number of qualifying rows.
    pub count: u64,
    /// Sum of the qualifying values (the result checksum).
    pub sum: u128,
}

/// Answer of a conjunctive query, summarized order-independently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConjunctiveAnswer {
    /// Number of rows satisfying every predicate.
    pub count: u64,
    /// Order-independent checksum over the surviving row ids.
    pub rows_checksum: u64,
}

impl ConjunctiveAnswer {
    /// The answer of a conjunctive query whose qualifying rows are `rows`,
    /// in any order: `rows_checksum` is the wrapping sum of a per-row mix,
    /// so it does not depend on the order rows are found in.
    pub fn from_rows(rows: impl IntoIterator<Item = u64>) -> Self {
        let mut answer = Self::default();
        rows.into_iter().for_each(|row| answer.add_row(row));
        answer
    }

    fn add_row(&mut self, row: u64) {
        self.count += 1;
        let mix = splitmix64(row.wrapping_add(1));
        self.rows_checksum = self.rows_checksum.wrapping_add(mix);
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A cloneable, sendable handle readers use to pin snapshots of a
/// [`ServeTable`]. Obtained from [`ServeTable::handle`]; cloning
/// registers an independent reader slot, so each reader thread should
/// carry its own handle.
pub struct TableHandle<B: Backend> {
    reader: Reader<TableEpoch<B>>,
}

impl<B: Backend> TableHandle<B> {
    /// Pins the latest published epoch: two atomic stores, no lock, never
    /// blocked by the maintenance thread. The snapshot stays valid (and
    /// its epoch unreclaimed) until dropped.
    pub fn pin(&self) -> Snapshot<B> {
        Snapshot {
            pinned: self.reader.pin(),
        }
    }
}

impl<B: Backend> Clone for TableHandle<B> {
    fn clone(&self) -> Self {
        Self {
            reader: self.reader.clone(),
        }
    }
}

impl<B: Backend> std::fmt::Debug for TableHandle<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableHandle").finish_non_exhaustive()
    }
}

/// An epoch-consistent read snapshot of the whole table.
///
/// All queries on one snapshot observe the same epoch; pinning again
/// ([`TableHandle::pin`]) observes later commits.
pub struct Snapshot<B: Backend> {
    pinned: Pinned<TableEpoch<B>>,
}

impl<B: Backend> Snapshot<B> {
    /// The table generation of the pinned epoch.
    pub fn generation(&self) -> u64 {
        self.pinned.generation()
    }

    /// Number of columns in the pinned epoch.
    pub fn num_columns(&self) -> usize {
        self.pinned.columns.len()
    }

    /// Number of rows of column `col`.
    ///
    /// # Panics
    /// Panics if `col` is not a column of the pinned epoch.
    pub fn num_rows(&self, col: usize) -> usize {
        self.column(col).num_rows
    }

    fn column(&self, col: usize) -> &ColumnEpoch<B> {
        &self.pinned.columns[col]
    }

    /// Point read of `(col, row)`, through the page's copy if it has one:
    /// `None` if `col` is not a column of the pinned epoch or `row` is past
    /// its end.
    pub fn value(&self, col: usize, row: usize) -> Option<u64> {
        self.pinned.columns.get(col)?.value(row)
    }

    /// Routed range scan of column `col`: count and value checksum of the
    /// rows whose value falls into `range`.
    ///
    /// # Panics
    /// Panics if `col` is not a column of the pinned epoch.
    pub fn query_range(&self, col: usize, range: &ValueRange) -> RangeAnswer {
        let out = self.column(col).scan(range, ScanMode::Aggregate);
        RangeAnswer {
            count: out.result.count,
            sum: out.result.sum,
        }
    }

    /// Routed range scan collecting the qualifying row ids, ascending.
    ///
    /// # Panics
    /// Panics if `col` is not a column of the pinned epoch.
    pub fn collect_rows(&self, col: usize, range: &ValueRange) -> Vec<u64> {
        self.column(col)
            .scan(range, ScanMode::CollectRows)
            .rows
            .unwrap_or_default()
    }

    /// Conjunctive query over `(column, range)` predicates: the rows whose
    /// value satisfies every predicate, as a count and an order-independent
    /// row checksum ([`ConjunctiveAnswer::from_rows`]).
    ///
    /// One page pass over the intersection of the predicates' routed page
    /// sets, each holding its column's copied pages the predicate meets,
    /// minus the pages some predicate column's zone band rejects (see the
    /// [module docs](self)); a predicate no view covers contributes every
    /// page. Predicates apply in ascending order of
    /// estimated cardinality, input order breaking ties. A row past the
    /// end of any predicate column qualifies for nothing.
    ///
    /// # Panics
    /// Panics if `predicates` is empty or names an out-of-range column.
    pub fn query_conjunctive(&self, predicates: &[(usize, ValueRange)]) -> ConjunctiveAnswer {
        assert!(!predicates.is_empty(), "conjunctive query needs predicates");
        let mut order: Vec<usize> = (0..predicates.len()).collect();
        order.sort_by_key(|&i| {
            let (col, range) = &predicates[i];
            (self.column(*col).stats.estimate(range).est_rows, i)
        });
        let preds: Vec<(&ColumnEpoch<B>, &ValueRange)> = order
            .iter()
            .map(|&i| (self.column(predicates[i].0), &predicates[i].1))
            .collect();
        let num_rows = preds.iter().map(|(column, _)| column.num_rows).min();
        let num_rows = num_rows.unwrap_or_default();
        let num_pages = num_rows.div_ceil(VALUES_PER_PAGE);
        let routed = preds
            .iter()
            .filter_map(|(column, range)| column.route(range))
            .reduce(|a, b| Cow::Owned(intersect_sorted(&a, &b)));
        match routed.as_deref() {
            Some(pages) => {
                let pages = &pages[..pages.partition_point(|&page| page < num_pages)];
                let may_match = |&page: &usize| {
                    let hits = |&(column, range): &(&ColumnEpoch<B>, _)| {
                        column.stats.page_may_match(page, range)
                    };
                    preds.iter().all(hits)
                };
                let pages = pages.iter().copied().filter(may_match);
                filter_conjunctive_pages(&preds, num_rows, pages)
            }
            None => filter_conjunctive_pages(&preds, num_rows, 0..num_pages),
        }
    }
}

/// The page pass of [`Snapshot::query_conjunctive`] over the ascending
/// `pages`, all holding rows below `num_rows`, each read from its copy
/// where the column has one. Each predicate column's next page is
/// prefetched while its current one is filtered.
fn filter_conjunctive_pages<B: Backend>(
    preds: &[(&ColumnEpoch<B>, &ValueRange)],
    num_rows: usize,
    pages: impl Iterator<Item = usize>,
) -> ConjunctiveAnswer {
    let mut answer = ConjunctiveAnswer::default();
    let mut pages = pages.peekable();
    while let Some(page) = pages.next() {
        let first_row = page * VALUES_PER_PAGE;
        let valid = valid_rows(num_rows, page);
        let mut mask = QualifyMask::valid(valid);
        let next = pages.peek().copied();
        for (column, range) in preds {
            if mask.is_empty() {
                break;
            }
            let page_ref = PageRef::new(column.page_raw(page), valid);
            page_ref.retain_qualifying(next.map(|next| column.page_raw(next)), range, &mut mask);
        }
        mask.slots()
            .for_each(|slot| answer.add_row((first_row + slot) as u64));
    }
    answer
}

impl<B: Backend> Clone for Snapshot<B> {
    fn clone(&self) -> Self {
        Self {
            pinned: self.pinned.clone(),
        }
    }
}

impl<B: Backend> std::fmt::Debug for Snapshot<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("generation", &self.generation())
            .finish()
    }
}

/// One acknowledged write travelling the ingest lane.
#[derive(Clone, Copy, Debug)]
struct IngestWrite {
    col: usize,
    row: usize,
    value: u64,
}

/// A cloneable multi-producer write handle onto a [`ServeTable`]
/// ([`ServeTable::writer`]): the ingest front door.
///
/// Any number of threads may hold clones and call [`TableWriter::write`]
/// concurrently — each write travels the table's one MPSC lane and is
/// staged by the maintenance thread at the next [`ServeTable::tick`].
/// Writes from one writer thread apply in send order (per-writer FIFO);
/// writes to different rows from different writers may interleave
/// arbitrarily, which is answer-preserving because a write replaces its
/// row's value in the page copy: the last write *per row* wins.
///
/// A write naming a missing column or a row past its column's end is
/// rejected before it is sent. The writer checks against the table's
/// column shapes, which never change once a column is added, and sees
/// columns added after it was created.
///
/// Callers that need a quiescent table ([`ServeTable::quiesce`]) should
/// stop (join) their writer threads first — a writer racing the drain
/// can always re-stage new work.
#[derive(Clone, Debug)]
pub struct TableWriter {
    sender: mpsc::Sender<IngestWrite>,
    column_rows: Arc<RwLock<Vec<usize>>>,
}

impl TableWriter {
    /// Sends an acknowledged write of `value` into `(col, row)` through
    /// the ingest lane. Never blocks.
    ///
    /// Returns [`VmemError::OutOfBounds`], and sends nothing, for a missing
    /// column or a row past its end, and a [`VmemError::Io`] of kind
    /// [`std::io::ErrorKind::BrokenPipe`] once the [`ServeTable`] has been
    /// dropped.
    pub fn write(&self, col: usize, row: usize, value: u64) -> Result<(), VmemError> {
        let rows = self.column_rows.read();
        let rows = rows.unwrap_or_else(PoisonError::into_inner);
        check_rows(std::iter::once(row), rows[column_index(col, rows.len())?])?;
        drop(rows);
        self.sender
            .send(IngestWrite { col, row, value })
            .map_err(|_| {
                let kind = std::io::ErrorKind::BrokenPipe;
                VmemError::Io(std::io::Error::new(kind, "serve table dropped"))
            })
    }
}

/// A served partial view: the slot → page table the planner's ops keep (as
/// a buffer keeps its own after each rewiring call) and the frozen page set
/// readers route to. No view buffer is mapped for it.
struct ServeView {
    table: MappingTable,
    meta: Arc<ViewMeta>,
}

impl ServeView {
    /// The view of `range` over `column`: every page holding a value in the
    /// range, in ascending slots.
    fn build<B: Backend>(column: &Column<B>, range: ValueRange) -> Self {
        let mut table = MappingTable::new();
        let pages = (0..column.num_pages()).filter(|&page| page_meets_range(column, page, &range));
        for (slot, page) in pages.enumerate() {
            table.insert(slot, page);
        }
        let phys = table.iter().map(|(_, page)| page).collect();
        Self {
            table,
            meta: Arc::new(ViewMeta { range, phys }),
        }
    }

    /// Replays one chunk's planned `ops` onto the table and rebuilds the
    /// sorted page set.
    fn replay(&mut self, ops: &[ViewOp]) {
        for op in ops {
            match *op {
                ViewOp::Map { slot, phys_page } => self.table.insert(slot, phys_page),
                ViewOp::Truncate { mapped_pages } => self.table.truncate(mapped_pages),
            }
        }
        debug_assert_eq!(
            self.table.len(),
            self.table.slot_span(),
            "planned ops keep a view's slots dense"
        );
        self.meta = Arc::new(ViewMeta {
            range: self.meta.range,
            phys: self.table.phys_pages_sorted(),
        });
    }
}

/// The maintainer-owned mutable state of one column.
struct ColumnState<B: Backend> {
    column: Column<B>,
    /// Installed partial views; a view's position is its id in alignment
    /// plans (views are only ever appended).
    views: Vec<ServeView>,
    /// Writes awaiting the next fold, in arrival order: the fold hands
    /// them to [`Column::write_batch`], whose last write per row wins.
    queued: Vec<(usize, u64)>,
    /// The distinct rows of `queued`: the depth
    /// [`ServeTable::queued_writes`] reports and the fold threshold
    /// (`group_commit_idle`) compares.
    queued_rows: HashSet<usize>,
    stats: ZoneStats,
    /// The copy of every page written since its last retirement, with the
    /// band of the values written to it since, mirrored into each published
    /// epoch (see the copies field of [`ColumnEpoch`]). A staged write
    /// lands in its page's copy ([`Self::write_copy`]).
    ///
    /// Invariant: a copy differs from its live store page only at queued
    /// rows. Before a fold the store lacks every queued write; the fold
    /// writes all of them, so afterwards it lacks only the writes queued
    /// since. Retirement therefore drops the copy of every page without a
    /// queued row: the store holds its values and the round has aligned
    /// the views to them.
    copies: BTreeMap<usize, (ValueRange, Arc<Vec<u64>>)>,
    /// Planned chunks of the current round awaiting publication, in
    /// publication order; one is published per tick.
    ready: VecDeque<AlignmentPlan>,
    /// `true` between a fold and the retirement of its rows.
    round_active: bool,
    /// Cumulative alignment activity (see [`AlignActivity`]).
    activity: AlignActivity,
    /// Publish latency samples (µs per published chunk), drained by
    /// [`ServeTable::drain_publish_micros`].
    publish_micros: Vec<u64>,
    /// Cached epoch of the column, invalidated on any change.
    cached: Option<Arc<ColumnEpoch<B>>>,
}

impl<B: Backend> ColumnState<B> {
    fn mark_dirty(&mut self) {
        self.cached = None;
    }

    fn is_idle(&self) -> bool {
        self.ready.is_empty() && !self.round_active
    }

    /// Writes `value` into the copy of `row`'s page and widens the copy's
    /// band to cover it. The page is copied from the store on its first
    /// write since its last retirement. A copy a published epoch still
    /// holds is cloned before the write (`Arc::make_mut`), so no pinned
    /// reader sees it.
    fn write_copy(&mut self, row: usize, value: u64) {
        let page = row / VALUES_PER_PAGE;
        let (band, copy) = self.copies.entry(page).or_insert_with(|| {
            let slots = copy_values_chunked(self.column.page_ref(page).raw());
            (ValueRange::point(value), Arc::new(slots))
        });
        *band = band.hull(&ValueRange::point(value));
        Arc::make_mut(copy)[1 + row % VALUES_PER_PAGE] = value;
    }

    /// The column's frozen epoch, rebuilt only if something changed since
    /// the last publish.
    fn epoch(&mut self) -> Arc<ColumnEpoch<B>> {
        if let Some(cached) = &self.cached {
            return Arc::clone(cached);
        }
        let epoch = Arc::new(ColumnEpoch {
            full_view: self.column.shared_full_view(),
            num_rows: self.column.num_rows(),
            num_pages: self.column.num_pages(),
            views: self.views.iter().map(|v| Arc::clone(&v.meta)).collect(),
            copies: self
                .copies
                .iter()
                .map(|(&page, (band, copy))| (page, *band, Arc::clone(copy)))
                .collect(),
            stats: Arc::new(self.stats.clone()),
        });
        self.cached = Some(Arc::clone(&epoch));
        epoch
    }

    /// Pages whose copy breaks the `copies` invariant: it differs from the
    /// live store page in the pageID slot or at a row that is not queued,
    /// or its band misses the value a queued row holds.
    #[cfg(test)]
    fn inexact_copies(&self) -> Vec<usize> {
        self.copies
            .iter()
            .filter(|(&page, (band, copy))| {
                let live = self.column.page_ref(page).raw();
                let first_row = page * VALUES_PER_PAGE;
                let inexact = |slot: usize| {
                    if self.queued_rows.contains(&(first_row + slot - 1)) {
                        !band.contains(copy[slot])
                    } else {
                        copy[slot] != live[slot]
                    }
                };
                copy[0] != live[0] || (1..live.len()).any(inexact)
            })
            .map(|(&page, _)| page)
            .collect()
    }

    /// Pages breaking the soundness of the zone bands reads prune with: a
    /// valid slot of what the next epoch reads for the page — its copy if
    /// it has one, else the live store page — holds a value its zone's
    /// band misses.
    #[cfg(test)]
    fn inexact_bands(&self) -> Vec<usize> {
        let num_rows = self.column.num_rows();
        (0..self.column.num_pages())
            .filter(|&page| {
                let raw = match self.copies.get(&page) {
                    Some((_, copy)) => copy.as_slice(),
                    None => self.column.page_ref(page).raw(),
                };
                let zone = self.stats.zone_of_row(page * VALUES_PER_PAGE);
                let band = self.stats.zone_band(zone);
                let valid = &raw[1..=valid_rows(num_rows, page)];
                valid
                    .iter()
                    .any(|&value| !band.is_some_and(|band| band.contains(value)))
            })
            .collect()
    }
}

/// Cumulative alignment activity of a column (or, summed, of a whole
/// [`ServeTable`]): how many views were actually planned versus how many
/// were live across all folded rounds. `planned_views / candidate_views`
/// is the share of views the batches met; the snapshot skips the rest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AlignActivity {
    /// Number of alignment rounds folded.
    pub rounds: u64,
    /// Views snapshotted and planned across all rounds.
    pub planned_views: u64,
    /// Live views at fold time, summed across all rounds (the work
    /// planning every view would have done).
    pub candidate_views: u64,
}

impl AlignActivity {
    fn absorb(&mut self, other: &AlignActivity) {
        self.rounds += other.rounds;
        self.planned_views += other.planned_views;
        self.candidate_views += other.candidate_views;
    }
}

/// Durability knobs of a serving table ([`ServeTable::with_durability`]).
///
/// A durable table appends every state-changing operation — column
/// loads, view installs, acknowledged write batches — to a write-ahead
/// journal ([`crate::wal`]) *before* acknowledging it, and seals each
/// published epoch that journaled one with a [`WalRecord::Seal`]. Epochs
/// that journal nothing (alignment chunks, round retirements) publish
/// unsealed: there is nothing new to make durable.
/// [`ServeTable::recover`] rebuilds the table from the journal alone: the
/// physical store is reconstructed from the sealed records, so store
/// flushing is an optimization, never a correctness requirement.
/// Recovery reads the journal in two passes through one bounded buffer,
/// streams each column load into its store and writes nothing the
/// journal already holds (it only cuts an unsealed tail);
/// [`ServeTable::quiesce`] is the one place the journal is compacted to
/// a checkpoint.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Path of the journal file.
    pub journal_path: PathBuf,
    /// How many seals may accumulate before the journal is fsynced: `1`
    /// (the default) syncs every commit that sealed a record — one fsync
    /// per tick that acknowledged a write — `n > 1` groups `n` sealing
    /// commits per sync, `0` syncs only at [`ServeTable::quiesce`].
    pub fsync_every_chunks: usize,
    /// Deterministic fault injection for crash tests ([`FaultPlan`]).
    pub fault: Option<FaultPlan>,
}

impl DurabilityConfig {
    /// Durability at `journal_path`: an fsync per sealing commit, no
    /// fault.
    pub fn new(journal_path: impl Into<PathBuf>) -> Self {
        Self {
            journal_path: journal_path.into(),
            fsync_every_chunks: 1,
            fault: None,
        }
    }

    /// Builder-style setter for the commits-per-fsync group size.
    pub fn with_fsync_every_chunks(mut self, fsync_every_chunks: usize) -> Self {
        self.fsync_every_chunks = fsync_every_chunks;
        self
    }

    /// Builder-style setter for the injected fault plan.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// What [`ServeTable::recover`] found in the journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// The last sealed epoch: the last one that journaled a record (`0`
    /// if the journal sealed nothing).
    pub sealed_epoch: u64,
    /// Sealed records replayed (column loads, view installs, batches and
    /// seals).
    pub records_replayed: usize,
    /// Acknowledged write batches re-applied.
    pub batches_applied: usize,
    /// Bytes of unsealed tail discarded past the last seal.
    pub discarded_bytes: u64,
}

/// The journal state of a durable table.
struct DurableState {
    journal: Journal,
    config: DurabilityConfig,
    /// Seals appended since the last fsync (drives `fsync_every_chunks`).
    seals_since_sync: usize,
    /// `true` if a record was appended since the last seal: only then does
    /// a commit seal (and count toward `fsync_every_chunks`).
    unsealed: bool,
}

/// A table served concurrently: owned (and mutated) by one maintenance
/// thread, read by any number of [`TableHandle`] holders.
///
/// See the [module docs](self) for the epoch protocol. The serving
/// behaviour is driven by three methods:
///
/// * [`ServeTable::try_write`] / [`ServeTable::try_write_batch`] (and
///   [`TableWriter`]s) stage writes,
/// * [`ServeTable::tick`] publishes staged acknowledgements, advances
///   alignment rounds one chunk at a time and folds the queue when the
///   group-commit threshold and the grace condition allow,
/// * [`ServeTable::quiesce`] ticks until every queued write is folded,
///   aligned and retired (it waits for readers to unpin old epochs).
pub struct ServeTable<B: Backend> {
    backend: B,
    config: AdaptiveConfig,
    columns: Vec<ColumnState<B>>,
    cell: Arc<EpochCell<TableEpoch<B>>>,
    /// Every published epoch still possibly alive, oldest first; the last
    /// entry is the current epoch.
    history: Vec<Arc<TableEpoch<B>>>,
    generation: u64,
    /// `true` while un-published changes (staged writes, applied chunks,
    /// retirements) exist.
    staged: bool,
    /// Receiving end of the ingest lane, drained at each tick.
    lane: mpsc::Receiver<IngestWrite>,
    /// Sending end, cloned into every [`TableWriter`].
    lane_sender: mpsc::Sender<IngestWrite>,
    /// Row count per column, shared with every [`TableWriter`] so it can
    /// reject bad writes before sending them; only `add_column` grows it.
    column_rows: Arc<RwLock<Vec<usize>>>,
    /// Write-ahead journal of a durable table (`None` on an in-memory
    /// one).
    durable: Option<DurableState>,
}

impl<B: Backend> ServeTable<B> {
    /// Creates an empty serving table on `backend`.
    pub fn new(backend: B, config: AdaptiveConfig) -> Self {
        let cell = Arc::new(EpochCell::new(TableEpoch {
            columns: Vec::new(),
            generation: 0,
        }));
        let history = vec![cell.latest()];
        let (lane_sender, lane) = mpsc::channel();
        Self {
            backend,
            config,
            columns: Vec::new(),
            cell,
            history,
            generation: 0,
            staged: false,
            lane,
            lane_sender,
            column_rows: Arc::default(),
            durable: None,
        }
    }

    /// Creates an empty *durable* serving table: every state-changing
    /// operation is appended to the write-ahead journal at
    /// `durability.journal_path` before it is acknowledged, and every
    /// published epoch that journaled one is sealed. Any existing file at
    /// the path is truncated — use [`ServeTable::recover`] to restore one.
    pub fn with_durability(
        backend: B,
        config: AdaptiveConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, VmemError> {
        let journal = Journal::create(durability.journal_path.clone(), durability.fault)?;
        let mut table = Self::new(backend, config);
        table.durable = Some(DurableState {
            journal,
            config: durability,
            seals_since_sync: 0,
            unsealed: false,
        });
        Ok(table)
    }

    /// Rebuilds a durable serving table from its journal after a crash.
    ///
    /// Replays exactly the records up to the last valid seal — column
    /// loads, view installs and acknowledged write batches; everything
    /// past that seal (the unsealed tail a crash may leave) is discarded.
    /// The physical store is rebuilt from the journal, never read back:
    /// the journal alone is the source of truth.
    ///
    /// The journal is read twice through one bounded buffer. The first
    /// pass validates its frames and finds the sealed prefix. The second
    /// streams each column load straight into its column's store (one
    /// [`asv_vmem::PhysicalStore::fill_pages`] per column) and applies
    /// each sealed batch to the store in place, so nothing that grows with
    /// the journal or with a column is allocated on the way. Views are
    /// built, and the table published, once the prefix is applied.
    ///
    /// Recovery writes nothing the journal already holds: the sealed
    /// prefix stays as it is (same file, same bytes), an unsealed tail is
    /// cut off in place and fsynced, and appends continue behind the
    /// prefix. Only [`ServeTable::quiesce`] compacts. A kept prefix is not
    /// fsynced again: seals that reached the file but not yet the disk
    /// when the process died become durable at the recovered table's next
    /// sync, as they would have at the crashed table's. The recovered
    /// epochs are numbered above the last seal, so the seals appended
    /// later continue above it.
    pub fn recover(
        backend: B,
        config: AdaptiveConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryInfo), VmemError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&durability.journal_path)?;
        let mut reader = JournalReader::new(file);
        let scan = reader.scan()?;
        let mut table = Self::new(backend, config);
        // Epoch numbering continues across the crash.
        table.generation = scan.sealed_epoch.unwrap_or(0);
        let batches_applied = table.replay_sealed(&mut reader, &scan)?;
        let info = RecoveryInfo {
            sealed_epoch: scan.sealed_epoch.unwrap_or(0),
            records_replayed: scan.sealed_records,
            batches_applied,
            discarded_bytes: scan.discarded_bytes(),
        };
        let journal = Journal::resume(
            reader.into_inner(),
            durability.journal_path.clone(),
            scan.sealed_len,
            durability.fault,
        )?;
        table.durable = Some(DurableState {
            journal,
            config: durability,
            seals_since_sync: 0,
            unsealed: false,
        });
        Ok((table, info))
    }

    /// The second pass of recovery over the sealed prefix `scan` found:
    /// loads each column straight from the journal into its store, applies
    /// each batch to its column in place, then publishes the columns and
    /// installs the views. Returns the number of batches applied.
    fn replay_sealed<R: std::io::Read + std::io::Seek>(
        &mut self,
        journal: &mut JournalReader<R>,
        scan: &JournalScan,
    ) -> Result<usize, VmemError> {
        let mut columns: Vec<Column<B>> = Vec::new();
        let mut views: Vec<(usize, ValueRange)> = Vec::new();
        // One batch at a time, the buffer reused.
        let mut batch: Vec<(u64, u64)> = Vec::new();
        let mut batches = 0;
        journal.rewind_sealed(scan)?;
        while let Some(head) = journal.next_sealed()? {
            match head {
                Head::AddColumn { col, rows } => {
                    if col as usize != columns.len() {
                        let error = format!("column {col} added as column {}", columns.len());
                        return Err(VmemError::out_of_bounds(error));
                    }
                    let pages = rows.div_ceil(VALUES_PER_PAGE);
                    let column = Column::from_fill(self.backend.clone(), rows, pages, |slots| {
                        Ok(journal.read_values(slots)?)
                    })?;
                    columns.push(column);
                }
                Head::InstallView { col, min, max } => {
                    let col = column_index(col as usize, columns.len())?;
                    let error = || VmemError::out_of_bounds(format!("view range [{min}, {max}]"));
                    views.push((col, ValueRange::try_new(min, max).ok_or_else(error)?));
                }
                Head::Batch { col, writes } => {
                    let col = column_index(col as usize, columns.len())?;
                    let column = &mut columns[col];
                    // Read whole, then applied: the stores' cache misses
                    // overlap rather than wait on the decoding between them.
                    batch.resize(writes, (0, 0));
                    journal.read_writes(&mut batch)?;
                    let rows = batch.iter().map(|&(row, _)| usize::try_from(row));
                    check_rows(rows.map(|row| row.unwrap_or(usize::MAX)), column.num_rows())?;
                    for &(row, value) in &batch {
                        column.write(row as usize, value); // checked above
                    }
                    batches += 1;
                }
                Head::Seal { .. } => {}
            }
        }
        for column in columns {
            self.push_column(column)?;
        }
        for (col, range) in views {
            self.install_view(col, range)?;
        }
        Ok(batches)
    }

    /// Adds a column holding `values` and publishes the widened epoch.
    /// Returns the column's index. On a durable table the column load is
    /// journaled before the store is built.
    pub fn add_column(&mut self, values: &[u64]) -> Result<usize, VmemError> {
        let col = self.columns.len() as u32;
        self.journal_append(|journal| journal.append_column(col, &[values]))?;
        self.push_column(Column::from_values(self.backend.clone(), values)?)
    }

    /// Serves `column` as the next column and publishes the widened epoch.
    fn push_column(&mut self, column: Column<B>) -> Result<usize, VmemError> {
        let rows = column.num_rows();
        let stats = ZoneStats::build(&column);
        let state = ColumnState {
            views: Vec::new(),
            queued: Vec::new(),
            queued_rows: HashSet::new(),
            stats,
            copies: BTreeMap::new(),
            ready: VecDeque::new(),
            round_active: false,
            activity: AlignActivity::default(),
            publish_micros: Vec::new(),
            cached: None,
            column,
        };
        self.columns.push(state);
        self.column_rows
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .push(rows);
        self.staged = true;
        self.commit()?;
        Ok(self.columns.len() - 1)
    }

    /// Installs a partial view covering `range` on column `col` — the pages
    /// holding a value in the range, mapped nowhere — then publishes the
    /// epoch carrying it.
    ///
    /// Views are installed during setup: the call is rejected, before
    /// anything is journaled, for a missing column and while an alignment
    /// round is in flight or writes are queued, because the in-flight
    /// round's plan predates the view and would leave it misaligned.
    pub fn install_view(&mut self, col: usize, range: ValueRange) -> Result<(), VmemError> {
        let state = &self.columns[column_index(col, self.columns.len())?];
        if !state.is_idle() || !state.queued.is_empty() {
            return Err(VmemError::Unsupported(
                "install_view requires an idle column (no round in flight, no queued writes)",
            ));
        }
        self.journal_append(|journal| {
            journal.append(&WalRecord::InstallView {
                col: col as u32,
                min: range.low(),
                max: range.high(),
            })
        })?;
        let state = &mut self.columns[col];
        state.views.push(ServeView::build(&state.column, range));
        state.mark_dirty();
        self.staged = true;
        self.commit()
    }

    /// A reader handle onto this table. Clone it (or call this again) for
    /// every reader thread.
    pub fn handle(&self) -> TableHandle<B> {
        TableHandle {
            reader: self.cell.reader(),
        }
    }

    /// A multi-producer write handle (the ingest front door). Clone it for
    /// every writer thread; see [`TableWriter`].
    pub fn writer(&self) -> TableWriter {
        TableWriter {
            sender: self.lane_sender.clone(),
            column_rows: Arc::clone(&self.column_rows),
        }
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows of column `col`.
    ///
    /// # Panics
    /// Panics if `col` is not a column of the table.
    pub fn num_rows(&self, col: usize) -> usize {
        self.columns[col].column.num_rows()
    }

    /// The current (published) table generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of published epochs not yet reclaimed (including the
    /// current one).
    pub fn live_epochs(&mut self) -> usize {
        self.cell.try_reclaim();
        self.prune_history();
        self.history.len()
    }

    /// Number of distinct rows of column `col` with a write awaiting the
    /// next fold — the depth the fold threshold (`group_commit_idle`)
    /// compares. Repeated writes to one row count once; writes a fold
    /// already took count no more, even while their alignment round is in
    /// flight.
    ///
    /// # Panics
    /// Panics if `col` is not a column of the table.
    pub fn queued_writes(&self, col: usize) -> usize {
        self.columns[col].queued_rows.len()
    }

    /// The live zone statistics of column `col`. They order conjunctive
    /// predicates and, copied into each epoch, prune the routed pages of
    /// its reads. Bands are widened eagerly at write acknowledgement
    /// (before the fold) and never narrow, so they always cover every
    /// readable value.
    ///
    /// # Panics
    /// Panics if `col` is not a column of the table.
    pub fn zone_stats(&self, col: usize) -> &ZoneStats {
        &self.columns[col].stats
    }

    /// Returns `true` while column `col` has an alignment round in
    /// flight.
    ///
    /// # Panics
    /// Panics if `col` is not a column of the table.
    pub fn round_in_flight(&self, col: usize) -> bool {
        !self.columns[col].is_idle()
    }

    /// Stages a write of `value` into `(col, row)`:
    /// [`ServeTable::try_write_batch`] of one write.
    pub fn try_write(&mut self, col: usize, row: usize, value: u64) -> Result<(), VmemError> {
        self.try_write_batch(col, &[(row, value)])
    }

    /// Stages a batch of `(row, value)` writes into column `col`. The
    /// acknowledgement becomes visible to *new* pins at the next
    /// [`ServeTable::tick`]; the writer itself never blocks. On a durable
    /// table the batch is appended to the journal as one
    /// [`WalRecord::Batch`] *before* any of it is staged (write-ahead): an
    /// `Err` (a missing column, a row past its end, a failed append) means
    /// nothing was acknowledged and the serving state is unchanged, so
    /// recovery and the live table agree on exactly which writes exist.
    pub fn try_write_batch(
        &mut self,
        col: usize,
        writes: &[(usize, u64)],
    ) -> Result<(), VmemError> {
        let state = &self.columns[column_index(col, self.columns.len())?];
        check_rows(writes.iter().map(|&(row, _)| row), state.column.num_rows())?;
        if writes.is_empty() {
            return Ok(());
        }
        self.journal_append(|journal| journal.append_batch(col as u32, writes))?;
        for &(row, value) in writes {
            self.stage_write(col, row, value);
        }
        Ok(())
    }

    /// The journal-free staging path shared by every write front door.
    fn stage_write(&mut self, col: usize, row: usize, value: u64) {
        let state = &mut self.columns[col];
        debug_assert!(row < state.column.num_rows(), "row {row} out of bounds");
        state.mark_dirty();
        state.stats.note_write(row, value);
        state.write_copy(row, value);
        state.queued.push((row, value));
        state.queued_rows.insert(row);
        self.staged = true;
    }

    /// One maintenance step. Publishes staged acknowledgements, advances
    /// every column's alignment round by at most one chunk, retires
    /// completed rounds and folds queued writes into new rounds when the
    /// group-commit threshold is reached and the grace condition holds.
    /// Never blocks on readers.
    pub fn tick(&mut self) -> Result<(), VmemError> {
        self.tick_inner(false)
    }

    fn tick_inner(&mut self, force_fold: bool) -> Result<(), VmemError> {
        // Drain the ingest lane first: writes sent through TableWriters
        // stage exactly like direct writes and are published by the
        // commit below — the tick boundary is the acknowledgement point
        // for both front doors.
        self.drain_ingest()?;
        self.cell.try_reclaim();
        // Commit-before-fold invariant: every staged acknowledgement is
        // published (with its page copies) before any fold may write the
        // store.
        self.commit()?;
        for idx in 0..self.columns.len() {
            self.advance_column(idx);
        }
        self.commit()?;
        if self.grace_elapsed() {
            for idx in 0..self.columns.len() {
                self.maybe_fold(idx, force_fold);
            }
        }
        Ok(())
    }

    /// Drains the ingest lane into the staging path
    /// ([`Self::stage_write`]). The lane drains fully and in receive
    /// order, so writes from one writer thread apply FIFO. On a durable
    /// table the drained writes are journaled first (one batch record per
    /// column, in drain order), so lane-ingested writes get the same
    /// write-ahead guarantee as direct ones.
    fn drain_ingest(&mut self) -> Result<(), VmemError> {
        // The drained writes of each column, in arrival order.
        let mut drained: Vec<Vec<(usize, u64)>> = Vec::new();
        for write in self.lane.try_iter() {
            if drained.len() <= write.col {
                drained.resize_with(write.col + 1, Vec::new);
            }
            drained[write.col].push((write.row, write.value));
        }
        // Writers reject a bad `(col, row)` before sending it
        // (`TableWriter::write`), so every drained write names a live row.
        for (col, writes) in drained.iter().enumerate() {
            if !writes.is_empty() {
                self.journal_append(|journal| journal.append_batch(col as u32, writes))?;
            }
        }
        for (col, writes) in drained.into_iter().enumerate() {
            for (row, value) in writes {
                self.stage_write(col, row, value);
            }
        }
        Ok(())
    }

    /// Ticks until every queued write has been folded, aligned and
    /// retired, then publishes the final epoch. Waits (yielding) for
    /// readers to unpin superseded epochs, since folds require the grace
    /// condition — a reader that never drops its pin blocks quiescence.
    /// On a durable table this is the one place the journal is compacted:
    /// it is rewritten as a checkpoint of the quiescent table.
    pub fn quiesce(&mut self) -> Result<(), VmemError> {
        loop {
            self.tick_inner(true)?;
            let drained = !self.staged
                && self
                    .columns
                    .iter()
                    .all(|c| c.is_idle() && c.queued.is_empty());
            if drained {
                break;
            }
            std::thread::yield_now();
        }
        // A durable table seals its quiescent state and compacts the
        // journal down to a checkpoint.
        self.compact_journal()
    }

    /// Publishes the staged state as a new epoch, if anything changed. On
    /// a durable table an epoch that journaled a record since the last
    /// seal is sealed, and the journal is fsynced per
    /// `DurabilityConfig::fsync_every_chunks` — recovery replays exactly up
    /// to the last seal that reached disk. An epoch that journaled nothing
    /// publishes unsealed: a seal would make nothing new durable.
    fn commit(&mut self) -> Result<(), VmemError> {
        if !self.staged {
            return Ok(());
        }
        self.generation += 1;
        let columns: Vec<Arc<ColumnEpoch<B>>> =
            self.columns.iter_mut().map(|c| c.epoch()).collect();
        let epoch = self.cell.publish(TableEpoch {
            columns,
            generation: self.generation,
        });
        self.history.push(epoch);
        self.staged = false;
        if let Some(durable) = self.durable.as_mut().filter(|d| d.unsealed) {
            durable.journal.append(&WalRecord::Seal {
                epoch: self.generation,
            })?;
            durable.unsealed = false;
            durable.seals_since_sync += 1;
            let every = durable.config.fsync_every_chunks;
            if every > 0 && durable.seals_since_sync >= every {
                durable.journal.sync()?;
                durable.seals_since_sync = 0;
            }
        }
        Ok(())
    }

    /// Appends a record to the journal of a durable table with `append`
    /// (no-op on an in-memory one) and notes that the next commit must
    /// seal.
    fn journal_append(
        &mut self,
        append: impl FnOnce(&mut Journal) -> std::io::Result<()>,
    ) -> Result<(), VmemError> {
        if let Some(durable) = self.durable.as_mut() {
            append(&mut durable.journal)?;
            durable.unsealed = true;
        }
        Ok(())
    }

    /// Compacts the journal of a durable, quiescent table down to a
    /// checkpoint (an atomic rewrite; appends continue on the new file).
    /// An unfired fault plan carries over with its op counter adjusted for
    /// the operations already performed.
    fn compact_journal(&mut self) -> Result<(), VmemError> {
        let Some(durable) = self.durable.as_mut() else {
            return Ok(());
        };
        // Make everything appended so far durable first: with
        // `fsync_every_chunks == 0` this is the one sync point, and it is
        // where a `FailFsync` plan fires.
        durable.journal.sync()?;
        let fault = durable.journal.carryover_fault();
        durable.journal = write_checkpoint(
            &durable.config.journal_path,
            fault,
            &self.columns,
            self.generation,
        )?;
        durable.seals_since_sync = 0;
        durable.unsealed = false;
        Ok(())
    }

    /// Drops history entries whose epochs are no longer referenced by any
    /// reader or retired cell node. The current epoch always stays.
    fn prune_history(&mut self) {
        if self.history.len() <= 1 {
            return;
        }
        let current = self.history.pop().expect("history is never empty");
        self.history.retain(|epoch| Arc::strong_count(epoch) > 1);
        self.history.push(current);
    }

    /// The grace condition of a fold: every epoch except the current one
    /// has been dropped by all readers. Older epochs may lack copies of the
    /// pages a fold is about to write, so folding before they die would
    /// race their readers.
    fn grace_elapsed(&mut self) -> bool {
        self.cell.try_reclaim();
        self.prune_history();
        self.history.len() <= 1
    }

    /// Advances column `idx`'s alignment round: publishes its next planned
    /// chunk that changes a view, retiring the round once no chunk is left.
    /// Publishing replays the chunk's ops onto each changed view's table
    /// and rebuilds its sorted page set; nothing is remapped.
    ///
    /// Chunks publish strictly in order — a view's ops in chunk `k+1`
    /// assume chunk `k`'s layout. A chunk publish only changes which pages
    /// a view scans, never an answer: every page the round folded keeps
    /// its copy, which routed reads join where its band meets their range,
    /// until retirement.
    fn advance_column(&mut self, idx: usize) {
        let state = &mut self.columns[idx];
        // A chunk that changes no view publishes nothing and costs no tick.
        let next = std::iter::from_fn(|| state.ready.pop_front()).find(|c| !c.views.is_empty());
        if let Some(chunk) = next {
            let timer = Timer::start();
            for view_plan in &chunk.views {
                state.views[view_plan.view_idx].replay(&view_plan.ops);
            }
            state
                .publish_micros
                .push(timer.elapsed().as_micros() as u64);
            state.mark_dirty();
            self.staged = true;
        }
        if state.round_active && state.ready.is_empty() {
            Self::retire_round(state);
            self.staged = true;
        }
    }

    /// Completes a round: every page without a write queued since the
    /// fold drops its copy, because the store holds its values and the
    /// views are now aligned to them. A page with a queued write keeps its
    /// copy, which holds the writes the store lacks (see the `copies`
    /// invariant of [`ColumnState`]).
    fn retire_round(state: &mut ColumnState<B>) {
        let queued_pages: HashSet<usize> = state
            .queued_rows
            .iter()
            .map(|row| row / VALUES_PER_PAGE)
            .collect();
        state.copies.retain(|page, _| queued_pages.contains(page));
        state.round_active = false;
        state.mark_dirty();
    }

    /// Folds column `idx`'s queued writes into a new alignment round if
    /// the column is idle and the group-commit threshold is met. The
    /// fold writes the physical store — the caller must have verified the
    /// grace condition and published all staged acknowledgements.
    fn maybe_fold(&mut self, idx: usize, force: bool) {
        debug_assert!(!self.staged, "fold requires committed acknowledgements");
        let chunking = self.config.chunking;
        let state = &mut self.columns[idx];
        if !state.is_idle() || state.queued.is_empty() {
            return;
        }
        let threshold_met = force || state.queued_rows.len() >= chunking.group_commit_idle.max(1);
        if !threshold_met {
            return;
        }
        let folded = std::mem::take(&mut state.queued);
        state.queued_rows.clear();
        let updates = state.column.write_batch(&folded);
        state.activity.rounds += 1;
        // A round with nothing to plan leaves `ready` empty: the next
        // tick's `advance_column` retires it.
        if !state.views.is_empty() {
            let views = state.views.iter().enumerate();
            let views = views.map(|(idx, view)| (idx, idx as u64, view.meta.range, &view.table));
            let snapshot = snapshot_alignment(&state.column, views, &updates);
            state.activity.planned_views += snapshot.num_planned_views() as u64;
            state.activity.candidate_views += state.views.len() as u64;
            if snapshot.num_planned_views() > 0 {
                let plan = plan_alignment_chunked(&snapshot, chunking.chunk_updates);
                state.ready.extend(plan.chunks);
            }
        }
        state.round_active = true;
    }

    /// Cumulative alignment activity summed over all columns: rounds
    /// folded, and views planned versus views live at fold time.
    pub fn align_activity(&self) -> AlignActivity {
        let mut total = AlignActivity::default();
        for state in &self.columns {
            total.absorb(&state.activity);
        }
        total
    }

    /// Drains and returns the publish-latency samples (µs per published
    /// alignment chunk) collected since the last call, across all columns.
    pub fn drain_publish_micros(&mut self) -> Vec<u64> {
        let mut all = Vec::new();
        for state in &mut self.columns {
            all.append(&mut state.publish_micros);
        }
        all
    }
}

/// Atomically replaces the journal at `path` with a checkpoint of a
/// quiescent table's `columns` at `generation`: column loads, view
/// installs and one seal of the generation. Replaying exactly these
/// records rebuilds the table. Each column load streams from the column's
/// pages through the journal's bounded encode buffer. Returns the new
/// journal, open for appends under `fault`. Only [`ServeTable::quiesce`]
/// writes one: recovery keeps the journal it replays.
fn write_checkpoint<B: Backend>(
    path: &Path,
    fault: Option<FaultPlan>,
    columns: &[ColumnState<B>],
    generation: u64,
) -> std::io::Result<Journal> {
    wal::rewrite(path, fault, |journal| {
        for (idx, state) in columns.iter().enumerate() {
            debug_assert!(state.queued.is_empty(), "checkpoint requires folded writes");
            let column = &state.column;
            let pages: Vec<&[u64]> = (0..column.num_pages())
                .map(|page| column.page_ref(page).values())
                .collect();
            journal.append_column(idx as u32, &pages)?;
        }
        for (idx, state) in columns.iter().enumerate() {
            for view in &state.views {
                journal.append(&WalRecord::InstallView {
                    col: idx as u32,
                    min: view.meta.range.low(),
                    max: view.meta.range.high(),
                })?;
            }
        }
        journal.append(&WalRecord::Seal { epoch: generation })
    })
}

/// `col` if it names one of `len` columns, else an out-of-bounds error.
fn column_index(col: usize, len: usize) -> Result<usize, VmemError> {
    let error = || VmemError::out_of_bounds(format!("column {col} of {len}"));
    (col < len).then_some(col).ok_or_else(error)
}

/// Fails on the first of `rows` at or past `num_rows`.
fn check_rows(mut rows: impl Iterator<Item = usize>, num_rows: usize) -> Result<(), VmemError> {
    let error = |row| Err(VmemError::out_of_bounds(format!("row {row} of {num_rows}")));
    rows.find(|&row| row >= num_rows).map_or(Ok(()), error)
}

impl<B: Backend> std::fmt::Debug for ServeTable<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeTable")
            .field("columns", &self.columns.len())
            .field("generation", &self.generation)
            .field("staged", &self.staged)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::creation::build_view_for_range;
    use crate::viewset::ViewSet;
    use asv_vmem::{MmapBackend, SimBackend};

    /// Clustered data: page p holds values in [p*1000, p*1000 + 510].
    fn clustered_values(pages: usize) -> Vec<u64> {
        (0..pages * VALUES_PER_PAGE)
            .map(|i| ((i / VALUES_PER_PAGE) * 1000 + i % VALUES_PER_PAGE) as u64)
            .collect()
    }

    fn reference_answer(values: &[u64], range: &ValueRange) -> RangeAnswer {
        let mut answer = RangeAnswer::default();
        for &v in values {
            if range.contains(v) {
                answer.count += 1;
                answer.sum += v as u128;
            }
        }
        answer
    }

    fn serve_config() -> AdaptiveConfig {
        AdaptiveConfig::default().with_chunking(
            crate::config::AlignChunking::default()
                .with_chunk_updates(4)
                .with_group_commit_idle(0),
        )
    }

    #[test]
    fn snapshot_answers_match_reference_through_writes() {
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let mut mirror = clustered_values(24);
        let col = table.add_column(&mirror).unwrap();
        table
            .install_view(col, ValueRange::new(5_000, 9_400))
            .unwrap();
        let handle = table.handle();
        let ranges = [
            ValueRange::new(5_000, 9_400),
            ValueRange::new(0, 2_000),
            ValueRange::new(900_000, 1_000_000),
        ];

        let writes: Vec<(usize, u64)> = (0..40)
            .map(|i| (i * 17 % mirror.len(), 900_000 + i as u64))
            .collect();
        for chunk in writes.chunks(7) {
            table.try_write_batch(col, chunk).unwrap();
            for &(row, value) in chunk {
                mirror[row] = value;
            }
            table.tick().unwrap();
            let snap = handle.pin();
            for range in &ranges {
                assert_eq!(
                    snap.query_range(col, range),
                    reference_answer(&mirror, range),
                    "post-ack answers reflect every staged write"
                );
            }
            for &(row, value) in chunk {
                assert_eq!(snap.value(col, row), Some(value));
            }
        }
        table.quiesce().unwrap();
        let snap = handle.pin();
        for range in &ranges {
            assert_eq!(
                snap.query_range(col, range),
                reference_answer(&mirror, range)
            );
        }
        // After quiescence no page has a copy: answers come from the
        // aligned views and store alone.
        assert!(snap.column(col).copies.is_empty());
    }

    #[test]
    fn pinned_snapshot_is_immutable_across_commits() {
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let values = clustered_values(8);
        let col = table.add_column(&values).unwrap();
        let handle = table.handle();
        let range = ValueRange::new(0, 500);
        let old = handle.pin();
        let before = old.query_range(col, &range);

        table.try_write(col, 0, 999_999).unwrap();
        table.tick().unwrap();
        let new = handle.pin();
        assert!(new.generation() > old.generation());
        assert_eq!(
            old.query_range(col, &range),
            before,
            "pinned epoch keeps serving the pre-write answer"
        );
        assert_eq!(new.query_range(col, &range).count, before.count - 1);
        assert_eq!(old.value(col, 0), Some(values[0]));
        assert_eq!(new.value(col, 0), Some(999_999));

        // Superseded epochs reclaim once their pins drop.
        drop(old);
        drop(new);
        table.quiesce().unwrap();
        assert_eq!(table.live_epochs(), 1);
    }

    #[test]
    fn routed_scans_use_the_installed_view() {
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let col = table.add_column(&clustered_values(32)).unwrap();
        let range = ValueRange::new(5_000, 9_400);
        table.install_view(col, range).unwrap();
        let snap = table.handle().pin();
        let epoch = snap.column(col);
        let pages = epoch.route(&range).expect("installed view covers range");
        assert_eq!(*pages, [5, 6, 7, 8, 9]);
        // A range no view covers falls back to the full scan.
        assert!(epoch.route(&ValueRange::new(0, 100_000)).is_none());
    }

    /// The page list a snapshot of `table` routes `range` of column 0 to
    /// (`None` = full scan).
    fn routed_pages<B: Backend>(table: &ServeTable<B>, range: ValueRange) -> Option<Vec<usize>> {
        let snap = table.handle().pin();
        snap.column(0).route(&range).map(Cow::into_owned)
    }

    #[test]
    fn straddling_ranges_route_to_the_union_of_a_view_cover() {
        // Page p holds [p*1000, p*1000 + 510]; 32 pages.
        let table_with_views = |views: &[(u64, u64)]| {
            let mut table = ServeTable::new(SimBackend::new(), serve_config());
            table.add_column(&clustered_values(32)).unwrap();
            for &(lo, hi) in views {
                table.install_view(0, ValueRange::new(lo, hi)).unwrap();
            }
            table
        };
        // Adjacent ranges splitting page 9's values: both views map page 9,
        // installed right-to-left so view order is not page order.
        let adjacent = table_with_views(&[(9_401, 12_400), (5_000, 9_400)]);
        let straddling = ValueRange::new(8_000, 11_000);
        assert_eq!(
            routed_pages(&adjacent, straddling).as_deref(),
            Some(&[5, 6, 7, 8, 9, 10, 11, 12][..]),
            "ascending union, the shared page once, fewer than 32 pages"
        );
        // Overlapping ranges: pages 9 and 10 lie in both views.
        let overlapping = table_with_views(&[(5_000, 10_400), (9_000, 12_400)]);
        assert_eq!(
            routed_pages(&overlapping, straddling).as_deref(),
            Some(&[5, 6, 7, 8, 9, 10, 11, 12][..])
        );
        // A range inside one view still routes to that view alone.
        assert_eq!(
            routed_pages(&overlapping, ValueRange::new(5_500, 6_000)).as_deref(),
            Some(&[5, 6, 7, 8, 9, 10][..])
        );
        // A gap between the views falls back to the full scan.
        let gapped = table_with_views(&[(5_000, 7_400), (9_000, 12_400)]);
        assert_eq!(routed_pages(&gapped, ValueRange::new(6_000, 10_000)), None);
        // A cover whose union is the whole column is no better than it.
        let whole = table_with_views(&[(0, 16_400), (16_000, 40_000)]);
        assert_eq!(routed_pages(&whole, ValueRange::new(10_000, 20_000)), None);

        // Answers and collected rows follow the cover exactly.
        for table in [&adjacent, &overlapping, &gapped] {
            let snap = table.handle().pin();
            let values = clustered_values(32);
            for range in [straddling, ValueRange::new(6_000, 10_000)] {
                assert_eq!(
                    snap.query_range(0, &range),
                    reference_answer(&values, &range)
                );
                let expected: Vec<u64> = (0..values.len() as u64)
                    .filter(|&row| range.contains(values[row as usize]))
                    .collect();
                assert_eq!(snap.collect_rows(0, &range), expected);
            }
        }
    }

    #[test]
    fn routed_reads_add_the_copied_pages_their_range_meets() {
        // Page p holds [p*1000, p*1000 + 510]; the view holds pages 5..=9.
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let values = clustered_values(32);
        table.add_column(&values).unwrap();
        let view = ValueRange::new(5_000, 9_400);
        table.install_view(0, view).unwrap();
        // Page 20 is written into the view's range, page 21 far past it and
        // page 7, which the view holds, out of it.
        let writes = [
            (20 * VALUES_PER_PAGE + 3, 6_000),
            (21 * VALUES_PER_PAGE + 9, 900_000),
            (7 * VALUES_PER_PAGE + 1, 1),
        ];
        let mut model = values.clone();
        for (row, value) in writes {
            table.try_write(0, row, value).unwrap();
            model[row] = value;
        }
        let check_answers = |table: &ServeTable<SimBackend>, ranges: &[ValueRange]| {
            let snap = table.handle().pin();
            for range in ranges {
                assert_eq!(snap.query_range(0, range), reference_answer(&model, range));
                let rows: Vec<u64> = (0..model.len() as u64)
                    .filter(|&row| range.contains(model[row as usize]))
                    .collect();
                assert_eq!(snap.collect_rows(0, range), rows, "{range:?}");
            }
        };
        let narrow = ValueRange::new(5_500, 5_999);
        // Published, not yet folded: page 20's band [6000, 6000] meets the
        // view's range and joins it; page 21's misses every range here.
        table.tick().unwrap();
        assert_eq!(
            routed_pages(&table, view).as_deref(),
            Some(&[5, 6, 7, 8, 9, 20][..])
        );
        assert_eq!(
            routed_pages(&table, narrow).as_deref(),
            Some(&[5, 6, 7, 8, 9][..]),
            "the band of page 20 misses the range"
        );
        check_answers(&table, &[view, narrow]);
        // Once the round retires, the view holds page 20 itself and no page
        // keeps a copy.
        table.quiesce().unwrap();
        assert!(table.columns[0].copies.is_empty());
        assert_eq!(
            routed_pages(&table, view).as_deref(),
            Some(&[5, 6, 7, 8, 9, 20][..])
        );
        check_answers(&table, &[view, narrow]);
    }

    #[test]
    fn point_reads_outside_the_table_are_none() {
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let values: Vec<u64> = (0..VALUES_PER_PAGE as u64 + 5).collect();
        let col = table.add_column(&values).unwrap();
        table.try_write(col, values.len() - 1, 77).unwrap();
        table.tick().unwrap();
        let snap = table.handle().pin();
        assert_eq!(snap.value(col, 0), Some(0));
        assert_eq!(snap.value(col, values.len() - 1), Some(77), "last row");
        assert_eq!(snap.value(col, values.len()), None, "past the column");
        assert_eq!(snap.value(col, VALUES_PER_PAGE * 2), None, "past the store");
        assert_eq!(snap.value(col + 1, 0), None, "missing column");
    }

    #[test]
    fn sorted_merges_stay_ascending() {
        assert_eq!(union_sorted(&[1, 3, 5], &[2, 3, 6, 7]), [1, 2, 3, 5, 6, 7]);
        assert_eq!(union_sorted(&[], &[4]), [4]);
    }

    #[test]
    fn view_page_lists_follow_alignment_rounds() {
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let col = table.add_column(&clustered_values(32)).unwrap();
        let range = ValueRange::new(5_000, 9_400);
        table.install_view(col, range).unwrap();
        let handle = table.handle();

        // Move a value of page 20 into the view's range and wipe page 7
        // out of it.
        table
            .try_write(col, 20 * VALUES_PER_PAGE + 3, 6_000)
            .unwrap();
        for slot in 0..VALUES_PER_PAGE {
            table.try_write(col, 7 * VALUES_PER_PAGE + slot, 1).unwrap();
        }
        table.quiesce().unwrap();

        let snap = handle.pin();
        let epoch = snap.column(col);
        // Whatever slot order alignment left, the page set readers visit
        // is ascending.
        let pages = epoch.route(&range).expect("view survives alignment");
        assert_eq!(*pages, [5, 6, 8, 9, 20]);
        assert_eq!(
            snap.query_range(col, &range).count,
            // Pages 5, 6, 8 qualify fully (511 values each), page 9
            // contributes 9000..=9400 (401 values), page 7 contributes
            // nothing any more, and row (20, 3) was moved in.
            3 * VALUES_PER_PAGE as u64 + 401 + 1,
        );
    }

    #[test]
    fn conjunctive_queries_match_naive_intersection() {
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let a = clustered_values(16);
        let b: Vec<u64> = a.iter().map(|&v| v % 4_096).collect();
        let col_a = table.add_column(&a).unwrap();
        let col_b = table.add_column(&b).unwrap();
        table.try_write(col_a, 42, 5_100).unwrap();
        table.try_write(col_b, 42, 7).unwrap();
        table.tick().unwrap();

        let ra = ValueRange::new(5_000, 9_400);
        let rb = ValueRange::new(0, 100);
        let expected: Vec<u64> = (0..a.len() as u64)
            .filter(|&r| {
                let (va, vb) = if r == 42 {
                    (5_100, 7)
                } else {
                    (a[r as usize], b[r as usize])
                };
                ra.contains(va) && rb.contains(vb)
            })
            .collect();

        let snap = table.handle().pin();
        let answer = snap.query_conjunctive(&[(col_a, ra), (col_b, rb)]);
        assert_eq!(answer, ConjunctiveAnswer::from_rows(expected));
        // Predicate order must not matter.
        assert_eq!(snap.query_conjunctive(&[(col_b, rb), (col_a, ra)]), answer);
    }

    #[test]
    fn group_commit_idle_batches_folds() {
        let config = AdaptiveConfig::default()
            .with_chunking(crate::config::AlignChunking::default().with_group_commit_idle(4));
        let mut table = ServeTable::new(SimBackend::new(), config);
        let col = table.add_column(&clustered_values(8)).unwrap();
        for i in 0..3 {
            table.try_write(col, i, 700_000 + i as u64).unwrap();
            table.tick().unwrap();
            assert!(
                !table.round_in_flight(col),
                "below the group-commit threshold no round starts"
            );
        }
        table.try_write(col, 3, 700_003).unwrap();
        table.tick().unwrap();
        assert!(table.round_in_flight(col), "threshold reached: queue folds");
        // Acknowledged-but-unfolded writes were readable the whole time.
        let snap = table.handle().pin();
        assert_eq!(snap.value(col, 0), Some(700_000));
        table.quiesce().unwrap();
    }

    fn concurrent_readers_match_sequential<B: Backend>(backend: B) {
        let mut table = ServeTable::new(backend, serve_config());
        let values = clustered_values(24);
        let col = table.add_column(&values).unwrap();
        table
            .install_view(col, ValueRange::new(5_000, 9_400))
            .unwrap();
        let handle = table.handle();
        let ranges = [
            ValueRange::new(5_000, 9_400),
            ValueRange::new(1_000, 3_400),
            ValueRange::new(800_000, 900_000),
        ];

        // Sequential twin: same writes, quiesced, queried single-threaded.
        let expected: Vec<RangeAnswer> = {
            let mut mirror = values.clone();
            let len = mirror.len();
            for i in 0..200usize {
                mirror[(i * 31) % len] = 800_000 + i as u64;
            }
            ranges
                .iter()
                .map(|r| reference_answer(&mirror, r))
                .collect()
        };

        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let done = &done;
            let mut readers = Vec::new();
            for _ in 0..4 {
                let handle = handle.clone();
                readers.push(scope.spawn(move || {
                    let mut last_generation = 0;
                    while !done.load(std::sync::atomic::Ordering::Acquire) {
                        let snap = handle.pin();
                        // Generations move forward only.
                        assert!(snap.generation() >= last_generation);
                        last_generation = snap.generation();
                        // Every epoch is internally consistent: the same
                        // scan twice on one snapshot is identical.
                        let a = snap.query_range(0, &ranges[0]);
                        let b = snap.query_range(0, &ranges[0]);
                        assert_eq!(a, b);
                    }
                }));
            }
            for i in 0..200usize {
                table
                    .try_write(col, (i * 31) % values.len(), 800_000 + i as u64)
                    .unwrap();
                table.tick().unwrap();
            }
            table.quiesce().unwrap();
            done.store(true, std::sync::atomic::Ordering::Release);
            for reader in readers {
                reader.join().unwrap();
            }
        });

        let snap = handle.pin();
        for (range, want) in ranges.iter().zip(&expected) {
            assert_eq!(snap.query_range(col, range), *want);
        }
    }

    /// Hot-zone churn over 64 views partitioning the domain: at every chunk
    /// size, epochs pinned mid-round answer like the writes' mirror while
    /// later chunks publish and a second burst queues behind the round in
    /// flight, and after each round every view's page list equals a
    /// rebuild from scratch.
    fn check_churn_matches_rebuild<B: Backend>(make_backend: impl Fn() -> B) {
        use asv_workloads::{Distribution, UpdateWorkload};
        const PAGES: usize = 64;
        const VIEWS: u64 = 64;
        const MAX_VALUE: u64 = 640_000;
        let values = Distribution::Linear {
            max_value: MAX_VALUE,
        }
        .generate_pages(PAGES, 11);
        let width = MAX_VALUE / VIEWS;
        let ranges: Vec<ValueRange> = (0..VIEWS)
            .map(|i| ValueRange::new(i * width, (i + 1) * width - 1))
            .collect();
        let churn = UpdateWorkload::new(0xC4A7).hot_zone_churn(
            4,
            96,
            PAGES * VALUES_PER_PAGE,
            0.05,
            MAX_VALUE,
        );
        for chunk_updates in [1usize, 64, 0] {
            let config = AdaptiveConfig::default().with_chunking(
                crate::config::AlignChunking::default()
                    .with_chunk_updates(chunk_updates)
                    .with_group_commit_idle(0),
            );
            let mut table = ServeTable::new(make_backend(), config);
            let col = table.add_column(&values).unwrap();
            for range in &ranges {
                table.install_view(col, *range).unwrap();
            }
            let mut rebuilt = Column::from_values(make_backend(), &values).unwrap();
            let mut rebuilt_views = ViewSet::new(ranges.len());
            for range in &ranges {
                let (buffer, _) =
                    build_view_for_range(&rebuilt, range, &crate::config::CreationOptions::ALL)
                        .unwrap();
                rebuilt_views.insert_unchecked(*range, buffer);
            }
            let handle = table.handle();
            let mut mirror = values.clone();
            for (k, round) in churn.iter().enumerate() {
                let case = format!("chunk{chunk_updates}/round{k}");
                table.try_write_batch(col, &round.writes).unwrap();
                for &(row, value) in &round.writes {
                    mirror[row] = value;
                }
                let mut applied = round.writes.clone();
                // The next round's writes arrive once this round is in
                // flight: acknowledged into their pages' copies, folded
                // afterwards.
                let mut burst = Some(&churn[(k + 1) % churn.len()].writes);
                // The pin of one tick is held across the next, so chunks
                // publish while a reader sits on an older epoch.
                let mut held = None;
                loop {
                    if table.round_in_flight(col) {
                        if let Some(writes) = burst.take() {
                            table.try_write_batch(col, writes).unwrap();
                            for &(row, value) in writes {
                                mirror[row] = value;
                            }
                            applied.extend_from_slice(writes);
                        }
                    }
                    table.tick().unwrap();
                    if !table.round_in_flight(col) && table.queued_writes(col) == 0 {
                        break;
                    }
                    let snap = handle.pin();
                    for range in &ranges {
                        assert_eq!(
                            snap.query_range(col, range),
                            reference_answer(&mirror, range),
                            "{case}: mid-round answer"
                        );
                    }
                    held = Some(snap);
                }
                drop(held);
                table.quiesce().unwrap();
                assert!(burst.is_none(), "{case}: the burst queued mid-round");
                rebuilt.write_batch(&applied);
                crate::updates::rebuild_all_views(
                    &rebuilt,
                    &mut rebuilt_views,
                    &crate::config::CreationOptions::ALL,
                )
                .unwrap();
                let snap = handle.pin();
                for (idx, (_, view)) in rebuilt_views.iter().enumerate() {
                    assert_eq!(
                        table.columns[col].views[idx].meta.phys,
                        view.buffer().mapping().phys_pages_sorted(),
                        "{case}: view {idx} page set"
                    );
                    assert_eq!(
                        snap.query_range(col, view.range()),
                        reference_answer(&mirror, view.range()),
                        "{case}: view {idx} answer"
                    );
                }
            }
            let activity = table.align_activity();
            assert!(
                activity.planned_views < activity.candidate_views,
                "chunk{chunk_updates}: hot-zone churn leaves most views unplanned"
            );
        }
    }

    /// Consecutive batches that share a page with the batch before them
    /// and none with the one after, some ticks idle, pins held across fold
    /// and retire ticks: after every tick each page copy equals its live
    /// store page outside the queued rows, and every held pin answers like
    /// the model of its epoch.
    fn check_copies_stay_exact_across_retire<B: Backend>(backend: B) {
        const PAGES: usize = 16;
        let mut table = ServeTable::new(backend, serve_config());
        let values = clustered_values(PAGES);
        let col = table.add_column(&values).unwrap();
        let view = ValueRange::new(3_000, 6_400);
        table.install_view(col, view).unwrap();
        let handle = table.handle();
        let ranges = [
            view,
            ValueRange::new(0, 2_400),
            ValueRange::new(890_000, 1_000_000),
            ValueRange::full(),
        ];
        let mut model = values.clone();
        let mut held: Vec<(Snapshot<B>, Vec<u64>)> = Vec::new();
        let (mut folds_under_pin, mut retires_under_pin) = (0, 0);
        for step in 0..24usize {
            if step % 4 != 3 {
                // Batch `step` writes pages 2k, 2k+1, 2k+2 (k = step): the
                // next batch shares page 2k+2, the one after shares none.
                // Even batches move values into the view, odd ones out.
                let batch: Vec<(usize, u64)> = (0..3)
                    .map(|i| {
                        let page = (2 * step + i) % PAGES;
                        let row = page * VALUES_PER_PAGE + (step * 37 + i * 101) % VALUES_PER_PAGE;
                        let base = if step % 2 == 0 { 4_000 } else { 900_000 };
                        (row, base + (step * 10 + i) as u64)
                    })
                    .collect();
                table.try_write_batch(col, &batch).unwrap();
                for &(row, value) in &batch {
                    model[row] = value;
                }
            }
            let rounds = table.align_activity().rounds;
            let was_in_flight = table.round_in_flight(col);
            table.tick().unwrap();
            if !held.is_empty() {
                folds_under_pin += table.align_activity().rounds - rounds;
                retires_under_pin += u64::from(was_in_flight && !table.round_in_flight(col));
            }
            assert_eq!(
                table.columns[col].inexact_copies(),
                Vec::<usize>::new(),
                "step {step}"
            );
            assert_eq!(
                table.columns[col].inexact_bands(),
                Vec::<usize>::new(),
                "step {step}"
            );
            for (snap, pinned_model) in &held {
                for range in &ranges {
                    assert_eq!(
                        snap.query_range(col, range),
                        reference_answer(pinned_model, range),
                        "step {step}: pin of generation {}",
                        snap.generation()
                    );
                }
            }
            if step % 3 == 2 {
                held.clear();
            }
            held.push((handle.pin(), model.clone()));
        }
        assert!(folds_under_pin > 0, "some fold ran under a held pin");
        assert!(retires_under_pin > 0, "some retire ran under a held pin");
        held.clear();
        table.quiesce().unwrap();
        assert!(table.columns[col].copies.is_empty());
        let snap = handle.pin();
        for range in &ranges {
            assert_eq!(
                snap.query_range(col, range),
                reference_answer(&model, range)
            );
        }
    }

    #[test]
    fn copies_stay_exact_across_retire_sim() {
        check_copies_stay_exact_across_retire(SimBackend::new());
    }

    #[test]
    fn copies_stay_exact_across_retire_mmap() {
        check_copies_stay_exact_across_retire(MmapBackend::new());
    }

    #[test]
    fn churn_over_many_views_matches_rebuild_sim() {
        check_churn_matches_rebuild(SimBackend::new);
    }

    #[test]
    fn churn_over_many_views_matches_rebuild_mmap() {
        check_churn_matches_rebuild(MmapBackend::new);
    }

    #[test]
    fn concurrent_readers_match_sequential_sim() {
        concurrent_readers_match_sequential(SimBackend::new());
    }

    #[test]
    fn concurrent_readers_match_sequential_mmap() {
        concurrent_readers_match_sequential(MmapBackend::new());
    }

    #[test]
    fn install_view_rejects_busy_columns() {
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let col = table.add_column(&clustered_values(8)).unwrap();
        table.try_write(col, 0, 1).unwrap();
        assert!(table.install_view(col, ValueRange::new(0, 10)).is_err());
        table.quiesce().unwrap();
        assert!(table.install_view(col, ValueRange::new(0, 10)).is_ok());
    }

    #[test]
    fn zone_bands_widen_at_write_acknowledgement() {
        // The band of a written zone covers both the old and the new value
        // *before* the write is folded, so planning and page pruning on any
        // epoch can rely on the live stats without consulting the copies.
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let col = table.add_column(&clustered_values(24)).unwrap();
        let stats = table.zone_stats(col);
        let zone = stats.zone_of_row(3);
        let before = stats.zone_band(zone).unwrap();
        assert!(!before.contains(5_000_000));

        table.try_write(col, 3, 5_000_000).unwrap();
        // No tick yet: the write is only staged, but the band already
        // reflects it.
        let after = table.zone_stats(col).zone_band(zone).unwrap();
        assert!(after.contains(5_000_000), "band widened eagerly at ack");
        assert!(
            after.contains(before.low()) && after.contains(before.high()),
            "bands never retract, so the overwritten value stays covered"
        );
        table.quiesce().unwrap();
    }

    #[test]
    fn concurrent_writers_apply_per_writer_fifo() {
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let values = clustered_values(12);
        let col = table.add_column(&values).unwrap();
        let writer = table.writer();
        // Two writer threads over disjoint rows, each re-writing its rows
        // five times. Per-writer FIFO means the last sent value (k == 4)
        // wins for every row, no matter how the writers interleave.
        std::thread::scope(|scope| {
            for w in 0..2usize {
                let writer = writer.clone();
                scope.spawn(move || {
                    for k in 0..5u64 {
                        for row in (w..24).step_by(2) {
                            writer
                                .write(col, row, 1_000_000 * (w as u64 + 1) + 10 * row as u64 + k)
                                .unwrap();
                        }
                    }
                });
            }
        });
        // Writers joined: drain the lane, fold and retire everything.
        table.quiesce().unwrap();
        let snap = table.handle().pin();
        for w in 0..2usize {
            for row in (w..24).step_by(2) {
                assert_eq!(
                    snap.value(col, row),
                    Some(1_000_000 * (w as u64 + 1) + 10 * row as u64 + 4),
                    "row {row} serves its writer's last write"
                );
            }
        }
    }

    #[test]
    fn group_commit_idle_counts_distinct_rows_across_pages() {
        let config = AdaptiveConfig::default().with_chunking(
            crate::config::AlignChunking::default()
                .with_chunk_updates(4)
                .with_group_commit_idle(4),
        );
        let mut table = ServeTable::new(SimBackend::new(), config);
        let col = table.add_column(&clustered_values(8)).unwrap();
        // Rows on two pages: the threshold counts distinct rows of the
        // whole column, and a repeated row does not count twice.
        for row in [0, VALUES_PER_PAGE, 1, VALUES_PER_PAGE] {
            table.try_write(col, row, 700_000 + row as u64).unwrap();
            table.tick().unwrap();
            assert!(
                !table.round_in_flight(col),
                "below the threshold no round starts"
            );
        }
        table.try_write(col, 2 * VALUES_PER_PAGE, 700_003).unwrap();
        table.tick().unwrap();
        assert!(
            table.round_in_flight(col),
            "the queue reached the threshold of distinct rows"
        );
        table.quiesce().unwrap();
    }

    #[test]
    fn queued_writes_counts_distinct_rows_awaiting_a_fold() {
        let config = AdaptiveConfig::default().with_chunking(
            crate::config::AlignChunking::default()
                .with_chunk_updates(1)
                .with_group_commit_idle(1_000),
        );
        let mut table = ServeTable::new(SimBackend::new(), config);
        let col = table.add_column(&clustered_values(8)).unwrap();
        table.install_view(col, ValueRange::new(0, 3_000)).unwrap();
        table.try_write(col, 5, 1).unwrap();
        table.try_write(col, 5, 2).unwrap();
        table.tick().unwrap();
        assert_eq!(table.queued_writes(col), 1, "two writes to one row");
        table.try_write(col, 9, 3).unwrap();
        table.tick().unwrap();
        assert_eq!(table.queued_writes(col), 2);
        assert!(!table.round_in_flight(col), "below the threshold");
        // A forced fold takes both rows into a round; while it is in
        // flight nothing is queued, and a new write queues one row.
        table.tick_inner(true).unwrap();
        assert!(table.round_in_flight(col), "the fold started a round");
        assert_eq!(table.queued_writes(col), 0, "the fold took the queue");
        table.try_write(col, 5, 4).unwrap();
        assert_eq!(table.queued_writes(col), 1, "re-written while aligning");
        table.quiesce().unwrap();
        assert_eq!(table.queued_writes(col), 0);
        assert_eq!(table.handle().pin().value(col, 5), Some(4));
    }

    #[test]
    fn writers_outliving_their_table_get_an_error() {
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let col = table.add_column(&clustered_values(2)).unwrap();
        let writer = table.writer();
        writer.write(col, 0, 1).unwrap();
        drop(table);
        let error = writer.write(col, 1, 2).unwrap_err();
        assert!(
            matches!(&error, VmemError::Io(e) if e.kind() == std::io::ErrorKind::BrokenPipe),
            "{error}"
        );
        assert!(
            matches!(
                writer.write(col + 1, 0, 1),
                Err(VmemError::OutOfBounds { .. })
            ),
            "bad input is still rejected first"
        );
    }

    #[test]
    fn checksum_is_order_independent() {
        let checksum =
            |rows: &[u64]| ConjunctiveAnswer::from_rows(rows.iter().copied()).rows_checksum;
        let a = checksum(&[1, 5, 9]);
        assert_eq!(a, checksum(&[9, 1, 5]));
        assert_ne!(a, checksum(&[1, 5]));
        assert_ne!(checksum(&[0]), checksum(&[]));
    }

    fn temp_journal(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "asv-serve-wal-{}-{tag}-{n}.wal",
            std::process::id()
        ))
    }

    #[test]
    fn durable_table_recovers_to_quiesced_state() {
        let path = temp_journal("quiesced");
        let mut mirror = clustered_values(24);
        let range = ValueRange::new(5_000, 9_400);
        {
            let mut table = ServeTable::with_durability(
                SimBackend::new(),
                serve_config(),
                DurabilityConfig::new(&path),
            )
            .unwrap();
            let col = table.add_column(&mirror).unwrap();
            table.install_view(col, range).unwrap();
            for (i, row) in [3usize, 700, 1_400, 9_001].into_iter().enumerate() {
                table.try_write(col, row, 1_000_000 + i as u64).unwrap();
                mirror[row] = 1_000_000 + i as u64;
            }
            table.quiesce().unwrap();
        }
        let (table, info) = ServeTable::recover(
            SimBackend::new(),
            serve_config(),
            DurabilityConfig::new(&path),
        )
        .unwrap();
        assert!(info.sealed_epoch > 0, "quiesce sealed the final epoch");
        assert_eq!(
            info.batches_applied, 0,
            "quiesce compacted the journal to a checkpoint"
        );
        assert_eq!(info.discarded_bytes, 0);
        assert!(
            table.generation() >= info.sealed_epoch,
            "epoch numbering continues across the crash"
        );
        let snap = table.handle().pin();
        assert_eq!(
            snap.query_range(0, &range),
            reference_answer(&mirror, &range)
        );
        assert_eq!(snap.value(0, 700), Some(mirror[700]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recovery_discards_the_unsealed_tail() {
        let path = temp_journal("tail");
        let mut mirror = clustered_values(12);
        let range = ValueRange::full();
        {
            let mut table = ServeTable::with_durability(
                SimBackend::new(),
                serve_config(),
                DurabilityConfig::new(&path),
            )
            .unwrap();
            let col = table.add_column(&mirror).unwrap();
            table.try_write(col, 42, 123_456).unwrap();
            mirror[42] = 123_456;
            table.quiesce().unwrap();
            // Acknowledged but never sealed: the batch hits the journal,
            // but the process "dies" before the next tick's seal.
            table.try_write_batch(col, &[(7, 1), (8, 2)]).unwrap();
        }
        let (table, info) = ServeTable::recover(
            SimBackend::new(),
            serve_config(),
            DurabilityConfig::new(&path),
        )
        .unwrap();
        assert_eq!(info.batches_applied, 0, "the tail batch is not replayed");
        assert!(info.discarded_bytes > 0, "the tail bytes were discarded");
        let snap = table.handle().pin();
        assert_eq!(snap.value(0, 42), Some(123_456), "sealed writes survive");
        assert_eq!(snap.value(0, 7), Some(mirror[7]), "unsealed writes do not");
        assert_eq!(
            snap.query_range(0, &range),
            reference_answer(&mirror, &range)
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// The checkpoint oracle: the records a checkpoint of `table` sealed
    /// at `epoch` holds, built from `Column::to_vec` and collected in
    /// memory (what compaction encoded before it streamed from the pages).
    fn checkpoint_records<B: Backend>(table: &ServeTable<B>, epoch: u64) -> Vec<WalRecord> {
        let mut records = Vec::new();
        for (idx, state) in table.columns.iter().enumerate() {
            records.push(WalRecord::AddColumn {
                col: idx as u32,
                values: state.column.to_vec(),
            });
        }
        for (idx, state) in table.columns.iter().enumerate() {
            for view in &state.views {
                records.push(WalRecord::InstallView {
                    col: idx as u32,
                    min: view.meta.range.low(),
                    max: view.meta.range.high(),
                });
            }
        }
        records.push(WalRecord::Seal { epoch });
        records
    }

    /// The journal bytes of exactly `records`.
    fn journal_of(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = wal::WAL_MAGIC.to_vec();
        for record in records {
            bytes.extend_from_slice(&record.encode());
        }
        bytes
    }

    /// The inode of the file at `path`: a checkpoint rewrite renames a new
    /// file over it.
    fn inode(path: &Path) -> u64 {
        std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(path).unwrap())
    }

    /// The epochs of the sealed journal at `path`, in journal order.
    fn seal_epochs(path: &Path) -> Vec<u64> {
        let records = wal::replay(path).unwrap().sealed_records;
        let seals = records.iter().filter_map(|record| match record {
            WalRecord::Seal { epoch } => Some(*epoch),
            _ => None,
        });
        seals.collect()
    }

    /// Writes one value into column 0, ticks and checks that the seal the
    /// tick appended continues above the seals before it (`kept` last).
    fn check_seals_continue<B: Backend>(table: &mut ServeTable<B>, path: &Path, kept: u64) {
        table.try_write(0, 1, 4_321).unwrap();
        table.tick().unwrap();
        let epochs = seal_epochs(path);
        assert!(epochs.windows(2).all(|w| w[0] < w[1]), "{epochs:?}");
        let [.., before, last] = epochs[..] else {
            panic!("a seal was appended: {epochs:?}")
        };
        assert_eq!(before, kept);
        assert_eq!(last, table.generation);
    }

    /// `quiesce` is the one compaction: it writes the oracle checkpoint,
    /// and recovery writes nothing the journal already holds. After a
    /// crash the journal is its sealed prefix, in the same file; the
    /// recovered generation exceeds the kept seal and later seals continue
    /// above it; a quiesce of the recovered table writes the oracle
    /// checkpoint again. The first column is larger than the journal's
    /// stream buffer.
    fn check_quiesce_is_the_one_compaction<B: Backend>(make_backend: impl Fn() -> B, tag: &str) {
        let path = temp_journal(tag);
        let big = clustered_values(40);
        assert!(big.len() * 8 > wal::STREAM_BUF);
        let (quiesced, quiesced_epoch) = {
            let durability = DurabilityConfig::new(&path);
            let mut table =
                ServeTable::with_durability(make_backend(), serve_config(), durability).unwrap();
            table.add_column(&big).unwrap();
            table.add_column(&clustered_values(3)).unwrap();
            table
                .install_view(0, ValueRange::new(5_000, 9_400))
                .unwrap();
            table.install_view(1, ValueRange::new(0, 1_200)).unwrap();
            table
                .try_write_batch(0, &[(3, 77), (big.len() - 1, 1), (9_000, 31_000)])
                .unwrap();
            table.try_write_batch(1, &[(0, 2_500)]).unwrap();
            table.tick().unwrap();
            table.quiesce().unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert!(
                bytes == journal_of(&checkpoint_records(&table, table.generation)),
                "{tag}: quiesce"
            );
            (bytes, table.generation)
        };
        let quiesced_inode = inode(&path);
        let (mut table, info) =
            ServeTable::recover(make_backend(), serve_config(), DurabilityConfig::new(&path))
                .unwrap();
        let recovered = std::fs::read(&path).unwrap();
        assert!(
            recovered == quiesced,
            "{tag}: recover keeps the quiesced state"
        );
        assert_eq!(
            inode(&path),
            quiesced_inode,
            "{tag}: recovery rewrites nothing"
        );
        assert_eq!(info.sealed_epoch, quiesced_epoch, "{tag}");
        assert!(
            recovered == journal_of(&checkpoint_records(&table, info.sealed_epoch)),
            "{tag}: the recovered table is the checkpointed one"
        );
        assert!(table.generation > info.sealed_epoch, "{tag}");
        // Sealed but never quiesced, with an unsealed batch behind the
        // last seal. The writer's lane journals one batch per column it
        // wrote.
        let writer = table.writer();
        let lane_writes = [(1, 2, 2_222), (0, 5, 5_555), (1, 3, 3_333)];
        for (col, row, value) in lane_writes {
            writer.write(col, row, value).unwrap();
        }
        table.try_write_batch(0, &[(4, 88), (20_000, 5)]).unwrap();
        table.tick().unwrap();
        let kept_seal = table.generation;
        table.try_write_batch(0, &[(6, 66)]).unwrap();
        drop(table);
        let crashed = std::fs::read(&path).unwrap();
        let crashed_inode = inode(&path);
        let (mut table, info) =
            ServeTable::recover(make_backend(), serve_config(), DurabilityConfig::new(&path))
                .unwrap();
        assert_eq!(info.batches_applied, 3, "{tag}");
        assert_eq!(info.sealed_epoch, kept_seal, "{tag}");
        let snap = table.handle().pin();
        for (col, row, value) in lane_writes.into_iter().chain([(0, 4, 88)]) {
            assert_eq!(snap.value(col, row), Some(value), "{tag}: {col} {row}");
        }
        assert_eq!(
            snap.value(0, 6),
            Some(big[6]),
            "{tag}: the unsealed write is gone"
        );
        drop(snap);
        let sealed_len = crashed.len() - info.discarded_bytes as usize;
        assert!(info.discarded_bytes > 0, "{tag}");
        assert!(
            std::fs::read(&path).unwrap() == crashed[..sealed_len],
            "{tag}: the journal is its sealed prefix"
        );
        assert_eq!(inode(&path), crashed_inode, "{tag}: cut in place");
        assert!(table.generation > kept_seal, "{tag}: epochs above the seal");
        check_seals_continue(&mut table, &path, kept_seal);
        table.quiesce().unwrap();
        assert!(
            std::fs::read(&path).unwrap()
                == journal_of(&checkpoint_records(&table, table.generation)),
            "{tag}: quiesce again"
        );
        drop(table);
        // Checkpoint-shaped but sealed below the generation its records
        // rebuild: recovery keeps the seal as it is, and numbers its epochs
        // (and the later seals) above it.
        let stale = [
            WalRecord::AddColumn {
                col: 0,
                values: clustered_values(2),
            },
            WalRecord::Seal { epoch: 0 },
        ];
        std::fs::write(&path, journal_of(&stale)).unwrap();
        let stale_inode = inode(&path);
        let (mut table, _) =
            ServeTable::recover(make_backend(), serve_config(), DurabilityConfig::new(&path))
                .unwrap();
        assert!(table.generation > 0, "{tag}");
        assert_eq!(inode(&path), stale_inode, "{tag}: a stale seal is kept");
        assert!(
            std::fs::read(&path).unwrap() == journal_of(&stale),
            "{tag}: stale seal"
        );
        check_seals_continue(&mut table, &path, 0);
        table.quiesce().unwrap();
        assert!(
            std::fs::read(&path).unwrap()
                == journal_of(&checkpoint_records(&table, table.generation)),
            "{tag}: quiesce after a stale seal"
        );
        drop(table);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quiesce_compacts_and_recover_keeps_the_sealed_prefix() {
        check_quiesce_is_the_one_compaction(SimBackend::new, "checkpoint-sim");
        #[cfg(target_os = "linux")]
        check_quiesce_is_the_one_compaction(MmapBackend::new, "checkpoint-mmap");
        #[cfg(target_os = "linux")]
        {
            let backend = asv_vmem::FileBackend::temp();
            let dir = backend.dir().to_path_buf();
            check_quiesce_is_the_one_compaction(|| backend.clone(), "checkpoint-file");
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn injected_append_fault_stops_acknowledgement() {
        let path = temp_journal("fault");
        let mut mirror = clustered_values(12);
        {
            // The journal's first appends are AddColumn + Seal; fault the
            // append after the first write batch's seal.
            let durability = DurabilityConfig::new(&path).with_fault(FaultPlan::fail_append(4));
            let mut table =
                ServeTable::with_durability(SimBackend::new(), serve_config(), durability).unwrap();
            let col = table.add_column(&mirror).unwrap();
            table.try_write(col, 5, 555).unwrap();
            mirror[5] = 555;
            table.tick().unwrap();
            // Some later operation hits the injected fault and errors
            // without acknowledging; the exact op depends on tick cadence,
            // so keep issuing until the crash surfaces.
            let mut crashed = false;
            for attempt in 0..16u64 {
                if table.try_write(col, 6, attempt).is_err() || table.tick().is_err() {
                    crashed = true;
                    break;
                }
            }
            assert!(crashed, "the fault plan fires within a few operations");
        }
        let (table, _info) = ServeTable::recover(
            SimBackend::new(),
            serve_config(),
            DurabilityConfig::new(&path),
        )
        .unwrap();
        let snap = table.handle().pin();
        assert_eq!(snap.value(0, 5), Some(555), "the sealed write survives");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_serving_on_the_file_backend() {
        let backend = asv_vmem::FileBackend::temp();
        let dir = backend.dir().to_path_buf();
        let path = temp_journal("file");
        let mut mirror = clustered_values(16);
        let range = ValueRange::new(2_000, 11_000);
        {
            let mut table =
                ServeTable::with_durability(backend, serve_config(), DurabilityConfig::new(&path))
                    .unwrap();
            let col = table.add_column(&mirror).unwrap();
            table.install_view(col, range).unwrap();
            for row in [10usize, 600, 1_200, 5_555] {
                table.try_write(col, row, (row as u64) * 7 + 1).unwrap();
                mirror[row] = (row as u64) * 7 + 1;
            }
            table.quiesce().unwrap();
        }
        let recovered_backend = asv_vmem::FileBackend::temp();
        let recovered_dir = recovered_backend.dir().to_path_buf();
        let (table, info) = ServeTable::recover(
            recovered_backend,
            serve_config(),
            DurabilityConfig::new(&path),
        )
        .unwrap();
        assert!(info.sealed_epoch > 0);
        let snap = table.handle().pin();
        assert_eq!(
            snap.query_range(0, &range),
            reference_answer(&mirror, &range)
        );
        drop(snap);
        drop(table);
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(recovered_dir);
    }

    #[test]
    fn sparse_epoch_pages_past_the_data_hold_no_values() {
        // A column whose store has more pages than data: the epoch's
        // per-page valid count must clamp to zero past the last row
        // instead of wrapping to the partial-page remainder.
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let values: Vec<u64> = (0..VALUES_PER_PAGE as u64 * 2 + 5).collect();
        let col = table.add_column(&values).unwrap();
        let snap = table.handle().pin();
        let epoch = &snap.pinned.columns[col];
        assert_eq!(valid_rows(epoch.num_rows, 0), VALUES_PER_PAGE);
        assert_eq!(valid_rows(epoch.num_rows, 1), VALUES_PER_PAGE);
        assert_eq!(valid_rows(epoch.num_rows, 2), 5, "partial tail page");
        assert_eq!(
            valid_rows(epoch.num_rows, 3),
            0,
            "pages past the data are empty"
        );
        assert_eq!(valid_rows(epoch.num_rows, 17), 0);
    }

    #[test]
    fn scans_alternating_frozen_copies_and_live_pages_match_the_model() {
        // Written rows on every other page: a scan walks page copy, live
        // page, copy, ... and resolves each page's slots once, as its
        // predecessor's successor. Each page must be scanned from its own
        // source.
        let mut table = ServeTable::new(SimBackend::new(), serve_config());
        let pages = 9;
        let values = clustered_values(pages);
        let col = table.add_column(&values).unwrap();
        let written: Vec<(usize, u64)> = (0..pages)
            .step_by(2)
            .map(|p| (p * VALUES_PER_PAGE + 7, 3_000 + p as u64))
            .collect();
        table.try_write_batch(col, &written).unwrap();
        table.tick().unwrap();
        let snap = table.handle().pin();
        let epoch = snap.column(col);
        let copied: Vec<usize> = epoch.copies.iter().map(|&(page, _, _)| page).collect();
        assert_eq!(copied, [0, 2, 4, 6, 8]);

        // Move every live page on under the pinned epoch at a slot nobody
        // wrote: the copied pages must not see it, the others must.
        let mut model = values.clone();
        for &(row, value) in &written {
            model[row] = value;
        }
        for page in 0..pages {
            let row = page * VALUES_PER_PAGE + 300;
            table.columns[col].column.write(row, 3_500);
            if page % 2 == 1 {
                model[row] = 3_500;
            }
        }

        for range in [
            ValueRange::new(3_000, 3_600),
            ValueRange::new(2_000, 6_300),
            ValueRange::full(),
        ] {
            let rows: Vec<u64> = (0..model.len() as u64)
                .filter(|&row| range.contains(model[row as usize]))
                .collect();
            let sum: u128 = rows.iter().map(|&row| model[row as usize] as u128).sum();
            for mode in [
                ScanMode::CountOnly,
                ScanMode::Aggregate,
                ScanMode::CollectRows,
            ] {
                let what = format!("{range:?} {mode:?}");
                let out = epoch.scan(&range, mode);
                assert_eq!(out.result.count, rows.len() as u64, "{what}");
                let want_sum = if mode == ScanMode::CountOnly { 0 } else { sum };
                assert_eq!(out.result.sum, want_sum, "{what}");
                if mode == ScanMode::CollectRows {
                    assert_eq!(out.rows.as_deref(), Some(&rows[..]), "{what}");
                }
            }
        }
    }
}
