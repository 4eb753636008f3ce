//! The user-space mapping table and the `/proc/self/maps` kernel oracle.
//!
//! To align partial views with a batch of updates, the paper obtains the
//! current virtual-page → physical-page mapping by parsing the kernel's
//! `/proc/PID/maps` virtual file once per batch and materializing it
//! page-wise in a bidirectional map (paper §2.5). Here every mapping inside
//! a view's reservation was put there by a `map_run`/`truncate_view` call
//! of this process, so each view carries its [`MappingTable`] itself and
//! nothing on the query, alignment or serving path asks the kernel.
//!
//! The parser is kept as the **kernel oracle**: [`kernel_mapping_tables`]
//! rebuilds the tables from `/proc/self/maps` so tests can check, at
//! checkpoints, that the owned tables say what the kernel says, and so the
//! Figure 7 harness can still report what the paper's design pays per
//! batch. One parse costs tens of milliseconds at a few ten thousand map
//! regions — library code never calls it.

use std::fs;
use std::sync::OnceLock;

use asv_util::BitVec;

use crate::backend::ViewBuffer;
use crate::error::{Result, VmemError};
use crate::layout::PAGE_SIZE_BYTES;

/// One parsed line of `/proc/self/maps`.
///
/// ```text
/// address           perms offset  dev   inode   pathname
/// 7f01c200000-...   rw-s  002000  00:01 64593   /memfd:asv (deleted)
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcMapsEntry {
    /// Start of the mapped virtual address range (inclusive).
    pub start: usize,
    /// End of the mapped virtual address range (exclusive).
    pub end: usize,
    /// Permission string, e.g. `rw-s`.
    pub perms: String,
    /// Offset into the mapped file, in bytes.
    pub offset: u64,
    /// Device field, e.g. `00:01`.
    pub dev: String,
    /// Inode of the mapped file (0 for anonymous mappings).
    pub inode: u64,
    /// Path of the mapped file, if any.
    pub pathname: Option<String>,
}

impl ProcMapsEntry {
    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if the mapping covers zero bytes (never the case for
    /// real kernel output, but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// Returns `true` if this is a shared file-backed mapping — the kind of
    /// mapping rewired view pages have (`MAP_SHARED` of the main-memory
    /// file).
    pub fn is_shared_file_mapping(&self) -> bool {
        self.perms.ends_with('s') && self.inode != 0
    }
}

/// Parses a single line of `/proc/self/maps`.
pub fn parse_maps_line(line: &str) -> Result<ProcMapsEntry> {
    let mut fields = line.split_whitespace();
    let range = fields
        .next()
        .ok_or_else(|| VmemError::MapsParse(line.to_string()))?;
    let (start_s, end_s) = range
        .split_once('-')
        .ok_or_else(|| VmemError::MapsParse(line.to_string()))?;
    let start =
        usize::from_str_radix(start_s, 16).map_err(|_| VmemError::MapsParse(line.to_string()))?;
    let end =
        usize::from_str_radix(end_s, 16).map_err(|_| VmemError::MapsParse(line.to_string()))?;
    let perms = fields
        .next()
        .ok_or_else(|| VmemError::MapsParse(line.to_string()))?
        .to_string();
    let offset_s = fields
        .next()
        .ok_or_else(|| VmemError::MapsParse(line.to_string()))?;
    let offset =
        u64::from_str_radix(offset_s, 16).map_err(|_| VmemError::MapsParse(line.to_string()))?;
    let dev = fields
        .next()
        .ok_or_else(|| VmemError::MapsParse(line.to_string()))?
        .to_string();
    let inode_s = fields
        .next()
        .ok_or_else(|| VmemError::MapsParse(line.to_string()))?;
    let inode = inode_s
        .parse::<u64>()
        .map_err(|_| VmemError::MapsParse(line.to_string()))?;
    let rest: Vec<&str> = fields.collect();
    let pathname = if rest.is_empty() {
        None
    } else {
        Some(rest.join(" "))
    };
    Ok(ProcMapsEntry {
        start,
        end,
        perms,
        offset,
        dev,
        inode,
        pathname,
    })
}

/// Reads and parses all of `/proc/self/maps`.
pub fn read_self_maps() -> Result<Vec<ProcMapsEntry>> {
    let content = fs::read_to_string("/proc/self/maps")?;
    parse_maps(&content)
}

/// Parses the full content of a maps file.
pub fn parse_maps(content: &str) -> Result<Vec<ProcMapsEntry>> {
    content
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_maps_line)
        .collect()
}

/// One view's slot → physical-page mapping, with the reverse lookup the
/// alignment rules need (the paper's Boost `bimap`, §2.5).
///
/// Two dense arrays, so a lookup is an index and a snapshot is two
/// `memcpy`s. Slot → page is what every view owns
/// ([`crate::ViewBuffer::mapping`]) and updates after each successful
/// rewiring call. Page → slot only serves alignment, so it is built by the
/// first reverse lookup and kept current from then on: a view that is never
/// aligned — every view of a read-only workload, every discarded candidate
/// — never allocates an array the size of its store.
///
/// The table mirrors what the kernel holds, so it is a *function* of the
/// slot, not a bijection: the swap-remove replay maps the last page into
/// the hole before truncating, and for that moment one page sits at two
/// slots. Inserting overwrites whatever the slot mapped before; the reverse
/// lookup answers with a slot that maps the page (the most recently mapped
/// one once the index exists) and falls back to another when that slot
/// goes away.
#[derive(Clone, Debug, Default)]
pub struct MappingTable {
    /// Physical page per slot; `NONE` where a slot below the span maps
    /// nothing.
    slot_to_phys: Vec<u32>,
    /// Number of mapped slots.
    len: usize,
    /// The page → slot direction, absent until a reverse lookup asks.
    page_index: OnceLock<PageIndex>,
}

/// Marks an unmapped slot / an unmapped page in a [`MappingTable`].
const NONE: u32 = u32::MAX;

fn narrow(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&v| v != NONE)
        .expect("slot and page numbers fit in 32 bits")
}

fn widen(entry: u32) -> Option<usize> {
    (entry != NONE).then_some(entry as usize)
}

/// The page → slot direction of a [`MappingTable`].
#[derive(Clone, Debug)]
struct PageIndex {
    /// A slot mapping the page (`NONE`: no slot does), indexed by page and
    /// grown on demand.
    phys_to_slot: Vec<u32>,
    /// Mapped slots their page's `phys_to_slot` entry does not point at.
    /// Zero whenever no page is mapped twice, which keeps removal O(1).
    shadowed: usize,
}

impl PageIndex {
    fn build(slot_to_phys: &[u32]) -> Self {
        let pages = slot_to_phys.iter().copied().filter_map(widen).max();
        let mut index = PageIndex {
            phys_to_slot: vec![NONE; pages.map_or(0, |p| p + 1)],
            shadowed: 0,
        };
        for (slot, &phys) in slot_to_phys.iter().enumerate() {
            if let Some(phys_page) = widen(phys) {
                index.map(phys_page, narrow(slot));
            }
        }
        index
    }

    fn grow_to(&mut self, pages: usize) {
        if pages > self.phys_to_slot.len() {
            self.phys_to_slot.resize(pages, NONE);
        }
    }

    /// `slot` now maps `phys_page` (and did not map anything before).
    fn map(&mut self, phys_page: usize, slot: u32) {
        self.grow_to(phys_page + 1);
        if self.phys_to_slot[phys_page] != NONE {
            self.shadowed += 1;
        }
        self.phys_to_slot[phys_page] = slot;
    }

    /// `slot` no longer maps `phys_page`; `slot_to_phys` already says so.
    fn unmap(&mut self, phys_page: usize, slot: usize, slot_to_phys: &[u32]) {
        if self.phys_to_slot[phys_page] as usize != slot {
            self.shadowed -= 1;
        } else if self.shadowed == 0 {
            self.phys_to_slot[phys_page] = NONE;
        } else {
            // Some page is mapped twice; if it is this one, the entry moves
            // to the surviving slot.
            let phys32 = narrow(phys_page);
            match slot_to_phys.iter().rposition(|&p| p == phys32) {
                Some(other) => {
                    self.phys_to_slot[phys_page] = narrow(other);
                    self.shadowed -= 1;
                }
                None => self.phys_to_slot[phys_page] = NONE,
            }
        }
    }
}

impl MappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped (slot, physical page) pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the highest slot mapped since the last
    /// [`MappingTable::truncate`] — the view's mapped prefix.
    pub fn slot_span(&self) -> usize {
        self.slot_to_phys.len()
    }

    /// Records that view slot `slot` maps physical page `phys_page`,
    /// replacing whatever the slot mapped before.
    pub fn insert(&mut self, slot: usize, phys_page: usize) {
        let (slot32, phys32) = (narrow(slot), narrow(phys_page));
        self.remove_slot(slot);
        if slot >= self.slot_to_phys.len() {
            self.slot_to_phys.resize(slot + 1, NONE);
        }
        self.slot_to_phys[slot] = phys32;
        self.len += 1;
        if let Some(index) = self.page_index.get_mut() {
            index.map(phys_page, slot32);
        }
    }

    /// Records a run: slots `slot..slot + len` map the consecutive physical
    /// pages `phys_page..phys_page + len` (what one `map_run` call rewires).
    pub fn insert_run(&mut self, slot: usize, phys_page: usize, len: usize) {
        // One allocation per array for the whole run, not one per doubling.
        if slot + len > self.slot_to_phys.len() {
            self.slot_to_phys.resize(slot + len, NONE);
        }
        if let Some(index) = self.page_index.get_mut() {
            index.grow_to(phys_page + len);
        }
        for i in 0..len {
            self.insert(slot + i, phys_page + i);
        }
    }

    /// The physical page mapped at `slot`, if any.
    pub fn phys_for_slot(&self, slot: usize) -> Option<usize> {
        self.slot_to_phys.get(slot).copied().and_then(widen)
    }

    /// A view slot that maps `phys_page`, if any.
    pub fn slot_for_phys(&self, phys_page: usize) -> Option<usize> {
        let index = self.indexed().page_index.get()?;
        index.phys_to_slot.get(phys_page).copied().and_then(widen)
    }

    /// Builds the page → slot index now, as the first reverse lookup would.
    /// Alignment calls it on a view's own table before copying it, so only
    /// a view's first alignment builds the index and later snapshots copy it.
    pub fn indexed(&self) -> &Self {
        self.page_index
            .get_or_init(|| PageIndex::build(&self.slot_to_phys));
        self
    }

    /// Returns `true` if the view maps `phys_page`.
    pub fn contains_phys(&self, phys_page: usize) -> bool {
        self.slot_for_phys(phys_page).is_some()
    }

    /// Removes the mapping of view slot `slot`, returning the physical page.
    pub fn remove_slot(&mut self, slot: usize) -> Option<usize> {
        let phys_page = self.phys_for_slot(slot)?;
        self.slot_to_phys[slot] = NONE;
        self.len -= 1;
        if let Some(index) = self.page_index.get_mut() {
            index.unmap(phys_page, slot, &self.slot_to_phys);
        }
        Some(phys_page)
    }

    /// Removes the mapping of physical page `phys_page`, returning the slot.
    pub fn remove_phys(&mut self, phys_page: usize) -> Option<usize> {
        let slot = self.slot_for_phys(phys_page)?;
        self.remove_slot(slot);
        Some(slot)
    }

    /// Drops the mappings of every slot at or above `slot_span`.
    pub fn truncate(&mut self, slot_span: usize) {
        for slot in slot_span..self.slot_to_phys.len() {
            self.remove_slot(slot);
        }
        self.slot_to_phys.truncate(slot_span);
    }

    /// Iterates over all `(slot, phys_page)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.slot_to_phys
            .iter()
            .enumerate()
            .filter_map(|(slot, &p)| widen(p).map(|p| (slot, p)))
    }

    /// The physical pages in slot order, if every slot below the span is
    /// mapped (what alignment keeps true of a partial view).
    pub fn dense_pages(&self) -> Option<Vec<usize>> {
        (self.len == self.slot_to_phys.len())
            .then(|| self.slot_to_phys.iter().map(|&p| p as usize).collect())
    }

    /// All mapped physical pages, sorted ascending (each once).
    pub fn phys_pages_sorted(&self) -> Vec<usize> {
        // Sort by marking: one bit per physical page, read back ascending
        // (a third of a comparison sort's cost at a view's typical size).
        let mut marks = BitVec::new(self.iter().map(|(_, p)| p + 1).max().unwrap_or(0));
        for (_, page) in self.iter() {
            marks.set(page);
        }
        let mut phys = Vec::with_capacity(self.len);
        phys.extend(marks.iter_ones());
        phys
    }
}

/// Two tables are equal when they map the same slots to the same pages.
impl PartialEq for MappingTable {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for MappingTable {}

/// Builds a [`MappingTable`] for a view from parsed maps entries.
///
/// `view_base` / `view_capacity_bytes` delimit the view's virtual
/// reservation. Every *shared file* mapping inside that window contributes
/// its pages: the slot index is derived from the virtual address, the
/// physical page from the file offset.
pub fn mapping_table_for_window(
    entries: &[ProcMapsEntry],
    view_base: usize,
    view_capacity_bytes: usize,
) -> MappingTable {
    let view_end = view_base + view_capacity_bytes;
    let mut table = MappingTable::new();
    for e in entries {
        if !e.is_shared_file_mapping() {
            continue;
        }
        // Clamp the entry to the view window.
        let start = e.start.max(view_base);
        let end = e.end.min(view_end);
        for addr in (start..end).step_by(PAGE_SIZE_BYTES) {
            let slot = (addr - view_base) / PAGE_SIZE_BYTES;
            let file_off = e.offset as usize + (addr - e.start);
            table.insert(slot, file_off / PAGE_SIZE_BYTES);
        }
    }
    table
}

/// The kernel oracle: the mapping tables of `views` as `/proc/self/maps`
/// reports them, from one parse for the whole slice (what the paper does
/// once per update batch, §2.5). `None` if a view does not live in kernel
/// virtual memory (the simulation).
///
/// For tests and the bench harness only — see the module docs.
pub fn kernel_mapping_tables<V: ViewBuffer>(views: &[&V]) -> Result<Option<Vec<MappingTable>>> {
    let Some(bases) = views
        .iter()
        .map(|v| v.base_addr())
        .collect::<Option<Vec<usize>>>()
    else {
        return Ok(None);
    };
    let entries = read_self_maps()?;
    Ok(Some(
        views
            .iter()
            .zip(bases)
            .map(|(v, base)| {
                mapping_table_for_window(&entries, base, v.capacity_pages() * PAGE_SIZE_BYTES)
            })
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str =
        "7f0000000000-7f0000003000 rw-s 00002000 00:01 64593 /memfd:asv (deleted)\n\
7f0000004000-7f0000005000 rw-p 00000000 00:00 0 \n\
7f0000005000-7f0000006000 rw-s 00010000 00:01 64593 /memfd:asv (deleted)\n";

    #[test]
    fn parse_single_line() {
        let e = parse_maps_line("08048000-08056000 rw-s 00002000 03:0c 64593 /dev/shm/db").unwrap();
        assert_eq!(e.start, 0x08048000);
        assert_eq!(e.end, 0x08056000);
        assert_eq!(e.perms, "rw-s");
        assert_eq!(e.offset, 0x2000);
        assert_eq!(e.dev, "03:0c");
        assert_eq!(e.inode, 64593);
        assert_eq!(e.pathname.as_deref(), Some("/dev/shm/db"));
        assert_eq!(e.len(), 0x08056000 - 0x08048000);
        assert!(!e.is_empty());
        assert!(e.is_shared_file_mapping());
    }

    #[test]
    fn parse_line_without_pathname() {
        let e = parse_maps_line("7f0000004000-7f0000005000 rw-p 00000000 00:00 0").unwrap();
        assert_eq!(e.pathname, None);
        assert!(!e.is_shared_file_mapping());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_maps_line("not a maps line").is_err());
        assert!(parse_maps_line("").is_err());
        assert!(parse_maps_line("xyz-abc rw-p 0 00:00 0").is_err());
    }

    #[test]
    fn parse_whole_file() {
        let entries = parse_maps(SAMPLE).unwrap();
        assert_eq!(entries.len(), 3);
        assert!(entries[0].is_shared_file_mapping());
        assert!(!entries[1].is_shared_file_mapping());
    }

    #[test]
    fn read_self_maps_works_on_linux() {
        let entries = read_self_maps().unwrap();
        assert!(!entries.is_empty());
        // The current binary must appear as an executable file mapping.
        assert!(entries.iter().any(|e| e.perms.contains('x')));
    }

    #[test]
    fn mapping_table_basic_operations() {
        let mut t = MappingTable::new();
        assert!(t.is_empty());
        t.insert(0, 17);
        t.insert(1, 4);
        assert_eq!(t.len(), 2);
        assert_eq!(t.phys_for_slot(0), Some(17));
        assert_eq!(t.slot_for_phys(4), Some(1));
        assert!(t.contains_phys(17));
        assert!(!t.contains_phys(99));
        assert_eq!(t.phys_pages_sorted(), vec![4, 17]);
        assert_eq!(t.remove_phys(17), Some(0));
        assert_eq!(t.remove_slot(1), Some(4));
        assert!(t.is_empty());
    }

    #[test]
    fn swap_remove_replay_ends_where_the_planner_ends() {
        // Planner's shadow: remove page 20, move the last page into the hole.
        let mut shadow = MappingTable::new();
        for (slot, page) in [10, 20, 30, 40].into_iter().enumerate() {
            shadow.insert(slot, page);
        }
        let mut owned = shadow.clone();
        let hole = shadow.remove_phys(20).unwrap();
        shadow.remove_slot(3);
        shadow.insert(hole, 40);
        // The view's own table sees the replay: Map{hole <- 40}, Truncate{3}.
        owned.insert(hole, 40);
        // Page 40 sits at two slots, as in the kernel; page 20 is gone.
        assert_eq!(owned.phys_for_slot(1), Some(40));
        assert_eq!(owned.phys_for_slot(3), Some(40));
        assert!(!owned.contains_phys(20));
        assert_eq!(owned.dense_pages(), Some(vec![10, 40, 30, 40]));
        owned.truncate(3);
        assert_eq!(owned, shadow);
        assert_eq!(owned.slot_for_phys(40), Some(1));
        assert_eq!(owned.dense_pages(), Some(vec![10, 40, 30]));
        assert_eq!(owned.slot_span(), 3);
    }

    #[test]
    fn a_page_mapped_twice_survives_losing_either_slot() {
        let mut t = MappingTable::new();
        t.insert(0, 5);
        t.insert(3, 5);
        assert_eq!(t.len(), 2);
        assert_eq!(t.phys_pages_sorted(), vec![5]);
        assert_eq!(t.dense_pages(), None);
        // Dropping the slot the reverse entry points at falls back to slot 0.
        t.truncate(2);
        assert_eq!(t.slot_for_phys(5), Some(0));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, 5)]);
        // Dropping the older slot leaves the newer one in place.
        t.insert(1, 5);
        assert_eq!(t.remove_slot(0), Some(5));
        assert_eq!(t.slot_for_phys(5), Some(1));
        assert_eq!(t.remove_phys(5), Some(1));
        assert!(t.is_empty() && !t.contains_phys(5));
    }

    /// Random op sequences against a `BTreeMap<slot, page>` model: the
    /// forward direction is the model, the reverse direction always names a
    /// slot that maps the page and knows a page iff some slot maps it. The
    /// reverse direction is first asked at a random step, so the index is
    /// built from every kind of forward state and maintained from there.
    #[test]
    fn mapping_table_matches_a_reference_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        const SLOTS: usize = 24;
        const PAGES: usize = 16;
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        for case in 0..300 {
            let mut table = MappingTable::new();
            let mut model: BTreeMap<usize, usize> = BTreeMap::new();
            let steps = rng.gen_range(0usize..96);
            let first_reverse_lookup = rng.gen_range(0..=steps);
            for step in 0..=steps {
                let reverse = step >= first_reverse_lookup;
                let (slot, page) = (rng.gen_range(0..SLOTS), rng.gen_range(0..PAGES));
                match rng.gen_range(0u32..6) {
                    0..=2 => {
                        table.insert(slot, page);
                        model.insert(slot, page);
                    }
                    3 => assert_eq!(table.remove_slot(slot), model.remove(&slot)),
                    4 if reverse => match table.remove_phys(page) {
                        Some(s) => assert_eq!(model.remove(&s), Some(page)),
                        None => assert!(!model.values().any(|&p| p == page)),
                    },
                    _ => {
                        table.truncate(slot);
                        model.retain(|&s, _| s < slot);
                        assert!(table.slot_span() <= slot);
                    }
                }
                let at = format!("case {case}, step {step}");
                assert_eq!(table.len(), model.len(), "{at}");
                assert!(table.iter().eq(model.iter().map(|(&s, &p)| (s, p))), "{at}");
                for slot in 0..SLOTS {
                    assert_eq!(table.phys_for_slot(slot), model.get(&slot).copied(), "{at}");
                }
                let dense = model.len() == table.slot_span();
                assert_eq!(table.dense_pages().is_some(), dense, "{at}");
                if !reverse {
                    assert!(table.page_index.get().is_none(), "{at}: index built early");
                    continue;
                }
                for page in 0..PAGES {
                    let mapped = model.values().any(|&p| p == page);
                    assert_eq!(table.contains_phys(page), mapped, "{at}: page {page}");
                    if let Some(s) = table.slot_for_phys(page) {
                        assert_eq!(model.get(&s), Some(&page), "{at}: page {page}");
                    }
                }
                // A clone carries the index; a rebuilt one agrees on it.
                let rebuilt = MappingTable {
                    page_index: OnceLock::new(),
                    ..table.clone()
                };
                for page in 0..PAGES {
                    assert_eq!(
                        rebuilt.contains_phys(page),
                        table.contains_phys(page),
                        "{at}: page {page}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_extraction_derives_slots_and_phys_pages() {
        let entries = parse_maps(SAMPLE).unwrap();
        let base = 0x7f0000000000usize;
        let table = mapping_table_for_window(&entries, base, 16 * PAGE_SIZE_BYTES);
        // First entry: 3 pages at slots 0..3 mapping phys pages 2..5.
        // Third entry: 1 page at slot 5 mapping phys page 16.
        assert_eq!(table.len(), 4);
        assert_eq!(table.phys_for_slot(0), Some(2));
        assert_eq!(table.phys_for_slot(1), Some(3));
        assert_eq!(table.phys_for_slot(2), Some(4));
        assert_eq!(table.phys_for_slot(5), Some(16));
        assert_eq!(table.phys_for_slot(3), None);
        assert_eq!(table.slot_for_phys(16), Some(5));
    }

    #[test]
    fn window_extraction_ignores_out_of_window_entries() {
        let entries = parse_maps(SAMPLE).unwrap();
        // Window positioned after all entries.
        let table = mapping_table_for_window(&entries, 0x7f1000000000, 16 * PAGE_SIZE_BYTES);
        assert!(table.is_empty());
    }
}
