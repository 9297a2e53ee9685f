//! Sectored set-associative caches with CAVA's per-sector tag extensions.
//!
//! Cache lines are 128 bytes split into four 32-byte sectors, as in modern
//! NVIDIA designs. Each sector tag carries a valid bit plus the two bits
//! Avatar adds (paper Fig 12):
//!
//! * **C (compression)** — the fetched sector was stored compressed in GPU
//!   main memory (and therefore carries embedded page information).
//! * **G (guarantee)** — the sector's translation is validated; while clear
//!   the sector is *invisible*: present but unusable by warps, exactly the
//!   InvisiSpec-style protection the paper adopts for speculatively fetched
//!   data.

use crate::addr::{PhysAddr, SECTORS_PER_LINE};

/// Per-sector tag state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectorFlags {
    /// Sector data present.
    pub valid: bool,
    /// Stored compressed in DRAM (page info embedded).
    pub compressed: bool,
    /// Translation validated — data visible to warps.
    pub guaranteed: bool,
    /// Modified since fill — must be written back on eviction.
    pub dirty: bool,
}

/// Result of probing the cache for one sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Sector present and guaranteed: a usable hit.
    Hit,
    /// Sector present but its guarantee bit is clear: data exists in the
    /// array but is invisible until validation.
    HitUnguaranteed,
    /// Sector (or line) absent.
    Miss,
}

/// An evicted line: its address and final sector flags, for writebacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// 128B-line address (byte address / 128).
    pub line_addr: u64,
    /// Final per-sector flags; dirty+valid sectors need writeback.
    pub sectors: [SectorFlags; SECTORS_PER_LINE as usize],
}

const NSECT: usize = SECTORS_PER_LINE as usize;
/// Sentinel tag for an unoccupied way. Physical line addresses are bounded
/// by the simulated address space (< 2^48 / 128), so the all-ones tag can
/// never collide with a real line.
const TAG_EMPTY: u64 = u64::MAX;

// Per-sector bit layout inside the packed 16-bit line metadata word
// (4 bits per sector × 4 sectors per line).
const B_VALID: u16 = 1;
const B_COMP: u16 = 2;
const B_GUAR: u16 = 4;
const B_DIRTY: u16 = 8;
/// Mask selecting every sector's valid bit at once.
const ALL_VALID: u16 = 0x1111;

impl SectorFlags {
    #[inline]
    fn pack(self) -> u16 {
        ((self.valid as u16) * B_VALID)
            | ((self.compressed as u16) * B_COMP)
            | ((self.guaranteed as u16) * B_GUAR)
            | ((self.dirty as u16) * B_DIRTY)
    }

    #[inline]
    fn unpack(bits: u16) -> Self {
        SectorFlags {
            valid: bits & B_VALID != 0,
            compressed: bits & B_COMP != 0,
            guaranteed: bits & B_GUAR != 0,
            dirty: bits & B_DIRTY != 0,
        }
    }
}

/// A sectored, set-associative, LRU cache directory.
///
/// The simulator tracks tags and sector flags only — data contents are
/// modelled by the deterministic content providers, so no byte storage is
/// needed. The directory is three flat parallel arrays indexed
/// `set * assoc + way` (tag, LRU stamp, packed per-sector flags): one
/// allocation each, no per-set vectors, so a probe touches a handful of
/// adjacent cache lines instead of chasing `Vec<Vec<_>>` pointers.
#[derive(Debug, Clone)]
pub struct SectorCache {
    /// Line address per way, or [`TAG_EMPTY`].
    tags: Vec<u64>,
    /// Last-use stamp per way (valid only while the way is occupied).
    stamps: Vec<u64>,
    /// Packed sector flags per way: 4 bits per sector.
    meta: Vec<u16>,
    /// Last way hit/filled per set. Purely a scan accelerator: tags are
    /// unique within a set, so checking the hinted way first can only save
    /// (never change) the match — a stale hint costs one wasted compare.
    hints: Vec<u32>,
    /// `nsets - 1`: the set count is a power of two, so a line's set is
    /// its low address bits.
    set_mask: u64,
    assoc: usize,
    stamp: u64,
    resident: usize,
}

/// Index of the first way in `tags` equal to `tag`, via a branchless
/// 64-bit match mask: one compare-and-or per way, then a single
/// `trailing_zeros`. The compiler vectorizes the mask loop where the
/// early-exit scan it replaces defeated autovectorization; tags are
/// unique within a set, so first-match == only-match and the result is
/// identical to the linear scan. Sets wider than 64 ways (none in any
/// shipped geometry) fall through to the next chunk.
#[inline]
fn match_way(tags: &[u64], tag: u64) -> Option<usize> {
    for (chunk, ways) in tags.chunks(64).enumerate() {
        let mut mask = 0u64;
        for (i, &t) in ways.iter().enumerate() {
            mask |= u64::from(t == tag) << i;
        }
        if mask != 0 {
            return Some(chunk * 64 + mask.trailing_zeros() as usize);
        }
    }
    None
}

/// [`match_way`] for `tag` and for [`TAG_EMPTY`] in one pass over the
/// set: the first way holding `tag`, else the first empty way, each as
/// `(way, matched)`. `None` means the set is full and lacks `tag`.
#[inline]
fn match_or_empty_way(tags: &[u64], tag: u64) -> Option<(usize, bool)> {
    let mut empty = None;
    for (chunk, ways) in tags.chunks(64).enumerate() {
        let (mut hit, mut free) = (0u64, 0u64);
        for (i, &t) in ways.iter().enumerate() {
            hit |= u64::from(t == tag) << i;
            free |= u64::from(t == TAG_EMPTY) << i;
        }
        if hit != 0 {
            return Some((chunk * 64 + hit.trailing_zeros() as usize, true));
        }
        if empty.is_none() && free != 0 {
            empty = Some((chunk * 64 + free.trailing_zeros() as usize, false));
        }
    }
    empty
}

impl SectorCache {
    /// Creates a cache with `lines` total 128B lines and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if geometry is degenerate (zero lines or associativity) or
    /// the set count is not a power of two (`GpuConfig::validate` rejects
    /// such a cache too).
    pub fn new(lines: u64, assoc: usize) -> Self {
        assert!(lines > 0 && assoc > 0, "cache must have lines and ways");
        let nsets = (lines / assoc as u64).max(1) as usize;
        assert!(nsets.is_power_of_two(), "{nsets} sets is not a power of two");
        let cap = nsets * assoc;
        Self {
            tags: vec![TAG_EMPTY; cap],
            stamps: vec![0; cap],
            meta: vec![0; cap],
            hints: vec![0; nsets],
            set_mask: nsets as u64 - 1,
            assoc,
            stamp: 0,
            resident: 0,
        }
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr & self.set_mask) as usize
    }

    /// The set of `line_addr` and the way holding it, if resident.
    #[inline]
    fn find(&self, line_addr: u64) -> Option<(usize, usize)> {
        if self.resident == 0 {
            return None;
        }
        let set = self.set_of(line_addr);
        let base = set * self.assoc;
        let hint = base + self.hints[set] as usize;
        if self.tags[hint] == line_addr {
            return Some((set, hint));
        }
        match_way(&self.tags[base..base + self.assoc], line_addr).map(|i| (set, base + i))
    }

    /// Records way `w` as `set`'s most-recently-matched way.
    #[inline]
    fn remember(&mut self, set: usize, w: usize) {
        self.hints[set] = (w - set * self.assoc) as u32;
    }

    /// Probes for the sector containing `pa`, updating LRU on any hit.
    pub fn probe(&mut self, pa: PhysAddr) -> Probe {
        let line_addr = pa.line();
        let shift = 4 * pa.sector_in_line() as u16;
        self.stamp += 1;
        if let Some((set, w)) = self.find(line_addr) {
            self.remember(set, w);
            let bits = self.meta[w] >> shift;
            if bits & B_VALID != 0 {
                self.stamps[w] = self.stamp;
                return if bits & B_GUAR != 0 { Probe::Hit } else { Probe::HitUnguaranteed };
            }
        }
        Probe::Miss
    }

    /// The outcome [`SectorCache::probe`] would return for `pa`, without
    /// updating LRU (the inline fast path's classification step).
    pub fn peek_probe(&self, pa: PhysAddr) -> Probe {
        match self.peek(pa) {
            Some(f) if f.guaranteed => Probe::Hit,
            Some(_) => Probe::HitUnguaranteed,
            None => Probe::Miss,
        }
    }

    /// Reads the sector flags without touching LRU.
    pub fn peek(&self, pa: PhysAddr) -> Option<SectorFlags> {
        let (_, w) = self.find(pa.line())?;
        let bits = (self.meta[w] >> (4 * pa.sector_in_line() as u16)) & 0xF;
        if bits & B_VALID != 0 {
            Some(SectorFlags::unpack(bits))
        } else {
            None
        }
    }

    /// Fills the sector containing `pa`, allocating (and possibly evicting)
    /// its line. Returns the evicted line (address + sector flags), if any,
    /// so the caller can write back its dirty sectors.
    pub fn fill(&mut self, pa: PhysAddr, flags: SectorFlags) -> Option<EvictedLine> {
        let line_addr = pa.line();
        let shift = 4 * pa.sector_in_line() as u16;
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(line_addr);
        let base = set * self.assoc;
        // One batched mask scan finds the resident match or, failing that,
        // the first empty way: the masks vectorize where the fused
        // early-exit loop did not.
        let (w, evicted) = match match_or_empty_way(&self.tags[base..base + self.assoc], line_addr)
        {
            Some((i, true)) => {
                let w = base + i;
                // A refill must not lose an earlier dirtying of the sector.
                let old = (self.meta[w] >> shift) & 0xF;
                let keep_dirty = old & (B_VALID | B_DIRTY) == (B_VALID | B_DIRTY);
                let mut bits = flags.pack() | B_VALID;
                if keep_dirty {
                    bits |= B_DIRTY;
                }
                self.meta[w] = (self.meta[w] & !(0xF << shift)) | (bits << shift);
                self.stamps[w] = stamp;
                self.remember(set, w);
                return None;
            }
            Some((i, false)) => {
                self.resident += 1;
                (base + i, None)
            }
            None => {
                let w = (base..base + self.assoc)
                    .min_by_key(|&i| self.stamps[i])
                    .expect("nonempty set");
                let mut sectors = [SectorFlags::default(); NSECT];
                for (s, slot) in sectors.iter_mut().enumerate() {
                    *slot = SectorFlags::unpack((self.meta[w] >> (4 * s as u16)) & 0xF);
                }
                (w, Some(EvictedLine { line_addr: self.tags[w], sectors }))
            }
        };
        self.tags[w] = line_addr;
        self.stamps[w] = stamp;
        self.meta[w] = (flags.pack() | B_VALID) << shift;
        self.remember(set, w);
        evicted
    }

    /// Marks a present sector dirty (store hit). Returns `false` if absent.
    pub fn mark_dirty(&mut self, pa: PhysAddr) -> bool {
        let shift = 4 * pa.sector_in_line() as u16;
        if let Some((set, w)) = self.find(pa.line()) {
            self.remember(set, w);
            if self.meta[w] >> shift & B_VALID != 0 {
                self.meta[w] |= B_DIRTY << shift;
                return true;
            }
        }
        false
    }

    /// Sets or clears the guarantee bit of a present sector.
    ///
    /// Returns `false` if the sector is no longer cached.
    pub fn set_guarantee(&mut self, pa: PhysAddr, guaranteed: bool) -> bool {
        let shift = 4 * pa.sector_in_line() as u16;
        if let Some((set, w)) = self.find(pa.line()) {
            self.remember(set, w);
            if self.meta[w] >> shift & B_VALID != 0 {
                if guaranteed {
                    self.meta[w] |= B_GUAR << shift;
                } else {
                    self.meta[w] &= !(B_GUAR << shift);
                }
                return true;
            }
        }
        false
    }

    /// Invalidates one sector (mis-speculation cleanup). Returns whether it
    /// was present.
    pub fn invalidate_sector(&mut self, pa: PhysAddr) -> bool {
        let shift = 4 * pa.sector_in_line() as u16;
        if let Some((_, w)) = self.find(pa.line()) {
            let was = self.meta[w] >> shift & B_VALID != 0;
            self.meta[w] &= !(0xF << shift);
            return was;
        }
        false
    }

    /// Invalidates every sector belonging to the physical page `ppn_base`
    /// (page-migration flush). Returns the number of sectors dropped.
    pub fn invalidate_page(&mut self, page_base: PhysAddr) -> u64 {
        let first_line = page_base.0 / crate::addr::LINE_BYTES;
        let lines_per_page = crate::addr::PAGE_BYTES / crate::addr::LINE_BYTES;
        let mut dropped = 0;
        for w in 0..self.tags.len() {
            let t = self.tags[w];
            if t != TAG_EMPTY && t >= first_line && t < first_line + lines_per_page {
                dropped += (self.meta[w] & ALL_VALID).count_ones() as u64;
                self.drop_way(w);
            }
        }
        dropped
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.resident
    }

    /// Invalidates every line belonging to any of the given frames (chunk
    /// eviction flush). One pass over the directory regardless of how many
    /// frames are dropped.
    pub fn invalidate_frames(&mut self, frames: &crate::fxhash::FxHashSet<u64>) -> u64 {
        const LINES_PER_PAGE: u64 = crate::addr::PAGE_BYTES / crate::addr::LINE_BYTES;
        let mut dropped = 0;
        for w in 0..self.tags.len() {
            let t = self.tags[w];
            if t != TAG_EMPTY && frames.contains(&(t / LINES_PER_PAGE)) {
                dropped += (self.meta[w] & ALL_VALID).count_ones() as u64;
                self.drop_way(w);
            }
        }
        dropped
    }

    #[inline]
    fn drop_way(&mut self, w: usize) {
        self.tags[w] = TAG_EMPTY;
        self.meta[w] = 0;
        self.resident -= 1;
    }

    /// Asserts directory consistency: the resident counter matches the
    /// occupied ways, empty ways carry no sector flags, every tag indexes
    /// into its own set, no set holds a tag twice, and no LRU stamp is
    /// ahead of the global counter. Read-only; called periodically by the
    /// engine in checked (`invariants` feature) builds.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn audit_invariants(&self) {
        let nsets = self.hints.len();
        assert_eq!(self.tags.len(), nsets * self.assoc, "one scan hint per set");
        assert_eq!(self.set_mask, nsets as u64 - 1, "set mask disagrees with the set count");
        assert!(
            self.hints.iter().all(|&h| (h as usize) < self.assoc),
            "scan hint points past the last way"
        );
        let mut occupied = 0usize;
        for set in 0..nsets {
            let base = set * self.assoc;
            for w in base..base + self.assoc {
                let t = self.tags[w];
                if t == TAG_EMPTY {
                    assert_eq!(self.meta[w], 0, "empty way {w} still carries sector flags");
                    continue;
                }
                occupied += 1;
                assert_eq!(
                    (t % nsets as u64) as usize,
                    set,
                    "line {t} resident in set {set}, indexes elsewhere"
                );
                assert!(
                    self.stamps[w] <= self.stamp,
                    "way {w} stamp {} ahead of global stamp {}",
                    self.stamps[w],
                    self.stamp
                );
                assert!(
                    !self.tags[base..w].contains(&t),
                    "line {t} resident twice in set {set}"
                );
            }
        }
        assert_eq!(occupied, self.resident, "resident counter desynchronized");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(line: u64, sector: u64) -> PhysAddr {
        PhysAddr(line * 128 + sector * 32)
    }

    fn guaranteed() -> SectorFlags {
        SectorFlags { valid: true, compressed: false, guaranteed: true, dirty: false }
    }

    fn dirty() -> SectorFlags {
        SectorFlags { valid: true, compressed: false, guaranteed: true, dirty: true }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = SectorCache::new(64, 4);
        assert_eq!(c.probe(pa(1, 0)), Probe::Miss);
        c.fill(pa(1, 0), guaranteed());
        assert_eq!(c.probe(pa(1, 0)), Probe::Hit);
        // Other sectors of the same line are still misses.
        assert_eq!(c.probe(pa(1, 1)), Probe::Miss);
    }

    #[test]
    fn unguaranteed_sector_is_invisible() {
        let mut c = SectorCache::new(64, 4);
        c.fill(pa(2, 3), SectorFlags { valid: true, compressed: true, guaranteed: false, dirty: false });
        assert_eq!(c.probe(pa(2, 3)), Probe::HitUnguaranteed);
        assert!(c.set_guarantee(pa(2, 3), true));
        assert_eq!(c.probe(pa(2, 3)), Probe::Hit);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = SectorCache::new(2, 2); // one set, two ways
        c.fill(pa(10, 0), guaranteed());
        c.fill(pa(20, 0), guaranteed());
        c.probe(pa(10, 0)); // touch 10 so 20 is LRU
        let evicted = c.fill(pa(30, 0), guaranteed());
        assert_eq!(evicted.map(|e| e.line_addr), Some(20));
        assert_eq!(c.probe(pa(10, 0)), Probe::Hit);
        assert_eq!(c.probe(pa(20, 0)), Probe::Miss);
    }

    #[test]
    fn invalidate_sector_leaves_line() {
        let mut c = SectorCache::new(64, 4);
        c.fill(pa(5, 0), guaranteed());
        c.fill(pa(5, 1), guaranteed());
        assert!(c.invalidate_sector(pa(5, 0)));
        assert_eq!(c.probe(pa(5, 0)), Probe::Miss);
        assert_eq!(c.probe(pa(5, 1)), Probe::Hit);
        assert!(!c.invalidate_sector(pa(5, 0)));
    }

    #[test]
    fn invalidate_page_drops_all_its_lines() {
        let mut c = SectorCache::new(1024, 4);
        // Page 0 covers lines 0..32.
        c.fill(pa(0, 0), guaranteed());
        c.fill(pa(31, 2), guaranteed());
        c.fill(pa(32, 0), guaranteed()); // next page
        let dropped = c.invalidate_page(PhysAddr(0));
        assert_eq!(dropped, 2);
        assert_eq!(c.probe(pa(32, 0)), Probe::Hit);
    }

    #[test]
    fn peek_probe_matches_probe_without_lru() {
        let mut c = SectorCache::new(64, 4);
        assert_eq!(c.peek_probe(pa(1, 0)), Probe::Miss);
        c.fill(pa(1, 0), guaranteed());
        assert_eq!(c.peek_probe(pa(1, 0)), Probe::Hit);
        c.fill(pa(2, 1), SectorFlags { valid: true, compressed: true, guaranteed: false, dirty: false });
        assert_eq!(c.peek_probe(pa(2, 1)), Probe::HitUnguaranteed);
        // Classification never bumps LRU: probe() after peek_probe() sees
        // the same state it would have seen without the peek.
        assert_eq!(c.probe(pa(2, 1)), Probe::HitUnguaranteed);
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = SectorCache::new(2, 2);
        c.fill(pa(10, 0), guaranteed());
        c.fill(pa(20, 0), guaranteed());
        let _ = c.peek(pa(10, 0)); // no LRU update: 10 stays older
        c.fill(pa(30, 0), guaranteed());
        assert_eq!(c.probe(pa(10, 0)), Probe::Miss);
        assert_eq!(c.probe(pa(20, 0)), Probe::Hit);
    }

    #[test]
    fn mark_dirty_and_writeback_on_eviction() {
        let mut c = SectorCache::new(2, 2); // one set, two ways
        c.fill(pa(10, 1), guaranteed());
        assert!(c.mark_dirty(pa(10, 1)));
        assert!(!c.mark_dirty(pa(10, 0)), "absent sector cannot be dirtied");
        c.fill(pa(20, 0), guaranteed());
        let evicted = c.fill(pa(30, 0), dirty()).expect("eviction");
        assert_eq!(evicted.line_addr, 10);
        assert!(evicted.sectors[1].dirty, "dirty flag survives to the writeback");
        assert!(!evicted.sectors[0].dirty);
    }

    #[test]
    fn refill_preserves_dirty_bit() {
        let mut c = SectorCache::new(64, 4);
        c.fill(pa(5, 0), guaranteed());
        c.mark_dirty(pa(5, 0));
        // A refill of the same sector (e.g. a later fetch generation)
        // must not silently drop the pending writeback.
        c.fill(pa(5, 0), guaranteed());
        assert!(c.peek(pa(5, 0)).unwrap().dirty);
    }

    #[test]
    fn audit_passes_under_fill_evict_churn() {
        let mut c = SectorCache::new(16, 2);
        c.audit_invariants();
        for i in 0..200u64 {
            c.fill(pa(i % 40, i % 4), guaranteed());
            if i % 7 == 0 {
                c.invalidate_sector(pa(i % 40, 0));
            }
            if i % 13 == 0 {
                c.invalidate_page(PhysAddr((i % 3) * crate::addr::PAGE_BYTES));
            }
            c.audit_invariants();
        }
    }

    #[test]
    fn batched_match_agrees_with_linear_scan() {
        // The mask compare must be a drop-in for the early-exit scan it
        // replaced, including first-match tie-breaking and >64-way sets.
        let cases: &[(&[u64], u64)] = &[
            (&[], 5),
            (&[1, 2, 3], 9),
            (&[1, 2, 3], 1),
            (&[1, 2, 3], 3),
            (&[TAG_EMPTY, 7, TAG_EMPTY], TAG_EMPTY),
        ];
        for &(tags, tag) in cases {
            assert_eq!(match_way(tags, tag), tags.iter().position(|&t| t == tag));
        }
        // Match beyond the first 64-way chunk.
        let mut wide = vec![0u64; 70];
        wide[67] = 42;
        assert_eq!(match_way(&wide, 42), Some(67));
        assert_eq!(match_way(&wide, 0), Some(0));
    }

    #[test]
    fn fused_fill_scan_agrees_with_two_scans() {
        // The fill's one pass must pick what the resident-match scan, then
        // the empty-way scan, would: a match anywhere beats an earlier
        // empty way, across 64-way chunks too.
        let two_scans = |tags: &[u64], tag: u64| {
            match_way(tags, tag)
                .map(|w| (w, true))
                .or_else(|| match_way(tags, TAG_EMPTY).map(|w| (w, false)))
        };
        let mut wide = vec![TAG_EMPTY; 70];
        wide[1] = 5;
        wide[67] = 42;
        let cases: &[(&[u64], u64)] = &[
            (&[], 5),
            (&[1, 2, 3], 9),
            (&[1, 2, 3], 2),
            (&[TAG_EMPTY, 7, TAG_EMPTY], 7),
            (&[7, TAG_EMPTY, 9], 3),
            (&wide, 42),
            (&wide, 5),
            (&wide, 8),
        ];
        for &(tags, tag) in cases {
            assert_eq!(match_or_empty_way(tags, tag), two_scans(tags, tag), "{tags:?} {tag}");
        }
    }

    #[test]
    fn refill_updates_flags() {
        let mut c = SectorCache::new(64, 4);
        c.fill(pa(7, 0), SectorFlags { valid: true, compressed: false, guaranteed: false, dirty: false });
        c.fill(pa(7, 0), guaranteed());
        assert_eq!(c.probe(pa(7, 0)), Probe::Hit);
        let f = c.peek(pa(7, 0)).unwrap();
        assert!(f.guaranteed);
    }
}
