//! TLB models: the pluggable interface and the baseline two-array design.
//!
//! The baseline TLB (Table II) keeps separate entry arrays for base pages
//! (4KB, or 64KB in the §IV-C1 sensitivity study) and promoted 2MB pages.
//! Prior-work designs (CoLT, SnakeByte) replace the base array's fill and
//! lookup behaviour via the [`TlbModel`] trait — they live in the
//! `avatar-baselines` crate.

use crate::addr::{Ppn, Vpn, PAGES_PER_CHUNK};

/// A physically contiguous virtual→physical run around a translated page,
/// computed by the page table at walk completion. Coalescing TLBs use it to
/// widen their entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContigRun {
    /// First VPN of the run.
    pub start_vpn: u64,
    /// PPN mapped to `start_vpn`.
    pub start_ppn: u64,
    /// Run length in 4KB pages.
    pub len: u64,
}

impl ContigRun {
    /// Whether `vpn` is covered by this run.
    pub fn covers(&self, vpn: u64) -> bool {
        vpn >= self.start_vpn && vpn < self.start_vpn + self.len
    }

    /// Translates a covered VPN.
    pub fn translate(&self, vpn: u64) -> u64 {
        debug_assert!(self.covers(vpn));
        self.start_ppn + (vpn - self.start_vpn)
    }
}

/// Information delivered to a TLB on fill (from the walker, the L2 TLB, or
/// Avatar's EAF path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbFill {
    /// The translated page.
    pub vpn: Vpn,
    /// Its frame.
    pub ppn: Ppn,
    /// Pages covered by the installed translation: 1 for a base 4KB PTE,
    /// 16 for a 64KB base page, 512 for a promoted 2MB page.
    pub pages: u64,
    /// Contiguity neighbourhood from the page table, if known (EAF fills
    /// have none).
    pub run: Option<ContigRun>,
}

/// Replacement-priority hint a translation policy attaches to an L1 TLB
/// fill (the dead-entry-aware replacement axis, after "Dead on Arrival").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillPriority {
    /// Ordinary most-recently-used insertion.
    #[default]
    Normal,
    /// Predicted dead-on-arrival: install as the set's immediate LRU
    /// victim. The demanded access completes off the fill itself, so a
    /// correct prediction leaves the entry untouched until it is evicted;
    /// a later hit promotes it to MRU, so mispredictions self-correct.
    Transient,
}

/// A successful TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbHit {
    /// Translated frame for the requested page.
    pub ppn: Ppn,
    /// Reach of the entry that hit, in 4KB pages (for Fig 5 coverage).
    pub coverage_pages: u64,
    /// First VPN covered by the hit entry.
    pub entry_vpn: u64,
    /// PPN mapped to `entry_vpn`.
    pub entry_ppn: u64,
}

impl TlbHit {
    /// The contiguity run described by the hit entry (used to propagate
    /// coalesced reach from the L2 TLB into L1 fills).
    pub fn run(&self) -> ContigRun {
        ContigRun { start_vpn: self.entry_vpn, start_ppn: self.entry_ppn, len: self.coverage_pages }
    }
}

/// The pluggable TLB interface.
///
/// # Requirements
///
/// The engine's L2 TLB overflow drain skips retries it can prove would
/// miss (DESIGN.md §5 item 6), so every model must meet two requirements,
/// property-tested for each model in `crates/baselines/tests/tlb_contract.rs`:
///
/// 1. A [`lookup`](TlbModel::lookup) that misses changes nothing a later
///    call can observe. It may advance an LRU stamp counter, provided
///    stamps are only ever compared with one another.
/// 2. A [`fill`](TlbModel::fill) makes lookups hit only inside the 2MB
///    chunk of its `vpn` ([`Vpn::chunk`]): a page outside that chunk that
///    missed before the fill still misses after it.
pub trait TlbModel: std::fmt::Debug {
    /// Looks up a page, updating replacement state.
    fn lookup(&mut self, vpn: Vpn) -> Option<TlbHit>;

    /// Whether [`TlbModel::lookup`] would hit for `vpn`, without touching
    /// replacement state or any other model state. `None` means the model
    /// cannot answer non-destructively (the engine's inline fast path then
    /// falls back to the event path, and the L2 TLB overflow drain retries
    /// the lookup); `Some(hit)` must equal exactly what `lookup` would
    /// return. The default is `None`, so coalescing models (CoLT,
    /// SnakeByte) opt out automatically.
    fn probe(&self, _vpn: Vpn) -> Option<Option<TlbHit>> {
        None
    }

    /// Installs a translation.
    fn fill(&mut self, fill: &TlbFill);

    /// Installs a translation with a replacement-priority hint. The
    /// default discards the hint and installs normally — models without
    /// priority support treat every fill as [`FillPriority::Normal`], so
    /// the hint is advisory and never changes hit/miss correctness.
    fn fill_prioritized(&mut self, fill: &TlbFill, _priority: FillPriority) {
        self.fill(fill);
    }

    /// Invalidates any entries overlapping `[vpn, vpn + pages)`; returns
    /// the number of entries dropped. Coalesced/merged entries overlapping
    /// the range are dropped entirely (the shootdown cost the paper
    /// discusses).
    fn invalidate(&mut self, vpn: Vpn, pages: u64) -> u64;

    /// Drops every entry.
    fn flush(&mut self);

    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Extra page-table memory references this model has accrued (e.g.
    /// SnakeByte merge traffic). Drained by the engine each time it is read.
    fn drain_extra_memory_refs(&mut self) -> u64 {
        0
    }

    /// Asserts the model's internal consistency (checked-mode audits).
    /// Must be read-only. Models with no auditable state keep the default
    /// no-op.
    fn audit_invariants(&self) {}
}

/// Sentinel VPN for an unoccupied way. Salted VPNs stay far below 2^63, so
/// the all-ones tag can never collide with a real entry.
const VPN_EMPTY: u64 = u64::MAX;

/// One set-associative (or fully associative) array of TLB entries.
///
/// Four flat parallel arrays indexed `set * ways + way` (vpn, ppn, reach,
/// LRU stamp) — one allocation each, replacing the seed's `Vec<Vec<Entry>>`
/// so lookups scan contiguous words instead of chasing per-set vectors.
#[derive(Debug, Clone)]
pub(crate) struct EntryArray {
    /// First VPN covered per way, or [`VPN_EMPTY`].
    vpns: Vec<u64>,
    /// PPN mapped to the way's first VPN.
    ppns: Vec<u64>,
    /// Reach in 4KB pages per way.
    spans: Vec<u64>,
    /// Last-use stamp per way (valid only while occupied).
    stamps: Vec<u64>,
    nsets: usize,
    ways: usize,
    stamp: u64,
    /// Granularity used for set indexing (pages per entry).
    index_pages: u64,
    live: usize,
    /// Last way that hit, per set — checked first on the next lookup.
    /// Coalesced sectors land in the same page back to back, so this
    /// short-circuits most scans; a stale hint costs one wasted compare
    /// (the hit is re-verified), never a wrong result, because entry
    /// ranges within a set are disjoint.
    hints: Vec<u32>,
}

/// First way index in `0..n` satisfying `pred`, via 64-wide branchless
/// match masks: each chunk builds a bitmask with one compare-and-or per
/// way, then takes a single `trailing_zeros`. The mask loop vectorizes
/// where the early-exit scan it replaces defeated autovectorization —
/// fully associative arrays (the L2 TLB scans hundreds of ways per
/// lookup) are the win. First-match order is preserved exactly.
#[inline]
fn mask_scan(n: usize, mut pred: impl FnMut(usize) -> bool) -> Option<usize> {
    let mut w = 0;
    while w < n {
        let lim = (n - w).min(64);
        let mut mask = 0u64;
        for i in 0..lim {
            mask |= u64::from(pred(w + i)) << i;
        }
        if mask != 0 {
            return Some(w + mask.trailing_zeros() as usize);
        }
        w += lim;
    }
    None
}

impl EntryArray {
    pub(crate) fn new(entries: usize, assoc: usize, index_pages: u64) -> Self {
        let (nsets, ways) = if assoc == 0 || assoc >= entries {
            (1, entries.max(1))
        } else {
            ((entries / assoc).max(1), assoc)
        };
        let cap = nsets * ways;
        Self {
            vpns: vec![VPN_EMPTY; cap],
            ppns: vec![0; cap],
            spans: vec![0; cap],
            stamps: vec![0; cap],
            nsets,
            ways,
            stamp: 0,
            index_pages: index_pages.max(1),
            live: 0,
            hints: vec![0; nsets],
        }
    }

    /// One-compare range check: `vpn - evpn` wraps for `vpn < evpn` (and
    /// for the [`VPN_EMPTY`] sentinel) to a huge value no real span
    /// reaches.
    #[inline]
    fn covers(evpn: u64, span: u64, vpn: u64) -> bool {
        vpn.wrapping_sub(evpn) < span
    }

    #[inline]
    fn set_base(&self, vpn: u64) -> usize {
        ((vpn / self.index_pages) % self.nsets as u64) as usize * self.ways
    }

    #[inline]
    fn hit_at(&self, w: usize, vpn: u64) -> TlbHit {
        let evpn = self.vpns[w];
        TlbHit {
            ppn: Ppn(self.ppns[w] + (vpn - evpn)),
            coverage_pages: self.spans[w],
            entry_vpn: evpn,
            entry_ppn: self.ppns[w],
        }
    }

    /// The way holding `vpn`, if any. Checks the set's last-hit hint
    /// first — coalesced sector streams resolve in one compare — then
    /// falls back to the way scan. Empty arrays return immediately
    /// (the 2MB side of a [`BaseTlb`] is empty in every non-promotion
    /// configuration, and it used to pay a full scan per lookup).
    #[inline]
    fn find(&self, vpn: u64) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        let base = self.set_base(vpn);
        let hint = base + self.hints[base / self.ways] as usize;
        if Self::covers(self.vpns[hint], self.spans[hint], vpn) {
            return Some(hint);
        }
        mask_scan(self.ways, |i| Self::covers(self.vpns[base + i], self.spans[base + i], vpn))
            .map(|i| base + i)
    }

    fn lookup(&mut self, vpn: u64) -> Option<TlbHit> {
        self.stamp += 1;
        let w = self.find(vpn)?;
        self.stamps[w] = self.stamp;
        self.hints[w / self.ways] = (w % self.ways) as u32;
        Some(self.hit_at(w, vpn))
    }

    /// The hit [`EntryArray::lookup`] would return, with no LRU update.
    fn probe(&self, vpn: u64) -> Option<TlbHit> {
        self.find(vpn).map(|w| self.hit_at(w, vpn))
    }

    fn insert(&mut self, vpn: u64, ppn: u64, pages: u64) {
        self.insert_prio(vpn, ppn, pages, FillPriority::Normal);
    }

    fn insert_prio(&mut self, vpn: u64, ppn: u64, pages: u64, priority: FillPriority) {
        self.stamp += 1;
        // A transient install is stamped as the set's oldest entry, so the
        // next conflict eviction takes it first; any later lookup hit
        // re-stamps it MRU (misprediction self-corrects).
        let stamp = match priority {
            FillPriority::Normal => self.stamp,
            FillPriority::Transient => 0,
        };
        let base = self.set_base(vpn);
        // Two batched scans (exact-entry refresh, then first empty way)
        // replace the fused early-exit loop; the empty scan only runs on
        // the install path.
        if let Some(i) =
            mask_scan(self.ways, |i| self.vpns[base + i] == vpn && self.spans[base + i] == pages)
        {
            let w = base + i;
            self.ppns[w] = ppn;
            self.stamps[w] = stamp;
            return;
        }
        let empty = mask_scan(self.ways, |i| self.vpns[base + i] == VPN_EMPTY).map(|i| base + i);
        let w = match empty {
            Some(w) => {
                self.live += 1;
                w
            }
            None => (base..base + self.ways)
                .min_by_key(|&i| self.stamps[i])
                .expect("nonempty set"),
        };
        self.vpns[w] = vpn;
        self.ppns[w] = ppn;
        self.spans[w] = pages;
        self.stamps[w] = stamp;
        // A fill is usually followed by the lookup that wanted it.
        self.hints[w / self.ways] = (w % self.ways) as u32;
    }

    fn invalidate(&mut self, vpn: u64, pages: u64) -> u64 {
        let mut dropped = 0;
        for w in 0..self.vpns.len() {
            let evpn = self.vpns[w];
            if evpn != VPN_EMPTY && evpn < vpn + pages && vpn < evpn + self.spans[w] {
                self.vpns[w] = VPN_EMPTY;
                // A free way must have zero reach so the one-compare
                // `covers` check can never match it.
                self.spans[w] = 0;
                self.live -= 1;
                dropped += 1;
            }
        }
        dropped
    }

    fn flush(&mut self) {
        self.vpns.fill(VPN_EMPTY);
        self.spans.fill(0);
        self.live = 0;
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Asserts array consistency: the live counter matches the occupied
    /// ways, every occupied way has a non-zero reach and indexes into its
    /// own set, and no LRU stamp is ahead of the global counter.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub(crate) fn audit_invariants(&self) {
        assert_eq!(self.vpns.len(), self.nsets * self.ways);
        assert_eq!(self.hints.len(), self.nsets);
        for (set, &h) in self.hints.iter().enumerate() {
            assert!(
                (h as usize) < self.ways,
                "set {set} hint {h} out of range for {}-way array",
                self.ways
            );
        }
        let mut occupied = 0usize;
        for (w, &vpn) in self.vpns.iter().enumerate() {
            if vpn == VPN_EMPTY {
                assert_eq!(self.spans[w], 0, "free way {w} keeps a non-zero reach");
                continue;
            }
            occupied += 1;
            let set = w / self.ways;
            assert!(self.spans[w] > 0, "way {w} live with zero reach");
            assert_eq!(
                self.set_base(vpn) / self.ways,
                set,
                "entry for vpn {vpn} resident in set {set}, indexes elsewhere"
            );
            assert!(
                self.stamps[w] <= self.stamp,
                "way {w} stamp {} ahead of global stamp {}",
                self.stamps[w],
                self.stamp
            );
        }
        assert_eq!(occupied, self.live, "live counter desynchronized");
    }
}

/// The baseline TLB: a base-page array plus a 2MB large-page array.
#[derive(Debug, Clone)]
pub struct BaseTlb {
    base: EntryArray,
    large: EntryArray,
    /// Pages covered by one base entry (1 for 4KB, 16 for 64KB).
    base_pages: u64,
}

impl BaseTlb {
    /// Creates a baseline TLB.
    ///
    /// `assoc` of 0 means fully associative. `base_pages` is the base-page
    /// size in 4KB pages (1 or 16).
    pub fn new(base_entries: usize, large_entries: usize, assoc: usize, base_pages: u64) -> Self {
        Self {
            base: EntryArray::new(base_entries, assoc, base_pages),
            large: EntryArray::new(large_entries, assoc, PAGES_PER_CHUNK),
            base_pages,
        }
    }

    /// Total live entries (both arrays).
    pub fn len(&self) -> usize {
        self.base.len() + self.large.len()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TlbModel for BaseTlb {
    fn lookup(&mut self, vpn: Vpn) -> Option<TlbHit> {
        if let Some(hit) = self.large.lookup(vpn.0) {
            return Some(hit);
        }
        self.base.lookup(vpn.0)
    }

    fn probe(&self, vpn: Vpn) -> Option<Option<TlbHit>> {
        if let Some(hit) = self.large.probe(vpn.0) {
            return Some(Some(hit));
        }
        Some(self.base.probe(vpn.0))
    }

    fn fill(&mut self, fill: &TlbFill) {
        self.fill_prioritized(fill, FillPriority::Normal);
    }

    fn fill_prioritized(&mut self, fill: &TlbFill, priority: FillPriority) {
        if fill.pages >= PAGES_PER_CHUNK {
            // Align the 2MB entry on its natural boundary. Promoted pages
            // aggregate many uses, so the dead-entry hint only applies to
            // the base array.
            let base_vpn = fill.vpn.0 & !(PAGES_PER_CHUNK - 1);
            let base_ppn = fill.ppn.0 - (fill.vpn.0 - base_vpn);
            self.large.insert(base_vpn, base_ppn, PAGES_PER_CHUNK);
        } else {
            // Align on the base-page boundary.
            let base_vpn = fill.vpn.0 & !(self.base_pages - 1);
            let base_ppn = fill.ppn.0 - (fill.vpn.0 - base_vpn);
            self.base.insert_prio(base_vpn, base_ppn, self.base_pages, priority);
        }
    }

    fn invalidate(&mut self, vpn: Vpn, pages: u64) -> u64 {
        self.base.invalidate(vpn.0, pages) + self.large.invalidate(vpn.0, pages)
    }

    fn flush(&mut self) {
        self.base.flush();
        self.large.flush();
    }

    fn name(&self) -> &'static str {
        "base"
    }

    fn audit_invariants(&self) {
        self.base.audit_invariants();
        self.large.audit_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill4k(vpn: u64, ppn: u64) -> TlbFill {
        TlbFill { vpn: Vpn(vpn), ppn: Ppn(ppn), pages: 1, run: None }
    }

    #[test]
    fn miss_fill_hit() {
        let mut t = BaseTlb::new(4, 2, 0, 1);
        assert!(t.lookup(Vpn(5)).is_none());
        t.fill(&fill4k(5, 100));
        let hit = t.lookup(Vpn(5)).unwrap();
        assert_eq!(hit.ppn, Ppn(100));
        assert_eq!(hit.coverage_pages, 1);
    }

    #[test]
    fn lru_in_fully_associative_array() {
        let mut t = BaseTlb::new(2, 1, 0, 1);
        t.fill(&fill4k(1, 11));
        t.fill(&fill4k(2, 22));
        t.lookup(Vpn(1)); // make 2 the LRU
        t.fill(&fill4k(3, 33));
        assert!(t.lookup(Vpn(1)).is_some());
        assert!(t.lookup(Vpn(2)).is_none());
        assert!(t.lookup(Vpn(3)).is_some());
    }

    #[test]
    fn large_page_covers_whole_chunk() {
        let mut t = BaseTlb::new(4, 2, 0, 1);
        // Fill reported for a page in the middle of the chunk.
        t.fill(&TlbFill { vpn: Vpn(512 + 37), ppn: Ppn(1024 + 37), pages: 512, run: None });
        let hit = t.lookup(Vpn(512)).unwrap();
        assert_eq!(hit.ppn, Ppn(1024));
        assert_eq!(hit.coverage_pages, 512);
        let hit2 = t.lookup(Vpn(512 + 511)).unwrap();
        assert_eq!(hit2.ppn, Ppn(1024 + 511));
    }

    #[test]
    fn base_64k_entry_covers_16_pages() {
        let mut t = BaseTlb::new(4, 2, 0, 16);
        t.fill(&TlbFill { vpn: Vpn(19), ppn: Ppn(119), pages: 1, run: None });
        // Entry aligned to vpn 16 → ppn 116.
        let hit = t.lookup(Vpn(16)).unwrap();
        assert_eq!(hit.ppn, Ppn(116));
        assert_eq!(hit.coverage_pages, 16);
        assert!(t.lookup(Vpn(32)).is_none());
    }

    #[test]
    fn invalidate_range_drops_overlapping() {
        let mut t = BaseTlb::new(8, 2, 0, 1);
        t.fill(&fill4k(10, 110));
        t.fill(&fill4k(11, 111));
        t.fill(&fill4k(20, 120));
        assert_eq!(t.invalidate(Vpn(10), 2), 2);
        assert!(t.lookup(Vpn(10)).is_none());
        assert!(t.lookup(Vpn(20)).is_some());
    }

    #[test]
    fn invalidate_drops_large_entry_overlapping_page() {
        let mut t = BaseTlb::new(4, 2, 0, 1);
        t.fill(&TlbFill { vpn: Vpn(512), ppn: Ppn(0), pages: 512, run: None });
        assert_eq!(t.invalidate(Vpn(600), 1), 1);
        assert!(t.lookup(Vpn(512)).is_none());
    }

    #[test]
    fn flush_empties() {
        let mut t = BaseTlb::new(4, 2, 0, 1);
        t.fill(&fill4k(1, 2));
        t.flush();
        assert!(t.is_empty());
    }

    #[test]
    fn set_associative_indexing_separates_sets() {
        let mut t = BaseTlb::new(8, 0, 2, 1); // 4 sets x 2 ways
        // VPNs 0,4,8 map to set 0 with 4 sets — capacity 2.
        t.fill(&fill4k(0, 10));
        t.fill(&fill4k(4, 14));
        t.fill(&fill4k(8, 18));
        let present = [0u64, 4, 8].iter().filter(|&&v| t.lookup(Vpn(v)).is_some()).count();
        assert_eq!(present, 2, "one conflict eviction in the set");
    }

    #[test]
    fn refill_same_page_updates_mapping() {
        let mut t = BaseTlb::new(4, 2, 0, 1);
        t.fill(&fill4k(7, 70));
        t.fill(&fill4k(7, 77));
        assert_eq!(t.lookup(Vpn(7)).unwrap().ppn, Ppn(77));
    }

    #[test]
    fn audit_passes_under_fill_invalidate_churn() {
        let mut t = BaseTlb::new(8, 4, 2, 1);
        t.audit_invariants();
        for i in 0..200u64 {
            t.fill(&fill4k(i % 37, i + 100));
            if i % 9 == 0 {
                t.fill(&TlbFill {
                    vpn: Vpn((i % 5) * PAGES_PER_CHUNK),
                    ppn: Ppn(i * 1000),
                    pages: PAGES_PER_CHUNK,
                    run: None,
                });
            }
            if i % 5 == 0 {
                t.invalidate(Vpn(i % 37), 2);
            }
            t.audit_invariants();
        }
        t.flush();
        t.audit_invariants();
    }

    #[test]
    fn probe_previews_lookup_without_lru_update() {
        let mut t = BaseTlb::new(2, 1, 0, 1);
        t.fill(&fill4k(1, 11));
        t.fill(&fill4k(2, 22));
        // Probe agrees with lookup on both hit and miss...
        assert_eq!(t.probe(Vpn(1)), Some(t.lookup(Vpn(1))));
        assert_eq!(t.probe(Vpn(9)), Some(None));
        // ...and probing vpn 2 must NOT refresh its LRU position: after a
        // lookup of 1, a probe of 2, and a capacity fill, 2 (not 1) is the
        // victim.
        t.lookup(Vpn(1));
        t.probe(Vpn(2));
        t.fill(&fill4k(3, 33));
        assert!(t.lookup(Vpn(1)).is_some());
        assert!(t.lookup(Vpn(2)).is_none());
    }

    #[test]
    fn mask_scan_agrees_with_linear_scan() {
        // The batched scan must be a drop-in for `(0..n).find(pred)`,
        // including first-match tie-breaking and >64-way arrays.
        let hits: &[&[usize]] = &[&[], &[0], &[2], &[1, 5], &[63], &[64], &[67, 69], &[0, 130]];
        for &set in hits {
            for n in [0usize, 1, 3, 64, 65, 130, 131] {
                let pred = |i: usize| set.contains(&i);
                assert_eq!(mask_scan(n, pred), (0..n).find(|&i| pred(i)), "hits {set:?}, n {n}");
            }
        }
    }

    #[test]
    fn transient_fill_is_preferred_victim_until_rehit() {
        let mut t = BaseTlb::new(2, 1, 0, 1);
        t.fill(&fill4k(1, 11));
        t.fill_prioritized(&fill4k(2, 22), FillPriority::Transient);
        // Entry 2 is the victim despite being the most recent fill.
        t.fill(&fill4k(3, 33));
        assert!(t.lookup(Vpn(1)).is_some());
        assert!(t.lookup(Vpn(2)).is_none());
        assert!(t.lookup(Vpn(3)).is_some());
        t.audit_invariants();
        // A hit on a transient entry promotes it: now 4 survives over 5.
        let mut u = BaseTlb::new(2, 1, 0, 1);
        u.fill_prioritized(&fill4k(4, 44), FillPriority::Transient);
        u.fill(&fill4k(5, 55));
        assert!(u.lookup(Vpn(4)).is_some()); // promote
        u.fill(&fill4k(6, 66));
        assert!(u.lookup(Vpn(4)).is_some());
        assert!(u.lookup(Vpn(5)).is_none());
        u.audit_invariants();
    }

    #[test]
    fn normal_priority_matches_plain_fill() {
        let mut a = BaseTlb::new(4, 2, 2, 1);
        let mut b = BaseTlb::new(4, 2, 2, 1);
        for i in 0..50u64 {
            a.fill(&fill4k(i % 7, i + 100));
            b.fill_prioritized(&fill4k(i % 7, i + 100), FillPriority::Normal);
            if i % 3 == 0 {
                a.lookup(Vpn(i % 7));
                b.lookup(Vpn(i % 7));
            }
        }
        // Debug renders every entry, LRU stamp and hit hint.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn contig_run_translation() {
        let r = ContigRun { start_vpn: 100, start_ppn: 500, len: 8 };
        assert!(r.covers(100) && r.covers(107) && !r.covers(108));
        assert_eq!(r.translate(103), 503);
    }
}
