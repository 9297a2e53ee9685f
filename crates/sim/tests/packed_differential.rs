//! Differential equivalence: the packed (flat-array) cache and TLB against
//! the seed's `Vec<Vec<_>>` implementations.
//!
//! The data-layout rewrite must be *behaviourally invisible* — same hits,
//! same victims, same return values on every operation — or figure outputs
//! silently drift. These tests embed the pre-rewrite structures verbatim as
//! reference oracles and drive both sides with identical `SimRng` operation
//! traces, asserting every observable result matches step by step.
//!
//! The oracles are frozen copies of the seed code (commit d1ca4c6), not
//! simplified re-derivations: the point is equivalence with what actually
//! shipped, including the quirks (swap_remove victim ordering, LRU stamps
//! advancing on probes and fills alike, refills preserving earlier dirty
//! bits).

use avatar_sim::addr::{PhysAddr, Vpn, LINE_BYTES, PAGES_PER_CHUNK, PAGE_BYTES, SECTORS_PER_LINE};
use avatar_sim::cache::{EvictedLine, Probe, SectorCache, SectorFlags};
use avatar_sim::rng::SimRng;
use avatar_sim::tlb::{BaseTlb, TlbFill, TlbHit, TlbModel};

// ---------------------------------------------------------------------------
// Reference oracle: the seed SectorCache (Vec<Vec<Line>> with linear probes).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RefLine {
    line_addr: u64,
    sectors: [SectorFlags; SECTORS_PER_LINE as usize],
    last_use: u64,
}

#[derive(Debug, Clone)]
struct RefSectorCache {
    sets: Vec<Vec<RefLine>>,
    assoc: usize,
    stamp: u64,
}

impl RefSectorCache {
    fn new(lines: u64, assoc: usize) -> Self {
        assert!(lines > 0 && assoc > 0);
        let sets = (lines / assoc as u64).max(1) as usize;
        Self { sets: vec![Vec::new(); sets], assoc, stamp: 0 }
    }

    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr % self.sets.len() as u64) as usize
    }

    fn probe(&mut self, pa: PhysAddr) -> Probe {
        let line_addr = pa.line();
        let sector = pa.sector_in_line() as usize;
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(line_addr);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.line_addr == line_addr) {
            if line.sectors[sector].valid {
                line.last_use = stamp;
                return if line.sectors[sector].guaranteed {
                    Probe::Hit
                } else {
                    Probe::HitUnguaranteed
                };
            }
        }
        Probe::Miss
    }

    fn peek(&self, pa: PhysAddr) -> Option<SectorFlags> {
        let line_addr = pa.line();
        let set = self.set_of(line_addr);
        self.sets[set]
            .iter()
            .find(|l| l.line_addr == line_addr)
            .map(|l| l.sectors[pa.sector_in_line() as usize])
            .filter(|s| s.valid)
    }

    fn fill(&mut self, pa: PhysAddr, flags: SectorFlags) -> Option<EvictedLine> {
        let line_addr = pa.line();
        let sector = pa.sector_in_line() as usize;
        self.stamp += 1;
        let stamp = self.stamp;
        let set_idx = self.set_of(line_addr);
        let assoc = self.assoc;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.line_addr == line_addr) {
            let dirty = line.sectors[sector].dirty && line.sectors[sector].valid;
            line.sectors[sector] = SectorFlags { valid: true, dirty: flags.dirty || dirty, ..flags };
            line.last_use = stamp;
            return None;
        }
        let mut evicted = None;
        if set.len() >= assoc {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("nonempty set");
            let v = set.swap_remove(victim);
            evicted = Some(EvictedLine { line_addr: v.line_addr, sectors: v.sectors });
        }
        let mut sectors = [SectorFlags::default(); SECTORS_PER_LINE as usize];
        sectors[sector] = SectorFlags { valid: true, ..flags };
        set.push(RefLine { line_addr, sectors, last_use: stamp });
        evicted
    }

    fn mark_dirty(&mut self, pa: PhysAddr) -> bool {
        let line_addr = pa.line();
        let set = self.set_of(line_addr);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.line_addr == line_addr) {
            let s = &mut line.sectors[pa.sector_in_line() as usize];
            if s.valid {
                s.dirty = true;
                return true;
            }
        }
        false
    }

    fn set_guarantee(&mut self, pa: PhysAddr, guaranteed: bool) -> bool {
        let line_addr = pa.line();
        let set = self.set_of(line_addr);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.line_addr == line_addr) {
            let s = &mut line.sectors[pa.sector_in_line() as usize];
            if s.valid {
                s.guaranteed = guaranteed;
                return true;
            }
        }
        false
    }

    fn invalidate_sector(&mut self, pa: PhysAddr) -> bool {
        let line_addr = pa.line();
        let set = self.set_of(line_addr);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.line_addr == line_addr) {
            let s = &mut line.sectors[pa.sector_in_line() as usize];
            let was = s.valid;
            *s = SectorFlags::default();
            return was;
        }
        false
    }

    fn invalidate_page(&mut self, page_base: PhysAddr) -> u64 {
        let first_line = page_base.0 / LINE_BYTES;
        let lines_per_page = PAGE_BYTES / LINE_BYTES;
        let mut dropped = 0;
        for set in &mut self.sets {
            set.retain(|l| {
                if l.line_addr >= first_line && l.line_addr < first_line + lines_per_page {
                    dropped += l.sectors.iter().filter(|s| s.valid).count() as u64;
                    false
                } else {
                    true
                }
            });
        }
        dropped
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

// ---------------------------------------------------------------------------
// Reference oracle: the seed EntryArray / BaseTlb (Vec<Vec<Entry>>).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RefEntry {
    vpn: u64,
    ppn: u64,
    pages: u64,
    last_use: u64,
}

impl RefEntry {
    fn covers(&self, vpn: u64) -> bool {
        vpn >= self.vpn && vpn < self.vpn + self.pages
    }

    fn overlaps(&self, vpn: u64, pages: u64) -> bool {
        self.vpn < vpn + pages && vpn < self.vpn + self.pages
    }
}

#[derive(Debug, Clone)]
struct RefEntryArray {
    sets: Vec<Vec<RefEntry>>,
    ways: usize,
    stamp: u64,
    index_pages: u64,
}

impl RefEntryArray {
    fn new(entries: usize, assoc: usize, index_pages: u64) -> Self {
        let (nsets, ways) = if assoc == 0 || assoc >= entries {
            (1, entries.max(1))
        } else {
            ((entries / assoc).max(1), assoc)
        };
        Self { sets: vec![Vec::new(); nsets], ways, stamp: 0, index_pages: index_pages.max(1) }
    }

    fn set_of(&self, vpn: u64) -> usize {
        ((vpn / self.index_pages) % self.sets.len() as u64) as usize
    }

    fn lookup(&mut self, vpn: u64) -> Option<TlbHit> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(vpn);
        let e = self.sets[set].iter_mut().find(|e| e.covers(vpn))?;
        e.last_use = stamp;
        Some(TlbHit {
            ppn: avatar_sim::addr::Ppn(e.ppn + (vpn - e.vpn)),
            coverage_pages: e.pages,
            entry_vpn: e.vpn,
            entry_ppn: e.ppn,
        })
    }

    fn insert(&mut self, vpn: u64, ppn: u64, pages: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let set_idx = self.set_of(vpn);
        let ways = self.ways;
        let set = &mut self.sets[set_idx];
        if let Some(e) = set.iter_mut().find(|e| e.vpn == vpn && e.pages == pages) {
            e.ppn = ppn;
            e.last_use = stamp;
            return;
        }
        if set.len() >= ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("nonempty set");
            set.swap_remove(victim);
        }
        set.push(RefEntry { vpn, ppn, pages, last_use: stamp });
    }

    fn invalidate(&mut self, vpn: u64, pages: u64) -> u64 {
        let mut dropped = 0;
        for set in &mut self.sets {
            set.retain(|e| {
                if e.overlaps(vpn, pages) {
                    dropped += 1;
                    false
                } else {
                    true
                }
            });
        }
        dropped
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// The seed BaseTlb: base-page array + 2MB array, same fill routing.
#[derive(Debug)]
struct RefBaseTlb {
    base: RefEntryArray,
    large: RefEntryArray,
    base_pages: u64,
}

impl RefBaseTlb {
    fn new(base_entries: usize, large_entries: usize, assoc: usize, base_pages: u64) -> Self {
        Self {
            base: RefEntryArray::new(base_entries, assoc, base_pages),
            large: RefEntryArray::new(large_entries, assoc, PAGES_PER_CHUNK),
            base_pages,
        }
    }

    fn lookup(&mut self, vpn: Vpn) -> Option<TlbHit> {
        if let Some(hit) = self.large.lookup(vpn.0) {
            return Some(hit);
        }
        self.base.lookup(vpn.0)
    }

    fn fill(&mut self, fill: &TlbFill) {
        if fill.pages >= PAGES_PER_CHUNK {
            let base_vpn = fill.vpn.0 & !(PAGES_PER_CHUNK - 1);
            let base_ppn = fill.ppn.0 - (fill.vpn.0 - base_vpn);
            self.large.insert(base_vpn, base_ppn, PAGES_PER_CHUNK);
        } else {
            let base_vpn = fill.vpn.0 & !(self.base_pages - 1);
            let base_ppn = fill.ppn.0 - (fill.vpn.0 - base_vpn);
            self.base.insert(base_vpn, base_ppn, self.base_pages);
        }
    }

    fn invalidate(&mut self, vpn: Vpn, pages: u64) -> u64 {
        self.base.invalidate(vpn.0, pages) + self.large.invalidate(vpn.0, pages)
    }

    fn flush(&mut self) {
        self.base.flush();
        self.large.flush();
    }

    fn len(&self) -> usize {
        self.base.len() + self.large.len()
    }
}

// ---------------------------------------------------------------------------
// Trace drivers.
// ---------------------------------------------------------------------------

/// Drives one (real, reference) cache pair through `steps` random
/// operations, comparing every return value.
fn drive_cache_pair(lines: u64, assoc: usize, seed: u64, steps: usize) {
    let mut real = SectorCache::new(lines, assoc);
    let mut oracle = RefSectorCache::new(lines, assoc);
    let mut rng = SimRng::seed_from_u64(seed);
    // A working set about 3x the cache keeps all of hit / conflict-evict /
    // cold-miss live in the trace.
    let line_space = lines * 3;
    for step in 0..steps {
        let line = rng.next_below(line_space);
        let sector = rng.next_below(SECTORS_PER_LINE);
        let pa = PhysAddr(line * LINE_BYTES + sector * 32);
        let ctx = |what: &str| format!("{what} diverged at step {step} (seed {seed}, pa {pa:?})");
        match rng.next_below(10) {
            0..=2 => assert_eq!(real.probe(pa), oracle.probe(pa), "{}", ctx("probe")),
            3..=5 => {
                let flags = SectorFlags {
                    valid: true,
                    compressed: rng.next_below(2) == 0,
                    guaranteed: rng.next_below(2) == 0,
                    dirty: rng.next_below(4) == 0,
                };
                assert_eq!(real.fill(pa, flags), oracle.fill(pa, flags), "{}", ctx("fill"));
            }
            6 => assert_eq!(real.mark_dirty(pa), oracle.mark_dirty(pa), "{}", ctx("mark_dirty")),
            7 => {
                let g = rng.next_below(2) == 0;
                assert_eq!(real.set_guarantee(pa, g), oracle.set_guarantee(pa, g), "{}", ctx("set_guarantee"));
            }
            8 => assert_eq!(
                real.invalidate_sector(pa),
                oracle.invalidate_sector(pa),
                "{}",
                ctx("invalidate_sector")
            ),
            _ => {
                let page = PhysAddr((pa.0 / PAGE_BYTES) * PAGE_BYTES);
                assert_eq!(
                    real.invalidate_page(page),
                    oracle.invalidate_page(page),
                    "{}",
                    ctx("invalidate_page")
                );
            }
        }
        // Peek is LRU-neutral on both sides, so it rides along every step.
        assert_eq!(real.peek(pa), oracle.peek(pa), "{}", ctx("peek"));
        assert_eq!(real.resident_lines(), oracle.resident_lines(), "{}", ctx("resident_lines"));
    }
}

/// Drives one (real, reference) TLB pair through `steps` random operations.
fn drive_tlb_pair(
    base_entries: usize,
    large_entries: usize,
    assoc: usize,
    base_pages: u64,
    seed: u64,
    steps: usize,
) {
    let mut real = BaseTlb::new(base_entries, large_entries, assoc, base_pages);
    let mut oracle = RefBaseTlb::new(base_entries, large_entries, assoc, base_pages);
    let mut rng = SimRng::seed_from_u64(seed);
    let vpn_space = (base_entries as u64 * 4).max(4 * PAGES_PER_CHUNK);
    for step in 0..steps {
        let vpn = rng.next_below(vpn_space);
        let ctx = |what: &str| format!("{what} diverged at step {step} (seed {seed}, vpn {vpn})");
        match rng.next_below(10) {
            0..=4 => assert_eq!(real.lookup(Vpn(vpn)), oracle.lookup(Vpn(vpn)), "{}", ctx("lookup")),
            5..=7 => {
                // 1-in-4 fills install a promoted 2MB entry; base fills use
                // the configured base-page reach, PPN offset keeps the
                // arithmetic asymmetric (catches vpn/ppn swaps).
                let pages = if rng.next_below(4) == 0 { PAGES_PER_CHUNK } else { base_pages };
                let fill =
                    TlbFill { vpn: Vpn(vpn), ppn: avatar_sim::addr::Ppn(vpn + 0x4_0000), pages, run: None };
                real.fill(&fill);
                oracle.fill(&fill);
            }
            8 => {
                let pages = 1 << rng.next_below(10); // 1..=512 pages
                assert_eq!(
                    real.invalidate(Vpn(vpn), pages),
                    oracle.invalidate(Vpn(vpn), pages),
                    "{}",
                    ctx("invalidate")
                );
            }
            _ => {
                // Rare full flush resets both sides together.
                if rng.next_below(50) == 0 {
                    real.flush();
                    oracle.flush();
                }
            }
        }
        assert_eq!(real.len(), oracle.len(), "{}", ctx("len"));
    }
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

#[test]
fn packed_cache_matches_seed_reference_l2_geometry() {
    // 4096 lines x 16 ways ~ a scaled-down L2; enough sets to exercise
    // indexing, enough ways for real LRU churn.
    for seed in 0..4 {
        drive_cache_pair(4096, 16, 0xCAFE + seed, 20_000);
    }
}

#[test]
fn packed_cache_matches_seed_reference_tiny_geometry() {
    // 2 lines x 2 ways (a single set) maximizes evictions per operation —
    // the victim-selection path dominates the trace.
    for seed in 0..4 {
        drive_cache_pair(2, 2, 0xBEEF + seed, 20_000);
    }
}

#[test]
fn packed_tlb_matches_seed_reference_l1_geometry() {
    // Fully associative 32-entry base / 16-entry large: the L1 TLB shape.
    for seed in 0..4 {
        drive_tlb_pair(32, 16, 0, 1, 0x7155 + seed, 20_000);
    }
}

#[test]
fn packed_tlb_matches_seed_reference_l2_geometry() {
    // 1024/128 8-way: the shared L2 TLB shape, with 64KB base pages to
    // exercise the base-page alignment in fill routing.
    for seed in 0..4 {
        drive_tlb_pair(1024, 128, 8, 16, 0x2B1B + seed, 20_000);
    }
}

#[test]
fn packed_tlb_matches_seed_reference_uneven_set_count() {
    // 24/12 4-way: 6 and 3 sets, which the array indexes with `%` instead
    // of its power-of-two set mask.
    for seed in 0..4 {
        drive_tlb_pair(24, 12, 4, 1, 0x5E75 + seed, 20_000);
    }
}
