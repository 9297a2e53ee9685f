//! The GPU-local four-level radix page table.
//!
//! Translations are held per 4KB page, with optional promotion of a fully
//! resident, physically contiguous 2MB chunk to a large-page leaf one level
//! up (Mosaic-style page promotion). The table also synthesizes physical
//! addresses for its own nodes so page walks generate real memory traffic
//! through the L2 cache and DRAM — including the PTE-line spatial locality
//! that makes walks of neighbouring pages cheap.

use crate::addr::{Ppn, Vpn, PAGES_PER_CHUNK};
use crate::tlb::ContigRun;
use crate::fxhash::FxHashMap;

/// Number of radix levels (L0 root .. L3 leaf for 4KB pages).
pub const LEVELS: usize = 4;
/// Bits translated per level.
pub const BITS_PER_LEVEL: u32 = 9;
/// Reserved physical region where page-table nodes live.
pub const PT_BASE: u64 = 1 << 40;

/// A translation result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The frame backing the requested page.
    pub ppn: Ppn,
    /// Mapping granularity in 4KB pages (1, or 512 for a promoted chunk).
    pub pages: u64,
}

/// Pages per chunk as an array length.
const CHUNK_PAGES: usize = PAGES_PER_CHUNK as usize;
/// Sentinel frame for an unmapped page slot.
const NO_FRAME: u64 = u64::MAX;

/// The page table for one address space.
///
/// 4KB mappings are stored chunk-granular: one hash lookup finds a 512-slot
/// frame array for the page's 2MB chunk, and the page indexes it directly.
/// Neighbour scans (PTE-locality, [`PageTable::contiguous_run`]) become
/// contiguous array reads instead of per-page hash probes.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    map: FxHashMap<u64, Box<[u64; CHUNK_PAGES]>>,
    /// Live 4KB mappings (incremental count; the chunk arrays are sparse).
    mapped: usize,
    large: FxHashMap<u64, u64>,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps one 4KB page.
    pub fn map_page(&mut self, vpn: Vpn, ppn: Ppn) {
        debug_assert!(
            !self.large.contains_key(&vpn.chunk()),
            "mapping a 4KB page inside a promoted chunk"
        );
        let slot = self
            .map
            .entry(vpn.chunk())
            .or_insert_with(|| Box::new([NO_FRAME; CHUNK_PAGES]));
        let i = vpn.page_in_chunk() as usize;
        if slot[i] == NO_FRAME {
            self.mapped += 1;
        }
        slot[i] = ppn.0;
    }

    /// Unmaps one 4KB page; returns its frame if it was mapped.
    pub fn unmap_page(&mut self, vpn: Vpn) -> Option<Ppn> {
        let slot = self.map.get_mut(&vpn.chunk())?;
        let i = vpn.page_in_chunk() as usize;
        if slot[i] == NO_FRAME {
            return None;
        }
        let p = slot[i];
        slot[i] = NO_FRAME;
        self.mapped -= 1;
        Some(Ppn(p))
    }

    /// Promotes a fully resident, contiguous chunk to a 2MB mapping.
    ///
    /// The caller must have verified residency and contiguity; the 4KB
    /// entries are subsumed (removed).
    pub fn promote_chunk(&mut self, vchunk: u64, base_ppn: Ppn) {
        if let Some(slot) = self.map.remove(&vchunk) {
            self.mapped -= slot.iter().filter(|&&p| p != NO_FRAME).count();
        }
        self.large.insert(vchunk, base_ppn.0);
    }

    /// Splinters a promoted chunk back into 4KB mappings.
    pub fn splinter_chunk(&mut self, vchunk: u64) -> bool {
        let Some(base) = self.large.remove(&vchunk) else {
            return false;
        };
        let mut arr = Box::new([NO_FRAME; CHUNK_PAGES]);
        for (i, slot) in arr.iter_mut().enumerate() {
            *slot = base + i as u64;
        }
        if let Some(old) = self.map.insert(vchunk, arr) {
            self.mapped -= old.iter().filter(|&&p| p != NO_FRAME).count();
        }
        self.mapped += CHUNK_PAGES;
        true
    }

    /// Whether the chunk is promoted.
    pub fn is_promoted(&self, vchunk: u64) -> bool {
        self.large.contains_key(&vchunk)
    }

    /// Translates a page.
    pub fn translate(&self, vpn: Vpn) -> Option<Translation> {
        if let Some(&base) = self.large.get(&vpn.chunk()) {
            return Some(Translation { ppn: Ppn(base + vpn.page_in_chunk()), pages: PAGES_PER_CHUNK });
        }
        let slot = self.map.get(&vpn.chunk())?;
        let p = slot[vpn.page_in_chunk() as usize];
        if p == NO_FRAME {
            None
        } else {
            Some(Translation { ppn: Ppn(p), pages: 1 })
        }
    }

    /// Whether the page is mapped at any granularity.
    pub fn is_mapped(&self, vpn: Vpn) -> bool {
        self.translate(vpn).is_some()
    }

    /// Number of 4KB mappings (excluding promoted chunks).
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Number of promoted chunks.
    pub fn promoted_chunks(&self) -> usize {
        self.large.len()
    }

    /// Radix prefix of `vpn` at `level` (0 = root .. 3 = leaf index).
    pub fn prefix(vpn: Vpn, level: usize) -> u64 {
        debug_assert!(level < LEVELS);
        vpn.0 >> (BITS_PER_LEVEL as usize * (LEVELS - 1 - level))
    }

    /// Physical address of the page-structure entry consulted at `level`
    /// during a walk of `vpn`. Entries are 8 bytes and packed, so
    /// neighbouring pages share PTE cache lines.
    pub fn entry_address(vpn: Vpn, level: usize) -> crate::addr::PhysAddr {
        let prefix = Self::prefix(vpn, level);
        crate::addr::PhysAddr(PT_BASE + ((level as u64) << 36) + prefix * 8)
    }

    /// Levels a walk must reference for `vpn` when starting from scratch:
    /// 4 for a 4KB leaf, 3 for a promoted 2MB leaf.
    pub fn walk_levels(&self, vpn: Vpn) -> usize {
        if self.large.contains_key(&vpn.chunk()) {
            LEVELS - 1
        } else {
            LEVELS
        }
    }

    /// The maximal physically contiguous run containing `vpn`, constrained
    /// to the aligned window of `window_pages` (a power of two).
    ///
    /// Returns `None` when the page itself is unmapped. Promoted chunks
    /// report their full 2MB run.
    pub fn contiguous_run(&self, vpn: Vpn, window_pages: u64) -> Option<ContigRun> {
        debug_assert!(window_pages.is_power_of_two());
        // An aligned window of at most a chunk never crosses a chunk
        // boundary, so the whole scan stays inside one frame array.
        debug_assert!(window_pages <= PAGES_PER_CHUNK);
        if let Some(&base) = self.large.get(&vpn.chunk()) {
            let start_vpn = vpn.chunk() * PAGES_PER_CHUNK;
            return Some(ContigRun { start_vpn, start_ppn: base, len: PAGES_PER_CHUNK });
        }
        let slot = self.map.get(&vpn.chunk())?;
        let i = vpn.page_in_chunk() as usize;
        let ppn = slot[i];
        if ppn == NO_FRAME {
            return None;
        }
        let window_start = (vpn.0 & !(window_pages - 1)) & (PAGES_PER_CHUNK - 1);
        let window_end = window_start + window_pages;
        let mut lo = i as u64;
        while lo > window_start {
            let p = slot[lo as usize - 1];
            if p != NO_FRAME && p + (i as u64 - (lo - 1)) == ppn {
                lo -= 1;
            } else {
                break;
            }
        }
        let mut hi = i as u64 + 1;
        while hi < window_end {
            let p = slot[hi as usize];
            if p != NO_FRAME && p == ppn + (hi - i as u64) {
                hi += 1;
            } else {
                break;
            }
        }
        let chunk_first = vpn.chunk() * PAGES_PER_CHUNK;
        Some(ContigRun {
            start_vpn: chunk_first + lo,
            start_ppn: ppn - (i as u64 - lo),
            len: hi - lo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_unmap() {
        let mut pt = PageTable::new();
        assert!(pt.translate(Vpn(5)).is_none());
        pt.map_page(Vpn(5), Ppn(50));
        assert_eq!(pt.translate(Vpn(5)), Some(Translation { ppn: Ppn(50), pages: 1 }));
        assert_eq!(pt.unmap_page(Vpn(5)), Some(Ppn(50)));
        assert!(!pt.is_mapped(Vpn(5)));
    }

    #[test]
    fn promotion_covers_chunk_and_subsumes_pages() {
        let mut pt = PageTable::new();
        for i in 0..PAGES_PER_CHUNK {
            pt.map_page(Vpn(PAGES_PER_CHUNK + i), Ppn(1000 + i));
        }
        pt.promote_chunk(1, Ppn(1000));
        assert_eq!(pt.mapped_pages(), 0);
        assert!(pt.is_promoted(1));
        let t = pt.translate(Vpn(PAGES_PER_CHUNK + 77)).unwrap();
        assert_eq!(t.ppn, Ppn(1077));
        assert_eq!(t.pages, PAGES_PER_CHUNK);
        assert_eq!(pt.walk_levels(Vpn(PAGES_PER_CHUNK + 77)), 3);
    }

    #[test]
    fn splinter_restores_4k_mappings() {
        let mut pt = PageTable::new();
        pt.promote_chunk(2, Ppn(4096));
        assert!(pt.splinter_chunk(2));
        assert!(!pt.is_promoted(2));
        let t = pt.translate(Vpn(2 * PAGES_PER_CHUNK + 3)).unwrap();
        assert_eq!(t.ppn, Ppn(4099));
        assert_eq!(t.pages, 1);
        assert!(!pt.splinter_chunk(2));
    }

    #[test]
    fn prefixes_and_entry_addresses() {
        let vpn = Vpn(0b1_0000_0001_0000_0001);
        assert_eq!(PageTable::prefix(vpn, 3), vpn.0);
        assert_eq!(PageTable::prefix(vpn, 2), vpn.0 >> 9);
        assert_eq!(PageTable::prefix(vpn, 0), vpn.0 >> 27);
        // Neighbouring leaf PTEs share a 128B line (16 PTEs per line).
        let a = PageTable::entry_address(Vpn(100), 3);
        let b = PageTable::entry_address(Vpn(101), 3);
        assert_eq!(a.line(), b.line());
        let c = PageTable::entry_address(Vpn(116), 3);
        assert_ne!(a.line(), c.line());
    }

    #[test]
    fn contiguous_run_detection() {
        let mut pt = PageTable::new();
        // Pages 32..40 contiguous, 40 breaks contiguity.
        for i in 0..8 {
            pt.map_page(Vpn(32 + i), Ppn(200 + i));
        }
        pt.map_page(Vpn(40), Ppn(999));
        let run = pt.contiguous_run(Vpn(35), 16).unwrap();
        assert_eq!(run, ContigRun { start_vpn: 32, start_ppn: 200, len: 8 });
        // The window clamps the run.
        let run4 = pt.contiguous_run(Vpn(35), 4).unwrap();
        assert_eq!(run4, ContigRun { start_vpn: 32, start_ppn: 200, len: 4 });
        // Unmapped page: no run.
        assert!(pt.contiguous_run(Vpn(41), 16).is_none());
    }

    #[test]
    fn contiguous_run_does_not_cross_window() {
        let mut pt = PageTable::new();
        for i in 0..32 {
            pt.map_page(Vpn(i), Ppn(100 + i));
        }
        let run = pt.contiguous_run(Vpn(17), 16).unwrap();
        assert_eq!(run.start_vpn, 16);
        assert_eq!(run.len, 16);
    }

    #[test]
    fn promoted_chunk_reports_full_run() {
        let mut pt = PageTable::new();
        pt.promote_chunk(3, Ppn(9000));
        let run = pt.contiguous_run(Vpn(3 * PAGES_PER_CHUNK + 5), 16).unwrap();
        assert_eq!(run.len, PAGES_PER_CHUNK);
        assert_eq!(run.start_ppn, 9000);
    }
}
