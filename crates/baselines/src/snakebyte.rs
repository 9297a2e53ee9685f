//! SnakeByte: adaptive and recursive page merging (Lee et al., HPCA 2023).
//!
//! SnakeByte grows TLB reach by recursively merging *buddy* entries:
//! whenever two adjacent, equally sized, aligned entries map a physically
//! contiguous region, they merge into one entry of twice the coverage.
//! Merging is not free — each step references the in-memory page table to
//! record contiguity metadata, which the model charges as extra memory
//! references drained by the engine (`drain_extra_memory_refs`). On a
//! shootdown, merged entries splinter (they are dropped whole), and
//! rebuilding their reach costs merge traffic again — the behaviour behind
//! the paper's oversubscription observations (Fig 19).
//!
//! Coverage is capped at 2MB (one UVM chunk): physical contiguity in the
//! simulated allocator comes from chunk reservations, so larger merges
//! would never validate.

use avatar_sim::addr::{Ppn, Vpn, PAGES_PER_CHUNK};
use avatar_sim::tlb::{TlbFill, TlbHit, TlbModel};

/// Page-table references charged per merge step (read + metadata update).
pub const REFS_PER_MERGE: u64 = 2;

#[derive(Debug, Clone)]
struct Entry {
    vpn: u64,
    ppn: u64,
    len: u64,
    last_use: u64,
}

impl Entry {
    fn covers(&self, vpn: u64) -> bool {
        vpn >= self.vpn && vpn < self.vpn + self.len
    }

    fn overlaps(&self, vpn: u64, pages: u64) -> bool {
        self.vpn < vpn + pages && vpn < self.vpn + self.len
    }
}

/// The SnakeByte TLB model.
#[derive(Debug)]
pub struct SnakeByteTlb {
    entries: Vec<Entry>,
    capacity: usize,
    stamp: u64,
    extra_refs: u64,
    /// Total merge operations performed (model statistic).
    pub merges: u64,
    /// Merged entries splintered by shootdowns (model statistic).
    pub splinters: u64,
}

impl SnakeByteTlb {
    /// Creates a SnakeByte TLB with `entries` slots. The design keeps one
    /// unified, fully associative structure — merged entries of any size
    /// share it.
    pub fn new(entries: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity: entries.max(1),
            stamp: 0,
            extra_refs: 0,
            merges: 0,
            splinters: 0,
        }
    }

    fn touch(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Recursively merges the entry at `idx` with its buddy while possible.
    fn merge_up(&mut self, mut idx: usize) {
        loop {
            let (vpn, _ppn, len, last_use) = {
                let e = &self.entries[idx];
                (e.vpn, e.ppn, e.len, e.last_use)
            };
            if len >= PAGES_PER_CHUNK {
                return;
            }
            let buddy_vpn = vpn ^ len;
            let Some(bidx) = self
                .entries
                .iter()
                .position(|e| e.vpn == buddy_vpn && e.len == len)
            else {
                return;
            };
            // Physical contiguity check: the merged region must map one
            // contiguous frame range.
            let (lo_idx, hi_idx) = if vpn < buddy_vpn { (idx, bidx) } else { (bidx, idx) };
            let lo_ppn = self.entries[lo_idx].ppn;
            let hi_ppn = self.entries[hi_idx].ppn;
            if hi_ppn != lo_ppn + len {
                return;
            }
            // Alignment of the merged block must hold for a valid buddy
            // merge (it does by construction: vpn ^ len flips one bit).
            let merged = Entry {
                vpn: vpn & !len,
                ppn: lo_ppn,
                len: len * 2,
                last_use: last_use.max(self.entries[bidx].last_use),
            };
            self.merges += 1;
            self.extra_refs += REFS_PER_MERGE;
            // Remove the higher index first so the lower stays valid.
            let (first, second) = if idx > bidx { (idx, bidx) } else { (bidx, idx) };
            self.entries.swap_remove(first);
            self.entries.swap_remove(second);
            self.entries.push(merged);
            idx = self.entries.len() - 1;
        }
    }
}

impl TlbModel for SnakeByteTlb {
    fn lookup(&mut self, vpn: Vpn) -> Option<TlbHit> {
        let stamp = self.touch();
        let e = self.entries.iter_mut().find(|e| e.covers(vpn.0))?;
        e.last_use = stamp;
        Some(TlbHit {
            ppn: Ppn(e.ppn + (vpn.0 - e.vpn)),
            coverage_pages: e.len,
            entry_vpn: e.vpn,
            entry_ppn: e.ppn,
        })
    }

    fn fill(&mut self, fill: &TlbFill) {
        let stamp = self.touch();
        if self.entries.iter().any(|e| e.covers(fill.vpn.0)) {
            return;
        }
        // Install at the natural granularity: promoted pages enter whole,
        // base fills enter as single pages and grow via recursive merging.
        let (vpn, ppn, len) = if fill.pages > 1 {
            let base_vpn = fill.vpn.0 & !(fill.pages - 1);
            (base_vpn, fill.ppn.0 - (fill.vpn.0 - base_vpn), fill.pages)
        } else {
            (fill.vpn.0, fill.ppn.0, 1)
        };
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("a full table holds a victim: capacity is at least 1");
            self.entries.swap_remove(victim);
        }
        self.entries.push(Entry { vpn, ppn, len, last_use: stamp });
        self.merge_up(self.entries.len() - 1);
    }

    fn invalidate(&mut self, vpn: Vpn, pages: u64) -> u64 {
        let mut dropped = 0;
        let mut splinters = 0;
        self.entries.retain(|e| {
            if e.overlaps(vpn.0, pages) {
                dropped += 1;
                if e.len > 1 {
                    splinters += 1;
                }
                false
            } else {
                true
            }
        });
        self.splinters += splinters;
        dropped
    }

    fn flush(&mut self) {
        self.entries.clear();
    }

    fn name(&self) -> &'static str {
        "snakebyte"
    }

    fn drain_extra_memory_refs(&mut self) -> u64 {
        std::mem::take(&mut self.extra_refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill1(vpn: u64, ppn: u64) -> TlbFill {
        TlbFill { vpn: Vpn(vpn), ppn: Ppn(ppn), pages: 1, run: None }
    }

    #[test]
    fn buddies_merge_recursively() {
        let mut t = SnakeByteTlb::new(16);
        // Fill pages 0..4 contiguously: should end as one 4-page entry.
        for v in 0..4 {
            t.fill(&fill1(v, 100 + v));
        }
        let hit = t.lookup(Vpn(3)).unwrap();
        assert_eq!(hit.coverage_pages, 4);
        assert_eq!(hit.ppn, Ppn(103));
        assert_eq!(t.merges, 3);
        assert_eq!(t.drain_extra_memory_refs(), 3 * REFS_PER_MERGE);
        assert_eq!(t.drain_extra_memory_refs(), 0, "drain resets the counter");
    }

    #[test]
    fn non_contiguous_buddies_do_not_merge() {
        let mut t = SnakeByteTlb::new(16);
        t.fill(&fill1(0, 100));
        t.fill(&fill1(1, 999)); // breaks physical contiguity
        assert_eq!(t.lookup(Vpn(0)).unwrap().coverage_pages, 1);
        assert_eq!(t.merges, 0);
    }

    #[test]
    fn misaligned_neighbours_do_not_merge() {
        let mut t = SnakeByteTlb::new(16);
        // Pages 1 and 2 are adjacent but not buddies (1^1 == 0, 2^2 ... ).
        t.fill(&fill1(1, 101));
        t.fill(&fill1(2, 102));
        assert_eq!(t.lookup(Vpn(1)).unwrap().coverage_pages, 1);
        assert_eq!(t.lookup(Vpn(2)).unwrap().coverage_pages, 1);
    }

    #[test]
    fn merge_capped_at_chunk() {
        let mut t = SnakeByteTlb::new(1024);
        for v in 0..2 * PAGES_PER_CHUNK {
            t.fill(&fill1(v, 4096 + v));
        }
        let hit = t.lookup(Vpn(0)).unwrap();
        assert_eq!(hit.coverage_pages, PAGES_PER_CHUNK, "coverage capped at 2MB");
    }

    #[test]
    fn shootdown_splinters_merged_entry() {
        let mut t = SnakeByteTlb::new(16);
        for v in 0..8 {
            t.fill(&fill1(v, 200 + v));
        }
        assert_eq!(t.lookup(Vpn(0)).unwrap().coverage_pages, 8);
        assert_eq!(t.invalidate(Vpn(3), 1), 1);
        assert_eq!(t.splinters, 1);
        assert!(t.lookup(Vpn(0)).is_none(), "whole merged entry dropped");
        // Rebuilding reach costs merge traffic again.
        for v in 0..8 {
            t.fill(&fill1(v, 200 + v));
        }
        assert!(t.drain_extra_memory_refs() > 0);
    }

    #[test]
    fn promoted_fill_enters_whole() {
        let mut t = SnakeByteTlb::new(16);
        t.fill(&TlbFill {
            vpn: Vpn(PAGES_PER_CHUNK + 5),
            ppn: Ppn(2 * PAGES_PER_CHUNK + 5),
            pages: PAGES_PER_CHUNK,
            run: None,
        });
        let hit = t.lookup(Vpn(PAGES_PER_CHUNK)).unwrap();
        assert_eq!(hit.coverage_pages, PAGES_PER_CHUNK);
        assert_eq!(hit.ppn, Ppn(2 * PAGES_PER_CHUNK));
    }

    #[test]
    fn lru_eviction() {
        let mut t = SnakeByteTlb::new(2);
        t.fill(&fill1(0, 10));
        t.fill(&fill1(100, 110));
        t.lookup(Vpn(0));
        t.fill(&fill1(200, 210));
        assert!(t.lookup(Vpn(0)).is_some());
        assert!(t.lookup(Vpn(100)).is_none());
    }

    #[test]
    fn duplicate_fill_ignored() {
        let mut t = SnakeByteTlb::new(4);
        t.fill(&fill1(5, 50));
        t.fill(&fill1(5, 50));
        assert_eq!(t.entries.len(), 1);
    }
}
