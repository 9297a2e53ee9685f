//! CoLT: Coalesced Large-Reach TLBs (Pham et al., MICRO 2012).
//!
//! When a page walk completes, the walker has fetched the whole 128-byte
//! PTE cache line — 16 PTEs. CoLT coalesces the contiguous translations in
//! that line into a single TLB entry covering up to 16 pages, so one entry
//! serves a run of neighbouring pages. Promoted 2MB pages go to a separate
//! large-page array, as in the baseline design.

use avatar_sim::addr::{Ppn, Vpn, PAGES_PER_CHUNK};
use avatar_sim::tlb::{TlbFill, TlbHit, TlbModel};

/// Maximum pages one coalesced entry may cover (one PTE line = 16 PTEs).
pub const MAX_COALESCE: u64 = 16;

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

/// The CoLT TLB model: coalesced base entries plus a 2MB large-page array.
#[derive(Debug)]
pub struct ColtTlb {
    sets: Vec<Vec<Entry>>,
    ways: usize,
    large: Vec<Entry>,
    large_capacity: usize,
    stamp: u64,
    /// Entries installed covering more than one page (model statistic).
    pub coalesced_fills: u64,
}

impl ColtTlb {
    /// Creates a CoLT TLB with `base_entries` coalescable entries
    /// (associativity `assoc`; 0 = fully associative) and `large_entries`
    /// 2MB slots.
    pub fn new(base_entries: usize, large_entries: usize, assoc: usize) -> Self {
        let (nsets, ways) = if assoc == 0 || assoc >= base_entries {
            (1, base_entries.max(1))
        } else {
            ((base_entries / assoc).max(1), assoc)
        };
        Self {
            sets: vec![Vec::new(); nsets],
            ways,
            large: Vec::new(),
            large_capacity: large_entries.max(1),
            stamp: 0,
            coalesced_fills: 0,
        }
    }

    /// Coalesced entries are indexed by their PTE line, so every page of a
    /// potential entry maps to the same set.
    fn set_of(&self, vpn: u64) -> usize {
        ((vpn / MAX_COALESCE) % self.sets.len() as u64) as usize
    }

    fn touch(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }
}

impl TlbModel for ColtTlb {
    fn lookup(&mut self, vpn: Vpn) -> Option<TlbHit> {
        let stamp = self.touch();
        if let Some(e) = self.large.iter_mut().find(|e| e.covers(vpn.0)) {
            e.last_use = stamp;
            return Some(TlbHit {
                ppn: Ppn(e.ppn + (vpn.0 - e.vpn)),
                coverage_pages: e.len,
                entry_vpn: e.vpn,
                entry_ppn: e.ppn,
            });
        }
        let set = self.set_of(vpn.0);
        let e = self.sets[set].iter_mut().find(|e| e.covers(vpn.0))?;
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
        if fill.pages >= PAGES_PER_CHUNK {
            let base_vpn = fill.vpn.0 & !(PAGES_PER_CHUNK - 1);
            let base_ppn = fill.ppn.0 - (fill.vpn.0 - base_vpn);
            if let Some(e) = self.large.iter_mut().find(|e| e.vpn == base_vpn) {
                e.ppn = base_ppn;
                e.last_use = stamp;
                return;
            }
            if self.large.len() >= self.large_capacity {
                let victim = self
                    .large
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_use)
                    .map(|(i, _)| i)
                    .expect("a full 2MB array holds a victim: capacity is at least 1");
                self.large.swap_remove(victim);
            }
            self.large.push(Entry {
                vpn: base_vpn,
                ppn: base_ppn,
                len: PAGES_PER_CHUNK,
                last_use: stamp,
            });
            return;
        }

        // Coalesce the contiguity run, clamped to this PTE line.
        let (vpn, ppn, len) = match fill.run {
            Some(run) if run.covers(fill.vpn.0) => {
                let line_start = fill.vpn.0 & !(MAX_COALESCE - 1);
                let line_end = line_start + MAX_COALESCE;
                let start = run.start_vpn.max(line_start);
                let end = (run.start_vpn + run.len).min(line_end);
                (start, run.translate(start), end - start)
            }
            _ => (fill.vpn.0, fill.ppn.0, 1),
        };
        if len > 1 {
            self.coalesced_fills += 1;
        }
        let set_idx = self.set_of(vpn);
        let ways = self.ways;
        let set = &mut self.sets[set_idx];
        // Replace any existing entry this one subsumes or duplicates.
        set.retain(|e| !(vpn <= e.vpn && e.vpn + e.len <= vpn + len));
        if set.iter().any(|e| e.covers(fill.vpn.0)) {
            return; // an existing wider entry already covers the page
        }
        if set.len() >= ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("a full set holds a victim: ways is at least 1");
            set.swap_remove(victim);
        }
        set.push(Entry { vpn, ppn, len, last_use: stamp });
    }

    fn invalidate(&mut self, vpn: Vpn, pages: u64) -> u64 {
        let mut dropped = 0;
        for set in &mut self.sets {
            set.retain(|e| {
                if e.overlaps(vpn.0, pages) {
                    dropped += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.large.retain(|e| {
            if e.overlaps(vpn.0, pages) {
                dropped += 1;
                false
            } else {
                true
            }
        });
        dropped
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.large.clear();
    }

    fn name(&self) -> &'static str {
        "colt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avatar_sim::tlb::ContigRun;

    fn fill_with_run(vpn: u64, ppn: u64, run: ContigRun) -> TlbFill {
        TlbFill { vpn: Vpn(vpn), ppn: Ppn(ppn), pages: 1, run: Some(run) }
    }

    #[test]
    fn coalesces_contiguous_line() {
        let mut t = ColtTlb::new(8, 2, 0);
        // Pages 16..32 contiguous; walk of page 20 coalesces all 16.
        let run = ContigRun { start_vpn: 16, start_ppn: 116, len: 16 };
        t.fill(&fill_with_run(20, 120, run));
        for v in 16..32 {
            let hit = t.lookup(Vpn(v)).unwrap_or_else(|| panic!("page {v} covered"));
            assert_eq!(hit.ppn, Ppn(100 + v));
            assert_eq!(hit.coverage_pages, 16);
        }
        assert!(t.lookup(Vpn(32)).is_none());
        assert_eq!(t.coalesced_fills, 1);
    }

    #[test]
    fn run_clamped_to_pte_line() {
        let mut t = ColtTlb::new(8, 2, 0);
        // A 32-page run crossing two PTE lines: only this line coalesces.
        let run = ContigRun { start_vpn: 16, start_ppn: 516, len: 32 };
        t.fill(&fill_with_run(20, 520, run));
        assert!(t.lookup(Vpn(31)).is_some());
        assert!(t.lookup(Vpn(32)).is_none(), "next PTE line needs its own walk");
    }

    #[test]
    fn partial_run_coalesces_partially() {
        let mut t = ColtTlb::new(8, 2, 0);
        let run = ContigRun { start_vpn: 18, start_ppn: 218, len: 5 };
        t.fill(&fill_with_run(20, 220, run));
        assert!(t.lookup(Vpn(18)).is_some());
        assert!(t.lookup(Vpn(22)).is_some());
        assert!(t.lookup(Vpn(23)).is_none());
        assert_eq!(t.lookup(Vpn(18)).unwrap().coverage_pages, 5);
    }

    #[test]
    fn no_run_installs_single_page() {
        let mut t = ColtTlb::new(8, 2, 0);
        t.fill(&TlbFill { vpn: Vpn(7), ppn: Ppn(70), pages: 1, run: None });
        assert_eq!(t.lookup(Vpn(7)).unwrap().coverage_pages, 1);
        assert_eq!(t.coalesced_fills, 0);
    }

    #[test]
    fn large_page_array_separate() {
        let mut t = ColtTlb::new(4, 2, 0);
        t.fill(&TlbFill { vpn: Vpn(512), ppn: Ppn(1024), pages: PAGES_PER_CHUNK, run: None });
        let hit = t.lookup(Vpn(900)).unwrap();
        assert_eq!(hit.coverage_pages, PAGES_PER_CHUNK);
        assert_eq!(hit.ppn, Ppn(1024 + (900 - 512)));
    }

    #[test]
    fn shootdown_drops_whole_coalesced_entry() {
        let mut t = ColtTlb::new(8, 2, 0);
        let run = ContigRun { start_vpn: 16, start_ppn: 116, len: 16 };
        t.fill(&fill_with_run(20, 120, run));
        // Invalidating one page drops the entire merged entry (the
        // coarse-metadata cost the paper highlights).
        assert_eq!(t.invalidate(Vpn(17), 1), 1);
        assert!(t.lookup(Vpn(30)).is_none());
    }

    #[test]
    fn lru_eviction_on_capacity() {
        let mut t = ColtTlb::new(2, 1, 0);
        t.fill(&TlbFill { vpn: Vpn(0), ppn: Ppn(0), pages: 1, run: None });
        t.fill(&TlbFill { vpn: Vpn(100), ppn: Ppn(100), pages: 1, run: None });
        t.lookup(Vpn(0));
        t.fill(&TlbFill { vpn: Vpn(200), ppn: Ppn(200), pages: 1, run: None });
        assert!(t.lookup(Vpn(0)).is_some());
        assert!(t.lookup(Vpn(100)).is_none());
    }

    #[test]
    fn subsumed_entry_replaced() {
        let mut t = ColtTlb::new(8, 2, 0);
        t.fill(&TlbFill { vpn: Vpn(20), ppn: Ppn(220), pages: 1, run: None });
        let run = ContigRun { start_vpn: 16, start_ppn: 216, len: 16 };
        t.fill(&fill_with_run(21, 221, run));
        // The single-page entry was subsumed; one wide entry remains.
        let hit = t.lookup(Vpn(20)).unwrap();
        assert_eq!(hit.coverage_pages, 16);
        assert_eq!(hit.ppn, Ppn(220));
    }

    #[test]
    fn flush_clears_everything() {
        let mut t = ColtTlb::new(8, 2, 0);
        t.fill(&TlbFill { vpn: Vpn(1), ppn: Ppn(1), pages: 1, run: None });
        t.fill(&TlbFill { vpn: Vpn(512), ppn: Ppn(512), pages: PAGES_PER_CHUNK, run: None });
        t.flush();
        assert!(t.lookup(Vpn(1)).is_none());
        assert!(t.lookup(Vpn(600)).is_none());
    }
}
