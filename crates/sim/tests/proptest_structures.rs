//! Property tests for the simulator's core structures: replacement
//! invariants, translation consistency, and hazard primitives.
//!
//! The generators are hand-rolled over [`avatar_sim::rng::SimRng`] (the
//! crates.io registry is unreachable from the build environment, so no
//! proptest); every trial is seeded deterministically, and each assertion
//! message carries the trial number so a failure reproduces exactly.

#![allow(clippy::disallowed_types, reason = "an oracle independent of the hasher under test")]

use avatar_sim::addr::{PhysAddr, Ppn, Vpn, PAGES_PER_CHUNK};
use avatar_sim::cache::{Probe, SectorCache, SectorFlags};
use avatar_sim::config::GpuConfig;
use avatar_sim::dram::{Dram, DramOp};
use avatar_sim::event::EventQueue;
use avatar_sim::page_table::PageTable;
use avatar_sim::rng::SimRng;
use avatar_sim::tlb::{BaseTlb, TlbFill, TlbModel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const TRIALS: u64 = 64;

/// A random-length vector of draws from `gen`.
fn vec_of<T>(rng: &mut SimRng, min: usize, max: usize, mut gen: impl FnMut(&mut SimRng) -> T) -> Vec<T> {
    let n = min + rng.index(max - min + 1);
    (0..n).map(|_| gen(rng)).collect()
}

// The Ports / MshrFile property tests moved into `crates/sim/src/port.rs`
// unit tests when the module became `pub(crate)` (public-surface curation).

#[test]
fn event_queue_pops_in_order() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x1003 ^ trial);
        let events = vec_of(&mut rng, 1, 200, |r| (r.next_below(1000), r.next_below(100) as u32));
        let mut q = EventQueue::new();
        for (t, v) in &events {
            q.schedule(*t, *v);
        }
        let mut last = 0;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "trial {trial}: time went backwards");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, events.len(), "trial {trial}: event lost");
    }
}

/// Differential property: arbitrary interleavings of `schedule` and `pop`
/// on the calendar queue must replay the exact `(time, value)` stream of
/// the original `BinaryHeap<Reverse<(time, seq)>>` implementation. This is
/// the bit-reproducibility contract the simulator's determinism tests rely
/// on, exercised far past the ring window so the overflow heap and the
/// ring both participate.
#[test]
fn event_queue_matches_binary_heap_reference() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x1004 ^ trial);
        let mut q = EventQueue::new();
        let mut oracle: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut tag = 0u32;
        for _ in 0..1500 {
            if rng.next_f64() < 0.6 {
                // Mix horizons: same-cycle bursts, near-ring, and far
                // overflow (several windows out).
                let t = q.now()
                    + match rng.index(3) {
                        0 => 0,
                        1 => rng.next_below(512),
                        _ => rng.next_below(20_000),
                    };
                q.schedule(t, tag);
                oracle.push(Reverse((t, seq, tag)));
                seq += 1;
                tag += 1;
            } else {
                let got = q.pop();
                let want = oracle.pop().map(|Reverse((t, _, v))| (t, v));
                assert_eq!(got, want, "trial {trial}: interleaved pop diverged");
            }
        }
        while let Some(Reverse((t, _, v))) = oracle.pop() {
            assert_eq!(q.pop(), Some((t, v)), "trial {trial}: drain diverged");
        }
        assert_eq!(q.pop(), None, "trial {trial}: calendar had extra events");
    }
}

#[test]
fn cache_never_exceeds_capacity_and_probe_after_fill_hits() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x1005 ^ trial);
        let addrs = vec_of(&mut rng, 1, 300, |r| r.next_below(4096));
        let mut c = SectorCache::new(64, 4);
        let flags = SectorFlags { valid: true, compressed: false, guaranteed: true, dirty: false };
        for a in &addrs {
            let pa = PhysAddr(a * 32);
            c.fill(pa, flags);
            assert_eq!(c.probe(pa), Probe::Hit, "trial {trial}: fresh fill must hit");
            assert!(c.resident_lines() <= 64, "trial {trial}: capacity exceeded");
        }
    }
}

#[test]
fn page_table_translations_are_exact() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x1006 ^ trial);
        let pages =
            vec_of(&mut rng, 1, 200, |r| (r.next_below(10_000), 1 + r.next_below(999_999)));
        let mut pt = PageTable::new();
        let mut model = std::collections::HashMap::new();
        for (vpn, ppn) in &pages {
            pt.map_page(Vpn(*vpn), Ppn(*ppn));
            model.insert(*vpn, *ppn);
        }
        for (vpn, ppn) in &model {
            assert_eq!(pt.translate(Vpn(*vpn)).map(|t| t.ppn.0), Some(*ppn), "trial {trial}");
        }
        assert_eq!(pt.mapped_pages(), model.len(), "trial {trial}");
    }
}

#[test]
fn promotion_splinter_roundtrip() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x1007 ^ trial);
        let vchunk = rng.next_below(64);
        let base = rng.next_below(1_000_000) & !(PAGES_PER_CHUNK - 1);
        let mut pt = PageTable::new();
        for i in 0..PAGES_PER_CHUNK {
            pt.map_page(Vpn(vchunk * PAGES_PER_CHUNK + i), Ppn(base + i));
        }
        pt.promote_chunk(vchunk, Ppn(base));
        assert!(pt.is_promoted(vchunk), "trial {trial}");
        pt.splinter_chunk(vchunk);
        for i in (0..PAGES_PER_CHUNK).step_by(37) {
            let t = pt.translate(Vpn(vchunk * PAGES_PER_CHUNK + i)).unwrap();
            assert_eq!(t.ppn, Ppn(base + i), "trial {trial}");
            assert_eq!(t.pages, 1, "trial {trial}");
        }
    }
}

#[test]
fn tlb_lookup_matches_last_fill() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x1008 ^ trial);
        let fills = vec_of(&mut rng, 1, 100, |r| (r.next_below(64), r.next_below(100_000)));
        let mut tlb = BaseTlb::new(4096, 16, 0, 1); // big enough: no evictions
        let mut model = std::collections::HashMap::new();
        for (vpn, ppn) in &fills {
            tlb.fill(&TlbFill { vpn: Vpn(*vpn), ppn: Ppn(*ppn), pages: 1, run: None });
            model.insert(*vpn, *ppn);
        }
        for (vpn, ppn) in &model {
            assert_eq!(tlb.lookup(Vpn(*vpn)).map(|h| h.ppn.0), Some(*ppn), "trial {trial}");
        }
    }
}

#[test]
fn tlb_invalidate_removes_exactly_the_range() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x1009 ^ trial);
        let fills = vec_of(&mut rng, 1, 80, |r| r.next_below(256));
        let start = rng.next_below(256);
        let len = 1 + rng.next_below(63);
        let mut tlb = BaseTlb::new(4096, 16, 0, 1);
        for vpn in &fills {
            tlb.fill(&TlbFill { vpn: Vpn(*vpn), ppn: Ppn(vpn + 1000), pages: 1, run: None });
        }
        tlb.invalidate(Vpn(start), len);
        for vpn in &fills {
            let inside = *vpn >= start && *vpn < start + len;
            assert_eq!(tlb.lookup(Vpn(*vpn)).is_some(), !inside, "trial {trial}: vpn {vpn}");
        }
    }
}

#[test]
fn dram_completions_never_precede_issue() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x100A ^ trial);
        let accesses =
            vec_of(&mut rng, 1, 200, |r| (r.next_below(1u64 << 30), r.next_below(64)));
        let mut dram = Dram::new(GpuConfig::default().dram);
        let mut now = 0;
        for (addr, gap) in accesses {
            now += gap;
            let done = dram.access(PhysAddr(addr & !31), DramOp::Read, now, 32);
            assert!(done > now, "trial {trial}: completion not strictly after issue");
        }
    }
}
