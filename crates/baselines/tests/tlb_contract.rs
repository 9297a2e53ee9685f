//! Property tests for the two requirements `TlbModel` places on every TLB
//! model, which the engine's L2 TLB overflow drain relies on to skip
//! retries it can prove would find the MSHR file full:
//!
//! 1. a `lookup` that misses changes nothing a later call can observe;
//! 2. a `fill` makes lookups hit only inside the fill's own 2MB chunk: a
//!    page outside it that missed before the fill still misses.
//!
//! A fill may change a *hit* outside its chunk: it can evict the entry,
//! and SnakeByte's eviction reorders its entries, so of two overlapping
//! entries a different one may answer. The drain never retries a hit, so
//! only misses are pinned.
//!
//! Every model in the simulator is checked: `BaseTlb` with 4KB and 64KB
//! base pages, `ColtTlb` and `SnakeByteTlb`. The generators are
//! hand-rolled over [`SimRng`] and seeded per trial, and every assertion
//! names its model and trial so a failure reproduces exactly.

use avatar_baselines::{ColtTlb, SnakeByteTlb};
use avatar_sim::addr::{Ppn, Vpn, PAGES_PER_CHUNK};
use avatar_sim::rng::SimRng;
use avatar_sim::tlb::{BaseTlb, ContigRun, TlbFill, TlbModel};

const TRIALS: u64 = 48;
const OPS: usize = 160;
/// Fills and lookups land in chunks `1..=CHUNKS`, so both neighbours of
/// every touched chunk are addressable too.
const CHUNKS: u64 = 3;

/// A model under test: name plus a constructor. Small capacities, so
/// fills evict and sets conflict.
type Model = (&'static str, fn() -> Box<dyn TlbModel>);

const MODELS: &[Model] = &[
    ("base 4KB", || Box::new(BaseTlb::new(24, 4, 4, 1))),
    ("base 64KB", || Box::new(BaseTlb::new(24, 4, 4, 16))),
    ("colt", || Box::new(ColtTlb::new(24, 4, 4))),
    ("snakebyte", || Box::new(SnakeByteTlb::new(28))),
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Fill(TlbFill),
    Lookup(Vpn),
    Invalidate(Vpn, u64),
}

/// What one call returned, for comparing two models call by call.
#[derive(Debug, PartialEq)]
enum Outcome {
    Filled,
    Looked(Option<avatar_sim::tlb::TlbHit>),
    Dropped(u64),
}

fn apply(t: &mut dyn TlbModel, op: Op) -> Outcome {
    match op {
        Op::Fill(f) => {
            t.fill(&f);
            Outcome::Filled
        }
        Op::Lookup(v) => Outcome::Looked(t.lookup(v)),
        Op::Invalidate(v, pages) => Outcome::Dropped(t.invalidate(v, pages)),
    }
}

/// A fresh model after `log`.
fn replay(make: fn() -> Box<dyn TlbModel>, log: &[Op]) -> Box<dyn TlbModel> {
    let mut t = make();
    for &op in log {
        apply(t.as_mut(), op);
    }
    t
}

/// A page in the touched chunks, biased towards a few dense runs so
/// coalescing and merging engage.
fn page(rng: &mut SimRng) -> u64 {
    let chunk = 1 + rng.next_below(CHUNKS);
    let span = if rng.next_f64() < 0.7 { 48 } else { PAGES_PER_CHUNK };
    let offset = rng.next_below(span);
    chunk * PAGES_PER_CHUNK + offset
}

/// Any page the checks look at: the touched chunks and their neighbours.
fn any_page(rng: &mut SimRng) -> u64 {
    rng.next_below((CHUNKS + 2) * PAGES_PER_CHUNK)
}

/// A fill as the engine issues one: a 4KB page, a 64KB base page or a
/// promoted 2MB page, mostly on one contiguous mapping so entries can
/// coalesce and merge, with a contiguity run that may cross the chunk
/// boundary (the model must clamp it).
fn fill(rng: &mut SimRng) -> TlbFill {
    let vpn = page(rng);
    let pages = match rng.index(8) {
        0 => PAGES_PER_CHUNK,
        1 => 16,
        _ => 1,
    };
    let shift = if rng.next_f64() < 0.85 { 10_000 } else { 20_000 + rng.next_below(64) };
    let run = (rng.next_f64() < 0.5).then(|| {
        let back = rng.next_below(24).min(vpn);
        let start_vpn = vpn - back;
        ContigRun { start_vpn, start_ppn: start_vpn + shift, len: back + 1 + rng.next_below(24) }
    });
    TlbFill { vpn: Vpn(vpn), ppn: Ppn(vpn + shift), pages, run }
}

fn op(rng: &mut SimRng) -> Op {
    match rng.index(10) {
        0..=3 => Op::Fill(fill(rng)),
        4 => Op::Invalidate(Vpn(page(rng)), 1 + rng.next_below(20)),
        _ => Op::Lookup(Vpn(any_page(rng))),
    }
}

#[test]
fn missing_lookups_change_nothing_observable() {
    for &(name, make) in MODELS {
        let mut interleaved = 0;
        for trial in 0..TRIALS {
            let mut rng = SimRng::seed_from_u64(0x7c0 ^ trial);
            let mut plain = make();
            let mut extra = make();
            let mut extra_log = Vec::new();
            for step in 0..OPS {
                // Interleave lookups that miss into `extra` only. A lookup
                // that would hit is not issued: hits refresh LRU state.
                for _ in 0..rng.index(3) {
                    let v = Vpn(any_page(&mut rng));
                    if replay(make, &extra_log).lookup(v).is_none() {
                        assert_eq!(extra.lookup(v), None, "{name} trial {trial} step {step}");
                        extra_log.push(Op::Lookup(v));
                        interleaved += 1;
                    }
                }
                let op = op(&mut rng);
                let want = apply(plain.as_mut(), op);
                let got = apply(extra.as_mut(), op);
                assert_eq!(got, want, "{name} trial {trial} step {step}: {op:?}");
                extra_log.push(op);
            }
            assert_eq!(
                extra.drain_extra_memory_refs(),
                plain.drain_extra_memory_refs(),
                "{name} trial {trial}: merge traffic"
            );
        }
        assert!(interleaved > TRIALS as usize * OPS / 2, "{name}: too few extra lookups");
    }
}

#[test]
fn fills_make_lookups_hit_only_inside_their_chunk() {
    for &(name, make) in MODELS {
        let mut kept_misses = 0;
        for trial in 0..TRIALS {
            let mut rng = SimRng::seed_from_u64(0x7c1 ^ trial);
            let mut log: Vec<Op> = (0..OPS).map(|_| op(&mut rng)).collect();
            for _ in 0..4 {
                let f = fill(&mut rng);
                let chunk = f.vpn.chunk();
                // Lookups never evict, so one copy per side serves every
                // page.
                let mut before = replay(make, &log);
                log.push(Op::Fill(f));
                let mut after = replay(make, &log);
                assert!(after.lookup(f.vpn).is_some(), "{name} trial {trial}: {f:?} missed itself");
                let mut pages: Vec<u64> = (0..96).map(|_| any_page(&mut rng)).collect();
                pages.extend([chunk * PAGES_PER_CHUNK - 1, (chunk + 1) * PAGES_PER_CHUNK]);
                for v in pages.into_iter().map(Vpn).filter(|v| v.chunk() != chunk) {
                    if before.lookup(v).is_none() {
                        let is = after.lookup(v);
                        assert!(
                            is.is_none(),
                            "{name} trial {trial}: {f:?} made page {} outside its chunk \
                             hit: {is:?}",
                            v.0
                        );
                        kept_misses += 1;
                    }
                }
            }
        }
        assert!(kept_misses > 0, "{name}: no page outside a fill's chunk ever missed");
    }
}
