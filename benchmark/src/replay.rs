//! Layer replays: each simulator layer's public API driven with the
//! workload's own address stream, timed from outside.
//!
//! The stream comes from `TraceProgram::next_op`, drained warp by warp in
//! round-robin order, and is split per Table III workload into segments.
//! Each segment is replayed through fresh structures built from the
//! cell's own `GpuConfig`: per-SM L1 TLBs and L1 caches, then the shared
//! L2 TLB and L2 on their misses, walks and UVM touches on the L2 TLB
//! misses, DRAM reads on the L2 misses. Sector contents come from
//! `ContentModel::bytes`. The result is a host cost per operation for
//! every layer, plus the replay's own hit ratios to print beside the
//! in-run ones, since a replay without timing feedback is only an
//! estimate of the in-run access mix.

use avatar_bpc::Codec;
use avatar_core::policy::PolicySelection;
use avatar_core::system::{gpu_config_for, RunOptions};
use avatar_core::ModTable;
use avatar_sim::addr::{PhysAddr, Ppn, VirtAddr, Vpn};
use avatar_sim::cache::{Probe, SectorCache, SectorFlags};
use avatar_sim::config::GpuConfig;
use avatar_sim::dram::{Dram, DramOp};
use avatar_sim::event::EventQueue;
use avatar_sim::sm::{coalesce_into, WarpOp, WarpProgram};
use avatar_sim::tlb::TlbFill;
use avatar_sim::uvm::Uvm;
use avatar_sim::walker::{PageWalkSystem, WalkProgress};
use avatar_workloads::Workload;
use std::hint::black_box;
// Host wall time of the replays, never simulated state. lint:allow(nondeterminism)
use std::time::Instant;

/// Memory operations recorded per benchmark workload, split evenly over
/// its Table III workloads.
pub const OPS_CAP: usize = 200_000;

/// Raw (uncoalesced) warp operations kept per segment for the coalescer
/// replay.
const RAW_CAP: usize = 20_000;

/// Sectors sized per segment by the BPC replay.
const BPC_CAP: usize = 20_000;

/// Pop/schedule pairs timed by the calendar replay.
const CALENDAR_OPS: u64 = 500_000;

/// Builds of each trace program timed.
const BUILDS: usize = 3;

/// One warp memory operation of the recorded stream.
#[derive(Debug, Clone, Copy)]
struct Op {
    sm: usize,
    pc: u64,
    /// Range of the op's coalesced sectors in [`Segment::sectors`].
    start: usize,
    end: usize,
}

/// The recorded stream of one Table III workload.
struct Segment {
    workload: Workload,
    cfg: GpuConfig,
    ops: Vec<Op>,
    sectors: Vec<VirtAddr>,
    raw: Vec<Vec<VirtAddr>>,
}

/// Accumulated time and operation count of one replayed operation kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Nanoseconds spent.
    pub ns: f64,
    /// Operations timed.
    pub ops: u64,
}

impl Cost {
    /// Nanoseconds per operation (0 when nothing was timed).
    pub fn per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns / self.ops as f64
        }
    }

    fn add(&mut self, ns: f64, ops: u64) {
        self.ns += ns;
        self.ops += ops;
    }
}

/// Replayed hits out of lookups.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ratio {
    /// Hits (or fits, for the codec).
    pub hits: u64,
    /// Lookups.
    pub of: u64,
}

impl Ratio {
    /// `hits / of` (0 when empty).
    pub fn frac(&self) -> f64 {
        if self.of == 0 {
            0.0
        } else {
            self.hits as f64 / self.of as f64
        }
    }
}

/// Every replay's cost, and the replays' own hit ratios.
#[derive(Debug, Default)]
pub struct Replays {
    /// `Workload::program` wall time per build, ms.
    pub build_ms: Vec<f64>,
    /// `TraceProgram::next_op`.
    pub next_op: Cost,
    /// `coalesce_into` per warp memory op.
    pub coalesce: Cost,
    /// L1 TLB lookups per family: base, colt, snakebyte.
    pub tlb_lookup: [Cost; 3],
    /// Base-family TLB fills.
    pub tlb_fill: Cost,
    /// Base-family L1 TLB hit ratio.
    pub l1_tlb_hits: Ratio,
    /// L1 data-cache probes.
    pub l1d_probe: Cost,
    /// L2 cache probes.
    pub l2_probe: Cost,
    /// Sector-cache fills (both levels).
    pub cache_fill: Cost,
    /// L1 and L2 data-cache hit ratios.
    pub l1d_hits: Ratio,
    /// L2 hit ratio.
    pub l2_hits: Ratio,
    /// Complete page walks.
    pub walk: Cost,
    /// `PageTable::translate`.
    pub translate: Cost,
    /// DRAM reads.
    pub dram: Cost,
    /// DRAM row-buffer hit ratio.
    pub dram_rows: Ratio,
    /// `Uvm::touch`.
    pub touch: Cost,
    /// `Uvm::evict_chunk`.
    pub evict: Cost,
    /// `bpc::compressed_size_bits`.
    pub bpc_size: Cost,
    /// Sectors fitting the CAVA budget.
    pub bpc_fits: Ratio,
    /// `ModTable::predict`.
    pub mod_predict: Cost,
    /// `ModTable::train`.
    pub mod_train: Cost,
    /// `EventQueue` pop + schedule pair.
    pub calendar: Cost,
}

/// Family order of [`Replays::tlb_lookup`].
pub const TLB_FAMILIES: [&str; 3] = ["base", "colt", "snakebyte"];

// lint:allow(nondeterminism)
fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

// lint:allow(nondeterminism)
fn now() -> Instant {
    Instant::now() // lint:allow(nondeterminism)
}

/// Records the streams of `abbrs` at the given geometry and replays every
/// layer on them. `cfg_for` gives each Table III workload's `GpuConfig`.
pub fn run(
    abbrs: &[&str],
    sms: usize,
    warps: usize,
    scale: f64,
    cfg_for: impl Fn(&Workload) -> GpuConfig,
) -> Replays {
    let mut r = Replays::default();
    let per = OPS_CAP / abbrs.len().max(1);
    for abbr in abbrs {
        let w = Workload::by_abbr(abbr).unwrap_or_else(|| panic!("unknown abbreviation {abbr}"));
        let seg = record(&mut r, w, sms, warps, scale, per, &cfg_for);
        replay_segment(&mut r, &seg);
    }
    r.calendar = calendar(sms * warps);
    r
}

/// The `GpuConfig` of a workload's cell under `policy`.
pub fn cell_config(w: &Workload, policy: &str, opts: &RunOptions) -> GpuConfig {
    let sel = PolicySelection::parse(policy).unwrap_or_else(|e| panic!("{e}"));
    gpu_config_for(w, sel, opts)
}

/// Times program builds and `next_op`, then records the memory ops.
fn record(
    r: &mut Replays,
    w: Workload,
    sms: usize,
    warps: usize,
    scale: f64,
    cap: usize,
    cfg_for: &impl Fn(&Workload) -> GpuConfig,
) -> Segment {
    for _ in 0..BUILDS {
        let t = now();
        black_box(w.program(sms, warps, scale));
        r.build_ms.push(ns_since(t) / 1e6);
    }
    // Timed drain: next_op alone, in issue order.
    let mut p = w.program(sms, warps, scale);
    let t = now();
    let mut ops = 0u64;
    drain(&mut p, sms, warps, cap, |_, op| {
        ops += 1;
        black_box(op);
    });
    r.next_op.add(ns_since(t), ops);

    // Recording drain, untimed.
    let mut seg = Segment {
        cfg: cfg_for(&w),
        workload: w,
        ops: Vec::new(),
        sectors: Vec::new(),
        raw: Vec::new(),
    };
    let mut p = seg.workload.program(sms, warps, scale);
    let mut buf = Vec::new();
    drain(&mut p, sms, warps, cap, |sm, op| {
        if let WarpOp::Load { pc, addrs } | WarpOp::Store { pc, addrs } = op {
            coalesce_into(&addrs, &mut buf);
            let start = seg.sectors.len();
            seg.sectors.extend_from_slice(&buf);
            seg.ops.push(Op {
                sm,
                pc,
                start,
                end: seg.sectors.len(),
            });
            if seg.raw.len() < RAW_CAP {
                seg.raw.push(addrs);
            }
        }
    });
    seg
}

/// Drains `p` round-robin over every warp slot until every warp retires
/// or `cap` memory operations were seen; `f` gets `(sm, op)`.
fn drain(
    p: &mut impl WarpProgram,
    sms: usize,
    warps: usize,
    cap: usize,
    mut f: impl FnMut(usize, WarpOp),
) {
    let mut live = vec![true; sms * warps];
    let mut mem_ops = 0usize;
    while mem_ops < cap && live.iter().any(|&l| l) {
        for (slot, alive) in live.iter_mut().enumerate() {
            if !*alive {
                continue;
            }
            match p.next_op(slot / warps, slot % warps) {
                None => *alive = false,
                Some(op) => {
                    mem_ops += usize::from(!matches!(op, WarpOp::Compute { .. }));
                    f(slot / warps, op);
                }
            }
        }
    }
}

fn replay_segment(r: &mut Replays, seg: &Segment) {
    let cfg = &seg.cfg;

    // Coalescer.
    let mut buf = Vec::new();
    let t = now();
    for addrs in &seg.raw {
        coalesce_into(addrs, &mut buf);
        black_box(&buf);
    }
    r.coalesce.add(ns_since(t), seg.raw.len() as u64);

    // L1 TLBs per family; the base family's misses feed the L2 TLB. A
    // structure is first warmed by the stream with fills on misses
    // (untimed: it gives the replayed hit ratio and the miss list), then
    // timed on lookups alone over the warm state, and on the misses'
    // fills alone into fresh structures.
    let mut l1_misses: Vec<(usize, u64, Vpn)> = Vec::new();
    for (fi, family) in ["baseline", "colt", "snakebyte"].into_iter().enumerate() {
        let sel = PolicySelection::parse(family).unwrap_or_else(|e| panic!("{e}"));
        let (mut l1s, _) = sel.build_tlbs(cfg);
        let mut misses: Vec<(usize, u64, Vpn)> = Vec::new();
        for op in &seg.ops {
            for s in &seg.sectors[op.start..op.end] {
                let vpn = s.vpn();
                if l1s[op.sm].lookup(vpn).is_none() {
                    l1s[op.sm].fill(&fill_of(vpn));
                    misses.push((op.sm, op.pc, vpn));
                }
            }
        }
        let t = now();
        for op in &seg.ops {
            for s in &seg.sectors[op.start..op.end] {
                black_box(l1s[op.sm].lookup(s.vpn()));
            }
        }
        r.tlb_lookup[fi].add(ns_since(t), seg.sectors.len() as u64);
        if fi == 0 {
            let (mut fresh, _) = sel.build_tlbs(cfg);
            let t = now();
            for &(sm, _, vpn) in &misses {
                fresh[sm].fill(&fill_of(vpn));
            }
            r.tlb_fill.add(ns_since(t), misses.len() as u64);
            r.l1_tlb_hits.hits += (seg.sectors.len() - misses.len()) as u64;
            r.l1_tlb_hits.of += seg.sectors.len() as u64;
            l1_misses = misses;
        }
    }
    // Shared L2 TLB on the L1 misses; its misses walk and touch UVM.
    let sel = PolicySelection::parse("baseline").unwrap_or_else(|e| panic!("{e}"));
    let (_, mut l2) = sel.build_tlbs(cfg);
    let mut walk_vpns: Vec<Vpn> = Vec::new();
    for &(_, _, vpn) in &l1_misses {
        if l2.lookup(vpn).is_none() {
            l2.fill(&fill_of(vpn));
            walk_vpns.push(vpn);
        }
    }

    // UVM: touch every walked page (evictions under oversubscription
    // happen inside touch), then evict what is resident.
    let mut uvm = Uvm::new(cfg.uvm.clone(), cfg.seed);
    let t = now();
    for &vpn in &walk_vpns {
        black_box(uvm.touch(vpn));
    }
    r.touch.add(ns_since(t), walk_vpns.len() as u64);

    // Physical addresses and MOD offsets from the UVM page table.
    let translate = |vpn: Vpn| uvm.page_table.translate(vpn).map(|tr| tr.ppn);
    let t = now();
    for s in &seg.sectors {
        black_box(translate(s.vpn()));
    }
    r.translate.add(ns_since(t), seg.sectors.len() as u64);
    let pas: Vec<PhysAddr> = seg
        .sectors
        .iter()
        .map(|s| match translate(s.vpn()) {
            Some(ppn) => PhysAddr(ppn.base().0 + s.page_offset()),
            None => PhysAddr(s.0),
        })
        .collect();

    // Page walks against the populated page table.
    let mut walker = PageWalkSystem::new(cfg.walker.clone());
    let t = now();
    let mut walks = 0u64;
    for &vpn in &walk_vpns {
        let levels = uvm.page_table.walk_levels(vpn);
        let Some(id) = walker.enqueue(vpn, levels, 0) else {
            continue;
        };
        if walker.dispatch().is_none() {
            continue;
        }
        while let Some(WalkProgress::Access(_)) = walker.step(id) {}
        walks += 1;
    }
    r.walk.add(ns_since(t), walks);

    // MOD: train on the L1 TLB misses' (pc, offset), then predict.
    let miss_pcs: Vec<(usize, u64, i64)> = l1_misses
        .iter()
        .filter_map(|&(sm, pc, vpn)| {
            translate(vpn).map(|ppn| (sm, pc, ppn.0 as i64 - vpn.0 as i64))
        })
        .collect();
    let mut mods: Vec<ModTable> = (0..cfg.num_sms)
        .map(|_| ModTable::new(cfg.spec.mod_entries, cfg.spec.confidence_threshold))
        .collect();
    let t = now();
    for &(sm, pc, off) in &miss_pcs {
        mods[sm].train(pc, off);
    }
    r.mod_train.add(ns_since(t), miss_pcs.len() as u64);
    let t = now();
    for &(sm, pc, _) in &miss_pcs {
        black_box(mods[sm].predict(pc));
    }
    r.mod_predict.add(ns_since(t), miss_pcs.len() as u64);

    // Evict every chunk still resident.
    let mut resident: Vec<u64> = walk_vpns
        .iter()
        .filter(|&&v| uvm.is_resident(v))
        .map(|v| v.chunk())
        .collect();
    resident.sort_unstable();
    resident.dedup();
    let t = now();
    for &c in &resident {
        black_box(uvm.evict_chunk(c));
    }
    r.evict.add(ns_since(t), resident.len() as u64);

    // Sector caches: per-SM L1s, the shared L2 on their misses, each
    // warmed, then timed on probes alone and on fills alone as above.
    let flags = SectorFlags {
        valid: true,
        compressed: false,
        guaranteed: true,
        dirty: false,
    };
    let l1_caches = || -> Vec<SectorCache> {
        (0..cfg.num_sms)
            .map(|_| SectorCache::new(cfg.l1_cache.lines(), cfg.l1_cache.assoc))
            .collect()
    };
    let mut l1s = l1_caches();
    let mut l1_miss_pas = Vec::new();
    for op in &seg.ops {
        for &pa in &pas[op.start..op.end] {
            if l1s[op.sm].probe(pa) != Probe::Hit {
                l1s[op.sm].fill(pa, flags);
                l1_miss_pas.push((op.sm, pa));
            }
        }
    }
    let t = now();
    for op in &seg.ops {
        for &pa in &pas[op.start..op.end] {
            black_box(l1s[op.sm].probe(pa));
        }
    }
    r.l1d_probe.add(ns_since(t), pas.len() as u64);
    let mut fresh = l1_caches();
    let t = now();
    for &(sm, pa) in &l1_miss_pas {
        black_box(fresh[sm].fill(pa, flags));
    }
    r.cache_fill.add(ns_since(t), l1_miss_pas.len() as u64);
    r.l1d_hits.hits += (pas.len() - l1_miss_pas.len()) as u64;
    r.l1d_hits.of += pas.len() as u64;

    let l2_cache = || SectorCache::new(cfg.l2_cache.lines(), cfg.l2_cache.assoc);
    let mut l2c = l2_cache();
    let mut dram_pas = Vec::new();
    for &(_, pa) in &l1_miss_pas {
        if l2c.probe(pa) != Probe::Hit {
            l2c.fill(pa, flags);
            dram_pas.push(pa);
        }
    }
    let t = now();
    for &(_, pa) in &l1_miss_pas {
        black_box(l2c.probe(pa));
    }
    r.l2_probe.add(ns_since(t), l1_miss_pas.len() as u64);
    let mut fresh = l2_cache();
    let t = now();
    for &pa in &dram_pas {
        black_box(fresh.fill(pa, flags));
    }
    r.cache_fill.add(ns_since(t), dram_pas.len() as u64);
    r.l2_hits.hits += (l1_miss_pas.len() - dram_pas.len()) as u64;
    r.l2_hits.of += l1_miss_pas.len() as u64;

    // DRAM reads for the L2 misses, issued a few cycles apart.
    let mut dram = Dram::new(cfg.dram.clone());
    let t = now();
    for (i, &pa) in dram_pas.iter().enumerate() {
        black_box(dram.access(pa, DramOp::Read, 4 * i as u64, 32));
    }
    r.dram.add(ns_since(t), dram_pas.len() as u64);
    r.dram_rows.hits += dram.row_hits;
    r.dram_rows.of += dram.row_hits + dram.row_misses;

    // BPC sizing of the sectors' contents.
    let content = seg.workload.content();
    let bytes: Vec<[u8; 32]> = seg
        .sectors
        .iter()
        .take(BPC_CAP)
        .map(|s| content.bytes(s.sector_id()))
        .collect();
    let t = now();
    for b in &bytes {
        black_box(avatar_bpc::bpc::compressed_size_bits(b));
    }
    r.bpc_size.add(ns_since(t), bytes.len() as u64);
    r.bpc_fits.hits += bytes.iter().filter(|b| Codec::Bpc.fits_cava(b)).count() as u64;
    r.bpc_fits.of += bytes.len() as u64;
}

/// A base-page fill with a stand-in frame (the TLBs never check it).
fn fill_of(vpn: Vpn) -> TlbFill {
    TlbFill {
        vpn,
        ppn: Ppn(vpn.0 ^ 0x5_0000),
        pages: 1,
        run: None,
    }
}

/// Steady pop/schedule churn at a queue depth of `depth` (one event per
/// warp slot), mostly near-future with a far-future tail.
fn calendar(depth: usize) -> Cost {
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..depth as u64 {
        q.schedule(i % 512, i as u32);
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t = now();
    for _ in 0..CALENDAR_OPS {
        let Some((at, ev)) = q.pop() else { break };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let delta = if x.is_multiple_of(64) {
            5_000
        } else {
            1 + x % 128
        };
        q.schedule(at + delta, ev);
    }
    Cost {
        ns: ns_since(t),
        ops: CALENDAR_OPS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_replay_times_every_layer() {
        let opts = RunOptions {
            scale: 0.02,
            sms: Some(2),
            warps: Some(4),
            ..RunOptions::default()
        };
        let r = run(&["SSSP"], 2, 4, 0.02, |w| cell_config(w, "avatar", &opts));
        for (name, c) in [
            ("next_op", r.next_op),
            ("coalesce", r.coalesce),
            ("tlb base", r.tlb_lookup[0]),
            ("tlb colt", r.tlb_lookup[1]),
            ("tlb snakebyte", r.tlb_lookup[2]),
            ("tlb fill", r.tlb_fill),
            ("l1d", r.l1d_probe),
            ("l2", r.l2_probe),
            ("walk", r.walk),
            ("touch", r.touch),
            ("dram", r.dram),
            ("bpc", r.bpc_size),
            ("mod", r.mod_predict),
            ("calendar", r.calendar),
        ] {
            assert!(
                c.ops > 0 && c.per_op() > 0.0,
                "{name} replay timed nothing: {c:?}"
            );
        }
        assert!(r.l1_tlb_hits.frac() > 0.0 && r.l1_tlb_hits.frac() < 1.0);
        assert_eq!(r.build_ms.len(), BUILDS);
    }
}
