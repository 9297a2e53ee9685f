//! Address-stream generation: turning a workload spec into per-warp load
//! sequences.
//!
//! Each warp executes `rounds` iteration rounds; a round issues the
//! workload's `loads_per_round` loads (each with its own stable PC — GPU
//! kernels have few distinct load instructions, the property MOD exploits)
//! separated by compute delays. Addresses follow the pattern archetype:
//! streaming tiles, stencil neighbourhoods, CSR-style indirection with
//! memory divergence, hash-random lookups, or index+gather pairs.

use crate::spec::{Pattern, Workload};
use avatar_sim::addr::{VirtAddr, CHUNK_BYTES};
use avatar_sim::sm::{WarpOp, WarpProgram};

/// Base of the synthetic kernel's PC space.
const PC_BASE: u64 = 0x40_0000;

/// SplitMix64 for deterministic, timing-independent page selection.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[derive(Debug, Clone)]
struct WarpGen {
    rng: u64,
    round: u32,
    step: u32,
    /// Per-load-PC held addresses for intra-page temporal reuse.
    held: [Vec<u64>; 4],
    /// Remaining revisits of the held addresses, per load PC.
    hold_left: [u32; 4],
}

/// A deterministic warp program generated from a [`Workload`].
#[derive(Debug)]
pub struct TraceProgram {
    w: Workload,
    warps_per_sm: usize,
    total_warps: u64,
    ws_bytes: u64,
    rounds: u32,
    gens: Vec<WarpGen>,
    /// Total loads issued so far (harness statistic).
    pub loads_issued: u64,
}

impl TraceProgram {
    /// Builds the program for `num_sms * warps_per_sm` warp slots.
    pub fn new(w: Workload, num_sms: usize, warps_per_sm: usize, scale: f64) -> Self {
        let total_warps = (num_sms * warps_per_sm) as u64;
        let ws_bytes = w.scaled_working_set(scale);
        // Streaming kernels sweep their arrays: give them enough rounds to
        // cover the region at the page-sampled stride (one 128B line
        // observed per 4KB page), capped to keep runs tractable.
        let rounds = match w.pattern {
            crate::spec::Pattern::DenseTiled | crate::spec::Pattern::Stencil => {
                let region = ws_bytes / u64::from(w.loads_per_round).max(1);
                let fresh_rounds = region.div_ceil(total_warps * 4096);
                let sweep = fresh_rounds * u64::from(w.page_revisits.max(1));
                sweep.clamp(u64::from(w.rounds), 96) as u32
            }
            _ => w.rounds * w.page_revisits.max(1),
        };
        let gens = (0..total_warps)
            .map(|g| {
                let seed = w
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(g.wrapping_mul(0xA24B_AED4_963E_E407) | 1);
                WarpGen {
                    rng: seed | 1,
                    round: 0,
                    step: 0,
                    held: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
                    hold_left: [0; 4],
                }
            })
            .collect();
        Self { w, warps_per_sm, total_warps, ws_bytes, rounds, gens, loads_issued: 0 }
    }

    fn region(&self, index: u64, count: u64) -> (u64, u64) {
        let size = self.ws_bytes / count;
        (index * size, size.max(4096))
    }

    /// A warp load: `div` distinct 32B sector groups, threads split evenly.
    fn load_addrs(&self, bases: &[u64]) -> Vec<VirtAddr> {
        let mut addrs = Vec::with_capacity(32);
        let per = (32 / bases.len().max(1)).max(1);
        for (i, b) in bases.iter().enumerate() {
            for t in 0..per {
                addrs.push(VirtAddr((b + (i * per + t) as u64 * 4) % self.ws_bytes));
            }
        }
        addrs
    }

    /// Whether instruction `load_idx` writes this round: each pattern has
    /// a natural output stream (result tiles, updated rows, histogram
    /// buckets, relaxed distances).
    fn is_store(&self, load_idx: u32, round: u64) -> bool {
        let last = self.w.loads_per_round.saturating_sub(1);
        match self.w.pattern {
            // Output tiles/rows are written once per couple of read rounds
            // — GPU kernels are strongly load-dominated.
            Pattern::DenseTiled | Pattern::Stencil | Pattern::Gather => {
                load_idx == last && round % 2 == 1
            }
            Pattern::HashRandom => load_idx == last && round % 2 == 1, // bucket updates
            Pattern::GraphCsr => load_idx % 3 == 2 && round % 4 == 3,  // relaxations
        }
    }

    fn gen_load(&mut self, slot: usize, load_idx: u32) -> WarpOp {
        let pc = PC_BASE + u64::from(load_idx) * 16;
        // Temporal page reuse: a load instruction keeps consuming the
        // pages it last touched for `page_revisits` visits, advancing one
        // 128B line per visit, before selecting fresh addresses.
        let key = (load_idx as usize).min(3);
        if self.gens[slot].hold_left[key] > 0 {
            let round = u64::from(self.gens[slot].round / self.w.page_revisits.max(1));
            let gen = &mut self.gens[slot];
            gen.hold_left[key] -= 1;
            for b in gen.held[key].iter_mut() {
                let page = *b & !4095;
                *b = page + ((*b & 4095) + 128) % 4096;
            }
            let bases = gen.held[key].clone();
            self.loads_issued += 1;
            let addrs = self.load_addrs(&bases);
            return if self.is_store(load_idx, round) {
                WarpOp::Store { pc, addrs }
            } else {
                WarpOp::Load { pc, addrs }
            };
        }
        let global = slot as u64;
        let w = self.w.clone();
        let div = w.divergence.max(1) as u64;
        // Streams advance one step per *fresh* (non-held) visit.
        let round = u64::from(self.gens[slot].round / w.page_revisits.max(1));
        let bases: Vec<u64> = match w.pattern {
            Pattern::DenseTiled => {
                // Arrays A/B/C; each PC streams its own array. The trace
                // samples one 128B line per 4KB page so a bounded number
                // of loads sweeps the full footprint (the page-level
                // behaviour — faults, TLB pressure, promotion — is what
                // the experiments consume).
                let (base, size) = {
                    let count = u64::from(w.loads_per_round).max(1);
                    let sz = self.ws_bytes / count;
                    (u64::from(load_idx) * sz, sz.max(4096))
                };
                let step = global + round * self.total_warps;
                let tile = step * 4096 % size;
                // Sample a different 128B line of each page so the trace
                // does not alias on page-aligned addresses.
                let line = (step % 32) * 128;
                vec![base + tile + line]
            }
            Pattern::Stencil => {
                // Row sweeps: PC 0 = center, 1 = north, 2 = south, with
                // the same page-sampled stride as the dense patterns.
                let row = 16 * 1024u64; // 16KB rows
                let step = global + round * self.total_warps;
                let center = (step * 4096 + (step % 32) * 128) % self.ws_bytes;
                let offset = match load_idx % 3 {
                    0 => 0,
                    1 => row,
                    _ => 2 * row,
                };
                vec![(center + offset) % self.ws_bytes]
            }
            Pattern::GraphCsr => {
                // Warps of one SM traverse the same row range together (a
                // thread block processes one graph partition), so an SM's
                // live page set stays TLB-sized while fresh pages arrive
                // at a steady rate.
                let sm = global / self.warps_per_sm as u64;
                match load_idx % 3 {
                    0 => {
                        // Row pointers: sequential per-SM sweep.
                        let (base, size) = self.region_of(0, 10);
                        let step = sm + round * 16 + (global % 4) * 2;
                        vec![base + (step * 4096 + (step % 32) * 128) % size]
                    }
                    1 => {
                        // Edge lists: chunk-dwelling irregular reads — the
                        // SM works one 2MB chunk for several rounds
                        // (Fig 8 locality), warps diverge within it.
                        let (base, size) = self.region_of(1, 10);
                        self.chunk_dwell(base, size, sm, 1, round, 8, global, div, 85)
                    }
                    _ => {
                        // Node data: chunk-dwelling gather with more
                        // frequent chunk changes and wild jumps.
                        let (base, size) = self.region_of(2, 10);
                        self.chunk_dwell(base, size, sm, 2, round, 4, global, div, 80)
                    }
                }
            }
            Pattern::HashRandom => {
                // Table probes: a hot subset (frequently consulted layers
                // of the table — e.g. XSBench's unionized-grid upper
                // levels) absorbs over half the probes and is shared by
                // every SM; the rest dwell in the SM's current 2MB chunk
                // (Fig 8 locality) with occasional cold jumps. All
                // randomness comes from this warp's own stream so traces
                // are identical across configurations.
                let sm = global / self.warps_per_sm as u64;
                let hot_bytes = (self.ws_bytes / 64).clamp(4096, 3 << 20);
                let chunks = (self.ws_bytes / CHUNK_BYTES).max(1);
                let chunk_pages = (CHUNK_BYTES / 4096).min((self.ws_bytes / 4096).max(1));
                let mut v = Vec::new();
                for j in 0..div {
                    let r = xorshift(&mut self.gens[slot].rng);
                    let sel = r % 100;
                    let pos = if sel < 55 {
                        (r / 128) % hot_bytes
                    } else if sel < 90 {
                        // Dwelled chunk shared per (SM, PC, phase); pages
                        // shared per (SM, PC, round, lane) — the same
                        // data-parallel sharing as the other irregulars.
                        let pc_key = u64::from(load_idx);
                        let chunk =
                            mix(self.w.seed ^ (sm << 32) ^ (pc_key << 24) ^ (round / 6)) % chunks;
                        let page = mix(
                            self.w.seed ^ (sm << 40) ^ (pc_key << 32) ^ (round << 8) ^ j,
                        ) % chunk_pages;
                        (chunk * CHUNK_BYTES + page * 4096 + (global % 32) * 128) % self.ws_bytes
                    } else {
                        (mix(r) % (self.ws_bytes / 128)) * 128
                    };
                    v.push(pos);
                }
                v
            }
            Pattern::Gather => match load_idx % 3 {
                0 => {
                    // Index array: sequential sweep, page-sampled.
                    let (base, size) = self.region_of(0, 4);
                    let step = global + round * self.total_warps;
                    let pos = (step * 4096 + (step % 32) * 128) % size;
                    vec![base + pos]
                }
                _ => {
                    // Value gather: chunk-dwelling indirection shared by
                    // the SM's warps.
                    let sm = global / self.warps_per_sm as u64;
                    let (base, size) = self.region_of(1, 4);
                    self.chunk_dwell(base, size, sm, u64::from(load_idx), round, 6, global, div, 85)
                }
            },
        };
        let gen = &mut self.gens[slot];
        gen.held[key] = bases.clone();
        gen.hold_left[key] = self.w.page_revisits.saturating_sub(1);
        self.loads_issued += 1;
        let addrs = self.load_addrs(&bases);
        if self.is_store(load_idx, round) {
            WarpOp::Store { pc, addrs }
        } else {
            WarpOp::Load { pc, addrs }
        }
    }

    /// Chunk-dwelling irregular access: the SM's warps work within one
    /// 2MB chunk of the region for `dwell` fresh rounds before moving to
    /// another (hash-selected) chunk; `local_pct` of probes stay in the
    /// dwelled chunk, the rest jump anywhere in the region. Divergent
    /// probes (`div` > 1) spread across distinct pages of the chunk.
    #[allow(clippy::too_many_arguments)]
    fn chunk_dwell(
        &mut self,
        base: u64,
        size: u64,
        sm: u64,
        pc_key: u64,
        round: u64,
        dwell: u64,
        global: u64,
        div: u64,
        local_pct: u64,
    ) -> Vec<u64> {
        let chunks = (size / CHUNK_BYTES).max(1);
        let chunk = mix(self.w.seed ^ (sm << 32) ^ (pc_key << 24) ^ (round / dwell)) % chunks;
        let chunk_pages = (CHUNK_BYTES / 4096).min((size / 4096).max(1));
        let mut v = Vec::with_capacity(div as usize);
        for j in 0..div {
            let idx = global as usize % self.gens.len();
            let r = xorshift(&mut self.gens[idx].rng);
            let pos = if r % 100 < local_pct {
                // Pages are selected by (SM, PC, round, lane) — every warp
                // of the SM gathers from the *same* small page set this
                // round (data-parallel sharing), with per-warp line
                // offsets providing divergence inside the pages.
                let page =
                    mix(self.w.seed ^ (sm << 40) ^ (pc_key << 32) ^ (round << 8) ^ j) % chunk_pages;
                chunk * CHUNK_BYTES + page * 4096 + (global % 32) * 128
            } else {
                (mix(r) % (size / 128)) * 128
            };
            v.push(base + pos % size);
        }
        v
    }

    /// Region `index` out of `tenths` tenth-units of the working set:
    /// graph row pointers get 1 tenth, edges 4.5, nodes 4.5, etc.
    fn region_of(&self, index: u64, _tenths: u64) -> (u64, u64) {
        match index {
            0 => self.region(0, 8),                       // 1/8 for indices
            1 => {
                let (b, s) = self.region(1, 8);
                (b, s * 3)                                // 3/8 for edges
            }
            _ => {
                let (b, s) = self.region(4, 8);
                (b, s * 4)                                // 4/8 for values
            }
        }
    }
}

/// The footprint a program actually touches, in bytes, at TBN-prefetch
/// granularity (64KB fault blocks). Used to size oversubscribed memory
/// relative to real occupancy, as the paper does per workload.
pub fn touched_footprint(w: &Workload, num_sms: usize, warps_per_sm: usize, scale: f64) -> u64 {
    let mut p = TraceProgram::new(w.clone(), num_sms, warps_per_sm, scale);
    let mut blocks = avatar_sim::fxhash::FxHashSet::default();
    for sm in 0..num_sms {
        for warp in 0..warps_per_sm {
            while let Some(op) = p.next_op(sm, warp) {
                match op {
                    WarpOp::Load { addrs, .. } | WarpOp::Store { addrs, .. } => {
                        for a in addrs {
                            blocks.insert(a.0 >> 16);
                        }
                    }
                    WarpOp::Compute { .. } => {}
                }
            }
        }
    }
    blocks.len() as u64 * (64 << 10)
}

impl WarpProgram for TraceProgram {
    fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp> {
        let slot = sm * self.warps_per_sm + warp;
        let (round, step) = {
            let gen = &self.gens[slot];
            (gen.round, gen.step)
        };
        if round >= self.rounds {
            return None;
        }
        let loads = self.w.loads_per_round.max(1);
        let op = if step % 2 == 0 {
            // Even steps: a load.
            let load_idx = step / 2;
            self.gen_load(slot, load_idx)
        } else {
            WarpOp::Compute { cycles: self.w.compute_cycles.into() }
        };
        let gen = &mut self.gens[slot];
        gen.step += 1;
        if gen.step >= loads * 2 {
            gen.step = 0;
            gen.round += 1;
        }
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use avatar_sim::addr::CHUNK_BYTES;
    use std::collections::HashMap;

    fn drain(w: &Workload, sms: usize, warps: usize) -> Vec<(u64, Vec<VirtAddr>)> {
        let mut p = w.program(sms, warps, 0.25);
        let mut out = Vec::new();
        for sm in 0..sms {
            for warp in 0..warps {
                while let Some(op) = p.next_op(sm, warp) {
                    match op {
                        WarpOp::Load { pc, addrs } | WarpOp::Store { pc, addrs } => {
                            out.push((pc, addrs))
                        }
                        WarpOp::Compute { .. } => {}
                    }
                }
            }
        }
        out
    }

    #[test]
    fn warps_retire_after_their_rounds() {
        // Irregular patterns use the spec's fixed round count.
        let w = Workload::by_abbr("XSB").unwrap();
        let mut p = w.program(2, 4, 0.25);
        let mut ops = 0;
        while p.next_op(0, 0).is_some() {
            ops += 1;
            assert!(ops < 10_000, "warp must retire");
        }
        let expected = w.rounds * w.page_revisits * w.loads_per_round * 2;
        assert_eq!(ops, expected);
    }

    #[test]
    fn streaming_rounds_adapt_to_sweep_the_footprint() {
        // Streaming kernels get enough rounds to cover their region at
        // the page-sampled stride (capped at 64 rounds).
        let w = Workload::by_abbr("FDT").unwrap(); // 384MB stencil
        let mut probe = w.program(16, 32, 1.0);
        let mut ops = 0u64;
        while probe.next_op(0, 0).is_some() {
            ops += 1;
        }
        let rounds = ops / u64::from(w.loads_per_round * 2);
        assert!(
            rounds > u64::from(w.rounds * w.page_revisits),
            "big stencil must extend its sweep"
        );
        assert!(rounds <= 96, "sweep capped");
    }

    #[test]
    fn every_pattern_issues_some_stores() {
        for abbr in ["GEMM", "FDT", "SSSP", "XSB", "SPMV"] {
            let w = Workload::by_abbr(abbr).unwrap();
            let mut p = w.program(2, 4, 0.1);
            let (mut loads, mut stores) = (0u64, 0u64);
            for sm in 0..2 {
                for warp in 0..4 {
                    while let Some(op) = p.next_op(sm, warp) {
                        match op {
                            WarpOp::Load { .. } => loads += 1,
                            WarpOp::Store { .. } => stores += 1,
                            WarpOp::Compute { .. } => {}
                        }
                    }
                }
            }
            assert!(stores > 0, "{abbr}: kernels write their outputs");
            assert!(loads > stores, "{abbr}: loads dominate GPU kernels");
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "counts page repeats per PC; order-free")]
    fn loads_revisit_pages_before_moving_on() {
        let w = Workload::by_abbr("XSB").unwrap();
        let mut p = w.program(1, 1, 0.25);
        let mut pages_per_pc: HashMap<u64, Vec<u64>> = HashMap::new();
        while let Some(op) = p.next_op(0, 0) {
            match op {
                WarpOp::Load { pc, addrs } | WarpOp::Store { pc, addrs } => {
                    pages_per_pc.entry(pc).or_default().push(addrs[0].0 >> 12)
                }
                WarpOp::Compute { .. } => {}
            }
        }
        // Consecutive visits from the same PC mostly stay on one page.
        let (mut same, mut total) = (0, 0);
        for pages in pages_per_pc.values() {
            for w2 in pages.windows(2) {
                total += 1;
                if w2[0] == w2[1] {
                    same += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            same as f64 / total as f64 > 0.5,
            "intra-page reuse must dominate: {same}/{total}"
        );
    }

    #[test]
    fn loads_alternate_with_compute() {
        let w = Workload::by_abbr("FW").unwrap();
        let mut p = w.program(1, 1, 0.25);
        let first = p.next_op(0, 0).unwrap();
        let second = p.next_op(0, 0).unwrap();
        assert!(matches!(first, WarpOp::Load { .. } | WarpOp::Store { .. }));
        assert!(matches!(second, WarpOp::Compute { .. }));
    }

    #[test]
    fn addresses_stay_inside_working_set() {
        for abbr in ["GEMM", "SSSP", "XSB", "FDT", "SPMV"] {
            let w = Workload::by_abbr(abbr).unwrap();
            let ws = w.scaled_working_set(0.25);
            for (_, addrs) in drain(&w, 2, 4) {
                for a in addrs {
                    assert!(a.0 < ws, "{abbr}: address {a} beyond working set {ws}");
                }
            }
        }
    }

    #[test]
    fn pcs_are_few_and_stable() {
        let w = Workload::by_abbr("SSSP").unwrap();
        let mut pcs: Vec<u64> = drain(&w, 2, 4).into_iter().map(|(pc, _)| pc).collect();
        pcs.sort_unstable();
        pcs.dedup();
        assert!(pcs.len() <= 8, "GPU kernels have few load PCs, got {}", pcs.len());
    }

    #[test]
    fn streaming_loads_have_chunk_locality() {
        // Fig 8 property: consecutive accesses from the same PC mostly hit
        // the same 2MB chunk.
        let w = Workload::by_abbr("GEMM").unwrap();
        let loads = drain(&w, 4, 8);
        let mut last_chunk: HashMap<u64, u64> = HashMap::new();
        let (mut same, mut total) = (0u64, 0u64);
        for (pc, addrs) in loads {
            let chunk = addrs[0].0 / CHUNK_BYTES;
            if let Some(&prev) = last_chunk.get(&pc) {
                total += 1;
                if prev == chunk {
                    same += 1;
                }
            }
            last_chunk.insert(pc, chunk);
        }
        assert!(total > 0);
        assert!(same as f64 / total as f64 > 0.8, "streaming chunk locality");
    }

    #[test]
    fn divergent_workloads_touch_more_sectors_per_load() {
        let gemm = Workload::by_abbr("GEMM").unwrap();
        let xsb = Workload::by_abbr("XSB").unwrap();
        let sectors = |w: &Workload| {
            let loads = drain(w, 2, 4);
            let total: usize =
                loads.iter().map(|(_, a)| avatar_sim::sm::coalesce(a).len()).sum();
            total as f64 / loads.len() as f64
        };
        assert!(sectors(&xsb) > sectors(&gemm), "XSB must be more divergent");
    }

    #[test]
    fn warp_streams_are_independent_of_interleaving() {
        // A warp's op stream must not depend on how other warps' calls
        // interleave with it — otherwise different system configurations
        // would see different traces and comparisons would be unfair.
        for abbr in ["XSB", "SSSP", "HIS", "SC", "SPMV"] {
            let w = Workload::by_abbr(abbr).unwrap();
            // Sequential: drain warp (0,0) alone first.
            let mut seq = w.program(2, 2, 0.05);
            let mut alone = Vec::new();
            while let Some(op) = seq.next_op(0, 0) {
                alone.push(op);
            }
            // Interleaved: round-robin all warps.
            let mut inter = w.program(2, 2, 0.05);
            let mut woven = Vec::new();
            let mut done = [false; 4];
            while !done.iter().all(|d| *d) {
                for (i, &(sm, warp)) in [(0, 0), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
                    match inter.next_op(sm, warp) {
                        Some(op) => {
                            if (sm, warp) == (0, 0) {
                                woven.push(op);
                            }
                        }
                        None => done[i] = true,
                    }
                }
            }
            assert_eq!(alone, woven, "{abbr}: warp (0,0) stream must be interleaving-invariant");
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let w = Workload::by_abbr("CC").unwrap();
        let a = drain(&w, 2, 2);
        let b = drain(&w, 2, 2);
        assert_eq!(a, b);
    }
}
