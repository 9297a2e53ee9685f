//! Revelator: hash-based speculative address translation guided by
//! system software, with rapid validation-on-use (the arXiv 2508.02007
//! scheme, modelled as an Avatar rival).
//!
//! Where CAST learns per-instruction V2P offsets from observed
//! translations, Revelator leans on the *allocator*: UVM places the
//! pages of a 2MB virtual chunk contiguously inside one physical chunk,
//! so a single learned chunk-level offset predicts every page of the
//! region. System software (modelled here as the first resolved
//! translation per region) programs a small hash-indexed **seed table**;
//! subsequent L1 TLB misses in the region hash into it and speculate
//! immediately — no confidence warm-up, no PC tagging.
//!
//! Speculations are confirmed by **rapid validation-on-use**
//! ([`ValidationKind::Rapid`]): a lightweight mapping check runs
//! concurrently with the speculative fetch and, `rapid_latency` cycles
//! after dispatch, releases the MSHR/walk resources of correct
//! speculations — like EAF, but with no dependence on sectors arriving
//! compressed. Mispredictions simply wait for the background walk.
//!
//! The table is deliberately tiny and direct-mapped: distinct regions
//! hashing to one slot evict each other, which is the scheme's stated
//! trade-off against CAST's associative MOD table.

use avatar_sim::addr::{Ppn, Vpn};
use avatar_sim::config::Cycle;
use avatar_sim::hooks::{
    PolicyCounters, SpecFillAction, SpecFillContext, TranslationPolicy, ValidationKind,
};

/// One seed-table slot: the 2MB region it covers and the V2P offset
/// (in 4KB pages) system software seeded for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seed {
    region: u64,
    offset: i64,
}

/// The Revelator policy: a global (system-software-owned) seed table.
#[derive(Debug)]
pub struct RevelatorPolicy {
    seeds: Vec<Option<Seed>>,
    /// `seeds.len() - 1`; the table is a power of two so hashing masks.
    mask: u64,
    latency: Cycle,
    counters: PolicyCounters,
}

/// splitmix64 finalizer over the region id — the hash the seed table is
/// indexed with.
fn seed_slot(region: u64, mask: u64) -> usize {
    let mut z = region.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) & mask) as usize
}

impl RevelatorPolicy {
    /// A policy with `entries` seed slots (must be a power of two —
    /// `GpuConfig::validate` enforces this for `spec.seed_entries`) and
    /// the given validation-on-use `latency`.
    pub fn new(entries: usize, latency: Cycle) -> Self {
        assert!(
            entries.is_power_of_two(),
            "seed table is hash-masked: entries must be a power of two, got {entries}"
        );
        Self {
            seeds: vec![None; entries],
            mask: entries as u64 - 1,
            latency,
            counters: PolicyCounters::default(),
        }
    }

    /// Live seeded regions (tests/introspection).
    pub fn seeded_regions(&self) -> usize {
        self.seeds.iter().flatten().count()
    }
}

impl TranslationPolicy for RevelatorPolicy {
    fn on_l1_tlb_miss(&mut self, _sm: usize, _pc: u64, vpn: Vpn) -> Option<Ppn> {
        let region = vpn.chunk();
        let seed = self.seeds[seed_slot(region, self.mask)]?;
        if seed.region != region {
            return None; // conflicting region owns the slot
        }
        self.counters.hits += 1;
        let ppn = vpn.0 as i64 + seed.offset;
        // A non-positive frame means the seed cannot apply to this page.
        if ppn <= 0 {
            return None;
        }
        Some(Ppn(ppn as u64))
    }

    fn on_translation_resolved(&mut self, _sm: usize, _pc: u64, vpn: Vpn, ppn: Ppn) {
        let region = vpn.chunk();
        let offset = ppn.0 as i64 - vpn.0 as i64;
        let slot = &mut self.seeds[seed_slot(region, self.mask)];
        match slot {
            Some(seed) if seed.region == region => {
                // Reseed on a mapping change (chunk migrated/remapped).
                seed.offset = offset;
            }
            Some(_) => {
                // Direct-mapped conflict: the newer region takes the slot.
                self.counters.evictions += 1;
                self.counters.installs += 1;
                *slot = Some(Seed { region, offset });
            }
            None => {
                self.counters.installs += 1;
                *slot = Some(Seed { region, offset });
            }
        }
    }

    fn on_spec_fill(&self, _ctx: &SpecFillContext) -> SpecFillAction {
        // Validation happens on the rapid-check verdict event, not at
        // sector arrival; sectors stay invisible until one or the other
        // translation path resolves.
        SpecFillAction::AwaitTranslation
    }

    fn validation_kind(&self) -> ValidationKind {
        ValidationKind::Rapid { latency: self.latency }
    }

    fn policy_counters(&self) -> PolicyCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avatar_sim::addr::PAGES_PER_CHUNK;

    #[test]
    fn seeds_from_first_translation_in_region() {
        let mut p = RevelatorPolicy::new(64, 20);
        let vpn = Vpn(3 * PAGES_PER_CHUNK + 7);
        // Unseeded region: no speculation.
        assert_eq!(p.on_l1_tlb_miss(0, 0x100, vpn), None);
        p.on_translation_resolved(0, 0x100, vpn, Ppn(vpn.0 + 1000));
        assert_eq!(p.seeded_regions(), 1);
        // Any other page of the region now speculates with the seed.
        let other = Vpn(3 * PAGES_PER_CHUNK + 400);
        assert_eq!(p.on_l1_tlb_miss(1, 0xDEAD, other), Some(Ppn(other.0 + 1000)));
        // A different region stays unseeded.
        assert_eq!(p.on_l1_tlb_miss(0, 0x100, Vpn(9 * PAGES_PER_CHUNK)), None);
    }

    #[test]
    fn reseed_on_mapping_change() {
        let mut p = RevelatorPolicy::new(64, 20);
        let vpn = Vpn(PAGES_PER_CHUNK + 1);
        p.on_translation_resolved(0, 0x1, vpn, Ppn(vpn.0 + 500));
        p.on_translation_resolved(0, 0x1, vpn, Ppn(vpn.0 + 900));
        assert_eq!(p.on_l1_tlb_miss(0, 0x1, vpn), Some(Ppn(vpn.0 + 900)));
        // A reseed of a live region is neither an install nor an eviction.
        assert_eq!(p.policy_counters().installs, 1);
        assert_eq!(p.policy_counters().evictions, 0);
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        // A one-slot table: every region maps to slot 0.
        let mut p = RevelatorPolicy::new(1, 20);
        p.on_translation_resolved(0, 0x1, Vpn(0), Ppn(100));
        p.on_translation_resolved(0, 0x1, Vpn(PAGES_PER_CHUNK), Ppn(PAGES_PER_CHUNK + 200));
        let c = p.policy_counters();
        assert_eq!(c.installs, 2);
        assert_eq!(c.evictions, 1);
        // The older region lost its seed.
        assert_eq!(p.on_l1_tlb_miss(0, 0x1, Vpn(1)), None);
    }

    #[test]
    fn negative_frames_suppressed() {
        let mut p = RevelatorPolicy::new(64, 20);
        p.on_translation_resolved(0, 0x1, Vpn(100), Ppn(10));
        assert_eq!(p.on_l1_tlb_miss(0, 0x1, Vpn(50)), None, "frame would be negative");
    }

    #[test]
    fn rapid_validation_kind_carries_latency() {
        let p = RevelatorPolicy::new(64, 33);
        assert_eq!(p.validation_kind(), ValidationKind::Rapid { latency: 33 });
        assert!(!p.propagates_cross_sm());
    }

    #[test]
    fn non_power_of_two_entries_panics() {
        let r = std::panic::catch_unwind(|| RevelatorPolicy::new(48, 20));
        assert!(r.is_err(), "48 seed entries must be rejected");
    }
}
