//! Dead-entry-aware L1-TLB replacement: a policy *modifier* in the
//! spirit of "Dead on Arrival" TLB protection (arXiv 2606.00486).
//!
//! Streaming GPU kernels sweep each 2MB region page by page and never
//! come back; every L1 TLB entry such a warp installs is dead on
//! arrival, and under LRU it still evicts a live entry of a reused
//! region. This wrapper watches the per-SM miss stream for monotonic
//! page walks inside a region (a saturating streak counter in a small
//! direct-mapped table) and, once a region looks like a stream, hints
//! the TLB to insert its fills at the *victim* end of the set
//! ([`FillPriority::Transient`]): the entry still serves same-page
//! locality, but dies first instead of displacing protected entries. A
//! re-hit promotes it back to MRU, so a wrong prediction costs one
//! early eviction, never correctness.
//!
//! The wrapper composes with any inner [`TranslationPolicy`] whose TLB
//! family supports prioritized fills (the registry gates this via
//! `supports_dead_entry`); speculation, validation, and cross-SM
//! behaviour all delegate to the wrapped policy.

use avatar_sim::addr::{Ppn, Vpn};
use avatar_sim::hooks::{
    PolicyCounters, SpecFillAction, SpecFillContext, TranslationPolicy, ValidationKind,
};
use avatar_sim::tlb::FillPriority;

/// Per-SM stream-detector slots (direct-mapped by region low bits).
const TABLE_SLOTS: usize = 64;
/// Consecutive ascending-page misses in one region before its fills are
/// predicted dead on arrival.
const DEAD_STREAK: u8 = 3;
/// Streak-counter ceiling (saturating).
const STREAK_MAX: u8 = 7;

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    region: u64,
    last_vpn: u64,
    streak: u8,
}

/// One SM's stream-detection table.
#[derive(Debug, Clone)]
struct StreamTable {
    slots: Vec<Option<StreamEntry>>,
}

impl StreamTable {
    fn new() -> Self {
        Self { slots: vec![None; TABLE_SLOTS] }
    }

    fn slot_of(region: u64) -> usize {
        (region as usize) % TABLE_SLOTS
    }

    /// Records a miss on `vpn`; returns (installed, evicted, tracked).
    fn observe(&mut self, vpn: Vpn) -> (bool, bool, bool) {
        let region = vpn.chunk();
        let slot = &mut self.slots[Self::slot_of(region)];
        match slot {
            Some(e) if e.region == region => {
                if vpn.0 == e.last_vpn + 1 {
                    e.streak = (e.streak + 1).min(STREAK_MAX);
                } else if vpn.0 != e.last_vpn {
                    // A revisit or jump breaks the stream hypothesis.
                    e.streak = e.streak.saturating_sub(1);
                }
                e.last_vpn = vpn.0;
                (false, false, true)
            }
            other => {
                let evicted = other.is_some();
                *other = Some(StreamEntry { region, last_vpn: vpn.0, streak: 0 });
                (true, evicted, false)
            }
        }
    }

    /// Whether `vpn`'s region currently looks like a one-way stream.
    fn is_streaming(&self, vpn: Vpn) -> bool {
        let region = vpn.chunk();
        matches!(
            self.slots[Self::slot_of(region)],
            Some(e) if e.region == region && e.streak >= DEAD_STREAK
        )
    }
}

/// The dead-entry replacement modifier wrapping an inner policy.
#[derive(Debug)]
pub struct DeadEntryPolicy {
    inner: Box<dyn TranslationPolicy>,
    tables: Vec<StreamTable>,
    counters: PolicyCounters,
}

impl DeadEntryPolicy {
    /// Wraps `inner` with per-SM stream detection.
    pub fn new(num_sms: usize, inner: Box<dyn TranslationPolicy>) -> Self {
        Self {
            inner,
            tables: (0..num_sms).map(|_| StreamTable::new()).collect(),
            counters: PolicyCounters::default(),
        }
    }
}

impl TranslationPolicy for DeadEntryPolicy {
    fn on_l1_tlb_miss(&mut self, sm: usize, pc: u64, vpn: Vpn) -> Option<Ppn> {
        // Stream detection trains on the miss stream (the only &mut
        // window this wrapper gets on the shared lane); the fill-time
        // hint below only *reads* the state built here.
        let (installed, evicted, tracked) = self.tables[sm].observe(vpn);
        self.counters.installs += u64::from(installed);
        self.counters.evictions += u64::from(evicted);
        self.counters.hits += u64::from(tracked);
        self.inner.on_l1_tlb_miss(sm, pc, vpn)
    }

    fn on_translation_resolved(&mut self, sm: usize, pc: u64, vpn: Vpn, ppn: Ppn) {
        self.inner.on_translation_resolved(sm, pc, vpn, ppn);
    }

    fn on_spec_fill(&self, ctx: &SpecFillContext) -> SpecFillAction {
        self.inner.on_spec_fill(ctx)
    }

    fn validation_kind(&self) -> ValidationKind {
        self.inner.validation_kind()
    }

    fn propagates_cross_sm(&self) -> bool {
        self.inner.propagates_cross_sm()
    }

    fn l1_fill_priority(&self, sm: usize, vpn: Vpn) -> FillPriority {
        if self.tables[sm].is_streaming(vpn) {
            FillPriority::Transient
        } else {
            self.inner.l1_fill_priority(sm, vpn)
        }
    }

    fn policy_counters(&self) -> PolicyCounters {
        self.counters.merged(self.inner.policy_counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avatar_sim::addr::PAGES_PER_CHUNK;
    use avatar_sim::hooks::NoSpeculation;

    fn wrapper() -> DeadEntryPolicy {
        DeadEntryPolicy::new(2, Box::new(NoSpeculation))
    }

    #[test]
    fn streaming_region_hints_transient_after_streak() {
        let mut p = wrapper();
        let base = 4 * PAGES_PER_CHUNK;
        for i in 0..=u64::from(DEAD_STREAK) {
            assert_eq!(p.l1_fill_priority(0, Vpn(base + i)), FillPriority::Normal);
            p.on_l1_tlb_miss(0, 0x100, Vpn(base + i));
        }
        // DEAD_STREAK consecutive ascending misses: the region is a stream.
        assert_eq!(p.l1_fill_priority(0, Vpn(base + 9)), FillPriority::Transient);
        // Detection is per SM: SM 1 has seen nothing.
        assert_eq!(p.l1_fill_priority(1, Vpn(base + 9)), FillPriority::Normal);
    }

    #[test]
    fn revisits_break_the_stream_hypothesis() {
        let mut p = wrapper();
        let base = PAGES_PER_CHUNK;
        for i in 0..=u64::from(DEAD_STREAK) {
            p.on_l1_tlb_miss(0, 0x100, Vpn(base + i));
        }
        assert_eq!(p.l1_fill_priority(0, Vpn(base)), FillPriority::Transient);
        // Jumping backwards (reuse) decays the streak below the threshold.
        for _ in 0..u64::from(STREAK_MAX) {
            p.on_l1_tlb_miss(0, 0x100, Vpn(base + 1));
            p.on_l1_tlb_miss(0, 0x100, Vpn(base + 40));
        }
        assert_eq!(p.l1_fill_priority(0, Vpn(base)), FillPriority::Normal);
    }

    #[test]
    fn delegates_speculation_and_validation() {
        let p = wrapper();
        assert_eq!(p.validation_kind(), ValidationKind::None);
        assert!(!p.propagates_cross_sm());
        let mut p = DeadEntryPolicy::new(
            1,
            Box::new(crate::cast::AvatarPolicy::avatar(1, 32, 2)),
        );
        assert_eq!(p.validation_kind(), ValidationKind::InCache);
        assert!(p.propagates_cross_sm());
        // Inner MOD training still drives speculation through the wrapper.
        p.on_translation_resolved(0, 0x100, Vpn(10), Ppn(110));
        p.on_translation_resolved(0, 0x100, Vpn(11), Ppn(111));
        assert_eq!(p.on_l1_tlb_miss(0, 0x100, Vpn(12)), Some(Ppn(112)));
    }

    #[test]
    fn counters_merge_wrapper_and_inner() {
        let mut p = wrapper();
        p.on_l1_tlb_miss(0, 0x1, Vpn(5));
        p.on_l1_tlb_miss(0, 0x1, Vpn(6));
        let c = p.policy_counters();
        assert_eq!(c.installs, 1, "one region tracked");
        assert_eq!(c.hits, 1, "second miss found the entry");
    }
}
