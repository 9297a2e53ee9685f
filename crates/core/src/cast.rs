//! The Avatar translation-acceleration policy: CAST speculation backed by
//! MOD (or VPN-T), CAVA validation decisions, and the EAF/cross-SM knobs.
//!
//! This type implements the simulator's [`TranslationPolicy`] interface and
//! is the policy half of the paper's Fig 6: the engine provides the
//! plumbing (speculative fetches, sector tag bits, resource release), this
//! module decides *when* to speculate and *how* fetched sectors validate.

use crate::mod_table::ModTable;
use crate::vpn_table::VpnTable;
use avatar_sim::addr::{Ppn, Vpn};
use avatar_sim::hooks::{SpecFillAction, SpecFillContext, TranslationPolicy, ValidationKind};

/// Which contiguity predictor CAST uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predictor {
    /// PC-tagged Mapping Offset Detection (the paper's default).
    Mod,
    /// VPN-region tracking (the §IV-C2 alternative).
    VpnT,
}

/// The assembled CAST(+CAVA+EAF) policy.
#[derive(Debug)]
pub struct AvatarPolicy {
    mods: Vec<ModTable>,
    vpns: Vec<VpnTable>,
    predictor: Predictor,
    validation: ValidationKind,
    eaf: bool,
    cross_sm: bool,
}

impl AvatarPolicy {
    /// Builds a policy with explicit knobs.
    pub fn new(
        num_sms: usize,
        entries: usize,
        threshold: u8,
        predictor: Predictor,
        validation: ValidationKind,
        eaf: bool,
        cross_sm: bool,
    ) -> Self {
        Self {
            mods: (0..num_sms).map(|_| ModTable::new(entries, threshold)).collect(),
            vpns: (0..num_sms).map(|_| VpnTable::new(entries)).collect(),
            predictor,
            validation,
            eaf,
            cross_sm,
        }
    }

    /// CAST without validation support (the paper's *CAST-only*): fetched
    /// data stays invisible until the background translation resolves.
    pub fn cast_only(num_sms: usize, entries: usize, threshold: u8) -> Self {
        Self::new(num_sms, entries, threshold, Predictor::Mod, ValidationKind::None, false, false)
    }

    /// The full Avatar configuration: CAST + CAVA in-cache validation +
    /// EAF with cross-SM propagation.
    pub fn avatar(num_sms: usize, entries: usize, threshold: u8) -> Self {
        Self::new(num_sms, entries, threshold, Predictor::Mod, ValidationKind::InCache, true, true)
    }

    /// Avatar without the Early-TLB-Fill path (ablation).
    pub fn avatar_no_eaf(num_sms: usize, entries: usize, threshold: u8) -> Self {
        Self::new(num_sms, entries, threshold, Predictor::Mod, ValidationKind::InCache, false, false)
    }

    /// CAST with oracle validation (the paper's *CAST+Ideal-Valid*).
    pub fn cast_ideal(num_sms: usize, entries: usize, threshold: u8) -> Self {
        Self::new(num_sms, entries, threshold, Predictor::Mod, ValidationKind::Ideal, true, true)
    }

    /// Avatar with the VPN-T predictor instead of MOD (Fig 22).
    pub fn avatar_vpnt(num_sms: usize, entries: usize) -> Self {
        Self::new(num_sms, entries, 0, Predictor::VpnT, ValidationKind::InCache, true, true)
    }

    fn predict_offset(&mut self, sm: usize, pc: u64, vpn: Vpn) -> Option<i64> {
        match self.predictor {
            Predictor::Mod => self.mods[sm].predict(pc),
            Predictor::VpnT => self.vpns[sm].predict(vpn),
        }
    }
}

impl TranslationPolicy for AvatarPolicy {
    fn on_l1_tlb_miss(&mut self, sm: usize, pc: u64, vpn: Vpn) -> Option<Ppn> {
        let offset = self.predict_offset(sm, pc, vpn)?;
        let ppn = vpn.0 as i64 + offset;
        // A nonsensical (negative or page-table-region) frame means the
        // tracked offset does not apply here; skip speculation.
        if ppn <= 0 {
            return None;
        }
        Some(Ppn(ppn as u64))
    }

    fn on_translation_resolved(&mut self, sm: usize, pc: u64, vpn: Vpn, ppn: Ppn) {
        let offset = ppn.0 as i64 - vpn.0 as i64;
        match self.predictor {
            Predictor::Mod => self.mods[sm].train(pc, offset),
            Predictor::VpnT => self.vpns[sm].train(vpn, offset),
        }
    }

    fn on_spec_fill(&self, ctx: &SpecFillContext) -> SpecFillAction {
        match self.validation {
            // CAST-only: no validation hardware — always wait.
            ValidationKind::None => SpecFillAction::AwaitTranslation,
            // Ideal validation is resolved by the engine before fetch,
            // and rapid validation-on-use resolves on the engine's
            // verdict event; nothing should reach here, but waiting is
            // always safe.
            ValidationKind::Ideal | ValidationKind::Rapid { .. } => {
                SpecFillAction::AwaitTranslation
            }
            ValidationKind::InCache => {
                if !ctx.sector.compressed {
                    return SpecFillAction::AwaitTranslation;
                }
                match ctx.sector.embedded {
                    Some(meta) if meta.vpn == ctx.requested_vpn && meta.asid == ctx.asid => {
                        SpecFillAction::Validated { eaf: self.eaf }
                    }
                    _ => SpecFillAction::Invalidate,
                }
            }
        }
    }

    fn validation_kind(&self) -> ValidationKind {
        self.validation
    }

    fn propagates_cross_sm(&self) -> bool {
        self.cross_sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avatar_sim::hooks::{FetchedSector, PageMeta};

    fn ctx(compressed: bool, embedded: Option<PageMeta>, requested: u64) -> SpecFillContext {
        SpecFillContext {
            sm: 0,
            pc: 0x100,
            requested_vpn: Vpn(requested),
            asid: 1,
            spec_ppn: Ppn(777),
            sector: FetchedSector { compressed, embedded },
        }
    }

    #[test]
    fn mod_speculation_needs_confidence() {
        let mut p = AvatarPolicy::avatar(2, 32, 2);
        assert_eq!(p.on_l1_tlb_miss(0, 0x100, Vpn(10)), None);
        p.on_translation_resolved(0, 0x100, Vpn(10), Ppn(110));
        p.on_translation_resolved(0, 0x100, Vpn(11), Ppn(111));
        assert_eq!(p.on_l1_tlb_miss(0, 0x100, Vpn(12)), Some(Ppn(112)));
        // Per-SM tables: SM 1 has seen nothing.
        assert_eq!(p.on_l1_tlb_miss(1, 0x100, Vpn(12)), None);
    }

    #[test]
    fn vpnt_speculates_directly() {
        let mut p = AvatarPolicy::avatar_vpnt(1, 32);
        p.on_translation_resolved(0, 0x100, Vpn(5), Ppn(1005));
        assert_eq!(p.on_l1_tlb_miss(0, 0xDEAD, Vpn(6)), Some(Ppn(1006)));
    }

    #[test]
    fn cava_validates_matching_vpn() {
        let p = AvatarPolicy::avatar(1, 32, 2);
        let action = p.on_spec_fill(&ctx(true, Some(PageMeta { vpn: Vpn(42), asid: 1 }), 42));
        assert_eq!(action, SpecFillAction::Validated { eaf: true });
    }

    #[test]
    fn cava_invalidates_vpn_mismatch() {
        let p = AvatarPolicy::avatar(1, 32, 2);
        let action = p.on_spec_fill(&ctx(true, Some(PageMeta { vpn: Vpn(43), asid: 1 }), 42));
        assert_eq!(action, SpecFillAction::Invalidate);
    }

    #[test]
    fn cava_invalidates_asid_mismatch() {
        let p = AvatarPolicy::avatar(1, 32, 2);
        let action = p.on_spec_fill(&ctx(true, Some(PageMeta { vpn: Vpn(42), asid: 9 }), 42));
        assert_eq!(action, SpecFillAction::Invalidate);
    }

    #[test]
    fn raw_sector_awaits_translation() {
        let p = AvatarPolicy::avatar(1, 32, 2);
        let action = p.on_spec_fill(&ctx(false, None, 42));
        assert_eq!(action, SpecFillAction::AwaitTranslation);
    }

    #[test]
    fn cast_only_never_validates() {
        let p = AvatarPolicy::cast_only(1, 32, 2);
        let action = p.on_spec_fill(&ctx(true, Some(PageMeta { vpn: Vpn(42), asid: 1 }), 42));
        assert_eq!(action, SpecFillAction::AwaitTranslation);
        assert_eq!(p.validation_kind(), ValidationKind::None);
        assert!(!p.propagates_cross_sm());
    }

    #[test]
    fn no_eaf_variant_validates_without_release() {
        let p = AvatarPolicy::avatar_no_eaf(1, 32, 2);
        let action = p.on_spec_fill(&ctx(true, Some(PageMeta { vpn: Vpn(42), asid: 1 }), 42));
        assert_eq!(action, SpecFillAction::Validated { eaf: false });
    }

    #[test]
    fn negative_frame_predictions_suppressed() {
        let mut p = AvatarPolicy::avatar(1, 32, 2);
        p.on_translation_resolved(0, 0x1, Vpn(100), Ppn(10));
        p.on_translation_resolved(0, 0x1, Vpn(101), Ppn(11));
        // Offset −90; speculating for vpn 50 would give a negative frame.
        assert_eq!(p.on_l1_tlb_miss(0, 0x1, Vpn(50)), None);
    }
}
