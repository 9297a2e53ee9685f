//! The name-keyed translation-policy registry.
//!
//! Every evaluated system is a [`PolicySelection`]: one registry entry
//! (a [`PolicyDef`] naming the TLB family, memory-manager behaviour, and
//! speculation policy to assemble). Harnesses parse selections from
//! strings (`--policy revelator`), sweep over
//! [`PolicySelection::all_base`], and key result-cache cells on
//! [`PolicySelection::name`].
//!
//! Each registry row is also a named constant ([`BASELINE`], [`AVATAR`],
//! [`REVELATOR`], …) that converts into a [`PolicySelection`], so code
//! that hard-wires a system gets a compile-checked name. This module is
//! the only place that knows what a name assembles: adding a contender
//! is one [`PolicyDef`] row (plus its policy type).

use crate::cast::AvatarPolicy;
use crate::revelator::RevelatorPolicy;
use avatar_baselines::{ColtTlb, SnakeByteTlb};
use avatar_sim::config::GpuConfig;
use avatar_sim::hooks::{NoSpeculation, TranslationPolicy};
use avatar_sim::tlb::{BaseTlb, TlbModel};

/// Which TLB-model family a policy's L1/L2 hierarchy is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbKind {
    /// The set-associative base+large two-array design (paper Table II).
    Base,
    /// CoLT coalesced TLBs.
    Colt,
    /// SnakeByte recursive-merging TLBs.
    SnakeByte,
}

/// One registry entry: everything needed to assemble a full system for a
/// named policy.
#[derive(Debug)]
pub struct PolicyDef {
    /// Canonical CLI name (`--policy` spelling), lowercase.
    pub name: &'static str,
    /// Table/figure label (matches the paper's configuration names).
    pub label: &'static str,
    /// One-line description for usage text and docs.
    pub summary: &'static str,
    /// Whether the memory manager promotes fully-resident 2MB chunks.
    pub uses_promotion: bool,
    /// Whether migrated data is compressed with embedded page info (CAVA).
    pub embeds_page_info: bool,
    /// Whether every lookup resolves instantly (translation oracle).
    pub ideal_tlb: bool,
    /// TLB-model family for both levels.
    pub tlb: TlbKind,
    build: fn(&GpuConfig) -> Box<dyn TranslationPolicy>,
}

fn build_none(_cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(NoSpeculation)
}

fn build_cast_only(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(AvatarPolicy::cast_only(cfg.num_sms, cfg.spec.mod_entries, cfg.spec.confidence_threshold))
}

fn build_avatar(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(AvatarPolicy::avatar(cfg.num_sms, cfg.spec.mod_entries, cfg.spec.confidence_threshold))
}

fn build_avatar_no_eaf(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(AvatarPolicy::avatar_no_eaf(cfg.num_sms, cfg.spec.mod_entries, cfg.spec.confidence_threshold))
}

fn build_cast_ideal(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(AvatarPolicy::cast_ideal(cfg.num_sms, cfg.spec.mod_entries, cfg.spec.confidence_threshold))
}

fn build_avatar_vpnt(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(AvatarPolicy::avatar_vpnt(cfg.num_sms, cfg.spec.mod_entries))
}

fn build_revelator(cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
    Box::new(RevelatorPolicy::new(cfg.spec.seed_entries, cfg.spec.rapid_latency))
}

/// The `baseline` registry row.
pub const BASELINE: &PolicyDef = &PolicyDef {
    name: "baseline",
    label: "Baseline",
    summary: "UVM baseline: base TLBs, TBN prefetcher, no promotion",
    uses_promotion: false,
    embeds_page_info: false,
    ideal_tlb: false,
    tlb: TlbKind::Base,
    build: build_none,
};

/// The `ideal` registry row.
pub const IDEAL: &PolicyDef = &PolicyDef {
    name: "ideal",
    label: "Ideal-TLB",
    summary: "translation oracle: every lookup resolves instantly (Fig 3 bound)",
    uses_promotion: false,
    embeds_page_info: false,
    ideal_tlb: true,
    tlb: TlbKind::Base,
    build: build_none,
};

/// The `promotion` registry row.
pub const PROMOTION: &PolicyDef = &PolicyDef {
    name: "promotion",
    label: "Promotion",
    summary: "Mosaic-style 2MB page promotion (adopted by all contenders)",
    uses_promotion: true,
    embeds_page_info: false,
    ideal_tlb: false,
    tlb: TlbKind::Base,
    build: build_none,
};

/// The `colt` registry row.
pub const COLT: &PolicyDef = &PolicyDef {
    name: "colt",
    label: "CoLT",
    summary: "CoLT coalesced TLBs + promotion",
    uses_promotion: true,
    embeds_page_info: false,
    ideal_tlb: false,
    tlb: TlbKind::Colt,
    build: build_none,
};

/// The `snakebyte` registry row.
pub const SNAKEBYTE: &PolicyDef = &PolicyDef {
    name: "snakebyte",
    label: "SnakeByte",
    summary: "SnakeByte recursive merging + promotion",
    uses_promotion: true,
    embeds_page_info: false,
    ideal_tlb: false,
    tlb: TlbKind::SnakeByte,
    build: build_none,
};

/// The `cast` registry row.
pub const CAST: &PolicyDef = &PolicyDef {
    name: "cast",
    label: "CAST-only",
    summary: "CAST speculation without validation support",
    uses_promotion: true,
    embeds_page_info: false,
    ideal_tlb: false,
    tlb: TlbKind::Base,
    build: build_cast_only,
};

/// The `avatar` registry row.
pub const AVATAR: &PolicyDef = &PolicyDef {
    name: "avatar",
    label: "Avatar",
    summary: "full Avatar: CAST + CAVA in-cache validation + EAF",
    uses_promotion: true,
    embeds_page_info: true,
    ideal_tlb: false,
    tlb: TlbKind::Base,
    build: build_avatar,
};

/// The `avatar-noeaf` registry row.
pub const AVATAR_NOEAF: &PolicyDef = &PolicyDef {
    name: "avatar-noeaf",
    label: "Avatar-noEAF",
    summary: "Avatar without the Early-TLB-Fill path (ablation)",
    uses_promotion: true,
    embeds_page_info: true,
    ideal_tlb: false,
    tlb: TlbKind::Base,
    build: build_avatar_no_eaf,
};

/// The `cast-ideal` registry row.
pub const CAST_IDEAL: &PolicyDef = &PolicyDef {
    name: "cast-ideal",
    label: "CAST+Ideal-Valid",
    summary: "CAST with oracle validation (validation upper bound)",
    uses_promotion: true,
    embeds_page_info: false,
    ideal_tlb: false,
    tlb: TlbKind::Base,
    build: build_cast_ideal,
};

/// The `avatar-vpnt` registry row.
pub const AVATAR_VPNT: &PolicyDef = &PolicyDef {
    name: "avatar-vpnt",
    label: "Avatar-VPNT",
    summary: "Avatar with the VPN-T predictor instead of MOD (Fig 22)",
    uses_promotion: true,
    embeds_page_info: true,
    ideal_tlb: false,
    tlb: TlbKind::Base,
    build: build_avatar_vpnt,
};

/// The `revelator` registry row.
pub const REVELATOR: &PolicyDef = &PolicyDef {
    name: "revelator",
    label: "Revelator",
    summary: "hash-based speculative translation from SW-guided seed tables \
              with rapid validation-on-use (no compressed sectors needed)",
    uses_promotion: true,
    embeds_page_info: false,
    ideal_tlb: false,
    tlb: TlbKind::Base,
    build: build_revelator,
};

/// The registry: every assemblable policy, in presentation order.
/// Append-only by convention — reordering or renaming entries would
/// change `--policy` spellings and result-cache keys.
pub const REGISTRY: &[&PolicyDef] = &[
    BASELINE,
    IDEAL,
    PROMOTION,
    COLT,
    SNAKEBYTE,
    CAST,
    AVATAR,
    AVATAR_NOEAF,
    CAST_IDEAL,
    AVATAR_VPNT,
    REVELATOR,
];

/// The six columns of the paper's Fig 15, in plot order (Baseline is the
/// normalization reference, not a column).
pub const FIG15: [&PolicyDef; 6] = [PROMOTION, COLT, SNAKEBYTE, CAST, AVATAR, CAST_IDEAL];

/// Looks up a registry entry by canonical name.
pub fn find(name: &str) -> Option<&'static PolicyDef> {
    REGISTRY.iter().copied().find(|d| d.name == name)
}

/// Comma-joined canonical names, for error messages and usage text.
pub fn names() -> String {
    REGISTRY.iter().map(|d| d.name).collect::<Vec<_>>().join(", ")
}

/// A concrete, assemblable policy choice: one registry entry, parsed
/// from its name (`avatar`, `revelator`).
#[derive(Debug, Clone, Copy)]
pub struct PolicySelection {
    /// The registry row.
    pub def: &'static PolicyDef,
}

impl PartialEq for PolicySelection {
    fn eq(&self, other: &Self) -> bool {
        self.def.name == other.def.name
    }
}

impl Eq for PolicySelection {}

impl PolicySelection {
    /// Every registry entry as a selection, in registry order.
    pub fn all_base() -> impl Iterator<Item = PolicySelection> {
        REGISTRY.iter().map(|&def| Self { def })
    }

    /// Parses a registry name, case-insensitively. An unknown name is an
    /// error that lists the registry.
    pub fn parse(text: &str) -> Result<Self, String> {
        let name = text.trim().to_ascii_lowercase();
        let def = find(&name)
            .ok_or_else(|| format!("unknown policy '{name}' (known: {})", names()))?;
        Ok(Self { def })
    }

    /// Parses a comma-separated selection list (`--policies` values).
    /// Empty items are skipped; a list that names no policy is an error.
    pub fn parse_list(text: &str) -> Result<Vec<Self>, String> {
        let sels: Vec<Self> = text
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Self::parse)
            .collect::<Result<_, _>>()?;
        if sels.is_empty() {
            return Err(format!("policy list '{text}' names no policy (known: {})", names()));
        }
        Ok(sels)
    }

    /// The canonical spelling (`parse` round-trips it).
    pub fn name(&self) -> String {
        self.def.name.to_string()
    }

    /// Table/figure label.
    pub fn label(&self) -> String {
        self.def.label.to_string()
    }

    /// Sets the [`GpuConfig`] flags this selection assembles with: the
    /// translation oracle, page promotion, and CAVA page-info embedding.
    pub fn configure(&self, cfg: &mut GpuConfig) {
        cfg.ideal_tlb = self.def.ideal_tlb;
        cfg.uvm.promotion = self.def.uses_promotion;
        cfg.uvm.embed_page_info = self.def.embeds_page_info;
    }

    /// Builds the L1 (per-SM) and L2 TLB models for this selection.
    pub fn build_tlbs(&self, cfg: &GpuConfig) -> (Vec<Box<dyn TlbModel>>, Box<dyn TlbModel>) {
        let base_pages = cfg.uvm.base_page.pages();
        let l1 = |_i: usize| -> Box<dyn TlbModel> {
            match self.def.tlb {
                TlbKind::Colt => Box::new(ColtTlb::new(
                    cfg.l1_tlb.base_entries,
                    cfg.l1_tlb.large_entries,
                    cfg.l1_tlb.assoc,
                )),
                TlbKind::SnakeByte => Box::new(SnakeByteTlb::new(
                    cfg.l1_tlb.base_entries + cfg.l1_tlb.large_entries,
                )),
                TlbKind::Base => Box::new(BaseTlb::new(
                    cfg.l1_tlb.base_entries,
                    cfg.l1_tlb.large_entries,
                    cfg.l1_tlb.assoc,
                    base_pages,
                )),
            }
        };
        let l1s: Vec<Box<dyn TlbModel>> = (0..cfg.num_sms).map(l1).collect();
        let l2: Box<dyn TlbModel> = match self.def.tlb {
            TlbKind::Colt => Box::new(ColtTlb::new(
                cfg.l2_tlb.base_entries,
                cfg.l2_tlb.large_entries,
                cfg.l2_tlb.assoc,
            )),
            TlbKind::SnakeByte => {
                Box::new(SnakeByteTlb::new(cfg.l2_tlb.base_entries + cfg.l2_tlb.large_entries))
            }
            TlbKind::Base => Box::new(BaseTlb::new(
                cfg.l2_tlb.base_entries,
                cfg.l2_tlb.large_entries,
                cfg.l2_tlb.assoc,
                base_pages,
            )),
        };
        (l1s, l2)
    }

    /// Builds the translation policy object.
    pub fn build_policy(&self, cfg: &GpuConfig) -> Box<dyn TranslationPolicy> {
        (self.def.build)(cfg)
    }
}

impl From<&'static PolicyDef> for PolicySelection {
    fn from(def: &'static PolicyDef) -> Self {
        Self { def }
    }
}

impl std::fmt::Display for PolicySelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_parses_back_to_itself() {
        for def in REGISTRY {
            let sel = PolicySelection::parse(def.name).expect("registry name parses");
            assert_eq!(sel.def.name, def.name);
            assert_eq!(sel.name(), def.name);
            assert_eq!(sel.label(), def.label);
        }
    }

    #[test]
    fn names_are_unique_and_canonical() {
        for (i, a) in REGISTRY.iter().enumerate() {
            assert_eq!(a.name, a.name.to_ascii_lowercase(), "names are lowercase");
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate policy name");
                assert_ne!(a.label, b.label, "duplicate policy label");
            }
        }
    }

    #[test]
    fn unknown_names_error_with_catalog() {
        // A `+` suffix is part of the name, so it names no registry row.
        for name in ["warpdrive", "avatar+warp"] {
            let err = PolicySelection::parse(name).expect_err("unknown policy");
            assert!(err.contains(name), "error names the input: {err}");
            assert!(err.contains(&names()), "error lists the registry: {err}");
        }
    }

    #[test]
    fn parse_list_splits_and_trims() {
        let sels = PolicySelection::parse_list(" baseline, avatar ,revelator ")
            .expect("list parses");
        assert_eq!(sels.len(), 3);
        assert_eq!(sels[0].name(), "baseline");
        assert_eq!(sels[1].name(), "avatar");
        assert_eq!(sels[2].name(), "revelator");
        assert!(PolicySelection::parse_list("avatar,bogus").is_err());
        for empty in ["", " ", ",", " , ,"] {
            let err = PolicySelection::parse_list(empty).expect_err("names no policy");
            assert!(err.contains("names no policy"), "{err}");
        }
    }

    #[test]
    fn registry_rows_pin_labels_and_assembly_flags() {
        // Figure JSON carries these labels and the flags decide what each
        // name assembles; a changed row changes published results.
        let expect = [
            (BASELINE, "baseline", "Baseline", false, false, false, TlbKind::Base),
            (IDEAL, "ideal", "Ideal-TLB", false, false, true, TlbKind::Base),
            (PROMOTION, "promotion", "Promotion", true, false, false, TlbKind::Base),
            (COLT, "colt", "CoLT", true, false, false, TlbKind::Colt),
            (SNAKEBYTE, "snakebyte", "SnakeByte", true, false, false, TlbKind::SnakeByte),
            (CAST, "cast", "CAST-only", true, false, false, TlbKind::Base),
            (AVATAR, "avatar", "Avatar", true, true, false, TlbKind::Base),
            (AVATAR_NOEAF, "avatar-noeaf", "Avatar-noEAF", true, true, false, TlbKind::Base),
            (CAST_IDEAL, "cast-ideal", "CAST+Ideal-Valid", true, false, false, TlbKind::Base),
            (AVATAR_VPNT, "avatar-vpnt", "Avatar-VPNT", true, true, false, TlbKind::Base),
            (REVELATOR, "revelator", "Revelator", true, false, false, TlbKind::Base),
        ];
        assert_eq!(REGISTRY.len(), expect.len(), "every row is pinned");
        for (i, (def, name, label, promotes, embeds, ideal, tlb)) in expect.into_iter().enumerate() {
            assert_eq!(REGISTRY[i].name, def.name, "row {i} is the named constant");
            assert_eq!(def.name, name);
            assert_eq!(def.label, label, "{name}");
            assert_eq!(def.uses_promotion, promotes, "{name}");
            assert_eq!(def.embeds_page_info, embeds, "{name}");
            assert_eq!(def.ideal_tlb, ideal, "{name}");
            assert_eq!(def.tlb, tlb, "{name}");
            assert_eq!(PolicySelection::from(def), PolicySelection::parse(name).expect("parses"));
        }
    }

    #[test]
    fn case_insensitive_parse() {
        let sel = PolicySelection::parse("Avatar-NoEAF").expect("case folded");
        assert_eq!(sel.name(), "avatar-noeaf");
    }
}
