//! Interfaces between the simulator (hardware plumbing) and the policies
//! plugged into it: translation speculation (CAST, Revelator), validation
//! (CAVA, rapid validation-on-use), and the data-content/compressibility
//! model supplied by workloads.

use crate::addr::{Ppn, Vpn};
use crate::config::Cycle;

/// Page metadata as embedded into sectors (the simulator's view of
/// `avatar_bpc::PageInfo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMeta {
    /// Virtual page number the frame's data belongs to.
    pub vpn: Vpn,
    /// Address-space ID.
    pub asid: u16,
}

/// What the memory controller found in a fetched sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchedSector {
    /// The sector was stored compressed (CID signature present).
    pub compressed: bool,
    /// Embedded page information, when compressed and valid.
    pub embedded: Option<PageMeta>,
}

/// How speculative translations are validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationKind {
    /// No validation support: fetched data is unusable until the
    /// background translation resolves (CAST-only).
    None,
    /// CAVA: validate with the page information embedded in compressed
    /// sectors at L1-fill time.
    InCache,
    /// Oracle: every speculation is confirmed before the fetch even issues
    /// (the paper's CAST+Ideal-Valid configuration).
    Ideal,
    /// Rapid validation-on-use (Revelator): a lightweight permission/
    /// mapping check runs concurrently with the speculative fetch and
    /// confirms a correct speculation `latency` cycles after the miss —
    /// well before the background translation — releasing the MSHR and
    /// walk resources early, like EAF but without needing compressed
    /// sectors. Incorrect speculations still wait for the full walk.
    Rapid {
        /// Cycles from the speculative dispatch to the validation verdict.
        latency: Cycle,
    },
}

/// Decision returned by the policy when a speculatively fetched sector
/// arrives at the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecFillAction {
    /// No page information available: keep the sector invisible
    /// (guarantee bit clear) and wait for the background translation.
    AwaitTranslation,
    /// Embedded information matched the request: data is immediately
    /// usable. When `eaf` is set, the engine constructs a TLB entry from
    /// the embedded info, releases the pending MSHR/PW-buffer resources,
    /// aborts the in-flight walk, and propagates the entry to other SMs.
    Validated {
        /// Run the Early-TLB-Fill resource-release path.
        eaf: bool,
    },
    /// Embedded information mismatched (wrong VPN or ASID): invalidate the
    /// fetched sector immediately.
    Invalidate,
}

/// Context handed to the policy when a speculative fetch fills the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecFillContext {
    /// SM that issued the speculative request.
    pub sm: usize,
    /// Load PC.
    pub pc: u64,
    /// The virtual page the warp actually requested.
    pub requested_vpn: Vpn,
    /// Requesting address space.
    pub asid: u16,
    /// The speculated frame the data was fetched from.
    pub spec_ppn: Ppn,
    /// What arrived from memory.
    pub sector: FetchedSector,
}

/// Aggregate activity counters a policy reports once per run, folded into
/// the engine's [`Stats`](crate::stats::Stats) at `finish()`. All three
/// are policy-defined: a predictor counts predictor-table traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyCounters {
    /// Entries installed into policy-private tables (MOD table, seed
    /// tables).
    pub installs: u64,
    /// Entries displaced from policy-private tables by capacity/conflict.
    pub evictions: u64,
    /// Policy-table lookups that hit (fed a prediction).
    pub hits: u64,
}

/// The translation policy plugged into the engine: speculation, validation
/// strategy, and per-policy stats, behind one object-safe surface.
///
/// The baseline uses [`NoSpeculation`]; Avatar's CAST/CAVA/EAF policies
/// and Revelator live in the `avatar-core` crate, and a name-keyed
/// registry there (`avatar_core::policy`) assembles full systems from
/// policy names.
///
/// The policy is owned by the shared lane but lent (`&dyn`) to the SM
/// lane for fill-time validation:
/// [`on_spec_fill`](TranslationPolicy::on_spec_fill) takes `&self` and
/// must be a pure function of the policy's current state.
pub trait TranslationPolicy: std::fmt::Debug {
    /// Called on every L1 TLB miss: may return a speculated frame for the
    /// page, triggering an immediate fetch from the speculated address.
    fn on_l1_tlb_miss(&mut self, sm: usize, pc: u64, vpn: Vpn) -> Option<Ppn>;

    /// Called whenever a translation resolves (L2 TLB hit or walk
    /// completion) so the predictor can train on the V2P offset.
    fn on_translation_resolved(&mut self, sm: usize, pc: u64, vpn: Vpn, ppn: Ppn);

    /// Called when a speculatively fetched sector arrives at the L1.
    /// Takes `&self`: this runs in the SM lane while the policy is lent
    /// read-only, so it must not mutate state.
    fn on_spec_fill(&self, ctx: &SpecFillContext) -> SpecFillAction;

    /// The validation strategy this policy implements.
    fn validation_kind(&self) -> ValidationKind;

    /// Whether EAF propagates validated entries to other SMs' L1 TLBs.
    fn propagates_cross_sm(&self) -> bool {
        false
    }

    /// Snapshot of the policy's aggregate table-activity counters, read
    /// once when the engine finishes. Stateless policies keep the
    /// all-zero default.
    fn policy_counters(&self) -> PolicyCounters {
        PolicyCounters::default()
    }
}

/// The baseline policy: never speculates.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSpeculation;

impl TranslationPolicy for NoSpeculation {
    fn on_l1_tlb_miss(&mut self, _sm: usize, _pc: u64, _vpn: Vpn) -> Option<Ppn> {
        None
    }

    fn on_translation_resolved(&mut self, _sm: usize, _pc: u64, _vpn: Vpn, _ppn: Ppn) {}

    fn on_spec_fill(&self, _ctx: &SpecFillContext) -> SpecFillAction {
        SpecFillAction::AwaitTranslation
    }

    fn validation_kind(&self) -> ValidationKind {
        ValidationKind::None
    }
}

/// Data-content model: decides whether each 32-byte sector of the virtual
/// address space compresses below the 22-byte CAVA budget.
///
/// Implemented by workload generators, which synthesize deterministic
/// sector contents and run the real BPC codec over them (memoized).
pub trait SectorCompression: std::fmt::Debug {
    /// Whether the sector at (`vpn`, `sector_in_page` ∈ 0..128) fits 22B.
    fn compressible(&mut self, vpn: Vpn, sector_in_page: u32) -> bool;
}

/// A content model with uniform compressibility decided by a hash of the
/// sector index — handy for tests and microbenchmarks.
#[derive(Debug, Clone)]
pub struct UniformCompression {
    /// Fraction of sectors that compress (0.0..=1.0).
    pub fraction: f64,
}

impl SectorCompression for UniformCompression {
    fn compressible(&mut self, vpn: Vpn, sector_in_page: u32) -> bool {
        let x = vpn.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(u64::from(sector_in_page))
            .wrapping_mul(0xD134_2543_DE82_EF95);
        ((x >> 11) as f64 / (1u64 << 53) as f64) < self.fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_speculation_never_predicts() {
        let mut p = NoSpeculation;
        assert_eq!(p.on_l1_tlb_miss(0, 0x100, Vpn(5)), None);
        assert_eq!(p.validation_kind(), ValidationKind::None);
        assert!(!p.propagates_cross_sm());
    }

    #[test]
    fn uniform_compression_hits_fraction() {
        let mut c = UniformCompression { fraction: 0.7 };
        let n = 100_000;
        let hits = (0..n).filter(|&i| c.compressible(Vpn(i / 128), (i % 128) as u32)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn uniform_compression_is_deterministic() {
        let mut a = UniformCompression { fraction: 0.5 };
        let mut b = UniformCompression { fraction: 0.5 };
        for i in 0..1000 {
            assert_eq!(a.compressible(Vpn(i), 3), b.compressible(Vpn(i), 3));
        }
    }

    #[test]
    fn extremes() {
        let mut none = UniformCompression { fraction: 0.0 };
        let mut all = UniformCompression { fraction: 1.0 };
        assert!((0..1000).all(|i| !none.compressible(Vpn(i), 0)));
        assert!((0..1000).all(|i| all.compressible(Vpn(i), 0)));
    }
}
