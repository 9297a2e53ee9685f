//! Configuration-matrix tests: every evaluated configuration must satisfy
//! its defining properties on a common workload — the contract between
//! each registry row and the machinery it enables.

use avatar_core::policy::{
    AVATAR, AVATAR_NOEAF, AVATAR_VPNT, BASELINE, CAST, CAST_IDEAL, COLT, IDEAL, PROMOTION,
    SNAKEBYTE,
};
use avatar_core::system::{gpu_config_for, run_policy, run_policy_with, RunOptions};
use avatar_sim::config::CacheArrangement;
use avatar_workloads::Workload;

fn opts() -> RunOptions {
    RunOptions { scale: 0.05, sms: Some(4), warps: Some(8), ..RunOptions::default() }
}

#[test]
fn promotion_flag_follows_configuration() {
    let w = Workload::by_abbr("GEMM").unwrap();
    for def in [BASELINE, IDEAL] {
        assert!(!gpu_config_for(&w, def, &opts()).uvm.promotion, "{}", def.label);
    }
    for def in [
        PROMOTION,
        COLT,
        SNAKEBYTE,
        CAST,
        AVATAR,
        CAST_IDEAL,
    ] {
        assert!(gpu_config_for(&w, def, &opts()).uvm.promotion, "{}", def.label);
    }
}

#[test]
fn embedding_only_for_cava_configurations() {
    let w = Workload::by_abbr("GEMM").unwrap();
    for def in [
        BASELINE,
        PROMOTION,
        COLT,
        SNAKEBYTE,
        CAST,
        CAST_IDEAL,
    ] {
        assert!(!gpu_config_for(&w, def, &opts()).uvm.embed_page_info, "{}", def.label);
    }
    for def in [AVATAR, AVATAR_NOEAF, AVATAR_VPNT] {
        assert!(gpu_config_for(&w, def, &opts()).uvm.embed_page_info, "{}", def.label);
    }
}

#[test]
fn non_speculating_configs_never_speculate() {
    let w = Workload::by_abbr("SSSP").unwrap();
    for def in [
        BASELINE,
        PROMOTION,
        COLT,
        SNAKEBYTE,
    ] {
        let s = run_policy(&w, def, &opts());
        assert_eq!(s.speculations, 0, "{}", def.label);
        assert_eq!(s.spec_fetches, 0, "{}", def.label);
        assert_eq!(s.eaf_fills, 0, "{}", def.label);
    }
}

#[test]
fn vpnt_variant_uses_the_vpn_predictor() {
    // The VPN-T predictor speculates directly after one observation, so
    // on a fresh-page stream it attempts strictly more speculations than
    // MOD (which needs two confirming observations per PC).
    let w = Workload::by_abbr("GEMM").unwrap();
    let m = run_policy(&w, AVATAR, &opts());
    let v = run_policy(&w, AVATAR_VPNT, &opts());
    assert!(v.speculations > 0 && m.speculations > 0);
}

#[test]
fn run_with_tweak_applies() {
    let w = Workload::by_abbr("GEMM").unwrap();
    // Degenerate tweak: zero-entry MOD tables (clamped to 1) with an
    // unreachable threshold disable speculation entirely.
    let s = run_policy_with(&w, AVATAR, &opts(), |c| {
        c.spec.confidence_threshold = 3;
        c.spec.mod_entries = 1;
    });
    let normal = run_policy(&w, AVATAR, &opts());
    assert!(s.spec_coverage() <= normal.spec_coverage() + 1e-9);
}

#[test]
fn pipt_is_never_faster_than_vipt() {
    let w = Workload::by_abbr("GEMM").unwrap();
    let vipt = run_policy_with(&w, BASELINE, &opts(), |c| {
        c.l1_arrangement = CacheArrangement::Vipt;
    });
    let pipt = run_policy_with(&w, BASELINE, &opts(), |c| {
        c.l1_arrangement = CacheArrangement::Pipt;
    });
    assert!(pipt.cycles >= vipt.cycles, "PIPT serializes: {} vs {}", pipt.cycles, vipt.cycles);
}

#[test]
fn codec_choice_changes_validation_not_correctness() {
    let w = Workload::by_abbr("GC").unwrap();
    let bpc = run_policy(&w, AVATAR, &RunOptions { codec: avatar_bpc::Codec::Bpc, ..opts() });
    let fpc = run_policy(&w, AVATAR, &RunOptions { codec: avatar_bpc::Codec::Fpc, ..opts() });
    // Same work either way; FPC's weaker budget fit yields fewer (or
    // equal) rapid validations.
    assert_eq!(bpc.loads, fpc.loads);
    assert!(fpc.outcomes.fast_translation <= bpc.outcomes.fast_translation);
}
