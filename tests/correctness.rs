//! Cross-crate correctness invariants: speculation must never change
//! architectural behaviour, runs must be deterministic, and the accounting
//! must be conserved across configurations.

use avatar_gpu::core::policy::{
    PolicySelection, AVATAR, AVATAR_NOEAF, BASELINE, CAST, COLT, IDEAL, SNAKEBYTE,
};
use avatar_gpu::core::system::{run_policy, RunOptions};
use avatar_gpu::workloads::Workload;

fn opts() -> RunOptions {
    RunOptions { scale: 0.05, sms: Some(4), warps: Some(8), ..RunOptions::default() }
}

#[test]
fn every_configuration_completes_every_issued_access() {
    // The engine debug-asserts internally that all sector requests
    // complete; here we check the visible accounting across configs.
    let w = Workload::by_abbr("SSSP").unwrap();
    for sel in PolicySelection::all_base() {
        let s = run_policy(&w, sel, &opts());
        assert!(s.loads > 0, "{}: no loads issued", sel.label());
        assert_eq!(
            s.sector_latency.count(),
            s.sector_requests,
            "{}: every sector request must record a completion latency",
            sel.label()
        );
        assert_eq!(
            s.load_latency.count(),
            s.loads + s.stores,
            "{}: every warp memory instruction must complete",
            sel.label()
        );
    }
}

#[test]
fn speculation_does_not_change_the_work_performed() {
    // The same workload must issue identical instruction/load/sector
    // counts under every configuration — speculation accelerates, it must
    // not add or drop architectural work.
    let w = Workload::by_abbr("GC").unwrap();
    let base = run_policy(&w, BASELINE, &opts());
    for sel in PolicySelection::all_base() {
        let s = run_policy(&w, sel, &opts());
        assert_eq!(s.instructions, base.instructions, "{}", sel.label());
        assert_eq!(s.loads, base.loads, "{}", sel.label());
        assert_eq!(s.sector_requests, base.sector_requests, "{}", sel.label());
    }
}

#[test]
fn runs_are_deterministic() {
    let w = Workload::by_abbr("XSB").unwrap();
    for def in [AVATAR, COLT, SNAKEBYTE] {
        let a = run_policy(&w, def, &opts());
        let b = run_policy(&w, def, &opts());
        assert_eq!(a.cycles, b.cycles, "{}", def.label);
        assert_eq!(a.speculations, b.speculations, "{}", def.label);
        assert_eq!(a.page_walks, b.page_walks, "{}", def.label);
        assert_eq!(a.dram_read_bytes, b.dram_read_bytes, "{}", def.label);
        assert_eq!(a.stall_cycles, b.stall_cycles, "{}", def.label);
    }
}

#[test]
fn accuracy_and_coverage_are_probabilities() {
    for abbr in ["GEMM", "SSSP", "SC"] {
        let w = Workload::by_abbr(abbr).unwrap();
        let s = run_policy(&w, AVATAR, &opts());
        assert!((0.0..=1.0).contains(&s.spec_accuracy()), "{abbr}");
        assert!((0.0..=1.0).contains(&s.spec_coverage()), "{abbr}");
        assert!(s.spec_correct <= s.speculations, "{abbr}");
        let o = &s.outcomes;
        assert!(
            o.total() <= s.spec_correct + s.speculations,
            "{abbr}: outcomes only for speculative accesses"
        );
    }
}

#[test]
fn ideal_tlb_never_walks_or_misses() {
    let w = Workload::by_abbr("KM").unwrap();
    let s = run_policy(&w, IDEAL, &opts());
    assert_eq!(s.page_walks, 0);
    assert_eq!(s.l1_tlb_lookups, 0, "ideal TLB bypasses the hierarchy");
    assert_eq!(s.speculations, 0);
}

#[test]
fn cast_only_never_fast_translates_and_avatar_does() {
    let w = Workload::by_abbr("SSSP").unwrap();
    let cast = run_policy(&w, CAST, &opts());
    assert!(cast.speculations > 0);
    assert_eq!(cast.outcomes.fast_translation, 0);
    assert_eq!(cast.eaf_fills, 0);
    assert_eq!(cast.spec_compressed, 0, "CAST-only never inspects sectors");

    let avatar = run_policy(&w, AVATAR, &opts());
    assert!(avatar.outcomes.fast_translation > 0);
    assert!(avatar.eaf_fills > 0);
}

#[test]
fn eaf_reduces_page_walks() {
    let w = Workload::by_abbr("SSSP").unwrap();
    let no_eaf = run_policy(&w, AVATAR_NOEAF, &opts());
    let avatar = run_policy(&w, AVATAR, &opts());
    assert!(
        avatar.page_walks + avatar.walks_aborted <= no_eaf.page_walks + no_eaf.walks_aborted + no_eaf.page_walks / 2,
        "EAF must not inflate walk work: avatar {}+{} vs no-eaf {}",
        avatar.page_walks,
        avatar.walks_aborted,
        no_eaf.page_walks
    );
    assert!(avatar.walks_aborted > 0, "EAF must abort in-flight walks");
}

#[test]
fn dram_traffic_is_conserved() {
    // Reads cover the fetched sectors and eviction flushes; writes cover
    // the migrated pages. Both must be nonzero and sane.
    let w = Workload::by_abbr("MD").unwrap();
    let s = run_policy(&w, BASELINE, &opts());
    assert!(s.dram_read_bytes > 0);
    assert_eq!(
        s.dram_write_bytes,
        s.pages_migrated * 4096,
        "migration writes account 4KB per page"
    );
}

#[test]
fn oversubscription_only_evicts_under_pressure() {
    let w = Workload::by_abbr("XSB").unwrap();
    let unlimited = run_policy(&w, BASELINE, &opts());
    assert_eq!(unlimited.chunks_evicted, 0, "no pressure, no evictions");
    // A strongly constrained capacity guarantees churn regardless of how
    // much of the footprint the reduced trace touches.
    let constrained = run_policy(
        &w,
        BASELINE,
        &RunOptions { oversubscription: Some(1.3), scale: 0.25, ..opts() },
    );
    assert!(constrained.chunks_evicted > 0);
    assert_eq!(constrained.tlb_shootdowns, constrained.chunks_evicted);
}

#[test]
fn mis_speculation_is_detected_not_consumed() {
    // CAVA mismatches plus false speculations must stay within attempted
    // speculations, and Avatar must remain architecturally equivalent
    // despite them: every sector request and warp instruction completes.
    // At 48 warps per SM, a request whose speculative fetch filled
    // unvalidated later resolves correctly while another warp's fetch of
    // the same sector is in flight; it must join that fetch.
    let w = Workload::by_abbr("SC").unwrap();
    for (sms, warps) in [(4, 8), (8, 48)] {
        let geometry = RunOptions { scale: 0.25, sms: Some(sms), warps: Some(warps), ..opts() };
        let s = run_policy(&w, AVATAR, &geometry);
        assert!(s.speculations > 0);
        assert!(s.cava_mismatches <= s.speculations);
        assert!(s.spec_false <= s.speculations);
        assert_eq!(s.sector_latency.count(), s.sector_requests, "{sms}x{warps}: sector requests");
        assert_eq!(s.load_latency.count(), s.loads + s.stores, "{sms}x{warps}: warp instructions");
    }
}

#[test]
fn multi_tenancy_isolates_address_spaces() {
    // Two tenants spatially share the GPU: each sees its own copy of the
    // workload in an isolated address space. Speculation must stay
    // accurate (no cross-tenant aliasing in the shared TLB hierarchy) and
    // validation must never accept another tenant's page (ASID check).
    let w = Workload::by_abbr("SSSP").unwrap();
    let single = run_policy(
        &w,
        AVATAR,
        &RunOptions { tenants: 1, scale: 0.1, sms: Some(8), warps: Some(8), ..RunOptions::default() },
    );
    let dual = run_policy(
        &w,
        AVATAR,
        &RunOptions { tenants: 2, scale: 0.1, sms: Some(8), warps: Some(8), ..RunOptions::default() },
    );
    assert!(dual.loads > 0);
    assert_eq!(dual.load_latency.count(), dual.loads + dual.stores);
    assert!(dual.speculations > 0, "both tenants speculate");
    // Isolation: accuracy must not collapse under sharing.
    assert!(
        dual.spec_accuracy() > single.spec_accuracy() - 0.15,
        "tenant sharing must not poison prediction: {} vs {}",
        dual.spec_accuracy(),
        single.spec_accuracy()
    );
}

#[test]
fn multi_tenancy_is_deterministic() {
    let w = Workload::by_abbr("GEMM").unwrap();
    let opts = RunOptions { tenants: 2, scale: 0.05, sms: Some(4), warps: Some(4), ..RunOptions::default() };
    let a = run_policy(&w, AVATAR, &opts);
    let b = run_policy(&w, AVATAR, &opts);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.speculations, b.speculations);
}
