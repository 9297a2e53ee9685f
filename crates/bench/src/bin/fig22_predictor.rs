//! Fig 22: MOD (PC-tagged) versus VPN-T (region-tagged) prediction.
//!
//! Paper: VPN-T outperforms MOD by ~2.8% thanks to direct speculation (no
//! confidence build-up) and shows higher coverage when 32 entries suffice,
//! but is less adaptable to other paging schemes.

use avatar_bench::json::Json;
use avatar_bench::runner::{run_scenarios, Scenario};
use avatar_bench::{geomean, mean, obj, print_table, HarnessArgs};
use avatar_core::policy::{AVATAR, AVATAR_VPNT, BASELINE};
use avatar_core::system::speedup;
use avatar_workloads::Workload;

fn main() {
    let opts = HarnessArgs::parse();
    let ro = opts.run_options();
    let workloads = Workload::all();

    let mut scenarios = Vec::new();
    for w in &workloads {
        scenarios.push(Scenario::new("Baseline", w, BASELINE, ro.clone()));
        scenarios.push(Scenario::new("MOD", w, AVATAR, ro.clone()));
        scenarios.push(Scenario::new("VPN-T", w, AVATAR_VPNT, ro.clone()));
    }
    let results = run_scenarios(opts.threads, scenarios);

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let (mut mod_speedups, mut vpnt_speedups) = (Vec::new(), Vec::new());
    let (mut mod_covs, mut vpnt_covs) = (Vec::new(), Vec::new());

    for (wi, w) in workloads.iter().enumerate() {
        let base = results[wi * 3].expect_stats();
        let m = results[wi * 3 + 1].expect_stats();
        let v = results[wi * 3 + 2].expect_stats();
        let (ms, vs) = (speedup(base, m), speedup(base, v));
        let (mc, vc) = (m.spec_coverage(), v.spec_coverage());
        mod_speedups.push(ms);
        vpnt_speedups.push(vs);
        mod_covs.push(mc);
        vpnt_covs.push(vc);
        rows.push(vec![
            w.abbr.to_string(),
            format!("{ms:.3}"),
            format!("{vs:.3}"),
            format!("{:.1}%", mc * 100.0),
            format!("{:.1}%", vc * 100.0),
        ]);
        json_rows.push(obj! {
            "workload": w.abbr,
            "mod_speedup": ms,
            "vpnt_speedup": vs,
            "mod_coverage": mc,
            "vpnt_coverage": vc,
        });
    }

    rows.push(vec![
        "MEAN".into(),
        format!("{:.3}", geomean(&mod_speedups)),
        format!("{:.3}", geomean(&vpnt_speedups)),
        format!("{:.1}%", mean(&mod_covs) * 100.0),
        format!("{:.1}%", mean(&vpnt_covs) * 100.0),
    ]);

    println!("\nFig 22: MOD vs VPN-T (speedup over baseline; speculation coverage)");
    print_table(&["Workload", "MOD perf", "VPN-T perf", "MOD cov", "VPN-T cov"], &rows);
    println!("\npaper: VPN-T ahead of MOD by ~2.8% perf with higher coverage at 32 entries");
    opts.dump_json(&json_rows);
}
