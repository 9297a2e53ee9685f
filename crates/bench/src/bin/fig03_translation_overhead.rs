//! Fig 3: impact of address translation on GPU performance.
//!
//! (a) stall cycles waiting for memory, baseline normalized to an ideal
//!     TLB — paper average 1.7×, with SSSP/SPMV/XSB ≥ 2×;
//! (b) performance degradation vs the ideal TLB — paper average −34.5%.

use avatar_bench::json::Json;
use avatar_bench::runner::{run_scenarios, Scenario};
use avatar_bench::{geomean, mean, obj, print_table, HarnessArgs};
use avatar_core::policy::{BASELINE, IDEAL};
use avatar_workloads::Workload;

fn main() {
    let opts = HarnessArgs::parse();
    let ro = opts.run_options();
    let workloads = Workload::all();

    let mut scenarios = Vec::new();
    for w in &workloads {
        scenarios.push(Scenario::new("Baseline", w, BASELINE, ro.clone()));
        scenarios.push(Scenario::new("IdealTLB", w, IDEAL, ro.clone()));
    }
    let results = run_scenarios(opts.threads, scenarios);

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut stall_ratios = Vec::new();
    let mut perf = Vec::new();

    for (wi, w) in workloads.iter().enumerate() {
        let base = results[wi * 2].expect_stats();
        let ideal = results[wi * 2 + 1].expect_stats();
        let stall_ratio = if ideal.stall_cycles == 0 {
            base.stall_cycles as f64
        } else {
            base.stall_cycles as f64 / ideal.stall_cycles as f64
        };
        let perf_vs_ideal = ideal.cycles as f64 / base.cycles as f64; // <1: ideal faster
        let degradation = 1.0 - perf_vs_ideal;
        stall_ratios.push(stall_ratio);
        perf.push(perf_vs_ideal);
        rows.push(vec![
            w.abbr.to_string(),
            format!("{stall_ratio:.2}x"),
            format!("{:.1}%", degradation * 100.0),
        ]);
        json_rows.push(obj! {
            "workload": w.abbr,
            "stall_ratio": stall_ratio,
            "perf_vs_ideal": perf_vs_ideal,
        });
    }

    println!("\nFig 3: translation overhead (baseline vs ideal TLB)");
    print_table(&["Workload", "StallCycles vs ideal", "Perf loss vs ideal"], &rows);
    println!(
        "\npaper: stalls 1.7x avg, perf loss 34.5% avg | measured: stalls {:.2}x avg, perf loss {:.1}% avg",
        mean(&stall_ratios),
        (1.0 - geomean(&perf)) * 100.0
    );
    opts.dump_json(&json_rows);
}
