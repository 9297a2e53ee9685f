//! Fig 21: performance with a 64KB base page (prefetch-enlarged fault
//! granularity), normalized to the 64KB baseline.
//!
//! Paper: Avatar gains 13% over the baseline, ahead of Promotion by 7.2%
//! and CoLT by 3.0%; the CoLT gap narrows versus 4KB pages because 64KB
//! entries raise its maximum coalesced reach, but irregular workloads
//! (SC, XSB) still favour Avatar. SnakeByte is excluded (64KB pages do
//! not align with its merging), as in the paper.

use avatar_bench::json::Json;
use avatar_bench::runner::{fmt_cell, run_scenarios, speedup_cell, Scenario};
use avatar_bench::{column_geomean, obj, print_table, HarnessArgs};
use avatar_core::policy::{PolicyDef, AVATAR, BASELINE, COLT, PROMOTION};
use avatar_core::system::RunOptions;
use avatar_sim::config::BasePage;
use avatar_workloads::Workload;

const CONFIGS: [&PolicyDef; 3] = [PROMOTION, COLT, AVATAR];

fn main() {
    let opts = HarnessArgs::parse();
    let ro = RunOptions { base_page: BasePage::Size64K, ..opts.run_options() };
    let workloads = Workload::all();

    let mut scenarios = Vec::new();
    for w in &workloads {
        scenarios.push(Scenario::new("Baseline", w, BASELINE, ro.clone()));
        for cfg in CONFIGS {
            scenarios.push(Scenario::new(cfg.label, w, cfg, ro.clone()));
        }
    }
    let results = run_scenarios(opts.threads, scenarios);
    let stride = CONFIGS.len() + 1;

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut per_config: Vec<Vec<Option<f64>>> = vec![Vec::new(); CONFIGS.len()];

    for (wi, w) in workloads.iter().enumerate() {
        let base = &results[wi * stride];
        let mut cells = vec![w.abbr.to_string()];
        let mut speedups = Vec::new();
        for (i, cfg) in CONFIGS.iter().enumerate() {
            let x = speedup_cell(base, &results[wi * stride + 1 + i]);
            per_config[i].push(x);
            cells.push(fmt_cell(x, 3));
            speedups.push(obj! { "config": cfg.label, "speedup": x });
        }
        json_rows.push(obj! { "workload": w.abbr, "speedups": Json::Arr(speedups) });
        rows.push(cells);
    }

    let mut gmean = vec!["GMEAN".to_string()];
    for xs in &per_config {
        gmean.push(fmt_cell(column_geomean(xs), 3));
    }
    rows.push(gmean);

    let mut headers = vec!["Workload"];
    headers.extend(CONFIGS.iter().map(|c| c.label));
    println!("\nFig 21: speedup over the 64KB-base-page baseline");
    print_table(&headers, &rows);
    println!("\npaper: Avatar +13% avg; gaps narrow vs 4KB but irregular workloads still favour Avatar");
    opts.dump_json(&json_rows);
}
