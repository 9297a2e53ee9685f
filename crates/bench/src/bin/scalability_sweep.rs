//! Scalability sweep (paper Table I's central claim): TLB-reach techniques
//! stop scaling once the working set outgrows their reach, while Avatar's
//! speculation is reach-independent.
//!
//! Sweeps one irregular workload's footprint across scales and reports
//! each technique's speedup over the equally-sized baseline.
//!
//! `--abbr <ABBR>` selects the workload (default XSB, the 2.24GB maximum).

use avatar_bench::json::Json;
use avatar_bench::runner::{fmt_cell, run_scenarios, speedup_cell, Scenario};
use avatar_bench::{obj, print_table, ExtraFlag, HarnessArgs};
use avatar_core::policy::{PolicyDef, AVATAR, BASELINE, COLT, PROMOTION, SNAKEBYTE};
use avatar_core::system::RunOptions;
use avatar_workloads::Workload;

const CONFIGS: [&PolicyDef; 4] = [PROMOTION, COLT, SNAKEBYTE, AVATAR];

const SCALES: [f64; 6] = [0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0];

fn main() {
    let opts = HarnessArgs::parse_with(&[ExtraFlag {
        flag: "--abbr",
        value_name: Some("WL"),
        help: "workload abbreviation to sweep (default XSB, the 2.24GB maximum)",
    }]);
    let abbr = opts.extra_value("--abbr").unwrap_or("XSB").to_string();
    let w = Workload::by_abbr(&abbr).unwrap_or_else(|| {
        eprintln!("unknown workload {abbr}");
        std::process::exit(1);
    });

    let mut scenarios = Vec::new();
    for scale in SCALES {
        let ro = RunOptions {
            scale,
            sms: Some(opts.sms),
            warps: Some(opts.warps),
            ..RunOptions::default()
        };
        scenarios.push(Scenario::new("Baseline", &w, BASELINE, ro.clone()));
        for cfg in CONFIGS {
            scenarios.push(Scenario::new(cfg.label, &w, cfg, ro.clone()));
        }
    }
    let results = run_scenarios(opts.threads, scenarios);
    let stride = CONFIGS.len() + 1;

    let mut rows = Vec::new();
    let mut json: Vec<Json> = Vec::new();
    for (si, scale) in SCALES.iter().enumerate() {
        let ws_mb = w.scaled_working_set(*scale) >> 20;
        let base = &results[si * stride];
        let mut cells = vec![format!("{ws_mb}MB")];
        let mut speedups = Vec::new();
        for (i, cfg) in CONFIGS.iter().enumerate() {
            let x = speedup_cell(base, &results[si * stride + 1 + i]);
            cells.push(fmt_cell(x, 3));
            speedups.push(obj! { "config": cfg.label, "speedup": x });
        }
        rows.push(cells);
        json.push(obj! { "working_set_mb": ws_mb, "speedups": Json::Arr(speedups) });
    }

    let mut headers = vec!["Working set"];
    headers.extend(CONFIGS.iter().map(|c| c.label));
    println!("\nScalability sweep: {} footprint vs technique speedup", w.abbr);
    print_table(&headers, &rows);
    println!("\nTable I claim: reach-bound techniques flatten as the footprint outgrows TLB reach; Avatar keeps scaling.");
    opts.dump_json(&json);
}
