//! Fig 18: speculation accuracy and coverage of the MOD-based CAST.
//!
//! Paper averages: accuracy 90.3%, coverage 73.4% (coverage = correct
//! speculations over all L1 TLB misses).

use avatar_bench::json::Json;
use avatar_bench::runner::{run_scenarios, Scenario};
use avatar_bench::{mean, obj, print_table, HarnessArgs};
use avatar_core::policy::AVATAR;
use avatar_workloads::Workload;

fn main() {
    let opts = HarnessArgs::parse();
    let ro = opts.run_options();
    let workloads = Workload::all();

    let scenarios: Vec<Scenario> = workloads
        .iter()
        .map(|w| Scenario::new(w.abbr, w, AVATAR, ro.clone()))
        .collect();
    let results = run_scenarios(opts.threads, scenarios);

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut accuracies = Vec::new();
    let mut coverages = Vec::new();

    for (w, r) in workloads.iter().zip(&results) {
        let s = r.expect_stats();
        let (accuracy, coverage) = (s.spec_accuracy(), s.spec_coverage());
        accuracies.push(accuracy);
        coverages.push(coverage);
        rows.push(vec![
            w.abbr.to_string(),
            format!("{:.1}%", accuracy * 100.0),
            format!("{:.1}%", coverage * 100.0),
            s.speculations.to_string(),
        ]);
        json_rows.push(obj! {
            "workload": w.abbr,
            "accuracy": accuracy,
            "coverage": coverage,
            "speculations": s.speculations,
        });
    }

    rows.push(vec![
        "AVG".into(),
        format!("{:.1}%", mean(&accuracies) * 100.0),
        format!("{:.1}%", mean(&coverages) * 100.0),
        "-".into(),
    ]);

    println!("\nFig 18: MOD speculation accuracy and coverage (Avatar)");
    print_table(&["Workload", "Accuracy", "Coverage", "Attempts"], &rows);
    println!("\npaper averages: accuracy 90.3%, coverage 73.4%");
    opts.dump_json(&json_rows);
}
