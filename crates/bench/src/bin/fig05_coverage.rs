//! Fig 5: coverage breakdown of accessed TLB entries, with and without
//! memory oversubscription.
//!
//! The paper shows that hits in large-coverage entries (promotion/CoLT
//! reach) shrink dramatically under oversubscription because evictions
//! shoot down the merged entries. We run the CoLT + Promotion
//! configuration over the class-H workloads and report the hit fractions
//! per coverage bucket.

use avatar_bench::json::Json;
use avatar_bench::runner::{run_scenarios, Scenario, ScenarioResult};
use avatar_bench::{obj, print_table, HarnessArgs};
use avatar_core::policy::COLT;
use avatar_core::system::RunOptions;
use avatar_sim::stats::CoverageBucket;
use avatar_workloads::{Class, Workload};

fn coverage_fractions(results: &[ScenarioResult]) -> [f64; 5] {
    let mut hits = [0u64; 5];
    for r in results {
        let s = r.expect_stats();
        for (i, h) in s.coverage_hits.iter().enumerate() {
            hits[i] += h;
        }
    }
    let total: u64 = hits.iter().sum();
    let mut out = [0.0; 5];
    if total > 0 {
        for (i, h) in hits.iter().enumerate() {
            out[i] = *h as f64 / total as f64;
        }
    }
    out
}

fn main() {
    let opts = HarnessArgs::parse();
    let class_h: Vec<Workload> = Workload::all().into_iter().filter(|w| w.class == Class::H).collect();
    let scenarios_of = |ro: &RunOptions| -> Vec<Scenario> {
        class_h.iter().map(|w| Scenario::new(w.abbr, w, COLT, ro.clone())).collect()
    };

    // Three oversubscription regimes × class-H workloads, one flat grid.
    // Our reduced traces re-touch evicted chunks far less than the paper's
    // full benchmark runs, so 130% produces mild churn; a harsher factor
    // shows the same direction amplified.
    let regimes = [
        ("no oversubscription", "normal", opts.run_options()),
        ("130% oversubscription", "oversub130", RunOptions { oversubscription: Some(1.3), ..opts.run_options() }),
        ("300% oversubscription", "oversub300", RunOptions { oversubscription: Some(3.0), ..opts.run_options() }),
    ];
    let mut scenarios = Vec::new();
    for (_, _, ro) in &regimes {
        scenarios.extend(scenarios_of(ro));
    }
    let results = run_scenarios(opts.threads, scenarios);

    let mut rows = Vec::new();
    let mut json: Vec<Json> = Vec::new();
    for (ri, (label, key, _)) in regimes.iter().enumerate() {
        let slice = &results[ri * class_h.len()..(ri + 1) * class_h.len()];
        let data = coverage_fractions(slice);
        let mut cells = vec![label.to_string()];
        cells.extend(data.iter().map(|f| format!("{:.1}%", f * 100.0)));
        rows.push(cells);
        let buckets: Vec<Json> = CoverageBucket::ALL
            .iter()
            .zip(data.iter())
            .map(|(b, f)| obj! { "bucket": b.label(), "fraction": *f })
            .collect();
        json.push(obj! { "scenario": *key, "buckets": Json::Arr(buckets) });
    }

    let mut headers = vec!["Scenario"];
    headers.extend(CoverageBucket::ALL.iter().map(|b| b.label()));
    println!("\nFig 5: TLB-hit coverage breakdown (CoLT + Promotion, class H)");
    print_table(&headers, &rows);
    println!("\npaper: the large-coverage hit fraction shrinks sharply under oversubscription");
    opts.dump_json(&json);
}
