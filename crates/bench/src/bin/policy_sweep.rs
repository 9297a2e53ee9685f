//! Cross-policy comparison sweep: every registry translation policy of
//! interest, side by side, over the Fig-15 workload grid.
//!
//! Where `fig15_performance` reproduces the paper's fixed column set,
//! this harness compares *policies as peers*: the paper baselines
//! (CoLT, SnakeByte), the full Avatar stack and the post-paper
//! Revelator rival (hash-seeded speculation with rapid
//! validation-on-use). Speedups are normalized to the shared Baseline
//! system; the Baseline column itself is 1.000
//! by construction (its cell memoizes the reference run, so it costs
//! nothing extra).
//!
//! `--policy NAME` / `--policies LIST` replace the default set with any
//! registry selections; `--json` dumps machine-readable rows.

use avatar_bench::json::Json;
use avatar_bench::runner::{fmt_cell, run_scenarios, speedup_cell, Scenario};
use avatar_bench::{column_geomean, obj, print_table, HarnessArgs};
use avatar_core::policy::{PolicySelection, BASELINE};
use avatar_workloads::Workload;

/// The default comparison set: paper baselines, Avatar, and the
/// post-paper Revelator. Parsed from registry names so the sweep
/// exercises exactly the path `--policies` users take.
const DEFAULT_SET: &str = "baseline,colt,snakebyte,avatar,revelator";

fn main() {
    let opts = HarnessArgs::parse();
    let ro = opts.run_options();
    let selections: Vec<PolicySelection> = match opts.policies() {
        Some(sels) => sels.to_vec(),
        None => PolicySelection::parse_list(DEFAULT_SET).expect("default set is valid"),
    };
    let labels: Vec<String> = selections.iter().map(|s| s.label()).collect();
    let workloads = Workload::all();

    let mut scenarios = Vec::new();
    for w in &workloads {
        // The reference cell comes first in each stride; a Baseline
        // column in the comparison set memoizes it (same content
        // address), so listing it costs nothing.
        scenarios.push(Scenario::new("Baseline", w, BASELINE, ro.clone()));
        for (sel, label) in selections.iter().zip(&labels) {
            scenarios.push(Scenario::new(label.clone(), w, *sel, ro.clone()));
        }
    }
    let results = run_scenarios(opts.threads, scenarios);
    let stride = selections.len() + 1;

    let mut rows = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();
    let mut per_policy: Vec<Vec<Option<f64>>> = vec![Vec::new(); selections.len()];

    for (wi, w) in workloads.iter().enumerate() {
        let base = &results[wi * stride];
        let mut cells = vec![w.abbr.to_string(), format!("{:?}", w.class)];
        let mut speedups = Vec::new();
        for (i, sel) in selections.iter().enumerate() {
            let cell = &results[wi * stride + 1 + i];
            let x = speedup_cell(base, cell);
            per_policy[i].push(x);
            cells.push(fmt_cell(x, 3));
            // Per-policy mechanism counters ride along so a sweep dump
            // shows *why* a column moved, not just that it did.
            let (installs, evictions, hits) = match &cell.stats {
                Ok(s) => (s.policy_installs, s.policy_evictions, s.policy_hits),
                Err(_) => (0, 0, 0),
            };
            speedups.push(obj! {
                "policy": sel.name(),
                "speedup": x,
                "policy_installs": installs,
                "policy_evictions": evictions,
                "policy_hits": hits,
            });
        }
        json_rows.push(obj! {
            "workload": w.abbr,
            "class": format!("{:?}", w.class),
            "speedups": Json::Arr(speedups),
        });
        rows.push(cells);
    }

    let mut gmean_cells = vec!["GMEAN".to_string(), "-".to_string()];
    let mut gmean_speedups = Vec::new();
    for (sel, xs) in selections.iter().zip(&per_policy) {
        let gmean = column_geomean(xs);
        gmean_cells.push(fmt_cell(gmean, 3));
        gmean_speedups.push(obj! { "policy": sel.name(), "speedup": gmean });
    }
    rows.push(gmean_cells);
    json_rows.push(obj! {
        "workload": "GMEAN",
        "class": "-",
        "speedups": Json::Arr(gmean_speedups),
    });

    let mut headers = vec!["Workload", "Class"];
    headers.extend(labels.iter().map(String::as_str));
    println!(
        "\nPolicy sweep: speedup over baseline (scale {}, {} SMs x {} warps)",
        opts.scale, opts.sms, opts.warps
    );
    print_table(&headers, &rows);
    println!(
        "\npolicies: {}",
        selections.iter().map(|s| s.name()).collect::<Vec<_>>().join(", ")
    );
    opts.dump_json(&json_rows);
}
