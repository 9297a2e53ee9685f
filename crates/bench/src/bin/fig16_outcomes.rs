//! Fig 16: fraction of memory-access results that received (accurate)
//! speculation in Avatar.
//!
//! Paper averages: L1D_hit + L1D_merge ≈ 59.0%, Fast_Translation ≈ 38.6%,
//! L1D_miss ≈ 2.3%.

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
    let mut fracs: Vec<[f64; 4]> = Vec::new();

    for (w, r) in workloads.iter().zip(&results) {
        let s = r.expect_stats();
        let o = &s.outcomes;
        let f = [
            o.fraction(o.fast_translation),
            o.fraction(o.l1d_hit),
            o.fraction(o.l1d_merge),
            o.fraction(o.l1d_miss),
        ];
        fracs.push(f);
        rows.push(vec![
            w.abbr.to_string(),
            format!("{:.1}%", f[0] * 100.0),
            format!("{:.1}%", f[1] * 100.0),
            format!("{:.1}%", f[2] * 100.0),
            format!("{:.1}%", f[3] * 100.0),
        ]);
        json_rows.push(obj! {
            "workload": w.abbr,
            "fast_translation": f[0],
            "l1d_hit": f[1],
            "l1d_merge": f[2],
            "l1d_miss": f[3],
        });
    }

    let avg = |i: usize| mean(&fracs.iter().map(|f| f[i]).collect::<Vec<_>>());
    rows.push(vec![
        "AVG".into(),
        format!("{:.1}%", avg(0) * 100.0),
        format!("{:.1}%", avg(1) * 100.0),
        format!("{:.1}%", avg(2) * 100.0),
        format!("{:.1}%", avg(3) * 100.0),
    ]);

    println!("\nFig 16: speculation outcome fractions (Avatar)");
    print_table(&["Workload", "Fast_Translation", "L1D_hit", "L1D_merge", "L1D_miss"], &rows);
    println!(
        "\npaper averages: Fast_Translation 38.6%, L1D_hit+L1D_merge 59.0%, L1D_miss 2.3%"
    );
    opts.dump_json(&json_rows);
}
