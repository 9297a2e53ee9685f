//! The runner's central guarantee: a figure grid produces byte-identical
//! machine-readable rows no matter how many worker threads execute it.
//! Each simulation is deterministic and results come back keyed by cell
//! index, so `--threads 1` and `--threads N` must agree exactly.

use avatar_bench::json::Json;
use avatar_bench::obj;
use avatar_bench::runner::{run_scenarios, Scenario};
use avatar_core::policy::{AVATAR, BASELINE};
use avatar_core::system::RunOptions;
use avatar_workloads::Workload;

fn small_grid() -> Vec<Scenario> {
    let ro = RunOptions { scale: 0.02, sms: Some(2), warps: Some(4), ..RunOptions::default() };
    let mut scenarios = Vec::new();
    for abbr in ["GEMM", "SSSP"] {
        let w = Workload::by_abbr(abbr).expect("known workload");
        for def in [BASELINE, AVATAR] {
            scenarios.push(Scenario::new(format!("{abbr}/{}", def.label), &w, def, ro.clone()));
        }
    }
    scenarios
}

/// Renders the grid's results the way the figure binaries do: rows of
/// simulation-derived fields only (never wall time).
fn rows_json(threads: usize) -> String {
    let rows: Vec<Json> = run_scenarios(threads, small_grid())
        .iter()
        .map(|r| {
            let s = r.expect_stats();
            obj! {
                "label": r.label.clone(),
                "cycles": s.cycles,
                "events": s.events_processed,
                "page_walks": s.page_walks,
                "sector_latency": s.sector_latency.value(),
            }
        })
        .collect();
    Json::Arr(rows).pretty()
}

#[test]
fn one_and_many_threads_dump_identical_json() {
    let serial = rows_json(1);
    let parallel = rows_json(4);
    assert_eq!(serial, parallel, "thread count changed the dumped rows");
    // And the grid actually simulated something.
    assert!(serial.contains("\"cycles\""));
}

#[test]
fn repeated_parallel_runs_are_stable() {
    assert_eq!(rows_json(4), rows_json(4));
}

/// Per-cell FNV digests over *every* Stats field (not just the handful a
/// figure dumps) must agree between a serial and a parallel pass. This is
/// strictly stronger than the JSON comparison above: a counter no figure
/// renders still flips the digest.
#[test]
fn full_stats_digests_match_across_thread_counts() {
    let digests = |threads: usize| -> Vec<u64> {
        run_scenarios(threads, small_grid())
            .iter()
            .map(|r| r.expect_stats().digest())
            .collect()
    };
    let serial = digests(1);
    for &threads in &[2usize, 8] {
        assert_eq!(serial, digests(threads), "digest diverged at {threads} threads");
    }
    // Distinct cells really produce distinct state (guards against a
    // degenerate digest that hashes nothing).
    assert!(serial.windows(2).any(|w| w[0] != w[1]));
}
