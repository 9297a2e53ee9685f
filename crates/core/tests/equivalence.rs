//! One equivalence matrix for every host-side variation of a run.
//!
//! The simulator has one engine mode. What a caller can still vary on
//! the host side — how the engine is stepped, and whether a probe sink
//! observes it — must not change any simulated statistic. Each row of
//! [`VARIANTS`] is one such variation. Every row is run for every
//! registry policy on MD at two seeds and
//! must equal a plain `run_policy` run of the same cell, both in
//! `Stats::digest()` and in the full `Debug` rendering, with nothing
//! normalized out. The sweep also asserts that the inline hit fast path
//! fired, so the identity is never vacuous.
//!
//! Adding a host-side variation is one row. Build features (probes
//! compiled out, checked-mode invariants) cannot be toggled at run time;
//! CI byte-diffs the fig15 grid across those builds instead.

use avatar_core::policy::PolicySelection;
use avatar_core::system::{assemble_policy, run_policy, RunOptions};
use avatar_sim::Stats;
use avatar_workloads::Workload;

/// One host-side variation of a run.
struct Variant {
    name: &'static str,
    /// Attach a probe sink (the Chrome-trace exporter, via
    /// `RunOptions::trace_out`).
    sink: bool,
    /// Step the engine through `run_steps` in chunks of this many events
    /// instead of calling `Engine::run`. One event opens a window per
    /// call; 997 splits windows unevenly.
    chunk: Option<u64>,
}

const VARIANTS: &[Variant] = &[
    Variant { name: "run_steps(1)", sink: false, chunk: Some(1) },
    Variant { name: "run_steps(997)", sink: false, chunk: Some(997) },
    Variant { name: "probe sink", sink: true, chunk: None },
    Variant { name: "probe sink + run_steps(997)", sink: true, chunk: Some(997) },
];

fn opts(seed: u64) -> RunOptions {
    RunOptions { scale: 0.03, sms: Some(4), warps: Some(8), seed, ..RunOptions::default() }
}

/// Runs one cell under `variant`, removing any trace file it wrote.
fn run_variant(w: &Workload, policy: PolicySelection, seed: u64, variant: &Variant) -> Stats {
    let mut o = opts(seed);
    if variant.sink {
        let base = format!("avatar_equivalence_{}.json", std::process::id());
        o.trace_out = Some(std::env::temp_dir().join(base));
        o.trace_tag = Some(format!("{} {seed} {}", policy.label(), variant.name));
    }
    let stats = match variant.chunk {
        None => run_policy(w, policy, &o),
        Some(chunk) => {
            let mut engine = assemble_policy(w, policy, &o, |_| {});
            engine.start();
            while engine.run_steps(chunk) {}
            engine.finish()
        }
    };
    if let Some(path) = o.trace_path() {
        // Probes builds must really have observed the run.
        let written = std::fs::remove_file(&path).is_ok();
        assert_eq!(written, cfg!(feature = "probes"), "{}: trace file {path:?}", variant.name);
    }
    stats
}

#[test]
fn every_host_side_variant_reproduces_the_reference_run() {
    let w = Workload::by_abbr("MD").expect("workload table contains MD");
    let mut fast_sectors = 0u64;
    for seed in [0u64, 1] {
        for policy in PolicySelection::all_base() {
            let reference = run_policy(&w, policy, &opts(seed));
            fast_sectors += reference.fast_path_sectors;
            for variant in VARIANTS {
                let got = run_variant(&w, policy, seed, variant);
                let cell = format!("{} seed {seed}, {}", policy.label(), variant.name);
                assert_eq!(got.digest(), reference.digest(), "{cell}: digest diverged");
                assert_eq!(
                    format!("{got:?}"),
                    format!("{reference:?}"),
                    "{cell}: a statistic diverged"
                );
            }
        }
    }
    assert!(fast_sectors > 0, "no policy or seed ever took the fast path");
}
