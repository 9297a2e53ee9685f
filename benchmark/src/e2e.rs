//! The untraced run: end-to-end metrics.
//!
//! One cold pass (what a user pays on a fresh sweep; it also warms the
//! process), then measured passes until the time budget is spent, each
//! followed by set-up rounds. Every timing is the median over its
//! repetitions; pass times are taken at nominal host speed (see
//! [`crate::calib`]).

use crate::calib::{Calibrator, Measured};
use crate::measure::{run_pass, setup, simulate, simulate_between, Ledger, Pass};
use crate::report::{self, Metric, Outcome};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{BenchWorkload, Cell};
use avatar_bench::obj;
use avatar_sim::invariant::Fnv64;
use std::path::Path;

/// Fewest measured passes, whatever the time budget.
const MIN_PASSES: usize = 3;
/// Most measured passes, whatever the time budget.
const MAX_PASSES: usize = 200;
/// Set-up-only rounds over every cell after each measured pass, for
/// `setup_s`: spread over the run, they meet the host in the states the
/// passes meet it in, not only in the one it is in at the end.
const SETUP_ROUNDS_PER_PASS: usize = 8;
/// Events per `run_steps` call in a measured pass: few enough that the
/// host-speed reference job runs about every [`crate::calib::INTERVAL_S`].
const TICK_EVENTS: u64 = 20_000;

/// Runs the untraced measurement and writes `<workload>.untraced.json`.
pub fn measure(
    w: &BenchWorkload,
    cells: &[Cell],
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let mut ledger = Ledger::new(cells.len());
    let mut calib = Calibrator::new();
    let cold = run_pass(cells, &mut tr, simulate);
    ledger.check(cells, &cold);
    let mut passes: Vec<Pass> = Vec::new();
    // Per measured pass: its wall time without the reference jobs, and the
    // same at nominal host speed.
    let mut timed: Vec<Measured> = Vec::new();
    // Set-up is timed as measured: it mostly allocates and zeroes the
    // engine's tables, which a slow host slows far less than it slows the
    // reference job, so dividing by the job's slowdown would over-correct.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut spent = 0.0;
    // Another pass only if it is expected to end within the budget.
    while passes.len() < MIN_PASSES
        || (spent + spent / passes.len() as f64 <= seconds && passes.len() < MAX_PASSES)
    {
        calib.start();
        let p = run_pass(cells, &mut tr, |c, i, tr| {
            calib.tick();
            simulate_between(c, i, tr, TICK_EVENTS, || calib.tick())
        });
        timed.push(calib.stop());
        ledger.check(cells, &p);
        spent += p.wall_s;
        passes.push(p);
        setup_s.extend((0..SETUP_ROUNDS_PER_PASS).map(|_| setup_round(cells, &mut tr)));
    }
    let wall: Vec<f64> = timed.iter().map(|m| m.wall_s).collect();
    let nominal: Vec<f64> = timed.iter().map(|m| m.nominal_s).collect();
    let slowdown: Vec<f64> = timed.iter().map(Measured::slowdown).collect();

    let kinst: Vec<f64> = passes
        .iter()
        .zip(&nominal)
        .map(|(p, nominal_s)| p.instructions() as f64 / nominal_s / 1e3)
        .collect();
    let mut o = Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures.clone(),
        ..Outcome::default()
    };
    let speedup = avatar_speedup(cells, &cold);
    if speedup <= 0.0 {
        o.failures
            .push("sim_avatar_speedup undefined: a baseline or avatar cell failed".into());
    }
    o.metrics = vec![
        Metric::median_of("nominal_wall_s", "s", &nominal),
        Metric::median_of("nominal_kinst_per_s", "kinst/s", &kinst),
        Metric::median_of("setup_s", "s", &setup_s),
        Metric::one("sim_avatar_speedup", "x", speedup),
    ];
    let digest = sim_digest(&ledger.digests);
    o.notes.push(format!(
        "cold pass {:.3} s (setup {:.4} s), {} measured passes of median wall {:.3} s at host \
         slowdown {:.3}, sim_digest {digest:016x}, fail_frac {:.4}",
        cold.wall_s,
        cold.setup_s(),
        passes.len(),
        stats::median(&wall),
        stats::median(&slowdown),
        ledger.fail_frac()
    ));

    let doc = obj! {
        "workload": w.name,
        "seed": seed,
        "correct": o.correct(),
        "host": report::host_json(),
        "passes": passes.len(),
        "cold_wall_s": cold.wall_s,
        "cold_setup_s": cold.setup_s(),
        "pass_wall_s": wall,
        "pass_slowdown": slowdown,
        "pass_nominal_s": nominal,
        "setup_round_s": setup_s,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_frac": ledger.fail_frac(),
        "failures": ledger.failures.clone(),
        "sim_digest": format!("{digest:016x}"),
        "cells": report::cells_json(cells, &cold, &ledger.digests),
        "metrics": o.metrics_json(),
    };
    report::write(&out.join(format!("{}.untraced.json", w.name)), &doc)?;
    Ok(o)
}

/// Σ over cells of one set-up-only round's wall time.
fn setup_round(cells: &[Cell], tr: &mut Tracer) -> f64 {
    cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let (engine, config_s, assemble_s) = setup(c, i, tr);
            drop(engine);
            config_s + assemble_s
        })
        .sum()
}

/// Geometric mean over the workload's Table III workloads of Baseline
/// cycles / Avatar cycles, from one pass; 0 if a pair is incomplete.
fn avatar_speedup(cells: &[Cell], pass: &Pass) -> f64 {
    let cycles = |abbr: &str, policy: &str| {
        cells.iter().zip(&pass.cells).find_map(|(c, r)| match r {
            Ok(r) if c.workload.abbr == abbr && c.policy.name() == policy => Some(r.stats.cycles),
            _ => None,
        })
    };
    let mut abbrs: Vec<&str> = cells.iter().map(|c| c.workload.abbr).collect();
    abbrs.dedup();
    let ratios: Vec<f64> = abbrs
        .iter()
        .map(|a| match (cycles(a, "baseline"), cycles(a, "avatar")) {
            (Some(b), Some(v)) if v > 0 => b as f64 / v as f64,
            _ => 0.0,
        })
        .collect();
    stats::geomean(&ratios)
}

/// One fingerprint over every cell's digest, in cell order.
pub fn sim_digest(digests: &[Option<u64>]) -> u64 {
    let mut h = Fnv64::new();
    for d in digests {
        h.write_u64(d.unwrap_or(u64::MAX));
    }
    h.finish()
}
