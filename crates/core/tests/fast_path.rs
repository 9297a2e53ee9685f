//! The inline hit fast path must be invisible to simulated behaviour.
//!
//! `GpuConfig::inline_hit_path` resolves warp memory instructions whose
//! every sector hits the L1 TLB and L1 data cache (with ports free)
//! synchronously at issue, instead of routing them through the event
//! calendar. It is a host-side speed knob: every simulated statistic —
//! cycles, hit counts, latencies, DRAM traffic, even the fast-path
//! counters themselves — must be identical with it on or off. The two
//! permitted differences are `events_processed` (the evented twin retires
//! one `FastComplete` event per sector) and `idle_cycles_skipped` (a
//! different calendar occupancy changes how much fast-forward can skip).
//!
//! This is the CI-enforced differential gate from DESIGN.md §9: the sweep
//! covers every registry policy (plus the `+dead` modifier) at two seeds, so a
//! divergence introduced anywhere in the fast path's classify/commit
//! logic is caught by `cargo test` alone. The same sweep pins chunked
//! execution (`Engine::run_steps` in small slices, as long-running
//! drivers step the engine) to the straight-through `run()` digest.

use avatar_core::policy::{PolicySelection, AVATAR, BASELINE};
use avatar_core::system::{assemble_policy, run_policy_with, RunOptions};
use avatar_sim::Stats;
use avatar_workloads::Workload;

/// Every registry policy, plus the dead-entry modifier on Avatar.
fn all_policies() -> Vec<PolicySelection> {
    PolicySelection::all_base()
        .chain([PolicySelection::parse("avatar+dead").expect("registry name")])
        .collect()
}

fn opts(seed: u64) -> RunOptions {
    RunOptions { scale: 0.03, sms: Some(4), warps: Some(8), seed, ..RunOptions::default() }
}

/// Chunk sizes for the `run_steps` variant: one event (a window per
/// call) and an odd size that splits windows unevenly.
const CHUNKS: [u64; 2] = [1, 997];

/// Zeroes the two counters the knob is allowed to change, returning the
/// digest of everything else.
fn normalized_digest(stats: &Stats) -> u64 {
    let mut s = stats.clone();
    s.events_processed = 0;
    s.idle_cycles_skipped = 0;
    s.digest()
}

#[test]
fn fast_path_digest_identical_across_figure_configs() {
    let w = Workload::by_abbr("MD").expect("workload table contains MD");
    let mut total_fast_sectors = 0u64;
    for seed in [0u64, 1] {
        for policy in all_policies() {
            let on = run_policy_with(&w, policy, &opts(seed), |c| c.inline_hit_path = true);
            let off = run_policy_with(&w, policy, &opts(seed), |c| c.inline_hit_path = false);

            // The fast-path counters classify at issue time in both modes,
            // so even they must agree; only the event count and calendar
            // idle-skip may differ.
            assert_eq!(
                normalized_digest(&on),
                normalized_digest(&off),
                "{} seed {seed}: inline hit path leaked into simulated stats",
                policy.label()
            );
            assert_eq!(
                (on.fast_path_hits, on.fast_path_sectors),
                (off.fast_path_hits, off.fast_path_sectors),
                "{} seed {seed}: fast-path classification depends on the knob",
                policy.label()
            );
            for chunk in CHUNKS {
                let mut engine =
                    assemble_policy(&w, policy, &opts(seed), |c| c.inline_hit_path = true);
                engine.start();
                while engine.run_steps(chunk) {}
                assert_eq!(
                    engine.finish().digest(),
                    on.digest(),
                    "{} seed {seed}: run_steps({chunk}) diverged from run()",
                    policy.label()
                );
            }
            total_fast_sectors += on.fast_path_sectors;
        }
    }
    // The sweep must actually exercise the fast path somewhere, or the
    // identity above is vacuous.
    assert!(total_fast_sectors > 0, "no config/seed ever took the fast path");
}

#[test]
fn fast_path_full_debug_rendering_matches() {
    // Digest equality could in principle miss a field the digest does not
    // fold (histogram buckets, per-bin coverage). Spot-check one cheap and
    // one speculation-heavy config field-for-field via Debug rendering,
    // the same trick fast_forward.rs uses.
    let w = Workload::by_abbr("MD").expect("workload table contains MD");
    for def in [BASELINE, AVATAR] {
        let mut on = run_policy_with(&w, def, &opts(0), |c| c.inline_hit_path = true);
        let mut off = run_policy_with(&w, def, &opts(0), |c| c.inline_hit_path = false);
        for s in [&mut on, &mut off] {
            s.events_processed = 0;
            s.idle_cycles_skipped = 0;
            // Barrier bookkeeping derived from calendar occupancy: a
            // host-side structure counter, changed by the same mechanism
            // (fewer calendar events) the two fields above allow for.
            s.horizon_barriers = 0;
        }
        assert_eq!(
            format!("{on:?}"),
            format!("{off:?}"),
            "{}: inline hit path leaked into a non-digested field",
            def.label
        );
    }
}
