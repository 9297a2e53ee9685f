//! End-to-end gates for the incremental sweep engine: the runner's
//! cache planner, in-sweep memoization, warm-sweep replay, and the
//! hard-error path for a tampered entry.
//!
//! The process-global cache handle is set-once, so everything runs in a
//! single `#[test]` with explicit phases instead of separate tests that
//! would race to configure it.

use avatar_bench::cache::{self, ResultCache};
use avatar_bench::runner::{run_scenarios, Scenario};
use avatar_core::policy::{AVATAR, BASELINE};
use avatar_core::system::RunOptions;
use avatar_workloads::Workload;
use std::sync::Arc;

fn opts(seed: u64) -> RunOptions {
    RunOptions { scale: 0.02, sms: Some(2), warps: Some(4), seed, ..RunOptions::default() }
}

fn grid(seed: u64) -> Vec<Scenario> {
    let w = Arc::new(Workload::by_abbr("GEMM").expect("workload table contains GEMM"));
    vec![
        Scenario::shared("base", Arc::clone(&w), BASELINE, opts(seed)),
        Scenario::shared("avatar", Arc::clone(&w), AVATAR, opts(seed)),
        // Identical to the first cell (different label, same content):
        // must memoize, not re-run.
        Scenario::shared("base again", Arc::clone(&w), BASELINE, opts(seed)),
    ]
}

#[test]
fn cached_sweeps_replay_verified_results() {
    let dir = std::env::temp_dir().join(format!("avatar-sweep-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        cache::configure(Some(ResultCache::new(&dir))),
        "this test must own the process-global cache; run it in its own binary"
    );

    // Phase 1 — cold sweep: every unique cell is a miss and runs; the
    // duplicate cell memoizes in-process.
    let cold = run_scenarios(2, grid(7));
    let t1 = cache::tally();
    assert_eq!(t1.hits, 0, "cold sweep cannot hit");
    assert_eq!(t1.misses, 2, "two unique cells miss");
    assert_eq!(t1.memoized, 1, "duplicate cell memoizes");
    let digest = |r: &avatar_bench::runner::ScenarioResult| {
        r.stats.as_ref().expect("cell ran clean").digest()
    };
    assert_eq!(digest(&cold[0]), digest(&cold[2]), "memoized cell clones its original");
    assert_ne!(digest(&cold[0]), digest(&cold[1]));

    // Phase 2 — warm sweep: both unique cells replay from disk with
    // digest re-verification; results are identical to the cold pass.
    let warm = run_scenarios(2, grid(7));
    let t2 = cache::tally();
    assert_eq!(t2.hits, 2, "warm sweep replays both unique cells");
    assert_eq!(t2.misses, t1.misses, "warm sweep runs nothing");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(digest(c), digest(w), "replayed cell '{}' diverged", w.label);
        assert_eq!(w.wall, std::time::Duration::ZERO, "replay reports zero wall");
    }
    assert!(t2.skipped_wall_s > 0.0, "replays credit the skipped wall time");

    // Phase 3 — a different seed is a different content-address: misses.
    let _ = run_scenarios(2, grid(8));
    let t3 = cache::tally();
    assert_eq!(t3.misses, t2.misses + 2, "new seed means new cells");

    // Phase 4 — tampering with a stored entry is a hard sweep error,
    // never a silent re-run or replay.
    let victim = grid(7)[0].cache_key().expect("untraced cell has a key");
    let path = ResultCache::new(&dir).entry_path(victim);
    let text = std::fs::read_to_string(&path).expect("entry exists after the cold sweep");
    let tampered = text.replacen("\"stats_hex\": \"", "\"stats_hex\": \"00", 1);
    assert_ne!(text, tampered);
    std::fs::write(&path, tampered).expect("tamper write");
    let outcome = std::panic::catch_unwind(|| run_scenarios(1, grid(7)));
    assert!(outcome.is_err(), "a sweep over a corrupt cache entry must abort");

    // Phase 5 — cells writing traces bypass the cache entirely.
    let mut traced = grid(7);
    for s in &mut traced {
        s.opts.trace_out = Some(std::path::PathBuf::from("/dev/null"));
    }
    assert!(traced[0].cache_key().is_none(), "traced cells have no content-address");

    let _ = std::fs::remove_dir_all(&dir);
}
