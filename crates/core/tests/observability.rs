//! The observability layer's own contracts (DESIGN.md §10). That an
//! attached probe sink changes no simulated statistic is one row of the
//! equivalence matrix (`tests/equivalence.rs`); this suite checks what
//! the probes report:
//!
//! 1. **Conservation** (`probes` builds): the per-phase latency breakdown
//!    attributes every cycle of every sector request to exactly one
//!    phase, so the phase sums equal the end-to-end sector latency sum
//!    exactly — no cycle lost, none double-counted.
//! 2. **Trace schema** (`probes` builds): the exported JSON is a loadable
//!    Chrome/Perfetto document with the expected event kinds.
#![cfg(feature = "probes")]

use avatar_core::policy::PolicySelection;
use avatar_core::system::{run_policy, RunOptions};
use avatar_workloads::Workload;

fn opts(seed: u64) -> RunOptions {
    RunOptions { scale: 0.03, sms: Some(4), warps: Some(8), seed, ..RunOptions::default() }
}

fn temp_trace(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("avatar_obs_{}_{tag}.json", std::process::id()))
}

#[test]
fn latency_breakdown_conserves_every_cycle() {
    use avatar_sim::probe::Phase;
    let w = Workload::by_abbr("MD").expect("workload table contains MD");
    let mut total_sectors = 0u64;
    for policy in PolicySelection::all_base() {
        let stats = run_policy(&w, policy, &opts(0));
        let b = &stats.latency_breakdown;
        assert_eq!(
            b.total_cycles(),
            stats.sector_latency.sum(),
            "{}: phase sums must equal the end-to-end sector latency sum \
             (breakdown {:?})",
            policy.label(),
            b
        );
        assert_eq!(
            b.sectors,
            stats.sector_requests,
            "{}: every sector request is attributed exactly once",
            policy.label()
        );
        // Phase sanity: a non-ideal config that misses TLBs spends time
        // translating; everything spends time fetching.
        if stats.sector_requests > 0 {
            assert!(b.of(Phase::Fetch) > 0, "{}: no fetch cycles attributed", policy.label());
        }
        total_sectors += b.sectors;
    }
    assert!(total_sectors > 0, "sweep never issued a sector request");
}

#[test]
fn exported_trace_is_loadable_chrome_json() {
    // MD takes the inline hit fast path at this geometry; GEMM does not.
    let w = Workload::by_abbr("MD").expect("workload table contains MD");
    let path = temp_trace("schema");
    let o = RunOptions { trace_out: Some(path.clone()), ..opts(0) };
    let stats = run_policy(&w, avatar_core::policy::AVATAR, &o);
    assert!(stats.cycles > 0);
    let doc = std::fs::read_to_string(&path).expect("trace file written at end of run");
    let _ = std::fs::remove_file(&path);

    // Document shell.
    assert!(doc.starts_with("{\"displayTimeUnit\""), "unexpected head: {}", &doc[..40.min(doc.len())]);
    assert!(doc.contains("\"traceEvents\":["));
    assert!(doc.trim_end().ends_with("]}"));
    assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "unbalanced braces");
    assert_eq!(doc.matches('[').count(), doc.matches(']').count(), "unbalanced brackets");

    // Event vocabulary: request phases as complete spans, process names,
    // component spans, instants, and the run_end marker.
    for needle in [
        "\"ph\":\"M\"",
        "\"ph\":\"X\"",
        "\"process_name\"",
        "\"SM 0\"",
        "\"Page walkers\"",
        "\"cat\":\"phase\"",
        "\"cat\":\"component\"",
        "\"run_end\"",
    ] {
        assert!(doc.contains(needle), "trace lacks {needle}");
    }

    // Every event row carries a numeric ts.
    let events: usize = doc.matches("\"ts\":").count();
    assert!(events > 10, "suspiciously few timestamped events: {events}");

    // Every span is written whole: the fast-path windows are complete
    // events, and no begin/end pair appears anywhere.
    let fast_path: Vec<&str> =
        doc.lines().filter(|l| l.contains("\"name\":\"fast_path\"")).collect();
    assert!(!fast_path.is_empty(), "traced cell took no fast path");
    for line in &fast_path {
        assert!(line.contains("\"ph\":\"X\""), "fast_path is not a complete span: {line}");
    }
    for ph in ["\"ph\":\"B\"", "\"ph\":\"E\""] {
        assert!(!doc.contains(ph), "trace has a begin/end event ({ph})");
    }
}

#[test]
fn trace_tag_lands_in_the_filename() {
    let base = std::env::temp_dir().join(format!("avatar_obs_tag_{}.json", std::process::id()));
    let o = RunOptions {
        trace_out: Some(base.clone()),
        trace_tag: Some("Avatar MD/1".to_string()),
        ..opts(0)
    };
    let tagged = o.trace_path().expect("trace requested");
    assert_ne!(tagged, base);
    let name = tagged.file_name().expect("file name").to_string_lossy().into_owned();
    assert!(name.contains("avatar_md_1"), "tag not sanitized into filename: {name}");
    assert!(name.ends_with(".json"), "extension lost: {name}");
}
