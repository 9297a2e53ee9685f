//! The registry's post-paper policies are live, not stubs.
//!
//! Revelator actually speculates and rapid-validates on a real workload
//! (not a stub that compiles and idles), and the dead-entry modifier runs
//! to completion on top of Avatar and changes what it simulates.

use avatar_core::policy::PolicySelection;
use avatar_core::system::{run_policy, RunOptions};
use avatar_workloads::Workload;

fn opts(seed: u64) -> RunOptions {
    RunOptions { scale: 0.03, sms: Some(4), warps: Some(8), seed, ..RunOptions::default() }
}

#[test]
fn revelator_speculates_and_rapid_validates() {
    let w = Workload::by_abbr("MD").expect("workload table contains MD");
    let sel = PolicySelection::parse("revelator").expect("registry name");
    let stats = run_policy(&w, sel, &opts(7));
    assert!(stats.speculations > 0, "Revelator never fired a speculation");
    assert!(
        stats.rapid_validations > 0,
        "correct Revelator speculations must resolve through rapid validation"
    );
    assert!(stats.policy_installs > 0, "seed-table installs must be counted");
    // The seed table seeds from resolved translations, so hits lag
    // installs but must appear on a reuse-heavy workload.
    assert!(stats.policy_hits > 0, "seed-table lookups never hit");
}

#[test]
fn dead_entry_modifier_runs_and_diverges_from_base_policy() {
    let w = Workload::by_abbr("SSSP").expect("workload table contains SSSP");
    let plain = run_policy(&w, PolicySelection::parse("avatar").expect("name"), &opts(7));
    let dead =
        run_policy(&w, PolicySelection::parse("avatar+dead").expect("name"), &opts(7));
    // The modifier is a real policy change, not a label: on an irregular
    // workload the transient-fill hints reshape L1 TLB contents.
    assert!(dead.cycles > 0 && dead.loads == plain.loads);
    assert_ne!(
        plain.digest(),
        dead.digest(),
        "avatar+dead must not be digest-identical to avatar on SSSP"
    );
}

#[test]
fn dead_modifier_rejected_where_unsupported() {
    for name in ["ideal+dead", "colt+dead", "snakebyte+dead"] {
        let err = PolicySelection::parse(name)
            .expect_err("+dead requires the base TLB's priority support");
        assert!(err.contains("dead"), "error must name the modifier: {err}");
    }
}
