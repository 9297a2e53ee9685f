//! The registry's post-paper policy is live, not a stub: Revelator
//! actually speculates and rapid-validates on a real workload (not a
//! stub that compiles and idles).

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
