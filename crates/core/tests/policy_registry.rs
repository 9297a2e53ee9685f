//! The policy registry is a drop-in replacement for the enum-era
//! `SystemConfig` assembly — byte-for-byte.
//!
//! Two properties gate the registry refactor:
//!
//! * **Digest parity** — every legacy `SystemConfig` variant, run through
//!   the enum entry points, produces a `Stats` digest identical to the
//!   same system assembled from its parsed registry name. The registry
//!   cannot perturb any pre-existing result.
//! * **New policies live** — Revelator actually speculates and rapid-
//!   validates on a real workload (not a stub that compiles and idles),
//!   and the dead-entry modifier runs to completion on top of Avatar.

use avatar_core::policy::PolicySelection;
use avatar_core::system::{run, run_policy, RunOptions, SystemConfig};
use avatar_workloads::Workload;

/// Every enum variant and the registry name it must alias.
const ENUM_ALIASES: [(SystemConfig, &str); 10] = [
    (SystemConfig::Baseline, "baseline"),
    (SystemConfig::IdealTlb, "ideal"),
    (SystemConfig::Promotion, "promotion"),
    (SystemConfig::Colt, "colt"),
    (SystemConfig::SnakeByte, "snakebyte"),
    (SystemConfig::CastOnly, "cast"),
    (SystemConfig::Avatar, "avatar"),
    (SystemConfig::AvatarNoEaf, "avatar-noeaf"),
    (SystemConfig::CastIdealValid, "cast-ideal"),
    (SystemConfig::AvatarVpnT, "avatar-vpnt"),
];

fn opts(seed: u64) -> RunOptions {
    RunOptions { scale: 0.03, sms: Some(4), warps: Some(8), seed, ..RunOptions::default() }
}

#[test]
fn registry_names_reproduce_enum_digests() {
    let w = Workload::by_abbr("MD").expect("workload table contains MD");
    for seed in [7u64, 99] {
        for (config, name) in ENUM_ALIASES {
            let sel = PolicySelection::parse(name)
                .unwrap_or_else(|e| panic!("'{name}' must parse: {e}"));
            let via_enum = run(&w, config, &opts(seed)).digest();
            let via_name = run_policy(&w, sel, &opts(seed)).digest();
            assert_eq!(
                via_name, via_enum,
                "'{name}' seed {seed}: registry assembly diverged from {config:?}"
            );
        }
    }
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
