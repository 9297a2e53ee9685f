//! The L2 TLB overflow path, pinned.
//!
//! At the default geometry the L2 TLB MSHR file (128 entries) never fills
//! on the small grids the other suites run, so the queue of lookups that
//! found it full, and the drain that retries them after every walk
//! completion and every early or rapid fill, would go untested. Here the
//! file has two entries: every row but `ideal` overflows it, and each
//! row's `Stats::digest()` is pinned to the value recorded before the
//! drain learned to skip entries whose outcome cannot have changed. Any
//! change to which retries run, or in what order, moves a digest.

use avatar_core::policy::PolicySelection;
use avatar_core::system::{run_policy_with, RunOptions};
use avatar_sim::config::{BasePage, GpuConfig};
use avatar_workloads::Workload;

/// L2 TLB MSHR entries in every row: small enough that walks queue.
const MSHR_ENTRIES: usize = 2;

/// What a row varies from the 4x8, scale-0.03 default.
#[derive(Debug, Clone, Copy)]
enum Setup {
    Default,
    Base64K,
    Oversubscribed,
    TwoTenants,
    /// Pages migrate on their second touch, so first touches are served
    /// remotely and retire their `(sm, page)` markers.
    RemoteFirstTouch,
}

impl Setup {
    fn opts(self) -> RunOptions {
        let o = RunOptions {
            scale: 0.03,
            sms: Some(4),
            warps: Some(8),
            seed: 0,
            ..RunOptions::default()
        };
        match self {
            Setup::Default | Setup::RemoteFirstTouch => o,
            Setup::Base64K => RunOptions { base_page: BasePage::Size64K, ..o },
            Setup::Oversubscribed => RunOptions { oversubscription: Some(1.3), ..o },
            Setup::TwoTenants => RunOptions { tenants: 2, ..o },
        }
    }

    fn tweak(self, cfg: &mut GpuConfig) {
        cfg.l2_tlb.mshr_entries = MSHR_ENTRIES;
        if let Setup::RemoteFirstTouch = self {
            cfg.uvm.migration_threshold = 2;
        }
    }
}

/// One pinned cell: a policy on a Table III workload under `setup`.
struct Row {
    workload: &'static str,
    policy: &'static str,
    setup: Setup,
    digest: u64,
}

const fn row(workload: &'static str, policy: &'static str, setup: Setup, digest: u64) -> Row {
    Row { workload, policy, setup, digest }
}

/// Every registry row on MD at the default options,
/// then one row each for 64 KB base pages, 130% oversubscription (on
/// SSSP: MD's footprint at this scale fits the two-chunk memory floor)
/// and two tenants, and two with remote first touches.
const ROWS: &[Row] = &[
    row("MD", "baseline", Setup::Default, 0x0fec_86f1_9086_0f08),
    row("MD", "ideal", Setup::Default, 0xfa45_cdf9_f8f9_e67e),
    row("MD", "promotion", Setup::Default, 0x35c8_39cf_11b9_d91a),
    row("MD", "colt", Setup::Default, 0x1d6c_bdc4_9b5a_3728),
    row("MD", "snakebyte", Setup::Default, 0x1c00_c0c7_0274_4199),
    row("MD", "cast", Setup::Default, 0x25ed_168c_ad60_4f7e),
    row("MD", "avatar", Setup::Default, 0xaf54_a3a6_b663_ec31),
    row("MD", "avatar-noeaf", Setup::Default, 0xbc48_14c9_5b81_3e88),
    row("MD", "cast-ideal", Setup::Default, 0xe939_2947_adc1_0fc8),
    row("MD", "avatar-vpnt", Setup::Default, 0xddcc_f177_cd28_19b1),
    row("MD", "revelator", Setup::Default, 0xfc78_4396_76b8_04c2),
    row("MD", "avatar", Setup::Base64K, 0xd0d1_a51b_b19f_9b8e),
    row("SSSP", "colt", Setup::Oversubscribed, 0xf148_03b1_70f2_e219),
    row("MD", "revelator", Setup::TwoTenants, 0x96a6_f7a1_a2fa_6869),
    row("MD", "baseline", Setup::RemoteFirstTouch, 0x5617_82a5_9acd_2b3e),
    row("MD", "avatar", Setup::RemoteFirstTouch, 0xb518_570c_f731_ebe2),
];

#[test]
fn rows_cover_the_registry() {
    let named: Vec<String> = PolicySelection::all_base().map(|p| p.name()).collect();
    for name in &named {
        assert!(ROWS.iter().any(|r| r.policy == name), "registry row {name} is not pinned");
    }
}

#[test]
fn overflowing_l2_tlb_mshr_reproduces_recorded_digests() {
    let mut got = Vec::new();
    for row in ROWS {
        let w = Workload::by_abbr(row.workload).expect("Table III workload");
        let policy = PolicySelection::parse(row.policy).expect("registry name");
        let cell = format!("{} {} {:?}", row.workload, row.policy, row.setup);
        let stats = run_policy_with(&w, policy, &row.setup.opts(), |cfg| row.setup.tweak(cfg));
        if row.policy == "ideal" {
            assert_eq!(stats.l2_tlb_mshr_full, 0, "{cell}: ideal translation skips the L2 TLB");
        } else {
            assert!(stats.l2_tlb_mshr_full > 0, "{cell}: the L2 TLB MSHR file never overflowed");
        }
        match row.setup {
            Setup::Oversubscribed => {
                assert!(stats.chunks_evicted > 0, "{cell}: memory was never oversubscribed")
            }
            Setup::RemoteFirstTouch => {
                assert!(stats.remote_accesses > 0, "{cell}: no access was served remotely")
            }
            _ => {}
        }
        assert_eq!(stats.lost_requests, 0, "{cell}: requests lost");
        got.push(stats.digest());
    }
    let wrong: Vec<String> = ROWS
        .iter()
        .zip(&got)
        .filter(|(row, &d)| row.digest != d)
        .map(|(row, d)| format!("{} {} {:?}: {d:#018x}", row.workload, row.policy, row.setup))
        .collect();
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}
