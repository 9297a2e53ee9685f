//! The benchmark's named workloads: each is a grid of simulation cells
//! (Table III workload × translation policy) at one geometry.
//!
//! Every cell is built through the public entry points a harness uses:
//! `Workload::by_abbr`, `PolicySelection::parse_list` and
//! `RunOptions { .. Default::default() }`. The seed reaches the cells
//! through `RunOptions::seed`, which feeds the simulated allocator.

use avatar_core::policy::PolicySelection;
use avatar_core::system::RunOptions;
use avatar_workloads::Workload;
use std::sync::Arc;

/// One named workload of the benchmark.
#[derive(Debug, Clone)]
pub struct BenchWorkload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Table III abbreviations simulated.
    pub abbrs: &'static [&'static str],
    /// Policies, as a `--policies` list.
    pub policies: &'static str,
    /// SMs × warps per SM.
    pub sms: usize,
    /// Warps per SM.
    pub warps: usize,
    /// Workload scale factor.
    pub scale: f64,
    /// Oversubscription factor, if memory is constrained.
    pub oversubscription: Option<f64>,
}

/// The Table III suite, in table order.
const TABLE_III: &[&str] = &[
    "FW", "LMD", "GEMM", "SGEM", "BP", "MD", "HIS", "PAF", "LUL", "GC", "FDT", "BET", "CON", "CFD",
    "SSSP", "SPMV", "CC", "SC", "KM", "XSB",
];

/// Every workload, in the order `run.sh` runs them.
pub const WORKLOADS: &[BenchWorkload] = &[
    BenchWorkload {
        name: "quick_grid",
        why: "fig15 --quick grid: 140 short cells, so per-cell fixed costs (assembly, trace build, finish) dominate",
        abbrs: TABLE_III,
        policies: "baseline,promotion,colt,snakebyte,cast,avatar,cast-ideal",
        sms: 4,
        warps: 8,
        scale: 0.05,
        oversubscription: None,
    },
    // Under Baseline these four hit the L1 TLB least of Table III, and
    // about 0.1% of their sectors take the inline hit path. GEMM and SGEM
    // also steady `sim_avatar_speedup` across seeds: on about one seed in
    // ten a fragmented chunk defeats Avatar's speculation on XSB or SC,
    // which lowers a geomean over XSB and SC alone by up to 37%, and one
    // over all four by up to 22%.
    BenchWorkload {
        name: "tlb_miss_sweep",
        why: "XSB, SC, GEMM, SGEM at 16x16: L1 TLB hit rate 57% vs quick_grid's 84%, 4x its L2 TLB lookups per instruction; the inline hit path is bypassed",
        abbrs: &["XSB", "SC", "GEMM", "SGEM"],
        policies: "baseline,colt,avatar,revelator",
        sms: 16,
        warps: 16,
        scale: 0.2,
        oversubscription: None,
    },
    BenchWorkload {
        name: "oversub_sweep",
        why: "130% oversubscription: chunk evictions, shootdowns and migration traffic beside the read path",
        abbrs: &["HIS", "SSSP", "LUL", "XSB"],
        policies: "baseline,colt,avatar",
        sms: 16,
        warps: 16,
        scale: 0.08,
        oversubscription: Some(1.3),
    },
    BenchWorkload {
        name: "paper_cell",
        why: "SSSP at Table II geometry (46 SMs x 48 warps): large in-flight populations stress calendar, MSHRs and walk buffer",
        abbrs: &["SSSP"],
        policies: "baseline,avatar",
        sms: 46,
        warps: 48,
        scale: 0.02,
        oversubscription: None,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static BenchWorkload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Comma-joined workload names, for usage and error text.
pub fn names() -> String {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .collect::<Vec<_>>()
        .join(", ")
}

/// One simulation cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Table III workload, shared by every cell that simulates it.
    pub workload: Arc<Workload>,
    /// Translation policy.
    pub policy: PolicySelection,
    /// Run options (geometry, scale, seed, oversubscription).
    pub opts: RunOptions,
}

impl Cell {
    /// `ABBR/policy`, the cell's label in tables and span files.
    pub fn label(&self) -> String {
        format!("{}/{}", self.workload.abbr, self.policy.name())
    }
}

impl BenchWorkload {
    /// The cells of this workload for `seed`, abbreviation-major.
    pub fn cells(&self, seed: u64) -> Vec<Cell> {
        let policies = PolicySelection::parse_list(self.policies)
            .unwrap_or_else(|e| panic!("workload {}: bad policy list: {e}", self.name));
        let opts = RunOptions {
            scale: self.scale,
            sms: Some(self.sms),
            warps: Some(self.warps),
            seed,
            oversubscription: self.oversubscription,
            ..RunOptions::default()
        };
        let mut cells = Vec::new();
        for abbr in self.abbrs {
            let w =
                Arc::new(Workload::by_abbr(abbr).unwrap_or_else(|| {
                    panic!("workload {}: unknown abbreviation {abbr}", self.name)
                }));
            for &policy in &policies {
                cells.push(Cell {
                    workload: Arc::clone(&w),
                    policy,
                    opts: opts.clone(),
                });
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_its_cells_and_pairs_baseline_with_avatar() {
        for w in WORKLOADS {
            let cells = w.cells(7);
            assert_eq!(
                cells.len(),
                w.abbrs.len() * w.policies.split(',').count(),
                "{}",
                w.name
            );
            for abbr in w.abbrs {
                for policy in ["baseline", "avatar"] {
                    assert!(
                        cells
                            .iter()
                            .any(|c| c.workload.abbr == *abbr && c.policy.name() == policy),
                        "{}: {abbr} lacks a {policy} cell, so sim_avatar_speedup is undefined",
                        w.name
                    );
                }
            }
            assert!(
                !w.why.contains('\n') && w.why.len() <= 200,
                "{}: why must be one short line",
                w.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_findable() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("bogus").is_none());
        assert_eq!(TABLE_III.len(), Workload::all().len());
    }
}
