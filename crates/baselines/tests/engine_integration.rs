//! Drive the prior-work TLB designs through the full simulator and check
//! that their reach mechanisms actually engage.

use avatar_baselines::{ColtTlb, SnakeByteTlb};
use avatar_sim::addr::VirtAddr;
use avatar_sim::config::GpuConfig;
use avatar_sim::engine::Engine;
use avatar_sim::hooks::{NoSpeculation, UniformCompression};
use avatar_sim::sm::{WarpOp, WarpProgram};
use avatar_sim::stats::Stats;
use avatar_sim::tlb::{BaseTlb, TlbModel};

/// A dense page-by-page sweep: ideal fodder for coalescing TLBs.
struct Sweep {
    warps_per_sm: usize,
    pages_per_warp: u64,
    pos: Vec<u64>,
}

impl WarpProgram for Sweep {
    fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp> {
        let slot = sm * self.warps_per_sm + warp;
        if self.pos[slot] >= self.pages_per_warp {
            return None;
        }
        let page = slot as u64 * self.pages_per_warp + self.pos[slot];
        self.pos[slot] += 1;
        Some(WarpOp::Load {
            pc: 0x100,
            addrs: (0..32).map(|t| VirtAddr(page * 4096 + t * 4)).collect(),
        })
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Base,
    Colt,
    Snake,
}

fn run_with_tlb(kind: Kind) -> Stats {
    run_with(kind, |_| {})
}

fn run_with(kind: Kind, tweak: impl FnOnce(&mut GpuConfig)) -> Stats {
    let mut cfg = GpuConfig::rtx3070();
    cfg.num_sms = 2;
    cfg.warps_per_sm = 4;
    cfg.uvm.fragmentation = 0.0;
    cfg.uvm.cross_chunk_contiguity = 1.0;
    tweak(&mut cfg);
    let mk = |entries: usize, large: usize, assoc: usize| -> Box<dyn TlbModel> {
        match kind {
            Kind::Base => Box::new(BaseTlb::new(entries, large, assoc, 1)),
            Kind::Colt => Box::new(ColtTlb::new(entries, large, assoc)),
            Kind::Snake => Box::new(SnakeByteTlb::new(entries + large)),
        }
    };
    let l1s = (0..cfg.num_sms).map(|_| mk(32, 16, 0)).collect();
    let l2 = mk(1024, 128, 8);
    let program = Sweep {
        warps_per_sm: cfg.warps_per_sm,
        pages_per_warp: 64,
        pos: vec![0; cfg.num_sms * cfg.warps_per_sm],
    };
    Engine::new(
        cfg,
        l1s,
        l2,
        Box::new(NoSpeculation),
        Box::new(UniformCompression { fraction: 0.0 }),
        Box::new(program),
    )
    .run()
}

#[test]
fn coalescing_raises_large_coverage_hit_share() {
    let base = run_with_tlb(Kind::Base);
    let colt = run_with_tlb(Kind::Colt);
    // Bucket 0 is single-page coverage; buckets 1+ are coalesced reach.
    let wide_hits = |s: &Stats| s.coverage_hits[1..].iter().sum::<u64>();
    assert_eq!(wide_hits(&base), 0, "base TLB entries cover one page");
    assert!(
        wide_hits(&colt) > 0,
        "CoLT must produce multi-page coverage hits on a contiguous sweep"
    );
}

#[test]
fn coalescing_reduces_page_walks_on_contiguous_sweeps() {
    let base = run_with_tlb(Kind::Base);
    let colt = run_with_tlb(Kind::Colt);
    let snake = run_with_tlb(Kind::Snake);
    assert!(
        colt.page_walks < base.page_walks,
        "one walk serves a whole PTE line under CoLT: {} vs {}",
        colt.page_walks,
        base.page_walks
    );
    // SnakeByte merges entries but still walks once per page (merging is a
    // TLB-side effect); it must at least not walk more than base.
    assert!(snake.page_walks <= base.page_walks);
}

#[test]
fn snakebyte_merge_traffic_reaches_dram_accounting() {
    let base = run_with_tlb(Kind::Base);
    let snake = run_with_tlb(Kind::Snake);
    assert_eq!(base.merge_memory_accesses, 0);
    assert!(
        snake.merge_memory_accesses > 0,
        "recursive merging must charge page-table references"
    );
    assert!(snake.dram_read_bytes >= base.dram_read_bytes, "merge refs consume bandwidth");
}

#[test]
fn all_models_complete_identical_work() {
    let base = run_with_tlb(Kind::Base);
    let colt = run_with_tlb(Kind::Colt);
    let snake = run_with_tlb(Kind::Snake);
    assert_eq!(base.loads, colt.loads);
    assert_eq!(base.loads, snake.loads);
    assert_eq!(base.sector_requests, colt.sector_requests);
    assert_eq!(base.sector_requests, snake.sector_requests);
}

#[test]
fn every_model_completes_the_work_behind_a_full_l2_tlb_mshr_file() {
    // Two L2 TLB MSHR entries queue most lookups, so the overflow drain
    // skips retries; CoLT and SnakeByte cannot probe, so a fill in a
    // queued lookup's chunk always re-runs it. Under `--features
    // invariants` checked mode proves every skip.
    for kind in [Kind::Base, Kind::Colt, Kind::Snake] {
        let free = run_with_tlb(kind);
        let tight = run_with(kind, |cfg| cfg.l2_tlb.mshr_entries = 2);
        assert!(tight.l2_tlb_mshr_full > 0, "the L2 TLB MSHR file never overflowed");
        assert_eq!(tight.lost_requests, 0);
        assert_eq!(tight.loads, free.loads);
        assert_eq!(tight.sector_requests, free.sector_requests);
    }
}
