//! Fig 1: the latency page walks add to memory accesses on commodity GPUs.
//!
//! The paper's microbenchmark pointer-chases through GPU memory in two
//! regimes: TLB-friendly (every access hits the TLBs) and TLB-hostile
//! (every access needs a page walk), and reports up to 1.96× higher
//! memory latency (≈ 950–1000 extra cycles) with walks.
//!
//! We regenerate it on the simulated hierarchy: a single warp performs
//! dependent strided loads over (a) a 64KB buffer (TLB-resident) and
//! (b) a multi-GB region with one access per page and a cold-TLB stride,
//! and we report the mean sector latency of each regime.

use avatar_bench::runner::run_cells;
use avatar_bench::{obj, print_table, HarnessArgs};
use avatar_core::system::{attach_trace, RunOptions};
use avatar_sim::addr::VirtAddr;
use avatar_sim::config::GpuConfig;
use avatar_sim::engine::Engine;
use avatar_sim::hooks::{NoSpeculation, UniformCompression};
use avatar_sim::sm::{WarpOp, WarpProgram};
use avatar_sim::tlb::{BaseTlb, TlbModel};

/// A single-warp dependent-load chase with a fixed stride.
struct Chase {
    stride: u64,
    span: u64,
    remaining: u32,
    pos: u64,
}

impl WarpProgram for Chase {
    fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp> {
        if sm > 0 || warp > 0 || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.pos = (self.pos + self.stride) % self.span;
        Some(WarpOp::Load { pc: 0x100, addrs: vec![VirtAddr(self.pos)] })
    }
}

fn run_chase(stride: u64, span: u64, accesses: u32, ideal_tlb: bool, ro: &RunOptions) -> f64 {
    let mut cfg = GpuConfig::rtx3070();
    cfg.num_sms = 1;
    cfg.warps_per_sm = 1;
    cfg.ideal_tlb = ideal_tlb;
    let l1s: Vec<Box<dyn TlbModel>> = vec![Box::new(BaseTlb::new(
        cfg.l1_tlb.base_entries,
        cfg.l1_tlb.large_entries,
        cfg.l1_tlb.assoc,
        1,
    ))];
    let l2 = Box::new(BaseTlb::new(cfg.l2_tlb.base_entries, cfg.l2_tlb.large_entries, cfg.l2_tlb.assoc, 1));
    let mut engine = Engine::new(
        cfg,
        l1s,
        l2,
        Box::new(NoSpeculation),
        Box::new(UniformCompression { fraction: 0.0 }),
        Box::new(Chase { stride, span, remaining: accesses, pos: 0 }),
    );
    attach_trace(&mut engine, ro);
    let stats = engine.run();
    stats.sector_latency.value()
}

fn main() {
    let opts = HarnessArgs::parse();
    let accesses = 4096;

    // Two independent chases; even this two-cell figure goes through the
    // pool so `--threads` overlaps them.
    // This bin assembles its engines by hand, so `--trace-out` is honoured
    // via `attach_trace` with a per-regime tag rather than through `run`.
    let tagged = |tag: &str| {
        let mut ro = opts.run_options();
        ro.trace_tag = Some(tag.to_string());
        ro
    };
    let (ro_hit, ro_walk) = (tagged("hit"), tagged("walk"));
    let jobs: Vec<Box<dyn FnOnce() -> f64 + Send>> = vec![
        // Translation-free regime: the chase spans far more than the caches
        // (DRAM-bound, as the paper's microbenchmark on commodity GPUs) but
        // translation is free — this isolates raw memory latency.
        Box::new(move || run_chase(4096 + 256, 256 << 20, accesses, true, &ro_hit)),
        // Page-walk regime: identical memory behaviour, but every access
        // lands in a fresh 2MB region of a multi-GB span, defeating the TLBs
        // and the page-walk cache so a multi-reference walk precedes each
        // access.
        Box::new(move || run_chase((2 << 20) + 4096 + 256, 8 << 30, accesses, false, &ro_walk)),
    ];
    let cells = run_cells(opts.threads, jobs);
    let hit = *cells[0].outcome.as_ref().expect("TLB-hit chase");
    let miss = *cells[1].outcome.as_ref().expect("page-walk chase");

    let rows = vec![
        vec!["TLB hit".to_string(), format!("{hit:.0}")],
        vec!["page walk per access".to_string(), format!("{miss:.0}")],
        vec!["ratio".to_string(), format!("{:.2}x", miss / hit)],
        vec!["extra cycles".to_string(), format!("{:.0}", miss - hit)],
    ];
    println!("\nFig 1: memory access latency with and without page walks");
    print_table(&["Regime", "Mean latency (cycles)"], &rows);
    println!("\npaper: up to 1.96x, ~950-1000 extra cycles on commodity GPUs");
    opts.dump_json(&[
        obj! { "regime": "hit", "latency_cycles": hit },
        obj! { "regime": "walk", "latency_cycles": miss },
    ]);
}
