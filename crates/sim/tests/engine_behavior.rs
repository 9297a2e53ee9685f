//! Engine behaviour tests: drive the full simulator with tiny controlled
//! programs and check the translation/speculation state machines.

use avatar_sim::addr::{Ppn, VirtAddr, Vpn};
use avatar_sim::config::GpuConfig;
use avatar_sim::engine::Engine;
use avatar_sim::hooks::{
    NoSpeculation, SpecFillAction, SpecFillContext, TranslationPolicy, UniformCompression,
    ValidationKind,
};
use avatar_sim::sm::{WarpOp, WarpProgram};
use avatar_sim::stats::Stats;
use avatar_sim::tlb::{BaseTlb, TlbModel};

/// A scripted program: each warp slot gets its own op list.
struct Script {
    warps_per_sm: usize,
    ops: Vec<Vec<WarpOp>>,
    cursor: Vec<usize>,
}

impl Script {
    fn new(num_sms: usize, warps_per_sm: usize) -> Self {
        Self {
            warps_per_sm,
            ops: vec![Vec::new(); num_sms * warps_per_sm],
            cursor: vec![0; num_sms * warps_per_sm],
        }
    }

    fn push(&mut self, sm: usize, warp: usize, op: WarpOp) {
        self.ops[sm * self.warps_per_sm + warp].push(op);
    }
}

impl WarpProgram for Script {
    fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp> {
        let slot = sm * self.warps_per_sm + warp;
        let i = self.cursor[slot];
        self.cursor[slot] += 1;
        self.ops[slot].get(i).cloned()
    }
}

fn small_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::rtx3070();
    cfg.num_sms = 2;
    cfg.warps_per_sm = 4;
    cfg.uvm.fragmentation = 0.0;
    cfg.uvm.cross_chunk_contiguity = 1.0;
    cfg
}

fn tlbs(cfg: &GpuConfig) -> (Vec<Box<dyn TlbModel>>, Box<dyn TlbModel>) {
    let l1s = (0..cfg.num_sms)
        .map(|_| {
            Box::new(BaseTlb::new(cfg.l1_tlb.base_entries, cfg.l1_tlb.large_entries, 0, 1))
                as Box<dyn TlbModel>
        })
        .collect();
    let l2 =
        Box::new(BaseTlb::new(cfg.l2_tlb.base_entries, cfg.l2_tlb.large_entries, 8, 1)) as Box<dyn TlbModel>;
    (l1s, l2)
}

fn run_script(
    cfg: GpuConfig,
    script: Script,
    accel: Box<dyn TranslationPolicy>,
    compress_fraction: f64,
) -> Stats {
    let (l1s, l2) = tlbs(&cfg);
    Engine::new(
        cfg,
        l1s,
        l2,
        accel,
        Box::new(UniformCompression { fraction: compress_fraction }),
        Box::new(script),
    )
    .run()
}

/// A policy that always predicts a fixed V2P page offset.
#[derive(Debug)]
struct FixedOffset {
    offset: i64,
    validation: ValidationKind,
    eaf: bool,
}

impl TranslationPolicy for FixedOffset {
    fn on_l1_tlb_miss(&mut self, _sm: usize, _pc: u64, vpn: Vpn) -> Option<Ppn> {
        let p = vpn.0 as i64 + self.offset;
        (p > 0).then_some(Ppn(p as u64))
    }
    fn on_translation_resolved(&mut self, _sm: usize, _pc: u64, _vpn: Vpn, _ppn: Ppn) {}
    fn on_spec_fill(&self, ctx: &SpecFillContext) -> SpecFillAction {
        if !ctx.sector.compressed {
            return SpecFillAction::AwaitTranslation;
        }
        match ctx.sector.embedded {
            Some(meta) if meta.vpn == ctx.requested_vpn => SpecFillAction::Validated { eaf: self.eaf },
            _ => SpecFillAction::Invalidate,
        }
    }
    fn validation_kind(&self) -> ValidationKind {
        self.validation
    }
    fn propagates_cross_sm(&self) -> bool {
        self.eaf
    }
}

fn streaming_script(cfg: &GpuConfig, loads_per_warp: usize) -> Script {
    let mut s = Script::new(cfg.num_sms, cfg.warps_per_sm);
    for sm in 0..cfg.num_sms {
        for warp in 0..cfg.warps_per_sm {
            for i in 0..loads_per_warp {
                let base = ((sm * cfg.warps_per_sm + warp) * loads_per_warp + i) as u64 * 4096;
                s.push(
                    sm,
                    warp,
                    WarpOp::Load {
                        pc: 0x100,
                        addrs: (0..32).map(|t| VirtAddr(base + t * 4)).collect(),
                    },
                );
            }
        }
    }
    s
}

#[test]
fn baseline_completes_and_counts() {
    let cfg = small_cfg();
    let script = streaming_script(&cfg, 10);
    let stats = run_script(cfg, script, Box::new(NoSpeculation), 0.5);
    assert_eq!(stats.loads, 2 * 4 * 10);
    assert_eq!(stats.load_latency.count(), stats.loads);
    assert!(stats.page_walks > 0, "cold TLBs must walk");
    assert!(stats.dram_read_bytes > 0);
}

/// With a perfectly contiguous allocator, a fixed-offset predictor predicts
/// every page correctly once the arena offset is known. The arena maps
/// vchunk v to physical chunk v+1, so the V2P page offset is exactly 512.
#[test]
fn correct_speculation_with_cava_fast_translates() {
    let cfg = {
        let mut c = small_cfg();
        c.uvm.embed_page_info = true;
        c
    };
    let script = streaming_script(&cfg, 12);
    let stats = run_script(
        cfg,
        script,
        Box::new(FixedOffset { offset: 512, validation: ValidationKind::InCache, eaf: true }),
        1.0, // every sector compressible => every correct spec validates
    );
    assert!(stats.speculations > 0);
    assert_eq!(stats.spec_correct, stats.speculations, "arena offset is exact");
    assert!(stats.outcomes.fast_translation > 0, "CAVA must validate");
    assert_eq!(stats.cava_mismatches, 0);
    assert!(stats.eaf_fills > 0);
}

#[test]
fn wrong_speculation_is_always_detected() {
    let cfg = {
        let mut c = small_cfg();
        c.uvm.embed_page_info = true;
        c
    };
    let script = streaming_script(&cfg, 12);
    let stats = run_script(
        cfg,
        script,
        // Offset 513 points one frame past the true mapping: always wrong.
        Box::new(FixedOffset { offset: 513, validation: ValidationKind::InCache, eaf: true }),
        1.0,
    );
    assert!(stats.speculations > 0);
    assert_eq!(stats.spec_correct, 0, "off-by-one offset never matches");
    assert_eq!(stats.outcomes.fast_translation, 0, "CAVA must never validate a wrong PPN");
    assert_eq!(stats.eaf_fills, 0);
    // Every load still completes (checked by the engine) and wrong
    // speculations were caught either by CAVA or at translation.
    assert_eq!(stats.load_latency.count(), stats.loads);
}

#[test]
fn incompressible_data_disables_rapid_validation() {
    let cfg = {
        let mut c = small_cfg();
        c.uvm.embed_page_info = true;
        c
    };
    let script = streaming_script(&cfg, 12);
    let stats = run_script(
        cfg,
        script,
        Box::new(FixedOffset { offset: 512, validation: ValidationKind::InCache, eaf: true }),
        0.0, // nothing compresses => no embedded info ever
    );
    assert!(stats.spec_correct > 0);
    assert_eq!(stats.outcomes.fast_translation, 0, "raw sectors cannot validate");
    assert_eq!(stats.spec_compressed, 0);
    // The correct speculations still help via hit/merge.
    assert!(stats.outcomes.l1d_hit + stats.outcomes.l1d_merge > 0);
}

#[test]
fn cava_beats_no_validation_on_cycles() {
    let mk = |embed: bool, validation: ValidationKind| {
        let mut cfg = small_cfg();
        cfg.uvm.embed_page_info = embed;
        let script = streaming_script(&cfg, 20);
        run_script(
            cfg,
            script,
            Box::new(FixedOffset { offset: 512, validation, eaf: embed }),
            1.0,
        )
    };
    let cast_only = mk(false, ValidationKind::None);
    let avatar = mk(true, ValidationKind::InCache);
    assert!(
        avatar.cycles <= cast_only.cycles,
        "rapid validation must not lose to waiting: {} vs {}",
        avatar.cycles,
        cast_only.cycles
    );
}

#[test]
fn eaf_aborts_walks_and_fills_other_sms() {
    let mut cfg = small_cfg();
    cfg.uvm.embed_page_info = true;
    // Both SMs stream the same pages so cross-SM propagation has targets.
    let mut s = Script::new(cfg.num_sms, cfg.warps_per_sm);
    for sm in 0..cfg.num_sms {
        for warp in 0..cfg.warps_per_sm {
            for i in 0..10u64 {
                s.push(
                    sm,
                    warp,
                    WarpOp::Load {
                        pc: 0x200,
                        addrs: (0..32).map(|t| VirtAddr(i * 4096 + t * 4)).collect(),
                    },
                );
            }
        }
    }
    let stats = run_script(
        cfg,
        s,
        Box::new(FixedOffset { offset: 512, validation: ValidationKind::InCache, eaf: true }),
        1.0,
    );
    assert!(stats.eaf_fills > 0);
    assert!(
        stats.walks_aborted > 0 || stats.page_walks < 10,
        "EAF must cut walk work: {} walks, {} aborted",
        stats.page_walks,
        stats.walks_aborted
    );
}

#[test]
fn compute_only_program_costs_compute_time() {
    let mut cfg = small_cfg();
    cfg.num_sms = 1;
    cfg.warps_per_sm = 1;
    let mut s = Script::new(1, 1);
    for _ in 0..50 {
        s.push(0, 0, WarpOp::Compute { cycles: 100 });
    }
    let stats = run_script(cfg, s, Box::new(NoSpeculation), 0.0);
    assert!(stats.cycles >= 5000, "50 x 100-cycle compute ops");
    assert_eq!(stats.stall_cycles, 0, "compute never counts as memory stall");
    assert_eq!(stats.dram_read_bytes, 0);
    // Only the 51 issue cycles (0, 100, ..., 5000) hold events; the
    // engine reports the 99 empty cycles of each gap as skipped.
    assert_eq!(stats.idle_cycles_skipped, 50 * 99);
}

#[test]
fn warp_parallelism_hides_memory_latency() {
    let run_with_warps = |warps: usize| {
        let mut cfg = small_cfg();
        cfg.num_sms = 1;
        cfg.warps_per_sm = warps;
        // Total work fixed: 32 loads split across the warps.
        let mut s = Script::new(1, warps);
        for i in 0..32usize {
            let warp = i % warps;
            s.push(
                0,
                warp,
                WarpOp::Load {
                    pc: 0x300,
                    addrs: (0..32).map(|t| VirtAddr(i as u64 * 8192 + t * 4)).collect(),
                },
            );
        }
        run_script(cfg, s, Box::new(NoSpeculation), 0.0).cycles
    };
    let serial = run_with_warps(1);
    let parallel = run_with_warps(8);
    assert!(
        parallel * 2 < serial,
        "8 warps must overlap latency: serial {serial}, parallel {parallel}"
    );
}

/// Stores write-allocate and dirty sectors; evictions write back to DRAM.
#[test]
fn stores_generate_writeback_traffic() {
    let mut cfg = small_cfg();
    cfg.num_sms = 1;
    cfg.warps_per_sm = 2;
    // Shrink the L2 so dirty lines actually get evicted.
    cfg.l2_cache.bytes = 8 * 1024;
    cfg.l1_cache.bytes = 4 * 1024;
    let mut s = Script::new(1, 2);
    for warp in 0..2 {
        for i in 0..400u64 {
            s.push(
                0,
                warp,
                WarpOp::Store {
                    pc: 0x500,
                    addrs: (0..32).map(|t| VirtAddr((warp as u64 * 400 + i) * 4096 + t * 4)).collect(),
                },
            );
        }
    }
    let stats = run_script(cfg, s, Box::new(NoSpeculation), 0.0);
    assert_eq!(stats.stores, 800);
    assert_eq!(stats.loads, 0);
    assert!(stats.writebacks > 0, "dirty evictions must write back");
    let migration_writes = stats.pages_migrated * 4096;
    assert!(
        stats.dram_write_bytes > migration_writes,
        "writebacks add DRAM write traffic beyond migration: {} vs {}",
        stats.dram_write_bytes,
        migration_writes
    );
}

/// Stores never speculate: erroneous writes cannot be rolled back.
#[test]
fn stores_do_not_speculate() {
    let mut cfg = small_cfg();
    cfg.uvm.embed_page_info = true;
    let mut s = Script::new(cfg.num_sms, cfg.warps_per_sm);
    for sm in 0..cfg.num_sms {
        for warp in 0..cfg.warps_per_sm {
            for i in 0..12u64 {
                let base = ((sm * cfg.warps_per_sm + warp) as u64 * 12 + i) * 4096;
                s.push(
                    sm,
                    warp,
                    WarpOp::Store {
                        pc: 0x600,
                        addrs: (0..32).map(|t| VirtAddr(base + t * 4)).collect(),
                    },
                );
            }
        }
    }
    let stats = run_script(
        cfg,
        s,
        Box::new(FixedOffset { offset: 512, validation: ValidationKind::InCache, eaf: true }),
        1.0,
    );
    assert_eq!(stats.speculations, 0, "store-only program must never speculate");
    assert_eq!(stats.load_latency.count(), stats.stores);
}

/// Threshold-based migration serves cold pages remotely and never trains
/// the predictor on them.
#[test]
fn threshold_migration_serves_cold_pages_remotely() {
    let mut cfg = small_cfg();
    cfg.uvm.migration_threshold = 100; // effectively never migrate
    cfg.uvm.embed_page_info = true;
    let script = streaming_script(&cfg, 8);
    let stats = run_script(
        cfg,
        script,
        Box::new(FixedOffset { offset: 512, validation: ValidationKind::InCache, eaf: true }),
        1.0,
    );
    assert!(stats.remote_accesses > 0, "cold pages are served from the host");
    assert_eq!(stats.page_walks, 0, "nothing mapped, nothing walked");
    assert_eq!(stats.speculations, 0, "no GPU-mapped regions to speculate on");
    assert_eq!(stats.dram_read_bytes, 0, "no GPU-memory traffic");
    assert_eq!(stats.load_latency.count(), stats.loads + stats.stores);
}

/// With a low threshold, hot pages migrate after a few remote touches and
/// the system transitions to normal local behaviour.
#[test]
fn threshold_migration_warms_up_hot_pages() {
    let mut cfg = small_cfg();
    cfg.num_sms = 1;
    cfg.warps_per_sm = 1;
    cfg.uvm.migration_threshold = 3;
    let mut s = Script::new(1, 1);
    for _ in 0..10 {
        s.push(0, 0, WarpOp::Load { pc: 0x700, addrs: vec![VirtAddr(0x1000)] });
    }
    let stats = run_script(cfg, s, Box::new(NoSpeculation), 0.0);
    assert_eq!(stats.remote_accesses, 2, "two cold touches before migration");
    assert!(stats.pages_migrated > 0);
    assert!(stats.l1_tlb_lookups > 0, "post-migration accesses use the TLBs");
}

#[test]
fn ideal_validation_completes_at_fetch() {
    let mut cfg = small_cfg();
    cfg.uvm.embed_page_info = false;
    let script = streaming_script(&cfg, 15);
    let stats = run_script(
        cfg,
        script,
        Box::new(FixedOffset { offset: 512, validation: ValidationKind::Ideal, eaf: true }),
        0.0,
    );
    assert!(stats.outcomes.fast_translation > 0, "ideal validation is instant");
    assert_eq!(stats.cava_mismatches, 0);
}

#[test]
fn idle_sms_do_not_stall_the_window_loop() {
    // All work on SM 0 of 4: the other SMs retire at once, the worst
    // case for the two-phase window loop. The run must still terminate,
    // must open windows, and must complete every request.
    let mut cfg = GpuConfig::rtx3070();
    cfg.num_sms = 4;
    cfg.warps_per_sm = 4;
    let mut s = Script::new(cfg.num_sms, cfg.warps_per_sm);
    for warp in 0..cfg.warps_per_sm {
        for i in 0..256u64 {
            // Stride across pages so misses reach the shared walker domain.
            let addr = ((warp as u64) << 24) | (i * 4096);
            s.push(0, warp, WarpOp::Load { pc: 0x40, addrs: vec![VirtAddr(addr)] });
        }
    }
    let stats = run_script(cfg, s, Box::new(NoSpeculation), 0.5);
    assert!(stats.loads > 0, "the single active SM must issue its loads");
    assert!(stats.horizon_barriers > 0, "a starved run still opens windows");
    assert_eq!(stats.lost_requests, 0, "every request must complete by the final barrier");
}

#[test]
fn cycle_cap_stops_the_run_and_counts_in_flight_requests_as_lost() {
    // A cap far below the run's length stops it with requests still in
    // flight. `finish` counts them as lost, so the partial run cannot
    // pass as a complete one, and does not take the debug-build halt
    // that a drained run with lost requests takes.
    let cfg = small_cfg();
    let full = run_script(cfg.clone(), streaming_script(&cfg, 40), Box::new(NoSpeculation), 0.5);
    let cap = full.cycles / 4;
    let (l1s, l2) = tlbs(&cfg);
    let mut engine = Engine::new(
        cfg.clone(),
        l1s,
        l2,
        Box::new(NoSpeculation),
        Box::new(UniformCompression { fraction: 0.5 }),
        Box::new(streaming_script(&cfg, 40)),
    );
    engine.set_max_cycles(cap);
    engine.start();
    assert!(!engine.run_steps(u64::MAX), "the cap must end the run");
    let capped = engine.finish();
    assert!(capped.cycles <= cap, "ran to cycle {} past the cap {cap}", capped.cycles);
    // Every issued sector either completed (and was timed) or is lost.
    let in_flight = capped.sector_requests - capped.sector_latency.count();
    assert!(in_flight > 0, "the cap must stop the run with requests in flight");
    assert_eq!(capped.lost_requests, in_flight, "a capped run counts its in-flight requests as lost");
    assert!(
        capped.loads < full.loads,
        "the cap must stop the run while work is pending ({} of {} loads)",
        capped.loads,
        full.loads
    );
}
