//! Bring your own kernel: implement `WarpProgram` (the address stream) and
//! `SectorCompression` (the data contents) and run it through the full
//! Avatar system — the same way the built-in Table III suite plugs in.
//!
//! The example models a tiled 2D convolution: each warp reads an input
//! tile, a filter (hot, shared), and writes... reads an output tile, with
//! float-like compressible data.
//!
//! Usage: `cargo run --release --example custom_workload`

use avatar_gpu::core::AvatarPolicy;
use avatar_gpu::sim::addr::{VirtAddr, Vpn};
use avatar_gpu::sim::config::GpuConfig;
use avatar_gpu::sim::engine::Engine;
use avatar_gpu::sim::hooks::{NoSpeculation, SectorCompression};
use avatar_gpu::sim::sm::{WarpOp, WarpProgram};
use avatar_gpu::sim::tlb::{BaseTlb, TlbModel};

const INPUT_BYTES: u64 = 96 << 20;
const FILTER_BYTES: u64 = 64 << 10;
const TILES_PER_WARP: u32 = 24;

/// A tiled convolution-like kernel.
struct Conv2d {
    warps_per_sm: usize,
    progress: Vec<u32>,
}

impl Conv2d {
    fn new(num_sms: usize, warps_per_sm: usize) -> Self {
        Self { warps_per_sm, progress: vec![0; num_sms * warps_per_sm] }
    }
}

impl WarpProgram for Conv2d {
    fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp> {
        let slot = sm * self.warps_per_sm + warp;
        let step = self.progress[slot];
        if step >= TILES_PER_WARP * 4 {
            return None;
        }
        self.progress[slot] += 1;
        let tile = u64::from(step / 4);
        let global = slot as u64;
        Some(match step % 4 {
            0 => WarpOp::Load {
                pc: 0x100,
                addrs: (0..32)
                    .map(|t| VirtAddr(((global * 31 + tile * 977) * 4096 + t * 4) % INPUT_BYTES))
                    .collect(),
            },
            1 => WarpOp::Load {
                pc: 0x110,
                addrs: (0..32)
                    .map(|t| VirtAddr(INPUT_BYTES + (tile * 128 + t * 4) % FILTER_BYTES))
                    .collect(),
            },
            2 => WarpOp::Load {
                pc: 0x120,
                addrs: (0..32)
                    .map(|t| {
                        VirtAddr(
                            INPUT_BYTES
                                + FILTER_BYTES
                                + ((global * 17 + tile * 511) * 4096 + t * 4) % INPUT_BYTES,
                        )
                    })
                    .collect(),
            },
            _ => WarpOp::Compute { cycles: 60 },
        })
    }
}

/// Float-like contents: ~70% of sectors compress below 22 bytes.
#[derive(Debug)]
struct ConvData;

impl SectorCompression for ConvData {
    fn compressible(&mut self, vpn: Vpn, sector: u32) -> bool {
        let x = vpn.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(sector).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        (x >> 8) % 100 < 70
    }
}

fn run_once(avatar: bool) -> avatar_gpu::sim::Stats {
    let mut cfg = GpuConfig::rtx3070();
    cfg.num_sms = 8;
    cfg.warps_per_sm = 24;
    cfg.uvm.promotion = true;
    cfg.uvm.embed_page_info = avatar;
    let l1s: Vec<Box<dyn TlbModel>> = (0..cfg.num_sms)
        .map(|_| {
            Box::new(BaseTlb::new(cfg.l1_tlb.base_entries, cfg.l1_tlb.large_entries, 0, 1))
                as Box<dyn TlbModel>
        })
        .collect();
    let l2 = Box::new(BaseTlb::new(cfg.l2_tlb.base_entries, cfg.l2_tlb.large_entries, 8, 1));
    let policy: Box<dyn avatar_gpu::sim::hooks::TranslationPolicy> = if avatar {
        Box::new(AvatarPolicy::avatar(cfg.num_sms, 32, 2))
    } else {
        Box::new(NoSpeculation)
    };
    let program = Conv2d::new(cfg.num_sms, cfg.warps_per_sm);
    Engine::new(cfg, l1s, l2, policy, Box::new(ConvData), Box::new(program)).run()
}

fn main() {
    let base = run_once(false);
    let avatar = run_once(true);
    println!("custom conv2d kernel ({} loads each run)", base.loads);
    println!("  baseline: {} cycles, load latency {:.0}", base.cycles, base.load_latency.value());
    println!(
        "  avatar:   {} cycles, load latency {:.0}  => speedup {:.3}x",
        avatar.cycles,
        avatar.load_latency.value(),
        base.cycles as f64 / avatar.cycles as f64
    );
    println!(
        "  speculation: {:.1}% accuracy, {:.1}% coverage; {} rapid validations",
        avatar.spec_accuracy() * 100.0,
        avatar.spec_coverage() * 100.0,
        avatar.outcomes.fast_translation
    );
}
