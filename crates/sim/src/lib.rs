//! A discrete-event GPU memory-system simulator.
//!
//! `avatar-sim` is the substrate on which the Avatar framework (MICRO 2024)
//! is reproduced: a from-scratch model of the memory side of an
//! RTX3070-class GPU (paper Table II) —
//!
//! * [`sm`] — streaming multiprocessors: warp programs, the memory
//!   coalescer, and occupancy/stall accounting;
//! * [`tlb`] — a two-level TLB hierarchy behind the pluggable
//!   [`tlb::TlbModel`] trait (the prior-work CoLT/SnakeByte designs plug in
//!   from the `avatar-baselines` crate);
//! * [`walker`] — the shared 16-walker page-walk system with its walk
//!   buffer and page-walk cache;
//! * [`page_table`] — a four-level radix page table with 2MB promotion;
//! * [`cache`] — sectored L1/L2 caches with Avatar's per-sector
//!   compression/guarantee tag bits;
//! * [`dram`] — a command-level GDDR6 timing model;
//! * [`uvm`] — UVM demand paging: 2MB logical chunks, neighborhood
//!   prefetching, promotion, and chunk eviction under oversubscription;
//! * [`engine`] — the event-driven orchestrator tying it all together;
//! * [`hooks`] — the policy interfaces (speculation, validation, sector
//!   compressibility) that `avatar-core` implements.
//!
//! # Example
//!
//! Run a tiny streaming kernel on the baseline configuration:
//!
//! ```
//! use avatar_sim::config::GpuConfig;
//! use avatar_sim::engine::Engine;
//! use avatar_sim::hooks::{NoSpeculation, UniformCompression};
//! use avatar_sim::sm::{WarpOp, WarpProgram};
//! use avatar_sim::tlb::{BaseTlb, TlbModel};
//! use avatar_sim::addr::VirtAddr;
//!
//! struct Stream { remaining: u32 }
//! impl WarpProgram for Stream {
//!     fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp> {
//!         if sm > 0 || warp > 0 || self.remaining == 0 {
//!             return None;
//!         }
//!         self.remaining -= 1;
//!         let base = self.remaining as u64 * 128;
//!         Some(WarpOp::Load { pc: 0x100, addrs: (0..32).map(|i| VirtAddr(base + i * 4)).collect() })
//!     }
//! }
//!
//! let mut cfg = GpuConfig::rtx3070();
//! cfg.num_sms = 1; // keep the doctest light
//! let l1s: Vec<Box<dyn TlbModel>> = (0..cfg.num_sms)
//!     .map(|_| Box::new(BaseTlb::new(32, 16, 0, 1)) as Box<dyn TlbModel>)
//!     .collect();
//! let l2 = Box::new(BaseTlb::new(1024, 128, 8, 1));
//! let engine = Engine::new(
//!     cfg,
//!     l1s,
//!     l2,
//!     Box::new(NoSpeculation),
//!     Box::new(UniformCompression { fraction: 0.6 }),
//!     Box::new(Stream { remaining: 16 }),
//! );
//! let stats = engine.run();
//! assert_eq!(stats.loads, 16);
//! assert!(stats.cycles > 0);
//! ```

#![forbid(unsafe_code)]
// Engine code degrades through `expect("<invariant>")` or a `Result`; an
// audit that must stop the run carries a reasoned `#[allow]`.
#![warn(
    clippy::unwrap_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod addr;
pub mod cache;
pub mod config;
pub mod dram;
pub mod engine;
#[doc(hidden)] // calendar internals: public for integration tests/benches only
pub mod event;
#[doc(hidden)] // hashing utility shared with workloads/core, not driving API
pub mod fxhash;
pub mod hooks;
pub mod invariant;
pub mod page_table;
pub(crate) mod port;
pub mod probe;
pub(crate) mod reqslab;
pub mod rng;
pub mod sm;
pub mod stats;
pub mod tlb;
pub mod trace_export;
pub mod uvm;
pub mod walker;

pub use addr::{PhysAddr, Ppn, VirtAddr, Vpn};
pub use config::{BasePage, Cycle, GpuConfig};
pub use engine::Engine;
pub use stats::Stats;

/// The engine-version fingerprint: an FNV-1a digest over the source
/// trees of every result-affecting workspace crate (this one plus
/// `avatar-core`, `avatar-workloads`, `avatar-bpc`, `avatar-baselines`),
/// computed by `build.rs` at compile time. Result caches key on it so
/// entries recorded by a different engine build are misses, never
/// silently replayed.
pub fn engine_fingerprint() -> &'static str {
    env!("AVATAR_ENGINE_FINGERPRINT")
}

/// The driving API in one import: everything a harness needs to
/// configure, run, and observe a simulation, including the full
/// [`TranslationPolicy`](crate::hooks::TranslationPolicy) surface that
/// policy crates implement.
///
/// Internals (the request slab, ports, event-calendar plumbing) are
/// deliberately absent — they are `pub(crate)` or `#[doc(hidden)]`.
///
/// ```
/// use avatar_sim::prelude::*;
/// let mut cfg = GpuConfig::default();
/// cfg.num_sms = 2;
/// cfg.validate().expect("valid config");
/// ```
pub mod prelude {
    pub use crate::addr::{PhysAddr, Ppn, VirtAddr, Vpn};
    pub use crate::config::{BasePage, CacheArrangement, ConfigError, Cycle, GpuConfig};
    pub use crate::engine::Engine;
    pub use crate::hooks::{
        FetchedSector, NoSpeculation, PageMeta, PolicyCounters, SectorCompression,
        SpecFillAction, SpecFillContext, TranslationPolicy, UniformCompression, ValidationKind,
    };
    pub use crate::probe::{LatencyBreakdown, Phase, Probe, SpanPoint, Track};
    pub use crate::sm::{WarpOp, WarpProgram};
    pub use crate::stats::Stats;
    pub use crate::tlb::{BaseTlb, TlbModel};
    pub use crate::trace_export::ChromeTraceProbe;
}
