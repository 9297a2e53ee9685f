//! **avatar-gpu** — a from-scratch Rust reproduction of *“A Case for
//! Speculative Address Translation with Rapid Validation for GPUs”*
//! (MICRO 2024).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the paper's contribution: CAST speculation (MOD / VPN-T
//!   predictors), CAVA in-cache validation, EAF early TLB fill, and the
//!   [`core::system`] assembly of every evaluated configuration.
//! * [`sim`] — the GPU memory-system simulator substrate (SMs, sectored
//!   caches, TLB hierarchy, page walkers, GDDR6 DRAM, UVM paging).
//! * [`bpc`] — Bit-Plane Compression and the Attaché/CAVA sector layout.
//! * [`baselines`] — CoLT and SnakeByte prior-work TLB designs.
//! * [`workloads`] — the synthetic Table III + ML workload suites.
//!
//! # Quick start
//!
//! ```
//! use avatar_gpu::core::policy::{AVATAR, BASELINE};
//! use avatar_gpu::core::system::{run_policy, RunOptions};
//! use avatar_gpu::workloads::Workload;
//!
//! let w = Workload::by_abbr("SSSP").expect("Table III workload");
//! let opts = RunOptions { scale: 0.02, sms: Some(2), warps: Some(4), ..RunOptions::default() };
//! let base = run_policy(&w, BASELINE, &opts);
//! let avatar = run_policy(&w, AVATAR, &opts);
//! println!(
//!     "Avatar speedup {:.2}x, speculation accuracy {:.1}%",
//!     avatar_gpu::core::system::speedup(&base, &avatar),
//!     avatar.spec_accuracy() * 100.0
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use avatar_baselines as baselines;
pub use avatar_bpc as bpc;
pub use avatar_core as core;
pub use avatar_sim as sim;
pub use avatar_workloads as workloads;
