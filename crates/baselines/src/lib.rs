//! Prior-work TLB-reach techniques reproduced as comparison baselines for
//! the Avatar evaluation (paper Table I and Fig 15):
//!
//! * [`colt`] — **CoLT** (Pham et al., MICRO 2012): coalesces up to 16
//!   contiguous PTEs (one 128B PTE cache line) into a single TLB entry with
//!   sub-block validity.
//! * [`snakebyte`] — **SnakeByte** (Lee et al., HPCA 2023): adaptive,
//!   recursive merging of TLB entries into progressively larger
//!   power-of-two regions, paying extra page-table references for each
//!   merge step and splintering merged entries on shootdown.
//! * **Page Promotion** (Mosaic-style, Ausavarungnirun et al., MICRO 2017)
//!   is a memory-manager behaviour rather than a TLB design: it is
//!   implemented in `avatar_sim::uvm` (`UvmConfig::promotion`) and enabled
//!   by the `avatar-core` system builder for the `Promotion` configuration
//!   (and, as in the paper, for every non-baseline configuration).
//!
//! All models implement [`avatar_sim::tlb::TlbModel`] and drop into the
//! simulator unchanged.

#![forbid(unsafe_code)]

pub mod colt;
pub mod snakebyte;

pub use colt::ColtTlb;
pub use snakebyte::SnakeByteTlb;
