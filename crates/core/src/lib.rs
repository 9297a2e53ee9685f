//! **Avatar**: Accelerated Virtual Address Translation with Address
//! Speculation and Rapid Validation for GPUs — a from-scratch Rust
//! reproduction of the MICRO 2024 paper.
//!
//! Avatar hides GPU address-translation latency with two cooperating
//! mechanisms:
//!
//! * **CAST** (Contiguity-Aware Speculative Translation, [`cast`] +
//!   [`mod_table`]): a per-SM, PC-tagged Mapping Offset Detection table
//!   tracks the virtual→physical offset each load instruction observes.
//!   On an L1 TLB miss with sufficient confidence, CAST predicts the
//!   physical address and fetches data immediately while the real
//!   translation proceeds in the background.
//! * **CAVA** (In-Cache Validation): migrated pages are compressed per
//!   32-byte sector with BPC; sectors that fit 22 bytes carry the page's
//!   VPN/permissions/ASID in the reclaimed space. When a speculatively
//!   fetched sector arrives compressed, comparing the embedded VPN against
//!   the request validates the speculation *immediately* — no waiting for
//!   the page walk. **EAF** (Early TLB Fill) then turns the validated
//!   mapping into TLB entries, releases MSHR/walk-buffer resources, aborts
//!   the in-flight walk, and forwards the entry to other SMs.
//!
//! Beyond the Avatar family, [`policy`] keeps a name-keyed registry of
//! every assemblable translation policy — the prior-work baselines
//! (CoLT, SnakeByte) and the first post-paper rival [`revelator`]
//! (hash-based speculation from SW-guided seed tables with rapid
//! validation-on-use).
//! [`system`] assembles full systems on the `avatar-sim` substrate;
//! [`system::run_policy`] executes one workload on a registry row or on
//! a selection parsed from its name:
//!
//! ```
//! use avatar_core::policy::{PolicySelection, BASELINE};
//! use avatar_core::system::{run_policy, RunOptions};
//! use avatar_workloads::Workload;
//!
//! let workload = Workload::by_abbr("GEMM").expect("in Table III");
//! let opts = RunOptions { scale: 0.02, sms: Some(2), warps: Some(4), ..RunOptions::default() };
//! let baseline = run_policy(&workload, BASELINE, &opts);
//! let avatar = run_policy(
//!     &workload,
//!     PolicySelection::parse("avatar").expect("registry name"),
//!     &opts,
//! );
//! assert!(avatar.speculations > 0);
//! println!("speedup: {:.3}", avatar_core::system::speedup(&baseline, &avatar));
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

pub mod cast;
pub mod mod_table;
pub mod policy;
pub mod revelator;
pub mod system;
pub mod vpn_table;

pub use cast::{AvatarPolicy, Predictor};
pub use mod_table::ModTable;
pub use policy::{PolicyDef, PolicySelection};
pub use revelator::RevelatorPolicy;
pub use system::{assemble_policy, run_policy, run_policy_with, speedup, RunOptions};
pub use vpn_table::VpnTable;

/// The driving API in one import: select a policy, run a workload,
/// inspect the result.
///
/// ```
/// use avatar_core::prelude::*;
/// let sel = PolicySelection::parse("revelator").expect("registry name");
/// assert_eq!(sel.label(), "Revelator");
/// ```
pub mod prelude {
    pub use crate::policy::{PolicyDef, PolicySelection, TlbKind, REGISTRY};
    pub use crate::system::{assemble_policy, run_policy, run_policy_with, speedup, RunOptions};
}

pub(crate) use avatar_sim::addr::CHUNK_BYTES;
