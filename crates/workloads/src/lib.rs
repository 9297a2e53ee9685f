//! Synthetic GPU workload suite for the Avatar reproduction.
//!
//! The paper evaluates 20 CUDA benchmarks (Table III) plus 8 ML workloads
//! (Fig 23) traced on real hardware. This crate substitutes each with a
//! synthetic equivalent that reproduces the two properties the experiments
//! actually consume:
//!
//! 1. **Address streams** ([`trace`]): per-warp load sequences with the
//!    benchmark's access pattern (dense tiled, stencil, CSR-graph
//!    irregular, hash-random, mixed), working-set size, and TLB-pressure
//!    class — the paper's L/M/H classification by L2 TLB misses per
//!    million instructions emerges from these.
//! 2. **Data contents** ([`content`]): deterministic 32-byte sector bytes
//!    with per-data-type structure (delta-correlated integers,
//!    shared-exponent floats, …) whose *measured* BPC compressibility
//!    matches the per-benchmark fractions the paper reports in Fig 10 /
//!    Fig 23a. The real `avatar-bpc` codec runs over these bytes — nothing
//!    is stubbed.
//!
//! [`spec::Workload::all`] returns the Table III suite;
//! [`spec::Workload::ml_suite`] the Fig 23 ML models.

#![forbid(unsafe_code)]

pub mod content;
pub mod multi;
pub mod spec;
pub mod trace;
pub mod trace_io;

pub use content::ContentModel;
pub use spec::{Class, DataType, Pattern, Workload};
pub use trace::TraceProgram;
pub use multi::MultiTenantProgram;
pub use trace_io::{write_trace, FileProgram};
