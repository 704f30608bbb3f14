//! Synthetic GPU workload models for the HPE reproduction.
//!
//! The paper characterizes 23 applications from Rodinia, Parboil, and
//! Polybench by their *page-level access patterns* (Fig. 2 defines six
//! pattern types; Table II assigns each application a type). Running the
//! original CUDA binaries requires GPGPU-Sim, so this crate instead
//! synthesizes, per application, a global page-reference sequence that
//! realizes the documented pattern — including the per-application quirks
//! the paper calls out (NW's even/odd page phases, MVT's stride-4 touches,
//! BFS's embedded thrashing, KMN/SAD's irregular per-page reuse, GEM's
//! column-operand resweeps, ...).
//!
//! The global sequence is then distributed over per-warp instruction
//! streams in small tiles, mimicking how GPU thread blocks partition a
//! kernel's iteration space ([`Trace::build`]).
//!
//! # Examples
//!
//! ```
//! use uvm_workloads::{registry, Trace};
//!
//! let app = registry::by_abbr("HSD").expect("hotspot3D is registered");
//! let trace = Trace::build(app, 8, 4);
//! assert_eq!(trace.streams().len(), 8);
//! assert!(trace.total_ops() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type
)]

pub mod analysis;
mod app;
mod builder;
pub mod patterns;
pub mod registry;
mod trace;

pub use app::{App, PatternType, Suite};
pub use builder::{BuildError, CustomWorkload, WorkloadBuilder};
pub use trace::{Op, Trace};
