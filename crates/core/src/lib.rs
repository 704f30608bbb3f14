//! HPE: hierarchical page eviction for GPU unified memory.
//!
//! This crate implements the paper's contribution (Section IV):
//!
//! * the GPU-side **HIR cache** recording page-walk hits ([`HirCache`]),
//! * the driver-side **page set chain** with old/middle/new recency
//!   partitions, saturating counters, fault bit vectors, and page set
//!   **division** ([`PageSetChain`]),
//! * the statistics-based **classifier** ([`classify`], Table III),
//! * **dynamic adjustment** of the eviction strategy (Algorithm 1),
//! * and [`Hpe`], the policy tying them together behind
//!   [`uvm_policies::EvictionPolicy`] so the `uvm-sim` driver can run it
//!   against the baselines.
//!
//! # Examples
//!
//! ```
//! use hpe_core::{Hpe, HpeConfig};
//! use uvm_policies::EvictionPolicy;
//! use uvm_types::PageId;
//!
//! let mut hpe = Hpe::new(HpeConfig::paper_default())?;
//! // Faults and page-walk hits flow in from the GMMU / driver:
//! hpe.on_fault(PageId(0x80000), 0);
//! hpe.on_walk_hit(PageId(0x80000));
//! # Ok::<(), uvm_types::ConfigError>(())
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

mod adjust;
mod chain;
mod classify;
mod config;
mod hir;
mod policy;

pub use adjust::Adjuster;
pub use chain::{CounterStats, PageSetChain, Partition, Selection, SetEntry, SetKey};
pub use classify::{classify, Category, Classification};
pub use config::{HpeConfig, StrategyKind};
pub use hir::{HirCache, HirRecord};
pub use policy::Hpe;
