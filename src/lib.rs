//! HPE: Hierarchical Page Eviction for GPU unified memory.
//!
//! This facade crate re-exports the whole workspace: the [`hpe_core`] policy
//! (the paper's contribution), the [`uvm_sim`] GPU unified-memory simulator,
//! the [`uvm_workloads`] synthetic application models, the [`uvm_policies`]
//! baseline eviction policies, and the shared [`uvm_types`] vocabulary.
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! system inventory and per-experiment index.

#![forbid(unsafe_code)]

pub use hpe_core as core;
pub use uvm_policies as policies;
pub use uvm_sim as sim;
pub use uvm_types as types;
pub use uvm_util as util;
pub use uvm_workloads as workloads;

pub use hpe_core::{Hpe, HpeConfig};
pub use uvm_types::{Oversubscription, PageId, PageSetId, SimConfig, SimStats};

/// The Rust snippets of `README.md`, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
