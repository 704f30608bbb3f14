//! Common types for the HPE GPU unified-memory stack.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: virtual addresses, [`PageId`]s and [`PageSetId`]s (the paper's
//! "page set" is a group of virtually contiguous pages, Section IV), the
//! simulated-system configuration of Table I ([`SimConfig`]), and the metric
//! containers the simulator and benchmark harness report, plus the dense
//! page-indexed tables ([`PageMap`], [`PageSet`]) that hold per-page state.
//!
//! # Examples
//!
//! ```
//! use uvm_types::{PageId, PageSetId, SimConfig};
//!
//! let cfg = SimConfig::paper_default();
//! assert_eq!(cfg.n_sms, 15);
//!
//! let page = PageId(0x8000_3);
//! let set = page.page_set(cfg.page_set_shift());
//! assert_eq!(set, PageSetId(0x8000));
//! assert_eq!(page.set_offset(cfg.page_set_shift()), 3);
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

mod addr;
mod config;
mod error;
mod event;
mod metrics;
mod pagemap;
mod profile;
mod tenant;

pub use addr::{PageId, PageSetId, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
pub use config::{HirGeometry, Oversubscription, SimConfig, SimConfigBuilder, TlbConfig};
pub use error::{ConfigError, SimError};
pub use event::{PolicyEvent, SignalDisruption, StrategyTag};
pub use metrics::{DriverStats, PolicyStats, ResilienceStats, SimStats, TlbStats};
pub use pagemap::{PageIndex, PageMap, PageSet};
pub use profile::{CycleAccount, SpanStage};
pub use tenant::{TenantId, TenantStats};
