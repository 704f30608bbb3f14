//! `uvm-util`: the hermetic utility layer for the HPE workspace.
//!
//! Every crate in this workspace builds with **zero external dependencies**
//! so the tier-1 verify (`cargo build --release && cargo test -q`) runs
//! fully offline. This crate supplies the small, deterministic replacements
//! for what the seed previously pulled from crates.io:
//!
//! - [`rng`] — a seeded SplitMix64/xoshiro256** PRNG (replaces `rand`).
//! - [`json`] — a JSON value type, serializer, parser and derive-style
//!   macros (replaces `serde`/`serde_json`).
//! - [`prop`] — a deterministic, seed-reporting property-test harness
//!   (replaces `proptest`).
//! - [`bench`] — a micro-benchmark timer with a criterion-shaped API
//!   (replaces `criterion`).
//! - [`hist`] — a fixed-bucket [`Histogram`] for the tracing layer's
//!   distribution series (no external dependency ever existed for this;
//!   it lives here so every crate can record and serialize one).
//! - [`pool`] — the ordered worker pool every parallel harness (campaign,
//!   exploration, tenant mix) runs on: index-keyed merge, arrival-ordered
//!   callback, exact dispatch cap.
//!
//! Determinism contract: the PRNG algorithm and the property-harness seed
//! derivation are frozen. Changing either invalidates every golden-trace
//! snapshot in the workspace, so treat them as ABI.

#![forbid(unsafe_code)]

pub mod bench;
pub mod hist;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod strict;

pub use hist::Histogram;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::Rng;
pub use strict::check_unknown_fields;
