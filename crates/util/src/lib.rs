//! `uvm-util`: the hermetic utility layer for the HPE workspace.
//!
//! Every crate in this workspace builds with **zero external dependencies**
//! so the tier-1 verify (`cargo build --release && cargo test -q`) runs
//! fully offline. This crate supplies the small, deterministic replacements
//! for what the seed previously pulled from crates.io:
//!
//! - [`rng`] — a seeded SplitMix64/xoshiro256** PRNG (replaces `rand`).
//! - [`json`](mod@json) — a JSON value type, serializer, parser and derive-style
//!   macros (replaces `serde`/`serde_json`).
//! - [`prop`] — a deterministic, seed-reporting property-test harness
//!   (replaces `proptest`).
//! - [`bench`](mod@bench) — a micro-benchmark timer with a criterion-shaped API
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
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type
)]

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

/// 64-bit FNV-1a: the workspace's digest for fingerprints and pins.
/// It catches accidental drift; collision resistance is not a goal.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
