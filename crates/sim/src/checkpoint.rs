//! Deterministic mid-run snapshots of a simulation.
//!
//! The engine's determinism contract (same inputs + same seeds → a
//! byte-identical run) makes checkpointing cheap: instead of serializing
//! every queue, TLB and policy structure, a [`Checkpoint`] records *where*
//! the run was paused plus enough state fingerprints to prove a resumed
//! run reconstructed the identical machine. `Simulation::resume` replays
//! the same inputs up to [`Checkpoint::cycle`], regenerates the snapshot,
//! and byte-compares the two JSON forms; any mismatch (different trace,
//! config, policy or fault plan) surfaces as
//! [`uvm_types::SimError::CheckpointDiverged`] instead of silently
//! producing a different run.
//!
//! The most sensitive hidden state is carried explicitly so divergence
//! cannot hide: the fault plan's RNG words (every injected perturbation
//! depends on the exact stream position), the completion-loss streak, the
//! HIR channel and circuit-breaker state, and the driver's retry-attempt
//! counter.
//!
//! # Examples
//!
//! ```
//! use uvm_sim::Checkpoint;
//! use uvm_util::{FromJson, ToJson};
//!
//! let ckpt = Checkpoint::default();
//! let text = ckpt.to_json().to_string();
//! let back = Checkpoint::from_json(&uvm_util::Json::parse(&text).unwrap()).unwrap();
//! assert_eq!(back.to_json().to_string(), text);
//! ```

use uvm_types::SimStats;
use uvm_util::impl_json_struct;

/// A snapshot of a paused simulation, taken by `Simulation::checkpoint`
/// after `Simulation::run_until` returned without completing.
///
/// Serializes to deterministic JSON (insertion-ordered keys); two
/// checkpoints of the same machine state are byte-identical, which is
/// exactly how `Simulation::resume` verifies a resumed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The cycle limit the run was paused at (`run_until`'s argument).
    /// Resuming replays events with `time <= cycle` — replaying to
    /// `now` instead would be wrong, as later events below the limit may
    /// already have been processed.
    pub cycle: u64,
    /// Simulated clock of the last processed event (`<= cycle`).
    pub now: u64,
    /// Statistics at the pause (policy counters not yet folded in; they
    /// are folded only when a run finishes).
    pub stats: SimStats,
    /// xoshiro256** state words of the fault plan's RNG stream (empty
    /// when no plan is installed).
    pub fault_rng: Vec<u64>,
    /// Consecutive completion losses for the in-service fault.
    pub fault_lost_in_row: u32,
    /// Whether the injected HIR outage was active at the pause.
    pub hir_down: bool,
    /// HIR circuit-breaker failure count.
    pub breaker_failures: u32,
    /// Whether the HIR circuit breaker was open.
    pub breaker_open: bool,
    /// Backoff attempts made for the in-service fault's completion.
    pub completion_attempts: u32,
    /// Event sequence counter (total events ever scheduled).
    pub next_seq: u64,
    /// Warps still running.
    pub live_warps: u64,
    /// Pages resident in GPU memory.
    pub resident_pages: u64,
    /// Pages mid-migration.
    pub in_flight: u64,
    /// Faults waiting in the driver queue.
    pub queue_len: u64,
    /// Pages tracked by the LRU fallback shadow (0 unless enabled).
    pub shadow_pages: u64,
    /// Logical clock of the LRU fallback shadow.
    pub shadow_clock: u64,
    /// Outcome bits of the adaptive-retry loss estimator (0 unless
    /// `RetryPolicy::Adaptive` is installed).
    pub loss_bits: u64,
    /// Outcomes the adaptive-retry loss estimator has observed.
    pub loss_len: u32,
}

impl_json_struct!(Checkpoint {
    cycle = 0,
    now = 0,
    stats = SimStats::default(),
    fault_rng = Vec::new(),
    fault_lost_in_row = 0,
    hir_down = false,
    breaker_failures = 0,
    breaker_open = false,
    completion_attempts = 0,
    next_seq = 0,
    live_warps = 0,
    resident_pages = 0,
    in_flight = 0,
    queue_len = 0,
    shadow_pages = 0,
    shadow_clock = 0,
    loss_bits = 0,
    loss_len = 0,
});

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_util::{FromJson, Json, ToJson};

    #[test]
    fn json_roundtrip_is_byte_identical() {
        let ckpt = Checkpoint {
            cycle: 1_000_000,
            now: 999_972,
            stats: SimStats {
                cycles: 999_972,
                instructions: 1234,
                ..SimStats::default()
            },
            fault_rng: vec![1, 2, 3, 4],
            fault_lost_in_row: 2,
            hir_down: true,
            breaker_failures: 1,
            breaker_open: false,
            completion_attempts: 3,
            next_seq: 500,
            live_warps: 6,
            resident_pages: 576,
            in_flight: 1,
            queue_len: 4,
            shadow_pages: 576,
            shadow_clock: 4_000,
            loss_bits: 0b1011,
            loss_len: 4,
        };
        let text = ckpt.to_json().to_string();
        let back = Checkpoint::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn sparse_json_fills_defaults() {
        let sparse = Json::parse(r#"{"cycle": 42, "fault_rng": [9]}"#).unwrap();
        let c = Checkpoint::from_json(&sparse).unwrap();
        assert_eq!(c.cycle, 42);
        assert_eq!(c.fault_rng, vec![9]);
        assert_eq!(c.stats, SimStats::default());
        assert!(!c.hir_down);
    }
}
