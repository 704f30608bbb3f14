//! Page eviction policies for GPU unified memory.
//!
//! This crate defines the [`EvictionPolicy`] trait through which the
//! simulator drives any eviction policy, plus the baseline policies the
//! paper compares HPE against (Section V-B):
//!
//! * [`Lru`] — least-recently-used over pages,
//! * [`RandomPolicy`] — uniform random victim,
//! * [`Lfu`] — least-frequently-used (related work, Section VI-B),
//! * [`Rrip`] — re-reference interval prediction, frequency-priority
//!   variant, *enhanced with the paper's delay field* to resist instant
//!   thrashing,
//! * [`ClockPro`] — CLOCK-Pro with the paper's fixed `m_c = 128`,
//! * [`Ideal`] — an offline Belady-MIN-like policy using a next-use oracle
//!   over the trace order (the paper's performance upper bound).
//!
//! Beyond the paper's comparison set, the related-work policies of
//! Section VI-B are also implemented so downstream studies can extend the
//! evaluation: [`Clock`] (second-chance), [`WsClock`] (working-set clock),
//! [`Bip`] / [`Dip`] (bimodal and dynamic insertion), [`ArcPolicy`]
//! (adaptive replacement), [`Car`] (CLOCK with adaptive replacement), and
//! [`SetLru`] (a control isolating HPE's page-set granularity).
//!
//! # Policy visibility model
//!
//! Following the paper's evaluation methodology, baseline policies run in
//! an *ideal model*: every page walk (hit or fault) updates their metadata
//! immediately, in exact reference order, at zero cost
//! ([`EvictionPolicy::on_walk_hit`] / [`EvictionPolicy::on_fault`]). The
//! [`Ideal`] policy additionally observes every access pre-TLB
//! ([`EvictionPolicy::on_access`]) so its oracle can advance. HPE (in the
//! `hpe-core` crate) implements the same trait but buffers walk hits in its
//! GPU-side HIR and reports the resulting PCIe traffic through
//! [`FaultOutcome`].
//!
//! # Examples
//!
//! ```
//! use uvm_policies::{EvictionPolicy, Lru};
//! use uvm_types::PageId;
//!
//! let mut lru = Lru::new();
//! lru.on_fault(PageId(1), 0);
//! lru.on_fault(PageId(2), 1);
//! lru.on_walk_hit(PageId(1)); // 1 becomes MRU
//! assert_eq!(lru.select_victim(), Some(PageId(2)));
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

mod arc;
mod car;
pub mod chain;
mod clock;
mod clockpro;
mod dip;
mod ideal;
mod lfu;
mod lru;
mod random;
mod rrip;
mod setlru;
mod window;
mod wsclock;

pub use arc::ArcPolicy;
pub use car::Car;
pub use clock::Clock;
pub use clockpro::{ClockPro, ClockProConfig};
pub use dip::{Bip, Dip};
pub use ideal::{Ideal, NextUseOracle};
pub use lfu::Lfu;
pub use lru::Lru;
pub use random::RandomPolicy;
pub use rrip::{Rrip, RripConfig, RripInsertion};
pub use setlru::SetLru;
pub use window::EvictionWindow;
pub use wsclock::{WsClock, WsClockConfig};

use uvm_types::{PageId, PolicyEvent, PolicyStats, SignalDisruption, StrategyTag};

/// Side effects of servicing a page fault, reported by the policy to the
/// simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultOutcome {
    /// Extra bytes the policy moved over PCIe while servicing this fault
    /// (HPE's HIR flush). The simulator converts this to cycles and adds it
    /// to execution time, as the paper does (Section V-B).
    pub transfer_bytes: u64,
    /// Extra host-CPU busy cycles spent on policy bookkeeping (HPE's chain
    /// update). Counted toward driver core load but *not* the critical
    /// path, matching Section V-C.
    pub driver_busy_cycles: u64,
    /// GPU-to-driver flushes sent while the channel was down: they never
    /// arrive. The engine's HIR circuit breaker counts these failures.
    pub lost_flushes: u32,
    /// PCIe bytes burned on those lost flushes (paid on the critical path
    /// like [`FaultOutcome::transfer_bytes`], but accounted separately as
    /// waste).
    pub wasted_transfer_bytes: u64,
}

/// A page eviction policy driven by the unified-memory fault driver.
///
/// Implementations maintain their own view of which pages are resident:
/// [`Self::on_fault`] makes a page resident, and a page returned from
/// [`Self::select_victim`] is immediately evicted (the policy must forget
/// it or remember it only as history). The simulator checks that victims
/// are actually resident.
pub trait EvictionPolicy {
    /// Human-readable policy name for reports ("LRU", "HPE", ...).
    fn name(&self) -> String;

    /// Observes one memory access *before* address translation.
    ///
    /// Only oracle-based policies ([`Ideal`]) need this; the default is a
    /// no-op.
    fn on_access(&mut self, _page: PageId) {}

    /// Observes a page walk that hit (the page is resident).
    fn on_walk_hit(&mut self, _page: PageId) {}

    /// Observes a serviced page fault: `page` is now resident. `fault_num`
    /// is the global page-fault sequence number (0-based).
    fn on_fault(&mut self, page: PageId, fault_num: u64) -> FaultOutcome;

    /// Notifies the policy that GPU memory has just reached capacity for
    /// the first time (HPE classifies the application here; Section IV-D).
    fn on_memory_full(&mut self) {}

    /// Selects a resident page to evict and forgets it. Returns `None` only
    /// if the policy believes nothing is resident.
    fn select_victim(&mut self) -> Option<PageId>;

    /// Notifies the policy of a disrupted or injected driver signal (see
    /// [`SignalDisruption`]). Robust policies use this to degrade
    /// gracefully; the default ignores every disruption.
    fn on_disruption(&mut self, _disruption: SignalDisruption) {}

    /// Snapshot of policy-side statistics.
    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }

    /// The strategy behind the victim [`Self::select_victim`] just
    /// returned. The simulator reads it right after each selection it
    /// records; it must be read-only. The default is
    /// [`StrategyTag::Native`], the policy's own replacement logic.
    fn victim_strategy(&self) -> StrategyTag {
        StrategyTag::Native
    }

    /// Enables or disables decision-event buffering.
    ///
    /// The simulator turns tracing on exactly while an enabled
    /// instrument is attached, so policies that implement it pay nothing
    /// on untraced runs. Tracing must be purely observational: enabling
    /// it must not change any decision or statistic. The default ignores
    /// the request (the policy emits no events).
    fn set_tracing(&mut self, _enabled: bool) {}

    /// Drains buffered decision events, oldest first, into `sink`.
    ///
    /// Called by the simulator after each policy interaction; the engine
    /// stamps each event with the current simulated cycle. The default
    /// drains nothing.
    fn drain_events(&mut self, _sink: &mut dyn FnMut(PolicyEvent)) {}

    /// Current fill of the policy's GPU-side hit-information buffer
    /// (HIR), in touched records; policies without one report 0.
    ///
    /// Read-only: the profiler's metrics registry samples this on a
    /// cycle cadence, so it must not change any decision or statistic.
    fn hir_fill(&self) -> u64 {
        0
    }

    /// Whether the policy is currently running in a degraded fallback
    /// mode (driver signals lost or undefined). Read-only, sampled by
    /// the profiler's metrics registry; the default never degrades.
    fn is_degraded(&self) -> bool {
        false
    }

    /// Validates the policy's internal structural invariants.
    ///
    /// Called by the simulator's opt-in sanitizer between events; it must
    /// be read-only (no decision or statistic may change). On a violation
    /// the implementation returns `Err` with a short description of what
    /// is inconsistent; the engine wraps it into
    /// `SimError::InvariantViolated` instead of panicking. The default
    /// claims nothing and always passes.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

impl<P: EvictionPolicy + ?Sized> EvictionPolicy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn on_access(&mut self, page: PageId) {
        (**self).on_access(page);
    }
    fn on_walk_hit(&mut self, page: PageId) {
        (**self).on_walk_hit(page);
    }
    fn on_fault(&mut self, page: PageId, fault_num: u64) -> FaultOutcome {
        (**self).on_fault(page, fault_num)
    }
    fn on_memory_full(&mut self) {
        (**self).on_memory_full();
    }
    fn select_victim(&mut self) -> Option<PageId> {
        (**self).select_victim()
    }
    fn on_disruption(&mut self, disruption: SignalDisruption) {
        (**self).on_disruption(disruption);
    }
    fn stats(&self) -> PolicyStats {
        (**self).stats()
    }
    fn victim_strategy(&self) -> StrategyTag {
        (**self).victim_strategy()
    }
    fn set_tracing(&mut self, enabled: bool) {
        (**self).set_tracing(enabled);
    }
    fn drain_events(&mut self, sink: &mut dyn FnMut(PolicyEvent)) {
        (**self).drain_events(sink);
    }
    fn hir_fill(&self) -> u64 {
        (**self).hir_fill()
    }
    fn is_degraded(&self) -> bool {
        (**self).is_degraded()
    }
    fn check_invariants(&self) -> Result<(), String> {
        (**self).check_invariants()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// Replays `refs` against `policy` with a memory of `capacity` pages,
    /// returning the number of faults (the miss count of the policy as a
    /// cache of `capacity` pages). This mimics the driver loop: on a miss
    /// when full, a victim is evicted first.
    pub fn replay(policy: &mut dyn EvictionPolicy, refs: &[u64], capacity: usize) -> u64 {
        let mut resident = std::collections::HashSet::new();
        let mut faults = 0u64;
        let mut notified_full = false;
        for &r in refs {
            let page = PageId(r);
            policy.on_access(page);
            if resident.contains(&page) {
                policy.on_walk_hit(page);
            } else {
                if resident.len() == capacity {
                    if !notified_full {
                        policy.on_memory_full();
                        notified_full = true;
                    }
                    let victim = policy.select_victim().expect("resident pages exist");
                    assert!(resident.remove(&victim), "victim {victim} not resident");
                }
                policy.on_fault(page, faults);
                resident.insert(page);
                faults += 1;
            }
        }
        faults
    }
}
