//! [`Traced`]: a wrapper adding decision events to any eviction policy.
//!
//! Baseline policies predate the tracing layer and carry no event
//! plumbing of their own. Wrapping one in [`Traced`] makes every victim
//! selection observable as a [`PolicyEvent::VictimSelected`] (with the
//! inner policy's comparison count and the victim's residency age in
//! faults) without touching the policy itself — residency bookkeeping is
//! only maintained while tracing is enabled, so an untraced `Traced<P>`
//! behaves and costs exactly like `P`.

use std::collections::HashMap;

use uvm_types::{PageId, PolicyEvent, PolicyStats, SignalDisruption, StrategyTag};

use crate::{EvictionPolicy, FaultOutcome};

/// Wraps an [`EvictionPolicy`], emitting a [`PolicyEvent::VictimSelected`]
/// for every eviction decision while tracing is enabled.
///
/// # Examples
///
/// ```
/// use uvm_policies::{EvictionPolicy, Lru, Traced};
/// use uvm_types::{PageId, PolicyEvent};
///
/// let mut p = Traced::new(Lru::new());
/// p.set_tracing(true);
/// p.on_fault(PageId(1), 0);
/// p.on_fault(PageId(2), 1);
/// assert_eq!(p.select_victim(), Some(PageId(1)));
/// let mut events = Vec::new();
/// p.drain_events(&mut |e| events.push(e));
/// assert!(matches!(
///     events[0],
///     PolicyEvent::VictimSelected { page: PageId(1), victim_age: 2, .. }
/// ));
/// ```
#[derive(Debug)]
pub struct Traced<P> {
    inner: P,
    tracing: bool,
    /// `fault_count` at which each resident page was inserted (tracing
    /// only; empty otherwise).
    resident_since: HashMap<PageId, u64>,
    /// `on_fault` calls seen while tracing: the clock victim ages are
    /// measured on. Not the caller's `fault_num`, which prefetched pages
    /// share with their demand fault.
    fault_count: u64,
    last_comparisons: u64,
    events: Vec<PolicyEvent>,
}

impl<P: EvictionPolicy> Traced<P> {
    /// Wraps `inner`. Tracing starts disabled.
    pub fn new(inner: P) -> Self {
        Traced {
            inner,
            tracing: false,
            resident_since: HashMap::new(),
            fault_count: 0,
            last_comparisons: 0,
            events: Vec::new(),
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps into the inner policy.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: EvictionPolicy> EvictionPolicy for Traced<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_access(&mut self, page: PageId) {
        self.inner.on_access(page);
    }

    fn on_walk_hit(&mut self, page: PageId) {
        self.inner.on_walk_hit(page);
    }

    fn on_fault(&mut self, page: PageId, fault_num: u64) -> FaultOutcome {
        if self.tracing {
            self.resident_since.insert(page, self.fault_count);
            self.fault_count += 1;
        }
        self.inner.on_fault(page, fault_num)
    }

    fn on_memory_full(&mut self) {
        self.inner.on_memory_full();
    }

    fn select_victim(&mut self) -> Option<PageId> {
        let victim = self.inner.select_victim()?;
        if self.tracing {
            let comparisons = self.inner.stats().search_comparisons;
            let spent = comparisons - self.last_comparisons;
            self.last_comparisons = comparisons;
            let victim_age = self
                .resident_since
                .remove(&victim)
                .map_or(0, |at| self.fault_count.saturating_sub(at));
            self.events.push(PolicyEvent::VictimSelected {
                page: victim,
                strategy: StrategyTag::Native,
                search_comparisons: spent,
                victim_age,
            });
        }
        Some(victim)
    }

    fn on_disruption(&mut self, disruption: SignalDisruption) {
        if let SignalDisruption::ForcedEviction { page } = disruption {
            self.resident_since.remove(&page);
        }
        self.inner.on_disruption(disruption);
    }

    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
        if !enabled {
            self.resident_since.clear();
            self.events.clear();
        }
        // Forward in case the inner policy has native events too.
        self.inner.set_tracing(enabled);
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(PolicyEvent)) {
        for e in self.events.drain(..) {
            sink(e);
        }
        self.inner.drain_events(sink);
    }

    fn hir_fill(&self) -> u64 {
        self.inner.hir_fill()
    }

    fn is_degraded(&self) -> bool {
        self.inner.is_degraded()
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lru, Rrip, RripConfig};

    #[test]
    fn untraced_wrapper_is_transparent() {
        let mut plain = Lru::new();
        let mut wrapped = Traced::new(Lru::new());
        for i in 0..8u64 {
            plain.on_fault(PageId(i), i);
            wrapped.on_fault(PageId(i), i);
        }
        assert_eq!(plain.select_victim(), wrapped.select_victim());
        assert_eq!(wrapped.name(), "LRU");
        let mut drained = 0;
        wrapped.drain_events(&mut |_| drained += 1);
        assert_eq!(drained, 0, "no events without tracing");
    }

    #[test]
    fn traced_victims_carry_age_and_comparisons() {
        let mut p = Traced::new(Rrip::new(RripConfig::default()));
        p.set_tracing(true);
        for i in 0..4u64 {
            p.on_fault(PageId(i), i);
        }
        let v1 = p.select_victim().unwrap();
        let v2 = p.select_victim().unwrap();
        let mut events = Vec::new();
        p.drain_events(&mut |e| events.push(e));
        assert_eq!(events.len(), 2);
        let pages: Vec<PageId> = events
            .iter()
            .map(|e| match *e {
                PolicyEvent::VictimSelected { page, .. } => page,
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(pages, vec![v1, v2]);
        // RRIP counts comparisons; each per-victim delta is nonzero.
        for e in &events {
            let PolicyEvent::VictimSelected {
                search_comparisons,
                victim_age,
                strategy,
                ..
            } = *e
            else {
                panic!("unexpected event")
            };
            assert!(search_comparisons > 0);
            assert!(victim_age <= 4);
            assert_eq!(strategy, StrategyTag::Native);
        }
        // Buffer is drained.
        let mut again = 0;
        p.drain_events(&mut |_| again += 1);
        assert_eq!(again, 0);
    }

    #[test]
    fn victim_age_counts_faults_not_fault_numbers() {
        // Prefetched pages ride on their demand fault's number, so one
        // `fault_num` arrives several times; ages count `on_fault` calls.
        let mut p = Traced::new(Lru::new());
        p.set_tracing(true);
        for (page, fault_num) in [(0, 0), (1, 1), (2, 1), (3, 1), (4, 2)] {
            p.on_fault(PageId(page), fault_num);
        }
        for _ in 0..3 {
            p.select_victim();
        }
        let mut ages = Vec::new();
        p.drain_events(&mut |e| {
            if let PolicyEvent::VictimSelected { victim_age, .. } = e {
                ages.push(victim_age);
            }
        });
        assert_eq!(ages, vec![5, 4, 3]);
    }

    #[test]
    fn disabling_tracing_clears_state() {
        let mut p = Traced::new(Lru::new());
        p.set_tracing(true);
        p.on_fault(PageId(1), 0);
        p.select_victim();
        p.set_tracing(false);
        let mut n = 0;
        p.drain_events(&mut |_| n += 1);
        assert_eq!(n, 0);
    }
}
