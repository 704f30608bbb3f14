//! `Timed<P>`: host time per eviction-policy callback, measured from
//! outside the policy through the public `EvictionPolicy` trait.

use std::hint::black_box;
use std::time::{Duration, Instant};

use uvm_policies::{EvictionPolicy, FaultOutcome};
use uvm_types::{PageId, PolicyEvent, PolicyStats, SignalDisruption};

/// The timed callbacks, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// `select_victim`: the victim search.
    SelectVictim,
    /// `on_fault`: insertion (HPE: HIR flush, chain update, adjustment).
    OnFault,
    /// `on_walk_hit`: recency update on a resident page walk.
    OnWalkHit,
    /// `on_access`: the pre-translation hook (only Ideal's oracle uses it).
    OnAccess,
    /// `on_memory_full`: first-fill notification (HPE classifies here).
    OnMemoryFull,
}

impl Callback {
    /// Every callback, indexed by `as usize`.
    pub const ALL: [Callback; 5] = [
        Callback::SelectVictim,
        Callback::OnFault,
        Callback::OnWalkHit,
        Callback::OnAccess,
        Callback::OnMemoryFull,
    ];

    /// The trait method's name.
    pub fn label(self) -> &'static str {
        match self {
            Callback::SelectVictim => "select_victim",
            Callback::OnFault => "on_fault",
            Callback::OnWalkHit => "on_walk_hit",
            Callback::OnAccess => "on_access",
            Callback::OnMemoryFull => "on_memory_full",
        }
    }
}

/// Calls and summed host nanoseconds of one callback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds measured inside the spans.
    pub ns: u64,
}

impl Acc {
    fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.ns += d.as_nanos() as u64;
    }

    /// Adds another accumulator.
    pub fn merge(&mut self, other: Acc) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Wraps a policy and accumulates `(calls, ns)` per [`Callback`]. Every
/// trait method forwards to the wrapped policy unchanged, so a run under
/// `Timed<P>` makes the same decisions and the same `SimStats` as one
/// under `P`; the benchmark checks this on every traced cell.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    acc: [Acc; 5],
}

impl<P> Timed<P> {
    /// Wraps `inner` with zeroed accumulators.
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            acc: [Acc::default(); 5],
        }
    }

    /// The accumulators, indexed by [`Callback`].
    pub fn acc(&self) -> [Acc; 5] {
        self.acc
    }

    fn time<R>(&mut self, cb: Callback, f: impl FnOnce(&mut P) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        self.acc[cb as usize].add(start.elapsed());
        r
    }
}

impl<P: EvictionPolicy> EvictionPolicy for Timed<P> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_access(&mut self, page: PageId) {
        self.time(Callback::OnAccess, |p| p.on_access(page));
    }
    fn on_walk_hit(&mut self, page: PageId) {
        self.time(Callback::OnWalkHit, |p| p.on_walk_hit(page));
    }
    fn on_fault(&mut self, page: PageId, fault_num: u64) -> FaultOutcome {
        self.time(Callback::OnFault, |p| p.on_fault(page, fault_num))
    }
    fn on_memory_full(&mut self) {
        self.time(Callback::OnMemoryFull, |p| p.on_memory_full());
    }
    fn select_victim(&mut self) -> Option<PageId> {
        self.time(Callback::SelectVictim, |p| p.select_victim())
    }
    fn on_disruption(&mut self, disruption: SignalDisruption) {
        self.inner.on_disruption(disruption);
    }
    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
    fn set_tracing(&mut self, enabled: bool) {
        self.inner.set_tracing(enabled);
    }
    fn drain_events(&mut self, sink: &mut dyn FnMut(PolicyEvent)) {
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

/// The measured cost of the timing itself.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// Wall nanoseconds one empty span adds to the code around it.
    pub outside_ns: f64,
    /// Nanoseconds one empty span reports about itself.
    pub inside_ns: f64,
}

/// Calibrates [`TimerCost`] on empty spans: the median over batches, so a
/// preempted batch does not skew it.
pub fn calibrate() -> TimerCost {
    const SPANS: u32 = 100_000;
    let mut outside = Vec::new();
    let mut inside = Vec::new();
    for _ in 0..9 {
        let mut timed = Timed::new(());
        let start = Instant::now();
        for _ in 0..SPANS {
            timed.time(Callback::OnAccess, |p| {
                black_box(p);
            });
        }
        outside.push(start.elapsed().as_nanos() as f64 / f64::from(SPANS));
        inside.push(timed.acc[Callback::OnAccess as usize].ns as f64 / f64::from(SPANS));
    }
    TimerCost {
        outside_ns: crate::stats::median(&outside),
        inside_ns: crate::stats::median(&inside),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{build_policy, WithPolicy};
    use hpe_bench::{bench_config, PolicyKind};
    use uvm_sim::Simulation;
    use uvm_types::{SimConfig, SimError, SimStats};
    use uvm_workloads::{registry, Trace};

    const CAPACITY: u64 = 24;

    /// Runs the policy on `trace`, wrapped in `Timed` or not.
    struct Run<'a> {
        cfg: &'a SimConfig,
        trace: &'a Trace,
        timed: bool,
    }

    impl WithPolicy for Run<'_> {
        type Output = (SimStats, [Acc; 5]);
        fn call<P: EvictionPolicy>(self, policy: P, _: Duration) -> Result<Self::Output, SimError> {
            let cfg = self.cfg.clone();
            if self.timed {
                let out = Simulation::new(cfg, self.trace, Timed::new(policy), CAPACITY)?.run()?;
                Ok((out.stats, out.policy.acc()))
            } else {
                let out = Simulation::new(cfg, self.trace, policy, CAPACITY)?.run()?;
                Ok((out.stats, [Acc::default(); 5]))
            }
        }
    }

    #[test]
    fn timed_only_observes_every_policy() {
        let cfg = bench_config();
        // A tiny loop over 40 pages on 8 warps, run at 24 resident pages:
        // enough for evictions, walk hits and a first memory-full.
        let global: Vec<u64> = (0..600u64).map(|i| (i * 7 + i / 40) % 40).collect();
        let trace = Trace::from_global(&global, 40, 2, 8, 2);
        let app = registry::by_abbr("STN").expect("STN is registered");
        for kind in PolicyKind::ALL {
            let run = |timed| {
                let visitor = Run {
                    cfg: &cfg,
                    trace: &trace,
                    timed,
                };
                build_policy(&cfg, app, &trace, kind, visitor).expect("tiny run completes")
            };
            let (plain, _) = run(false);
            let (timed, acc) = run(true);
            assert_eq!(plain, timed, "{} changed under Timed", kind.label());
            assert!(plain.evictions() > 0, "{} never evicted", kind.label());
            let calls = |cb: Callback| acc[cb as usize].calls;
            assert_eq!(calls(Callback::SelectVictim), plain.policy.selections);
            assert_eq!(calls(Callback::OnAccess), plain.mem_accesses);
            assert_eq!(calls(Callback::OnMemoryFull), 1);
            assert_eq!(
                calls(Callback::OnFault),
                plain.driver.faults_serviced + plain.driver.prefetched_pages
            );
        }
    }

    #[test]
    fn calibration_is_positive() {
        let cost = calibrate();
        assert!(cost.outside_ns > 0.0 && cost.inside_ns >= 0.0);
    }
}
