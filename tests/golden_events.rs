//! Golden event-stream tests.
//!
//! Companion to `golden_trace.rs`: where that file pins the final
//! `SimStats` of each policy, this one pins a digest of the *event
//! stream* the tracing layer emits for the same fixture (STN at 75%
//! oversubscription, `scaled_default`). The digest covers the event
//! count per kind plus the first and last timestamps, so any change to
//! event emission sites, ordering of the head/tail, or policy-decision
//! instrumentation shows up here even when the aggregate stats stay
//! unchanged.
//!
//! Each policy runs twice: the two digests must match each other
//! (stream determinism) and the pinned snapshot. Re-pin intentional
//! changes from the "actual" string in the failure message.

use std::collections::BTreeMap;

use hpe::core::{Hpe, HpeConfig};
use hpe::policies::{ClockPro, ClockProConfig, EvictionPolicy, Lru, Rrip, RripConfig};
use hpe::sim::{trace_for, EventLog, FallbackVictim, FaultPlan, SimEvent, Simulation};
use hpe::types::{Oversubscription, SimConfig};
use hpe::workloads::registry;

const APP: &str = "STN";

fn digest(events: &[SimEvent]) -> String {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in events {
        *counts.entry(e.kind()).or_insert(0) += 1;
    }
    let first = events.first().map_or(0, |e| e.time());
    let last = events.last().map_or(0, |e| e.time());
    let kinds: Vec<String> = counts.iter().map(|(k, n)| format!("{k}={n}")).collect();
    format!(
        "n={} first={} last={} {}",
        events.len(),
        first,
        last,
        kinds.join(" ")
    )
}

fn run_digest(
    make: &dyn Fn(&SimConfig) -> Box<dyn EvictionPolicy>,
    plan: Option<&FaultPlan>,
) -> String {
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr(APP).expect("registered app");
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let mut sim = Simulation::new(cfg.clone(), &trace, make(&cfg), capacity).expect("valid sim");
    sim.set_resilience(plan.cloned(), None, FallbackVictim::MinPage)
        .expect("valid plan");
    let log = sim
        .instrument(EventLog::new())
        .run()
        .expect("run completes");
    digest(&log.instrument)
}

fn golden_with_plan(
    name: &str,
    make: &dyn Fn(&SimConfig) -> Box<dyn EvictionPolicy>,
    plan: Option<&FaultPlan>,
    pinned: &str,
) {
    let first = run_digest(make, plan);
    let second = run_digest(make, plan);
    assert_eq!(first, second, "{name}: event streams of two runs diverged");
    assert_eq!(
        first, pinned,
        "{name}: event digest drifted from the pinned snapshot.\nactual: {first}"
    );
}

fn golden(name: &str, make: &dyn Fn(&SimConfig) -> Box<dyn EvictionPolicy>, pinned: &str) {
    golden_with_plan(name, make, None, pinned);
}

#[test]
fn golden_events_lru() {
    golden(
        "LRU",
        &|_| Box::new(Lru::new()),
        "n=26497 first=0 last=129024000 Eviction=4032 FaultRaised=4608 FaultServiced=4608 MemoryFull=1 PageWalk=9216 VictimSelected=4032",
    );
}

#[test]
fn golden_events_rrip() {
    golden(
        "RRIP",
        &|_| Box::new(Rrip::new(RripConfig::default())),
        // Identical to LRU's digest: on this fixture RRIP also faults on
        // every access and never evicts wrongly. Its comparison counts
        // differ, but they ride in the VictimSelected fields, which the
        // digest does not read.
        "n=26497 first=0 last=129024000 Eviction=4032 FaultRaised=4608 FaultServiced=4608 MemoryFull=1 PageWalk=9216 VictimSelected=4032",
    );
}

#[test]
fn golden_events_clockpro() {
    golden(
        "CLOCK-Pro",
        &|_| Box::new(ClockPro::new(ClockProConfig::default())),
        "n=26945 first=0 last=129024000 Eviction=4032 FaultRaised=4608 FaultServiced=4608 MemoryFull=1 PageWalk=9216 VictimSelected=4032 WrongEviction=448",
    );
}

#[test]
fn golden_events_hpe() {
    golden(
        "HPE",
        &|cfg| Box::new(Hpe::new(HpeConfig::from_sim(cfg)).expect("valid HPE")),
        // HPE is the only policy here with decision events of its own:
        // HirFlush batches (VictimSelected comes from the engine, as for
        // every policy).
        "n=16664 first=0 last=70784892 Eviction=1952 FaultRaised=2528 FaultServiced=2528 HirFlush=158 MemoryFull=1 PageWalk=7136 VictimSelected=1952 WrongEviction=409",
    );
}

#[test]
fn golden_events_hpe_degraded() {
    // The same fixture under the seeded `signal_chaos` plan: periodic HIR
    // outages force HPE into its degraded LRU fallback and back, which
    // must show up as StrategySwitch events (Degraded transitions) in a
    // reproducible stream. Re-pin from "actual" on intentional changes to
    // injection or degradation logic.
    golden_with_plan(
        "HPE/signal-chaos",
        &|cfg| Box::new(Hpe::new(HpeConfig::from_sim(cfg)).expect("valid HPE")),
        Some(&FaultPlan::signal_chaos(2019)),
        "n=11362 first=0 last=47600451 Eviction=1124 FaultRaised=1700 FaultServiced=1700 HirFlush=60 MemoryFull=1 PageWalk=5345 StrategySwitch=7 VictimSelected=1124 WrongEviction=301",
    );
}

#[test]
fn degraded_run_emits_degraded_strategy_switches() {
    use hpe::types::StrategyTag;

    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr(APP).expect("registered app");
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let hpe = Hpe::new(HpeConfig::from_sim(&cfg)).expect("valid HPE");
    let mut sim = Simulation::new(
        cfg,
        &trace,
        Box::new(hpe) as Box<dyn EvictionPolicy>,
        capacity,
    )
    .expect("valid sim");
    let plan = Some(FaultPlan::signal_chaos(2019));
    sim.set_resilience(plan, None, FallbackVictim::MinPage)
        .expect("valid plan");
    let events = sim
        .instrument(EventLog::new())
        .run()
        .expect("run completes")
        .instrument;
    let mut into_degraded = 0u32;
    let mut out_of_degraded = 0u32;
    for e in &events {
        if let SimEvent::StrategySwitch { from, to, .. } = *e {
            into_degraded += u32::from(to == StrategyTag::Degraded);
            out_of_degraded += u32::from(from == StrategyTag::Degraded);
        }
    }
    assert!(
        into_degraded > 0,
        "signal-chaos must push HPE into degraded mode at least once"
    );
    assert!(
        out_of_degraded > 0,
        "HPE must recover from degraded mode once the HIR channel returns"
    );
}
