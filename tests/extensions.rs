//! Integration tests for the extension features: the workload builder,
//! simulation instruments, prefetching, and fault batching — exercised
//! through the full public API.

use std::collections::{HashMap, VecDeque};
use std::num::NonZeroU64;

use hpe::core::{Hpe, HpeConfig};
use hpe::policies::{EvictionPolicy, FaultOutcome, Lru, Rrip, RripConfig};
use hpe::sim::{EventCounters, EventLog, IntervalKey, IntervalSeries, SimEvent, Simulation};
use hpe::types::{Oversubscription, PageId, SimConfig, StrategyTag};
use hpe::workloads::{registry, WorkloadBuilder};

#[test]
fn custom_workload_runs_end_to_end() {
    let cfg = SimConfig::scaled_default();
    let workload = WorkloadBuilder::new("stencil-like")
        .region("grid", 512)
        .region("halo", 64)
        .stream("halo")
        .unwrap()
        .sweeps("grid", 4)
        .unwrap()
        .build()
        .unwrap();
    let trace = workload.trace(cfg.n_sms * cfg.warps_per_sm, 2, 3);
    let capacity = workload.footprint_pages() * 3 / 4;
    let lru = Simulation::new(cfg.clone(), &trace, Lru::new(), capacity)
        .unwrap()
        .run()
        .expect("run completes")
        .stats;
    let hpe = Simulation::new(
        cfg.clone(),
        &trace,
        Hpe::new(HpeConfig::from_sim(&cfg)).unwrap(),
        capacity,
    )
    .unwrap()
    .run()
    .expect("run completes")
    .stats;
    // A cyclic-sweep composite behaves like type II: HPE clearly ahead.
    assert!(
        hpe.faults() < lru.faults(),
        "HPE {} !< LRU {}",
        hpe.faults(),
        lru.faults()
    );
}

#[test]
fn observer_timeline_matches_statistics_for_hpe() {
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr("STN").unwrap();
    let trace = hpe::sim::trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let sim = Simulation::new(
        cfg.clone(),
        &trace,
        Hpe::new(HpeConfig::from_sim(&cfg)).unwrap(),
        capacity,
    )
    .unwrap();
    let outcome = sim
        .instrument(EventLog::new())
        .run()
        .expect("run completes");
    let log = &outcome.instrument;
    let counters = EventCounters::of(log);
    assert_eq!(counters.faults_raised, outcome.stats.faults());
    assert_eq!(counters.evictions, outcome.stats.evictions());
    // MemoryFull is recorded once, before the first eviction.
    let full_at = log
        .iter()
        .find_map(|e| match e {
            SimEvent::MemoryFull { time } => Some(*time),
            _ => None,
        })
        .expect("memory fills");
    let first_eviction = log
        .iter()
        .find_map(|e| match e {
            SimEvent::Eviction { time, .. } => Some(*time),
            _ => None,
        })
        .expect("evictions happen");
    assert!(full_at <= first_eviction);
    // The fault-rate series is front-loaded for a thrashing app at 75%:
    // some faults happen in every phase of execution.
    let tenth = NonZeroU64::new(outcome.stats.cycles / 10 + 1).unwrap();
    let series = IntervalSeries::of(log, IntervalKey::Cycles(tenth));
    assert!(series.rows().iter().filter(|r| r.faults > 0).count() >= 8);
}

#[test]
fn prefetch_and_batching_compose() {
    let app = registry::by_abbr("LEU").unwrap();
    let mut cfg = SimConfig::scaled_default();
    cfg.prefetch_pages = 4;
    cfg.fault_batch = 8;
    let trace = hpe::sim::trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let stats = Simulation::new(cfg, &trace, Lru::new(), capacity)
        .unwrap()
        .run()
        .expect("run completes")
        .stats;
    // Everything still adds up with both features on.
    let inserted = stats.faults() + stats.driver.prefetched_pages;
    assert!(inserted >= app.footprint_pages());
    assert_eq!(inserted - stats.evictions(), capacity);
    assert!(stats.driver.prefetched_pages > 0);
}

/// STN at 75% with four prefetched pages per fault, run under `policy`
/// (unwrapped) with an `EventLog`.
fn stn_prefetch_log(policy: impl FnOnce(&SimConfig) -> Box<dyn EvictionPolicy>) -> EventLog {
    let mut cfg = SimConfig::scaled_default();
    cfg.prefetch_pages = 4;
    let app = registry::by_abbr("STN").unwrap();
    let trace = hpe::sim::trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let policy = policy(&cfg);
    let sim = Simulation::new(cfg, &trace, policy, capacity).unwrap();
    sim.instrument(EventLog::new()).run().unwrap().instrument
}

/// Checks that each `VictimSelected` in `log` immediately precedes the
/// `Eviction` of its page, and that its age counts the pages that landed
/// (`FaultServiced`) since the victim did. Returns the victim count.
fn check_victims_against_service_order(log: &[SimEvent]) -> u64 {
    let (mut landed, mut landed_at) = (0u64, HashMap::new());
    let mut victims = 0;
    for (i, e) in log.iter().enumerate() {
        match *e {
            SimEvent::FaultServiced { page, .. } => {
                landed_at.insert(page, landed);
                landed += 1;
            }
            SimEvent::VictimSelected {
                page, victim_age, ..
            } => {
                victims += 1;
                assert_eq!(victim_age, landed - landed_at[&page], "victim {page}");
                assert!(
                    matches!(log.get(i + 1), Some(SimEvent::Eviction { page: p, .. }) if *p == page),
                    "VictimSelected {page} is not followed by its Eviction"
                );
            }
            SimEvent::Eviction { page, .. } => assert!(
                matches!(log[..i].last(), Some(SimEvent::VictimSelected { page: p, .. }) if *p == page),
                "Eviction {page} has no VictimSelected just before it"
            ),
            _ => {}
        }
    }
    victims
}

#[test]
fn traced_victim_ages_follow_service_order_under_prefetch() {
    // Prefetched pages share their demand fault's number; victim ages
    // must still count pages made resident since the victim landed. The
    // engine records them for bare baselines and HPE alike.
    for log in [
        stn_prefetch_log(|_| Box::new(Lru::new())),
        stn_prefetch_log(|_| Box::new(Rrip::new(RripConfig::default()))),
        stn_prefetch_log(|cfg| Box::new(Hpe::new(HpeConfig::from_sim(cfg)).unwrap())),
    ] {
        let victims = check_victims_against_service_order(&log);
        let counters = EventCounters::of(&log);
        assert!(victims > 0 && counters.faults_serviced > counters.faults_raised);
        assert_eq!(victims, counters.evictions);
    }
}

/// First in, first out: a policy written outside the workspace, with no
/// event code of its own.
#[derive(Default)]
struct Fifo {
    queue: VecDeque<PageId>,
}

impl EvictionPolicy for Fifo {
    fn name(&self) -> String {
        "FIFO".into()
    }

    fn on_fault(&mut self, page: PageId, _fault_num: u64) -> FaultOutcome {
        self.queue.push_back(page);
        FaultOutcome::default()
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.queue.pop_front()
    }
}

#[test]
fn engine_records_the_victims_of_an_unwrapped_custom_policy() {
    let log = stn_prefetch_log(|_| Box::new(Fifo::default()));
    let victims = check_victims_against_service_order(&log);
    let counters = EventCounters::of(&log);
    assert!(counters.evictions > 0);
    assert_eq!(
        victims, counters.evictions,
        "one VictimSelected per eviction"
    );
    assert!(log.iter().all(|e| !matches!(
        e,
        SimEvent::VictimSelected { strategy, search_comparisons, .. }
            if *strategy != StrategyTag::Native || *search_comparisons != 0
    )));
}

#[test]
fn detaching_the_instrument_turns_policy_tracing_off() {
    // Moving a run from an EventLog back to `()` must stop the policy
    // buffering decision events that nothing would ever drain.
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr("STN").unwrap();
    let trace = hpe::sim::trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let hpe = Hpe::new(HpeConfig::from_sim(&cfg)).unwrap();
    let mut outcome = Simulation::new(cfg, &trace, hpe, capacity)
        .unwrap()
        .instrument(EventLog::new())
        .instrument(())
        .run()
        .unwrap();
    let mut left = 0u64;
    outcome.policy.drain_events(&mut |_| left += 1);
    assert_eq!(left, 0, "undrained policy events after the run");
}

#[test]
fn builder_workload_classifies_sensibly() {
    // A histogram-like composite should classify irregular#2 like HIS.
    let cfg = SimConfig::scaled_default();
    let workload = WorkloadBuilder::new("histo-like")
        .seed(11)
        .region("bins", 512)
        .region("input", 1024)
        .stream("bins")
        .unwrap()
        .hot_mix("input", "bins", 8, 3)
        .unwrap()
        .hot_mix("input", "bins", 8, 3)
        .unwrap()
        .build()
        .unwrap();
    let trace = workload.trace(cfg.n_sms * cfg.warps_per_sm, 2, 3);
    let capacity = workload.footprint_pages() * 3 / 4;
    let outcome = Simulation::new(
        cfg.clone(),
        &trace,
        Hpe::new(HpeConfig::from_sim(&cfg)).unwrap(),
        capacity,
    )
    .unwrap()
    .run()
    .expect("run completes");
    let c = outcome.policy.classification().expect("memory fills");
    assert!(
        c.ratio1 > 0.5,
        "hot-bin composite should have irregular counters, ratio1 {}",
        c.ratio1
    );
}
