//! Cross-product integration test: every eviction policy on a
//! representative application per pattern type, at both oversubscription
//! rates, checking the engine/policy contract end to end.

use hpe::core::{Hpe, HpeConfig};
use hpe::policies::{
    ArcPolicy, Bip, Clock, ClockPro, ClockProConfig, Dip, EvictionPolicy, Lfu, Lru, RandomPolicy,
    Rrip, RripConfig, WsClock, WsClockConfig,
};
use hpe::sim::{audit, ideal_for, trace_for, Simulation};
use hpe::types::{Oversubscription, SimConfig, SimStats};
use hpe::workloads::registry;

fn policies() -> Vec<Box<dyn EvictionPolicy>> {
    let cfg = SimConfig::scaled_default();
    vec![
        Box::new(Lru::new()),
        Box::new(RandomPolicy::seeded(7)),
        Box::new(Lfu::new()),
        Box::new(Clock::new()),
        Box::new(WsClock::new(WsClockConfig::default())),
        Box::new(Rrip::new(RripConfig::default())),
        Box::new(Rrip::new(RripConfig::for_thrashing())),
        Box::new(ClockPro::new(ClockProConfig::default())),
        Box::new(Bip::new()),
        Box::new(Dip::new()),
        Box::new(ArcPolicy::new()),
        Box::new(Hpe::new(HpeConfig::from_sim(&cfg)).expect("valid HPE")),
    ]
}

fn check(abbr: &str, rate: Oversubscription) {
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr(abbr).expect("registered app");
    let trace = trace_for(&cfg, app);
    let capacity = rate.capacity_pages(app.footprint_pages());
    let distinct = trace.distinct_pages();

    let ideal: SimStats = Simulation::new(cfg.clone(), &trace, ideal_for(&trace), capacity)
        .expect("valid sim")
        .run()
        .expect("run completes")
        .stats;

    for policy in policies() {
        let name = policy.name();
        let stats = Simulation::new(cfg.clone(), &trace, policy, capacity)
            .expect("valid sim")
            .run()
            .expect("run completes")
            .stats;
        // Contract invariants, for every policy on every workload:
        if let Err(e) = audit(&stats, trace.total_ops(), capacity, None) {
            panic!("{abbr}/{name}: {e}");
        }
        assert!(
            stats.faults() >= distinct,
            "{abbr}/{name}: fewer faults than compulsory"
        );
        assert_eq!(
            stats.faults() - stats.evictions(),
            capacity.min(distinct),
            "{abbr}/{name}: residency conservation violated"
        );
        assert!(
            stats.faults() >= ideal.faults(),
            "{abbr}/{name}: beat Belady ({} < {})",
            stats.faults(),
            ideal.faults()
        );
        assert!(
            stats.cycles > 0 && stats.ipc() > 0.0,
            "{abbr}/{name}: no progress"
        );
    }
}

#[test]
fn matrix_type_i_streaming() {
    check("LEU", Oversubscription::Rate75);
}

#[test]
fn matrix_type_ii_thrashing() {
    check("STN", Oversubscription::Rate75);
    check("STN", Oversubscription::Rate50);
}

#[test]
fn matrix_type_iii_part_repetitive() {
    check("BKP", Oversubscription::Rate75);
}

#[test]
fn matrix_type_iv_most_repetitive() {
    check("MVT", Oversubscription::Rate50);
}

#[test]
fn matrix_type_v_repetitive_thrashing() {
    check("HIS", Oversubscription::Rate75);
}

#[test]
fn matrix_type_vi_region_moving() {
    check("B+T", Oversubscription::Rate50);
}
