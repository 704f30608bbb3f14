//! Integration tests asserting the paper's qualitative result shapes on
//! the full stack (workloads -> simulator -> policies).

use hpe::core::{Hpe, HpeConfig};
use hpe::policies::{EvictionPolicy, Lru};
use hpe::sim::{audit, ideal_for, trace_for, Simulation};
use hpe::types::{Oversubscription, SimConfig, SimStats};
use hpe::workloads::{registry, Trace};

fn cfg() -> SimConfig {
    SimConfig::scaled_default()
}

/// Runs `abbr` at `rate` under the policy `make` builds for its trace,
/// and audits the run's accounting identities.
fn run<P: EvictionPolicy>(
    abbr: &str,
    rate: Oversubscription,
    make: impl FnOnce(&Trace) -> P,
) -> SimStats {
    let app = registry::by_abbr(abbr).expect("registered app");
    let c = cfg();
    let trace = trace_for(&c, app);
    let capacity = rate.capacity_pages(app.footprint_pages());
    let stats = Simulation::new(c, &trace, make(&trace), capacity)
        .expect("valid sim")
        .run()
        .expect("run completes")
        .stats;
    audit(&stats, trace.total_ops(), capacity, None).expect("accounting identities hold");
    stats
}

fn run_lru(abbr: &str, rate: Oversubscription) -> SimStats {
    run(abbr, rate, |_| Lru::new())
}

fn run_hpe(abbr: &str, rate: Oversubscription) -> SimStats {
    run(abbr, rate, |_| {
        Hpe::new(HpeConfig::from_sim(&cfg())).unwrap()
    })
}

fn run_ideal(abbr: &str, rate: Oversubscription) -> SimStats {
    run(abbr, rate, ideal_for)
}

#[test]
fn hpe_beats_lru_on_thrashing_apps() {
    // The paper's headline: large gains on type II (Fig. 10).
    for abbr in ["SRD", "HSD", "MRQ", "STN"] {
        let lru = run_lru(abbr, Oversubscription::Rate75);
        let hpe = run_hpe(abbr, Oversubscription::Rate75);
        assert!(
            (hpe.faults() as f64) < 0.8 * lru.faults() as f64,
            "{abbr}: HPE {} faults vs LRU {} — expected a large reduction",
            hpe.faults(),
            lru.faults()
        );
        assert!(
            hpe.cycles < lru.cycles,
            "{abbr}: HPE should finish faster than LRU"
        );
    }
}

#[test]
fn hpe_matches_lru_on_lru_friendly_apps() {
    // Types I and VI: HPE performs similarly to LRU (within ~15%).
    for abbr in ["HOT", "LEU", "2DC", "B+T", "HYB"] {
        let lru = run_lru(abbr, Oversubscription::Rate75);
        let hpe = run_hpe(abbr, Oversubscription::Rate75);
        let ratio = hpe.cycles as f64 / lru.cycles as f64;
        assert!(
            ratio < 1.15,
            "{abbr}: HPE {:.2}x LRU cycles — should be near parity",
            ratio
        );
    }
}

#[test]
fn ideal_lower_bounds_every_policy_on_evictions() {
    for abbr in ["SRD", "BFS", "GEM", "NW", "HIS"] {
        let ideal = run_ideal(abbr, Oversubscription::Rate75);
        for (name, stats) in [
            ("LRU", run_lru(abbr, Oversubscription::Rate75)),
            ("HPE", run_hpe(abbr, Oversubscription::Rate75)),
        ] {
            assert!(
                ideal.evictions() <= stats.evictions() + 16,
                "{abbr}: Ideal evicted {} but {name} evicted {}",
                ideal.evictions(),
                stats.evictions()
            );
        }
    }
}

#[test]
fn oversubscription_50_is_harder_than_75() {
    for abbr in ["SRD", "GEM", "BFS"] {
        let f75 = run_lru(abbr, Oversubscription::Rate75).faults();
        let f50 = run_lru(abbr, Oversubscription::Rate50).faults();
        assert!(
            f50 >= f75,
            "{abbr}: 50% rate should fault at least as much as 75% ({f50} vs {f75})"
        );
    }
}

#[test]
fn streaming_apps_fault_compulsory_only() {
    // Type I single-pass workloads miss only on first touch, independent
    // of the policy: eviction choice cannot matter when nothing is reused.
    for abbr in ["LEU", "2DC"] {
        let app = registry::by_abbr(abbr).unwrap();
        let lru = run_lru(abbr, Oversubscription::Rate75);
        assert_eq!(lru.faults(), app.footprint_pages());
        let hpe = run_hpe(abbr, Oversubscription::Rate75);
        assert_eq!(hpe.faults(), app.footprint_pages());
    }
}

#[test]
fn accounting_invariant_faults_evictions_capacity() {
    // Every serviced fault migrates one page in; evictions are the only
    // way out. So faults - evictions = pages resident at the end.
    for abbr in ["HSD", "NW", "HIS", "B+T"] {
        let app = registry::by_abbr(abbr).unwrap();
        for rate in [Oversubscription::Rate75, Oversubscription::Rate50] {
            let stats = run_lru(abbr, rate);
            let capacity = rate.capacity_pages(app.footprint_pages());
            assert_eq!(
                stats.faults() - stats.evictions(),
                capacity,
                "{abbr}@{}: residency accounting broken",
                rate.label()
            );
        }
    }
}

#[test]
fn average_speedup_is_in_papers_band() {
    // Across a representative mix (one app per pattern type), HPE's
    // geomean speedup over LRU at 75% should land clearly above 1 —
    // the paper reports 1.34x over all 23.
    let mix = ["HOT", "HSD", "PAT", "BFS", "SPV", "B+T"];
    let mut product = 1.0f64;
    for abbr in mix {
        let lru = run_lru(abbr, Oversubscription::Rate75);
        let hpe = run_hpe(abbr, Oversubscription::Rate75);
        product *= lru.cycles as f64 / hpe.cycles as f64;
    }
    let geomean = product.powf(1.0 / mix.len() as f64);
    assert!(
        geomean > 1.05,
        "geomean speedup {geomean:.3} not clearly above 1"
    );
    assert!(
        geomean < 3.0,
        "geomean speedup {geomean:.3} implausibly high"
    );
}
