//! Every seeded stream really follows its seed: change only the seed and
//! the output must change, keep it and the output must repeat. A stream
//! that ignores its seed (a literal or ambient seed in place of the
//! configured one) replays identically under every seed and fails here.
//!
//! The same check lives next to the code for `RandomPolicy`
//! (`random::tests::same_seed_same_sequence`), the workload builder
//! (`builder::tests::deterministic_per_seed`), the registry apps
//! (`registry::tests::stochastic_apps_follow_their_seed`) and the bench
//! runner (`runner::tests::random_is_seeded_from_the_app`). DIP's fixed
//! `0xD1B` dither is exempt by design: the DIP spec fixes that stream, so
//! it takes no seed.

use hpe::policies::{Bip, EvictionPolicy, Lru};
use hpe::sim::{ArrivalProcess, FallbackVictim, FaultPlan, Simulation, TenantMix};
use hpe::types::{PageId, SimConfig};
use hpe::workloads::WorkloadBuilder;

/// Asserts `f` repeats under one seed and differs between two.
fn assert_follows_seed<T: PartialEq + std::fmt::Debug>(f: impl Fn(u64) -> T) {
    assert_eq!(f(1), f(1), "same seed, different output");
    assert_ne!(f(1), f(2), "the output ignores its seed");
}

#[test]
fn bip_coin_follows_the_seed() {
    // Driven directly: in a run, the walk hit after each fault moves the
    // page to MRU and hides where the coin inserted it.
    assert_follows_seed(|seed| {
        let mut bip = Bip::with_rate(2, seed);
        for p in 0..64 {
            bip.on_fault(PageId(p), p);
        }
        (0..64).map(|_| bip.select_victim()).collect::<Vec<_>>()
    });
}

#[test]
fn fault_plan_draws_follow_the_seed() {
    // A cyclic sweep over 256 pages in 192 frames: every lap faults.
    let cfg = SimConfig::scaled_default();
    let trace = WorkloadBuilder::new("sweep")
        .region("grid", 256)
        .sweeps("grid", 3)
        .unwrap()
        .build()
        .unwrap()
        .trace(cfg.n_sms * cfg.warps_per_sm, 2, 3);
    assert_follows_seed(|seed| {
        let mut sim = Simulation::new(cfg.clone(), &trace, Lru::new(), 192).unwrap();
        let plan = FaultPlan::completion_loss(seed);
        sim.set_resilience(Some(plan), None, FallbackVictim::MinPage)
            .unwrap();
        sim.run().unwrap().stats
    });
}

#[test]
fn tenant_arrivals_follow_the_seed() {
    assert_follows_seed(|seed| {
        let mix = TenantMix {
            seed,
            arrivals: ArrivalProcess {
                count: 8,
                ..ArrivalProcess::default()
            },
            ..TenantMix::default()
        };
        mix.resolved_tenants()
    });
}
