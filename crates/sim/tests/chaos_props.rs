//! Property-based tests of the engine under random fault-injection plans.
//!
//! The clean-run invariant suite lives in `sim_props.rs`; these cases
//! run the engine, sanitized, while a randomized [`FaultPlan`] perturbs
//! latencies, drops completions, and corrupts policy signals. Timing-sensitive clean-run bounds (e.g. driver busy
//! cycles per fault) are intentionally NOT asserted here: jitter may
//! legally shrink a service below its base latency.

use std::collections::HashSet;
use uvm_policies::{
    ArcPolicy, ClockPro, ClockProConfig, EvictionPolicy, Lru, RandomPolicy, Rrip, RripConfig,
};
use uvm_sim::{
    trace_for, Checkpoint, FallbackVictim, FaultPlan, RetryPolicy, Sanitizer, Simulation,
};
use uvm_types::{Oversubscription, SimConfig, SimError, SimStats, TlbConfig};
use uvm_util::prop::Checker;
use uvm_util::{FromJson, Json, Rng, ToJson};
use uvm_workloads::{registry, Trace};

fn small_cfg(n_sms: u32) -> SimConfig {
    SimConfig::builder()
        .n_sms(n_sms)
        .warps_per_sm(1)
        .l1_tlb(TlbConfig {
            entries: 4,
            ways: 4,
            latency_cycles: 1,
        })
        .l2_tlb(TlbConfig {
            entries: 8,
            ways: 4,
            latency_cycles: 10,
        })
        .build()
        .expect("valid config")
}

/// Draws a random *completing* plan: every perturbation may be active,
/// but completion loss is always bounded so the run can finish.
fn random_plan(rng: &mut Rng) -> FaultPlan {
    let lossy = rng.gen_bool(0.5);
    FaultPlan {
        seed: rng.next_u64(),
        latency_jitter: rng.gen_f64() * 0.5,
        tail_probability: rng.gen_f64() * 0.1,
        tail_multiplier: rng.gen_range(2u64..10),
        congestion_period: rng.gen_range(1_000u64..2_000_000),
        // Duties are kept away from zero so the congested / down windows
        // never round to zero cycles (validate rejects such plans).
        congestion_duty: 0.01 + rng.gen_f64() * 0.99,
        congestion_factor: rng.gen_range(2u64..10),
        completion_loss_probability: if lossy { rng.gen_f64() * 0.2 } else { 0.0 },
        retry_cycles: rng.gen_range(1_000u64..20_000),
        max_completion_retries: Some(rng.gen_range(1u64..4) as u32),
        hir_outage_period: rng.gen_range(16u64..512),
        hir_outage_duty: 0.1 + rng.gen_f64() * 0.9,
        spurious_wrong_eviction_probability: rng.gen_f64() * 0.1,
        hir_delay_probability: rng.gen_f64() * 0.3,
        hir_delay_faults: rng.gen_range(1u64..64),
        victim_drop_probability: rng.gen_f64() * 0.1,
        windows: Vec::new(),
    }
}

fn run_chaos(global: &[u64], capacity: u64, plan: &FaultPlan) -> SimStats {
    let trace = Trace::from_global(global, 40, 2, 3, 3);
    let mut sim = Simulation::new(small_cfg(3), &trace, Lru::new(), capacity).expect("valid sim");
    sim.set_resilience(Some(plan.clone()), None, FallbackVictim::MinPage)
        .expect("valid plan");
    // Every chaos property runs with the invariant sanitizer enabled at a
    // tight cadence: injection must never corrupt engine accounting, and
    // the sanitizer itself must never perturb stats (the comparisons
    // against sanitizer-off runs below double as that proof).
    sim.set_sanitizer(Sanitizer::new(256));
    sim.run().expect("chaos run completes").stats
}

/// The sanitizer's final pass audits every chaos run (`uvm_sim::audit`,
/// with the plan's injection bounds); these are the bounds that depend
/// on this trace and plan.
#[test]
fn accounting_invariants_survive_random_fault_plans() {
    Checker::new().cases(48).run(
        |rng| {
            (
                rng.gen_vec(1..300, |r| r.gen_range(0u64..40)),
                rng.gen_range(2u64..48),
                random_plan(rng),
            )
        },
        |(global, capacity, plan)| {
            let capacity = *capacity;
            plan.validate().expect("generated plan is valid");
            let distinct = global.iter().collect::<HashSet<_>>().len() as u64;
            let stats = run_chaos(global, capacity, plan);

            assert!(stats.faults() >= distinct);
            assert!(stats.faults() <= global.len() as u64);
            let resident_end = stats.faults() - stats.evictions();
            assert!(resident_end <= capacity.min(distinct));
            assert!(resident_end >= 1);
            // Without a retry policy, each lost completion stalls the
            // driver for the plan's flat retry latency.
            let res = &stats.resilience;
            assert!(
                stats.driver.busy_cycles >= res.completions_lost * plan.retry_cycles,
                "busy {} < lost {} x retry {}",
                stats.driver.busy_cycles,
                res.completions_lost,
                plan.retry_cycles
            );
        },
    );
}

#[test]
fn identical_seeds_reproduce_identical_chaos_runs() {
    Checker::new().cases(32).run(
        |rng| {
            (
                rng.gen_vec(1..200, |r| r.gen_range(0u64..30)),
                rng.gen_range(2u64..32),
                random_plan(rng),
            )
        },
        |(global, capacity, plan)| {
            let a = run_chaos(global, *capacity, plan);
            let b = run_chaos(global, *capacity, plan);
            assert_eq!(a, b, "same plan + seed must replay identically");
        },
    );
}

/// Acceptance: an unbounded completion loss under a retry policy must
/// surface as the typed `SimError::RetriesExhausted` — never a panic and
/// never a silent stall.
#[test]
fn unbounded_loss_with_retry_policy_reports_retries_exhausted() {
    let global: Vec<u64> = (0..10).collect();
    let trace = Trace::from_global(&global, 10, 0, 1, 1);
    let mut sim = Simulation::new(small_cfg(1), &trace, Lru::new(), 16).expect("valid sim");
    let (plan, retry) = (FaultPlan::livelock(9), RetryPolicy::default());
    sim.set_resilience(Some(plan), Some(retry), FallbackVictim::MinPage)
        .expect("valid plan and policy");
    match sim.run() {
        Err(e @ SimError::RetriesExhausted { .. }) => {
            assert_eq!(e.kind(), "RetriesExhausted");
            assert!(
                e.to_string().contains("retries exhausted"),
                "actionable message, got: {e}"
            );
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// Acceptance: checkpoint → resume yields `SimStats` byte-identical to the
/// uninterrupted run on STN, for several seeds, clean and under active
/// fault plans.
#[test]
fn checkpoint_resume_reproduces_stn_byte_identically() {
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr("STN").expect("STN registered");
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let plans: Vec<(&str, Option<FaultPlan>)> = vec![
        ("clean", None),
        ("signal-chaos/1", Some(FaultPlan::signal_chaos(1))),
        ("latency-storm/2019", Some(FaultPlan::latency_storm(2019))),
        ("completion-loss/77", Some(FaultPlan::completion_loss(77))),
    ];
    for (label, plan) in &plans {
        let build = || {
            let mut sim =
                Simulation::new(cfg.clone(), &trace, Lru::new(), capacity).expect("valid sim");
            sim.set_resilience(plan.clone(), None, FallbackVictim::MinPage)
                .expect("valid plan");
            sim
        };
        let straight = build().run().expect("straight run completes").stats;

        let mut paused = build();
        let done = paused.run_until(10_000_000).expect("first half runs");
        assert!(!done, "{label}: pause point must fall inside the run");
        let ckpt = paused.checkpoint();

        let mut resumed = build();
        resumed
            .resume(&ckpt)
            .expect("identical inputs replay identically");
        let stats = resumed.finish().expect("resumed run completes").stats;
        assert_eq!(
            stats.to_json().to_string(),
            straight.to_json().to_string(),
            "{label}: resumed stats must be byte-identical"
        );
    }
}

/// Changes one leaf of `v`: flips a bool, toggles a number's low bit,
/// and descends into the first element or entry of a container (an
/// empty array gains an element).
fn perturb(v: &mut Json) {
    match v {
        Json::Bool(b) => *b = !*b,
        Json::UInt(n) => *n ^= 1,
        Json::Int(n) => *n ^= 1,
        Json::Float(x) => *x += 1.0,
        Json::Array(xs) => match xs.first_mut() {
            Some(x) => perturb(x),
            None => xs.push(Json::UInt(1)),
        },
        Json::Object(entries) => perturb(&mut entries[0].1),
        Json::Null | Json::Str(_) => panic!("checkpoints carry no {v:?} field"),
    }
}

/// The checkpoint is a safety net: corrupting any single field of a
/// snapshot (other than the pause cycle, which only moves the replay
/// point) must make `resume` report `CheckpointDiverged` — never a
/// panic, never a silently different run. The run uses every piece of
/// recovery state the fingerprint covers: a lossy, outage-prone,
/// victim-dropping plan under adaptive retry and the LRU shadow.
#[test]
fn corrupting_any_checkpoint_field_is_reported_as_divergence() {
    let global: Vec<u64> = (0..40u64).cycle().take(400).collect();
    let trace = Trace::from_global(&global, 40, 2, 3, 3);
    let plan = FaultPlan {
        hir_outage_period: 64,
        hir_outage_duty: 0.5,
        victim_drop_probability: 0.05,
        completion_loss_probability: 0.3,
        ..FaultPlan::completion_loss(77)
    };
    let build = || {
        let mut sim = Simulation::new(small_cfg(3), &trace, Lru::new(), 24).expect("valid sim");
        let retry = Some(RetryPolicy::adaptive());
        sim.set_resilience(Some(plan.clone()), retry, FallbackVictim::LruShadow)
            .expect("valid recovery");
        sim
    };
    let mut paused = build();
    assert!(!paused.run_until(2_000_000).expect("first half runs"));
    let ckpt = paused.checkpoint();
    assert!(ckpt.stats.resilience.completions_lost > 0, "plan fired");
    assert!(ckpt.shadow_pages > 0 && ckpt.loss_len > 0, "recovery ran");
    build()
        .resume(&ckpt)
        .expect("the intact checkpoint resumes");

    let Json::Object(fields) = ckpt.to_json() else {
        panic!("a checkpoint serializes as an object");
    };
    assert_eq!(fields.len(), 18, "every Checkpoint field is covered");
    for (i, (name, _)) in fields.iter().enumerate() {
        if name == "cycle" {
            continue;
        }
        let mut corrupt = fields.clone();
        perturb(&mut corrupt[i].1);
        let corrupt = Checkpoint::from_json(&Json::Object(corrupt)).expect("still parses");
        match build().resume(&corrupt) {
            Err(SimError::CheckpointDiverged { cycle }) => assert_eq!(cycle, ckpt.cycle),
            other => panic!("corrupted `{name}`: expected CheckpointDiverged, got {other:?}"),
        }
    }
}

/// Property: the invariant sanitizer is observation-only under active
/// fault plans — a sanitized run's `SimStats` are byte-identical to the
/// same run without a sanitizer, at any cadence.
#[test]
fn sanitizer_is_byte_identical_under_random_fault_plans() {
    Checker::new().cases(24).run(
        |rng| {
            (
                rng.gen_vec(1..200, |r| r.gen_range(0u64..30)),
                rng.gen_range(2u64..32),
                random_plan(rng),
                rng.gen_range(1u64..4096),
            )
        },
        |(global, capacity, plan, cadence)| {
            let trace = Trace::from_global(global, 30, 2, 3, 3);
            let run = |sanitize: Option<u64>| {
                let mut sim = Simulation::new(small_cfg(3), &trace, Lru::new(), *capacity)
                    .expect("valid sim");
                sim.set_resilience(Some(plan.clone()), None, FallbackVictim::MinPage)
                    .expect("valid plan");
                if let Some(c) = sanitize {
                    sim.set_sanitizer(Sanitizer::new(c));
                }
                sim.run().expect("run completes").stats
            };
            let plain = run(None);
            let sanitized = run(Some(*cadence));
            assert_eq!(
                sanitized.to_json().to_string(),
                plain.to_json().to_string(),
                "sanitizer (cadence {cadence}) must not perturb stats"
            );
        },
    );
}

/// Property: `FaultPlan` JSON serialization round-trips byte-identically
/// (serialize → parse → re-serialize).
#[test]
fn fault_plan_json_roundtrip_is_byte_identical() {
    Checker::new().cases(64).run(random_plan, |plan| {
        let text = plan.to_json().to_string();
        let parsed = FaultPlan::from_json(&Json::parse(&text).expect("serialized plan parses"))
            .expect("parsed plan converts");
        assert_eq!(&parsed, plan);
        assert_eq!(parsed.to_json().to_string(), text);
    });
}

/// Property: checkpoints taken from real paused chaos runs round-trip
/// through JSON byte-identically.
#[test]
fn checkpoint_json_roundtrip_is_byte_identical() {
    Checker::new().cases(12).run(
        |rng| {
            (
                rng.gen_vec(50..300, |r| r.gen_range(0u64..40)),
                rng.gen_range(4u64..48),
                random_plan(rng),
                rng.gen_range(10_000u64..1_000_000),
            )
        },
        |(global, capacity, plan, limit)| {
            let trace = Trace::from_global(global, 40, 2, 3, 3);
            let mut sim =
                Simulation::new(small_cfg(3), &trace, Lru::new(), *capacity).expect("valid sim");
            sim.set_resilience(Some(plan.clone()), None, FallbackVictim::MinPage)
                .expect("valid plan");
            let _ = sim.run_until(*limit).expect("run proceeds");
            let ckpt = sim.checkpoint();
            let text = ckpt.to_json().to_string();
            let back = Checkpoint::from_json(&Json::parse(&text).expect("checkpoint parses"))
                .expect("checkpoint converts");
            assert_eq!(back, ckpt);
            assert_eq!(back.to_json().to_string(), text);
        },
    );
}

/// Sanitizer cadence boundaries: a cadence of 1 checks after every event
/// and a cadence far beyond the run's event count still gets exactly the
/// final end-of-run pass — both leave stats byte-identical to no
/// sanitizer at all.
#[test]
fn sanitizer_cadence_boundaries_check_and_stay_observation_only() {
    let global: Vec<u64> = (0..30u64).cycle().take(120).collect();
    let trace = Trace::from_global(&global, 30, 2, 3, 3);
    let run = |sanitize: Option<u64>| {
        let mut sim = Simulation::new(small_cfg(3), &trace, Lru::new(), 20).expect("valid sim");
        let plan = FaultPlan::latency_storm(11);
        sim.set_resilience(Some(plan), None, FallbackVictim::MinPage)
            .expect("valid plan");
        if let Some(c) = sanitize {
            sim.set_sanitizer(Sanitizer::new(c));
        }
        assert!(sim.run_until(u64::MAX).expect("run completes"));
        let checks = sim.sanitizer().map(|s| s.checks_run());
        (sim.finish().expect("finish").stats, checks)
    };
    let (plain, _) = run(None);

    // Cadence 1: one check per event plus the final pass.
    let (tight, tight_checks) = run(Some(1));
    assert_eq!(tight.to_json().to_string(), plain.to_json().to_string());
    assert!(tight_checks.expect("sanitizer attached") > 1);

    // Cadence longer than the whole run: run_until itself never hits a
    // cadence boundary; finish() still runs the final pass.
    let (sparse, sparse_checks) = run(Some(u64::MAX));
    assert_eq!(sparse.to_json().to_string(), plain.to_json().to_string());
    assert_eq!(
        sparse_checks.expect("sanitizer attached"),
        0,
        "cadence beyond run length must not fire mid-run"
    );
}

/// The policies the no-op property draws from.
const NOOP_POLICIES: [&str; 5] = ["LRU", "RRIP", "CLOCK-Pro", "Random", "ARC"];

fn policy_named(name: &str) -> Box<dyn EvictionPolicy> {
    match name {
        "RRIP" => Box::new(Rrip::new(RripConfig::default())),
        "CLOCK-Pro" => Box::new(ClockPro::new(ClockProConfig::default())),
        "Random" => Box::new(RandomPolicy::seeded(7)),
        "ARC" => Box::new(ArcPolicy::new()),
        _ => Box::new(Lru::new()),
    }
}

/// Property: recovery installed without injection — a no-op plan, under
/// any retry policy and either fallback — leaves a run byte-identical to
/// a clean one (no `set_resilience` call at all), for every drawn policy,
/// down to the outcome's HIR fields. A clean run is what the engine's
/// `None` resilience state executes, so this pins that `None` and the
/// no-op state behave alike.
#[test]
fn noop_plan_is_byte_identical_to_no_plan() {
    Checker::new().cases(32).run(
        |rng| {
            let retries = [
                None,
                Some(RetryPolicy::default()),
                Some(RetryPolicy::adaptive()),
            ];
            let fallbacks = [FallbackVictim::MinPage, FallbackVictim::LruShadow];
            (
                rng.gen_vec(1..200, |r| r.gen_range(0u64..30)),
                rng.gen_range(2u64..32),
                retries[rng.gen_range(0..retries.len())],
                fallbacks[rng.gen_range(0..fallbacks.len())],
                NOOP_POLICIES[rng.gen_range(0..NOOP_POLICIES.len())],
            )
        },
        |(global, capacity, retry, fallback, policy)| {
            let trace = Trace::from_global(global, 30, 2, 3, 3);
            let sim = || {
                Simulation::new(small_cfg(3), &trace, policy_named(policy), *capacity)
                    .expect("valid sim")
            };
            let clean = sim().run().expect("run completes");
            let mut noop = sim();
            noop.set_resilience(Some(FaultPlan::default()), *retry, *fallback)
                .expect("valid recovery");
            noop.set_sanitizer(Sanitizer::new(256));
            let noop = noop.run().expect("run completes");
            assert_eq!(
                clean.stats.to_json().to_string(),
                noop.stats.to_json().to_string(),
                "a no-op plan must not perturb anything"
            );
            assert!(!noop.stats.resilience.any());
            assert!(!clean.hir_down && !noop.hir_down);
            assert_eq!(clean.hir_clean_streak_faults, noop.hir_clean_streak_faults);
            assert_eq!(
                clean.hir_clean_streak_faults,
                clean.stats.driver.faults_serviced
            );
        },
    );
}
