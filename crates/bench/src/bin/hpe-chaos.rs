//! `hpe-chaos`: seeded fault-injection campaigns over the simulator.
//!
//! Runs every eviction policy under a set of replayable fault plans and
//! reports resilience metrics against the clean (no-injection) run of the
//! same configuration: slowdown, extra cycles to completion, injected
//! perturbation counters, and HPE's degraded-mode residency.
//!
//! ```sh
//! hpe-chaos campaign                       # all policies x all fault kinds (STN, 75%)
//! hpe-chaos campaign BFS --seed 7          # another app / another seed
//! hpe-chaos campaign --workers 8           # same cells fanned over 8 threads;
//!                                          # the merged report is byte-identical
//! hpe-chaos campaign --retry --fallback lru-shadow   # recovery machinery on
//! hpe-chaos livelock                       # watchdog demo: injected livelock -> Stalled
//! hpe-chaos livelock --retry               # same, with backoff -> RetriesExhausted
//! hpe-chaos resume                         # checkpoint mid-run, resume, verify equality
//! hpe-chaos smoke                          # fast panic-free subset for CI (sanitizer on)
//! hpe-chaos sanitize                       # invariant sanitizer zero-perturbation proof
//! hpe-chaos explore spec.json --workers 4  # fault-space exploration: enumerate fault
//!                                          # windows + seed batches, check invariants,
//!                                          # shrink failures to minimal repro files
//! hpe-chaos replay repro.json              # one-command deterministic counterexample replay
//! hpe-chaos tenants --tenants 4 --workers 2 # multi-tenant mix: quotas, admission control,
//!                                          # and (with --plan) fault blast-radius containment
//! ```
//!
//! Campaign results are saved as JSON under `target/paper-results/`
//! (`chaos-campaign.json`, `chaos-checkpoint.json`) for machine
//! consumption; identical seeds reproduce identical campaigns.
//!
//! Exit codes: 0 success, 1 a simulation failed (CI can gate on this),
//! 2 usage error.

use std::process::ExitCode;

use hpe_bench::cli::{self, Args, CliError, Command};
use hpe_bench::explore;
use hpe_bench::{
    bench_config, campaign, check_containment, drive, f2, replay_repro, repro_for, run,
    run_explore, run_mix, run_policy, save_json, CampaignRun, MixOptions, PolicyKind,
    RecoveryOptions, RunResult, RunSpec, Table, CONTAINMENT_APPS,
};
use uvm_sim::{
    trace_for, ExploreSpec, FallbackVictim, FaultPlan, HirMode, ReproCase, RetryPolicy, TenantMix,
    DEFAULT_PROFILE_CADENCE, DEFAULT_SANITIZER_CADENCE,
};
use uvm_types::{Oversubscription, ResilienceStats, SimError, SimStats};
use uvm_util::{json, FromJson, Json, ToJson};
use uvm_workloads::registry;

/// Default pause cycle for `resume` (well inside every campaign run).
const DEFAULT_RESUME_AT: u64 = 10_000_000;

/// The flags of every command that builds its runs at `--seed` and
/// `--rate` with [`recovery`].
const RECOVERY_RUN: &str =
    "--seed N --rate PCT --retry --adaptive --fallback min-page|lru-shadow --sanitize CADENCE";

/// The command table.
static COMMANDS: &[Command] = &[
    Command {
        name: "campaign",
        about: "run every policy under every fault plan and report resilience metrics vs \
                the clean run (default app STN); --workers fans the cells over N threads \
                with a deterministic merge (same output for any N); --adaptive, here and \
                wherever --retry is taken, implies --retry and makes its backoff \
                loss-adaptive (tuned online from the observed completion-loss rate)",
        args: "[APP ...]",
        flags: &[RECOVERY_RUN, "--workers N"],
        run: cmd_campaign,
    },
    Command {
        name: "livelock",
        about: "inject an unbounded completion-loss livelock and show the watchdog \
                converting it into SimError::Stalled (or, with --retry, into \
                SimError::RetriesExhausted)",
        args: "",
        flags: &[RECOVERY_RUN],
        run: cmd_livelock,
    },
    Command {
        name: "resume",
        about: "run HPE under a fault plan (default signal-chaos, app STN), checkpoint at \
                CYCLE, resume from the checkpoint in a fresh simulation and verify the \
                stats match the uninterrupted run",
        args: "[APP]",
        flags: &[RECOVERY_RUN, "--plan NAME --at CYCLE"],
        run: cmd_resume,
    },
    Command {
        name: "smoke",
        about: "fast panic-free campaign subset with the runtime invariant sanitizer \
                enabled (CI gate)",
        args: "",
        flags: &["--seed N --sanitize CADENCE --workers N"],
        run: cmd_smoke,
    },
    Command {
        name: "sanitize",
        about: "run HPE with the invariant sanitizer on and off (default apps STN SGM) \
                and verify the sanitizer leaves SimStats byte-identical",
        args: "[APP ...]",
        flags: &["--rate PCT --sanitize CADENCE"],
        run: cmd_sanitize,
    },
    Command {
        name: "profile",
        about: "run HPE with the cycle-attribution profiler on and off (default apps STN \
                SGM) and verify the profiler leaves SimStats byte-identical and its \
                timeline accounts conserve total cycles",
        args: "[APP ...]",
        flags: &["--rate PCT"],
        run: cmd_profile,
    },
    Command {
        name: "explore",
        about: "fault-space exploration: enumerate fault-window placements and seeded \
                plan batches from the spec, check every invariant on every run, shrink \
                failures to minimal counterexamples and save replayable repro files; the \
                merged coverage report is byte-identical for any worker count (exit 1 if \
                counterexamples)",
        args: "<SPEC.json>",
        flags: &["--workers N"],
        run: cmd_explore,
    },
    Command {
        name: "replay",
        about: "re-run a shrunk counterexample deterministically and verify it reproduces \
                the recorded violation verbatim",
        args: "<REPRO.json>",
        flags: &[],
        run: cmd_replay,
    },
    Command {
        name: "tenants",
        about: "run N tenants (cycling the listed apps; default STN/MVT/CUT) through \
                admission control against a shared residency pool and print per-tenant \
                outcomes and fairness metrics; with --plan, scope the fault plan to \
                --target (default tenant 0) and verify the blast radius: every other \
                tenant's stats must be byte-identical to the fault-free mix (exit 1 on \
                leak)",
        args: "[APP ...]",
        flags: &[
            "--tenants N --quota PCT --hir per-tenant|shared --policy P --seed N \
                  --workers N --plan NAME --target TENANT",
        ],
        run: cmd_tenants,
    },
];

/// The recovery knobs a run takes from `--retry`/`--adaptive`,
/// `--fallback` and `--sanitize`.
fn recovery(args: &Args) -> Result<RecoveryOptions, CliError> {
    // --adaptive implies --retry, in either order.
    let retry = if args.has("--adaptive") {
        Some(RetryPolicy::adaptive())
    } else {
        args.has("--retry").then(RetryPolicy::default)
    };
    Ok(RecoveryOptions {
        retry,
        fallback: args
            .parsed("--fallback", FallbackVictim::parse)?
            .unwrap_or(FallbackVictim::MinPage),
        sanitize: args.num("--sanitize")?,
        profile: None,
    })
}

/// Resolves a `--plan` name against the named fault plans a campaign
/// sweeps ([`campaign::chaos_plan_set`] minus its clean control cell,
/// each seeded from `seed`); an unknown name is a usage error listing
/// the known ones.
fn plan_by_name(name: &str, seed: u64) -> Result<FaultPlan, CliError> {
    let plans: Vec<(String, FaultPlan)> = campaign::chaos_plan_set(seed)
        .into_iter()
        .filter_map(|spec| Some((spec.name, spec.plan?)))
        .collect();
    let known: Vec<&str> = plans.iter().map(|(n, _)| n.as_str()).collect();
    let known = known.join(", ");
    let found = plans.iter().find(|(n, _)| n == name);
    found
        .map(|(_, p)| p.clone())
        .ok_or_else(|| CliError::Usage(format!("bad --plan '{name}' (expected one of: {known})")))
}

/// One (policy, plan) cell of a campaign: the chaos run compared against
/// the policy's clean run.
struct CampaignRow {
    clean_cycles: u64,
    chaos: CampaignRun,
}

impl CampaignRow {
    fn stats(&self) -> &SimStats {
        &self.chaos.stats
    }

    fn res(&self) -> &ResilienceStats {
        &self.chaos.stats.resilience
    }

    /// Wall-clock inflation of the chaos run relative to the clean run.
    fn slowdown(&self) -> f64 {
        self.stats().cycles as f64 / self.clean_cycles as f64
    }

    /// Cycles the chaos run needed beyond the clean run (recovery cost).
    fn recovery_cycles(&self) -> u64 {
        self.stats().cycles.saturating_sub(self.clean_cycles)
    }

    /// Fraction of all faults handled in HPE's degraded fallback mode.
    fn degraded_residency(&self) -> f64 {
        let faults = self.stats().faults();
        if faults == 0 {
            0.0
        } else {
            self.stats().policy.degraded_faults as f64 / faults as f64
        }
    }

    fn to_json(&self) -> Json {
        let (stats, res) = (self.stats(), self.res());
        json!({
            "app": self.chaos.app.as_str(),
            "policy": self.chaos.policy.as_str(),
            "plan": self.chaos.plan.as_str(),
            "faults": stats.faults(),
            "clean_cycles": self.clean_cycles,
            "chaos_cycles": stats.cycles,
            "slowdown": self.slowdown(),
            "recovery_cycles": self.recovery_cycles(),
            "injected_delay_cycles": res.injected_delay_cycles,
            "tail_latency_events": res.tail_latency_events,
            "congested_services": res.congested_services,
            "completions_lost": res.completions_lost,
            "fallback_victims": res.fallback_victims,
            "spurious_wrong_evictions": res.spurious_wrong_evictions,
            "faults_during_hir_outage": res.faults_during_hir_outage,
            "degraded_entries": stats.policy.degraded_entries,
            "degraded_faults": stats.policy.degraded_faults,
            "degraded_residency": self.degraded_residency(),
            "victims_dropped": res.victims_dropped,
            "delayed_hir_flushes": res.delayed_hir_flushes,
            "hir_flushes_lost": res.hir_flushes_lost,
            "circuit_breaker_trips": res.circuit_breaker_trips,
            "retry_attempts": res.retry_attempts,
            "retry_backoff_cycles": res.retry_backoff_cycles,
        })
    }
}

/// Runs `spec` on the campaign engine (`campaign::run_campaign`) and
/// pairs every chaos cell with its policy's clean cell, in grid order.
/// Returns the report fingerprint and one row per chaos cell.
fn campaign_rows(
    spec: &campaign::CampaignSpec,
    workers: usize,
) -> Result<(String, Vec<CampaignRow>), CliError> {
    let pool = campaign::PoolOptions {
        workers,
        ..campaign::PoolOptions::default()
    };
    let report = campaign::run_campaign(&bench_config(), spec, &pool, None)
        .and_then(|outcome| outcome.report())
        .map_err(|e| CliError::Run(e.to_string()))?;
    let mut rows = Vec::new();
    for abbr in &spec.apps {
        for &kind in &spec.policies {
            for rate in &spec.rates {
                let cell = |plan: &str| {
                    let key = campaign::grid_key(abbr, kind.label(), &rate.label(), plan);
                    report
                        .find(&key)
                        .ok_or_else(|| CliError::Run(format!("missing {plan} cell for {abbr}")))
                };
                let clean = cell("clean")?;
                if !clean.ok {
                    return Err(CliError::Run(format!(
                        "clean run failed for {abbr}/{}: {}",
                        kind.label(),
                        clean.error
                    )));
                }
                debug_assert!(
                    !clean.stats.resilience.any(),
                    "clean run must not record injection"
                );
                for plan in spec.plans.iter().filter(|p| p.plan.is_some()) {
                    let chaos = cell(&plan.name)?;
                    if !chaos.ok {
                        return Err(CliError::Run(format!(
                            "chaos run failed for {}: {}",
                            chaos.key, chaos.error
                        )));
                    }
                    rows.push(CampaignRow {
                        clean_cycles: clean.stats.cycles,
                        chaos: chaos.clone(),
                    });
                }
            }
        }
    }
    Ok((report.fingerprint, rows))
}

fn print_campaign(title: &str, rows: &[CampaignRow]) {
    let mut t = Table::new(
        title,
        &[
            "app",
            "policy",
            "plan",
            "faults",
            "slowdown",
            "recovery",
            "inj.delay",
            "tails",
            "congested",
            "lost",
            "fallback",
            "spurious",
            "dropped",
            "delayed",
            "retried",
            "degraded",
        ],
    );
    for r in rows {
        let res = r.res();
        t.row(vec![
            r.chaos.app.to_string(),
            r.chaos.policy.to_string(),
            r.chaos.plan.to_string(),
            r.stats().faults().to_string(),
            f2(r.slowdown()),
            r.recovery_cycles().to_string(),
            res.injected_delay_cycles.to_string(),
            res.tail_latency_events.to_string(),
            res.congested_services.to_string(),
            res.completions_lost.to_string(),
            res.fallback_victims.to_string(),
            res.spurious_wrong_evictions.to_string(),
            res.victims_dropped.to_string(),
            res.delayed_hir_flushes.to_string(),
            res.retry_attempts.to_string(),
            format!("{:.1}%", 100.0 * r.degraded_residency()),
        ]);
    }
    t.print();
}

fn cmd_campaign(args: &Args) -> Result<(), CliError> {
    let (seed, rate, recovery) = (args.seed()?, args.rate()?, recovery(args)?);
    let workers = args.num("--workers")?.unwrap_or(1);
    let apps = args.positional_or(&["STN"]);
    for abbr in &apps {
        cli::app(abbr)?;
    }
    // The engine's plan set keeps the clean control cell in the grid, so
    // every chaos row's baseline comes out of the same merged report.
    let spec = campaign::CampaignSpec {
        apps,
        policies: PolicyKind::ALL.to_vec(),
        rates: vec![rate],
        plans: campaign::chaos_plan_set(seed),
        recovery,
        seed,
    };
    eprintln!(
        "[campaign: {} app(s) at {}, seed {}, {} policies x {} plans, retry {}, \
         fallback {}, {} worker(s)]",
        spec.apps.len(),
        rate.label(),
        seed,
        spec.policies.len(),
        spec.plans.len(),
        if recovery.retry.is_some() {
            "on"
        } else {
            "off"
        },
        recovery.fallback.label(),
        workers.max(1),
    );
    let (fingerprint, rows) = campaign_rows(&spec, workers)?;
    let total_faults: u64 = rows.iter().map(|r| r.stats().faults()).sum();
    print_campaign(
        format!(
            "chaos campaign (seed {}, {}, {} chaos runs, {} faults total, fingerprint {})",
            seed,
            rate.label(),
            rows.len(),
            total_faults,
            fingerprint
        )
        .as_str(),
        &rows,
    );
    let json_rows: Vec<Json> = rows.iter().map(CampaignRow::to_json).collect();
    save_json("chaos-campaign", &json_rows.to_json());
    Ok(())
}

fn cmd_livelock(args: &Args) -> Result<(), CliError> {
    let (seed, rate, recovery) = (args.seed()?, args.rate()?, recovery(args)?);
    let app = registry::by_abbr("STN").expect("STN is registered");
    let cfg = bench_config();
    let plan = FaultPlan::livelock(seed);
    eprintln!(
        "[injecting unbounded completion loss into {} under LRU at {}{}]",
        app.abbr(),
        rate.label(),
        if recovery.retry.is_some() {
            ", retry policy on"
        } else {
            ""
        }
    );
    let spec = RunSpec {
        plan: Some(&plan),
        recovery,
        ..RunSpec::new(app, rate, PolicyKind::Lru)
    };
    match (recovery.retry.is_some(), run(&cfg, &spec)) {
        (false, Err(SimError::Stalled { cycle, in_flight })) => {
            println!(
                "watchdog fired: SimError::Stalled at cycle {cycle} with {in_flight} \
                 in-flight faults (no forward progress)"
            );
            Ok(())
        }
        (
            true,
            Err(SimError::RetriesExhausted {
                page,
                cycle,
                attempts,
            }),
        ) => {
            println!(
                "retry policy gave up: SimError::RetriesExhausted for page {page} at \
                 cycle {cycle} after {attempts} attempts (backoff capped, driver freed)"
            );
            Ok(())
        }
        (false, Err(other)) => Err(CliError::Run(format!("expected Stalled, got: {other}"))),
        (true, Err(other)) => Err(CliError::Run(format!(
            "expected RetriesExhausted, got: {other}"
        ))),
        (_, Ok(_)) => Err(CliError::Run(
            "expected the injected livelock to abort the run".into(),
        )),
    }
}

/// `resume`: run HPE under a fault plan three ways — straight through,
/// paused at `--at` to take a checkpoint, and a fresh simulation resumed
/// from that checkpoint — then verify the resumed stats are byte-identical
/// to the straight run's.
fn cmd_resume(args: &Args) -> Result<(), CliError> {
    let (seed, rate, recovery) = (args.seed()?, args.rate()?, recovery(args)?);
    let at = args.num("--at")?.unwrap_or(DEFAULT_RESUME_AT);
    let plan_name = args.value("--plan").unwrap_or("signal-chaos");
    let plan = plan_by_name(plan_name, seed)?;
    let app = cli::app(args.positional.first().map_or("STN", String::as_str))?;

    let cfg = bench_config();
    let trace = trace_for(&cfg, app);
    let spec = RunSpec {
        plan: Some(&plan),
        recovery,
        ..RunSpec::new(app, rate, PolicyKind::Hpe)
    };

    eprintln!(
        "[resume: HPE on {} at {} under {plan_name} (seed {}), checkpoint at cycle {}]",
        app.abbr(),
        rate.label(),
        seed,
        at
    );
    let straight = drive(&cfg, &spec, &trace, None, |_, _| {})?.result.stats;
    let on_checkpoint = |ckpt: &uvm_sim::Checkpoint, done: bool| {
        save_json("chaos-checkpoint", ckpt);
        if done {
            eprintln!(
                "note: the run completed before cycle {}; the checkpoint captures its final state",
                at
            );
        }
        println!(
            "checkpointed at cycle {} ({} faults serviced, {} cycles simulated)",
            ckpt.cycle, ckpt.stats.driver.faults_serviced, ckpt.stats.cycles
        );
    };
    let stats = drive(&cfg, &spec, &trace, Some(at), on_checkpoint)?
        .result
        .stats;

    let (a, b) = (stats.to_json().to_string(), straight.to_json().to_string());
    if a != b {
        return Err(CliError::Run(format!(
            "resumed stats diverged from the uninterrupted run\nresumed:  {a}\nstraight: {b}"
        )));
    }
    println!(
        "resume verified: {} cycles, {} faults — byte-identical to the uninterrupted run",
        stats.cycles,
        stats.faults()
    );
    Ok(())
}

fn cmd_smoke(args: &Args) -> Result<(), CliError> {
    let seed = args.seed()?;
    let sanitize = args.num("--sanitize")?.unwrap_or(DEFAULT_SANITIZER_CADENCE);
    let workers = args.num("--workers")?.unwrap_or(1);
    // The smoke gate runs with the invariant sanitizer on: a corrupted
    // residency count or broken policy structure under injection fails
    // CI as a typed InvariantViolated, not a wrong number downstream.
    let spec = campaign::CampaignSpec {
        apps: vec!["STN".to_string()],
        policies: vec![PolicyKind::Lru, PolicyKind::Rrip, PolicyKind::Hpe],
        rates: vec![Oversubscription::Rate75],
        plans: campaign::chaos_plan_set(seed),
        recovery: RecoveryOptions {
            sanitize: Some(sanitize),
            ..RecoveryOptions::default()
        },
        seed,
    };
    let (_, rows) = campaign_rows(&spec, workers)?;
    let injected = rows
        .iter()
        .map(CampaignRow::res)
        .filter(|res| {
            res.injected_delay_cycles > 0
                || res.completions_lost > 0
                || res.faults_during_hir_outage > 0
                || res.spurious_wrong_evictions > 0
                || res.victims_dropped > 0
                || res.delayed_hir_flushes > 0
        })
        .count();
    if injected == 0 {
        return Err(CliError::Run(
            "no chaos run recorded any injection; plans are inert".into(),
        ));
    }
    let hpe_degraded = rows.iter().any(|r| {
        r.chaos.policy == "HPE"
            && r.chaos.plan == "signal-chaos"
            && r.stats().policy.degraded_faults > 0
    });
    if !hpe_degraded {
        return Err(CliError::Run(
            "HPE did not enter degraded mode under signal-chaos".into(),
        ));
    }
    let fallback_exercised = rows.iter().any(|r| {
        r.chaos.plan == "victim-drop" && r.res().victims_dropped > 0 && r.res().fallback_victims > 0
    });
    if !fallback_exercised {
        return Err(CliError::Run(
            "victim-drop did not exercise the fallback victim path".into(),
        ));
    }
    let delay_exercised = rows.iter().any(|r| {
        r.chaos.policy == "HPE"
            && r.chaos.plan == "partial-outage"
            && r.res().delayed_hir_flushes > 0
    });
    if !delay_exercised {
        return Err(CliError::Run(
            "partial-outage did not delay any HIR flush".into(),
        ));
    }
    println!(
        "chaos smoke: {} runs, {} with injection, HPE degraded-mode, fallback-victim \
         and delayed-flush paths exercised; sanitizer on, no panics",
        rows.len(),
        injected
    );
    Ok(())
}

/// The observation-only gate `sanitize` and `profile` share: for each app
/// (default STN and SGM), run HPE straight and with the `observer`'s
/// `recovery` knobs, require byte-identical `SimStats` JSON, then hand
/// the observed run to `report`.
fn observation_only(
    args: &Args,
    observer: &str,
    recovery: RecoveryOptions,
    mut report: impl FnMut(&str, &RunResult) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let rate = args.rate()?;
    let cfg = bench_config();
    for abbr in args.positional_or(&["STN", "SGM"]) {
        let app = cli::app(&abbr)?;
        let straight = run_policy(&cfg, app, rate, PolicyKind::Hpe)?;
        let observed = run(
            &cfg,
            &RunSpec {
                recovery,
                ..RunSpec::new(app, rate, PolicyKind::Hpe)
            },
        )?;
        let (a, b) = (
            observed.stats.to_json().to_string(),
            straight.stats.to_json().to_string(),
        );
        if a != b {
            return Err(CliError::Run(format!(
                "{observer} perturbed {abbr}: stats diverged\nwith:    {a}\nwithout: {b}"
            )));
        }
        report(&abbr, &observed)?;
    }
    Ok(())
}

/// `sanitize`: prove the runtime invariant sanitizer is observation-only
/// at `--sanitize` cadence.
fn cmd_sanitize(args: &Args) -> Result<(), CliError> {
    let cadence = args.num("--sanitize")?.unwrap_or(DEFAULT_SANITIZER_CADENCE);
    let recovery = RecoveryOptions {
        sanitize: Some(cadence),
        ..RecoveryOptions::default()
    };
    observation_only(args, "sanitizer", recovery, |abbr, on| {
        println!(
            "{abbr}: {} cycles, {} faults — sanitizer (cadence {cadence}) left \
             SimStats byte-identical",
            on.stats.cycles,
            on.stats.faults()
        );
        Ok(())
    })
}

/// `profile`: prove the cycle-attribution profiler is observation-only,
/// and that its timeline accounts sum exactly to the run's total cycles
/// (the conservation law the breakdown rests on).
fn cmd_profile(args: &Args) -> Result<(), CliError> {
    let recovery = RecoveryOptions {
        profile: Some(DEFAULT_PROFILE_CADENCE),
        ..RecoveryOptions::default()
    };
    observation_only(args, "profiler", recovery, |abbr, on| {
        let Some(profile) = &on.profile else {
            return Err(CliError::Run(format!("no profile recorded for {abbr}")));
        };
        if profile.timeline_sum() != profile.total_cycles {
            return Err(CliError::Run(format!(
                "profiler accounts for {abbr} do not conserve: timeline sum {} vs {} total cycles",
                profile.timeline_sum(),
                profile.total_cycles
            )));
        }
        println!(
            "{abbr}: {} cycles, {} faults — profiler left SimStats byte-identical; \
             timeline accounts conserve ({} driver-idle cycles skippable)",
            on.stats.cycles,
            on.stats.faults(),
            profile.driver_idle()
        );
        Ok(())
    })
}

/// `explore`: run the fault-space exploration engine over a spec file,
/// shrink any failures, and save the coverage report plus one replayable
/// repro file per counterexample.
fn cmd_explore(args: &Args) -> Result<(), CliError> {
    let workers = args.num("--workers")?.unwrap_or(1);
    let path = &args.positional[0];
    let spec: ExploreSpec = cli::read_json(path, "explore spec", ExploreSpec::from_json)?;
    explore::check(&spec).map_err(|e| CliError::Usage(format!("{path}: bad explore spec: {e}")))?;
    eprintln!(
        "[explore: {} under {} at {}%, invariants [{}], {} worker(s)]",
        spec.app,
        spec.policy,
        spec.rate,
        spec.invariant_set().join(", "),
        workers.max(1),
    );
    let mut progress = std::io::stderr();
    let report = run_explore(
        &bench_config(),
        &spec,
        workers,
        Some(&mut progress as &mut dyn std::io::Write),
    )
    .map_err(|e| CliError::Run(e.to_string()))?;
    save_json("explore-report", &report);
    println!(
        "explored {} case(s) ({} fixture, {} window, {} batch; {} invalid placements \
         skipped) with {} run(s), {} invariant check(s), {} shrink probe(s)",
        report.cases,
        report.fixture_cases,
        report.window_cases,
        report.batch_cases,
        report.skipped_invalid,
        report.runs,
        report.invariant_checks,
        report.shrink_probes,
    );
    if report.counterexamples.is_empty() {
        println!("no counterexamples: every run upheld every selected invariant");
        return Ok(());
    }
    for (i, cx) in report.counterexamples.iter().enumerate() {
        let repro = repro_for(&spec, cx);
        let name = format!("explore-repro-{i}");
        save_json(&name, &repro);
        println!(
            "counterexample {i} ({}): invariant `{}` violated — {}\n\
             \x20 shrunk to {} window(s) in {} probe(s); replay with:\n\
             \x20   hpe-chaos replay target/paper-results/{name}.json",
            cx.label,
            cx.invariant,
            cx.error,
            cx.plan.windows.len(),
            cx.probes,
        );
    }
    Err(CliError::Run(format!(
        "{} counterexample(s) found",
        report.counterexamples.len()
    )))
}

/// `replay`: re-run a shrunk counterexample and verify it reproduces the
/// recorded violation byte-for-byte.
fn cmd_replay(args: &Args) -> Result<(), CliError> {
    let path = &args.positional[0];
    let repro: ReproCase = cli::read_json(path, "repro case", ReproCase::from_json)?;
    explore::check(&repro.spec())
        .map_err(|e| CliError::Usage(format!("{path}: bad repro case: {e}")))?;
    eprintln!(
        "[replay: {} under {} at {}%, expecting `{}` violation]",
        repro.app, repro.policy, repro.rate, repro.invariant
    );
    match replay_repro(&bench_config(), &repro).map_err(|e| CliError::Run(e.to_string()))? {
        Some((invariant, error)) if invariant == repro.invariant && error == repro.error => {
            println!("reproduced: invariant `{invariant}` violated — {error}");
            Ok(())
        }
        Some((invariant, error)) => Err(CliError::Run(format!(
            "violation differs from the recorded one\ngot:      `{invariant}`: {error}\n\
             recorded: `{}`: {}",
            repro.invariant, repro.error
        ))),
        None => Err(CliError::Run(format!(
            "the run came back clean; recorded `{}` violation did not reproduce",
            repro.invariant
        ))),
    }
}

/// `tenants`: run a multi-tenant mix through admission control and print
/// per-tenant outcomes plus fairness metrics. With `--plan`, the fault
/// plan is scoped to `--target` and the blast radius is verified: every
/// non-target tenant's stats must be byte-identical to the fault-free mix.
fn cmd_tenants(args: &Args) -> Result<(), CliError> {
    let tenants: u64 = args.num("--tenants")?.unwrap_or(4);
    let quota = args
        .parsed("--quota", |v| v.trim_end_matches('%').parse().ok())?
        .unwrap_or(75);
    let hir = args
        .parsed("--hir", HirMode::parse)?
        .unwrap_or(HirMode::PerTenant);
    let (policy, seed) = (args.policy()?, args.seed()?);
    let workers = args.num("--workers")?.unwrap_or(1);
    let target: Option<u64> = args.num("--target")?;
    let pool = args.positional_or(&CONTAINMENT_APPS);
    for abbr in &pool {
        cli::app(abbr)?;
    }
    let apps: Vec<&str> = (0..tenants)
        .map(|i| pool[(i as usize) % pool.len()].as_str())
        .collect();
    let mut mix = TenantMix::uniform(&apps, quota, 1_000, seed);
    mix.hir_mode = hir;
    mix.validate().map_err(|e| CliError::Usage(e.to_string()))?;

    let plan = match args.value("--plan") {
        None if target.is_some() => {
            return Err(CliError::Usage(
                "--target needs --plan: it names the tenant the plan is scoped to".into(),
            ))
        }
        None => None,
        Some(name) => Some((name.to_string(), plan_by_name(name, seed)?)),
    };
    let target = target.unwrap_or(0);

    eprintln!(
        "[tenants: {} tenant(s) over {{{}}} at {}% quota, {} HIR, policy {}, seed {}, \
         {} worker(s){}]",
        tenants,
        pool.join(", "),
        quota,
        hir.label(),
        policy.label(),
        seed,
        workers.max(1),
        match &plan {
            Some((name, _)) => format!(", plan {name} scoped to T{target}"),
            None => String::new(),
        },
    );

    let cfg = bench_config();
    let baseline_opts = MixOptions {
        policy,
        workers,
        ..MixOptions::default()
    };
    let baseline = run_mix(&cfg, &mix, &baseline_opts).map_err(|e| CliError::Run(e.to_string()))?;

    let mut t = Table::new(
        format!(
            "tenant mix (fingerprint {}, makespan {}, {} rejected, {} delayed)",
            baseline.fingerprint, baseline.makespan, baseline.rejected, baseline.delayed
        )
        .as_str(),
        &[
            "tenant", "app", "quota", "arrival", "admitted", "outcome", "ok", "cycles", "slowdown",
        ],
    );
    for row in &baseline.tenants {
        t.row(vec![
            row.tenant.to_string(),
            row.app.clone(),
            row.quota_pages.to_string(),
            row.arrival.to_string(),
            row.admitted.to_string(),
            row.admission.clone(),
            if row.ok {
                "yes".into()
            } else {
                format!("no: {}", row.error)
            },
            row.stats.cycles.to_string(),
            f2(row.slowdown()),
        ]);
    }
    t.print();
    println!(
        "fairness: p99 slowdown {}, aggregate throughput {} instr/kcycle",
        f2(baseline.p99_slowdown()),
        f2(baseline.throughput()),
    );
    save_json("tenant-mix", &baseline);

    let Some((plan_name, plan)) = plan else {
        return Ok(());
    };
    if !mix.tenants.iter().any(|t| t.id == target) {
        return Err(CliError::Usage(format!(
            "--target {target} is not part of the mix (tenants 0..{tenants})"
        )));
    }
    let faulted_opts = MixOptions {
        policy,
        plan: Some(plan),
        plan_name: plan_name.clone(),
        fault_tenant: Some(target),
        workers,
    };
    let faulted = run_mix(&cfg, &mix, &faulted_opts).map_err(|e| CliError::Run(e.to_string()))?;
    save_json("tenant-mix-faulted", &faulted);
    check_containment(&baseline, &faulted).map_err(CliError::Run)?;
    let degraded = faulted
        .tenants
        .iter()
        .find(|r| r.tenant.0 == target)
        .map(|r| {
            let clean = baseline
                .tenants
                .iter()
                .find(|b| b.tenant.0 == target)
                .map(|b| b.stats.cycles)
                .unwrap_or(0);
            (r.stats.cycles, clean)
        });
    match degraded {
        Some((chaos, clean)) if chaos != clean => println!(
            "containment verified: {plan_name} scoped to T{target} ({clean} -> {chaos} \
             cycles); every other tenant byte-identical to the fault-free mix"
        ),
        _ => println!(
            "containment verified: every non-target tenant byte-identical to the \
             fault-free mix ({plan_name} left T{target} unperturbed this seed)"
        ),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::run("hpe-chaos", COMMANDS, &args)
}
