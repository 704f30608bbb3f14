//! Shared experiment runner: one application x one policy x one
//! oversubscription rate, on the scaled reproduction configuration.
//!
//! `PolicyKind::build` is the one policy-constructor table; [`run`] is
//! the one entry point over it. Everything an experiment varies — a
//! custom HPE configuration, a fault plan, the recovery, sanitizer and
//! profiler knobs — is a field of [`RunSpec`].

use std::any::Any;
use std::num::NonZeroU64;

use hpe_core::{Classification, Hpe, HpeConfig, StrategyKind};
use uvm_policies::{
    ClockPro, ClockProConfig, EvictionPolicy, Lfu, Lru, RandomPolicy, Rrip, RripConfig,
};
use uvm_sim::{
    ideal_for, trace_for, Checkpoint, EventCounters, EventLog, FallbackVictim, FaultPlan,
    Instrument, IntervalKey, IntervalSeries, ProfileConfig, ProfileReport, Profiler, RetryPolicy,
    Sanitizer, SimEvent, Simulation, TraceHistograms,
};
use uvm_types::{Oversubscription, SimConfig, SimError, SimStats};
use uvm_util::{json, Json, ToJson};
use uvm_workloads::{App, PatternType, Trace};

/// The policies compared in the paper's evaluation (plus LFU from the
/// related-work discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Page-level LRU.
    Lru,
    /// Uniform random.
    Random,
    /// Least-frequently-used.
    Lfu,
    /// RRIP-FP with the delay enhancement; insertion mode chosen per
    /// application exactly as the paper does (distant + threshold 128 for
    /// type II, long + threshold 0 otherwise).
    Rrip,
    /// CLOCK-Pro with fixed `m_c = 128`.
    ClockPro,
    /// Offline Belady-MIN upper bound.
    Ideal,
    /// HPE with the paper-default configuration.
    Hpe,
}

impl Default for PolicyKind {
    /// HPE — the paper's own policy and the tenant engine's default.
    fn default() -> Self {
        PolicyKind::Hpe
    }
}

/// A continuation over a concrete policy type. [`PolicyKind::build`]
/// hands it a factory for the policy, so the simulation the continuation
/// builds is monomorphised (no `Box<dyn EvictionPolicy>` on the hot
/// path) and can be built more than once (checkpoint/resume).
pub(crate) trait WithPolicy {
    /// What the continuation returns.
    type Output;
    /// Receives the factory of the policy [`PolicyKind::build`] chose.
    ///
    /// # Errors
    ///
    /// Whatever the continuation's run (or the factory) fails with.
    fn call<P, M>(self, make: M) -> Result<Self::Output, SimError>
    where
        P: EvictionPolicy + 'static,
        M: Fn() -> Result<P, SimError>;
}

impl PolicyKind {
    /// All policy kinds in report order.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Lfu,
        PolicyKind::Rrip,
        PolicyKind::ClockPro,
        PolicyKind::Ideal,
        PolicyKind::Hpe,
    ];

    /// Parses a display label case-insensitively ("hpe", "CLOCK-Pro", …),
    /// or one of the aliases `clockpro`, `belady` and `min`.
    pub fn parse(text: &str) -> Option<PolicyKind> {
        match text.to_ascii_lowercase().as_str() {
            "clockpro" => Some(PolicyKind::ClockPro),
            "belady" | "min" => Some(PolicyKind::Ideal),
            lower => PolicyKind::ALL
                .into_iter()
                .find(|k| k.label().eq_ignore_ascii_case(lower)),
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Random => "Random",
            PolicyKind::Lfu => "LFU",
            PolicyKind::Rrip => "RRIP",
            PolicyKind::ClockPro => "CLOCK-Pro",
            PolicyKind::Ideal => "Ideal",
            PolicyKind::Hpe => "HPE",
        }
    }

    /// The policy-constructor table: hands `then` a factory for this
    /// kind's policy on `app`, built from the inputs the paper's
    /// evaluation uses (the app's seed for Random, [`rrip_config_for`],
    /// the default CLOCK-Pro configuration, the Belady oracle of `trace`,
    /// and `hpe` or else [`HpeConfig::from_sim`]). `hpe` is read only by
    /// [`PolicyKind::Hpe`].
    ///
    /// # Errors
    ///
    /// Returns whatever `then` returns; the HPE factory fails with
    /// [`SimError`] on an invalid configuration.
    pub(crate) fn build<W: WithPolicy>(
        self,
        cfg: &SimConfig,
        app: &App,
        trace: &Trace,
        hpe: Option<&HpeConfig>,
        then: W,
    ) -> Result<W::Output, SimError> {
        match self {
            PolicyKind::Lru => then.call(|| Ok(Lru::new())),
            PolicyKind::Random => then.call(|| Ok(RandomPolicy::seeded(app.seed()))),
            PolicyKind::Lfu => then.call(|| Ok(Lfu::new())),
            PolicyKind::Rrip => then.call(|| Ok(Rrip::new(rrip_config_for(app)))),
            PolicyKind::ClockPro => then.call(|| Ok(ClockPro::new(ClockProConfig::default()))),
            PolicyKind::Ideal => then.call(|| Ok(ideal_for(trace))),
            PolicyKind::Hpe => then.call(|| {
                Ok(Hpe::new(
                    hpe.cloned().unwrap_or_else(|| HpeConfig::from_sim(cfg)),
                )?)
            }),
        }
    }
}

/// HPE-specific observations extracted after a run.
#[derive(Debug, Clone)]
pub struct HpeReport {
    /// Classification (ratios + category) at first memory-full.
    pub classification: Option<Classification>,
    /// Old-partition size (sets) at first memory-full.
    pub old_sets_at_full: Option<usize>,
    /// `(fault, strategy)` timeline.
    pub timeline: Vec<(u64, StrategyKind)>,
    /// `(fault, jump)` search-point adjustments.
    pub jump_events: Vec<(u64, u32)>,
    /// MRU-C searches performed.
    pub mruc_searches: u64,
    /// Total MRU-C entry comparisons.
    pub mruc_comparisons: u64,
    /// Page sets divided.
    pub divided_sets: u64,
}

impl HpeReport {
    /// The report of `policy` if it is HPE, else `None`.
    fn of<P: 'static>(policy: &P) -> Option<Self> {
        let hpe = (policy as &dyn Any).downcast_ref::<Hpe>()?;
        let (mruc_searches, mruc_comparisons) = hpe.mruc_search_overhead();
        Some(HpeReport {
            classification: hpe.classification().copied(),
            old_sets_at_full: hpe.old_sets_at_full(),
            timeline: hpe.strategy_timeline().to_vec(),
            jump_events: hpe.jump_events().to_vec(),
            mruc_searches,
            mruc_comparisons,
            divided_sets: hpe.divided_sets(),
        })
    }
}

/// One experiment's result.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Application abbreviation.
    pub app: &'static str,
    /// Policy label.
    pub policy: &'static str,
    /// Oversubscription rate.
    pub rate: Oversubscription,
    /// Simulator statistics.
    pub stats: SimStats,
    /// HPE-specific extras (None for baselines).
    pub hpe: Option<HpeReport>,
    /// The cycle-attribution profile when [`RecoveryOptions::profile`]
    /// attached the profiler, else `None`.
    pub profile: Option<ProfileReport>,
}

/// Recovery knobs applied to a run (chaos campaigns): the driver's
/// retry/backoff policy for lost completion signals and the fallback
/// victim selector used when the eviction policy cannot answer.
///
/// The default (`None` retry, min-page fallback) reproduces the
/// pre-recovery engine behavior exactly, so clean runs are unaffected.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryOptions {
    /// Exponential-backoff retry policy for lost completion signals.
    /// `None` keeps the fault plan's flat retry latency (and its
    /// livelock-to-`Stalled` semantics).
    pub retry: Option<RetryPolicy>,
    /// Victim selector used when the policy cannot produce a victim.
    pub fallback: FallbackVictim,
    /// Runtime invariant sanitizer cadence (events between sweeps).
    /// `None` disables the sanitizer entirely (zero cost).
    pub sanitize: Option<u64>,
    /// Cycle-attribution profiler metrics cadence (cycles between
    /// time-series samples). `None` disables the profiler entirely (zero
    /// cost); `Some` attaches it, which is observation-only — the run's
    /// [`SimStats`] stay byte-identical and [`RunResult::profile`]
    /// carries the report.
    pub profile: Option<u64>,
}

/// The RRIP configuration the paper assigns to `app` (Section V-B).
pub fn rrip_config_for(app: &App) -> RripConfig {
    if app.pattern() == PatternType::Thrashing {
        RripConfig::for_thrashing()
    } else {
        RripConfig::default()
    }
}

/// One run: `app` under `kind` at `rate`, plus the knobs experiments
/// vary. [`RunSpec::new`] gives the plain run; set the other fields with
/// struct-update syntax.
#[derive(Clone)]
pub struct RunSpec<'a> {
    /// The application.
    pub app: &'a App,
    /// The oversubscription rate.
    pub rate: Oversubscription,
    /// The eviction policy.
    pub kind: PolicyKind,
    /// A custom HPE configuration (sensitivity studies, shared-HIR
    /// tenants); `None` uses [`HpeConfig::from_sim`]. Only read when
    /// `kind` is [`PolicyKind::Hpe`].
    pub hpe: Option<HpeConfig>,
    /// A fault-injection plan (chaos campaigns); `None` runs clean.
    pub plan: Option<&'a FaultPlan>,
    /// Driver retry, fallback victim, sanitizer and profiler knobs.
    pub recovery: RecoveryOptions,
}

impl<'a> RunSpec<'a> {
    /// The plain run: paper-default HPE configuration, no fault plan,
    /// default recovery.
    pub fn new(app: &'a App, rate: Oversubscription, kind: PolicyKind) -> Self {
        RunSpec {
            app,
            rate,
            kind,
            hpe: None,
            plan: None,
            recovery: RecoveryOptions::default(),
        }
    }

    /// HPE under a custom configuration (sensitivity studies).
    pub fn hpe(app: &'a App, rate: Oversubscription, hpe: HpeConfig) -> Self {
        RunSpec {
            hpe: Some(hpe),
            ..RunSpec::new(app, rate, PolicyKind::Hpe)
        }
    }
}

/// Runs `app` under `kind` at `rate` using simulator configuration `cfg`:
/// shorthand for [`run`] on [`RunSpec::new`].
///
/// # Errors
///
/// Returns [`SimError`] if `cfg` is invalid or the run cannot complete
/// soundly.
pub fn run_policy(
    cfg: &SimConfig,
    app: &App,
    rate: Oversubscription,
    kind: PolicyKind,
) -> Result<RunResult, SimError> {
    run(cfg, &RunSpec::new(app, rate, kind))
}

/// Runs `spec` using simulator configuration `cfg`.
///
/// # Errors
///
/// Returns [`SimError`] if any configuration or the plan is invalid, or
/// the run cannot complete soundly — an injected unbounded livelock
/// surfaces as [`SimError::Stalled`], or as
/// [`SimError::RetriesExhausted`] with a retry policy set.
pub fn run(cfg: &SimConfig, spec: &RunSpec) -> Result<RunResult, SimError> {
    let trace = trace_for(cfg, spec.app);
    Ok(drive(cfg, spec, &trace, None, |_, _| {})?.result)
}

/// A finished run as [`drive`] reports it: the [`RunResult`] plus the
/// engine's end-of-run HIR-channel state.
#[derive(Debug, Clone)]
pub struct Driven {
    /// The result, as [`run`] returns it.
    pub result: RunResult,
    /// Whether an injected HIR channel outage was still active at the end.
    pub hir_down: bool,
    /// Demand faults serviced since the HIR channel last came (or was) up.
    pub hir_clean_streak_faults: u64,
    /// Whether the policy ended the run in its degraded mode.
    pub degraded: bool,
}

/// Runs `spec` over `trace` (which must be `trace_for(cfg, spec.app)`)
/// to completion: straight through when `interrupt` is `None`, else
/// paused at that cycle, checkpointed, and resumed from the checkpoint in
/// a fresh simulation. `on_checkpoint` sees the checkpoint and whether
/// the run had already finished by the pause (it is then finished in
/// place instead of resumed).
///
/// # Errors
///
/// As [`run`]; a checkpoint that does not replay surfaces as the
/// resume's [`SimError`].
pub fn drive(
    cfg: &SimConfig,
    spec: &RunSpec,
    trace: &Trace,
    interrupt: Option<u64>,
    on_checkpoint: impl FnOnce(&Checkpoint, bool),
) -> Result<Driven, SimError> {
    let Some(cadence) = spec.recovery.profile else {
        return Ok(drive_with(cfg, spec, trace, interrupt, on_checkpoint, || ())?.0);
    };
    let profiler = || Profiler::new(ProfileConfig::new(cadence));
    let (mut driven, profiler) = drive_with(cfg, spec, trace, interrupt, on_checkpoint, profiler)?;
    let capacity = spec.rate.capacity_pages(spec.app.footprint_pages());
    driven.result.profile = Some(profiler.finalize(driven.result.stats.cycles, capacity));
    Ok(driven)
}

/// [`drive`] with the instrument `instrument()` builds attached to each
/// simulation; returns the instrument of the simulation that finished.
fn drive_with<I: Instrument>(
    cfg: &SimConfig,
    spec: &RunSpec,
    trace: &Trace,
    interrupt: Option<u64>,
    on_checkpoint: impl FnOnce(&Checkpoint, bool),
    instrument: impl Fn() -> I,
) -> Result<(Driven, I), SimError> {
    let then = Drive {
        cfg,
        spec,
        trace,
        interrupt,
        on_checkpoint,
        instrument,
    };
    spec.kind
        .build(cfg, spec.app, trace, spec.hpe.as_ref(), then)
}

struct Drive<'a, F, G> {
    cfg: &'a SimConfig,
    spec: &'a RunSpec<'a>,
    trace: &'a Trace,
    interrupt: Option<u64>,
    on_checkpoint: F,
    instrument: G,
}

impl<F, I, G> WithPolicy for Drive<'_, F, G>
where
    F: FnOnce(&Checkpoint, bool),
    I: Instrument,
    G: Fn() -> I,
{
    type Output = (Driven, I);

    fn call<P, M>(self, make: M) -> Result<Self::Output, SimError>
    where
        P: EvictionPolicy + 'static,
        M: Fn() -> Result<P, SimError>,
    {
        let spec = self.spec;
        let capacity = spec.rate.capacity_pages(spec.app.footprint_pages());
        let build = || -> Result<Simulation<P, I>, SimError> {
            let sim = Simulation::new(self.cfg.clone(), self.trace, make()?, capacity)?;
            let mut sim = sim.instrument((self.instrument)());
            let recovery = spec.recovery;
            sim.set_resilience(spec.plan.cloned(), recovery.retry, recovery.fallback)?;
            if let Some(cadence) = recovery.sanitize {
                sim.set_sanitizer(Sanitizer::new(cadence));
            }
            Ok(sim)
        };
        let outcome = match self.interrupt {
            None => build()?.run()?,
            Some(at) => {
                let mut first = build()?;
                let done = first.run_until(at)?;
                let ckpt = first.checkpoint();
                (self.on_checkpoint)(&ckpt, done);
                if done {
                    first.finish()?
                } else {
                    let mut resumed = build()?;
                    resumed.resume(&ckpt)?;
                    resumed.finish()?
                }
            }
        };
        let driven = Driven {
            result: RunResult {
                app: spec.app.abbr(),
                policy: spec.kind.label(),
                rate: spec.rate,
                stats: outcome.stats,
                hpe: HpeReport::of(&outcome.policy),
                profile: None,
            },
            hir_down: outcome.hir_down,
            hir_clean_streak_faults: outcome.hir_clean_streak_faults,
            degraded: outcome.policy.is_degraded(),
        };
        Ok((driven, outcome.instrument))
    }
}

/// Cycle-window width of [`summary_json`]'s cycle-keyed series (≈ 9
/// fault services on the Table I timing).
pub const TRACE_CYCLE_WINDOW: NonZeroU64 = NonZeroU64::new(1 << 18).expect("nonzero");

/// Windows of `cfg.interval_len` faults: the policy interval clock that
/// the fault-keyed trace series (fig. 13, fig. 15, [`summary_json`]) use.
pub fn fault_windows(cfg: &SimConfig) -> IntervalKey {
    // `SimConfig::validate` rejects a zero interval, so a run never has one.
    IntervalKey::Faults(NonZeroU64::new(u64::from(cfg.interval_len)).unwrap_or(NonZeroU64::MIN))
}

/// The summaries of a [`run_policy_traced`] stream as one JSON document:
/// counters, the fault- and cycle-keyed interval series and the
/// histograms (the stream itself is exported as JSONL).
pub fn summary_json(cfg: &SimConfig, events: &[SimEvent]) -> Json {
    json!({
        "counters": EventCounters::of(events),
        "intervals_by_fault": IntervalSeries::of(events, fault_windows(cfg)).to_json(),
        "intervals_by_cycle": IntervalSeries::of(events, IntervalKey::Cycles(TRACE_CYCLE_WINDOW))
            .to_json(),
        "histograms": TraceHistograms::of(events).to_json(),
    })
}

/// Runs `app` under `kind` at `rate` and records its event stream.
///
/// The engine records every policy's victim selections, and HPE adds
/// its strategy switches and HIR flushes. Tracing is purely
/// observational — `RunResult.stats` is identical to [`run_policy`]'s.
///
/// # Errors
///
/// Returns [`SimError`] if `cfg` is invalid or the run cannot complete
/// soundly.
pub fn run_policy_traced(
    cfg: &SimConfig,
    app: &App,
    rate: Oversubscription,
    kind: PolicyKind,
) -> Result<(RunResult, EventLog), SimError> {
    let trace = trace_for(cfg, app);
    let spec = RunSpec::new(app, rate, kind);
    let (driven, log) = drive_with(cfg, &spec, &trace, None, |_, _| {}, EventLog::new)?;
    Ok((driven.result, log))
}

/// The strategy the paper manually assigns per application for the
/// sensitivity studies (applications that run LRU for their entire
/// execution per Section V-C vs. the MRU-C ones).
pub fn manual_strategy_for(app: &App) -> StrategyKind {
    match app.abbr() {
        "KMN" | "NW" | "B+T" | "HYB" | "SPV" | "MVT" | "HWL" => StrategyKind::Lru,
        _ => StrategyKind::MruC,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_workloads::registry;

    /// The runner seeds Random from the app: a run through it equals a
    /// direct run seeded with `app.seed()` and differs from a run under
    /// another seed.
    #[test]
    fn random_is_seeded_from_the_app() {
        let cfg = crate::bench_config();
        let app = registry::by_abbr("HSD").unwrap();
        let rate = Oversubscription::Rate75;
        let trace = trace_for(&cfg, app);
        let capacity = rate.capacity_pages(app.footprint_pages());
        let direct = |seed| {
            Simulation::new(cfg.clone(), &trace, RandomPolicy::seeded(seed), capacity)
                .unwrap()
                .run()
                .unwrap()
                .stats
        };
        let via_runner = run_policy(&cfg, app, rate, PolicyKind::Random)
            .unwrap()
            .stats;
        assert_eq!(via_runner, direct(app.seed()));
        assert_ne!(via_runner, direct(app.seed() ^ 1));
    }
}
