//! Shared experiment runner: one application x one policy x one
//! oversubscription rate, on the scaled reproduction configuration.
//!
//! `PolicyKind::build` is the one policy-constructor table; [`run`] is
//! the one entry point over it. Everything an experiment varies — a
//! custom HPE configuration, a fault plan, the recovery, sanitizer and
//! profiler knobs — is a field of [`RunSpec`].

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use hpe_core::{Classification, Hpe, HpeConfig, StrategyKind};
use uvm_policies::{
    ClockPro, ClockProConfig, EvictionPolicy, Lfu, Lru, RandomPolicy, Rrip, RripConfig, Traced,
};
use uvm_sim::{
    ideal_for, trace_for, Checkpoint, EventCounters, EventLog, FallbackVictim, FaultPlan,
    IntervalCollector, IntervalKey, MultiObserver, ProfileConfig, ProfileReport, Profiler,
    RetryPolicy, Sanitizer, SimObserver, Simulation, TraceHistograms,
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

    /// Parses a display label case-insensitively ("hpe", "CLOCK-Pro", …).
    pub fn parse(text: &str) -> Option<PolicyKind> {
        PolicyKind::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(text))
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
    let then = Drive {
        cfg,
        spec,
        trace,
        interrupt,
        on_checkpoint,
    };
    spec.kind
        .build(cfg, spec.app, trace, spec.hpe.as_ref(), then)
}

struct Drive<'a, F> {
    cfg: &'a SimConfig,
    spec: &'a RunSpec<'a>,
    trace: &'a Trace,
    interrupt: Option<u64>,
    on_checkpoint: F,
}

impl<F: FnOnce(&Checkpoint, bool)> WithPolicy for Drive<'_, F> {
    type Output = Driven;

    fn call<P, M>(self, make: M) -> Result<Driven, SimError>
    where
        P: EvictionPolicy + 'static,
        M: Fn() -> Result<P, SimError>,
    {
        let spec = self.spec;
        let capacity = spec.rate.capacity_pages(spec.app.footprint_pages());
        let build = || -> Result<Simulation<P>, SimError> {
            let mut sim = Simulation::new(self.cfg.clone(), self.trace, make()?, capacity)?;
            configure(&mut sim, spec.plan, spec.recovery)?;
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
        Ok(Driven {
            result: RunResult {
                app: spec.app.abbr(),
                policy: spec.kind.label(),
                rate: spec.rate,
                stats: outcome.stats,
                hpe: HpeReport::of(&outcome.policy),
                profile: outcome.profile,
            },
            hir_down: outcome.hir_down,
            hir_clean_streak_faults: outcome.hir_clean_streak_faults,
            degraded: outcome.policy.is_degraded(),
        })
    }
}

fn configure<P: EvictionPolicy>(
    sim: &mut Simulation<P>,
    plan: Option<&FaultPlan>,
    recovery: RecoveryOptions,
) -> Result<(), SimError> {
    if let Some(p) = plan {
        sim.set_fault_plan(p.clone())?;
    }
    if let Some(rp) = recovery.retry {
        sim.set_retry_policy(rp)?;
    }
    sim.set_fallback_victim(recovery.fallback);
    if let Some(cadence) = recovery.sanitize {
        sim.set_sanitizer(Sanitizer::new(cadence));
    }
    if let Some(cadence) = recovery.profile {
        sim.set_profiler(Profiler::new(ProfileConfig::new(cadence)));
    }
    Ok(())
}

/// Cycle-window width used by [`run_policy_traced`]'s cycle-keyed series
/// (≈ 9 fault services on the Table I timing).
pub const TRACE_CYCLE_WINDOW: u64 = 1 << 18;

/// Everything the standard trace sinks collected during one
/// [`run_policy_traced`] run.
#[derive(Debug)]
pub struct TraceCapture {
    /// Event totals by kind.
    pub counters: EventCounters,
    /// Series bucketed by the policy interval clock (`cfg.interval_len`
    /// faults per window).
    pub by_fault: IntervalCollector,
    /// Series bucketed by [`TRACE_CYCLE_WINDOW`] simulated cycles.
    pub by_cycle: IntervalCollector,
    /// Distribution histograms.
    pub histograms: TraceHistograms,
    /// The full event log, in simulated-time order.
    pub log: EventLog,
}

impl TraceCapture {
    /// The capture as one JSON document (counters + both interval series
    /// + histograms; the raw log is exported separately as JSONL).
    pub fn summary_json(&self) -> Json {
        json!({
            "counters": self.counters,
            "intervals_by_fault": self.by_fault.to_json(),
            "intervals_by_cycle": self.by_cycle.to_json(),
            "histograms": self.histograms.to_json(),
        })
    }
}

/// Runs `app` under `kind` at `rate` with the full trace-sink stack
/// attached: counters, fault- and cycle-keyed interval series,
/// histograms, and a complete event log.
///
/// Baselines are wrapped in [`Traced`] so their victim selections are
/// observable; HPE emits its native decision events. Tracing is purely
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
) -> Result<(RunResult, TraceCapture), SimError> {
    let trace = trace_for(cfg, app);

    let counters = Rc::new(RefCell::new(EventCounters::default()));
    let by_fault = Rc::new(RefCell::new(IntervalCollector::new(IntervalKey::Faults(
        u64::from(cfg.interval_len),
    ))));
    let by_cycle = Rc::new(RefCell::new(IntervalCollector::new(IntervalKey::Cycles(
        TRACE_CYCLE_WINDOW,
    ))));
    let histograms = Rc::new(RefCell::new(TraceHistograms::new()));
    let log = Rc::new(RefCell::new(EventLog::new()));
    let mut multi = MultiObserver::new();
    multi.push(counters.clone());
    multi.push(by_fault.clone());
    multi.push(by_cycle.clone());
    multi.push(histograms.clone());
    multi.push(log.clone());
    let observer: Rc<RefCell<dyn SimObserver>> = Rc::new(RefCell::new(multi));

    let then = Observed {
        cfg,
        trace: &trace,
        capacity: rate.capacity_pages(app.footprint_pages()),
        observer: &observer,
        native: kind == PolicyKind::Hpe,
    };
    let (stats, hpe) = kind.build(cfg, app, &trace, None, then)?;

    // The simulation was consumed above, releasing its observer handle;
    // dropping ours releases the MultiObserver's clones of each sink.
    drop(observer);
    fn take<T>(rc: Rc<RefCell<T>>) -> T {
        match Rc::try_unwrap(rc) {
            Ok(cell) => cell.into_inner(),
            Err(_) => panic!("sink uniquely owned after the run"),
        }
    }
    let capture = TraceCapture {
        counters: take(counters),
        by_fault: take(by_fault),
        by_cycle: take(by_cycle),
        histograms: take(histograms),
        log: take(log),
    };
    let result = RunResult {
        app: app.abbr(),
        policy: kind.label(),
        rate,
        stats,
        hpe,
        profile: None,
    };
    Ok((result, capture))
}

/// [`run_policy_traced`]'s continuation: one run with `observer`
/// attached, the policy wrapped in [`Traced`] unless it emits `native`
/// decision events.
struct Observed<'a> {
    cfg: &'a SimConfig,
    trace: &'a Trace,
    capacity: u64,
    observer: &'a Rc<RefCell<dyn SimObserver>>,
    native: bool,
}

impl Observed<'_> {
    fn run<P: EvictionPolicy>(&self, policy: P) -> Result<uvm_sim::SimOutcome<P>, SimError> {
        let mut sim = Simulation::new(self.cfg.clone(), self.trace, policy, self.capacity)?;
        sim.set_observer(self.observer.clone());
        sim.run()
    }
}

impl WithPolicy for Observed<'_> {
    type Output = (SimStats, Option<HpeReport>);

    fn call<P, M>(self, make: M) -> Result<Self::Output, SimError>
    where
        P: EvictionPolicy + 'static,
        M: Fn() -> Result<P, SimError>,
    {
        if self.native {
            let outcome = self.run(make()?)?;
            Ok((outcome.stats, HpeReport::of(&outcome.policy)))
        } else {
            Ok((self.run(Traced::new(make()?))?.stats, None))
        }
    }
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
