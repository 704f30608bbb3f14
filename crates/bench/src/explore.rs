//! Execution side of the fault-space exploration engine (`hpe-chaos
//! explore`).
//!
//! `uvm_sim::ExploreSpec` owns the pure bookkeeping — case enumeration,
//! shrinking control flow, report types. This module owns everything
//! that needs the policy zoo and a thread pool:
//!
//! * running a case through the shared runner ([`crate::runner::drive`]:
//!   any [`PolicyKind`] from the one constructor table, straight or
//!   interrupted-and-resumed),
//! * evaluating the spec's invariant set on a case — one sanitized run
//!   shared by `completes`/`sanitizer`/`conservation`/`recovery`, plus
//!   one extra run each for `replay` and `checkpoint`,
//! * fanning the case list over the ordered worker pool
//!   ([`uvm_util::pool`]: claimed in enumeration order, verdicts merged
//!   by case id, so the report is **byte-identical for any worker
//!   count**),
//! * shrinking failing cases serially, in enumeration order, with
//!   [`uvm_sim::shrink_plan`] — the serial phase is what keeps the
//!   counterexample bytes independent of worker count,
//! * packaging counterexamples as replayable [`ReproCase`] documents and
//!   re-executing them (`hpe-chaos replay`).

use std::fmt;
use std::io;

use uvm_sim::{
    audit, shrink_plan, trace_for, Counterexample, ExploreReport, ExploreSpec, FaultPlan,
    ReproCase, RetryPolicy, TenantMix, TenantReport, ALL_INVARIANTS,
};
use uvm_types::{ConfigError, Oversubscription, SimConfig, SimError};
use uvm_util::json;
use uvm_util::pool::Pool;
use uvm_workloads::{registry, App, Trace};

use crate::runner::{drive, Driven, PolicyKind, RecoveryOptions, RunSpec};
use crate::tenant::{check_containment, containment_mix, run_mix_serial, MixOptions};

/// Clean-fault headroom after which a still-degraded HPE run counts as a
/// `recovery` violation: the policy re-checks its exit conditions on
/// every fault while the HIR channel is up, so a generous multiple of
/// the circuit breaker's re-arm horizon is more than enough legitimate
/// lag.
pub const RECOVERY_STREAK_FAULTS: u64 = 256;

/// Why an exploration could not run (as opposed to running and finding
/// counterexamples, which is a successful exploration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The spec (or repro case) failed `ExploreSpec::validate`.
    Invalid(ConfigError),
    /// The spec's app abbreviation is not in the workload registry.
    UnknownApp(String),
    /// The spec's policy label is not in the policy zoo.
    UnknownPolicy(String),
    /// The `containment` invariant's fault-free baseline mix failed.
    Baseline(String),
    /// The spec enumerated no cases (empty grid, no fixtures, no batch).
    EmptyCaseList,
    /// The progress stream could not be written.
    Io(String),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Invalid(e) => write!(f, "{e}"),
            ExploreError::UnknownApp(a) => write!(f, "unknown app '{a}'"),
            ExploreError::UnknownPolicy(p) => write!(f, "unknown policy '{p}'"),
            ExploreError::Baseline(m) => write!(f, "containment baseline failed: {m}"),
            ExploreError::EmptyCaseList => write!(f, "spec enumerates no cases"),
            ExploreError::Io(m) => write!(f, "explore i/o error: {m}"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// One case's invariant evaluation.
#[derive(Debug, Clone)]
struct Evaluation {
    /// Simulation runs this evaluation cost (1–3).
    runs: u64,
    /// Selected invariants actually evaluated.
    checks: u64,
    /// First violated invariant + its error text, in check order.
    violation: Option<(String, String)>,
}

/// Everything shared by every run of one exploration. Built once,
/// borrowed by all workers (all fields are `Sync` plain data).
struct Ctx<'a> {
    cfg: &'a SimConfig,
    app: &'static App,
    trace: Trace,
    rate: Oversubscription,
    kind: PolicyKind,
    retry: Option<RetryPolicy>,
    /// The spec's invariant selection, in [`ALL_INVARIANTS`] order.
    invariants: Vec<String>,
    sanitize_cadence: u64,
    checkpoint_at: u64,
    /// The `containment` invariant's mix and its fault-free baseline,
    /// computed eagerly at context build (never lazily inside a worker)
    /// so the merged report stays byte-identical for any worker count.
    tenant_mix: Option<TenantMix>,
    tenant_baseline: Option<TenantReport>,
    tenant_target: u64,
}

impl Ctx<'_> {
    fn want(&self, invariant: &str) -> bool {
        self.invariants.iter().any(|i| i == invariant)
    }

    /// One simulation run of `plan` under this context, interrupted and
    /// resumed at `interrupt` when given (the `checkpoint` invariant's
    /// subject).
    fn probe(
        &self,
        plan: &FaultPlan,
        sanitize: Option<u64>,
        interrupt: Option<u64>,
    ) -> Result<Driven, SimError> {
        let spec = RunSpec {
            plan: Some(plan),
            recovery: RecoveryOptions {
                retry: self.retry,
                sanitize,
                ..RecoveryOptions::default()
            },
            ..RunSpec::new(self.app, self.rate, self.kind)
        };
        drive(self.cfg, &spec, &self.trace, interrupt, |_, _| {})
    }

    fn check_recovery(&self, base: &Driven) -> Option<String> {
        if base.degraded && !base.hir_down && base.hir_clean_streak_faults > RECOVERY_STREAK_FAULTS
        {
            return Some(format!(
                "HPE still degraded after {} clean faults with the HIR channel up",
                base.hir_clean_streak_faults
            ));
        }
        None
    }

    /// Runs the containment mix with `plan` scoped to the target tenant
    /// and byte-compares every other tenant's row against the fault-free
    /// baseline.
    fn check_containment_invariant(
        &self,
        plan: &FaultPlan,
        mix: &TenantMix,
        baseline: &TenantReport,
    ) -> Option<String> {
        let opts = MixOptions {
            policy: self.kind,
            plan: Some(plan.clone()),
            plan_name: "explore-case".to_string(),
            fault_tenant: Some(self.tenant_target),
            ..MixOptions::default()
        };
        match run_mix_serial(self.cfg, mix, &opts) {
            Err(e) => Some(format!("containment mix run failed: {e}")),
            Ok(faulted) => check_containment(baseline, &faulted).err(),
        }
    }

    fn check_replay(
        &self,
        plan: &FaultPlan,
        sanitize: Option<u64>,
        base: &Driven,
    ) -> Option<String> {
        match self.probe(plan, sanitize, None) {
            Err(e) => Some(format!("second identical run failed: {e}")),
            Ok(again) if again.result.stats != base.result.stats => {
                Some("two identical runs produced different statistics".to_string())
            }
            Ok(_) => None,
        }
    }

    fn check_checkpoint(
        &self,
        plan: &FaultPlan,
        sanitize: Option<u64>,
        base: &Driven,
    ) -> Option<String> {
        match self.probe(plan, sanitize, Some(self.checkpoint_at)) {
            Err(e) => Some(format!(
                "interrupted-and-resumed run failed at cycle {}: {e}",
                self.checkpoint_at
            )),
            Ok(resumed) if resumed.result.stats != base.result.stats => Some(format!(
                "run resumed from a cycle-{} checkpoint diverged from the straight run",
                self.checkpoint_at
            )),
            Ok(_) => None,
        }
    }

    /// Evaluates the selected invariants on `plan`, stopping at the
    /// first violation (in [`ALL_INVARIANTS`] order).
    ///
    /// A run that cannot finish is always surfaced — as `sanitizer` for
    /// a mid-run invariant report, else as `completes` — even when those
    /// invariants are deselected, because nothing else is evaluable
    /// without a finished run.
    fn verdict(&self, plan: &FaultPlan) -> Evaluation {
        let sanitize = self.want("sanitizer").then_some(self.sanitize_cadence);
        let mut runs = 1u64;
        let mut checks = 0u64;
        let (base, broke) = match self.probe(plan, sanitize, None) {
            Ok(r) => (Some(r), None),
            Err(e) => {
                let invariant = if matches!(e, SimError::InvariantViolated { .. }) {
                    "sanitizer"
                } else {
                    "completes"
                };
                (None, Some((invariant.to_string(), e.to_string())))
            }
        };
        for inv in &self.invariants {
            let violation: Option<String> = match (inv.as_str(), &base) {
                ("completes" | "sanitizer", _) => {
                    checks += 1;
                    match &broke {
                        Some((i, e)) if i == inv => Some(e.clone()),
                        _ => None,
                    }
                }
                // The base run did not finish: later invariants are not
                // evaluable (the break is surfaced below regardless).
                (_, None) => continue,
                ("conservation", Some(b)) => {
                    checks += 1;
                    let capacity = self.rate.capacity_pages(self.app.footprint_pages());
                    let ops = self.trace.total_ops();
                    let audited = audit(&b.result.stats, ops, capacity, Some(plan));
                    audited.err().map(|e| e.to_string())
                }
                ("replay", Some(b)) => {
                    checks += 1;
                    runs += 1;
                    self.check_replay(plan, sanitize, b)
                }
                ("checkpoint", Some(b)) => {
                    if self.checkpoint_at == 0 {
                        continue;
                    }
                    checks += 1;
                    runs += 1;
                    self.check_checkpoint(plan, sanitize, b)
                }
                ("recovery", Some(b)) => {
                    if self.kind != PolicyKind::Hpe {
                        continue;
                    }
                    checks += 1;
                    self.check_recovery(b)
                }
                ("containment", Some(_)) => {
                    let (Some(mix), Some(baseline)) = (&self.tenant_mix, &self.tenant_baseline)
                    else {
                        // Spec declared no tenant mix: skipped, like
                        // `checkpoint` at cycle 0.
                        continue;
                    };
                    checks += 1;
                    runs += mix.tenants.len() as u64;
                    self.check_containment_invariant(plan, mix, baseline)
                }
                _ => None,
            };
            if let Some(error) = violation {
                return Evaluation {
                    runs,
                    checks,
                    violation: Some((inv.clone(), error)),
                };
            }
        }
        if let Some(broke) = broke {
            return Evaluation {
                runs,
                checks,
                violation: Some(broke),
            };
        }
        Evaluation {
            runs,
            checks,
            violation: None,
        }
    }
}

/// An explore spec's names resolved and its values validated: the one
/// step between decoding a spec (or a repro case, as
/// [`ReproCase::spec`]) and running it.
#[derive(Debug, Clone)]
pub struct Target {
    app: &'static App,
    kind: PolicyKind,
    rate: Oversubscription,
    /// The selected invariants, in [`ALL_INVARIANTS`] order.
    invariants: Vec<String>,
}

/// Validates `spec` and resolves its app, policy and rate, so that a bad
/// document fails before any output or run.
///
/// # Errors
///
/// Returns [`ExploreError`] if the spec fails `ExploreSpec::validate` or
/// names an unknown app or policy.
pub fn check(spec: &ExploreSpec) -> Result<Target, ExploreError> {
    spec.validate().map_err(ExploreError::Invalid)?;
    let app =
        registry::by_abbr(&spec.app).ok_or_else(|| ExploreError::UnknownApp(spec.app.clone()))?;
    let kind = PolicyKind::parse(&spec.policy)
        .ok_or_else(|| ExploreError::UnknownPolicy(spec.policy.clone()))?;
    // `validate` admits only the paper's two rates.
    let rate = match spec.rate {
        50 => Oversubscription::Rate50,
        _ => Oversubscription::Rate75,
    };
    let selected = spec.invariant_set();
    let invariants = ALL_INVARIANTS
        .iter()
        .filter(|known| selected.iter().any(|i| i == *known))
        .map(|s| s.to_string())
        .collect();
    Ok(Target {
        app,
        kind,
        rate,
        invariants,
    })
}

/// Builds the shared run context for a checked spec.
fn context<'a>(
    cfg: &'a SimConfig,
    spec: &ExploreSpec,
    target: Target,
) -> Result<Ctx<'a>, ExploreError> {
    // The containment invariant needs a tenant mix and its fault-free
    // baseline. Both are built eagerly here — once, before the worker
    // pool starts — so verdicts stay pure per-case functions and the
    // merged report is byte-identical for any worker count.
    let wants_containment = target.invariants.iter().any(|i| i == "containment");
    let (tenant_mix, tenant_baseline) = if wants_containment && spec.tenants >= 2 {
        let mix = containment_mix(spec.tenants, spec.tenant_quota_pct);
        let opts = MixOptions {
            policy: target.kind,
            ..MixOptions::default()
        };
        let baseline =
            run_mix_serial(cfg, &mix, &opts).map_err(|e| ExploreError::Baseline(e.to_string()))?;
        (Some(mix), Some(baseline))
    } else {
        (None, None)
    };
    Ok(Ctx {
        cfg,
        app: target.app,
        trace: trace_for(cfg, target.app),
        rate: target.rate,
        kind: target.kind,
        retry: spec.retry,
        invariants: target.invariants,
        sanitize_cadence: spec.sanitize_cadence,
        checkpoint_at: spec.checkpoint_at,
        tenant_mix,
        tenant_baseline,
        tenant_target: spec.tenant_target,
    })
}

/// Runs the exploration: enumerates the spec's cases, fans them over
/// `workers` pool threads, shrinks every failing case to a minimal
/// counterexample, and returns the merged coverage report.
///
/// The report is **byte-identical for any worker count**: verdicts are
/// pure per-case functions merged by enumeration id, and shrinking runs
/// serially in id order after the parallel phase.
///
/// `progress`, when given, receives one compact JSON line per completed
/// case in arrival order (observability only — explicitly outside the
/// determinism contract).
///
/// # Errors
///
/// Returns [`ExploreError`] if the spec is invalid or names an unknown
/// app/policy, enumerates no cases, or the progress stream cannot be
/// written. Invariant violations are *results*, not errors — they come
/// back as counterexamples on the report.
pub fn run_explore(
    cfg: &SimConfig,
    spec: &ExploreSpec,
    workers: usize,
    mut progress: Option<&mut dyn io::Write>,
) -> Result<ExploreReport, ExploreError> {
    let ctx = context(cfg, spec, check(spec)?)?;
    let (cases, skipped) = spec.cases();
    if cases.is_empty() {
        return Err(ExploreError::EmptyCaseList);
    }

    // Parallel verdict phase on the ordered pool: claimed in enumeration
    // order, merged by case id.
    let order: Vec<usize> = (0..cases.len()).collect();
    let mut verdicts = Pool::new(cases.len());
    verdicts.run(
        &order,
        workers,
        None,
        |i| ctx.verdict(&cases[i].plan),
        |i, done| {
            let (Some(w), Some(verdict)) = (progress.as_deref_mut(), done.get(i)) else {
                return Ok(());
            };
            let line = json!({
                "id": cases[i].id,
                "label": cases[i].label.clone(),
                "ok": verdict.violation.is_none(),
                "invariant": verdict.violation.as_ref().map(|(inv, _)| inv.clone()),
            })
            .to_string();
            writeln!(w, "{line}").map_err(|e| ExploreError::Io(e.to_string()))
        },
    )?;

    let mut runs = 0u64;
    let mut invariant_checks = 0u64;
    let mut shrink_probes = 0u64;
    let mut counterexamples = Vec::new();
    // Serial shrink phase, in enumeration order: the probe sequence (and
    // therefore the shrunk plan bytes) must not depend on worker count.
    for (case, verdict) in cases.iter().zip(verdicts.completed()) {
        runs += verdict.runs;
        invariant_checks += verdict.checks;
        let Some((target, first_error)) = verdict.violation.clone() else {
            continue;
        };
        let mut fails = |candidate: &FaultPlan| -> bool {
            let v = ctx.verdict(candidate);
            matches!(&v.violation, Some((inv, _)) if *inv == target)
        };
        let (plan, probes) = shrink_plan(&case.plan, spec.shrink_budget, &mut fails);
        // One confirming run on the shrunk plan pins the exact error the
        // minimal counterexample reproduces.
        let confirm = ctx.verdict(&plan);
        shrink_probes += probes + 1;
        let error = match confirm.violation {
            Some((_, e)) => e,
            None => first_error,
        };
        counterexamples.push(Counterexample {
            case: case.id,
            label: case.label.clone(),
            invariant: target,
            error,
            probes: probes + 1,
            plan,
        });
    }

    let count_of =
        |prefix: &str| cases.iter().filter(|c| c.label.starts_with(prefix)).count() as u64;
    Ok(ExploreReport {
        app: spec.app.clone(),
        policy: ctx.kind.label().to_string(),
        rate: spec.rate,
        cases: cases.len() as u64,
        fixture_cases: count_of("fixture:"),
        window_cases: count_of("window:"),
        batch_cases: count_of("batch:"),
        skipped_invalid: skipped,
        distinct_placements: spec.distinct_placements(),
        invariants: ctx.invariants.clone(),
        runs,
        invariant_checks,
        shrink_probes,
        counterexamples,
    })
}

/// Packages a counterexample as a self-contained replayable repro.
pub fn repro_for(spec: &ExploreSpec, cx: &Counterexample) -> ReproCase {
    ReproCase {
        app: spec.app.clone(),
        policy: spec.policy.clone(),
        rate: spec.rate,
        invariant: cx.invariant.clone(),
        error: cx.error.clone(),
        retry: spec.retry,
        sanitize_cadence: spec.sanitize_cadence,
        checkpoint_at: spec.checkpoint_at,
        tenants: spec.tenants,
        tenant_target: spec.tenant_target,
        tenant_quota_pct: spec.tenant_quota_pct,
        plan: cx.plan.clone(),
    }
}

/// Re-executes a repro deterministically and returns the violation it
/// reproduced — `(invariant, error)` — or `None` if the run came back
/// clean (the recorded bug did not reproduce).
///
/// # Errors
///
/// Returns [`ExploreError`] if the repro fails [`check`] as
/// [`ReproCase::spec`], or its containment baseline fails.
pub fn replay_repro(
    cfg: &SimConfig,
    repro: &ReproCase,
) -> Result<Option<(String, String)>, ExploreError> {
    let spec = repro.spec();
    let ctx = context(cfg, &spec, check(&spec)?)?;
    Ok(ctx.verdict(&repro.plan).violation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_config;

    /// A minimal clean spec: one fixture plan, no grid, no batch, the
    /// cheap single-run invariants only.
    fn tiny_clean_spec() -> ExploreSpec {
        ExploreSpec {
            policy: "lru".to_string(),
            grid_limit: 0,
            fixtures: vec![FaultPlan::latency_storm(5)],
            invariants: vec!["completes".to_string(), "conservation".to_string()],
            ..ExploreSpec::default()
        }
    }

    #[test]
    fn clean_fixture_reports_zero_counterexamples() {
        let report = run_explore(&bench_config(), &tiny_clean_spec(), 1, None).unwrap();
        assert_eq!(report.cases, 1);
        assert_eq!(report.fixture_cases, 1);
        assert_eq!(report.window_cases, 0);
        assert_eq!(report.runs, 1, "both invariants share the base run");
        assert_eq!(report.invariant_checks, 2);
        assert!(
            report.counterexamples.is_empty(),
            "{:?}",
            report.counterexamples
        );
        assert_eq!(report.shrink_probes, 0);
        assert_eq!(report.policy, "LRU", "label normalized");
        assert_eq!(
            report.invariants,
            vec!["completes".to_string(), "conservation".to_string()]
        );
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let cfg = bench_config();
        let mut spec = tiny_clean_spec();
        spec.app = "XXX".to_string();
        assert_eq!(
            run_explore(&cfg, &spec, 1, None).unwrap_err(),
            ExploreError::UnknownApp("XXX".to_string())
        );
        let mut spec = tiny_clean_spec();
        spec.policy = "belady2".to_string();
        assert_eq!(
            run_explore(&cfg, &spec, 1, None).unwrap_err(),
            ExploreError::UnknownPolicy("belady2".to_string())
        );
        let mut spec = tiny_clean_spec();
        spec.fixtures.clear();
        assert_eq!(
            run_explore(&cfg, &spec, 1, None).unwrap_err(),
            ExploreError::EmptyCaseList
        );
    }

    #[test]
    fn containment_invariant_runs_and_holds_on_scoped_faults() {
        // Two tenants, the fault plan scoped to tenant 0: the invariant
        // must actually evaluate (checks > 0) and hold — the non-target
        // tenant's stats stay byte-identical to its fault-free run.
        let spec = ExploreSpec {
            policy: "lru".to_string(),
            grid_limit: 0,
            fixtures: vec![FaultPlan::latency_storm(5)],
            invariants: vec!["completes".to_string(), "containment".to_string()],
            tenants: 2,
            tenant_target: 0,
            ..ExploreSpec::default()
        };
        let report = run_explore(&bench_config(), &spec, 1, None).unwrap();
        assert_eq!(report.cases, 1);
        assert!(
            report.counterexamples.is_empty(),
            "{:?}",
            report.counterexamples
        );
        // completes (1 check) + containment (1 check) per case.
        assert_eq!(report.invariant_checks, 2);
        assert!(
            report.invariants.contains(&"containment".to_string()),
            "{:?}",
            report.invariants
        );

        // A target outside the mix is a typed spec error, not a panic.
        let mut bad = spec.clone();
        bad.tenant_target = 9;
        let err = run_explore(&bench_config(), &bad, 1, None).unwrap_err();
        assert!(matches!(err, ExploreError::Invalid(_)), "{err}");

        // Without a tenant mix the invariant is skipped, like checkpoint
        // at cycle 0: default spec (all invariants, tenants = 0) still
        // runs clean.
        let no_mix = ExploreSpec {
            policy: "lru".to_string(),
            grid_limit: 0,
            fixtures: vec![FaultPlan::latency_storm(5)],
            tenants: 0,
            ..ExploreSpec::default()
        };
        let report = run_explore(&bench_config(), &no_mix, 1, None).unwrap();
        assert!(report.counterexamples.is_empty());
    }

    #[test]
    fn progress_stream_gets_one_line_per_case() {
        let mut buf = Vec::new();
        let report = run_explore(
            &bench_config(),
            &tiny_clean_spec(),
            1,
            Some(&mut buf as &mut dyn io::Write),
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count() as u64, report.cases);
        assert!(text.contains("\"label\":\"fixture:0\""), "{text}");
        assert!(text.contains("\"ok\":true"), "{text}");
    }
}
