//! Tenant execution engine: runs every admitted tenant of a
//! [`TenantMix`] through the policy zoo on the ordered worker pool
//! ([`uvm_util::pool`]) and merges the per-tenant results into a
//! deterministic [`TenantReport`].
//!
//! The sim-side tenant layer (`uvm_sim::tenant`) resolves the admission
//! timeline without running a cycle; this module executes it. Each
//! admitted tenant becomes one independent simulation — its capacity is
//! its residency quota, its HIR geometry depends on the mix's
//! [`HirMode`], and a mix-level [`FaultPlan`] is applied **only** to the
//! tenant it is scoped to. Rejected tenants never run: their typed
//! [`uvm_types::SimError::AdmissionRejected`] is recorded on the report
//! row, counted, never a panic.
//!
//! The same three rules as the campaign engine make the merged report
//! byte-identical for any worker count:
//!
//! 1. each tenant run is a pure function of `(SimConfig, admission row,
//!    policy, scoped plan)` — workers share no simulation state,
//! 2. results merge by schedule index, never by arrival order, and
//! 3. the report serializes rows in schedule order with the
//!    deterministic insertion-ordered JSON writer.
//!
//! Tenant state (the per-slot results) lives in the pool's private slot
//! vector: a slot is written once, by its own tenant's job or the resume
//! prefill, and this module can only read it — so the blast-radius
//! argument ("one tenant's result cannot clobber another's") is a
//! privacy fact the compiler checks.
//!
//! Long mixes checkpoint themselves at tenant boundaries: every
//! `snapshot_every` completions the collector writes a
//! [`TenantSnapshot`] (atomic write-then-rename) with every completed
//! row plus the mix fingerprint. A killed run relaunched with `resume`
//! skips the completed tenants; the merged report is byte-identical to
//! an uninterrupted run.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use hpe_core::HpeConfig;
use uvm_sim::{
    schedule, AdmissionOutcome, FaultPlan, HirMode, TenantAdmission, TenantMix, TenantReport,
    TenantSnapshot, TENANT_SNAPSHOT_SCHEMA,
};
use uvm_types::{HirGeometry, Oversubscription, SimConfig, TenantStats};
use uvm_util::pool::Pool;
use uvm_util::{Json, ToJson};
use uvm_workloads::registry;

use crate::runner::{run, PolicyKind, RunSpec};

/// Default completions between auto-snapshots.
pub const DEFAULT_TENANT_SNAPSHOT_EVERY: usize = 8;

/// A mix-level failure (distinct from per-tenant run failures, which are
/// contained on the tenant's report row).
#[derive(Debug)]
pub enum TenantRunError {
    /// The mix failed validation or the admission ledger caught an
    /// accounting bug.
    Sim(uvm_types::SimError),
    /// A resume snapshot belongs to a different mix.
    SnapshotMismatch {
        /// Fingerprint of the current mix.
        expected: String,
        /// Fingerprint recorded in the snapshot.
        found: String,
    },
    /// A resume snapshot failed to parse or validate.
    SnapshotMalformed(String),
    /// Snapshot I/O failed.
    Io(String),
}

impl fmt::Display for TenantRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantRunError::Sim(e) => e.fmt(f),
            TenantRunError::SnapshotMismatch { expected, found } => write!(
                f,
                "tenant snapshot fingerprint {found} does not match the mix ({expected})"
            ),
            TenantRunError::SnapshotMalformed(m) => write!(f, "malformed tenant snapshot: {m}"),
            TenantRunError::Io(m) => write!(f, "tenant snapshot I/O error: {m}"),
        }
    }
}

impl std::error::Error for TenantRunError {}

impl From<uvm_types::SimError> for TenantRunError {
    fn from(e: uvm_types::SimError) -> Self {
        TenantRunError::Sim(e)
    }
}

impl From<io::Error> for TenantRunError {
    fn from(e: io::Error) -> Self {
        TenantRunError::Io(e.to_string())
    }
}

/// How to run a mix: the policy, the (optionally tenant-scoped) fault
/// plan, and the worker-pool / checkpointing knobs. Pool knobs are never
/// part of the result by construction.
#[derive(Debug, Clone, Default)]
pub struct MixOptions {
    /// Eviction policy every tenant runs under.
    pub policy: PolicyKind,
    /// Fault plan applied to the tenant named by `fault_tenant` (`None`
    /// = fault-free mix).
    pub plan: Option<FaultPlan>,
    /// Report label of the plan ("" = fault-free).
    pub plan_name: String,
    /// Tenant id the plan is scoped to. A plan with no target is a spec
    /// error ([`TenantRunError::Sim`]), not a silent broadcast — the
    /// whole point of the tenant layer is that faults have an owner.
    pub fault_tenant: Option<u64>,
    /// Worker threads (0 and 1 both mean one worker).
    pub workers: usize,
    /// Auto-snapshot file. `None` disables checkpointing.
    pub snapshot_path: Option<PathBuf>,
    /// Completions between auto-snapshots
    /// (0 = [`DEFAULT_TENANT_SNAPSHOT_EVERY`]).
    pub snapshot_every: usize,
    /// Resume from `snapshot_path` if it exists (fingerprint-checked).
    pub resume: bool,
}

/// Runs one tenant's admission row to a report row. Pure: same row +
/// same options → same `TenantStats`, which is what makes the merged
/// report order-independent.
fn execute_tenant(
    cfg: &SimConfig,
    adm: &TenantAdmission,
    hir_mode: HirMode,
    policy: PolicyKind,
    plan: Option<&FaultPlan>,
    fault_tenant: Option<u64>,
) -> TenantStats {
    let spec = &adm.spec;
    let mut row = TenantStats {
        tenant: uvm_types::TenantId(spec.id),
        app: spec.app.clone(),
        quota_pages: spec.quota_pages,
        arrival: spec.arrival,
        admitted: adm.admitted_at,
        admission: adm.outcome.label().to_string(),
        ..TenantStats::default()
    };
    if adm.outcome == AdmissionOutcome::Rejected {
        row.error = adm.rejection().map(|e| e.to_string()).unwrap_or_default();
        return row;
    }
    let Some(app) = registry::by_abbr(&spec.app) else {
        // `TenantMix::validate` already rejected unknown apps; contained
        // anyway so a future code path cannot panic the mix.
        row.error = format!("unknown app '{}'", spec.app);
        return row;
    };
    let fraction =
        (spec.quota_pages as f64 / app.footprint_pages() as f64).clamp(f64::MIN_POSITIVE, 1.0);
    let rate = Oversubscription::Custom(fraction);
    let tenant_plan = match fault_tenant {
        Some(id) if id == spec.id => plan,
        _ => None,
    };
    let hpe = (hir_mode == HirMode::Shared).then(|| {
        let mut hpe_cfg = HpeConfig::from_sim(cfg);
        hpe_cfg.hir = shared_hir_geometry(hpe_cfg.hir, adm.concurrent);
        hpe_cfg
    });
    let run_spec = RunSpec {
        hpe,
        plan: tenant_plan,
        ..RunSpec::new(app, rate, policy)
    };
    match run(cfg, &run_spec) {
        Ok(r) => {
            row.ok = true;
            row.stats = r.stats;
        }
        Err(e) => {
            // Contained: the failure stays on this tenant's row.
            row.error = e.to_string();
        }
    }
    row
}

/// The shared-mode HIR geometry for a tenant admitted with `concurrent`
/// active leases: the set budget is divided by the lease concurrency
/// (contract-derived at admission, so deterministic and
/// containment-safe), floored at one set, keeping the way count so the
/// geometry still validates.
pub fn shared_hir_geometry(base: HirGeometry, concurrent: u64) -> HirGeometry {
    let sets = u64::from(base.entries / base.ways);
    let scaled_sets = (sets / concurrent.max(1)).max(1) as u32;
    HirGeometry {
        entries: scaled_sets * base.ways,
        ..base
    }
}

/// Runs the mix serially, in schedule order, with no pool and no
/// snapshots: the reference implementation the parallel-equivalence
/// suite compares the pool against.
///
/// # Errors
///
/// Returns [`TenantRunError`] if the mix is invalid or a plan has no
/// target tenant.
pub fn run_mix_serial(
    cfg: &SimConfig,
    mix: &TenantMix,
    opts: &MixOptions,
) -> Result<TenantReport, TenantRunError> {
    validate_options(mix, opts)?;
    let sched = schedule(mix)?;
    let rows: Vec<TenantStats> = sched
        .admissions
        .iter()
        .map(|adm| {
            execute_tenant(
                cfg,
                adm,
                mix.hir_mode,
                opts.policy,
                opts.plan.as_ref(),
                opts.fault_tenant,
            )
        })
        .collect();
    Ok(assemble_report(
        mix,
        opts,
        &sched.fingerprint,
        sched.rejected,
        sched.delayed,
        rows,
    ))
}

/// Runs the mix on the ordered worker pool: workers claim pending
/// tenants in schedule order, rows merge by schedule index, and the
/// collector auto-snapshots at tenant boundaries.
///
/// # Errors
///
/// Returns [`TenantRunError`] if the mix is invalid, a plan has no
/// target tenant, a resume snapshot mismatches, or snapshot I/O fails.
/// Individual tenant failures do **not** abort the mix — they are
/// contained on the tenant's row (`ok = false`).
pub fn run_mix(
    cfg: &SimConfig,
    mix: &TenantMix,
    opts: &MixOptions,
) -> Result<TenantReport, TenantRunError> {
    validate_options(mix, opts)?;
    let sched = schedule(mix)?;
    let fingerprint = sched.fingerprint.clone();
    let total = sched.admissions.len();
    let snapshot_every = if opts.snapshot_every == 0 {
        DEFAULT_TENANT_SNAPSHOT_EVERY
    } else {
        opts.snapshot_every
    };

    // Resume: prefill completed slots from the snapshot, if any.
    let mut state = Pool::new(total);
    if opts.resume {
        if let Some(path) = &opts.snapshot_path {
            if path.exists() {
                let snap = load_snapshot(path)?;
                if snap.fingerprint != fingerprint {
                    return Err(TenantRunError::SnapshotMismatch {
                        expected: fingerprint,
                        found: snap.fingerprint,
                    });
                }
                if snap.total != total as u64 {
                    return Err(TenantRunError::SnapshotMalformed(format!(
                        "snapshot mix size {} != schedule size {total}",
                        snap.total
                    )));
                }
                for row in snap.completed {
                    let Some(idx) = sched
                        .admissions
                        .iter()
                        .position(|a| a.spec.id == row.tenant.0)
                    else {
                        return Err(TenantRunError::SnapshotMalformed(format!(
                            "snapshot row for unknown tenant {}",
                            row.tenant
                        )));
                    };
                    state.prefill(idx, row);
                }
            }
        }
    }

    let order: Vec<usize> = (0..total).collect();
    let mut completions = 0usize;
    state.run(
        &order,
        opts.workers,
        None,
        |idx| {
            execute_tenant(
                cfg,
                &sched.admissions[idx],
                mix.hir_mode,
                opts.policy,
                opts.plan.as_ref(),
                opts.fault_tenant,
            )
        },
        |_, slots| {
            completions += 1;
            match &opts.snapshot_path {
                Some(path) if completions.is_multiple_of(snapshot_every) => {
                    write_snapshot(path, &fingerprint, slots)
                }
                _ => Ok(()),
            }
        },
    )?;

    if let Some(path) = &opts.snapshot_path {
        write_snapshot(path, &fingerprint, &state)?;
    }
    let rows = state.into_completed();
    Ok(assemble_report(
        mix,
        opts,
        &fingerprint,
        sched.rejected,
        sched.delayed,
        rows,
    ))
}

fn validate_options(mix: &TenantMix, opts: &MixOptions) -> Result<(), TenantRunError> {
    if let Some(plan) = &opts.plan {
        plan.validate().map_err(uvm_types::SimError::from)?;
        let Some(target) = opts.fault_tenant else {
            return Err(TenantRunError::Sim(uvm_types::SimError::Config(
                uvm_types::ConfigError::invalid(
                    "fault_tenant",
                    "a mix-level fault plan must be scoped to one tenant",
                ),
            )));
        };
        if !mix.resolved_tenants().iter().any(|t| t.id == target) {
            return Err(TenantRunError::Sim(uvm_types::SimError::Config(
                uvm_types::ConfigError::invalid(
                    "fault_tenant",
                    format!("tenant {target} is not part of the mix"),
                ),
            )));
        }
    }
    Ok(())
}

fn assemble_report(
    mix: &TenantMix,
    opts: &MixOptions,
    fingerprint: &str,
    rejected: u64,
    delayed: u64,
    rows: Vec<TenantStats>,
) -> TenantReport {
    let makespan = rows.iter().map(TenantStats::completion).max().unwrap_or(0);
    TenantReport {
        fingerprint: fingerprint.to_string(),
        policy: opts.policy.label().to_string(),
        hir_mode: mix.hir_mode.label().to_string(),
        plan: opts.plan_name.clone(),
        fault_tenant: opts.fault_tenant,
        rejected,
        delayed,
        makespan,
        tenants: rows,
    }
}

fn write_snapshot(
    path: &Path,
    fingerprint: &str,
    state: &Pool<TenantStats>,
) -> Result<(), TenantRunError> {
    let snap = TenantSnapshot {
        schema: TENANT_SNAPSHOT_SCHEMA,
        fingerprint: fingerprint.to_string(),
        total: state.len() as u64,
        completed: state.completed().cloned().collect(),
    };
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, snap.to_json().pretty())?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads and validates a tenant snapshot (strict: unknown fields are
/// rejected with an actionable message).
///
/// # Errors
///
/// Returns [`TenantRunError::Io`] if the file cannot be read and
/// [`TenantRunError::SnapshotMalformed`] if it fails to parse, has
/// unknown fields, or fails structural validation.
pub fn load_snapshot(path: &Path) -> Result<TenantSnapshot, TenantRunError> {
    let text = fs::read_to_string(path)?;
    let value = Json::parse(&text).map_err(|e| TenantRunError::SnapshotMalformed(e.to_string()))?;
    let snap = TenantSnapshot::from_json_strict(&value)
        .map_err(|e| TenantRunError::SnapshotMalformed(e.to_string()))?;
    snap.validate()
        .map_err(|e| TenantRunError::SnapshotMalformed(e.to_string()))?;
    Ok(snap)
}

// ---------------------------------------------------------------------------
// Containment
// ---------------------------------------------------------------------------

/// Apps the canonical containment mix cycles through — the three
/// smallest-footprint workloads, so the invariant stays cheap enough to
/// evaluate per explore case.
pub const CONTAINMENT_APPS: [&str; 3] = ["STN", "MVT", "CUT"];

/// The canonical mix the explore engine's `containment` invariant runs:
/// `tenants` tenants cycling through [`CONTAINMENT_APPS`], each with a
/// quota of `quota_pct`% of its footprint, arriving 1000 cycles apart.
/// The pool is sized to the quota sum and `max_active` to the tenant
/// count, so every tenant is admitted immediately — a plan scoped to
/// the target can therefore never hide behind an admission change.
pub fn containment_mix(tenants: u64, quota_pct: u64) -> TenantMix {
    let specs: Vec<uvm_sim::TenantSpec> = (0..tenants)
        .map(|i| {
            let abbr = CONTAINMENT_APPS[(i as usize) % CONTAINMENT_APPS.len()];
            let quota = registry::by_abbr(abbr)
                .map(|a| a.footprint_pages() * quota_pct / 100)
                .unwrap_or(0);
            uvm_sim::TenantSpec {
                id: i,
                app: abbr.to_string(),
                quota_pages: quota,
                arrival: i * 1_000,
                ..uvm_sim::TenantSpec::default()
            }
        })
        .collect();
    let pool = specs.iter().map(|t| t.quota_pages).sum::<u64>().max(1);
    let mut mix = TenantMix {
        pool_pages: pool,
        tenants: specs,
        ..TenantMix::default()
    };
    mix.admission.max_active = tenants.max(1);
    mix
}

/// Verifies blast-radius containment for a faulted mix run: every
/// tenant other than `faulted.fault_tenant` must have a row
/// byte-identical to its fault-free `baseline` counterpart.
///
/// Returns the first leaking tenant as an error message, or `Ok(())`.
///
/// # Errors
///
/// Returns a human-readable description of the first containment
/// violation: a missing counterpart row or a non-target tenant whose
/// statistics differ from its fault-free run.
pub fn check_containment(baseline: &TenantReport, faulted: &TenantReport) -> Result<(), String> {
    let Some(target) = faulted.fault_tenant else {
        return Err("faulted report has no fault_tenant; nothing to contain".to_string());
    };
    if baseline.fingerprint != faulted.fingerprint {
        return Err(format!(
            "reports come from different mixes ({} vs {})",
            baseline.fingerprint, faulted.fingerprint
        ));
    }
    for row in &faulted.tenants {
        if row.tenant.0 == target {
            continue;
        }
        let Some(base) = baseline.tenants.iter().find(|b| b.tenant == row.tenant) else {
            return Err(format!(
                "tenant {} missing from the fault-free baseline",
                row.tenant
            ));
        };
        let got = row.to_json().to_string();
        let want = base.to_json().to_string();
        if got != want {
            return Err(format!(
                "fault scoped to T{target} leaked into tenant {}: stats differ from the \
                 fault-free run",
                row.tenant
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fairness grid
// ---------------------------------------------------------------------------

/// HIR shrink factor for the fairness grid, in the spirit of the TLB
/// scaling of [`SimConfig::scaled_default`](uvm_types::SimConfig):
/// 1024 entries → 64 (8 sets × 8 ways, covering 1024 pages), sized to
/// the reproduction's 768–2560-page footprints so the per-tenant vs
/// shared division actually contends the structure (at paper geometry
/// even a four-way-divided HIR never conflicts at these footprints and
/// the two modes coincide byte-for-byte).
pub const FAIRNESS_HIR_SCALE: u32 = 16;

/// One fairness-grid row: a mix × HIR-mode cell summarized by the two
/// metrics the fairness-vs-throughput trade-off is judged on.
#[derive(Debug, Clone)]
pub struct FairnessRow {
    /// Mix label (comma-joined app abbreviations).
    pub mix: String,
    /// Per-tenant quota percentage of footprint (the oversubscription
    /// rate of the row).
    pub quota_pct: u64,
    /// HIR sharing mode label.
    pub hir_mode: String,
    /// p99 of per-tenant queueing-inflated slowdown.
    pub p99_slowdown: f64,
    /// Execution-cycle ratio of the tenant most affected by HIR
    /// sharing, relative to the same mix under per-tenant HIR (1.0 for
    /// per-tenant rows by construction). Deviations go both ways at
    /// reproduction scale, so the farthest-from-1.0 ratio is reported:
    /// the noisy-neighbor effect on performance predictability.
    pub hir_impact: f64,
    /// Aggregate instructions per kilocycle of makespan.
    pub throughput: f64,
    /// Tenants shed by admission control.
    pub rejected: u64,
    /// Tenants admitted late.
    pub delayed: u64,
}

/// Runs the fairness grid: for each app mix and quota percentage, one
/// fault-free mix run under each HIR mode, summarized as
/// [`FairnessRow`]s (mix-major, then quota, then per-tenant before
/// shared — deterministic order).
///
/// The pool is sized to the sum of the quotas so all tenants run
/// concurrently — [`TenantMix::uniform`]'s max-quota pool would
/// serialize the leases, leaving every tenant's HIR undivided and the
/// two HIR modes trivially identical.
///
/// The HIR is shrunk by [`FAIRNESS_HIR_SCALE`] for the same reason the
/// scaled reproduction shrinks its TLBs: at reproduction-scale
/// footprints (768–2560 pages, 48–160 page-set tags) the paper's
/// 1024-entry HIR never fills, so dividing it between tenants would be
/// a behavioral no-op and both HIR modes would coincide.
///
/// # Errors
///
/// Returns [`TenantRunError`] if any mix is invalid.
pub fn fairness_grid(
    cfg: &SimConfig,
    mixes: &[Vec<&str>],
    quota_pcts: &[u64],
    seed: u64,
    workers: usize,
) -> Result<Vec<FairnessRow>, TenantRunError> {
    let mut cfg = cfg.clone();
    cfg.hir.entries = (cfg.hir.entries / FAIRNESS_HIR_SCALE).max(cfg.hir.ways);
    let cfg = &cfg;
    let mut rows = Vec::new();
    for apps in mixes {
        for &pct in quota_pcts {
            // Per-tenant first: the shared row's HIR penalty is measured
            // against it.
            let mut baseline: Option<TenantReport> = None;
            for hir_mode in [HirMode::PerTenant, HirMode::Shared] {
                let mut mix = TenantMix::uniform(apps, pct, 1_000, seed);
                mix.pool_pages = mix
                    .tenants
                    .iter()
                    .map(|t| t.quota_pages)
                    .sum::<u64>()
                    .max(1);
                mix.admission.max_active = mix.tenants.len().max(1) as u64;
                mix.hir_mode = hir_mode;
                let opts = MixOptions {
                    workers,
                    ..MixOptions::default()
                };
                let report = run_mix(cfg, &mix, &opts)?;
                rows.push(FairnessRow {
                    mix: apps.join(","),
                    quota_pct: pct,
                    hir_mode: hir_mode.label().to_string(),
                    p99_slowdown: report.p99_slowdown(),
                    hir_impact: hir_impact(baseline.as_ref(), &report),
                    throughput: report.throughput(),
                    rejected: report.rejected,
                    delayed: report.delayed,
                });
                if hir_mode == HirMode::PerTenant {
                    baseline = Some(report);
                }
            }
        }
    }
    Ok(rows)
}

/// Cycle ratio of the tenant most affected by the HIR mode: `report`'s
/// per-tenant cycles over the per-tenant-HIR `baseline`'s, picking the
/// ratio farthest from 1.0 (1.0 when `baseline` is `None` — the
/// baseline row itself — or when no tenant pair ran in both). Ratios
/// below 1.0 are real: conflict-evicted HIR records bias the policy
/// toward recency, which occasionally wins at reproduction scale — the
/// point is that a shared structure makes a tenant's performance depend
/// on its neighbors, in either direction.
fn hir_impact(baseline: Option<&TenantReport>, report: &TenantReport) -> f64 {
    let Some(base) = baseline else { return 1.0 };
    base.tenants
        .iter()
        .zip(&report.tenants)
        .filter(|(b, r)| b.tenant == r.tenant && b.stats.cycles > 0 && r.stats.cycles > 0)
        .map(|(b, r)| r.stats.cycles as f64 / b.stats.cycles as f64)
        .reduce(|a, b| {
            if (b.ln()).abs() > (a.ln()).abs() {
                b
            } else {
                a
            }
        })
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_config;

    fn small_mix() -> TenantMix {
        TenantMix::uniform(&["STN", "MVT"], 75, 1_000, 7)
    }

    #[test]
    fn serial_mix_runs_every_tenant() {
        let cfg = bench_config();
        let report = run_mix_serial(&cfg, &small_mix(), &MixOptions::default()).unwrap();
        assert_eq!(report.tenants.len(), 2);
        assert!(report.tenants.iter().all(|t| t.ok), "{report:?}");
        assert!(report.makespan > 0);
        assert!(report.p99_slowdown() >= 1.0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn pool_matches_serial_byte_identically() {
        let cfg = bench_config();
        let mix = small_mix();
        let serial = run_mix_serial(&cfg, &mix, &MixOptions::default()).unwrap();
        for workers in [1usize, 2, 8] {
            let opts = MixOptions {
                workers,
                ..MixOptions::default()
            };
            let pooled = run_mix(&cfg, &mix, &opts).unwrap();
            assert_eq!(
                pooled.to_json().to_string(),
                serial.to_json().to_string(),
                "worker count {workers} changed the merged report"
            );
        }
    }

    #[test]
    fn unscoped_plan_is_a_typed_error() {
        let cfg = bench_config();
        let opts = MixOptions {
            plan: Some(FaultPlan::latency_storm(3)),
            plan_name: "latency-storm".to_string(),
            ..MixOptions::default()
        };
        let err = run_mix_serial(&cfg, &small_mix(), &opts).unwrap_err();
        assert!(err.to_string().contains("fault_tenant"), "{err}");
        let opts = MixOptions {
            plan: Some(FaultPlan::latency_storm(3)),
            fault_tenant: Some(99),
            ..MixOptions::default()
        };
        let err = run_mix_serial(&cfg, &small_mix(), &opts).unwrap_err();
        assert!(err.to_string().contains("not part of the mix"), "{err}");
    }

    #[test]
    fn scoped_fault_degrades_only_the_target_tenant() {
        let cfg = bench_config();
        let mix = small_mix();
        let baseline = run_mix_serial(&cfg, &mix, &MixOptions::default()).unwrap();
        let opts = MixOptions {
            plan: Some(FaultPlan::latency_storm(3)),
            plan_name: "latency-storm".to_string(),
            fault_tenant: Some(0),
            ..MixOptions::default()
        };
        let faulted = run_mix_serial(&cfg, &mix, &opts).unwrap();
        check_containment(&baseline, &faulted).unwrap();
        // The targeted tenant did change (the plan is not a no-op).
        let base0 = &baseline.tenants[0];
        let fault0 = &faulted.tenants[0];
        assert_eq!(base0.tenant.0, 0);
        assert_ne!(
            base0.stats.to_json().to_string(),
            fault0.stats.to_json().to_string(),
            "latency storm left the target tenant untouched"
        );
    }

    #[test]
    fn containment_detects_a_leak() {
        let cfg = bench_config();
        let mix = small_mix();
        let baseline = run_mix_serial(&cfg, &mix, &MixOptions::default()).unwrap();
        let mut faulted = baseline.clone();
        faulted.fault_tenant = Some(0);
        faulted.tenants[1].stats.cycles += 1; // simulate a leak
        let err = check_containment(&baseline, &faulted).unwrap_err();
        assert!(err.contains("leaked into tenant T1"), "{err}");
    }

    #[test]
    fn shared_hir_geometry_scales_sets_not_ways() {
        let base = HirGeometry::paper_default();
        let g1 = shared_hir_geometry(base, 1);
        assert_eq!(g1, base);
        let g2 = shared_hir_geometry(base, 2);
        assert_eq!(g2.ways, base.ways);
        assert_eq!(g2.entries, base.entries / 2);
        g2.validate().unwrap();
        // Floor at one set even for absurd concurrency.
        let g_many = shared_hir_geometry(base, 10_000);
        assert_eq!(g_many.entries, base.ways);
        g_many.validate().unwrap();
    }

    #[test]
    fn shared_mode_changes_hpe_results() {
        let cfg = bench_config();
        let mut per_tenant = small_mix();
        per_tenant.hir_mode = HirMode::PerTenant;
        let mut shared = small_mix();
        shared.hir_mode = HirMode::Shared;
        let a = run_mix_serial(&cfg, &per_tenant, &MixOptions::default()).unwrap();
        let b = run_mix_serial(&cfg, &shared, &MixOptions::default()).unwrap();
        assert_eq!(a.hir_mode, "per-tenant");
        assert_eq!(b.hir_mode, "shared");
        // Tenant 0 is admitted alone (concurrent = 1) so its geometry is
        // unscaled either way; the reports differ at most on tenant 1.
        assert_eq!(
            a.tenants[0].stats.to_json().to_string(),
            b.tenants[0].stats.to_json().to_string()
        );
    }

    #[test]
    fn fairness_grid_rows_are_ordered_and_baseline_normalized() {
        let cfg = bench_config();
        let mixes = vec![vec!["STN", "MVT"]];
        let rows = fairness_grid(&cfg, &mixes, &[75], 7, 0).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].hir_mode, "per-tenant");
        assert_eq!(rows[1].hir_mode, "shared");
        // The per-tenant row is its own baseline.
        assert_eq!(rows[0].hir_impact, 1.0);
        assert!(rows[1].hir_impact > 0.0);
        for r in &rows {
            assert_eq!(r.mix, "STN,MVT");
            assert_eq!(r.quota_pct, 75);
            assert!(r.throughput > 0.0, "{r:?}");
            assert_eq!(r.rejected + r.delayed, 0, "{r:?}");
        }
    }

    #[test]
    fn snapshot_resume_is_byte_identical() {
        let cfg = bench_config();
        let mix = TenantMix::uniform(&["STN", "MVT", "CUT"], 75, 1_000, 7);
        let dir = std::env::temp_dir().join("hpe-tenant-snapshot-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let _ = fs::remove_file(&path);

        let straight = run_mix_serial(&cfg, &mix, &MixOptions::default()).unwrap();

        // First pass: snapshot after every tenant, then truncate the
        // snapshot to one completed row to simulate a mid-mix kill.
        let opts = MixOptions {
            snapshot_path: Some(path.clone()),
            snapshot_every: 1,
            ..MixOptions::default()
        };
        run_mix(&cfg, &mix, &opts).unwrap();
        let mut snap = load_snapshot(&path).unwrap();
        snap.completed.truncate(1);
        fs::write(&path, snap.to_json().pretty()).unwrap();

        // Resume completes the remaining tenants; the merged report is
        // byte-identical to the uninterrupted run.
        let opts = MixOptions {
            snapshot_path: Some(path.clone()),
            resume: true,
            ..MixOptions::default()
        };
        let resumed = run_mix(&cfg, &mix, &opts).unwrap();
        assert_eq!(
            resumed.to_json().to_string(),
            straight.to_json().to_string()
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn snapshot_fingerprint_mismatch_is_refused() {
        let cfg = bench_config();
        let mix = small_mix();
        let dir = std::env::temp_dir().join("hpe-tenant-snapshot-mismatch");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let opts = MixOptions {
            snapshot_path: Some(path.clone()),
            ..MixOptions::default()
        };
        run_mix(&cfg, &mix, &opts).unwrap();
        let mut other = small_mix();
        other.seed = 99;
        let opts = MixOptions {
            snapshot_path: Some(path.clone()),
            resume: true,
            ..MixOptions::default()
        };
        let err = run_mix(&cfg, &other, &opts).unwrap_err();
        assert!(
            matches!(err, TenantRunError::SnapshotMismatch { .. }),
            "{err}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejected_tenants_are_counted_not_run() {
        let cfg = bench_config();
        let mut mix = small_mix();
        mix.tenants[1].quota_pages = mix.pool_pages * 2; // can never fit
        let report = run_mix_serial(&cfg, &mix, &MixOptions::default()).unwrap();
        assert_eq!(report.rejected, 1);
        let row = &report.tenants[1];
        assert_eq!(row.admission, "rejected");
        assert!(!row.ok);
        assert!(row.error.contains("rejected at admission"), "{}", row.error);
        assert_eq!(row.stats.cycles, 0, "rejected tenant must not run");
    }
}
