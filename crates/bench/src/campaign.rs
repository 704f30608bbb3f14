//! Parallel campaign engine: fans `(app, policy, rate, plan)` runs across
//! the ordered worker pool ([`uvm_util::pool`]) and merges the results
//! deterministically by grid key.
//!
//! Every cell of a campaign grid is an independent simulation — it owns its
//! seed (the app's trace seed plus the fault plan's injection stream) and
//! its `SimStats` — so the sweep is embarrassingly parallel. The engine
//! keeps the paper-reproduction guarantee anyway: the merged
//! [`CampaignReport`] is **byte-identical** regardless of worker count,
//! queue order or completion order, because
//!
//! 1. each cell is a pure function of `(SimConfig, app, policy, rate,
//!    plan, recovery)` — workers share no mutable simulation state,
//! 2. results are merged by grid index, never by arrival order, and
//! 3. the report serializes runs in grid order with the deterministic
//!    insertion-ordered JSON writer.
//!
//! The only arrival-ordered artifact is the JSONL progress stream (one
//! compact object per completed run), which exists for observability —
//! `hpe-trace campaign` summarizes it — and is explicitly excluded from
//! the determinism contract.
//!
//! Long campaigns checkpoint themselves: every `snapshot_every`
//! completions the collector writes a [`CampaignSnapshot`] (atomic
//! write-then-rename) holding every completed run plus a fingerprint of
//! the spec. A killed campaign relaunched with `resume` skips the
//! completed cells and re-runs only the rest; the merged report is
//! byte-identical to an uninterrupted run. The snapshot follows the same
//! byte-compare discipline as [`uvm_sim::Checkpoint`]: a resumed campaign
//! recomputes the spec fingerprint and refuses a snapshot taken under a
//! different grid, seed or recovery configuration with a typed
//! [`CampaignError::SnapshotMismatch`] instead of silently merging
//! incompatible runs. (Per-run `Checkpoint`s are *not* stored for
//! in-flight cells: the simulator's checkpoints are replay-based, so
//! resuming one costs the same wall-clock as re-running the cell.)

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use uvm_sim::FaultPlan;
use uvm_types::{Oversubscription, SimConfig, SimStats};
use uvm_util::pool::Pool;
use uvm_util::{json, FromJson, Json, Rng, ToJson};
use uvm_workloads::{registry, App};

use crate::runner::{run, PolicyKind, RecoveryOptions, RunSpec};

/// Snapshot cadence used when the caller does not pick one: frequent
/// enough that a killed full-grid campaign (2 254 cells) loses at most a
/// few seconds of work, rare enough that snapshot I/O is negligible.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 32;

/// Version tag of the campaign snapshot schema.
pub const CAMPAIGN_SNAPSHOT_SCHEMA: u64 = 1;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// How a campaign failed before (or instead of) producing a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// An application abbreviation did not resolve in the registry.
    UnknownApp(String),
    /// The spec enumerates an empty grid (no apps, policies, rates or
    /// plans).
    EmptyGrid,
    /// A resume snapshot was taken under a different spec (grid, seed or
    /// recovery configuration).
    SnapshotMismatch {
        /// Fingerprint of the spec being run.
        expected: String,
        /// Fingerprint recorded in the snapshot.
        found: String,
    },
    /// A snapshot file failed to parse or validate.
    SnapshotMalformed(String),
    /// A snapshot or progress file could not be read or written.
    Io(String),
    /// `report()` was called on a partial campaign.
    Incomplete {
        /// Cells completed so far.
        done: usize,
        /// Grid size.
        total: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::UnknownApp(a) => write!(f, "unknown app '{a}'"),
            CampaignError::EmptyGrid => write!(f, "campaign grid is empty"),
            CampaignError::SnapshotMismatch { expected, found } => write!(
                f,
                "snapshot fingerprint {found} does not match the spec ({expected}); \
                 refusing to merge runs from a different campaign"
            ),
            CampaignError::SnapshotMalformed(m) => write!(f, "malformed snapshot: {m}"),
            CampaignError::Io(m) => write!(f, "campaign i/o error: {m}"),
            CampaignError::Incomplete { done, total } => {
                write!(f, "campaign incomplete: {done}/{total} cells done")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// One fault-plan column of the campaign grid: a stable name plus the
/// plan itself (`None` = the clean, no-injection run).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// Stable column name used in grid keys ("clean", "latency-storm", …).
    pub name: String,
    /// The fault plan, or `None` for the clean run.
    pub plan: Option<FaultPlan>,
}

impl PlanSpec {
    /// The clean (no-injection) column.
    pub fn clean() -> Self {
        PlanSpec {
            name: "clean".to_string(),
            plan: None,
        }
    }

    /// A named fault-injection column.
    pub fn chaos(name: impl Into<String>, plan: FaultPlan) -> Self {
        PlanSpec {
            name: name.into(),
            plan: Some(plan),
        }
    }
}

/// The canonical 7-column plan set: the clean run plus the six named
/// fault plans, each deriving its RNG stream from the campaign seed so
/// the whole sweep replays from one number.
pub fn chaos_plan_set(seed: u64) -> Vec<PlanSpec> {
    vec![
        PlanSpec::clean(),
        PlanSpec::chaos("latency-storm", FaultPlan::latency_storm(seed)),
        PlanSpec::chaos("congestion", FaultPlan::congestion(seed.wrapping_add(1))),
        PlanSpec::chaos(
            "completion-loss",
            FaultPlan::completion_loss(seed.wrapping_add(2)),
        ),
        PlanSpec::chaos(
            "signal-chaos",
            FaultPlan::signal_chaos(seed.wrapping_add(3)),
        ),
        PlanSpec::chaos(
            "partial-outage",
            FaultPlan::partial_outage(seed.wrapping_add(4)),
        ),
        PlanSpec::chaos("victim-drop", FaultPlan::victim_drop(seed.wrapping_add(5))),
    ]
}

/// The full campaign grid: which cells to run and under which recovery
/// machinery. Everything that can change a cell's result is part of the
/// spec and therefore of its fingerprint.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Application abbreviations, in grid order.
    pub apps: Vec<String>,
    /// Policies, in grid order.
    pub policies: Vec<PolicyKind>,
    /// Oversubscription rates, in grid order.
    pub rates: Vec<Oversubscription>,
    /// Fault-plan columns, in grid order.
    pub plans: Vec<PlanSpec>,
    /// Driver recovery machinery applied to every cell.
    pub recovery: RecoveryOptions,
    /// Campaign seed (the fault plans are derived from it; recorded so
    /// the fingerprint distinguishes reseeded sweeps).
    pub seed: u64,
}

impl CampaignSpec {
    /// The paper's full evaluation grid: all 23 apps x all 7 policies x
    /// both studied rates x the 7-column chaos plan set.
    pub fn full_grid(seed: u64) -> Self {
        CampaignSpec {
            apps: registry::all()
                .iter()
                .map(|a| a.abbr().to_string())
                .collect(),
            policies: PolicyKind::ALL.to_vec(),
            rates: vec![Oversubscription::Rate75, Oversubscription::Rate50],
            plans: chaos_plan_set(seed),
            recovery: RecoveryOptions::default(),
            seed,
        }
    }

    /// A clean-only grid over the given apps (no fault injection).
    pub fn clean_grid(apps: Vec<String>, seed: u64) -> Self {
        CampaignSpec {
            apps,
            policies: PolicyKind::ALL.to_vec(),
            rates: vec![Oversubscription::Rate75, Oversubscription::Rate50],
            plans: vec![PlanSpec::clean()],
            recovery: RecoveryOptions::default(),
            seed,
        }
    }

    /// Number of grid cells.
    pub fn grid_len(&self) -> usize {
        self.apps.len() * self.policies.len() * self.rates.len() * self.plans.len()
    }

    /// The JSON document the fingerprint hashes: every input that can
    /// change a cell's result, in deterministic key order.
    fn fingerprint_json(&self) -> Json {
        let policies: Vec<String> = self
            .policies
            .iter()
            .map(|p| p.label().to_string())
            .collect();
        let rates: Vec<String> = self.rates.iter().map(|r| r.label()).collect();
        let plans: Vec<Json> = self
            .plans
            .iter()
            .map(|p| json!({ "name": p.name.clone(), "plan": p.plan.clone() }))
            .collect();
        let recovery = json!({
            "retry": self.recovery.retry,
            "fallback": self.recovery.fallback.label(),
            "sanitize": self.recovery.sanitize,
            "profile": self.recovery.profile,
        });
        json!({
            "apps": self.apps.clone(),
            "policies": policies,
            "rates": rates,
            "plans": plans,
            "recovery": recovery,
            "seed": self.seed,
        })
    }

    /// A 64-bit FNV-1a hex digest of the spec. Two specs with the same
    /// fingerprint enumerate the same grid and produce the same merged
    /// report; snapshots refuse to resume across different fingerprints.
    pub fn fingerprint(&self) -> String {
        format!(
            "{:016x}",
            uvm_util::fnv1a(self.fingerprint_json().to_string().as_bytes())
        )
    }

    /// Enumerates the grid in spec order (apps x policies x rates x
    /// plans), resolving app abbreviations against the registry.
    fn grid(&self) -> Result<Vec<Cell>, CampaignError> {
        if self.grid_len() == 0 {
            return Err(CampaignError::EmptyGrid);
        }
        let mut cells = Vec::with_capacity(self.grid_len());
        for abbr in &self.apps {
            let app =
                registry::by_abbr(abbr).ok_or_else(|| CampaignError::UnknownApp(abbr.clone()))?;
            for &policy in &self.policies {
                for &rate in &self.rates {
                    for (plan_idx, _) in self.plans.iter().enumerate() {
                        cells.push(Cell {
                            index: cells.len(),
                            app,
                            policy,
                            rate,
                            plan_idx,
                        });
                    }
                }
            }
        }
        Ok(cells)
    }
}

/// One enumerated grid cell (internal: `&'static App` keeps workers free
/// of per-cell cloning; everything here is `Send + Sync` plain data).
#[derive(Debug, Clone, Copy)]
struct Cell {
    index: usize,
    app: &'static App,
    policy: PolicyKind,
    rate: Oversubscription,
    plan_idx: usize,
}

/// The stable grid key of a cell: `app/policy/rate/plan`.
pub fn grid_key(app: &str, policy: &str, rate: &str, plan: &str) -> String {
    format!("{app}/{policy}/{rate}/{plan}")
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// One completed grid cell: the cell's coordinates plus its outcome.
/// Serializes to deterministic JSON and round-trips through `uvm-util`.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// Position in the enumerated grid.
    pub index: u64,
    /// `app/policy/rate/plan` key.
    pub key: String,
    /// Application abbreviation.
    pub app: String,
    /// Policy label.
    pub policy: String,
    /// Oversubscription label ("75%", "50%").
    pub rate: String,
    /// Plan column name ("clean", "latency-storm", …).
    pub plan: String,
    /// Whether the simulation completed soundly.
    pub ok: bool,
    /// The `SimError` display text when `ok` is false, else empty.
    pub error: String,
    /// Simulator statistics (default-zero when the run failed).
    pub stats: SimStats,
}

uvm_util::impl_json_struct!(CampaignRun {
    index = 0,
    key = String::new(),
    app = String::new(),
    policy = String::new(),
    rate = String::new(),
    plan = String::new(),
    ok = false,
    error = String::new(),
    stats = SimStats::default(),
});

impl CampaignRun {
    /// The compact JSONL progress line for this run (arrival-ordered
    /// observability stream; see the module docs).
    pub fn progress_line(&self) -> String {
        json!({
            "index": self.index,
            "key": self.key.clone(),
            "app": self.app.clone(),
            "policy": self.policy.clone(),
            "rate": self.rate.clone(),
            "plan": self.plan.clone(),
            "ok": self.ok,
            "cycles": self.stats.cycles,
            "faults": self.stats.faults(),
            "evictions": self.stats.evictions(),
            "error": self.error.clone(),
        })
        .to_string()
    }
}

/// Aggregate counters over a set of campaign runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignTotals {
    /// Cells merged.
    pub runs: u64,
    /// Cells whose simulation failed with a typed error.
    pub failed: u64,
    /// Sum of simulated cycles.
    pub cycles: u64,
    /// Sum of serviced faults.
    pub faults: u64,
    /// Sum of evictions.
    pub evictions: u64,
}

/// The merged result of a complete campaign, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Fingerprint of the spec that produced it.
    pub fingerprint: String,
    /// Every grid cell's run, sorted by grid index.
    pub runs: Vec<CampaignRun>,
}

impl CampaignReport {
    /// The report as one deterministic JSON document. Byte-identical
    /// across worker counts and completion orders — this is the artifact
    /// the parallel-equivalence suite pins.
    pub fn to_json(&self) -> Json {
        json!({
            "fingerprint": self.fingerprint.clone(),
            "total": self.runs.len() as u64,
            "runs": self.runs.clone(),
        })
    }

    /// Aggregate counters (merged `SimStats` totals).
    pub fn totals(&self) -> CampaignTotals {
        let mut t = CampaignTotals::default();
        for r in &self.runs {
            t.runs += 1;
            if !r.ok {
                t.failed += 1;
            }
            t.cycles += r.stats.cycles;
            t.faults += r.stats.faults();
            t.evictions += r.stats.evictions();
        }
        t
    }

    /// Looks up a run by its grid key.
    pub fn find(&self, key: &str) -> Option<&CampaignRun> {
        self.runs.iter().find(|r| r.key == key)
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// On-disk auto-snapshot of a campaign in flight: the spec fingerprint
/// plus every completed run. Written atomically (temp file + rename) so
/// a kill mid-write leaves the previous snapshot intact.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSnapshot {
    /// Snapshot schema version ([`CAMPAIGN_SNAPSHOT_SCHEMA`]).
    pub schema: u64,
    /// Fingerprint of the producing spec.
    pub fingerprint: String,
    /// Grid size of the producing spec.
    pub total: u64,
    /// Completed runs, in grid order.
    pub completed: Vec<CampaignRun>,
}

uvm_util::impl_json_struct!(CampaignSnapshot {
    schema = 0,
    fingerprint = String::new(),
    total = 0,
    completed = Vec::new(),
});

impl CampaignSnapshot {
    /// Structural validation beyond JSON well-formedness.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::SnapshotMalformed`] on a wrong schema
    /// version, out-of-range or duplicate indices, or runs out of grid
    /// order.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.schema != CAMPAIGN_SNAPSHOT_SCHEMA {
            return Err(CampaignError::SnapshotMalformed(format!(
                "schema {} (expected {CAMPAIGN_SNAPSHOT_SCHEMA})",
                self.schema
            )));
        }
        let mut last: Option<u64> = None;
        for run in &self.completed {
            if run.index >= self.total {
                return Err(CampaignError::SnapshotMalformed(format!(
                    "run index {} out of range (grid size {})",
                    run.index, self.total
                )));
            }
            if last.is_some_and(|l| run.index <= l) {
                return Err(CampaignError::SnapshotMalformed(format!(
                    "run indices not strictly increasing at {}",
                    run.index
                )));
            }
            last = Some(run.index);
        }
        Ok(())
    }

    /// Writes the snapshot atomically to `path`: to `path` plus `.tmp`
    /// first, then renamed over it.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CampaignError> {
        let tmp = snapshot_temp_path(path);
        fs::write(&tmp, self.to_json().pretty())?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads and validates a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] if the file cannot be read and
    /// [`CampaignError::SnapshotMalformed`] if it fails to parse,
    /// carries unknown fields, or fails validation.
    pub fn load(path: &Path) -> Result<Self, CampaignError> {
        let text = fs::read_to_string(path)?;
        let value =
            Json::parse(&text).map_err(|e| CampaignError::SnapshotMalformed(e.to_string()))?;
        let snap = CampaignSnapshot::from_json(&value)
            .map_err(|e| CampaignError::SnapshotMalformed(e.to_string()))?;
        snap.validate()?;
        Ok(snap)
    }
}

/// The file [`CampaignSnapshot::save`] writes before renaming it over
/// `path`: the full file name plus `.tmp`, so it is never the snapshot
/// itself (`run.tmp` saves through `run.tmp.tmp`) and two snapshots
/// that differ only in extension never share one.
fn snapshot_temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

/// Worker pool and checkpointing knobs, separate from the grid spec so
/// that changing them can never change the merged result (they are not
/// part of the fingerprint by construction).
#[derive(Debug, Clone, Default)]
pub struct PoolOptions {
    /// Worker threads (0 and 1 both mean one worker).
    pub workers: usize,
    /// Shuffle the dispatch order with this seed. A test hook: exercises
    /// arbitrary completion orders without changing the merged report.
    pub shuffle: Option<u64>,
    /// Auto-snapshot file. `None` disables checkpointing.
    pub snapshot_path: Option<PathBuf>,
    /// Completions between auto-snapshots (0 = [`DEFAULT_SNAPSHOT_EVERY`]).
    pub snapshot_every: usize,
    /// Resume from `snapshot_path` if it exists (fingerprint-checked).
    pub resume: bool,
    /// Dispatch only the first this-many pending cells this invocation —
    /// a deterministic stand-in for a mid-campaign kill (tests,
    /// `--limit`): exactly this many execute, for any worker count.
    pub limit: Option<usize>,
}

/// What a campaign invocation produced: all completed runs so far (grid
/// order), plus bookkeeping about how they got there.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Fingerprint of the spec.
    pub fingerprint: String,
    /// Grid size.
    pub total: usize,
    /// Cells skipped because a resume snapshot already had them.
    pub resumed: usize,
    /// Cells executed by this invocation.
    pub executed: usize,
    /// Every completed run, in grid order (partial after a `limit` stop).
    pub runs: Vec<CampaignRun>,
}

impl CampaignOutcome {
    /// Whether every grid cell has a result.
    pub fn is_complete(&self) -> bool {
        self.runs.len() == self.total
    }

    /// The merged report.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Incomplete`] if cells are still pending
    /// (after a `limit` stop).
    pub fn report(&self) -> Result<CampaignReport, CampaignError> {
        if !self.is_complete() {
            return Err(CampaignError::Incomplete {
                done: self.runs.len(),
                total: self.total,
            });
        }
        Ok(CampaignReport {
            fingerprint: self.fingerprint.clone(),
            runs: self.runs.clone(),
        })
    }
}

/// Runs one grid cell. Pure: same cell + same spec → same `CampaignRun`,
/// which is what makes the merged report order-independent.
fn execute_cell(cfg: &SimConfig, spec: &CampaignSpec, cell: Cell) -> CampaignRun {
    let plan_spec = &spec.plans[cell.plan_idx];
    let outcome = run(
        cfg,
        &RunSpec {
            plan: plan_spec.plan.as_ref(),
            recovery: spec.recovery,
            ..RunSpec::new(cell.app, cell.rate, cell.policy)
        },
    );
    let (ok, error, stats) = match outcome {
        Ok(r) => (true, String::new(), r.stats),
        Err(e) => (false, e.to_string(), SimStats::default()),
    };
    CampaignRun {
        index: cell.index as u64,
        key: grid_key(
            cell.app.abbr(),
            cell.policy.label(),
            &cell.rate.label(),
            &plan_spec.name,
        ),
        app: cell.app.abbr().to_string(),
        policy: cell.policy.label().to_string(),
        rate: cell.rate.label(),
        plan: plan_spec.name.clone(),
        ok,
        error,
        stats,
    }
}

/// Runs the campaign serially, in grid order, with no pool, no snapshot
/// and no progress stream: the reference implementation the
/// parallel-equivalence suite compares the pool against.
///
/// # Errors
///
/// Returns [`CampaignError`] if the spec does not enumerate a valid grid.
pub fn run_campaign_serial(
    cfg: &SimConfig,
    spec: &CampaignSpec,
) -> Result<CampaignOutcome, CampaignError> {
    let cells = spec.grid()?;
    let total = cells.len();
    let runs: Vec<CampaignRun> = cells
        .into_iter()
        .map(|cell| execute_cell(cfg, spec, cell))
        .collect();
    Ok(CampaignOutcome {
        fingerprint: spec.fingerprint(),
        total,
        resumed: 0,
        executed: total,
        runs,
    })
}

/// Runs the campaign on the ordered worker pool ([`uvm_util::pool`]).
///
/// Workers claim pending cells in dispatch order; results merge by grid
/// index, and the collector streams one JSONL progress line per
/// completed cell and auto-snapshots every
/// [`PoolOptions::snapshot_every`] completions. [`PoolOptions::limit`]
/// caps the dispatch order, so a limit-stopped invocation executes
/// exactly that many cells for any worker count.
///
/// # Errors
///
/// Returns [`CampaignError`] if the spec is invalid, a resume snapshot
/// mismatches, or snapshot/progress I/O fails. Individual cell failures
/// do **not** abort the campaign — they are recorded on the cell's
/// [`CampaignRun`] (`ok = false`).
pub fn run_campaign(
    cfg: &SimConfig,
    spec: &CampaignSpec,
    pool: &PoolOptions,
    mut progress: Option<&mut dyn io::Write>,
) -> Result<CampaignOutcome, CampaignError> {
    let cells = spec.grid()?;
    let total = cells.len();
    let fingerprint = spec.fingerprint();
    let snapshot_every = if pool.snapshot_every == 0 {
        DEFAULT_SNAPSHOT_EVERY
    } else {
        pool.snapshot_every
    };

    // Resume: pre-fill completed slots from the snapshot, if any.
    let mut done = Pool::new(total);
    let mut resumed = 0usize;
    if pool.resume {
        if let Some(path) = &pool.snapshot_path {
            if path.exists() {
                let snap = CampaignSnapshot::load(path)?;
                if snap.fingerprint != fingerprint {
                    return Err(CampaignError::SnapshotMismatch {
                        expected: fingerprint,
                        found: snap.fingerprint,
                    });
                }
                if snap.total != total as u64 {
                    return Err(CampaignError::SnapshotMalformed(format!(
                        "snapshot grid size {} != spec grid size {total}",
                        snap.total
                    )));
                }
                for run in snap.completed {
                    let idx = run.index as usize;
                    let expected_key = {
                        let c = cells[idx];
                        grid_key(
                            c.app.abbr(),
                            c.policy.label(),
                            &c.rate.label(),
                            &spec.plans[c.plan_idx].name,
                        )
                    };
                    if run.key != expected_key {
                        return Err(CampaignError::SnapshotMalformed(format!(
                            "snapshot run {} has key '{}' but the grid cell is '{expected_key}'",
                            idx, run.key
                        )));
                    }
                    done.prefill(idx, run);
                    resumed += 1;
                }
            }
        }
    }

    // Dispatch order over the *pending* cells: grid order, optionally
    // shuffled (a test hook; the merge makes it unobservable), capped at
    // `limit` by the pool.
    let mut order: Vec<usize> = (0..total).filter(|&i| !done.is_done(i)).collect();
    if let Some(seed) = pool.shuffle {
        Rng::seed_from_u64(seed).shuffle(&mut order);
    }

    // Collector: arrival-ordered progress and snapshots, index-ordered
    // merge.
    let mut completions = 0usize;
    let executed = done.run(
        &order,
        pool.workers,
        pool.limit,
        |i| execute_cell(cfg, spec, cells[i]),
        |i, slots| {
            if let (Some(w), Some(run)) = (progress.as_deref_mut(), slots.get(i)) {
                writeln!(w, "{}", run.progress_line())?;
            }
            completions += 1;
            match &pool.snapshot_path {
                Some(path) if completions.is_multiple_of(snapshot_every) => {
                    write_snapshot(path, &fingerprint, slots)
                }
                _ => Ok(()),
            }
        },
    )?;

    // Final snapshot so a completed (or limit-stopped) campaign's file
    // reflects everything that finished.
    if let Some(path) = &pool.snapshot_path {
        write_snapshot(path, &fingerprint, &done)?;
    }

    Ok(CampaignOutcome {
        fingerprint,
        total,
        resumed,
        executed,
        runs: done.into_completed(),
    })
}

fn write_snapshot(
    path: &Path,
    fingerprint: &str,
    done: &Pool<CampaignRun>,
) -> Result<(), CampaignError> {
    let snap = CampaignSnapshot {
        schema: CAMPAIGN_SNAPSHOT_SCHEMA,
        fingerprint: fingerprint.to_string(),
        total: done.len() as u64,
        completed: done.completed().cloned().collect(),
    };
    snap.save(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_config;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            apps: vec!["STN".to_string()],
            policies: vec![PolicyKind::Lru, PolicyKind::Hpe],
            rates: vec![Oversubscription::Rate75],
            plans: vec![PlanSpec::clean()],
            recovery: RecoveryOptions::default(),
            seed: 7,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let a = tiny_spec();
        let mut b = tiny_spec();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.seed = 8;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = tiny_spec();
        c.plans = chaos_plan_set(7);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn grid_enumerates_in_spec_order() {
        let spec = tiny_spec();
        let cells = spec.grid().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].policy, PolicyKind::Lru);
        assert_eq!(cells[1].policy, PolicyKind::Hpe);
        assert_eq!(cells[1].index, 1);
    }

    #[test]
    fn unknown_app_is_a_typed_error() {
        let mut spec = tiny_spec();
        spec.apps = vec!["XXX".to_string()];
        assert_eq!(
            spec.grid().unwrap_err(),
            CampaignError::UnknownApp("XXX".to_string())
        );
    }

    #[test]
    fn empty_grid_is_a_typed_error() {
        let mut spec = tiny_spec();
        spec.policies.clear();
        assert_eq!(spec.grid().unwrap_err(), CampaignError::EmptyGrid);
    }

    #[test]
    fn campaign_run_json_roundtrip_is_byte_identical() {
        let cfg = bench_config();
        let spec = tiny_spec();
        let out = run_campaign_serial(&cfg, &spec).unwrap();
        for run in &out.runs {
            let text = run.to_json().to_string();
            let back = CampaignRun::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(&back, run);
            assert_eq!(back.to_json().to_string(), text);
        }
    }

    #[test]
    fn snapshot_rejects_wrong_schema_and_bad_indices() {
        let snap = CampaignSnapshot {
            schema: 99,
            ..CampaignSnapshot::default()
        };
        assert!(matches!(
            snap.validate(),
            Err(CampaignError::SnapshotMalformed(_))
        ));
        let snap = CampaignSnapshot {
            schema: CAMPAIGN_SNAPSHOT_SCHEMA,
            fingerprint: "x".into(),
            total: 1,
            completed: vec![CampaignRun {
                index: 5,
                ..CampaignRun::default()
            }],
        };
        assert!(matches!(
            snap.validate(),
            Err(CampaignError::SnapshotMalformed(_))
        ));
    }

    #[test]
    fn snapshot_strict_parse_rejects_unknown_fields_and_truncation() {
        // A misspelled top-level field names itself and the nearest
        // known key.
        let v = Json::parse(r#"{"schema": 1, "fingerprnt": "x"}"#).unwrap();
        let err = CampaignSnapshot::from_json(&v).unwrap_err().to_string();
        assert!(err.contains("fingerprnt"), "{err}");
        assert!(err.contains("fingerprint"), "{err}");
        // Unknown fields nested in a completed run are located by path.
        let v = Json::parse(r#"{"schema": 1, "completed": [{"index": 0, "kye": "a"}]}"#).unwrap();
        let err = CampaignSnapshot::from_json(&v).unwrap_err().to_string();
        assert!(err.contains("completed[0].kye"), "{err}");
        // A truncated snapshot file fails at load with a parse error,
        // not a silent partial resume.
        let dir = std::env::temp_dir().join(format!("hpe-snap-trunc-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let full = CampaignSnapshot {
            schema: CAMPAIGN_SNAPSHOT_SCHEMA,
            fingerprint: "x".into(),
            total: 1,
            completed: vec![CampaignRun::default()],
        };
        full.save(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(
            CampaignSnapshot::load(&path),
            Err(CampaignError::SnapshotMalformed(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_temp_file_is_never_the_snapshot_and_never_shared() {
        let tmp = |p: &str| snapshot_temp_path(Path::new(p));
        assert_eq!(tmp("run.tmp"), PathBuf::from("run.tmp.tmp"));
        assert_ne!(tmp("out/run.json"), tmp("out/run.snap"));
        assert_eq!(tmp("snap"), PathBuf::from("snap.tmp"));

        // Saving over `run.tmp` replaces it whole, leaving no temp file.
        let dir = std::env::temp_dir().join(format!("hpe-snap-tmp-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.tmp");
        let snap = CampaignSnapshot {
            schema: CAMPAIGN_SNAPSHOT_SCHEMA,
            fingerprint: "x".into(),
            total: 1,
            completed: vec![CampaignRun::default()],
        };
        snap.save(&path).unwrap();
        snap.save(&path).unwrap();
        assert_eq!(CampaignSnapshot::load(&path).unwrap(), snap);
        assert!(!snapshot_temp_path(&path).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn progress_line_is_one_json_object() {
        let run = CampaignRun {
            index: 3,
            key: grid_key("STN", "LRU", "75%", "clean"),
            app: "STN".into(),
            policy: "LRU".into(),
            rate: "75%".into(),
            plan: "clean".into(),
            ok: true,
            ..CampaignRun::default()
        };
        let line = run.progress_line();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        assert_eq!(v["key"].as_str(), Some("STN/LRU/75%/clean"));
        assert_eq!(v["ok"].as_bool(), Some(true));
    }
}
