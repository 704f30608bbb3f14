//! Bounded fault-space exploration: specs, case enumeration, shrinking.
//!
//! The chaos harness (fault plans + sanitizer) spot-checks the recovery
//! machinery one hand-picked plan at a time. This module turns those
//! spot-checks into *coverage*: an [`ExploreSpec`] describes a bounded
//! region of the fault space — deterministic fault-window placements on
//! a cycle grid, plus a batch of randomized plan seeds — and enumerates
//! it as a deterministic list of [`ExploreCase`]s. The bench-side engine
//! (`hpe-chaos explore`) runs every case under the full invariant set
//! and, for each failing case, calls [`shrink_plan`] to delta-debug the
//! plan down to a minimal counterexample, emitted as a replayable
//! [`ReproCase`].
//!
//! Everything here is pure bookkeeping — enumeration, shrinking control
//! flow, and report types. Running simulations and checking invariants
//! live in `hpe-bench`, which owns the policy zoo and the worker pool.
//!
//! # Examples
//!
//! ```
//! use uvm_sim::ExploreSpec;
//!
//! let spec = ExploreSpec::default();
//! spec.validate().unwrap();
//! let (cases, skipped) = spec.cases();
//! assert!(!cases.is_empty());
//! assert_eq!(skipped, 0);
//! ```

use uvm_types::ConfigError;
use uvm_util::impl_json_struct;

use crate::faults::{FaultFamily, FaultPlan, FaultWindow};
use crate::recovery::RetryPolicy;

/// Every cross-run invariant the exploration engine can assert, in the
/// order they are checked. An empty [`ExploreSpec::invariants`] selects
/// all of them.
///
/// * `completes` — the run finishes without a typed error;
/// * `sanitizer` — the runtime sanitizer (at the spec's cadence) finds
///   no structural invariant broken;
/// * `conservation` — end-of-run accounting holds: every op executed
///   exactly once and resident pages stay within capacity;
/// * `replay` — running the identical case twice yields byte-identical
///   statistics;
/// * `checkpoint` — pausing at the spec's checkpoint cycle, snapshotting,
///   and resuming a fresh simulation reproduces the straight run
///   byte-identically;
/// * `recovery` — a degraded HPE policy recovers once the injected HIR
///   outage has been over for its re-classification horizon;
/// * `containment` — with the case's fault plan scoped to one tenant of
///   a multi-tenant mix ([`ExploreSpec::tenants`]), every *other*
///   tenant's final statistics are byte-identical to its fault-free
///   run — the fault's blast radius stays inside the targeted tenant.
///   Skipped (like `checkpoint` at cycle 0) when the spec declares no
///   tenants.
pub const ALL_INVARIANTS: [&str; 7] = [
    "completes",
    "sanitizer",
    "conservation",
    "replay",
    "checkpoint",
    "recovery",
    "containment",
];

/// A bounded region of the fault space to explore (JSON-configurable).
///
/// Sparse JSON is accepted: every field has a default, so `{}` is a
/// valid (small, clean) spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpec {
    /// Workload abbreviation (see the workload registry).
    pub app: String,
    /// Eviction-policy label (see `hpe-bench`'s policy zoo).
    pub policy: String,
    /// Oversubscription rate in percent (50 or 75).
    pub rate: u64,
    /// Fault families whose window placements are enumerated; empty
    /// selects all families. Labels as in `FaultFamily::label`.
    pub families: Vec<String>,
    /// First cycle of the window-placement grid.
    pub grid_origin: u64,
    /// Exclusive upper bound of the grid.
    pub grid_limit: u64,
    /// Grid stride in cycles between candidate window starts.
    pub grid_stride: u64,
    /// Window widths (cycles) tried at every grid placement.
    pub widths: Vec<u64>,
    /// Randomized plan-batch size: the base plan re-seeded this many
    /// times (0 disables the batch).
    pub batch_runs: u64,
    /// Seed from which the batch derives its per-run plan seeds.
    pub batch_seed: u64,
    /// The plan every enumerated window and batch seed is grafted onto.
    pub base_plan: FaultPlan,
    /// Explicit plans checked before any enumeration (seeded-bad
    /// fixtures go here).
    pub fixtures: Vec<FaultPlan>,
    /// Invariants to assert per case (subset of [`ALL_INVARIANTS`];
    /// empty selects all).
    pub invariants: Vec<String>,
    /// Driver retry policy installed on every run (`None` = flat plan
    /// delay).
    pub retry: Option<RetryPolicy>,
    /// Sanitizer cadence in events for the `sanitizer` invariant.
    pub sanitize_cadence: u64,
    /// Pause cycle for the `checkpoint` invariant (0 disables it even
    /// when selected).
    pub checkpoint_at: u64,
    /// Probe budget per counterexample shrink.
    pub shrink_budget: u64,
    /// Tenants in the `containment` invariant's mix (0 disables the
    /// invariant even when selected; ≥ 2 makes it meaningful).
    pub tenants: u64,
    /// Which tenant (by position in the mix) each case's fault plan is
    /// scoped to; the other tenants must be untouched.
    pub tenant_target: u64,
    /// Per-tenant quota as a percentage of the tenant app's footprint in
    /// the containment mix.
    pub tenant_quota_pct: u64,
}

impl_json_struct!(ExploreSpec {
    app = "STN".to_string(),
    policy = "hpe".to_string(),
    rate = 75,
    families = Vec::new(),
    grid_origin = 0,
    grid_limit = 2_000_000,
    grid_stride = 1_000_000,
    widths = vec![200_000],
    batch_runs = 0,
    batch_seed = 2019,
    base_plan = FaultPlan::default(),
    fixtures = Vec::new(),
    invariants = Vec::new(),
    retry = None,
    sanitize_cadence = 1_024,
    checkpoint_at = 0,
    shrink_budget = 256,
    tenants = 0,
    tenant_target = 0,
    tenant_quota_pct = 75,
});

impl ExploreSpec {
    /// The fault families whose windows are enumerated (empty spec field
    /// = all families).
    ///
    /// Unknown labels are rejected by [`Self::validate`]; this helper
    /// silently skips them so it stays total.
    pub fn family_set(&self) -> Vec<FaultFamily> {
        if self.families.is_empty() {
            FaultFamily::ALL.to_vec()
        } else {
            self.families
                .iter()
                .filter_map(|s| FaultFamily::parse(s))
                .collect()
        }
    }

    /// The invariants asserted per case (empty spec field = all).
    pub fn invariant_set(&self) -> Vec<String> {
        if self.invariants.is_empty() {
            ALL_INVARIANTS.iter().map(|s| s.to_string()).collect()
        } else {
            self.invariants.clone()
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.app.is_empty() {
            return Err(ConfigError::invalid("app", "must name a workload"));
        }
        if self.policy.is_empty() {
            return Err(ConfigError::invalid("policy", "must name a policy"));
        }
        if self.rate != 50 && self.rate != 75 {
            return Err(ConfigError::invalid(
                "rate",
                format!("must be 50 or 75, got {}", self.rate),
            ));
        }
        for f in &self.families {
            if FaultFamily::parse(f).is_none() {
                return Err(ConfigError::invalid(
                    "families",
                    format!("unknown fault family `{f}`"),
                ));
            }
        }
        for inv in &self.invariants {
            if !ALL_INVARIANTS.contains(&inv.as_str()) {
                return Err(ConfigError::invalid(
                    "invariants",
                    format!(
                        "unknown invariant `{inv}` (known: {})",
                        ALL_INVARIANTS.join(", ")
                    ),
                ));
            }
        }
        if self.widths.contains(&0) {
            return Err(ConfigError::invalid(
                "widths",
                "window widths must be nonzero",
            ));
        }
        let enumerating = !self.widths.is_empty() && self.grid_limit > self.grid_origin;
        if enumerating && self.grid_stride == 0 {
            return Err(ConfigError::invalid(
                "grid_stride",
                "must be nonzero when the placement grid is non-empty",
            ));
        }
        self.base_plan
            .validate()
            .map_err(|e| ConfigError::invalid("base_plan", e.to_string()))?;
        for (i, plan) in self.fixtures.iter().enumerate() {
            plan.validate()
                .map_err(|e| ConfigError::invalid("fixtures", format!("fixture {i}: {e}")))?;
        }
        if let Some(rp) = &self.retry {
            rp.validate()?;
        }
        if self.sanitize_cadence == 0 {
            return Err(ConfigError::invalid(
                "sanitize_cadence",
                "must be nonzero (a cadence of 0 would be clamped silently)",
            ));
        }
        if self.tenants > 0 {
            if self.tenant_target >= self.tenants {
                return Err(ConfigError::invalid(
                    "tenant_target",
                    format!(
                        "target {} out of range for a {}-tenant mix",
                        self.tenant_target, self.tenants
                    ),
                ));
            }
            if self.tenant_quota_pct == 0 {
                return Err(ConfigError::invalid("tenant_quota_pct", "must be nonzero"));
            }
        }
        if self.tenants < 2 && self.invariants.iter().any(|i| i == "containment") {
            return Err(ConfigError::invalid(
                "tenants",
                "the `containment` invariant needs a mix of at least 2 tenants",
            ));
        }
        Ok(())
    }

    /// Grafts a window of `family` onto the base plan, supplying the
    /// family's supporting knob when the base plan leaves it inert (a
    /// congestion window without a factor, for example, would be
    /// rejected by `FaultPlan::validate`).
    fn windowed_plan(&self, window: FaultWindow) -> FaultPlan {
        let mut plan = self.base_plan.clone();
        match window.family {
            FaultFamily::Congestion if plan.congestion_factor < 2 => plan.congestion_factor = 8,
            FaultFamily::LatencyTail if plan.tail_multiplier < 2 => plan.tail_multiplier = 4,
            FaultFamily::CompletionLoss if plan.retry_cycles == 0 => plan.retry_cycles = 10_000,
            FaultFamily::FlushDelay if plan.hir_delay_faults == 0 => plan.hir_delay_faults = 24,
            _ => {}
        }
        plan.windows.push(window);
        plan
    }

    /// Enumerates the spec's cases deterministically: fixtures first,
    /// then every (family x width x grid start) window placement, then
    /// the randomized seed batch. Returns the cases plus how many
    /// enumerated plans were skipped as invalid (e.g. a grafted window
    /// overlapping a same-family base-plan window).
    pub fn cases(&self) -> (Vec<ExploreCase>, u64) {
        let mut cases = Vec::new();
        let mut skipped = 0u64;
        let mut id = 0u64;
        let mut push = |cases: &mut Vec<ExploreCase>, label: String, plan: FaultPlan| {
            cases.push(ExploreCase { id, label, plan });
            id += 1;
        };

        for (i, plan) in self.fixtures.iter().enumerate() {
            push(&mut cases, format!("fixture:{i}"), plan.clone());
        }

        for family in self.family_set() {
            for &width in &self.widths {
                let mut start = self.grid_origin;
                while start < self.grid_limit {
                    let window = FaultWindow {
                        family,
                        start,
                        width,
                    };
                    let plan = self.windowed_plan(window);
                    if plan.validate().is_ok() {
                        let label = format!("window:{}:{start}+{width}", family.label());
                        push(&mut cases, label, plan);
                    } else {
                        skipped += 1;
                    }
                    match start.checked_add(self.grid_stride.max(1)) {
                        Some(next) => start = next,
                        None => break,
                    }
                }
            }
        }

        for i in 0..self.batch_runs {
            let mut plan = self.base_plan.clone();
            // SplitMix64-style spread so consecutive batch indices land on
            // unrelated RNG streams.
            plan.seed = self
                .batch_seed
                .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                | 1;
            if plan.validate().is_ok() {
                push(&mut cases, format!("batch:{i}"), plan);
            } else {
                skipped += 1;
            }
        }

        (cases, skipped)
    }

    /// How many distinct (family, start, width) placements the grid
    /// spans — the coverage denominator reported by `hpe-chaos explore`.
    pub fn distinct_placements(&self) -> u64 {
        if self.grid_limit <= self.grid_origin || self.widths.is_empty() {
            return 0;
        }
        let span = self.grid_limit - self.grid_origin;
        let starts = span.div_ceil(self.grid_stride.max(1));
        starts * self.widths.len() as u64 * self.family_set().len() as u64
    }
}

/// One enumerated run of the exploration engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreCase {
    /// Position in the spec's deterministic enumeration order.
    pub id: u64,
    /// Human-readable origin: `fixture:N`, `window:FAMILY:START+WIDTH`,
    /// or `batch:N`.
    pub label: String,
    /// The fault plan this case runs under.
    pub plan: FaultPlan,
}

impl_json_struct!(ExploreCase { id, label, plan });

/// Delta-debugs a failing plan down to a minimal one that still fails.
///
/// `fails` must return `true` when the candidate plan reproduces the
/// violation; it is only ever called with plans that pass
/// `FaultPlan::validate`. The shrink is greedy and deterministic:
///
/// 1. drop whole windows (first to last) while the failure reproduces;
/// 2. binary-search each surviving window's width down to the minimal
///    failing width (start unchanged);
/// 3. zero each probabilistic knob (probabilities and square-wave
///    periods) that is not needed to reproduce;
/// 4. collapse the seed toward 0 by halving.
///
/// Passes repeat until a fixpoint or until `budget` probe invocations
/// are spent; the best plan found so far is returned with the number of
/// probes used. The input plan itself is assumed to fail (it is not
/// re-probed).
pub fn shrink_plan(
    plan: &FaultPlan,
    budget: u64,
    fails: &mut dyn FnMut(&FaultPlan) -> bool,
) -> (FaultPlan, u64) {
    let mut best = plan.clone();
    let mut probes = 0u64;
    let mut probe = |candidate: &FaultPlan, probes: &mut u64| -> bool {
        if *probes >= budget || candidate.validate().is_err() {
            return false;
        }
        *probes += 1;
        fails(candidate)
    };

    loop {
        let before = best.clone();

        // 1. Drop whole windows.
        let mut i = 0;
        while i < best.windows.len() {
            let mut candidate = best.clone();
            candidate.windows.remove(i);
            if probe(&candidate, &mut probes) {
                best = candidate;
            } else {
                i += 1;
            }
        }

        // 2. Minimal failing width per window (binary search; width is
        // monotone for every windowed effect: a narrower window is a
        // subset of the wider one).
        for i in 0..best.windows.len() {
            let mut lo = 0u64; // widths <= lo pass (or untested)
            let mut hi = best.windows[i].width; // known to fail
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                let mut candidate = best.clone();
                candidate.windows[i].width = mid;
                if probe(&candidate, &mut probes) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            best.windows[i].width = hi;
        }

        // 3. Zero probabilistic knobs one at a time.
        let zero_f64: [fn(&mut FaultPlan) -> &mut f64; 6] = [
            |p| &mut p.latency_jitter,
            |p| &mut p.tail_probability,
            |p| &mut p.completion_loss_probability,
            |p| &mut p.spurious_wrong_eviction_probability,
            |p| &mut p.hir_delay_probability,
            |p| &mut p.victim_drop_probability,
        ];
        for knob in zero_f64 {
            if *knob(&mut best) == 0.0 {
                continue;
            }
            let mut candidate = best.clone();
            *knob(&mut candidate) = 0.0;
            if probe(&candidate, &mut probes) {
                best = candidate;
            }
        }
        let zero_u64: [fn(&mut FaultPlan) -> &mut u64; 2] =
            [|p| &mut p.congestion_period, |p| &mut p.hir_outage_period];
        for knob in zero_u64 {
            if *knob(&mut best) == 0 {
                continue;
            }
            let mut candidate = best.clone();
            *knob(&mut candidate) = 0;
            if probe(&candidate, &mut probes) {
                best = candidate;
            }
        }

        // 4. Collapse the seed (only matters for plans that still draw).
        while best.seed != 0 {
            let mut candidate = best.clone();
            candidate.seed /= 2;
            if probe(&candidate, &mut probes) {
                best = candidate;
            } else {
                break;
            }
        }

        if best == before || probes >= budget {
            return (best, probes);
        }
    }
}

/// A minimal failing case found (and shrunk) by the exploration engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Enumeration id of the originally failing case.
    pub case: u64,
    /// Origin label of the originally failing case.
    pub label: String,
    /// The violated invariant (one of [`ALL_INVARIANTS`]).
    pub invariant: String,
    /// The violation the *shrunk* plan reproduces.
    pub error: String,
    /// Probe runs the shrinker spent.
    pub probes: u64,
    /// The minimal plan (replay it with [`ReproCase`]).
    pub plan: FaultPlan,
}

impl_json_struct!(Counterexample {
    case,
    label,
    invariant,
    error,
    probes,
    plan
});

/// A self-contained, replayable repro: everything `hpe-chaos replay`
/// needs to re-execute a counterexample deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproCase {
    /// Workload abbreviation.
    pub app: String,
    /// Eviction-policy label.
    pub policy: String,
    /// Oversubscription rate in percent.
    pub rate: u64,
    /// The invariant the plan violates.
    pub invariant: String,
    /// The recorded violation text (`hpe-chaos replay` byte-compares the
    /// reproduced violation against it).
    pub error: String,
    /// Driver retry policy of the failing run.
    pub retry: Option<RetryPolicy>,
    /// Sanitizer cadence of the failing run.
    pub sanitize_cadence: u64,
    /// Checkpoint pause cycle (0 = the invariant never pauses).
    pub checkpoint_at: u64,
    /// Tenant count of the `containment` invariant's mix (0 = the
    /// invariant was not in play).
    pub tenants: u64,
    /// Tenant the failing plan was scoped to in the containment mix.
    pub tenant_target: u64,
    /// Per-tenant quota percentage of the containment mix.
    pub tenant_quota_pct: u64,
    /// The minimal failing plan.
    pub plan: FaultPlan,
}

impl_json_struct!(ReproCase {
    app = "STN".to_string(),
    policy = "hpe".to_string(),
    rate = 75,
    invariant = String::new(),
    error = String::new(),
    retry = None,
    sanitize_cadence = 1_024,
    checkpoint_at = 0,
    tenants = 0,
    tenant_target = 0,
    tenant_quota_pct = 75,
    plan = FaultPlan::default(),
});

impl ReproCase {
    /// The repro as the one-case spec it replays: its plan as the only
    /// fixture, its invariant as the only one selected, no enumeration.
    /// [`ExploreSpec::validate`] on it is the repro's validation.
    pub fn spec(&self) -> ExploreSpec {
        ExploreSpec {
            app: self.app.clone(),
            policy: self.policy.clone(),
            rate: self.rate,
            grid_limit: 0,
            fixtures: vec![self.plan.clone()],
            invariants: vec![self.invariant.clone()],
            retry: self.retry,
            sanitize_cadence: self.sanitize_cadence,
            checkpoint_at: self.checkpoint_at,
            tenants: self.tenants,
            tenant_target: self.tenant_target,
            tenant_quota_pct: self.tenant_quota_pct,
            ..ExploreSpec::default()
        }
    }
}

/// The merged coverage report of one exploration — byte-identical for
/// any worker count (cases are merged by enumeration id and shrinking
/// runs serially in id order).
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Workload abbreviation.
    pub app: String,
    /// Eviction-policy label.
    pub policy: String,
    /// Oversubscription rate in percent.
    pub rate: u64,
    /// Cases enumerated (fixtures + windows + batch).
    pub cases: u64,
    /// Fixture cases among them.
    pub fixture_cases: u64,
    /// Window-placement cases among them.
    pub window_cases: u64,
    /// Randomized batch cases among them.
    pub batch_cases: u64,
    /// Enumerated plans skipped as invalid (e.g. same-family overlap
    /// with a base-plan window).
    pub skipped_invalid: u64,
    /// Distinct (family, start, width) placements the grid spans.
    pub distinct_placements: u64,
    /// The invariants asserted on every case, in check order.
    pub invariants: Vec<String>,
    /// Simulation runs executed (invariant checks can need several runs
    /// per case; shrink probes are counted separately).
    pub runs: u64,
    /// Individual invariant checks performed (cases x invariants).
    pub invariant_checks: u64,
    /// Extra runs spent shrinking counterexamples.
    pub shrink_probes: u64,
    /// Minimal counterexamples, in case-enumeration order.
    pub counterexamples: Vec<Counterexample>,
}

impl_json_struct!(ExploreReport {
    app = String::new(),
    policy = String::new(),
    rate = 0,
    cases = 0,
    fixture_cases = 0,
    window_cases = 0,
    batch_cases = 0,
    skipped_invalid = 0,
    distinct_placements = 0,
    invariants = Vec::new(),
    runs = 0,
    invariant_checks = 0,
    shrink_probes = 0,
    counterexamples = Vec::new(),
});

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_util::{FromJson, Json, ToJson};

    #[test]
    fn default_spec_validates_and_enumerates() {
        let spec = ExploreSpec::default();
        spec.validate().unwrap();
        let (cases, skipped) = spec.cases();
        assert_eq!(skipped, 0);
        // 7 families x 1 width x 2 grid starts.
        assert_eq!(cases.len(), 14);
        assert_eq!(spec.distinct_placements(), 14);
        // Enumeration ids are dense and ordered.
        for (i, c) in cases.iter().enumerate() {
            assert_eq!(c.id, i as u64);
        }
        assert!(cases[0].label.starts_with("window:congestion:"));
        // Every enumerated plan is valid and runnable.
        for c in &cases {
            c.plan.validate().unwrap();
        }
    }

    #[test]
    fn enumeration_orders_fixtures_windows_batch() {
        let mut spec = ExploreSpec {
            families: vec!["completion-loss".to_string()],
            grid_origin: 0,
            grid_limit: 300_000,
            grid_stride: 100_000,
            widths: vec![50_000],
            batch_runs: 2,
            ..ExploreSpec::default()
        };
        spec.fixtures.push(FaultPlan::latency_storm(3));
        spec.validate().unwrap();
        let (cases, skipped) = spec.cases();
        assert_eq!(skipped, 0);
        let labels: Vec<&str> = cases.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "fixture:0",
                "window:completion-loss:0+50000",
                "window:completion-loss:100000+50000",
                "window:completion-loss:200000+50000",
                "batch:0",
                "batch:1",
            ]
        );
        // The grafted completion-loss windows got a usable retry delay.
        assert!(cases[1].plan.retry_cycles > 0);
        // Batch seeds are distinct and deterministic.
        assert_ne!(cases[4].plan.seed, cases[5].plan.seed);
        let (again, _) = spec.cases();
        assert_eq!(again, cases);
    }

    #[test]
    fn overlapping_grafts_are_skipped_not_fatal() {
        let mut spec = ExploreSpec {
            families: vec!["congestion".to_string()],
            grid_origin: 0,
            grid_limit: 200_000,
            grid_stride: 100_000,
            widths: vec![100_000],
            ..ExploreSpec::default()
        };
        // The base plan already owns [50_000, 150_000): both grid
        // placements overlap it and must be skipped.
        spec.base_plan.congestion_factor = 8;
        spec.base_plan.windows.push(FaultWindow {
            family: FaultFamily::Congestion,
            start: 50_000,
            width: 100_000,
        });
        spec.validate().unwrap();
        let (cases, skipped) = spec.cases();
        assert_eq!(cases.len(), 0);
        assert_eq!(skipped, 2);
    }

    #[test]
    fn spec_validation_names_offending_fields() {
        let cases: Vec<(ExploreSpec, &str)> = vec![
            (
                ExploreSpec {
                    rate: 60,
                    ..ExploreSpec::default()
                },
                "rate",
            ),
            (
                ExploreSpec {
                    families: vec!["cosmic-rays".to_string()],
                    ..ExploreSpec::default()
                },
                "families",
            ),
            (
                ExploreSpec {
                    invariants: vec!["vibes".to_string()],
                    ..ExploreSpec::default()
                },
                "invariants",
            ),
            (
                ExploreSpec {
                    widths: vec![0],
                    ..ExploreSpec::default()
                },
                "widths",
            ),
            (
                ExploreSpec {
                    grid_stride: 0,
                    ..ExploreSpec::default()
                },
                "grid_stride",
            ),
            (
                ExploreSpec {
                    sanitize_cadence: 0,
                    ..ExploreSpec::default()
                },
                "sanitize_cadence",
            ),
            (
                ExploreSpec {
                    tenants: 2,
                    tenant_target: 2,
                    ..ExploreSpec::default()
                },
                "tenant_target",
            ),
            (
                ExploreSpec {
                    tenants: 2,
                    tenant_quota_pct: 0,
                    ..ExploreSpec::default()
                },
                "tenant_quota_pct",
            ),
            (
                ExploreSpec {
                    tenants: 1,
                    invariants: vec!["containment".to_string()],
                    ..ExploreSpec::default()
                },
                "tenants",
            ),
        ];
        for (spec, field) in cases {
            let err = spec.validate().unwrap_err();
            assert_eq!(err.parameter(), field, "{err}");
        }
    }

    #[test]
    fn spec_json_roundtrip_and_sparse_defaults() {
        let spec = ExploreSpec {
            app: "SGM".to_string(),
            batch_runs: 5,
            retry: Some(RetryPolicy::adaptive()),
            fixtures: vec![FaultPlan::livelock(1)],
            ..ExploreSpec::default()
        };
        let text = spec.to_json().to_string();
        let back = ExploreSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json().to_string(), text);

        let sparse = ExploreSpec::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(sparse, ExploreSpec::default());
        let partial =
            ExploreSpec::from_json(&Json::parse(r#"{"app": "NW", "rate": 50}"#).unwrap()).unwrap();
        assert_eq!(partial.app, "NW");
        assert_eq!(partial.rate, 50);
        assert_eq!(partial.policy, "hpe");
    }

    #[test]
    fn spec_strict_parse_rejects_unknown_fields() {
        // A misspelled top-level key names itself and suggests the fix.
        let err = ExploreSpec::from_json(&Json::parse(r#"{"tenats": 2}"#).unwrap())
            .unwrap_err()
            .to_string();
        assert!(err.contains("tenats"), "{err}");
        assert!(err.contains("tenants"), "{err}");
        // Unknown keys nested inside fixture plans are caught too.
        let nested = Json::parse(r#"{"fixtures": [{"seed": 1, "windoes": []}]}"#).unwrap();
        let err = ExploreSpec::from_json(&nested).unwrap_err().to_string();
        assert!(err.contains("fixtures[0].windoes"), "{err}");
        // ...and inside the retry policy's flat object.
        let retry = Json::parse(r#"{"retry": {"mode": "adaptive", "los_window": 3}}"#).unwrap();
        let err = ExploreSpec::from_json(&retry).unwrap_err().to_string();
        assert!(err.contains("`retry.los_window`"), "{err}");
        assert!(err.contains("did you mean `loss_window`?"), "{err}");
        // A valid sparse spec still parses to defaults.
        let ok = ExploreSpec::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(ok, ExploreSpec::default());
        // Tenant knobs round-trip through the strict path.
        let spec = ExploreSpec::from_json(
            &Json::parse(r#"{"tenants": 3, "tenant_target": 1, "tenant_quota_pct": 50}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(spec.tenants, 3);
        assert_eq!(spec.tenant_target, 1);
        assert_eq!(spec.tenant_quota_pct, 50);
    }

    #[test]
    fn shrink_drops_decoys_and_minimizes_width() {
        // Synthetic failure: the plan fails iff a completion-loss window
        // covers cycle 1_000_000. Decoy windows and noise knobs must be
        // stripped, and the width must shrink to the minimum that still
        // covers the target cycle.
        let plan = FaultPlan {
            seed: 77,
            latency_jitter: 0.25,
            congestion_period: 2_000_000,
            congestion_duty: 0.5,
            congestion_factor: 8,
            retry_cycles: 10_000,
            hir_delay_faults: 24,
            windows: vec![
                FaultWindow {
                    family: FaultFamily::VictimDrop,
                    start: 0,
                    width: 500_000,
                },
                FaultWindow {
                    family: FaultFamily::CompletionLoss,
                    start: 900_000,
                    width: 400_000,
                },
                FaultWindow {
                    family: FaultFamily::FlushDelay,
                    start: 2_000_000,
                    width: 100_000,
                },
            ],
            ..FaultPlan::default()
        };
        plan.validate().unwrap();
        let mut fails = |p: &FaultPlan| {
            p.windows
                .iter()
                .any(|w| w.family == FaultFamily::CompletionLoss && w.contains(1_000_000))
        };
        let (shrunk, probes) = shrink_plan(&plan, 10_000, &mut fails);
        assert!(probes > 0);
        assert_eq!(shrunk.windows.len(), 1, "decoy windows dropped");
        let w = shrunk.windows[0];
        assert_eq!(w.family, FaultFamily::CompletionLoss);
        assert_eq!(w.start, 900_000);
        assert_eq!(w.width, 100_001, "minimal width still covering 1M");
        assert_eq!(shrunk.seed, 0, "seed collapsed");
        assert_eq!(shrunk.latency_jitter, 0.0, "noise knob zeroed");
        assert_eq!(shrunk.congestion_period, 0, "noise wave zeroed");
        assert!(fails(&shrunk), "shrunk plan still fails");
        assert!(shrunk.validate().is_ok(), "shrunk plan stays valid");

        // Shrinking is deterministic: same input, same bytes.
        let (again, again_probes) = shrink_plan(&plan, 10_000, &mut fails);
        assert_eq!(again.to_json().to_string(), shrunk.to_json().to_string());
        assert_eq!(again_probes, probes);
    }

    #[test]
    fn shrink_respects_budget() {
        let plan = FaultPlan {
            retry_cycles: 10_000,
            windows: vec![FaultWindow {
                family: FaultFamily::CompletionLoss,
                start: 0,
                width: 1 << 40,
            }],
            ..FaultPlan::default()
        };
        let mut calls = 0u64;
        // Fails whenever the window survives, so the width binary search
        // would burn ~40 probes unbudgeted.
        let (_, probes) = shrink_plan(&plan, 5, &mut |p| {
            calls += 1;
            !p.windows.is_empty()
        });
        assert_eq!(probes, 5, "budget caps probe spend");
        assert_eq!(calls, 5);
    }

    #[test]
    fn report_json_roundtrip() {
        let report = ExploreReport {
            app: "STN".to_string(),
            policy: "hpe".to_string(),
            rate: 75,
            cases: 3,
            fixture_cases: 1,
            window_cases: 2,
            batch_cases: 0,
            skipped_invalid: 0,
            distinct_placements: 2,
            invariants: ALL_INVARIANTS.iter().map(|s| s.to_string()).collect(),
            runs: 9,
            invariant_checks: 18,
            shrink_probes: 4,
            counterexamples: vec![Counterexample {
                case: 0,
                label: "fixture:0".to_string(),
                invariant: "completes".to_string(),
                error: "completion for page p12 lost 8 times".to_string(),
                probes: 4,
                plan: FaultPlan::livelock(1),
            }],
        };
        let text = report.to_json().to_string();
        let back = ExploreReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().to_string(), text);

        let sparse = ExploreReport::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(sparse, ExploreReport::default());
    }

    #[test]
    fn repro_case_json_roundtrip() {
        let repro = ReproCase {
            app: "STN".to_string(),
            policy: "lru".to_string(),
            rate: 50,
            invariant: "completes".to_string(),
            error: "retries exhausted for page p3".to_string(),
            retry: Some(RetryPolicy::default()),
            sanitize_cadence: 256,
            checkpoint_at: 1_000_000,
            tenants: 2,
            tenant_target: 1,
            tenant_quota_pct: 75,
            plan: FaultPlan::completion_loss(7),
        };
        let text = repro.to_json().to_string();
        let back = ReproCase::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, repro);
        assert_eq!(back.to_json().to_string(), text);
    }
}
