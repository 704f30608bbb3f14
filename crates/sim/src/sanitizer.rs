//! The opt-in runtime sanitizer: cadenced structural invariant checks,
//! and the end-of-run [`audit`] of a finished run's statistics.
//!
//! The static side of the safety net (the workspace's clippy denies and
//! `crates/clippy.toml`) checks the *source*; this module is the dynamic
//! side, validating properties of the *running* simulation that no lint
//! can see — residency accounting, HIR occupancy, chain partitioning,
//! and the recovery state machines. The engine owns a [`Sanitizer`] only
//! when one is installed with `Simulation::set_sanitizer`, so
//! sanitizer-off runs pay a single `Option` branch per event and nothing
//! else.
//!
//! Checks are read-only by contract: a sanitizer-on run must produce
//! byte-identical [`uvm_types::SimStats`] to a sanitizer-off run. On a
//! violation the engine returns [`uvm_types::SimError::InvariantViolated`]
//! — a typed, classifiable failure — never a panic, so chaos campaigns
//! can complete and count it like any other outcome.
//!
//! # Invariants checked
//!
//! Every `cadence` retired events (and once more at end of run) the
//! engine validates:
//!
//! * **residency-capacity** — resident pages never exceed configured
//!   capacity frames;
//! * **residency-conservation** — `resident + in-flight` equals
//!   `serviced + prefetched − evicted` (pages are neither minted nor
//!   leaked across evictions);
//! * **lru-shadow** — recency stamps are bounded by the shadow's
//!   monotone clock and track only resident pages (only when the
//!   `lru-shadow` fallback is active);
//! * **circuit-breaker** — the HIR breaker is open exactly when its
//!   failure count reached the threshold;
//! * **loss-estimator** — the adaptive retry's outcome ring stays inside
//!   its window (only under adaptive retry);
//! * **policy-structure** — whatever the policy's own
//!   `EvictionPolicy::check_invariants` claims (for HPE: chain
//!   partitions sum to the chain length and the HIR cache's set/tag
//!   layout is self-consistent).
//!
//! The three recovery checks come from the state
//! `Simulation::set_resilience` installs; a clean run has none to check.
//!
//! The final pass also runs [`audit`] on the run's statistics: the
//! accounting identities that hold whatever the policy decides (every
//! op ran once, the L1 → L2 → walk chain adds up, migrations minus
//! evictions fit in capacity, and the injection counters stay within
//! what the run serviced). Tests and the explorer's `conservation`
//! invariant call the same function on runs without a sanitizer.
//!
//! # Examples
//!
//! ```
//! use uvm_sim::Sanitizer;
//!
//! let mut s = Sanitizer::new(4);
//! let due: Vec<bool> = (0..8).map(|_| s.tick()).collect();
//! assert_eq!(due, vec![false, false, false, true, false, false, false, true]);
//! assert_eq!(s.checks_run(), 2);
//! ```

use uvm_types::{ResilienceStats, SimError, SimStats};
use uvm_util::ToJson;

use crate::faults::{FaultFamily, FaultPlan};

/// Cadence bookkeeping for the engine's invariant checks.
///
/// Construct with [`Sanitizer::new`] and install via
/// `Simulation::set_sanitizer`. The struct holds no simulation state;
/// the engine calls [`Sanitizer::tick`] once per retired event and runs
/// its check pass whenever `tick` returns `true`.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    cadence: u64,
    events_seen: u64,
    checks_run: u64,
}

/// Default check cadence (events between passes): frequent enough to
/// localize a corruption, cheap enough for chaos campaigns.
pub const DEFAULT_SANITIZER_CADENCE: u64 = 1024;

impl Default for Sanitizer {
    fn default() -> Self {
        Sanitizer::new(DEFAULT_SANITIZER_CADENCE)
    }
}

impl Sanitizer {
    /// Creates a sanitizer that requests a check pass every `cadence`
    /// events. A cadence of 0 is clamped to 1 (check after every event).
    pub fn new(cadence: u64) -> Self {
        Sanitizer {
            cadence: cadence.max(1),
            events_seen: 0,
            checks_run: 0,
        }
    }

    /// The configured cadence in events.
    pub fn cadence(&self) -> u64 {
        self.cadence
    }

    /// Notes one retired event; returns `true` when a check pass is due.
    pub fn tick(&mut self) -> bool {
        self.events_seen += 1;
        let due = self.events_seen.is_multiple_of(self.cadence);
        if due {
            self.checks_run += 1;
        }
        due
    }

    /// Notes the end-of-run final pass (always performed when a
    /// sanitizer is installed, regardless of cadence phase).
    pub(crate) fn note_final_check(&mut self) {
        self.checks_run += 1;
    }

    /// Events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Check passes performed so far.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }
}

/// How the left side of an [`audit`] identity must compare to its right.
#[derive(Clone, Copy)]
enum Rel {
    Eq,
    AtMost,
    AtLeast,
}

/// Checks a finished run's statistics against every accounting identity
/// that holds whatever the policy decides, for a trace of `ops` memory
/// ops in `capacity` frames under the fault `plan` the run had
/// installed (`None` on a clean run):
///
/// * every op ran once, and each needed at least one L1 lookup;
/// * every L1 miss is an L2 lookup, every L2 miss a walk, and no more
///   walks hit than ran;
/// * no more pages were evicted than migrated (faults serviced plus
///   prefetched), and migrated − evicted fits in `capacity`;
/// * every fallback victim is an eviction;
/// * with a plan, no per-service injection counter exceeds the faults
///   serviced, and — unless a completion-loss window (which loses every
///   signal inside it) is set — each service loses at most the plan's
///   `max_completion_retries` signals; without one, no injection
///   counter moved. (`fallback_victims` is not an injection counter: a
///   policy that offers no victim falls back on a clean run.)
///
/// It reads no policy counter, so it holds before `SimStats::policy` is
/// filled in.
///
/// # Errors
///
/// Returns [`SimError::InvariantViolated`] naming the first identity
/// that does not hold, at the run's final cycle.
pub fn audit(
    s: &SimStats,
    ops: u64,
    capacity: u64,
    plan: Option<&FaultPlan>,
) -> Result<(), SimError> {
    use Rel::{AtLeast, AtMost, Eq};
    let (t, d, r) = (&s.tlb, &s.driver, &s.resilience);
    let (l1, l2) = (t.l1_hits + t.l1_misses, t.l2_hits + t.l2_misses);
    let (faults, evicted) = (d.faults_serviced, d.evictions);
    let migrated = faults + d.prefetched_pages;
    let resident = migrated.saturating_sub(evicted);
    let mut identities = vec![
        ("mem_accesses = ops", s.mem_accesses, Eq, ops),
        ("L1 lookups >= ops", l1, AtLeast, ops),
        ("L2 lookups = L1 misses", l2, Eq, t.l1_misses),
        ("walks = L2 misses", s.walks, Eq, t.l2_misses),
        ("walk hits <= walks", s.walk_hits, AtMost, s.walks),
        ("evicted <= migrated", evicted, AtMost, migrated),
        ("migrated - evicted <= capacity", resident, AtMost, capacity),
        ("fallbacks <= evicted", r.fallback_victims, AtMost, evicted),
    ];
    match plan {
        Some(plan) => {
            // Each fault service draws each of these at most once.
            let per_service = [
                ("tail events <= faults", r.tail_latency_events),
                ("congested <= faults", r.congested_services),
                ("outage faults <= faults", r.faults_during_hir_outage),
                ("spurious <= faults", r.spurious_wrong_evictions),
            ];
            identities.extend(per_service.map(|(id, n)| (id, n, AtMost, faults)));
            if let Some(max) = plan.max_completion_retries {
                if !plan.has_window(FaultFamily::CompletionLoss) {
                    let bound = faults.saturating_mul(u64::from(max));
                    let id = "lost completions <= faults x retries";
                    identities.push((id, r.completions_lost, AtMost, bound));
                }
            }
        }
        None => {
            let injected = ResilienceStats {
                fallback_victims: 0,
                ..*r
            };
            if injected.any() {
                return Err(SimError::InvariantViolated {
                    invariant: "no injection without a plan",
                    detail: injected.to_json().to_string(),
                    cycle: s.cycles,
                });
            }
        }
    }
    let broken = identities.into_iter().find(|&(_, a, rel, b)| match rel {
        Eq => a != b,
        AtMost => a > b,
        AtLeast => a < b,
    });
    let Some((invariant, a, rel, b)) = broken else {
        return Ok(());
    };
    let op = match rel {
        Eq => "!=",
        AtMost => ">",
        AtLeast => "<",
    };
    Err(SimError::InvariantViolated {
        invariant,
        detail: format!("{a} {op} {b}"),
        cycle: s.cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_zero_is_clamped_to_every_event() {
        let mut s = Sanitizer::new(0);
        assert_eq!(s.cadence(), 1);
        assert!(s.tick());
        assert!(s.tick());
        assert_eq!(s.checks_run(), 2);
        assert_eq!(s.events_seen(), 2);
    }

    #[test]
    fn default_uses_documented_cadence() {
        let s = Sanitizer::default();
        assert_eq!(s.cadence(), DEFAULT_SANITIZER_CADENCE);
        assert_eq!(s.checks_run(), 0);
    }

    #[test]
    fn final_check_counts_separately_from_cadence() {
        let mut s = Sanitizer::new(10);
        for _ in 0..5 {
            assert!(!s.tick());
        }
        s.note_final_check();
        assert_eq!(s.checks_run(), 1);
        assert_eq!(s.events_seen(), 5);
    }

    /// A run of 10 ops in 4 frames that keeps every identity: 11 L1
    /// lookups, 9 L2 lookups, 7 walks; 6 faults + 1 prefetch migrated,
    /// 3 evicted (one a fallback victim), one of each per-service
    /// injection and 18 lost completions under a 3-retry plan.
    fn consistent() -> SimStats {
        let mut s = SimStats {
            cycles: 500,
            mem_accesses: 10,
            walks: 7,
            walk_hits: 1,
            ..SimStats::default()
        };
        s.tlb.l1_hits = 2;
        s.tlb.l1_misses = 9;
        s.tlb.l2_hits = 2;
        s.tlb.l2_misses = 7;
        s.driver.faults_serviced = 6;
        s.driver.prefetched_pages = 1;
        s.driver.evictions = 3;
        s.resilience.fallback_victims = 1;
        s
    }

    fn injected(mut s: SimStats) -> SimStats {
        let r = &mut s.resilience;
        r.tail_latency_events = 1;
        r.congested_services = 1;
        r.faults_during_hir_outage = 1;
        r.spurious_wrong_evictions = 1;
        r.completions_lost = 18;
        s
    }

    fn broken(s: &SimStats, plan: Option<&FaultPlan>) -> Option<&'static str> {
        match audit(s, 10, 4, plan) {
            Ok(()) => None,
            Err(SimError::InvariantViolated {
                invariant, cycle, ..
            }) => {
                assert_eq!(cycle, 500);
                Some(invariant)
            }
            Err(e) => panic!("audit returned {e}"),
        }
    }

    #[test]
    fn audit_names_each_identity_broken_alone() {
        let plan = FaultPlan::completion_loss(1);
        assert_eq!(broken(&consistent(), None), None);
        assert_eq!(broken(&injected(consistent()), Some(&plan)), None);
        type Breaks = fn(&mut SimStats);
        let cases: [(&str, Breaks); 13] = [
            ("mem_accesses = ops", |s| s.mem_accesses = 9),
            ("L1 lookups >= ops", |s| s.tlb.l1_hits = 0),
            ("L2 lookups = L1 misses", |s| s.tlb.l2_hits = 3),
            ("walks = L2 misses", |s| s.walks = 8),
            ("walk hits <= walks", |s| s.walk_hits = 8),
            ("evicted <= migrated", |s| s.driver.evictions = 8),
            ("migrated - evicted <= capacity", |s| s.driver.evictions = 2),
            ("fallbacks <= evicted", |s| {
                s.resilience.fallback_victims = 4
            }),
            ("tail events <= faults", |s| {
                s.resilience.tail_latency_events = 7
            }),
            ("congested <= faults", |s| {
                s.resilience.congested_services = 7
            }),
            ("outage faults <= faults", |s| {
                s.resilience.faults_during_hir_outage = 7
            }),
            ("spurious <= faults", |s| {
                s.resilience.spurious_wrong_evictions = 7
            }),
            ("lost completions <= faults x retries", |s| {
                s.resilience.completions_lost = 19
            }),
        ];
        for (identity, breaks) in cases {
            let mut s = injected(consistent());
            breaks(&mut s);
            assert_eq!(broken(&s, Some(&plan)), Some(identity));
        }
    }

    #[test]
    fn audit_bounds_injection_by_whether_a_plan_was_set() {
        // Without a plan no injection counter may move; a fallback victim
        // on a clean run (a policy that offered none) is no injection.
        let mut s = consistent();
        s.resilience.congested_services = 1;
        assert_eq!(broken(&s, None), Some("no injection without a plan"));
        let err = audit(&s, 10, 4, None).unwrap_err().to_string();
        assert!(err.contains("\"congested_services\":1"), "{err}");
        // A completion-loss window loses every signal inside it, past
        // `max_completion_retries`.
        let mut s = injected(consistent());
        s.resilience.completions_lost = 1_000;
        let mut plan = FaultPlan::completion_loss(1);
        assert_eq!(
            broken(&s, Some(&plan)),
            Some("lost completions <= faults x retries")
        );
        plan.windows.push(crate::FaultWindow {
            family: FaultFamily::CompletionLoss,
            start: 0,
            width: 100,
        });
        assert_eq!(broken(&s, Some(&plan)), None);
        plan.windows.clear();
        plan.max_completion_retries = None;
        assert_eq!(broken(&s, Some(&plan)), None);
    }

    #[test]
    fn audit_error_states_the_identity_and_both_values() {
        let mut s = consistent();
        s.walks = 8;
        let err = audit(&s, 10, 4, None).unwrap_err().to_string();
        assert_eq!(
            err,
            "invariant `walks = L2 misses` violated at cycle 500: 8 != 7"
        );
    }
}
