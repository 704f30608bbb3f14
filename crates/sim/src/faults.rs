//! Seeded fault injection for chaos campaigns.
//!
//! A [`FaultPlan`] describes a replayable set of perturbations applied to
//! the engine while it runs: jittered and tail fault-service latency,
//! interconnect congestion windows that inflate transfer time, lost
//! fault-completion signals (retried by the driver, or never delivered —
//! a livelock the watchdog converts into [`uvm_types::SimError::Stalled`]),
//! GPU→driver HIR-channel outages, and spurious wrong-eviction reports.
//!
//! All randomness comes from one xoshiro256** stream seeded by
//! [`FaultPlan::seed`], and every draw is gated on its knob being enabled,
//! so two runs with the same plan perturb identically and the default
//! plan (no perturbation, no RNG draws) leaves the simulation
//! byte-identical to an uninstrumented run.
//!
//! # Examples
//!
//! ```
//! use uvm_sim::FaultPlan;
//!
//! let plan = FaultPlan::latency_storm(7);
//! plan.validate().unwrap();
//! assert!(!plan.is_noop());
//! assert!(FaultPlan::default().is_noop());
//! ```

use uvm_types::{ConfigError, ResilienceStats};
use uvm_util::{impl_json_enum, impl_json_struct, Rng};

/// The fault mechanism a deterministic [`FaultWindow`] activates.
///
/// Each family maps onto one of the plan's probabilistic knobs, but a
/// window fires the effect *unconditionally* while the simulation clock
/// is inside it — no RNG draw — so window placements can be enumerated
/// exhaustively by the exploration engine and two runs with the same
/// windows perturb identically regardless of seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultFamily {
    /// HIR-flush transfer cycles are multiplied by `congestion_factor`.
    Congestion,
    /// Every fault-completion signal is lost and re-queued after
    /// `retry_cycles` (or routed through the driver's retry policy).
    CompletionLoss,
    /// The GPU→driver HIR channel is down.
    HirOutage,
    /// Every serviced fault delivers a spurious wrong-eviction report.
    SpuriousSignal,
    /// Every service window delays the next HIR flush by
    /// `hir_delay_faults` in transit.
    FlushDelay,
    /// Every victim response from the policy is dropped in transit.
    VictimDrop,
    /// Every fault service is stretched by `tail_multiplier`.
    LatencyTail,
}

impl_json_enum!(FaultFamily {
    Congestion,
    CompletionLoss,
    HirOutage,
    SpuriousSignal,
    FlushDelay,
    VictimDrop,
    LatencyTail,
});

impl FaultFamily {
    /// All families in canonical (enumeration) order.
    pub const ALL: [FaultFamily; 7] = [
        FaultFamily::Congestion,
        FaultFamily::CompletionLoss,
        FaultFamily::HirOutage,
        FaultFamily::SpuriousSignal,
        FaultFamily::FlushDelay,
        FaultFamily::VictimDrop,
        FaultFamily::LatencyTail,
    ];

    /// Short kebab-case label for CLI flags and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            FaultFamily::Congestion => "congestion",
            FaultFamily::CompletionLoss => "completion-loss",
            FaultFamily::HirOutage => "hir-outage",
            FaultFamily::SpuriousSignal => "spurious-signal",
            FaultFamily::FlushDelay => "flush-delay",
            FaultFamily::VictimDrop => "victim-drop",
            FaultFamily::LatencyTail => "latency-tail",
        }
    }

    /// Parses a CLI label (inverse of [`Self::label`]).
    pub fn parse(s: &str) -> Option<Self> {
        FaultFamily::ALL.into_iter().find(|f| f.label() == s)
    }
}

/// A deterministic fault window on the simulation cycle axis: the
/// family's effect is active for every event with `start <= cycle <
/// start + width`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// Which fault mechanism the window activates.
    pub family: FaultFamily,
    /// First active cycle.
    pub start: u64,
    /// Width in cycles (must be nonzero; `start + width` is exclusive).
    pub width: u64,
}

impl_json_struct!(FaultWindow {
    family,
    start,
    width
});

impl FaultWindow {
    /// Whether `cycle` falls inside this window.
    pub fn contains(&self, cycle: u64) -> bool {
        cycle >= self.start && cycle - self.start < self.width
    }

    /// Exclusive end cycle (saturating).
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.width)
    }
}

/// A replayable fault-injection plan (all perturbations off by default).
///
/// Fields with probability semantics are fractions in `[0, 1]`; periods
/// of `0` disable their perturbation entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injection RNG stream.
    pub seed: u64,
    /// Uniform ±fraction applied to the base fault-service latency
    /// (e.g. `0.25` draws from `[0.75x, 1.25x]`). Must be in `[0, 1)`.
    pub latency_jitter: f64,
    /// Probability that one fault service lands in the latency tail.
    pub tail_probability: f64,
    /// Multiplier applied to the whole service time on a tail event.
    pub tail_multiplier: u64,
    /// Cycle length of the interconnect congestion square wave (0 = off).
    pub congestion_period: u64,
    /// Fraction of each congestion period that is congested.
    pub congestion_duty: f64,
    /// Multiplier on HIR-flush transfer cycles inside a congested window.
    pub congestion_factor: u64,
    /// Probability that a fault-completion signal is lost in transit and
    /// must be retried by the driver.
    pub completion_loss_probability: f64,
    /// Cycles between completion retries.
    pub retry_cycles: u64,
    /// Consecutive losses after which the completion finally gets
    /// through. `None` retries forever: an injected livelock that the
    /// forward-progress watchdog must convert into a typed error.
    pub max_completion_retries: Option<u32>,
    /// Fault-count length of the HIR-channel outage square wave (0 = off).
    pub hir_outage_period: u64,
    /// Fraction of each outage period during which the channel is down.
    pub hir_outage_duty: f64,
    /// Probability that a serviced fault additionally delivers a spurious
    /// (corrupted) wrong-eviction report to the policy.
    pub spurious_wrong_eviction_probability: f64,
    /// Probability that a fault-service window delays (rather than drops)
    /// the policy's next HIR flush in transit — the partial-outage mode.
    pub hir_delay_probability: f64,
    /// Delivery delay of a delayed HIR flush, in serviced faults. The
    /// policy applies flushes within its staleness bound and discards
    /// staler ones.
    pub hir_delay_faults: u64,
    /// Probability that one victim response from the policy is corrupted
    /// in transit: the engine discards the answer and evicts via its
    /// fallback victim instead.
    pub victim_drop_probability: f64,
    /// Deterministic fault windows on the cycle axis. Inside a window the
    /// family's effect fires unconditionally (no RNG draw), so window
    /// placements can be enumerated exhaustively. Windows of the *same*
    /// family must not overlap ([`Self::validate`] rejects them — they
    /// would silently compound); windows of different families may.
    pub windows: Vec<FaultWindow>,
}

impl_json_struct!(FaultPlan {
    seed = 0,
    latency_jitter = 0.0,
    tail_probability = 0.0,
    tail_multiplier = 1,
    congestion_period = 0,
    congestion_duty = 0.0,
    congestion_factor = 1,
    completion_loss_probability = 0.0,
    retry_cycles = 0,
    max_completion_retries = None,
    hir_outage_period = 0,
    hir_outage_duty = 0.0,
    spurious_wrong_eviction_probability = 0.0,
    hir_delay_probability = 0.0,
    hir_delay_faults = 0,
    victim_drop_probability = 0.0,
    windows = Vec::new(),
});

impl FaultPlan {
    /// Latency chaos: ±25% service jitter with a 1-in-50 8x tail.
    pub fn latency_storm(seed: u64) -> Self {
        FaultPlan {
            seed,
            latency_jitter: 0.25,
            tail_probability: 0.02,
            tail_multiplier: 8,
            ..Self::default()
        }
    }

    /// Interconnect congestion: half of every 2M-cycle window multiplies
    /// transfer time by 8.
    pub fn congestion(seed: u64) -> Self {
        FaultPlan {
            seed,
            congestion_period: 2_000_000,
            congestion_duty: 0.5,
            congestion_factor: 8,
            ..Self::default()
        }
    }

    /// Lossy completion channel: 5% of completions need a 10k-cycle retry,
    /// at most 3 in a row, so the driver always makes progress eventually.
    pub fn completion_loss(seed: u64) -> Self {
        FaultPlan {
            seed,
            completion_loss_probability: 0.05,
            retry_cycles: 10_000,
            max_completion_retries: Some(3),
            ..Self::default()
        }
    }

    /// Driver-signal chaos: the HIR channel is down for 40% of every
    /// 512-fault window and 2% of serviced faults deliver a spurious
    /// wrong-eviction report. Exercises HPE's degraded fallback.
    pub fn signal_chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            hir_outage_period: 512,
            hir_outage_duty: 0.4,
            spurious_wrong_eviction_probability: 0.02,
            ..Self::default()
        }
    }

    /// Partial outage: a quarter of fault-service windows delay the next
    /// HIR flush by 24 faults in transit. With HPE's default staleness
    /// bound (two transfer intervals = 32 faults) delayed flushes still
    /// apply — late, but not dropped.
    pub fn partial_outage(seed: u64) -> Self {
        FaultPlan {
            seed,
            hir_delay_probability: 0.25,
            hir_delay_faults: 24,
            ..Self::default()
        }
    }

    /// Corrupted victim responses: 5% of the policy's eviction answers
    /// are dropped in transit, forcing the engine onto its fallback
    /// victim (min-page or the LRU shadow).
    pub fn victim_drop(seed: u64) -> Self {
        FaultPlan {
            seed,
            victim_drop_probability: 0.05,
            ..Self::default()
        }
    }

    /// An injected livelock: every completion is lost and never retried
    /// successfully. The watchdog must report `SimError::Stalled`.
    pub fn livelock(seed: u64) -> Self {
        FaultPlan {
            seed,
            completion_loss_probability: 1.0,
            retry_cycles: 10_000,
            max_completion_retries: None,
            ..Self::default()
        }
    }

    /// Whether this plan perturbs nothing (equivalent to the default plan
    /// modulo the seed).
    pub fn is_noop(&self) -> bool {
        self.latency_jitter == 0.0
            && self.tail_probability == 0.0
            && self.congestion_period == 0
            && self.completion_loss_probability == 0.0
            && self.hir_outage_period == 0
            && self.spurious_wrong_eviction_probability == 0.0
            && self.hir_delay_probability == 0.0
            && self.victim_drop_probability == 0.0
            && self.windows.is_empty()
    }

    /// Whether any window of `family` is configured.
    pub fn has_window(&self, family: FaultFamily) -> bool {
        self.windows.iter().any(|w| w.family == family)
    }

    /// Whether `cycle` falls inside a window of `family`.
    pub fn in_family_window(&self, family: FaultFamily, cycle: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.family == family && w.contains(cycle))
    }

    /// Whether the HIR channel is injected-down at fault number
    /// `fault_num` and cycle `now` (square wave OR any
    /// [`FaultFamily::HirOutage`] window).
    pub fn hir_down_at(&self, fault_num: u64, now: u64) -> bool {
        in_window(fault_num, self.hir_outage_period, self.hir_outage_duty)
            || self.in_family_window(FaultFamily::HirOutage, now)
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first offending knob.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn probability(name: &'static str, p: f64) -> Result<(), ConfigError> {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::invalid(name, "must be a fraction in [0, 1]"));
            }
            Ok(())
        }
        if !self.latency_jitter.is_finite() || !(0.0..1.0).contains(&self.latency_jitter) {
            return Err(ConfigError::invalid(
                "latency_jitter",
                "must be a fraction in [0, 1)",
            ));
        }
        probability("tail_probability", self.tail_probability)?;
        probability("congestion_duty", self.congestion_duty)?;
        probability(
            "completion_loss_probability",
            self.completion_loss_probability,
        )?;
        probability("hir_outage_duty", self.hir_outage_duty)?;
        probability(
            "spurious_wrong_eviction_probability",
            self.spurious_wrong_eviction_probability,
        )?;
        probability("hir_delay_probability", self.hir_delay_probability)?;
        probability("victim_drop_probability", self.victim_drop_probability)?;
        if self.tail_probability > 0.0 && self.tail_multiplier < 2 {
            return Err(ConfigError::invalid(
                "tail_multiplier",
                "must be at least 2 when tail_probability is nonzero",
            ));
        }
        if self.congestion_period > 0 && self.congestion_factor < 2 {
            return Err(ConfigError::invalid(
                "congestion_factor",
                "must be at least 2 when congestion is enabled",
            ));
        }
        if self.completion_loss_probability > 0.0 && self.retry_cycles == 0 {
            return Err(ConfigError::invalid(
                "retry_cycles",
                "must be nonzero when completions can be lost",
            ));
        }
        if self.congestion_period > 0
            && (self.congestion_period as f64 * self.congestion_duty) < 1.0
        {
            return Err(ConfigError::invalid(
                "congestion_duty",
                "congested window rounds to zero cycles; raise congestion_duty \
                 (or congestion_period) so period * duty is at least 1, or set \
                 congestion_period to 0 to disable congestion",
            ));
        }
        if self.hir_outage_period > 0
            && (self.hir_outage_period as f64 * self.hir_outage_duty) < 1.0
        {
            return Err(ConfigError::invalid(
                "hir_outage_duty",
                "outage window rounds to zero faults; raise hir_outage_duty \
                 (or hir_outage_period) so period * duty is at least 1, or set \
                 hir_outage_period to 0 to disable outages",
            ));
        }
        if self.hir_delay_probability > 0.0 && self.hir_delay_faults == 0 {
            return Err(ConfigError::invalid(
                "hir_delay_faults",
                "must be nonzero when hir_delay_probability is nonzero (a \
                 zero-fault delay would be indistinguishable from no delay)",
            ));
        }
        self.validate_windows()
    }

    /// Window-specific validation: nonzero widths, knobs the windowed
    /// effect depends on, and no same-family overlap.
    fn validate_windows(&self) -> Result<(), ConfigError> {
        for (i, w) in self.windows.iter().enumerate() {
            if w.width == 0 {
                return Err(ConfigError::invalid(
                    "windows",
                    format!(
                        "window {i} ({}) has zero width; a window must cover at \
                         least one cycle or be removed",
                        w.family.label()
                    ),
                ));
            }
        }
        if self.has_window(FaultFamily::Congestion) && self.congestion_factor < 2 {
            return Err(ConfigError::invalid(
                "congestion_factor",
                "must be at least 2 when a congestion window is configured",
            ));
        }
        if self.has_window(FaultFamily::LatencyTail) && self.tail_multiplier < 2 {
            return Err(ConfigError::invalid(
                "tail_multiplier",
                "must be at least 2 when a latency-tail window is configured",
            ));
        }
        if self.has_window(FaultFamily::CompletionLoss) && self.retry_cycles == 0 {
            return Err(ConfigError::invalid(
                "retry_cycles",
                "must be nonzero when a completion-loss window is configured \
                 (lost completions are re-queued after retry_cycles)",
            ));
        }
        if self.has_window(FaultFamily::FlushDelay) && self.hir_delay_faults == 0 {
            return Err(ConfigError::invalid(
                "hir_delay_faults",
                "must be nonzero when a flush-delay window is configured",
            ));
        }
        // Same-family windows must not overlap: inside an overlap the
        // effect would silently compound (e.g. congestion applied twice),
        // which makes exhaustive enumeration and shrinking unsound.
        // Touching windows (end == start) are fine.
        for family in FaultFamily::ALL {
            let mut spans: Vec<(usize, &FaultWindow)> = self
                .windows
                .iter()
                .enumerate()
                .filter(|(_, w)| w.family == family)
                .collect();
            spans.sort_by_key(|(_, w)| (w.start, w.width));
            for pair in spans.windows(2) {
                let (i, a) = pair[0];
                let (j, b) = pair[1];
                if a.end() > b.start {
                    return Err(ConfigError::invalid(
                        "windows",
                        format!(
                            "windows {i} and {j} of family {} overlap \
                             ([{}, {}) vs [{}, {})): their effects would \
                             silently compound; merge them into one window \
                             or separate their cycle ranges",
                            family.label(),
                            a.start,
                            a.end(),
                            b.start,
                            b.end()
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Whether position `at` of a square wave with `period` and `duty` is in
/// the active (perturbed) part of the wave.
fn in_window(at: u64, period: u64, duty: f64) -> bool {
    if period == 0 {
        return false;
    }
    let active = (period as f64 * duty) as u64;
    (at % period) < active
}

/// Runtime state of an active fault plan (one per simulation).
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: Rng,
    /// Consecutive completion losses for the in-service fault.
    lost_in_row: u32,
    /// Mirror of the injected HIR-channel state the policy was last told.
    pub(crate) hir_down: bool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = Rng::seed_from_u64(plan.seed);
        FaultState {
            plan,
            rng,
            lost_in_row: 0,
            hir_down: false,
        }
    }

    /// The plan this state injects.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Perturbs one fault service: returns the adjusted `(service,
    /// transfer)` cycle counts and records what was injected.
    pub(crate) fn perturb_service(
        &mut self,
        base_service: u64,
        transfer: u64,
        now: u64,
        res: &mut ResilienceStats,
    ) -> (u64, u64) {
        let mut service = base_service;
        let mut out_transfer = transfer;
        if self.plan.latency_jitter > 0.0 {
            // Uniform in [1 - j, 1 + j); drawn even when the fault carries
            // no transfer so the stream depends only on the fault sequence.
            let f = 2.0 * self.rng.gen_f64() - 1.0;
            let scaled = base_service as f64 * (1.0 + f * self.plan.latency_jitter);
            service = scaled.max(1.0) as u64;
        }
        if self.plan.tail_probability > 0.0 && self.rng.gen_bool(self.plan.tail_probability) {
            service = service.saturating_mul(self.plan.tail_multiplier);
            res.tail_latency_events += 1;
        } else if self.plan.in_family_window(FaultFamily::LatencyTail, now) {
            // Deterministic tail window: fires unconditionally, but never
            // stacks on top of a probabilistic tail already drawn.
            service = service.saturating_mul(self.plan.tail_multiplier);
            res.tail_latency_events += 1;
        }
        if in_window(now, self.plan.congestion_period, self.plan.congestion_duty)
            || self.plan.in_family_window(FaultFamily::Congestion, now)
        {
            out_transfer = out_transfer.saturating_mul(self.plan.congestion_factor);
            res.congested_services += 1;
        }
        let clean = base_service + transfer;
        let injected = (service + out_transfer).saturating_sub(clean);
        res.injected_delay_cycles += injected;
        (service, out_transfer)
    }

    /// Steps the HIR-outage state at fault number `fault_count` and cycle
    /// `now` (square wave OR outage window); returns `Some(down)` when
    /// the channel state just changed.
    pub(crate) fn hir_transition(&mut self, fault_count: u64, now: u64) -> Option<bool> {
        let down = self.plan.hir_down_at(fault_count, now);
        if down == self.hir_down {
            return None;
        }
        self.hir_down = down;
        Some(down)
    }

    /// Whether an effect of `family` with probability `p` fires at cycle
    /// `now`: always inside one of the family's windows (no draw), else
    /// by one RNG draw, made only when `p` is nonzero.
    fn fires(&mut self, family: FaultFamily, p: f64, now: u64) -> bool {
        self.plan.in_family_window(family, now) || (p > 0.0 && self.rng.gen_bool(p))
    }

    /// Whether this serviced fault also delivers a spurious wrong-eviction
    /// report.
    pub(crate) fn spurious_wrong_eviction(&mut self, now: u64, res: &mut ResilienceStats) -> bool {
        let p = self.plan.spurious_wrong_eviction_probability;
        let fired = self.fires(FaultFamily::SpuriousSignal, p, now);
        res.spurious_wrong_evictions += u64::from(fired);
        fired
    }

    /// Whether this fault-service window delays the policy's next HIR
    /// flush in transit (partial outage); returns the delay in faults.
    pub(crate) fn flush_delay(&mut self, now: u64, res: &mut ResilienceStats) -> Option<u64> {
        let p = self.plan.hir_delay_probability;
        let fired = self.fires(FaultFamily::FlushDelay, p, now);
        res.delayed_hir_flushes += u64::from(fired);
        fired.then_some(self.plan.hir_delay_faults)
    }

    /// Whether one victim response from the policy is corrupted in
    /// transit, forcing the engine onto its fallback victim.
    pub(crate) fn victim_dropped(&mut self, now: u64, res: &mut ResilienceStats) -> bool {
        let fired = self.fires(
            FaultFamily::VictimDrop,
            self.plan.victim_drop_probability,
            now,
        );
        res.victims_dropped += u64::from(fired);
        fired
    }

    /// Whether this plan can drop victim responses at all. When it can,
    /// the engine tolerates stale (non-resident) victim offers — an
    /// expected after-effect of a drop — instead of treating them as a
    /// policy bug.
    pub(crate) fn drops_victims(&self) -> bool {
        self.plan.victim_drop_probability > 0.0 || self.plan.has_window(FaultFamily::VictimDrop)
    }

    /// Checkpoint fingerprint: the RNG words and the loss streak. Both
    /// are replayed on resume; recording them lets the resumed run prove
    /// it reached the identical stream position.
    pub(crate) fn fingerprint(&self) -> ([u64; 4], u32) {
        (self.rng.state(), self.lost_in_row)
    }

    /// Decides the fate of a fault-completion signal at cycle `now`.
    /// Returns `Some(retry_delay)` when the signal was lost and the
    /// driver must retry after that many cycles; `None` delivers it.
    pub(crate) fn completion_lost(&mut self, now: u64, res: &mut ResilienceStats) -> Option<u64> {
        // A completion-loss window is absolute: every signal inside it is
        // lost (no RNG draw, `max_completion_retries` does not apply).
        // The driver escapes once its cumulative backoff carries the
        // retry past the window's end — or its retry policy gives up.
        if self.plan.in_family_window(FaultFamily::CompletionLoss, now) {
            res.completions_lost += 1;
            return Some(self.plan.retry_cycles);
        }
        let p = self.plan.completion_loss_probability;
        if p == 0.0 {
            return None;
        }
        if let Some(max) = self.plan.max_completion_retries {
            if self.lost_in_row >= max {
                self.lost_in_row = 0;
                return None;
            }
        }
        if self.rng.gen_bool(p) {
            self.lost_in_row += 1;
            res.completions_lost += 1;
            return Some(self.plan.retry_cycles);
        }
        self.lost_in_row = 0;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_util::{FromJson, ToJson};

    #[test]
    fn noop_plan_draws_nothing_and_changes_nothing() {
        let mut st = FaultState::new(FaultPlan::default());
        let mut res = ResilienceStats::default();
        for now in [0u64, 1_000, 2_000_000] {
            assert_eq!(
                st.perturb_service(28_000, 512, now, &mut res),
                (28_000, 512)
            );
            assert_eq!(st.hir_transition(now, now), None);
            assert!(!st.spurious_wrong_eviction(now, &mut res));
            assert_eq!(st.completion_lost(now, &mut res), None);
        }
        assert!(!res.any());
    }

    #[test]
    fn identical_seeds_perturb_identically() {
        let mut a = FaultState::new(FaultPlan::latency_storm(99));
        let mut b = FaultState::new(FaultPlan::latency_storm(99));
        let (mut ra, mut rb) = (ResilienceStats::default(), ResilienceStats::default());
        for i in 0..500u64 {
            assert_eq!(
                a.perturb_service(28_000, 64, i * 31, &mut ra),
                b.perturb_service(28_000, 64, i * 31, &mut rb),
            );
        }
        assert_eq!(ra, rb);
        assert!(ra.injected_delay_cycles > 0 || ra.tail_latency_events > 0);
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let mut st = FaultState::new(FaultPlan {
            seed: 5,
            latency_jitter: 0.25,
            ..FaultPlan::default()
        });
        let mut res = ResilienceStats::default();
        for i in 0..1_000u64 {
            let (service, transfer) = st.perturb_service(28_000, 0, i, &mut res);
            assert!((21_000..28_000 + 7_000).contains(&service), "{service}");
            assert_eq!(transfer, 0);
        }
    }

    #[test]
    fn congestion_multiplies_transfer_inside_window_only() {
        let mut st = FaultState::new(FaultPlan::congestion(1));
        let mut res = ResilienceStats::default();
        // Duty 0.5 over 2M cycles: the first 1M are congested.
        let (s, t) = st.perturb_service(28_000, 100, 0, &mut res);
        assert_eq!((s, t), (28_000, 800));
        let (s, t) = st.perturb_service(28_000, 100, 1_500_000, &mut res);
        assert_eq!((s, t), (28_000, 100));
        assert_eq!(res.congested_services, 1);
        assert_eq!(res.injected_delay_cycles, 700);
    }

    #[test]
    fn outage_wave_reports_transitions_once() {
        let mut st = FaultState::new(FaultPlan::signal_chaos(2));
        // Period 512, duty 0.4: faults 0..204 down, 205..511 up.
        assert_eq!(st.hir_transition(0, 0), Some(true));
        assert_eq!(st.hir_transition(100, 0), None);
        assert_eq!(st.hir_transition(204, 0), Some(false));
        assert_eq!(st.hir_transition(400, 0), None);
        assert_eq!(st.hir_transition(512, 0), Some(true));
    }

    #[test]
    fn bounded_completion_loss_always_delivers_eventually() {
        let mut st = FaultState::new(FaultPlan {
            seed: 3,
            completion_loss_probability: 1.0,
            retry_cycles: 10,
            max_completion_retries: Some(3),
            ..FaultPlan::default()
        });
        let mut res = ResilienceStats::default();
        let mut delivered = 0;
        let mut attempts = 0;
        while delivered < 5 {
            attempts += 1;
            if st.completion_lost(0, &mut res).is_none() {
                delivered += 1;
            }
            assert!(attempts <= 5 * 4, "must deliver every 4th attempt");
        }
        assert_eq!(res.completions_lost, 15);
    }

    #[test]
    fn unbounded_loss_never_delivers() {
        let mut st = FaultState::new(FaultPlan::livelock(4));
        let mut res = ResilienceStats::default();
        for _ in 0..100 {
            assert_eq!(st.completion_lost(0, &mut res), Some(10_000));
        }
        assert_eq!(res.completions_lost, 100);
    }

    #[test]
    fn presets_validate_and_none_is_noop() {
        for plan in [
            FaultPlan::default(),
            FaultPlan::latency_storm(1),
            FaultPlan::congestion(1),
            FaultPlan::completion_loss(1),
            FaultPlan::signal_chaos(1),
            FaultPlan::partial_outage(1),
            FaultPlan::victim_drop(1),
            FaultPlan::livelock(1),
        ] {
            plan.validate().unwrap();
        }
        assert!(FaultPlan::default().is_noop());
        assert!(!FaultPlan::signal_chaos(1).is_noop());
        assert!(!FaultPlan::partial_outage(1).is_noop());
        assert!(!FaultPlan::victim_drop(1).is_noop());
    }

    #[test]
    fn flush_delay_draws_only_when_enabled() {
        let mut st = FaultState::new(FaultPlan::default());
        let mut res = ResilienceStats::default();
        for _ in 0..100 {
            assert_eq!(st.flush_delay(0, &mut res), None);
        }
        assert!(!st.drops_victims());

        let mut st = FaultState::new(FaultPlan {
            seed: 7,
            hir_delay_probability: 1.0,
            hir_delay_faults: 24,
            ..FaultPlan::default()
        });
        for _ in 0..10 {
            assert_eq!(st.flush_delay(0, &mut res), Some(24));
        }
        assert_eq!(res.delayed_hir_flushes, 10);
    }

    #[test]
    fn victim_drops_are_counted_and_flagged() {
        let mut st = FaultState::new(FaultPlan::victim_drop(8));
        assert!(st.drops_victims());
        let mut res = ResilienceStats::default();
        let drops = (0..2_000)
            .filter(|_| st.victim_dropped(0, &mut res))
            .count() as u64;
        // 5% of 2000 draws: far from zero, far from certain.
        assert!(drops > 0, "p=0.05 over 2000 draws must drop something");
        assert!(drops < 500, "p=0.05 cannot drop a quarter of responses");
        assert_eq!(res.victims_dropped, drops);
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let d = FaultPlan::default;
        for p in [
            FaultPlan {
                latency_jitter: 1.0,
                ..d()
            },
            FaultPlan {
                tail_probability: 1.5,
                ..d()
            },
            FaultPlan {
                tail_probability: 0.1,
                tail_multiplier: 1,
                ..d()
            },
            FaultPlan {
                congestion_period: 100,
                congestion_factor: 1,
                ..d()
            },
            FaultPlan {
                completion_loss_probability: 0.5,
                retry_cycles: 0,
                ..d()
            },
            FaultPlan {
                hir_outage_duty: f64::NAN,
                ..d()
            },
            FaultPlan {
                hir_delay_probability: 0.2,
                hir_delay_faults: 0,
                ..d()
            },
            FaultPlan {
                victim_drop_probability: -0.1,
                ..d()
            },
        ] {
            assert!(p.validate().is_err(), "{p:?}");
        }
    }

    #[test]
    fn validate_rejects_zero_width_windows_with_actionable_messages() {
        // A 1%-duty window over 50 cycles rounds to zero congested
        // cycles: the plan would look active but inject nothing.
        let mut p = FaultPlan::congestion(1);
        p.congestion_period = 50;
        p.congestion_duty = 0.01;
        let msg = p.validate().unwrap_err().to_string();
        assert!(msg.contains("congestion_duty"), "{msg}");
        assert!(msg.contains("rounds to zero"), "{msg}");

        let mut p = FaultPlan::signal_chaos(1);
        p.hir_outage_period = 2;
        p.hir_outage_duty = 0.1;
        let msg = p.validate().unwrap_err().to_string();
        assert!(msg.contains("hir_outage_duty"), "{msg}");
        assert!(msg.contains("rounds to zero"), "{msg}");
    }

    fn window(family: FaultFamily, start: u64, width: u64) -> FaultWindow {
        FaultWindow {
            family,
            start,
            width,
        }
    }

    #[test]
    fn family_labels_roundtrip() {
        for f in FaultFamily::ALL {
            assert_eq!(FaultFamily::parse(f.label()), Some(f));
        }
        assert_eq!(FaultFamily::parse("nope"), None);
    }

    #[test]
    fn windowed_effects_fire_inside_window_only_without_rng_draws() {
        let plan = FaultPlan {
            tail_multiplier: 4,
            congestion_factor: 8,
            retry_cycles: 500,
            hir_delay_faults: 24,
            windows: vec![
                window(FaultFamily::Congestion, 1_000, 100),
                window(FaultFamily::LatencyTail, 2_000, 100),
                window(FaultFamily::CompletionLoss, 3_000, 100),
                window(FaultFamily::SpuriousSignal, 4_000, 100),
                window(FaultFamily::FlushDelay, 5_000, 100),
                window(FaultFamily::VictimDrop, 6_000, 100),
                window(FaultFamily::HirOutage, 7_000, 100),
            ],
            ..FaultPlan::default()
        };
        plan.validate().unwrap();
        assert!(!plan.is_noop());
        let mut st = FaultState::new(plan);
        assert!(st.drops_victims());
        let mut res = ResilienceStats::default();

        // Congestion: transfer x8 inside [1000, 1100), untouched outside.
        assert_eq!(st.perturb_service(100, 10, 1_050, &mut res), (100, 80));
        assert_eq!(st.perturb_service(100, 10, 1_100, &mut res), (100, 10));
        // Latency tail: service x4 inside [2000, 2100).
        assert_eq!(st.perturb_service(100, 10, 2_000, &mut res), (400, 10));
        // Completion loss: absolute inside the window.
        assert_eq!(st.completion_lost(3_050, &mut res), Some(500));
        assert_eq!(st.completion_lost(3_100, &mut res), None);
        // Spurious signal / flush delay / victim drop.
        assert!(st.spurious_wrong_eviction(4_000, &mut res));
        assert!(!st.spurious_wrong_eviction(4_100, &mut res));
        assert_eq!(st.flush_delay(5_099, &mut res), Some(24));
        assert_eq!(st.flush_delay(5_100, &mut res), None);
        assert!(st.victim_dropped(6_000, &mut res));
        assert!(!st.victim_dropped(6_100, &mut res));
        // HIR outage window flips the channel on the cycle axis.
        assert_eq!(st.hir_transition(0, 7_000), Some(true));
        assert_eq!(st.hir_transition(0, 7_099), None);
        assert_eq!(st.hir_transition(0, 7_100), Some(false));

        // Deterministic windows draw nothing: the RNG stream is untouched,
        // so a replay perturbs identically.
        let (rng_state, _) = st.fingerprint();
        assert_eq!(rng_state, Rng::seed_from_u64(0).state());
        assert_eq!(res.completions_lost, 1);
        assert_eq!(res.congested_services, 1);
        assert_eq!(res.tail_latency_events, 1);
        assert_eq!(res.spurious_wrong_evictions, 1);
        assert_eq!(res.delayed_hir_flushes, 1);
        assert_eq!(res.victims_dropped, 1);
    }

    #[test]
    fn validate_rejects_overlapping_same_family_windows() {
        // Plain overlap.
        let mut p = FaultPlan {
            congestion_factor: 4,
            windows: vec![
                window(FaultFamily::Congestion, 100, 50),
                window(FaultFamily::Congestion, 120, 50),
            ],
            ..FaultPlan::default()
        };
        let msg = p.validate().unwrap_err().to_string();
        assert!(msg.contains("overlap"), "{msg}");
        assert!(msg.contains("congestion"), "{msg}");
        assert!(msg.contains("windows 0 and 1"), "{msg}");
        assert!(msg.contains("[100, 150)"), "{msg}");

        // One-cycle overlap at the boundary (end > start by exactly 1).
        p.windows = vec![
            window(FaultFamily::Congestion, 100, 51),
            window(FaultFamily::Congestion, 150, 10),
        ];
        assert!(p.validate().is_err(), "end 151 > start 150 must overlap");

        // Touching windows (end == start) are legal.
        p.windows = vec![
            window(FaultFamily::Congestion, 100, 50),
            window(FaultFamily::Congestion, 150, 10),
        ];
        p.validate().unwrap();

        // Identical spans of the same family overlap.
        p.windows = vec![
            window(FaultFamily::Congestion, 100, 50),
            window(FaultFamily::Congestion, 100, 50),
        ];
        assert!(p.validate().is_err(), "identical windows must be rejected");

        // A window nested inside another overlaps even though it starts
        // later and ends earlier.
        p.windows = vec![
            window(FaultFamily::Congestion, 100, 100),
            window(FaultFamily::Congestion, 130, 10),
        ];
        assert!(p.validate().is_err(), "nested windows must be rejected");

        // Unsorted declaration order is still caught (validation sorts).
        p.windows = vec![
            window(FaultFamily::Congestion, 120, 50),
            window(FaultFamily::Congestion, 100, 50),
        ];
        assert!(p.validate().is_err(), "overlap found regardless of order");

        // Same spans across *different* families are legal.
        p.retry_cycles = 500;
        p.windows = vec![
            window(FaultFamily::Congestion, 100, 50),
            window(FaultFamily::CompletionLoss, 100, 50),
        ];
        p.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_window_knob_couplings() {
        let only = |w: FaultWindow| FaultPlan {
            windows: vec![w],
            ..FaultPlan::default()
        };
        let msg = only(window(FaultFamily::Congestion, 0, 0)).validate();
        let msg = msg.unwrap_err().to_string();
        assert!(msg.contains("zero width"), "{msg}");

        let p = only(window(FaultFamily::Congestion, 0, 10));
        assert!(p.validate().is_err(), "factor 1 congestion window");

        let p = only(window(FaultFamily::LatencyTail, 0, 10));
        assert!(p.validate().is_err(), "multiplier 1 tail window");

        let p = only(window(FaultFamily::CompletionLoss, 0, 10));
        let msg = p.validate().unwrap_err().to_string();
        assert!(msg.contains("retry_cycles"), "{msg}");

        let p = only(window(FaultFamily::FlushDelay, 0, 10));
        let msg = p.validate().unwrap_err().to_string();
        assert!(msg.contains("hir_delay_faults"), "{msg}");
    }

    #[test]
    fn windowed_plan_json_roundtrip() {
        let plan = FaultPlan {
            retry_cycles: 500,
            windows: vec![
                window(FaultFamily::CompletionLoss, 1_000_000, 400_000),
                window(FaultFamily::HirOutage, 0, 65_536),
            ],
            ..FaultPlan::default()
        };
        let text = plan.to_json().to_string();
        let back = FaultPlan::from_json(&uvm_util::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn json_roundtrip_and_sparse_defaults() {
        let plan = FaultPlan::completion_loss(42);
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);

        let sparse = uvm_util::Json::parse(r#"{"seed": 9, "latency_jitter": 0.1}"#).unwrap();
        let p = FaultPlan::from_json(&sparse).unwrap();
        assert_eq!(p.seed, 9);
        assert!((p.latency_jitter - 0.1).abs() < 1e-12);
        assert_eq!(p.congestion_period, 0);
        assert_eq!(p.max_completion_retries, None);
    }

    #[test]
    fn strict_parse_flags_unknown_and_misspelled_fields() {
        // Top-level misspelling gets a suggestion.
        let v = uvm_util::Json::parse(r#"{"seeed": 9}"#).unwrap();
        let err = FaultPlan::from_json(&v).unwrap_err().to_string();
        assert!(err.contains("seeed"), "{err}");
        assert!(err.contains("seed"), "{err}");
        // Misspellings inside window entries name the exact element.
        let v = uvm_util::Json::parse(
            r#"{"windows": [{"family": "Congestion", "start": 0, "widht": 5}]}"#,
        )
        .unwrap();
        let err = FaultPlan::from_json(&v).unwrap_err().to_string();
        assert!(err.contains("windows[0].widht"), "{err}");
        assert!(err.contains("width"), "{err}");
        // Valid sparse input still parses.
        let v = uvm_util::Json::parse(r#"{"seed": 9}"#).unwrap();
        assert_eq!(FaultPlan::from_json(&v).unwrap().seed, 9);
    }
}
