//! Driver-side recovery machinery: completion retry with exponential
//! backoff, the HIR circuit breaker, and the engine's approximate-LRU
//! shadow for fallback evictions.
//!
//! The pieces here model how a hardened UVM driver reacts to the failures
//! the fault plan injects, instead of livelocking or silently degrading:
//!
//! * [`RetryPolicy`] replaces the plan's flat re-queue delay for lost
//!   fault completions with a bounded exponential-backoff schedule; when
//!   the attempt cap is hit the engine reports
//!   [`uvm_types::SimError::RetriesExhausted`] instead of spinning until
//!   the watchdog fires. The [`RetryPolicy::Adaptive`] mode additionally
//!   tunes the backoff base online from the observed completion-loss
//!   rate (a windowed [`LossEstimator`] the engine feeds with every
//!   completion outcome).
//! * [`CircuitBreaker`] counts HIR flushes lost in transit during a
//!   channel outage and trips once the loss is clearly not transient, so
//!   the GPU side can stop paying PCIe cycles for flushes that never
//!   arrive.
//! * [`LruShadow`] is a cheap engine-side recency map, giving the
//!   fallback-eviction path an approximate-LRU victim instead of the
//!   deterministic-but-arbitrary minimum page id.
//!
//! [`Resilience`] owns all of it, plus the fault plan's runtime state,
//! and is the engine's one seam to injection and recovery.
//!
//! # Examples
//!
//! ```
//! use uvm_sim::RetryPolicy;
//!
//! let rp = RetryPolicy::default();
//! rp.validate().unwrap();
//! assert!(rp.delay_for(1) < rp.delay_for(3));
//! assert!(rp.delay_for(60) <= rp.backoff().max_delay_cycles);
//! ```

use uvm_policies::EvictionPolicy;
use uvm_types::{ConfigError, PageId, PageMap, ResilienceStats, SignalDisruption, SimError};
use uvm_util::strict::reject_unknown_keys;
use uvm_util::{impl_json_struct, json, FromJson, Json, JsonError, ToJson};

use crate::checkpoint::Checkpoint;
use crate::faults::{FaultPlan, FaultState};
use crate::memory::GpuMemory;

/// The exponential-backoff schedule shared by both retry modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry, in cycles.
    pub base_delay_cycles: u64,
    /// Multiplier applied to the delay after each consecutive loss.
    pub multiplier: u64,
    /// Upper bound on any single backoff delay.
    pub max_delay_cycles: u64,
    /// Consecutive losses tolerated before the driver gives up with
    /// [`uvm_types::SimError::RetriesExhausted`].
    pub max_attempts: u32,
}

impl_json_struct!(Backoff {
    base_delay_cycles = 2_000,
    multiplier = 2,
    max_delay_cycles = 64_000,
    max_attempts = 8,
});

impl Backoff {
    /// The backoff delay before retry number `attempt` (1-based):
    /// `base * multiplier^(attempt-1)`, saturating, capped at
    /// [`Backoff::max_delay_cycles`].
    pub fn delay_for(&self, attempt: u32) -> u64 {
        self.delay_from(self.base_delay_cycles, attempt)
    }

    /// The same schedule but starting from an elevated `base` (the
    /// adaptive mode raises the base toward the cap as observed loss
    /// grows).
    fn delay_from(&self, base: u64, attempt: u32) -> u64 {
        let mut delay = base;
        for _ in 1..attempt {
            delay = delay.saturating_mul(self.multiplier);
            if delay >= self.max_delay_cycles {
                return self.max_delay_cycles;
            }
        }
        delay.min(self.max_delay_cycles)
    }

    /// Validates the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first offending knob.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.base_delay_cycles == 0 {
            return Err(ConfigError::invalid(
                "base_delay_cycles",
                "must be nonzero (a zero-delay retry would re-fire in the same cycle)",
            ));
        }
        if self.multiplier < 2 {
            return Err(ConfigError::invalid(
                "multiplier",
                "must be at least 2 for an exponential backoff",
            ));
        }
        if self.max_delay_cycles < self.base_delay_cycles {
            return Err(ConfigError::invalid(
                "max_delay_cycles",
                "must be at least base_delay_cycles",
            ));
        }
        if self.max_attempts == 0 {
            return Err(ConfigError::invalid(
                "max_attempts",
                "must be nonzero (zero attempts could never deliver a completion)",
            ));
        }
        Ok(())
    }
}

/// Loss-adaptive backoff: the schedule's base delay is raised online in
/// proportion to the completion-loss rate observed over the last
/// [`AdaptiveBackoff::loss_window`] completions.
///
/// With `lost` of `observed` recent completions lost in transit, the
/// effective base is `base + (max - base) * lost / observed` (integer
/// math, no floats), so a loss-free channel retries as eagerly as
/// [`RetryPolicy::Fixed`] while a lossy one backs off toward the cap
/// immediately instead of climbing there one attempt at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBackoff {
    /// The underlying schedule (bounds and attempt cap).
    pub backoff: Backoff,
    /// How many recent completion outcomes feed the loss estimate
    /// (1..=64: the estimator keeps them in a 64-bit ring).
    pub loss_window: u32,
}

impl Default for AdaptiveBackoff {
    fn default() -> Self {
        AdaptiveBackoff {
            backoff: Backoff::default(),
            loss_window: 32,
        }
    }
}

impl AdaptiveBackoff {
    /// The delay before retry number `attempt` (1-based) given `lost`
    /// losses among the last `observed` completion outcomes.
    pub fn delay_for(&self, attempt: u32, lost: u32, observed: u32) -> u64 {
        let b = &self.backoff;
        let base = if observed == 0 {
            b.base_delay_cycles
        } else {
            let span = b.max_delay_cycles.saturating_sub(b.base_delay_cycles);
            let lost = u64::from(lost.min(observed));
            b.base_delay_cycles + span.saturating_mul(lost) / u64::from(observed)
        };
        b.delay_from(base, attempt)
    }

    /// Validates the schedule and the estimator window.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first offending knob.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.backoff.validate()?;
        if self.loss_window == 0 || self.loss_window > 64 {
            return Err(ConfigError::invalid(
                "loss_window",
                "must be in 1..=64 (the loss estimator keeps outcomes in a 64-bit ring)",
            ));
        }
        Ok(())
    }
}

/// How the driver retries a lost fault-completion signal.
///
/// Installed with `Simulation::set_resilience`. Without one, a lost
/// completion is re-queued after the fault plan's flat `retry_cycles`
/// forever (the pre-recovery behavior, where an unbounded loss becomes a
/// watchdog [`uvm_types::SimError::Stalled`]).
///
/// JSON carries a `"mode"` tag (`"fixed"` / `"adaptive"`) next to the
/// flat [`Backoff`] fields; documents without the tag (pre-adaptive
/// snapshots) parse as [`RetryPolicy::Fixed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// A static exponential-backoff schedule.
    Fixed(Backoff),
    /// Backoff whose base tracks the observed completion-loss rate.
    Adaptive(AdaptiveBackoff),
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::Fixed(Backoff::default())
    }
}

impl RetryPolicy {
    /// The default loss-adaptive policy.
    pub fn adaptive() -> Self {
        RetryPolicy::Adaptive(AdaptiveBackoff::default())
    }

    /// The underlying backoff schedule of either mode.
    pub fn backoff(&self) -> Backoff {
        match self {
            RetryPolicy::Fixed(b) => *b,
            RetryPolicy::Adaptive(a) => a.backoff,
        }
    }

    /// Consecutive losses tolerated before
    /// [`uvm_types::SimError::RetriesExhausted`].
    pub fn max_attempts(&self) -> u32 {
        self.backoff().max_attempts
    }

    /// The estimator window, when the policy is adaptive.
    pub fn loss_window(&self) -> Option<u32> {
        match self {
            RetryPolicy::Fixed(_) => None,
            RetryPolicy::Adaptive(a) => Some(a.loss_window),
        }
    }

    /// Short mode label for reports and CLI flags.
    pub fn mode_label(&self) -> &'static str {
        match self {
            RetryPolicy::Fixed(_) => "fixed",
            RetryPolicy::Adaptive(_) => "adaptive",
        }
    }

    /// The static schedule's delay before retry number `attempt`
    /// (1-based) — the zero-observed-loss delay for the adaptive mode.
    pub fn delay_for(&self, attempt: u32) -> u64 {
        self.backoff().delay_for(attempt)
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first offending knob.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            RetryPolicy::Fixed(b) => b.validate(),
            RetryPolicy::Adaptive(a) => a.validate(),
        }
    }
}

impl ToJson for RetryPolicy {
    fn to_json(&self) -> Json {
        let b = self.backoff();
        match self {
            RetryPolicy::Fixed(_) => json!({
                "mode": "fixed",
                "base_delay_cycles": b.base_delay_cycles,
                "multiplier": b.multiplier,
                "max_delay_cycles": b.max_delay_cycles,
                "max_attempts": b.max_attempts,
            }),
            RetryPolicy::Adaptive(a) => json!({
                "mode": "adaptive",
                "base_delay_cycles": b.base_delay_cycles,
                "multiplier": b.multiplier,
                "max_delay_cycles": b.max_delay_cycles,
                "max_attempts": b.max_attempts,
                "loss_window": a.loss_window,
            }),
        }
    }
}

impl FromJson for RetryPolicy {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        // One flat object: the tag, the backoff's fields and the
        // adaptive window.
        reject_unknown_keys(
            v,
            &[
                "mode",
                "base_delay_cycles",
                "multiplier",
                "max_delay_cycles",
                "max_attempts",
                "loss_window",
            ],
        )?;
        let mut fields = v.clone();
        if let Json::Object(entries) = &mut fields {
            entries.retain(|(k, _)| k != "mode" && k != "loss_window");
        }
        let backoff = Backoff::from_json(&fields)?;
        match v.get("mode").map(Json::as_str) {
            // Pre-adaptive documents carried no tag: they were all fixed.
            None | Some(Some("fixed")) => Ok(RetryPolicy::Fixed(backoff)),
            Some(Some("adaptive")) => {
                let loss_window = match v.get("loss_window") {
                    Some(x) => u32::from_json(x)?,
                    None => AdaptiveBackoff::default().loss_window,
                };
                Ok(RetryPolicy::Adaptive(AdaptiveBackoff {
                    backoff,
                    loss_window,
                }))
            }
            Some(_) => Err(JsonError::new(
                "retry `mode` must be \"fixed\" or \"adaptive\"",
            )),
        }
    }
}

/// Windowed completion-loss estimator feeding [`RetryPolicy::Adaptive`].
///
/// A shift register of the last `window` completion outcomes (bit set =
/// lost in transit), recorded by the engine on every completion event.
/// Integer-only, branch-free math so the estimate — and therefore the
/// whole simulation — stays bit-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LossEstimator {
    window: u32,
    bits: u64,
    len: u32,
}

impl LossEstimator {
    pub(crate) fn new(window: u32) -> Self {
        LossEstimator {
            window: window.clamp(1, 64),
            bits: 0,
            len: 0,
        }
    }

    /// Records one completion outcome (`true` = lost in transit).
    pub(crate) fn record(&mut self, lost: bool) {
        let mask = if self.window == 64 {
            u64::MAX
        } else {
            (1u64 << self.window) - 1
        };
        self.bits = ((self.bits << 1) | u64::from(lost)) & mask;
        self.len = (self.len + 1).min(self.window);
    }

    /// Losses among the observed outcomes.
    pub(crate) fn lost(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Outcomes observed so far (saturates at the window).
    pub(crate) fn observed(&self) -> u32 {
        self.len
    }

    /// Validates the ring (sanitizer hook): the observation count never
    /// exceeds the window and no bits live beyond it.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        if self.len > self.window {
            return Err(format!(
                "loss estimator observed {} outcomes against a window of {}",
                self.len, self.window
            ));
        }
        if self.window < 64 && self.bits >> self.window != 0 {
            return Err(format!(
                "loss estimator has outcome bits beyond its {}-wide window",
                self.window
            ));
        }
        Ok(())
    }
}

/// HIR flushes lost in transit before the driver's circuit breaker trips
/// and tells the GPU side to stop transferring flushes. Higher than HPE's
/// own two-consecutive-missed-flushes degradation trigger: the policy
/// degrades its eviction strategy first, the breaker then stops the
/// (still ongoing) wasted PCIe transfers.
const HIR_BREAKER_THRESHOLD: u32 = 3;

/// A count-based circuit breaker on the HIR channel.
///
/// The engine records one failure per flush lost in transit; at
/// [`HIR_BREAKER_THRESHOLD`] failures the breaker trips (returns `true`
/// exactly once) and stays open until [`CircuitBreaker::reset`] — which
/// the engine calls when the injected outage ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CircuitBreaker {
    failures: u32,
    open: bool,
}

impl CircuitBreaker {
    /// Records one lost flush; returns `true` on the failure that trips
    /// the breaker open (only that one — callers emit the open signal
    /// exactly once).
    pub(crate) fn record_failure(&mut self) -> bool {
        if self.open {
            return false;
        }
        self.failures += 1;
        if self.failures >= HIR_BREAKER_THRESHOLD {
            self.open = true;
            return true;
        }
        false
    }

    /// Whether the breaker is currently open.
    #[cfg(test)]
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// Closes the breaker and clears the failure count; returns `true` if
    /// it had been open (so callers can emit the close signal).
    pub(crate) fn reset(&mut self) -> bool {
        let was_open = self.open;
        self.failures = 0;
        self.open = false;
        was_open
    }

    /// Validates the breaker's state machine (sanitizer hook): the
    /// breaker is open exactly when the failure count has reached the
    /// threshold (it trips at the threshold and stops counting while
    /// open).
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let should_be_open = self.failures >= HIR_BREAKER_THRESHOLD;
        if self.open != should_be_open {
            return Err(format!(
                "circuit breaker open={} with {} failures against threshold {}",
                self.open, self.failures, HIR_BREAKER_THRESHOLD
            ));
        }
        Ok(())
    }
}

/// Which victim the engine evicts when the policy offers none (or its
/// answer was dropped in transit by the fault plan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FallbackVictim {
    /// The lowest-numbered resident page: deterministic and free, but
    /// recency-blind (the pre-recovery behavior and the default).
    #[default]
    MinPage,
    /// An approximate-LRU page from the engine's recency shadow.
    LruShadow,
}

impl FallbackVictim {
    /// Short label for reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            FallbackVictim::MinPage => "min-page",
            FallbackVictim::LruShadow => "lru-shadow",
        }
    }

    /// Parses a CLI label (`min-page` / `lru-shadow`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "min-page" => Some(FallbackVictim::MinPage),
            "lru-shadow" => Some(FallbackVictim::LruShadow),
            _ => None,
        }
    }
}

/// A cheap recency shadow over resident pages, maintained by the engine
/// only when [`FallbackVictim::LruShadow`] is selected.
///
/// Stamps are a logical clock bumped on every touch; the fallback victim
/// is the resident page with the smallest stamp (stamps are unique).
#[derive(Debug, Default)]
pub(crate) struct LruShadow {
    stamps: PageMap<PageId, u64>,
    clock: u64,
}

impl LruShadow {
    /// Marks `page` as most recently used.
    pub(crate) fn touch(&mut self, page: PageId) {
        self.clock += 1;
        self.stamps.insert(page, self.clock);
    }

    /// Forgets an evicted page.
    pub(crate) fn remove(&mut self, page: PageId) {
        self.stamps.remove(page);
    }

    /// The approximately least-recently-used page, if any is tracked.
    pub(crate) fn lru(&self) -> Option<PageId> {
        self.stamps
            .iter()
            .min_by_key(|&(_, &stamp)| stamp)
            .map(|(page, _)| page)
    }

    /// Validates the shadow against the engine's resident set (sanitizer
    /// hook): the clock is monotone so no more stamps than clock ticks
    /// can exist, every stamp lies in `1..=clock`, and every tracked
    /// page is actually resident.
    pub(crate) fn check_invariants(&self, resident: &dyn Fn(PageId) -> bool) -> Result<(), String> {
        if self.stamps.len() as u64 > self.clock {
            return Err(format!(
                "LRU shadow tracks {} pages but its clock only reached {}",
                self.stamps.len(),
                self.clock
            ));
        }
        // The table is page-ordered, so each report names the lowest
        // offending page.
        let bad_stamp = self
            .stamps
            .iter()
            .find(|&(_, &stamp)| stamp == 0 || stamp > self.clock);
        if let Some((page, _)) = bad_stamp {
            return Err(format!(
                "LRU shadow stamp for page {page} is outside 1..={}",
                self.clock
            ));
        }
        if let Some(page) = self.stamps.keys().find(|&p| !resident(p)) {
            return Err(format!("LRU shadow tracks non-resident page {page}"));
        }
        Ok(())
    }
}

/// Everything the engine does only under fault injection or recovery.
///
/// The engine holds it as one `Option`, `None` on every clean run, and
/// calls one hook at each injection point, so a clean run pays one
/// branch per hook and reads as the modelled driver alone.
#[derive(Debug)]
pub(crate) struct Resilience {
    /// Fault-plan runtime state, if a plan was installed.
    faults: Option<FaultState>,
    /// Backoff for lost completions; `None` keeps the plan's flat
    /// re-queue delay (and its livelock failure mode).
    retry: Option<RetryPolicy>,
    /// Backoff attempts made for the in-service fault's completion.
    completion_attempts: u32,
    /// Completion-loss estimator, present only under
    /// [`RetryPolicy::Adaptive`].
    loss: Option<LossEstimator>,
    /// The HIR channel's breaker; only lost flushes move it.
    breaker: CircuitBreaker,
    /// Recency shadow, present only under [`FallbackVictim::LruShadow`].
    shadow: Option<LruShadow>,
    /// Demand faults serviced since the HIR channel last came (or was)
    /// up: the headroom a degraded policy had to recover.
    clean_streak_faults: u64,
}

impl Resilience {
    /// Validates the plan, then the retry policy. The all-default call
    /// (no plan, no retry policy, min-page fallback) has nothing to
    /// inject or recover and returns `None`.
    pub(crate) fn new(
        plan: Option<FaultPlan>,
        retry: Option<RetryPolicy>,
        fallback: FallbackVictim,
    ) -> Result<Option<Self>, ConfigError> {
        if let Some(plan) = &plan {
            plan.validate()?;
        }
        if let Some(rp) = &retry {
            rp.validate()?;
        }
        if plan.is_none() && retry.is_none() && fallback == FallbackVictim::MinPage {
            return Ok(None);
        }
        Ok(Some(Resilience {
            faults: plan.map(FaultState::new),
            retry,
            completion_attempts: 0,
            loss: retry
                .and_then(|rp| rp.loss_window())
                .map(LossEstimator::new),
            breaker: CircuitBreaker::default(),
            shadow: (fallback == FallbackVictim::LruShadow).then(LruShadow::default),
            clean_streak_faults: 0,
        }))
    }

    /// Completion hook. Returns `Some(delay)` when the signal for `page`
    /// was lost and the driver retries it after `delay` cycles (the
    /// backoff, or the plan's flat delay without a retry policy), `None`
    /// when it was delivered.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RetriesExhausted`] at the retry policy's
    /// attempt cap.
    pub(crate) fn completion(
        &mut self,
        page: PageId,
        now: u64,
        res: &mut ResilienceStats,
    ) -> Result<Option<u64>, SimError> {
        let lost = match &mut self.faults {
            Some(fs) => fs.completion_lost(now, res),
            None => None,
        };
        // The estimator observes every outcome, delivered or lost, so its
        // loss rate tracks the channel, not just the retries.
        if let Some(est) = self.loss.as_mut() {
            est.record(lost.is_some());
        }
        let Some(plan_delay) = lost else {
            self.completion_attempts = 0;
            return Ok(None);
        };
        let Some(rp) = self.retry else {
            return Ok(Some(plan_delay));
        };
        self.completion_attempts += 1;
        if self.completion_attempts >= rp.max_attempts() {
            return Err(SimError::RetriesExhausted {
                page,
                cycle: now,
                attempts: self.completion_attempts,
            });
        }
        let delay = match (rp, &self.loss) {
            (RetryPolicy::Adaptive(a), Some(est)) => {
                a.delay_for(self.completion_attempts, est.lost(), est.observed())
            }
            _ => rp.delay_for(self.completion_attempts),
        };
        res.retry_attempts += 1;
        res.retry_backoff_cycles += delay;
        Ok(Some(delay))
    }

    /// Service-start hook, after the window's `demand` faults were
    /// numbered from `fault_num`. Tells the policy when the injected HIR
    /// outage flips (closing the breaker when the channel returns),
    /// counts faults serviced while it is down, announces a flush delayed
    /// in transit before the faults reach the policy (so it can divert
    /// the flush), and steps the clean streak.
    pub(crate) fn on_service_start(
        &mut self,
        policy: &mut dyn EvictionPolicy,
        fault_num: u64,
        demand: u64,
        now: u64,
        res: &mut ResilienceStats,
    ) {
        if let Some(fs) = &mut self.faults {
            if let Some(down) = fs.hir_transition(fault_num, now) {
                policy.on_disruption(if down {
                    SignalDisruption::HirChannelDown
                } else {
                    SignalDisruption::HirChannelUp
                });
                if !down && self.breaker.reset() {
                    policy.on_disruption(SignalDisruption::HirCircuitClosed);
                }
            }
            if fs.hir_down {
                res.faults_during_hir_outage += demand;
            }
            if let Some(delay) = fs.flush_delay(now, res) {
                policy.on_disruption(SignalDisruption::HirFlushDelayed { faults: delay });
            }
        }
        if self.hir_down() {
            self.clean_streak_faults = 0;
        } else {
            self.clean_streak_faults += demand;
        }
    }

    /// Victim hook: the policy's `offer` after the injected notification
    /// drop (a dropped answer arrives as none), and whether a stale,
    /// non-resident offer is tolerated. It is under a victim-dropping
    /// plan: an earlier drop left the policy believing a page was evicted
    /// that never was, and unaware of the fallback eviction in its place.
    pub(crate) fn victim_offer(
        &mut self,
        offer: Option<PageId>,
        now: u64,
        res: &mut ResilienceStats,
    ) -> (Option<PageId>, bool) {
        let Some(fs) = &mut self.faults else {
            return (offer, false);
        };
        // Drawn whether or not the policy offered a victim.
        let dropped = fs.victim_dropped(now, res);
        (offer.filter(|_| !dropped), fs.drops_victims())
    }

    /// After-fault hook. HIR flushes lost in a dead channel account
    /// their wasted transfer (`wasted_cycles`) and feed the breaker,
    /// which eventually tells the GPU side to stop sending them; then a
    /// corrupted fault report may reach the policy as a spurious wrong
    /// eviction.
    pub(crate) fn after_fault(
        &mut self,
        policy: &mut dyn EvictionPolicy,
        lost_flushes: u32,
        wasted_cycles: u64,
        fault_num: u64,
        now: u64,
        res: &mut ResilienceStats,
    ) {
        if lost_flushes > 0 {
            res.hir_flushes_lost += u64::from(lost_flushes);
            res.wasted_flush_cycles += wasted_cycles;
            for _ in 0..lost_flushes {
                if self.breaker.record_failure() {
                    res.circuit_breaker_trips += 1;
                    policy.on_disruption(SignalDisruption::HirCircuitOpen);
                }
            }
        }
        if let Some(fs) = &mut self.faults {
            if fs.spurious_wrong_eviction(now, res) {
                policy.on_disruption(SignalDisruption::SpuriousWrongEviction { fault_num });
            }
        }
    }

    /// Service-time hook: the plan's jitter, tail and congestion applied
    /// to one window's `(service, transfer)` cycles.
    pub(crate) fn perturb_service(
        &mut self,
        service: u64,
        transfer: u64,
        now: u64,
        res: &mut ResilienceStats,
    ) -> (u64, u64) {
        match &mut self.faults {
            Some(fs) => fs.perturb_service(service, transfer, now, res),
            None => (service, transfer),
        }
    }

    /// Shadow hook: `page` was accessed or became resident.
    pub(crate) fn touch(&mut self, page: PageId) {
        if let Some(shadow) = &mut self.shadow {
            shadow.touch(page);
        }
    }

    /// Shadow hook: `page` was evicted.
    pub(crate) fn forget(&mut self, page: PageId) {
        if let Some(shadow) = &mut self.shadow {
            shadow.remove(page);
        }
    }

    /// Shadow hook: the shadow's least-recent page, if it is on and that
    /// page is resident.
    pub(crate) fn fallback_pick(&self, memory: &GpuMemory) -> Option<PageId> {
        let pick = self.shadow.as_ref()?.lru();
        pick.filter(|&p| memory.is_resident(p))
    }

    /// The installed fault plan, if any.
    pub(crate) fn plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(FaultState::plan)
    }

    fn hir_down(&self) -> bool {
        self.faults.as_ref().is_some_and(|fs| fs.hir_down)
    }

    /// `SimOutcome`'s HIR fields: whether the injected outage is still
    /// active, and the clean streak.
    pub(crate) fn hir_state(&self) -> (bool, u64) {
        (self.hir_down(), self.clean_streak_faults)
    }

    /// Writes the recovery fields of `ckpt`; a clean run leaves them at
    /// their defaults.
    pub(crate) fn fingerprint(&self, ckpt: &mut Checkpoint) {
        if let Some(fs) = &self.faults {
            let (state, lost) = fs.fingerprint();
            (ckpt.fault_rng, ckpt.fault_lost_in_row) = (state.to_vec(), lost);
            ckpt.hir_down = fs.hir_down;
        }
        (ckpt.breaker_failures, ckpt.breaker_open) = (self.breaker.failures, self.breaker.open);
        ckpt.completion_attempts = self.completion_attempts;
        if let Some(shadow) = &self.shadow {
            (ckpt.shadow_pages, ckpt.shadow_clock) = (shadow.stamps.len() as u64, shadow.clock);
        }
        if let Some(est) = &self.loss {
            (ckpt.loss_bits, ckpt.loss_len) = (est.bits, est.len);
        }
    }

    /// Sanitizer hook: the shadow against the resident set, the breaker
    /// and the loss estimator. Errors name the violated invariant.
    pub(crate) fn check_invariants(
        &self,
        memory: &GpuMemory,
    ) -> Result<(), (&'static str, String)> {
        if let Some(shadow) = &self.shadow {
            shadow
                .check_invariants(&|p| memory.is_resident(p))
                .map_err(|detail| ("lru-shadow", detail))?;
        }
        self.breaker
            .check_invariants()
            .map_err(|detail| ("circuit-breaker", detail))?;
        match &self.loss {
            Some(est) => est.check_invariants().map_err(|d| ("loss-estimator", d)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_util::{FromJson, Json, ToJson};

    #[test]
    fn backoff_grows_and_caps() {
        let rp = RetryPolicy::Fixed(Backoff {
            base_delay_cycles: 1_000,
            multiplier: 2,
            max_delay_cycles: 10_000,
            max_attempts: 8,
        });
        assert_eq!(rp.delay_for(1), 1_000);
        assert_eq!(rp.delay_for(2), 2_000);
        assert_eq!(rp.delay_for(3), 4_000);
        assert_eq!(rp.delay_for(4), 8_000);
        assert_eq!(rp.delay_for(5), 10_000);
        assert_eq!(rp.delay_for(64), 10_000, "saturates instead of wrapping");
    }

    #[test]
    fn retry_policy_validates() {
        RetryPolicy::default().validate().unwrap();
        RetryPolicy::adaptive().validate().unwrap();
        for bad in [
            Backoff {
                base_delay_cycles: 0,
                ..Backoff::default()
            },
            Backoff {
                multiplier: 1,
                ..Backoff::default()
            },
            Backoff {
                max_delay_cycles: 1,
                ..Backoff::default()
            },
            Backoff {
                max_attempts: 0,
                ..Backoff::default()
            },
        ] {
            assert!(
                RetryPolicy::Fixed(bad).validate().is_err(),
                "{bad:?} must be rejected"
            );
            let adaptive = RetryPolicy::Adaptive(AdaptiveBackoff {
                backoff: bad,
                loss_window: 32,
            });
            assert!(adaptive.validate().is_err(), "adaptive {bad:?} rejected");
        }
        for window in [0, 65] {
            let bad = RetryPolicy::Adaptive(AdaptiveBackoff {
                backoff: Backoff::default(),
                loss_window: window,
            });
            let msg = bad.validate().unwrap_err().to_string();
            assert!(msg.contains("loss_window"), "{msg}");
        }
    }

    #[test]
    fn adaptive_base_tracks_loss_rate() {
        let a = AdaptiveBackoff {
            backoff: Backoff {
                base_delay_cycles: 1_000,
                multiplier: 2,
                max_delay_cycles: 9_000,
                max_attempts: 8,
            },
            loss_window: 16,
        };
        // No observations yet: identical to the fixed schedule.
        assert_eq!(a.delay_for(1, 0, 0), 1_000);
        assert_eq!(a.delay_for(2, 0, 0), 2_000);
        // Loss-free channel: still the fixed schedule.
        assert_eq!(a.delay_for(1, 0, 16), 1_000);
        // Half the window lost: base jumps halfway to the cap.
        assert_eq!(a.delay_for(1, 8, 16), 5_000);
        // Everything lost: first retry already waits the cap.
        assert_eq!(a.delay_for(1, 16, 16), 9_000);
        assert_eq!(a.delay_for(8, 16, 16), 9_000, "still capped");
        // An elevated base still grows exponentially under the cap.
        assert_eq!(a.delay_for(2, 4, 16), 6_000);
    }

    #[test]
    fn retry_policy_json_roundtrip_with_defaults() {
        let rp = RetryPolicy::Fixed(Backoff {
            base_delay_cycles: 500,
            multiplier: 3,
            max_delay_cycles: 9_000,
            max_attempts: 4,
        });
        let back = RetryPolicy::from_json(&rp.to_json()).unwrap();
        assert_eq!(back, rp);

        // Pre-adaptive documents carry no mode tag and parse as Fixed.
        let sparse = Json::parse(r#"{"max_attempts": 2}"#).unwrap();
        let p = RetryPolicy::from_json(&sparse).unwrap();
        assert_eq!(p.max_attempts(), 2);
        assert_eq!(p.mode_label(), "fixed");
        assert_eq!(
            p.backoff().base_delay_cycles,
            Backoff::default().base_delay_cycles
        );

        let adaptive = RetryPolicy::Adaptive(AdaptiveBackoff {
            backoff: Backoff::default(),
            loss_window: 48,
        });
        let text = adaptive.to_json().to_string();
        assert!(text.contains("\"mode\":\"adaptive\""), "{text}");
        let back = RetryPolicy::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, adaptive);

        let sparse_adaptive = Json::parse(r#"{"mode": "adaptive"}"#).unwrap();
        let p = RetryPolicy::from_json(&sparse_adaptive).unwrap();
        assert_eq!(p.loss_window(), Some(32), "window defaults");

        let bad_mode = Json::parse(r#"{"mode": "frantic"}"#).unwrap();
        assert!(RetryPolicy::from_json(&bad_mode).is_err());

        // The flat object is checked as a whole: a misspelt window is
        // named, and so is a misspelt backoff field.
        let typo = Json::parse(r#"{"mode": "adaptive", "los_window": 3}"#).unwrap();
        let err = RetryPolicy::from_json(&typo).unwrap_err().to_string();
        assert!(
            err.contains("`los_window` (did you mean `loss_window`?)"),
            "{err}"
        );
        let typo = Json::parse(r#"{"max_atempts": 3}"#).unwrap();
        let err = RetryPolicy::from_json(&typo).unwrap_err().to_string();
        assert!(err.contains("did you mean `max_attempts`?"), "{err}");
    }

    #[test]
    fn loss_estimator_windows_and_counts() {
        let mut e = LossEstimator::new(4);
        assert_eq!((e.lost(), e.observed()), (0, 0));
        e.record(true);
        e.record(false);
        e.record(true);
        assert_eq!((e.lost(), e.observed()), (2, 3));
        e.record(true);
        assert_eq!((e.lost(), e.observed()), (3, 4));
        // The window slides: the oldest (lost) outcome falls off.
        e.record(false);
        assert_eq!((e.lost(), e.observed()), (2, 4));
        e.check_invariants().unwrap();
        // Degenerate windows clamp instead of shifting out of range.
        let mut wide = LossEstimator::new(1_000);
        for _ in 0..100 {
            wide.record(true);
        }
        assert_eq!((wide.lost(), wide.observed()), (64, 64));
        wide.check_invariants().unwrap();
        assert_eq!((wide.bits, wide.len), (u64::MAX, 64));
    }

    #[test]
    fn breaker_trips_once_and_resets() {
        let mut b = CircuitBreaker::default();
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third failure trips");
        assert!(b.is_open());
        assert!(!b.record_failure(), "already open: no second trip");
        assert!(b.reset(), "reset reports it had been open");
        assert!(!b.is_open());
        assert!(!b.reset(), "reset of a closed breaker is a no-op");
        assert!(!b.record_failure(), "count restarts after reset");
    }

    #[test]
    fn shadow_tracks_recency() {
        let mut s = LruShadow::default();
        assert_eq!(s.lru(), None);
        s.touch(PageId(5));
        s.touch(PageId(3));
        s.touch(PageId(9));
        assert_eq!(s.lru(), Some(PageId(5)));
        s.touch(PageId(5)); // re-touch: 3 is now coldest
        assert_eq!(s.lru(), Some(PageId(3)));
        s.remove(PageId(3));
        assert_eq!(s.lru(), Some(PageId(9)));
    }

    #[test]
    fn fallback_labels_roundtrip() {
        for f in [FallbackVictim::MinPage, FallbackVictim::LruShadow] {
            assert_eq!(FallbackVictim::parse(f.label()), Some(f));
        }
        assert_eq!(FallbackVictim::parse("nope"), None);
    }
}
