//! The discrete-event simulation engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use uvm_policies::{EvictionPolicy, EvictionWindow};
use uvm_types::{
    ConfigError, CycleAccount, PageId, PageMap, SignalDisruption, SimConfig, SimError, SimStats,
};
use uvm_workloads::{Op, Trace};

use uvm_util::ToJson;

use crate::checkpoint::Checkpoint;
use crate::faults::FaultPlan;
use crate::instrument::{Instrument, Probe, SimEvent};
use crate::memory::GpuMemory;
use crate::profile::MetricsSample;
use crate::recovery::{FallbackVictim, Resilience, RetryPolicy};
use crate::sanitizer::{audit, Sanitizer};
use crate::tlb::Tlb;

/// Window (in evictions) within which a re-fault on an evicted page counts
/// as a *wrong eviction* in the driver statistics. The paper's dynamic
/// adjustment uses two intervals (128 faults); the driver-level diagnostic
/// uses the same horizon.
const WRONG_EVICTION_WINDOW: usize = 128;

/// Base number of events the forward-progress watchdog tolerates without a
/// single op retiring or page landing (plus 100 per warp). Generously
/// above anything a healthy run produces between progress points, yet
/// small enough that an injected livelock is caught within a second.
const WATCHDOG_BASE_EVENTS: u64 = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A warp is ready to execute its next op (or replay a faulted one).
    WarpReady(usize),
    /// The driver finished servicing the fault on this page.
    DriverDone(PageId),
    /// The driver picks up the next queued fault. Scheduled *after* the
    /// waiter wake-ups of the previous fault so that replayed translations
    /// register with the policy before the next eviction decision — a
    /// just-migrated page must not be victimized before the warp that
    /// requested it even replays.
    DriverPickup,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct Warp {
    sm: usize,
    ops: Vec<Op>,
    cursor: usize,
    /// The current op already advanced the policy's access oracle; a replay
    /// after a fault must not advance it again.
    issued: bool,
}

/// Result of a simulation run: the statistics plus the policy and the
/// instrument themselves, so callers can inspect policy-specific state
/// (e.g. HPE's classification or strategy timeline) and what the
/// instrument collected.
#[derive(Debug)]
pub struct SimOutcome<P, I = ()> {
    /// End-to-end statistics (policy counters already folded in).
    pub stats: SimStats,
    /// The policy, returned for post-run inspection.
    pub policy: P,
    /// The instrument (see [`Simulation::instrument`]), returned by value.
    pub instrument: I,
    /// Whether the injected HIR channel outage was still active when the
    /// run ended (cross-run recovery checks need to distinguish "degraded
    /// because the channel is down" from "stuck degraded").
    pub hir_down: bool,
    /// Demand faults serviced since the HIR channel last came (or was)
    /// up — the recovery headroom a policy had to leave degraded mode.
    pub hir_clean_streak_faults: u64,
}

/// A configured simulation, consumed by [`Simulation::run`].
///
/// `I` is the [`Instrument`] receiving the run's event stream; the
/// default `()` receives nothing and costs nothing.
///
/// See the crate-level documentation for the modelled system and
/// `DESIGN.md` for how it maps to the paper's infrastructure.
#[derive(Debug)]
pub struct Simulation<P, I = ()> {
    cfg: SimConfig,
    policy: P,
    memory: GpuMemory,
    l1: Vec<Tlb>,
    l2: Tlb,
    warps: Vec<Warp>,
    events: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    now: u64,
    live_warps: usize,
    /// Warps stalled on each page's pending fault; a page has a fault
    /// pending exactly while its list is nonempty. Woken lists keep their
    /// allocation for the page's next fault.
    waiters: PageMap<PageId, Vec<usize>>,
    fault_queue: VecDeque<PageId>,
    in_service: Option<PageId>,
    /// Pages (demand + prefetched) migrating in the current service; they
    /// become resident together at `DriverDone`.
    in_flight: Vec<PageId>,
    /// Workload footprint, bounding prefetch candidates.
    footprint_pages: u64,
    memory_full_notified: bool,
    /// The last [`WRONG_EVICTION_WINDOW`] victims.
    recent_evictions: EvictionWindow,
    stats: SimStats,
    /// Events handled since an op last retired or a page last landed.
    events_since_progress: u64,
    /// Watchdog threshold derived from the warp count.
    watchdog_limit: u64,
    /// Fault injection and driver recovery (see
    /// [`Self::set_resilience`]); `None` on a clean run.
    resilience: Option<Resilience>,
    /// The `run_until` limit the run is currently paused at.
    paused_at: Option<u64>,
    /// Opt-in runtime invariant checker; `None` (the default) costs one
    /// branch per event and nothing else.
    sanitizer: Option<Sanitizer>,
    /// `on_fault` calls so far: the clock `VictimSelected` ages are
    /// measured on (not `fault_num`, which prefetched pages share with
    /// their demand fault). This field and the next two move only on an
    /// instrumented run.
    fault_clock: u64,
    /// `fault_clock` at each resident page's last `on_fault`.
    faulted_at: PageMap<PageId, u64>,
    /// The policy's `search_comparisons` at the last `VictimSelected`.
    comparisons_seen: u64,
    instrument: I,
}

impl<P: EvictionPolicy> Simulation<P> {
    /// Builds a simulation of `trace` under `policy` with GPU memory of
    /// `capacity_pages`.
    ///
    /// Streams in `trace` are assigned round-robin to warps: stream `i`
    /// becomes warp `i % warps_per_sm` of SM `i / warps_per_sm`. A trace
    /// may have fewer streams than `n_sms * warps_per_sm`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cfg` is invalid or the trace has more
    /// streams than the configuration has warps.
    pub fn new(
        cfg: SimConfig,
        trace: &Trace,
        policy: P,
        capacity_pages: u64,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let max_streams = (cfg.n_sms * cfg.warps_per_sm) as usize;
        if trace.streams().len() > max_streams {
            return Err(ConfigError::invalid(
                "trace.streams",
                "more streams than n_sms * warps_per_sm warps",
            ));
        }
        if capacity_pages == 0 {
            return Err(ConfigError::invalid("capacity_pages", "must be nonzero"));
        }
        let warps: Vec<Warp> = trace
            .streams()
            .iter()
            .enumerate()
            .map(|(i, ops)| Warp {
                sm: i / cfg.warps_per_sm as usize,
                ops: ops.clone(),
                cursor: 0,
                issued: false,
            })
            .collect();
        let l1 = (0..cfg.n_sms)
            .map(|_| Tlb::new(cfg.l1_tlb))
            .collect::<Vec<_>>();
        let l2 = Tlb::new(cfg.l2_tlb);
        let watchdog_limit = WATCHDOG_BASE_EVENTS + 100 * warps.len() as u64;
        let mut sim = Simulation {
            cfg,
            policy,
            memory: GpuMemory::new(capacity_pages),
            l1,
            l2,
            warps,
            events: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            live_warps: 0,
            waiters: PageMap::new(),
            fault_queue: VecDeque::new(),
            in_service: None,
            in_flight: Vec::new(),
            footprint_pages: trace.footprint_pages(),
            memory_full_notified: false,
            recent_evictions: EvictionWindow::new(WRONG_EVICTION_WINDOW),
            stats: SimStats::default(),
            events_since_progress: 0,
            watchdog_limit,
            resilience: None,
            paused_at: None,
            sanitizer: None,
            fault_clock: 0,
            faulted_at: PageMap::new(),
            comparisons_seen: 0,
            instrument: (),
        };
        for w in 0..sim.warps.len() {
            if !sim.warps[w].ops.is_empty() {
                sim.live_warps += 1;
                sim.schedule(0, EventKind::WarpReady(w));
            }
        }
        Ok(sim)
    }
}

impl<P: EvictionPolicy, I: Instrument> Simulation<P, I> {
    /// Moves the simulation onto `instrument`, which from now on
    /// receives the event stream (the current instrument is dropped).
    /// The policy's decision tracing (see [`EvictionPolicy::set_tracing`])
    /// is on exactly while the instrument is enabled. Instruments observe
    /// only: the run's [`SimStats`] stay byte-identical.
    ///
    /// Instrument state is not captured by [`Self::checkpoint`]; a run
    /// continued with [`Self::resume`] replays from the start, so its
    /// instrument sees the whole run again.
    pub fn instrument<J: Instrument>(mut self, instrument: J) -> Simulation<P, J> {
        self.policy.set_tracing(J::ENABLED);
        Simulation {
            cfg: self.cfg,
            policy: self.policy,
            memory: self.memory,
            l1: self.l1,
            l2: self.l2,
            warps: self.warps,
            events: self.events,
            next_seq: self.next_seq,
            now: self.now,
            live_warps: self.live_warps,
            waiters: self.waiters,
            fault_queue: self.fault_queue,
            in_service: self.in_service,
            in_flight: self.in_flight,
            footprint_pages: self.footprint_pages,
            memory_full_notified: self.memory_full_notified,
            recent_evictions: self.recent_evictions,
            stats: self.stats,
            events_since_progress: self.events_since_progress,
            watchdog_limit: self.watchdog_limit,
            resilience: self.resilience,
            paused_at: self.paused_at,
            sanitizer: self.sanitizer,
            fault_clock: self.fault_clock,
            faulted_at: self.faulted_at,
            comparisons_seen: self.comparisons_seen,
            instrument,
        }
    }

    /// Installs fault injection and driver recovery before [`Self::run`],
    /// replacing any earlier call's: the fault `plan` (a
    /// default [`FaultPlan`] changes no statistic or event), the
    /// `retry` policy for lost completions (without one, the plan's flat
    /// delay retries forever and an unbounded loss ends in the watchdog's
    /// [`SimError::Stalled`]), and the `fallback` victim for evictions
    /// the policy did not answer. The all-default call (no plan, no retry
    /// policy, [`FallbackVictim::MinPage`]) leaves the run clean.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the plan or the retry policy is invalid.
    pub fn set_resilience(
        &mut self,
        plan: Option<FaultPlan>,
        retry: Option<RetryPolicy>,
        fallback: FallbackVictim,
    ) -> Result<(), ConfigError> {
        self.resilience = Resilience::new(plan, retry, fallback)?;
        Ok(())
    }

    /// Installs the opt-in runtime sanitizer (see [`Sanitizer`]): every
    /// `cadence` retired events — and once more at end of run — the
    /// engine validates its structural invariants and reports the first
    /// violation as [`SimError::InvariantViolated`]. The checks are
    /// read-only, so a sanitized run's [`SimStats`] are byte-identical
    /// to an unsanitized run's.
    pub fn set_sanitizer(&mut self, sanitizer: Sanitizer) {
        self.sanitizer = Some(sanitizer);
    }

    /// The installed sanitizer, if any (for inspecting check counts).
    pub fn sanitizer(&self) -> Option<&Sanitizer> {
        self.sanitizer.as_ref()
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the run cannot complete soundly: the
    /// policy offered a non-resident victim, residency accounting would
    /// overflow, the forward-progress watchdog detected a livelock
    /// ([`SimError::Stalled`]), the driver's retry policy gave up on a
    /// completion ([`SimError::RetriesExhausted`]), or warps deadlocked
    /// with an empty event queue. A policy offering *no* victim while
    /// memory is full is tolerated: the engine evicts a fallback victim
    /// itself and counts it in `stats.resilience.fallback_victims`.
    pub fn run(self) -> Result<SimOutcome<P, I>, SimError> {
        self.finish()
    }

    /// Processes every event with `time <= limit`, then pauses.
    ///
    /// Returns `Ok(true)` when the event queue drained (the run is
    /// complete; call [`Self::finish`]) and `Ok(false)` when the run
    /// paused at the limit — the state is then stable and
    /// [`Self::checkpoint`] captures it.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::run`], minus the deadlock check
    /// (which only applies to a drained queue at completion).
    pub fn run_until(&mut self, limit: u64) -> Result<bool, SimError> {
        while let Some(&Reverse(ev)) = self.events.peek() {
            if ev.time > limit {
                self.paused_at = Some(limit);
                return Ok(false);
            }
            self.events.pop();
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            if self.now > self.stats.cycles {
                self.stats.cycles = self.now;
            }
            self.events_since_progress += 1;
            if self.events_since_progress > self.watchdog_limit {
                return Err(SimError::Stalled {
                    cycle: self.now,
                    in_flight: self.in_flight.len() as u64,
                });
            }
            // Metrics registry: engine state is constant between events,
            // so crossed cadence boundaries sample the pre-event state.
            if I::ENABLED && self.instrument.sample_due(self.now) {
                self.probe(Probe::Sample(self.metrics_sample()));
            }
            match ev.kind {
                EventKind::WarpReady(w) => self.step_warp(w)?,
                EventKind::DriverDone(page) => self.driver_done(page)?,
                EventKind::DriverPickup => self.pickup_next_fault()?,
            }
            let sanitize_due = match &mut self.sanitizer {
                Some(s) => s.tick(),
                None => false,
            };
            if sanitize_due {
                self.sanitize_check()?;
            }
        }
        self.paused_at = None;
        Ok(true)
    }

    /// Handles a fault-completion signal; under injection it may have
    /// been lost, and the driver retries it (see [`Resilience::completion`]).
    fn driver_done(&mut self, page: PageId) -> Result<(), SimError> {
        let retry = match &mut self.resilience {
            Some(r) => r.completion(page, self.now, &mut self.stats.resilience)?,
            None => None,
        };
        let Some(delay) = retry else {
            return self.finish_fault(page);
        };
        self.probe(Probe::Retry { page, delay });
        self.schedule(self.now + delay, EventKind::DriverDone(page));
        Ok(())
    }

    /// Drains any remaining events and folds the final statistics.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::run`].
    pub fn finish(mut self) -> Result<SimOutcome<P, I>, SimError> {
        self.run_until(u64::MAX)?;
        if self.live_warps > 0 {
            return Err(SimError::Deadlock {
                cycle: self.now,
                blocked_warps: self.live_warps as u64,
            });
        }
        // Final sanitizer pass regardless of cadence phase, so a
        // corruption in the run's tail cannot slip out unchecked, then
        // the audit of the finished run's statistics.
        if let Some(s) = &mut self.sanitizer {
            s.note_final_check();
        }
        if self.sanitizer.is_some() {
            self.sanitize_check()?;
            let ops = self.warps.iter().map(|w| w.ops.len() as u64).sum();
            let plan = self.resilience.as_ref().and_then(Resilience::plan);
            audit(&self.stats, ops, self.memory.capacity(), plan)?;
        }
        self.stats.policy = self.policy.stats();
        // Without injection the channel never went down.
        let clean = (false, self.stats.driver.faults_serviced);
        let (hir_down, hir_clean_streak_faults) = self
            .resilience
            .as_ref()
            .map_or(clean, Resilience::hir_state);
        Ok(SimOutcome {
            stats: self.stats,
            policy: self.policy,
            instrument: self.instrument,
            hir_down,
            hir_clean_streak_faults,
        })
    }

    /// One snapshot of engine state for the metrics registry.
    fn metrics_sample(&self) -> MetricsSample {
        MetricsSample {
            cycle: 0, // stamped per boundary by the consumer
            resident_pages: self.memory.len(),
            fault_backlog: self.fault_queue.len() as u64 + u64::from(self.in_service.is_some()),
            in_flight: self.in_flight.len() as u64,
            live_warps: self.live_warps as u64,
            hir_fill: self.policy.hir_fill(),
            degraded: self.policy.is_degraded(),
            faults_serviced: self.stats.driver.faults_serviced,
            evictions: self.stats.driver.evictions,
        }
    }

    /// Snapshots the paused run (see [`Checkpoint`] for what is captured
    /// and why that is sufficient under the determinism contract).
    /// Meaningful after [`Self::run_until`] returned `Ok(false)`.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut ckpt = Checkpoint {
            cycle: self.paused_at.unwrap_or(self.now),
            now: self.now,
            stats: self.stats.clone(),
            next_seq: self.next_seq,
            live_warps: self.live_warps as u64,
            resident_pages: self.memory.len(),
            in_flight: self.in_flight.len() as u64,
            queue_len: self.fault_queue.len() as u64,
            ..Checkpoint::default()
        };
        if let Some(r) = &self.resilience {
            r.fingerprint(&mut ckpt);
        }
        ckpt
    }

    /// Fast-forwards this *freshly built* simulation to `ckpt` and
    /// verifies it reconstructed the identical machine. The simulation
    /// must have been constructed from the same inputs (config, trace,
    /// policy, capacity, and the plan, retry policy and fallback victim
    /// given to [`Self::set_resilience`]) as the run that took the
    /// snapshot; continue it afterwards with
    /// [`Self::run_until`] or [`Self::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointDiverged`] when the replayed state
    /// does not byte-match the snapshot (the inputs differ), plus any
    /// failure mode of [`Self::run_until`].
    pub fn resume(&mut self, ckpt: &Checkpoint) -> Result<(), SimError> {
        self.run_until(ckpt.cycle)?;
        let replayed = self.checkpoint();
        if replayed.to_json().to_string() != ckpt.to_json().to_string() {
            return Err(SimError::CheckpointDiverged { cycle: ckpt.cycle });
        }
        Ok(())
    }

    fn emit(&mut self, event: SimEvent) {
        if I::ENABLED {
            self.instrument.on_event(event);
        }
    }

    fn probe(&mut self, probe: Probe) {
        if I::ENABLED {
            self.instrument.on_probe(self.now, probe);
        }
    }

    fn charge(&mut self, account: CycleAccount, cycles: u64) {
        self.probe(Probe::Charge { account, cycles });
    }

    /// Forwards the policy's buffered decision events, stamped with the
    /// current cycle, into the stream. Called after every policy
    /// interaction that can produce events.
    fn drain_policy_events(&mut self) {
        if !I::ENABLED {
            return;
        }
        let (now, instrument) = (self.now, &mut self.instrument);
        self.policy
            .drain_events(&mut |e| instrument.on_event(SimEvent::from_policy(e, now)));
    }

    /// The `VictimSelected` event for the policy's offer `page`, read
    /// right after `select_victim` (instrumented runs only).
    fn victim_selected(&mut self, page: PageId) -> SimEvent {
        let comparisons = self.policy.stats().search_comparisons;
        let search_comparisons = comparisons.saturating_sub(self.comparisons_seen);
        self.comparisons_seen = comparisons;
        let victim_age = self
            .faulted_at
            .remove(page)
            .map_or(0, |at| self.fault_clock - at);
        SimEvent::VictimSelected {
            time: self.now,
            page,
            strategy: self.policy.victim_strategy(),
            search_comparisons,
            victim_age,
        }
    }

    fn schedule(&mut self, time: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Event { time, seq, kind }));
    }

    fn step_warp(&mut self, w: usize) -> Result<(), SimError> {
        let (sm, op, first_issue) = {
            let warp = &self.warps[w];
            let op = warp.ops[warp.cursor];
            (warp.sm, op, !warp.issued)
        };
        if first_issue {
            self.warps[w].issued = true;
            self.policy.on_access(op.page);
        } else {
            // Replay after a fault: the warp's stall ends at this step
            // (and may immediately re-begin if the page was re-evicted).
            self.probe(Probe::WarpResumed { warp: w });
        }

        // Address translation.
        let mut walked = false;
        let mut latency = u64::from(self.l1[sm].latency());
        let translated = if self.l1[sm].lookup(op.page) {
            self.stats.tlb.l1_hits += 1;
            debug_assert!(
                self.memory.is_resident(op.page),
                "L1 TLB holds non-resident page {}",
                op.page
            );
            true
        } else {
            self.stats.tlb.l1_misses += 1;
            latency += u64::from(self.l2.latency());
            if self.l2.lookup(op.page) {
                self.stats.tlb.l2_hits += 1;
                debug_assert!(self.memory.is_resident(op.page));
                self.l1[sm].fill(op.page);
                true
            } else {
                self.stats.tlb.l2_misses += 1;
                latency += u64::from(self.cfg.page_walk_cycles);
                walked = true;
                self.stats.walks += 1;
                let hit = self.memory.is_resident(op.page);
                self.emit(SimEvent::PageWalk {
                    time: self.now,
                    page: op.page,
                    hit,
                });
                if hit {
                    self.stats.walk_hits += 1;
                    self.policy.on_walk_hit(op.page);
                    self.l2.fill(op.page);
                    self.l1[sm].fill(op.page);
                    true
                } else {
                    false
                }
            }
        };

        // SM-side overlay accounting: translation latency split into TLB
        // lookups and the page walk. Charged for faulting accesses too —
        // the walk is what discovered the fault.
        let walk = if walked {
            u64::from(self.cfg.page_walk_cycles)
        } else {
            0
        };
        self.charge(CycleAccount::SmTlb, latency - walk);
        if walked {
            self.charge(CycleAccount::PageWalk, walk);
        }

        if !translated {
            // Page fault: suspend this warp until the driver migrates the
            // page (replayable far-fault); other warps keep running.
            return self.raise_fault(op.page, w);
        }

        // The access completes.
        self.events_since_progress = 0;
        if let Some(r) = &mut self.resilience {
            r.touch(op.page);
        }
        self.warps[w].issued = false;
        self.warps[w].cursor += 1;
        self.stats.mem_accesses += 1;
        self.stats.instructions += 1 + u64::from(op.compute);
        self.charge(CycleAccount::SmMem, u64::from(self.cfg.mem_access_cycles));
        self.charge(CycleAccount::SmCompute, u64::from(op.compute));
        let done_at =
            self.now + latency + u64::from(self.cfg.mem_access_cycles) + u64::from(op.compute);
        if self.warps[w].cursor < self.warps[w].ops.len() {
            self.schedule(done_at, EventKind::WarpReady(w));
        } else {
            self.live_warps -= 1;
            if done_at > self.stats.cycles {
                self.stats.cycles = done_at;
            }
        }
        Ok(())
    }

    fn raise_fault(&mut self, page: PageId, warp: usize) -> Result<(), SimError> {
        self.probe(Probe::WarpStalled { warp });
        let waiting = self.waiters.get_or_insert_with(page, Vec::new);
        waiting.push(warp);
        if waiting.len() > 1 {
            // Fault already pending: coalesce.
            self.probe(Probe::Coalesce { page });
            return Ok(());
        }
        self.emit(SimEvent::FaultRaised {
            time: self.now,
            page,
        });
        if self.recent_evictions.contains(page) {
            self.stats.driver.wrong_evictions += 1;
            if I::ENABLED {
                // The linear scan only runs on an instrumented run.
                let distance = self.recent_evictions.distance(page).unwrap_or(0);
                self.emit(SimEvent::WrongEviction {
                    time: self.now,
                    page,
                    refault_distance: distance,
                });
            }
        }
        if self.in_service.is_none() {
            self.start_fault_service(page)?;
        } else {
            self.fault_queue.push_back(page);
        }
        Ok(())
    }

    /// Whether warps are stalled on a pending fault for `page`.
    fn has_waiters(&self, page: PageId) -> bool {
        self.waiters.get(page).is_some_and(|w| !w.is_empty())
    }

    /// Reschedules every warp stalled on `page`, now. The page's waiter
    /// list keeps its allocation for the next fault.
    fn wake(&mut self, page: PageId) {
        let Some(slot) = self.waiters.get_mut(page) else {
            return;
        };
        let mut warps = std::mem::take(slot);
        for w in warps.drain(..) {
            self.schedule(self.now, EventKind::WarpReady(w));
        }
        if let Some(slot) = self.waiters.get_mut(page) {
            *slot = warps;
        }
    }

    fn start_fault_service(&mut self, page: PageId) -> Result<(), SimError> {
        debug_assert!(self.in_service.is_none());
        debug_assert!(!self.memory.is_resident(page));
        self.in_service = Some(page);
        self.in_flight.clear();
        self.in_flight.push(page);

        // Fault batching: service additional queued demand faults in this
        // same window (real UVM drivers batch faults per interrupt). Never
        // migrate more pages at once than memory can hold.
        let batch_cap = u64::from(self.cfg.fault_batch).min(self.memory.capacity());
        while (self.in_flight.len() as u64) < batch_cap {
            let Some(next) = self.fault_queue.pop_front() else {
                break;
            };
            if self.memory.is_resident(next) {
                // Satisfied by an earlier prefetch while queued.
                self.wake(next);
                continue;
            }
            if !self.in_flight.contains(&next) {
                self.in_flight.push(next);
            }
        }
        let demand_count = self.in_flight.len() as u64;
        // Every demand page in this batch leaves the queue stage now.
        if I::ENABLED {
            for &page in &self.in_flight {
                self.instrument
                    .on_probe(self.now, Probe::ServiceStart { page });
            }
        }

        // Sequential prefetch: pull following contiguous pages (within the
        // workload's footprint) that are neither resident nor already
        // demanded by a queued fault.
        for i in 1..=u64::from(self.cfg.prefetch_pages) {
            // Never migrate more pages than memory can hold at once.
            if self.in_flight.len() as u64 >= self.memory.capacity() {
                break;
            }
            let candidate = PageId(page.0 + i);
            if candidate.0 < self.footprint_pages
                && !self.memory.is_resident(candidate)
                && !self.has_waiters(candidate)
            {
                self.in_flight.push(candidate);
                self.emit(SimEvent::PrefetchIssued {
                    time: self.now,
                    page: candidate,
                });
            }
        }

        let fault_num = self.stats.driver.faults_serviced;
        self.stats.driver.faults_serviced += demand_count;
        self.stats.driver.prefetched_pages += self.in_flight.len() as u64 - demand_count;

        if let Some(r) = &mut self.resilience {
            let res = &mut self.stats.resilience;
            r.on_service_start(&mut self.policy, fault_num, demand_count, self.now, res);
        }

        // Free enough frames for every migrating page.
        let needed = (self.memory.len() + self.in_flight.len() as u64)
            .saturating_sub(self.memory.capacity());
        for _ in 0..needed {
            let offer = self.policy.select_victim();
            let selected = match offer {
                Some(page) if I::ENABLED => Some(self.victim_selected(page)),
                _ => None,
            };
            let (offer, stale_ok) = match &mut self.resilience {
                Some(r) => r.victim_offer(offer, self.now, &mut self.stats.resilience),
                None => (offer, false),
            };
            let victim = match offer {
                Some(v) if self.memory.remove(v) => v,
                // A stale offer is an expected after-effect of an injected
                // victim drop; on a clean run it is a policy bug.
                Some(page) if !stale_ok => {
                    return Err(SimError::NonResidentVictim {
                        page,
                        cycle: self.now,
                    })
                }
                // No victim arrived: the policy believes nothing is
                // resident (or its answer was dropped in transit). Evict a
                // fallback victim rather than aborting the run.
                _ => self.evict_fallback()?,
            };
            if let Some(r) = &mut self.resilience {
                r.forget(victim);
            }
            for l1 in &mut self.l1 {
                l1.invalidate(victim);
            }
            self.l2.invalidate(victim);
            self.stats.driver.evictions += 1;
            self.recent_evictions.push(victim);
            // Decision events buffered so far, then the offer, then the
            // Eviction it caused.
            self.drain_policy_events();
            if let Some(event) = selected {
                self.emit(event);
            }
            self.emit(SimEvent::Eviction {
                time: self.now,
                page: victim,
            });
        }

        let mut outcome = uvm_policies::FaultOutcome::default();
        for i in 0..self.in_flight.len() {
            // Batched demand faults get distinct fault numbers; prefetched
            // pages ride on the last demand number.
            let p = self.in_flight[i];
            let n = fault_num + (i as u64).min(demand_count - 1);
            let o = self.policy.on_fault(p, n);
            if I::ENABLED {
                self.faulted_at.insert(p, self.fault_clock);
                self.fault_clock += 1;
            }
            outcome.transfer_bytes += o.transfer_bytes;
            outcome.driver_busy_cycles += o.driver_busy_cycles;
            outcome.lost_flushes += o.lost_flushes;
            outcome.wasted_transfer_bytes += o.wasted_transfer_bytes;
        }
        // StrategySwitch / HirFlush events raised inside on_fault.
        self.drain_policy_events();
        if let Some(r) = &mut self.resilience {
            let wasted = self.cfg.pcie_transfer_cycles(outcome.wasted_transfer_bytes);
            let res = &mut self.stats.resilience;
            r.after_fault(
                &mut self.policy,
                outcome.lost_flushes,
                wasted,
                fault_num,
                self.now,
                res,
            );
            self.drain_policy_events();
        }
        // Prefetched pages each pay their own PCIe transfer. Wasted flush
        // bytes are on the critical path too — the GPU side sent them
        // before learning the channel was dead.
        let prefetch_bytes = (self.in_flight.len() as u64 - 1) * uvm_types::PAGE_SIZE;
        let mut transfer = self.cfg.pcie_transfer_cycles(
            outcome.transfer_bytes + outcome.wasted_transfer_bytes + prefetch_bytes,
        );
        let mut service = self.cfg.fault_service_cycles();
        if let Some(r) = &mut self.resilience {
            (service, transfer) =
                r.perturb_service(service, transfer, self.now, &mut self.stats.resilience);
        }
        let duration = service + transfer;
        // Timeline attribution: the whole service window [now, now +
        // duration] splits exactly into the (possibly jittered) service
        // time, HIR flush transfer at the base PCIe rate, and the rest
        // of the (possibly congested) transfer — so the timeline
        // accounts conserve total cycles. Host-side eviction-decision
        // work overlaps the window (Section V-C) and goes to overlay.
        if I::ENABLED {
            let flush = self
                .cfg
                .pcie_transfer_cycles(outcome.transfer_bytes + outcome.wasted_transfer_bytes)
                .min(transfer);
            self.charge(CycleAccount::FaultService, service);
            self.charge(CycleAccount::HirFlush, flush);
            self.charge(CycleAccount::PcieTransfer, transfer - flush);
            self.charge(CycleAccount::EvictionDecision, outcome.driver_busy_cycles);
        }
        self.stats.driver.busy_cycles += duration + outcome.driver_busy_cycles;
        self.stats.driver.hit_transfer_cycles +=
            self.cfg.pcie_transfer_cycles(outcome.transfer_bytes);
        self.schedule(self.now + duration, EventKind::DriverDone(page));
        Ok(())
    }

    fn finish_fault(&mut self, page: PageId) -> Result<(), SimError> {
        debug_assert_eq!(self.in_service, Some(page));
        self.in_service = None;
        self.events_since_progress = 0;
        for i in 0..self.in_flight.len() {
            let p = self.in_flight[i];
            if self.memory.insert(p).is_err() {
                return Err(SimError::ResidencyOverflow {
                    page: p,
                    cycle: self.now,
                });
            }
            if let Some(r) = &mut self.resilience {
                r.touch(p);
            }
            self.emit(SimEvent::FaultServiced {
                time: self.now,
                page: p,
            });
            self.wake(p);
        }
        // Cleared, not dropped: the buffer serves every later fault.
        self.in_flight.clear();
        if self.memory.is_full() && !self.memory_full_notified {
            self.memory_full_notified = true;
            self.policy.on_memory_full();
            self.drain_policy_events();
            self.emit(SimEvent::MemoryFull { time: self.now });
        }
        if !self.fault_queue.is_empty() {
            self.schedule(self.now, EventKind::DriverPickup);
        }
        Ok(())
    }

    fn pickup_next_fault(&mut self) -> Result<(), SimError> {
        if self.in_service.is_some() {
            return Ok(());
        }
        while let Some(next) = self.fault_queue.pop_front() {
            if self.memory.is_resident(next) {
                // Satisfied by a prefetch while queued: wake the waiters.
                self.wake(next);
                continue;
            }
            self.start_fault_service(next)?;
            break;
        }
        Ok(())
    }

    /// Evicts a fallback victim — the LRU shadow's pick when one is
    /// installed, else the lowest-numbered resident page — accounting it
    /// and notifying the policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoVictimAvailable`] when nothing is resident.
    fn evict_fallback(&mut self) -> Result<PageId, SimError> {
        let pick = self
            .resilience
            .as_ref()
            .and_then(|r| r.fallback_pick(&self.memory));
        let Some(v) = pick.or_else(|| self.memory.min_resident()) else {
            return Err(SimError::NoVictimAvailable { cycle: self.now });
        };
        self.memory.remove(v);
        if I::ENABLED {
            self.faulted_at.remove(v);
        }
        self.stats.resilience.fallback_victims += 1;
        self.policy
            .on_disruption(SignalDisruption::ForcedEviction { page: v });
        Ok(v)
    }

    /// One sanitizer pass over the engine's structural invariants.
    /// Read-only by contract: nothing in the simulation (state, RNG,
    /// statistics) may change, so sanitized and unsanitized runs stay
    /// byte-identical.
    fn sanitize_check(&self) -> Result<(), SimError> {
        let cycle = self.now;
        let fail = |invariant: &'static str, detail: String| SimError::InvariantViolated {
            invariant,
            detail,
            cycle,
        };
        if self.memory.len() > self.memory.capacity() {
            return Err(fail(
                "residency-capacity",
                format!(
                    "{} pages resident in {} frames",
                    self.memory.len(),
                    self.memory.capacity()
                ),
            ));
        }
        // Pages are neither minted nor leaked: what is resident plus what
        // is mid-migration must equal what the driver ever moved in minus
        // what it evicted. Stated without subtraction so a corrupted
        // counter cannot hide behind saturation.
        let migrating = if self.in_service.is_some() {
            self.in_flight.len() as u64
        } else {
            0
        };
        let d = &self.stats.driver;
        if self.memory.len() + migrating + d.evictions != d.faults_serviced + d.prefetched_pages {
            return Err(fail(
                "residency-conservation",
                format!(
                    "resident {} + migrating {} + evicted {} != serviced {} + prefetched {}",
                    self.memory.len(),
                    migrating,
                    d.evictions,
                    d.faults_serviced,
                    d.prefetched_pages
                ),
            ));
        }
        if let Some(r) = &self.resilience {
            r.check_invariants(&self.memory)
                .map_err(|(invariant, detail)| fail(invariant, detail))?;
        }
        self.policy
            .check_invariants()
            .map_err(|detail| fail("policy-structure", detail))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::Backoff;
    use crate::{
        ideal_for, trace_for, EventCounters, EventLog, IntervalKey, IntervalSeries, ProfileConfig,
        Profiler,
    };
    use uvm_policies::{Lru, RandomPolicy};
    use uvm_types::Oversubscription;
    use uvm_workloads::registry;
    use FallbackVictim::MinPage;

    fn tiny_cfg(n_sms: u32, warps: u32) -> SimConfig {
        SimConfig::builder()
            .n_sms(n_sms)
            .warps_per_sm(warps)
            .l1_tlb(uvm_types::TlbConfig {
                entries: 4,
                ways: 4,
                latency_cycles: 1,
            })
            .l2_tlb(uvm_types::TlbConfig {
                entries: 8,
                ways: 4,
                latency_cycles: 10,
            })
            .build()
            .unwrap()
    }

    fn run_lru(global: &[u64], footprint: u64, capacity: u64, streams: u32) -> SimStats {
        let cfg = tiny_cfg(streams, 1);
        let trace = Trace::from_global(global, footprint, 2, streams, 4);
        Simulation::new(cfg, &trace, Lru::new(), capacity)
            .unwrap()
            .run()
            .unwrap()
            .stats
    }

    #[test]
    fn unconstrained_memory_faults_once_per_page() {
        let global: Vec<u64> = (0..50).chain(0..50).collect();
        let stats = run_lru(&global, 50, 64, 2);
        assert_eq!(stats.faults(), 50);
        assert_eq!(stats.evictions(), 0);
        assert_eq!(stats.mem_accesses, 100);
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn cyclic_sweep_under_lru_thrashes() {
        // 40 pages, capacity 30, 4 sweeps: after the first sweep every
        // reference misses under LRU (reuse distance 40 > 30).
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let stats = run_lru(&global, 40, 30, 1);
        assert_eq!(stats.faults(), 160);
        assert_eq!(stats.evictions(), 130);
        assert!(stats.driver.wrong_evictions > 0);
    }

    #[test]
    fn instructions_counted_once_despite_replays() {
        let global: Vec<u64> = (0..20u64).cycle().take(60).collect();
        let stats = run_lru(&global, 20, 10, 2);
        // 60 ops, compute 2 each -> exactly 180 instructions regardless of
        // how many faults were replayed.
        assert_eq!(stats.mem_accesses, 60);
        assert_eq!(stats.instructions, 180);
    }

    #[test]
    fn more_warps_overlap_faults() {
        // With one warp, every fault serializes against execution; with
        // eight warps the 20 us services overlap with other warps' work...
        let global: Vec<u64> = (0..400u64).collect();
        let serial = run_lru(&global, 400, 500, 1);
        let parallel = run_lru(&global, 400, 500, 8);
        assert_eq!(serial.faults(), parallel.faults());
        assert!(
            parallel.cycles < serial.cycles,
            "parallel {} !< serial {}",
            parallel.cycles,
            serial.cycles
        );
    }

    #[test]
    fn fault_coalescing_services_each_page_once() {
        // All eight warps hammer the same few pages: each page must be
        // serviced exactly once even though many warps fault on it.
        let global: Vec<u64> = std::iter::repeat(0..4u64).flatten().take(64).collect();
        let cfg = tiny_cfg(2, 4);
        let trace = Trace::from_global(&global, 4, 0, 8, 1);
        let stats = Simulation::new(cfg, &trace, Lru::new(), 16)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        assert_eq!(stats.faults(), 4);
    }

    #[test]
    fn driver_core_load_is_bounded() {
        let global: Vec<u64> = (0..60u64).cycle().take(240).collect();
        let stats = run_lru(&global, 60, 45, 4);
        let load = stats.driver.core_load(stats.cycles);
        assert!(load > 0.0 && load <= 1.0, "load {load}");
    }

    #[test]
    fn ideal_never_faults_more_than_lru_full_stack() {
        let cfg = SimConfig::scaled_default();
        for abbr in ["STN", "NW"] {
            let app = registry::by_abbr(abbr).unwrap();
            let trace = trace_for(&cfg, app);
            let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
            let lru = Simulation::new(cfg.clone(), &trace, Lru::new(), capacity)
                .unwrap()
                .run()
                .unwrap()
                .stats;
            let ideal = Simulation::new(cfg.clone(), &trace, ideal_for(&trace), capacity)
                .unwrap()
                .run()
                .unwrap()
                .stats;
            assert!(
                ideal.faults() <= lru.faults(),
                "{abbr}: ideal {} > lru {}",
                ideal.faults(),
                lru.faults()
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let app = registry::by_abbr("STN").unwrap();
        let cfg = SimConfig::scaled_default();
        let trace = trace_for(&cfg, app);
        let run = || {
            Simulation::new(cfg.clone(), &trace, RandomPolicy::seeded(5), 576)
                .unwrap()
                .run()
                .unwrap()
                .stats
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejects_too_many_streams() {
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&[0, 1], 2, 0, 2, 1);
        assert!(Simulation::new(cfg, &trace, Lru::new(), 4).is_err());
    }

    #[test]
    fn rejects_zero_capacity() {
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&[0], 1, 0, 1, 1);
        assert!(Simulation::new(cfg, &trace, Lru::new(), 0).is_err());
    }

    #[test]
    fn tlb_stats_accumulate() {
        // Each page: one faulting walk + one replay walk that hits and
        // fills the TLBs; re-touches within TLB reach are L1 hits.
        let global: Vec<u64> = vec![0, 0, 0, 1, 1, 1];
        let stats = run_lru(&global, 2, 4, 1);
        assert_eq!(stats.walks, 4);
        assert_eq!(stats.walk_hits, 2);
        assert_eq!(stats.tlb.l1_hits, 4);
    }

    #[test]
    fn event_log_instrument_records_timeline() {
        let global: Vec<u64> = (0..12u64).cycle().take(36).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 12, 0, 2, 3);
        let sim = Simulation::new(cfg, &trace, Lru::new(), 8).unwrap();
        let outcome = sim.instrument(EventLog::new()).run().unwrap();
        let (stats, log) = (outcome.stats, outcome.instrument);
        let counters = EventCounters::of(&log);
        assert_eq!(counters.faults_raised, stats.faults());
        assert_eq!(counters.evictions, stats.evictions());
        // Events are in nondecreasing time order.
        assert!(log.windows(2).all(|w| w[0].time() <= w[1].time()));
        // MemoryFull appears exactly once.
        assert_eq!(counters.memory_full, 1);
        // The fault-rate series accounts for every fault.
        let key = IntervalKey::Cycles(std::num::NonZeroU64::new(28_000).unwrap());
        let series = IntervalSeries::of(&log, key);
        let faults: u64 = series.rows().iter().map(|r| r.faults).sum();
        assert_eq!(faults, stats.faults());
    }

    #[test]
    fn instrument_sees_policy_decision_events() {
        let global: Vec<u64> = (0..24u64).cycle().take(96).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 24, 0, 2, 3);
        let sim = Simulation::new(cfg, &trace, Lru::new(), 12).unwrap();
        let outcome = sim.instrument(EventLog::new()).run().unwrap();
        let (stats, log) = (outcome.stats, outcome.instrument);
        // Every eviction is preceded by a VictimSelected for the same
        // page, recorded by the engine for a bare baseline.
        let mut pending_victim = None;
        let mut victims = 0u64;
        for e in &log {
            match *e {
                SimEvent::VictimSelected { page, .. } => {
                    pending_victim = Some(page);
                    victims += 1;
                }
                SimEvent::Eviction { page, .. } => {
                    assert_eq!(pending_victim.take(), Some(page));
                }
                _ => {}
            }
        }
        assert_eq!(victims, stats.evictions());
        // Page walks were reported, including the faulting ones.
        assert_eq!(EventCounters::of(&log).page_walks, stats.walks);
        // Wrong evictions carry a distance within the window.
        let wrong: Vec<u64> = log
            .iter()
            .filter_map(|e| match *e {
                SimEvent::WrongEviction {
                    refault_distance, ..
                } => Some(refault_distance),
                _ => None,
            })
            .collect();
        assert_eq!(wrong.len() as u64, stats.driver.wrong_evictions);
        assert!(wrong
            .iter()
            .all(|&d| d >= 1 && d <= WRONG_EVICTION_WINDOW as u64));
    }

    #[test]
    fn victim_events_carry_comparisons_and_fault_clock_ages() {
        use std::collections::HashMap;
        use uvm_policies::{Rrip, RripConfig};
        use uvm_types::StrategyTag;

        // Prefetched pages ride on their demand fault's number; a victim's
        // age counts the `on_fault` calls (pages landed) since its own.
        let global: Vec<u64> = (0..24u64).cycle().take(96).collect();
        let mut cfg = tiny_cfg(2, 1);
        cfg.prefetch_pages = 2;
        let trace = Trace::from_global(&global, 24, 0, 2, 3);
        let rrip = Rrip::new(RripConfig::default());
        let outcome = Simulation::new(cfg, &trace, rrip, 12)
            .unwrap()
            .instrument(EventLog::new())
            .run()
            .unwrap();
        let (mut landed, mut landed_at) = (0u64, HashMap::new());
        let (mut victims, mut comparisons) = (0u64, 0u64);
        for e in &outcome.instrument {
            match *e {
                SimEvent::FaultServiced { page, .. } => {
                    landed_at.insert(page, landed);
                    landed += 1;
                }
                SimEvent::VictimSelected {
                    page,
                    strategy,
                    search_comparisons,
                    victim_age,
                    ..
                } => {
                    assert_eq!(strategy, StrategyTag::Native);
                    assert!(search_comparisons > 0, "RRIP compares per victim");
                    assert_eq!(victim_age, landed - landed_at[&page], "victim {page}");
                    victims += 1;
                    comparisons += search_comparisons;
                }
                _ => {}
            }
        }
        let stats = outcome.stats;
        assert!(stats.driver.prefetched_pages > 0);
        assert_eq!(victims, stats.evictions());
        // The per-victim deltas add up to the policy's own count.
        assert_eq!(comparisons, stats.policy.search_comparisons);
    }

    #[test]
    fn attaching_instrument_does_not_change_stats() {
        let global: Vec<u64> = (0..30u64).cycle().take(120).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 30, 0, 2, 3);
        let sim = || Simulation::new(cfg.clone(), &trace, Lru::new(), 20).unwrap();
        let plain = sim().run().unwrap().stats;
        let logged = sim().instrument(EventLog::new()).run().unwrap().stats;
        assert_eq!(plain, logged);
    }

    #[test]
    fn prefetch_reduces_demand_faults_on_streaming() {
        let global: Vec<u64> = (0..200u64).collect();
        let trace = Trace::from_global(&global, 200, 2, 2, 4);
        let mut cfg = tiny_cfg(2, 1);
        let base = Simulation::new(cfg.clone(), &trace, Lru::new(), 250)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        assert_eq!(base.faults(), 200);
        cfg.prefetch_pages = 4;
        let pf = Simulation::new(cfg, &trace, Lru::new(), 250)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        assert!(
            pf.faults() < 80,
            "prefetch should absorb most demand faults, got {}",
            pf.faults()
        );
        assert!(pf.driver.prefetched_pages > 100);
        // All 200 pages became resident one way or the other.
        assert_eq!(pf.faults() + pf.driver.prefetched_pages, 200);
        assert!(pf.cycles < base.cycles, "fewer 20us services -> faster");
    }

    #[test]
    fn prefetch_respects_capacity_and_footprint() {
        // Footprint 20, capacity 8, heavy prefetch: residency accounting
        // must hold and prefetches never exceed the footprint.
        let global: Vec<u64> = (0..20u64).cycle().take(100).collect();
        let trace = Trace::from_global(&global, 20, 0, 2, 2);
        let mut cfg = tiny_cfg(2, 1);
        cfg.prefetch_pages = 8;
        let stats = Simulation::new(cfg, &trace, Lru::new(), 8)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        audit(&stats, trace.total_ops(), 8, None).unwrap();
        let inserted = stats.faults() + stats.driver.prefetched_pages;
        assert!(inserted > stats.evictions());
    }

    #[test]
    fn fault_batching_amortizes_service_time() {
        // Eight warps streaming disjoint pages fill the fault queue; with
        // batching the driver clears several per 20 us window.
        let global: Vec<u64> = (0..320u64).collect();
        let trace = Trace::from_global(&global, 320, 0, 8, 1);
        let mut cfg = tiny_cfg(2, 4);
        let base = Simulation::new(cfg.clone(), &trace, Lru::new(), 400)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        cfg.fault_batch = 8;
        let batched = Simulation::new(cfg, &trace, Lru::new(), 400)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        // Same demand faults either way; far fewer service windows.
        assert_eq!(base.faults(), 320);
        assert_eq!(batched.faults(), 320);
        assert_eq!(batched.driver.prefetched_pages, 0);
        assert!(
            batched.cycles < base.cycles / 2,
            "batching should at least halve runtime: {} vs {}",
            batched.cycles,
            base.cycles
        );
    }

    #[test]
    fn fault_batch_larger_than_capacity_is_safe() {
        let global: Vec<u64> = (0..64u64).cycle().take(256).collect();
        let trace = Trace::from_global(&global, 64, 0, 8, 1);
        let mut cfg = tiny_cfg(2, 4);
        cfg.fault_batch = 256;
        let stats = Simulation::new(cfg, &trace, Lru::new(), 8)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        audit(&stats, trace.total_ops(), 8, None).unwrap();
    }

    /// A broken policy that never offers a victim: exercises the engine's
    /// deterministic fallback eviction.
    struct NoVictim;

    impl EvictionPolicy for NoVictim {
        fn name(&self) -> String {
            "NoVictim".to_string()
        }
        fn on_fault(&mut self, _page: PageId, _n: u64) -> uvm_policies::FaultOutcome {
            uvm_policies::FaultOutcome::default()
        }
        fn select_victim(&mut self) -> Option<PageId> {
            None
        }
    }

    #[test]
    fn fallback_victim_keeps_broken_policy_running() {
        let global: Vec<u64> = (0..20u64).cycle().take(80).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 20, 0, 2, 2);
        let stats = Simulation::new(cfg, &trace, NoVictim, 8)
            .unwrap()
            .run()
            .expect("fallback keeps the run alive")
            .stats;
        assert!(stats.evictions() > 0);
        assert_eq!(stats.resilience.fallback_victims, stats.evictions());
        audit(&stats, trace.total_ops(), 8, None).unwrap();
    }

    /// A broken policy that offers a victim outside the footprint, past
    /// the end of every page-indexed table the engine keeps.
    #[derive(Debug)]
    struct OutOfFootprint(PageId);

    impl EvictionPolicy for OutOfFootprint {
        fn name(&self) -> String {
            "OutOfFootprint".to_string()
        }
        fn on_fault(&mut self, _page: PageId, _n: u64) -> uvm_policies::FaultOutcome {
            uvm_policies::FaultOutcome::default()
        }
        fn select_victim(&mut self) -> Option<PageId> {
            Some(self.0)
        }
    }

    #[test]
    fn victim_outside_footprint_is_a_typed_error_not_a_panic() {
        let footprint = 20u64;
        let global: Vec<u64> = (0..footprint).cycle().take(80).collect();
        let trace = Trace::from_global(&global, footprint, 0, 2, 2);
        for victim in [PageId(footprint + 1000), PageId(u64::MAX)] {
            let sim = Simulation::new(tiny_cfg(2, 1), &trace, OutOfFootprint(victim), 8).unwrap();
            match sim.run() {
                Err(SimError::NonResidentVictim { page, .. }) => assert_eq!(page, victim),
                other => panic!("expected NonResidentVictim for {victim}, got {other:?}"),
            }
        }
    }

    #[test]
    fn latency_chaos_completes_and_reports_injection() {
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 0, 2, 3);
        let plan = FaultPlan::latency_storm(11);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_resilience(Some(plan.clone()), None, MinPage)
            .unwrap();
        let stats = sim.run().expect("chaos run completes").stats;
        assert!(stats.resilience.any());
        assert!(stats.resilience.injected_delay_cycles > 0);
        // Latency chaos does not change what migrates or what is evicted.
        audit(&stats, trace.total_ops(), 30, Some(&plan)).unwrap();
    }

    #[test]
    fn injected_livelock_is_reported_as_stalled() {
        let global: Vec<u64> = (0..10u64).collect();
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&global, 10, 0, 1, 1);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 16).unwrap();
        sim.set_resilience(Some(FaultPlan::livelock(1)), None, MinPage)
            .unwrap();
        match sim.run() {
            Err(SimError::Stalled { in_flight, .. }) => assert!(in_flight >= 1),
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn retry_policy_turns_livelock_into_retries_exhausted() {
        let global: Vec<u64> = (0..10u64).collect();
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&global, 10, 0, 1, 1);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 16).unwrap();
        let rp = RetryPolicy::Fixed(Backoff {
            max_attempts: 5,
            ..Backoff::default()
        });
        sim.set_resilience(Some(FaultPlan::livelock(1)), Some(rp), MinPage)
            .unwrap();
        match sim.run() {
            Err(SimError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 5),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn retry_backoff_completes_bounded_loss_and_is_counted() {
        let global: Vec<u64> = (0..40u64).cycle().take(120).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 0, 2, 3);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        let plan = Some(FaultPlan::completion_loss(7));
        sim.set_resilience(plan, Some(RetryPolicy::default()), MinPage)
            .unwrap();
        let stats = sim.run().expect("backoff still delivers").stats;
        assert!(stats.resilience.completions_lost > 0);
        assert_eq!(
            stats.resilience.retry_attempts, stats.resilience.completions_lost,
            "every loss goes through the backoff schedule"
        );
        assert!(stats.resilience.retry_backoff_cycles >= stats.resilience.retry_attempts * 2_000);
    }

    #[test]
    fn invalid_retry_policy_is_rejected() {
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&[0], 1, 0, 1, 1);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 4).unwrap();
        let bad = RetryPolicy::Fixed(Backoff {
            max_attempts: 0,
            ..Backoff::default()
        });
        assert!(sim.set_resilience(None, Some(bad), MinPage).is_err());
    }

    #[test]
    fn adaptive_retry_backs_off_harder_under_loss() {
        let global: Vec<u64> = (0..40u64).cycle().take(120).collect();
        let run = |rp: RetryPolicy| {
            let cfg = tiny_cfg(2, 1);
            let trace = Trace::from_global(&global, 40, 0, 2, 3);
            let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
            sim.set_resilience(Some(FaultPlan::completion_loss(7)), Some(rp), MinPage)
                .unwrap();
            sim.run().expect("bounded loss still completes").stats
        };
        let fixed = run(RetryPolicy::default());
        let adaptive = run(RetryPolicy::adaptive());
        assert!(fixed.resilience.completions_lost > 0);
        assert!(adaptive.resilience.completions_lost > 0);
        // The observed loss raises the adaptive base, so the mean backoff per
        // retry must exceed the fixed schedule's (both start at the same
        // base and cap).
        let mean = |s: &SimStats| s.resilience.retry_backoff_cycles / s.resilience.retry_attempts;
        assert!(
            mean(&adaptive) > mean(&fixed),
            "adaptive mean backoff {} !> fixed mean backoff {}",
            mean(&adaptive),
            mean(&fixed)
        );
        // Identical inputs replay identically under the adaptive estimator.
        assert_eq!(run(RetryPolicy::adaptive()), adaptive);
    }

    #[test]
    fn lru_shadow_fallback_tracks_recency() {
        // NoVictim forces every eviction through the fallback path. Under
        // the LRU shadow, re-touched pages must not be the next victims.
        let global: Vec<u64> = (0..20u64).cycle().take(80).collect();
        let run = |fallback: FallbackVictim| {
            let cfg = tiny_cfg(2, 1);
            let trace = Trace::from_global(&global, 20, 0, 2, 2);
            let mut sim = Simulation::new(cfg, &trace, NoVictim, 8).unwrap();
            sim.set_resilience(None, None, fallback).unwrap();
            sim.run().expect("fallback keeps the run alive").stats
        };
        let min_page = run(MinPage);
        let shadow = run(FallbackVictim::LruShadow);
        assert_eq!(
            min_page.resilience.fallback_victims,
            min_page.evictions(),
            "every eviction is a fallback"
        );
        assert_eq!(shadow.resilience.fallback_victims, shadow.evictions());
        // A cyclic sweep makes the two victim orders genuinely different.
        assert_ne!(
            min_page.faults(),
            shadow.faults(),
            "recency-aware fallback changes the eviction pattern"
        );
    }

    #[test]
    fn victim_drops_force_fallback_evictions_and_complete() {
        let global: Vec<u64> = (0..40u64).cycle().take(200).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 0, 2, 3);
        let plan = FaultPlan::victim_drop(3);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_resilience(Some(plan.clone()), None, MinPage)
            .unwrap();
        let stats = sim.run().expect("dropped victims are tolerated").stats;
        assert!(stats.resilience.victims_dropped > 0, "injection fired");
        assert!(
            stats.resilience.fallback_victims >= stats.resilience.victims_dropped,
            "each drop (and each later stale offer) falls back"
        );
        audit(&stats, trace.total_ops(), 30, Some(&plan)).unwrap();
    }

    #[test]
    fn checkpoint_resume_reproduces_straight_run() {
        let global: Vec<u64> = (0..40u64).cycle().take(200).collect();
        let build = || {
            let cfg = tiny_cfg(2, 1);
            let trace = Trace::from_global(&global, 40, 0, 2, 3);
            let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
            sim.set_resilience(Some(FaultPlan::latency_storm(11)), None, MinPage)
                .unwrap();
            sim
        };
        let straight = build().run().unwrap().stats;

        // Pause mid-run, snapshot, rebuild from the same inputs, resume.
        let mut first = build();
        let done = first.run_until(400_000).unwrap();
        assert!(!done, "pause point must fall inside the run");
        let ckpt = first.checkpoint();
        assert_eq!(ckpt.cycle, 400_000);

        let mut resumed = build();
        resumed
            .resume(&ckpt)
            .expect("same inputs replay identically");
        let stats = resumed.finish().unwrap().stats;
        assert_eq!(stats, straight, "resume must not change the run");
    }

    #[test]
    fn resume_with_different_inputs_reports_divergence() {
        let global: Vec<u64> = (0..40u64).cycle().take(200).collect();
        let build = |seed: u64| {
            let cfg = tiny_cfg(2, 1);
            let trace = Trace::from_global(&global, 40, 0, 2, 3);
            let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
            sim.set_resilience(Some(FaultPlan::latency_storm(seed)), None, MinPage)
                .unwrap();
            sim
        };
        let mut first = build(11);
        assert!(!first.run_until(400_000).unwrap());
        let ckpt = first.checkpoint();
        // Different fault-plan seed -> different RNG stream -> divergence.
        let mut other = build(12);
        match other.resume(&ckpt) {
            Err(SimError::CheckpointDiverged { cycle }) => assert_eq!(cycle, 400_000),
            other => panic!("expected CheckpointDiverged, got {other:?}"),
        }
    }

    #[test]
    fn run_until_past_end_completes_and_finish_matches_run() {
        let global: Vec<u64> = (0..20u64).cycle().take(60).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 20, 0, 2, 2);
        let straight = Simulation::new(cfg.clone(), &trace, Lru::new(), 10)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 10).unwrap();
        assert!(sim.run_until(u64::MAX).unwrap(), "queue drains");
        let stats = sim.finish().unwrap().stats;
        assert_eq!(stats, straight);
    }

    #[test]
    fn bounded_completion_loss_still_completes() {
        let global: Vec<u64> = (0..40u64).cycle().take(120).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 0, 2, 3);
        let clean = Simulation::new(cfg.clone(), &trace, Lru::new(), 30)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_resilience(Some(FaultPlan::completion_loss(7)), None, MinPage)
            .unwrap();
        let lossy = sim.run().expect("bounded retries always deliver").stats;
        assert!(lossy.resilience.completions_lost > 0);
        assert_eq!(lossy.faults(), clean.faults(), "losses delay, not drop");
        assert!(lossy.cycles > clean.cycles, "each loss costs retry cycles");
    }

    #[test]
    fn replayed_access_hits_page_table_after_migration() {
        // One page, capacity ample: the faulting warp replays and the walk
        // then hits (counted as a walk hit, reported to the policy).
        let global: Vec<u64> = vec![0, 1];
        let stats = run_lru(&global, 2, 4, 1);
        assert_eq!(stats.faults(), 2);
        // Each fault's replay re-walks and hits.
        assert_eq!(stats.walk_hits, 2);
        assert_eq!(stats.walks, 4);
    }

    #[test]
    fn sanitizer_on_leaves_stats_byte_identical() {
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 2, 2, 4);
        let plain = Simulation::new(cfg.clone(), &trace, Lru::new(), 30)
            .unwrap()
            .run()
            .unwrap()
            .stats;
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_sanitizer(Sanitizer::new(1)); // check after every event
        assert!(sim.run_until(u64::MAX).unwrap());
        let checks = sim.sanitizer().unwrap().checks_run();
        assert!(checks > 0, "cadence-1 sanitizer must have run");
        let sanitized = sim.finish().unwrap().stats;
        assert_eq!(
            sanitized.to_json().to_string(),
            plain.to_json().to_string(),
            "sanitizer must be read-only"
        );
    }

    #[test]
    fn sanitizer_runs_under_lru_shadow_fallback() {
        let global: Vec<u64> = (0..30u64).cycle().take(90).collect();
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&global, 30, 0, 1, 3);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 20).unwrap();
        sim.set_resilience(None, None, FallbackVictim::LruShadow)
            .unwrap();
        sim.set_sanitizer(Sanitizer::new(1));
        let stats = sim.run().unwrap().stats;
        assert!(stats.faults() > 0);
    }

    #[test]
    fn profiler_timeline_conserves_total_cycles() {
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 2, 2, 4);
        let sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        let outcome = sim
            .instrument(Profiler::new(ProfileConfig::new(50_000)))
            .run()
            .unwrap();
        let profile = outcome.instrument.finalize(outcome.stats.cycles, 30);
        assert_eq!(profile.total_cycles, outcome.stats.cycles);
        assert_eq!(
            profile.timeline_sum(),
            outcome.stats.cycles,
            "timeline accounts must partition the run exactly"
        );
        assert!(profile.account(CycleAccount::FaultService) > 0);
        // LRU moves no HIR bytes, and single-page demand batches carry no
        // prefetch transfer: both PCIe accounts stay empty here (HPE runs
        // populate them; see the bench-level conservation test).
        assert_eq!(profile.account(CycleAccount::PcieTransfer), 0);
        assert_eq!(profile.account(CycleAccount::HirFlush), 0);
        assert!(
            profile.driver_idle() > 0,
            "SM-side work between batches leaves the driver idle"
        );
        // Overlay accounts observe concurrent work without entering the sum.
        assert!(profile.account(CycleAccount::SmStall) > 0);
        assert!(profile.account(CycleAccount::SmTlb) > 0);
        assert!(profile.account(CycleAccount::PageWalk) > 0);
        // Span lifecycle: every raised fault opened a span and every span
        // closed; wrong evictions classify spans as re-faults.
        assert!(profile.spans.opened > 0);
        assert_eq!(profile.spans.completed, profile.spans.opened);
        assert_eq!(
            profile.spans.refault_spans, outcome.stats.driver.wrong_evictions,
            "span refault classification must match the engine's"
        );
        // The metrics registry sampled on cadence.
        assert!(!profile.series.samples.is_empty());
        assert_eq!(profile.series.cadence, 50_000);
    }

    #[test]
    fn profiler_on_leaves_stats_byte_identical() {
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let cfg = tiny_cfg(2, 1);
        let trace = Trace::from_global(&global, 40, 2, 2, 4);
        let plain = Simulation::new(cfg.clone(), &trace, Lru::new(), 30)
            .unwrap()
            .run()
            .unwrap();
        let profiled = Simulation::new(cfg, &trace, Lru::new(), 30)
            .unwrap()
            .instrument(Profiler::new(ProfileConfig::new(1)))
            .run()
            .unwrap();
        assert_eq!(
            profiled.stats.to_json().to_string(),
            plain.stats.to_json().to_string(),
            "profiler must be observation-only"
        );
    }

    #[test]
    fn corrupted_residency_surfaces_typed_error_not_panic() {
        let global: Vec<u64> = (0..40u64).cycle().take(160).collect();
        let cfg = tiny_cfg(1, 1);
        let trace = Trace::from_global(&global, 40, 2, 1, 4);
        let mut sim = Simulation::new(cfg, &trace, Lru::new(), 30).unwrap();
        sim.set_sanitizer(Sanitizer::new(1));
        assert!(sim.run_until(u64::MAX).unwrap());
        assert!(!sim.memory.is_empty());
        // Corrupt the resident set behind the driver's accounting.
        let page = sim.memory.min_resident().unwrap();
        sim.memory.remove(page);
        match sim.finish() {
            Err(SimError::InvariantViolated {
                invariant, detail, ..
            }) => {
                assert_eq!(invariant, "residency-conservation");
                assert!(detail.contains("resident"), "detail {detail:?}");
            }
            other => panic!("expected InvariantViolated, got {other:?}"),
        }
    }
}
