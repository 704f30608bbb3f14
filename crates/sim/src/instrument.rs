//! The instrumentation hook: one ordered stream out of a simulation run.
//!
//! A [`crate::Simulation`] carries one [`Instrument`] by value and feeds
//! it, in engine order, the public [`SimEvent`]s (faults, evictions,
//! walks, policy decisions) and, beside them, the [`Probe`]s only the
//! profiler reads (cycle charges, warp stalls, retries, metric samples).
//! `()` is the no-op instrument: the engine is generic over the hook,
//! so an uninstrumented run compiles the stream away. Pairs fan the
//! stream out to each member in order. [`EventLog`] records the
//! events; every trace summary is computed from that recording.

use uvm_types::{CycleAccount, PageId, PolicyEvent, StrategyTag};
use uvm_util::json::field;
use uvm_util::strict::reject_unknown_keys;
use uvm_util::{FromJson, Json, JsonError, ToJson};

use crate::profile::MetricsSample;

/// Receives a simulation's instrumentation stream.
///
/// Events and probes arrive interleaved in the order the engine
/// produces them. Instruments observe only: nothing they do can reach
/// the engine or the policy, so an instrumented run's
/// [`uvm_types::SimStats`] are byte-identical to an uninstrumented one's.
///
/// # Examples
///
/// ```
/// use uvm_policies::Lru;
/// use uvm_sim::{EventCounters, EventLog, ProfileConfig, Profiler, Simulation};
/// use uvm_types::SimConfig;
/// use uvm_workloads::Trace;
///
/// let cfg = SimConfig::builder().n_sms(1).warps_per_sm(1).build()?;
/// let trace = Trace::from_global(&[0, 1, 2, 0], 3, 0, 1, 1);
/// let sim = Simulation::new(cfg, &trace, Lru::new(), 2)?;
/// let outcome = sim
///     .instrument((EventLog::new(), Profiler::new(ProfileConfig::default())))
///     .run()?;
/// let (log, profiler) = outcome.instrument;
/// let profile = profiler.finalize(outcome.stats.cycles, 2);
/// assert_eq!(EventCounters::of(&log).faults_raised, profile.spans.opened);
/// # Ok::<(), uvm_types::SimError>(())
/// ```
pub trait Instrument {
    /// Whether the engine produces the stream at all: `false` for `()`
    /// (and a pair of disabled instruments). The same constant gates the
    /// policy's decision tracing and the wrong-eviction distance scan.
    const ENABLED: bool = true;

    /// Called for every paging event in simulated-time order.
    fn on_event(&mut self, event: SimEvent);

    /// Called for every profiler probe, in stream order with the events,
    /// stamped with the simulated cycle `time`.
    fn on_probe(&mut self, time: u64, probe: Probe) {
        let _ = (time, probe);
    }

    /// Whether the instrument wants a [`Probe::Sample`] of engine state
    /// at cycle `now`. Asked once per engine event.
    fn sample_due(&self, now: u64) -> bool {
        let _ = now;
        false
    }
}

/// The no-op instrument: the engine emits nothing and pays nothing.
impl Instrument for () {
    const ENABLED: bool = false;

    fn on_event(&mut self, _: SimEvent) {}
}

/// Fans the stream out to both members, first then second; nest pairs
/// for more.
impl<A: Instrument, B: Instrument> Instrument for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_event(&mut self, event: SimEvent) {
        self.0.on_event(event);
        self.1.on_event(event);
    }

    fn on_probe(&mut self, time: u64, probe: Probe) {
        self.0.on_probe(time, probe);
        self.1.on_probe(time, probe);
    }

    fn sample_due(&self, now: u64) -> bool {
        self.0.sample_due(now) || self.1.sample_due(now)
    }
}

/// A profiler probe: engine-internal detail that rides in the stream
/// beside the public [`SimEvent`]s but is never serialized with them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// Simulated cycles charged to a component×phase account.
    Charge {
        /// The account charged.
        account: CycleAccount,
        /// Cycles charged.
        cycles: u64,
    },
    /// Another warp coalesced onto the pending fault on `page`.
    Coalesce {
        /// The pending page.
        page: PageId,
    },
    /// A warp stalled on a page fault.
    WarpStalled {
        /// Warp index.
        warp: usize,
    },
    /// A stalled warp replayed its faulted op.
    WarpResumed {
        /// Warp index.
        warp: usize,
    },
    /// A demand fault left the queue and entered service.
    ServiceStart {
        /// The demand page.
        page: PageId,
    },
    /// The completion signal for the in-service `page` was lost; the
    /// driver retries after `delay` cycles.
    Retry {
        /// The in-service demand page.
        page: PageId,
        /// Backoff before the retry, in cycles.
        delay: u64,
    },
    /// A snapshot of engine state, taken when
    /// [`Instrument::sample_due`] asked for one (its `cycle` is stamped
    /// by the consumer).
    Sample(MetricsSample),
}

/// One paging event, stamped with the simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A warp raised a page fault (first fault for this page; coalesced
    /// faults are not re-reported).
    FaultRaised {
        /// Simulated cycle.
        time: u64,
        /// Faulting page.
        page: PageId,
    },
    /// The driver finished migrating a page (it is now resident).
    FaultServiced {
        /// Simulated cycle.
        time: u64,
        /// Migrated page.
        page: PageId,
    },
    /// A page was evicted from GPU memory.
    Eviction {
        /// Simulated cycle.
        time: u64,
        /// Evicted page.
        page: PageId,
    },
    /// GPU memory reached capacity for the first time.
    MemoryFull {
        /// Simulated cycle.
        time: u64,
    },
    /// The page-table walker resolved a translation missing from both
    /// TLB levels.
    PageWalk {
        /// Simulated cycle.
        time: u64,
        /// Walked page.
        page: PageId,
        /// Whether the page was resident (a walk hit); `false` means the
        /// walk escalates to a page fault.
        hit: bool,
    },
    /// The driver migrated a page speculatively (sequential prefetch)
    /// alongside the demand fault being serviced.
    PrefetchIssued {
        /// Simulated cycle.
        time: u64,
        /// Prefetched page.
        page: PageId,
    },
    /// A fault was raised on a recently evicted page (the driver-level
    /// wrong-eviction diagnostic).
    WrongEviction {
        /// Simulated cycle.
        time: u64,
        /// Re-faulting page.
        page: PageId,
        /// Evictions between this page's eviction and its re-fault
        /// (1 = it was the most recent eviction).
        refault_distance: u64,
    },
    /// The policy offered an eviction victim. The engine records it for
    /// every policy, just before the [`SimEvent::Eviction`] it causes.
    VictimSelected {
        /// Simulated cycle.
        time: u64,
        /// The page the policy offered.
        page: PageId,
        /// Strategy that made the choice
        /// ([`EvictionPolicy::victim_strategy`](uvm_policies::EvictionPolicy::victim_strategy)).
        strategy: StrategyTag,
        /// Entry comparisons spent finding this victim (the rise of the
        /// policy's `search_comparisons` since the last victim).
        search_comparisons: u64,
        /// `on_fault` calls since the victim's last one (0 when the engine
        /// never saw it fault in).
        victim_age: u64,
    },
    /// Dynamic adjustment switched the active eviction strategy
    /// ([`PolicyEvent::StrategySwitch`], stamped).
    StrategySwitch {
        /// Simulated cycle.
        time: u64,
        /// Strategy before the switch.
        from: StrategyTag,
        /// Strategy after the switch.
        to: StrategyTag,
        /// Classification ratio₁ in force at the switch.
        ratio1: f64,
        /// Classification ratio₂ in force at the switch.
        ratio2: f64,
        /// Global fault number of the switch.
        fault_num: u64,
    },
    /// The GPU-side HIR cache flushed its records to the driver
    /// ([`PolicyEvent::HirFlush`], stamped).
    HirFlush {
        /// Simulated cycle.
        time: u64,
        /// Records transferred in this flush.
        entries: u64,
        /// Insertions lost to way conflicts since the previous flush.
        dropped: u64,
    },
}

impl SimEvent {
    /// The simulated cycle of the event.
    pub fn time(&self) -> u64 {
        match *self {
            SimEvent::FaultRaised { time, .. }
            | SimEvent::FaultServiced { time, .. }
            | SimEvent::Eviction { time, .. }
            | SimEvent::MemoryFull { time }
            | SimEvent::PageWalk { time, .. }
            | SimEvent::PrefetchIssued { time, .. }
            | SimEvent::WrongEviction { time, .. }
            | SimEvent::VictimSelected { time, .. }
            | SimEvent::StrategySwitch { time, .. }
            | SimEvent::HirFlush { time, .. } => time,
        }
    }

    /// The event's kind as a stable string (the JSONL discriminator).
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::FaultRaised { .. } => "FaultRaised",
            SimEvent::FaultServiced { .. } => "FaultServiced",
            SimEvent::Eviction { .. } => "Eviction",
            SimEvent::MemoryFull { .. } => "MemoryFull",
            SimEvent::PageWalk { .. } => "PageWalk",
            SimEvent::PrefetchIssued { .. } => "PrefetchIssued",
            SimEvent::WrongEviction { .. } => "WrongEviction",
            SimEvent::VictimSelected { .. } => "VictimSelected",
            SimEvent::StrategySwitch { .. } => "StrategySwitch",
            SimEvent::HirFlush { .. } => "HirFlush",
        }
    }

    /// Stamps a policy decision event with the simulated cycle.
    pub fn from_policy(event: PolicyEvent, time: u64) -> SimEvent {
        match event {
            PolicyEvent::StrategySwitch {
                from,
                to,
                ratio1,
                ratio2,
                fault_num,
            } => SimEvent::StrategySwitch {
                time,
                from,
                to,
                ratio1,
                ratio2,
                fault_num,
            },
            PolicyEvent::HirFlush { entries, dropped } => SimEvent::HirFlush {
                time,
                entries,
                dropped,
            },
        }
    }
}

impl ToJson for SimEvent {
    fn to_json(&self) -> Json {
        let mut obj = uvm_util::json!({ "kind": self.kind(), "time": self.time() });
        match *self {
            SimEvent::FaultRaised { page, .. }
            | SimEvent::FaultServiced { page, .. }
            | SimEvent::Eviction { page, .. }
            | SimEvent::PrefetchIssued { page, .. } => {
                obj.insert("page", Json::UInt(page.0));
            }
            SimEvent::MemoryFull { .. } => {}
            SimEvent::PageWalk { page, hit, .. } => {
                obj.insert("page", Json::UInt(page.0));
                obj.insert("hit", Json::Bool(hit));
            }
            SimEvent::WrongEviction {
                page,
                refault_distance,
                ..
            } => {
                obj.insert("page", Json::UInt(page.0));
                obj.insert("refault_distance", Json::UInt(refault_distance));
            }
            SimEvent::VictimSelected {
                page,
                strategy,
                search_comparisons,
                victim_age,
                ..
            } => {
                obj.insert("page", Json::UInt(page.0));
                obj.insert("strategy", strategy.to_json());
                obj.insert("search_comparisons", Json::UInt(search_comparisons));
                obj.insert("victim_age", Json::UInt(victim_age));
            }
            SimEvent::StrategySwitch {
                from,
                to,
                ratio1,
                ratio2,
                fault_num,
                ..
            } => {
                obj.insert("from", from.to_json());
                obj.insert("to", to.to_json());
                obj.insert("ratio1", Json::Float(ratio1));
                obj.insert("ratio2", Json::Float(ratio2));
                obj.insert("fault_num", Json::UInt(fault_num));
            }
            SimEvent::HirFlush {
                entries, dropped, ..
            } => {
                obj.insert("entries", Json::UInt(entries));
                obj.insert("dropped", Json::UInt(dropped));
            }
        }
        obj
    }
}

impl FromJson for SimEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let kind: String = field(v, "kind")?;
        // Each kind's keys besides `kind` and `time`.
        let own: &[&str] = match kind.as_str() {
            "FaultRaised" | "FaultServiced" | "Eviction" | "PrefetchIssued" => &["page"],
            "MemoryFull" => &[],
            "PageWalk" => &["page", "hit"],
            "WrongEviction" => &["page", "refault_distance"],
            "VictimSelected" => &["page", "strategy", "search_comparisons", "victim_age"],
            "StrategySwitch" => &["from", "to", "ratio1", "ratio2", "fault_num"],
            "HirFlush" => &["entries", "dropped"],
            other => {
                let e = JsonError::new(format!("unknown SimEvent kind '{other}'"));
                return Err(e.at_key("kind"));
            }
        };
        let keys: Vec<&str> = ["kind", "time"].iter().chain(own).copied().collect();
        reject_unknown_keys(v, &keys)?;
        let time = field(v, "time")?;
        let page = || field(v, "page");
        Ok(match kind.as_str() {
            "FaultRaised" => SimEvent::FaultRaised {
                time,
                page: page()?,
            },
            "FaultServiced" => SimEvent::FaultServiced {
                time,
                page: page()?,
            },
            "Eviction" => SimEvent::Eviction {
                time,
                page: page()?,
            },
            "PrefetchIssued" => SimEvent::PrefetchIssued {
                time,
                page: page()?,
            },
            "PageWalk" => SimEvent::PageWalk {
                time,
                page: page()?,
                hit: field(v, "hit")?,
            },
            "WrongEviction" => SimEvent::WrongEviction {
                time,
                page: page()?,
                refault_distance: field(v, "refault_distance")?,
            },
            "VictimSelected" => SimEvent::VictimSelected {
                time,
                page: page()?,
                strategy: field(v, "strategy")?,
                search_comparisons: field(v, "search_comparisons")?,
                victim_age: field(v, "victim_age")?,
            },
            "StrategySwitch" => SimEvent::StrategySwitch {
                time,
                from: field(v, "from")?,
                to: field(v, "to")?,
                ratio1: field(v, "ratio1")?,
                ratio2: field(v, "ratio2")?,
                fault_num: field(v, "fault_num")?,
            },
            "HirFlush" => SimEvent::HirFlush {
                time,
                entries: field(v, "entries")?,
                dropped: field(v, "dropped")?,
            },
            // `MemoryFull`: `own` returned early on every other kind.
            _ => SimEvent::MemoryFull { time },
        })
    }
}

/// The recording instrument: a run with an `EventLog` attached hands
/// back every event in engine order. The trace summaries
/// ([`crate::EventCounters`], [`crate::IntervalSeries`],
/// [`crate::TraceHistograms`]) are computed from it.
///
/// # Examples
///
/// ```
/// use uvm_policies::Lru;
/// use uvm_sim::{EventCounters, EventLog, Simulation};
/// use uvm_types::SimConfig;
/// use uvm_workloads::Trace;
///
/// let cfg = SimConfig::builder().n_sms(1).warps_per_sm(1).build()?;
/// let trace = Trace::from_global(&[0, 1, 0], 2, 0, 1, 1);
/// let sim = Simulation::new(cfg, &trace, Lru::new(), 4)?.instrument(EventLog::new());
/// let log = sim.run()?.instrument;
/// assert_eq!(EventCounters::of(&log).faults_raised, 2);
/// # Ok::<(), uvm_types::SimError>(())
/// ```
pub type EventLog = Vec<SimEvent>;

impl Instrument for Vec<SimEvent> {
    fn on_event(&mut self, event: SimEvent) {
        self.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_fan_the_stream_out_in_order() {
        let raised = SimEvent::FaultRaised {
            time: 5,
            page: PageId(1),
        };
        let mut fan = (EventLog::new(), ((), EventLog::new()));
        const { assert!(<(EventLog, ())>::ENABLED && !<((), ())>::ENABLED) };
        fan.on_event(raised);
        fan.on_event(SimEvent::MemoryFull { time: 6 });
        assert_eq!(fan.0, fan.1 .1);
        assert_eq!(fan.0[0], raised);
    }

    #[test]
    fn sim_events_roundtrip_through_json() {
        let events = [
            SimEvent::FaultRaised {
                time: 1,
                page: PageId(9),
            },
            SimEvent::FaultServiced {
                time: 2,
                page: PageId(9),
            },
            SimEvent::Eviction {
                time: 3,
                page: PageId(4),
            },
            SimEvent::MemoryFull { time: 4 },
            SimEvent::PageWalk {
                time: 5,
                page: PageId(7),
                hit: true,
            },
            SimEvent::PrefetchIssued {
                time: 6,
                page: PageId(10),
            },
            SimEvent::WrongEviction {
                time: 7,
                page: PageId(4),
                refault_distance: 12,
            },
            SimEvent::VictimSelected {
                time: 8,
                page: PageId(4),
                strategy: StrategyTag::MruC,
                search_comparisons: 5,
                victim_age: 90,
            },
            SimEvent::StrategySwitch {
                time: 9,
                from: StrategyTag::MruC,
                to: StrategyTag::Lru,
                ratio1: 0.4,
                ratio2: 2.5,
                fault_num: 200,
            },
            SimEvent::HirFlush {
                time: 10,
                entries: 14,
                dropped: 2,
            },
        ];
        for e in events {
            let j = e.to_json();
            assert_eq!(j["kind"].as_str(), Some(e.kind()));
            let back = SimEvent::from_json(&j).unwrap();
            assert_eq!(back, e);
            // And through the serialized text (the JSONL path).
            let reparsed = Json::parse(&j.to_string()).unwrap();
            assert_eq!(SimEvent::from_json(&reparsed).unwrap(), e);
        }
    }

    #[test]
    fn malformed_sim_event_rejected() {
        assert!(SimEvent::from_json(&Json::parse(r#"{"kind":"Nope","time":1}"#).unwrap()).is_err());
        assert!(SimEvent::from_json(&Json::parse(r#"{"time":1}"#).unwrap()).is_err());
        assert!(SimEvent::from_json(
            &Json::parse(r#"{"kind":"PageWalk","time":1,"page":2}"#).unwrap()
        )
        .is_err());
    }
}
