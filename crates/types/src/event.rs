//! Policy-decision events: the vocabulary policies use to explain *why*
//! they acted, independent of the simulator that timestamps and sinks
//! them.
//!
//! Policies cannot depend on the simulator crate, so the decision-event
//! types live here in the shared vocabulary. A policy buffers
//! [`PolicyEvent`]s while tracing is enabled; the engine drains the buffer
//! after each policy call, stamps each event with the simulated cycle, and
//! forwards it to the attached observer (see `uvm-sim`). Victim
//! selections are not among them: the engine records those itself, for
//! every policy, tagged with the policy's [`StrategyTag`].

use uvm_util::impl_json_enum;

use crate::PageId;

/// The eviction strategy a decision event is attributed to.
///
/// Mirrors HPE's strategy vocabulary (`LRU` / `MRU-C`); policies outside
/// the HPE family report [`StrategyTag::Native`], meaning "the policy's
/// own replacement logic".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyTag {
    /// The LRU strategy (page set at the LRU position).
    Lru,
    /// The MRU-counter strategy (search from the MRU position).
    MruC,
    /// A non-HPE policy's native replacement logic.
    Native,
    /// HPE's graceful-degradation fallback: driver signals are lost or
    /// undefined, so victims come from plain LRU until signals resume.
    Degraded,
}

impl std::fmt::Display for StrategyTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StrategyTag::Lru => "LRU",
            StrategyTag::MruC => "MRU-C",
            StrategyTag::Native => "native",
            StrategyTag::Degraded => "degraded",
        })
    }
}

impl_json_enum!(StrategyTag {
    Lru,
    MruC,
    Native,
    Degraded
});

/// An out-of-band disruption of the policy's signal path, injected by the
/// simulator's fault plan (or raised by the engine itself for forced
/// evictions). Policies may ignore these entirely; HPE uses them to enter
/// and leave its degraded LRU fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalDisruption {
    /// The GPU-to-driver HIR channel went down: flushes are being lost
    /// until [`SignalDisruption::HirChannelUp`] arrives.
    HirChannelDown,
    /// The HIR channel recovered.
    HirChannelUp,
    /// The engine evicted `page` without consulting the policy (fallback
    /// eviction); the policy should drop it from its residency view.
    ForcedEviction {
        /// The force-evicted page.
        page: PageId,
    },
    /// A spurious wrong-eviction signal reached the driver (chaos
    /// injection modelling a corrupted fault report).
    SpuriousWrongEviction {
        /// Global fault number the spurious signal was attributed to.
        fault_num: u64,
    },
    /// The driver's HIR circuit breaker tripped: enough flushes were lost
    /// in transit that the GPU side should stop transferring flushes (and
    /// stop paying their PCIe cost) until the breaker closes.
    HirCircuitOpen,
    /// The HIR circuit breaker closed again: flush transfers may resume.
    HirCircuitClosed,
    /// The next HIR flush will be delivered late by this many faults
    /// (partial outage: delayed, not dropped). The policy decides whether
    /// a flush that stale is still worth applying.
    HirFlushDelayed {
        /// Delivery delay, in serviced faults.
        faults: u64,
    },
}

/// One policy-internal decision the engine cannot see from outside,
/// without a timestamp (the engine stamps it on drain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyEvent {
    /// Dynamic adjustment switched the active eviction strategy.
    StrategySwitch {
        /// Strategy before the switch.
        from: StrategyTag,
        /// Strategy after the switch.
        to: StrategyTag,
        /// Classification ratio₁ in force at the switch (0 if the policy
        /// never classified).
        ratio1: f64,
        /// Classification ratio₂ in force at the switch.
        ratio2: f64,
        /// Global fault number of the switch.
        fault_num: u64,
    },
    /// The GPU-side HIR cache flushed its records to the driver.
    HirFlush {
        /// Records transferred in this flush.
        entries: u64,
        /// Insertions lost to way conflicts since the previous flush.
        dropped: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_util::{FromJson, ToJson};

    #[test]
    fn strategy_tag_displays_and_roundtrips() {
        assert_eq!(StrategyTag::Lru.to_string(), "LRU");
        assert_eq!(StrategyTag::MruC.to_string(), "MRU-C");
        assert_eq!(StrategyTag::Native.to_string(), "native");
        assert_eq!(StrategyTag::Degraded.to_string(), "degraded");
        for tag in [
            StrategyTag::Lru,
            StrategyTag::MruC,
            StrategyTag::Native,
            StrategyTag::Degraded,
        ] {
            assert_eq!(StrategyTag::from_json(&tag.to_json()).unwrap(), tag);
        }
    }
}
