//! Compile-time `Send` audit for every type that crosses a campaign
//! worker-thread boundary.
//!
//! Workers construct each `Simulation` internally from plain-data
//! inputs and send plain-data outputs back; the simulation itself never
//! crosses a thread, though it is `Send` (its instrument is held by
//! value). This file pins those properties: if a `Rc`, `RefCell` or raw
//! pointer ever leaks into one of these types, the campaign engine stops
//! compiling here first, with a readable error, instead of deep inside
//! `thread::scope`.

use hpe_bench::{
    CampaignReport, CampaignRun, CampaignSnapshot, CampaignSpec, PlanSpec, PolicyKind, PoolOptions,
    RecoveryOptions, RunResult,
};
use hpe_core::Hpe;
use uvm_policies::{
    ArcPolicy, Bip, Car, Clock, ClockPro, Dip, EvictionPolicy, Ideal, Lfu, Lru, RandomPolicy, Rrip,
    SetLru, WsClock,
};
use uvm_sim::{FaultPlan, Simulation};
use uvm_types::{Oversubscription, SimConfig, SimStats};
use uvm_workloads::App;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

/// Everything a worker *receives*: the cell coordinates and shared spec.
#[test]
fn campaign_inputs_are_send() {
    assert_send::<SimConfig>();
    assert_send::<CampaignSpec>();
    assert_send::<PlanSpec>();
    assert_send::<PolicyKind>();
    assert_send::<Oversubscription>();
    assert_send::<RecoveryOptions>();
    assert_send::<FaultPlan>();
    assert_send::<&'static App>();
    assert_send::<PoolOptions>();
    // Workers read the spec and cell list through shared references, so
    // Sync is load-bearing too, not just Send.
    assert_sync::<SimConfig>();
    assert_sync::<CampaignSpec>();
    assert_sync::<FaultPlan>();
    assert_sync::<&'static App>();
}

/// Everything a worker *sends back* over the collector channel.
#[test]
fn campaign_outputs_are_send() {
    assert_send::<SimStats>();
    assert_send::<RunResult>();
    assert_send::<CampaignRun>();
    assert_send::<CampaignReport>();
    assert_send::<CampaignSnapshot>();
}

/// A simulation carries its instrument by value, so with a `Send`
/// policy it is `Send` as a whole.
#[test]
fn simulations_are_send() {
    assert_send::<Simulation<Lru>>();
    assert_send::<Simulation<Hpe>>();
}

/// Every concrete eviction policy is `Send`: none of them may ever grow
/// an `Rc`/`RefCell`, because policy values live inside the simulations
/// that campaign workers build on their own threads, and a future
/// engine may want to move constructed policies across threads.
#[test]
fn every_policy_boxes_as_send() {
    fn assert_policy_send<P: EvictionPolicy + Send>() {}
    assert_policy_send::<Lru>();
    assert_policy_send::<RandomPolicy>();
    assert_policy_send::<Lfu>();
    assert_policy_send::<Rrip>();
    assert_policy_send::<ClockPro>();
    assert_policy_send::<Ideal>();
    assert_policy_send::<SetLru>();
    assert_policy_send::<Car>();
    assert_policy_send::<Clock>();
    assert_policy_send::<WsClock>();
    assert_policy_send::<Bip>();
    assert_policy_send::<Dip>();
    assert_policy_send::<ArcPolicy>();
    assert_policy_send::<Hpe>();
}

/// The boxed-trait-object form the audit actually cares about: a policy
/// behind `Box<dyn EvictionPolicy + Send>` coerces for every kind.
#[test]
fn policies_coerce_to_boxed_send_trait_objects() {
    fn boxed<P: EvictionPolicy + Send + 'static>(p: P) -> Box<dyn EvictionPolicy + Send> {
        Box::new(p)
    }
    let b = boxed(Lru::new());
    assert_eq!(b.name(), "LRU");
}
