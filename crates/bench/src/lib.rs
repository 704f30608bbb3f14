//! Benchmark harness regenerating every table and figure of the HPE paper.
//!
//! Each `[[bench]]` target (with `harness = false`) reproduces one table or
//! figure: it runs the relevant simulations on the scaled reproduction
//! configuration, prints the figure's series as a text table, and saves the
//! same data as JSON under `target/paper-results/`. `cargo bench -p
//! hpe-bench` regenerates everything; `EXPERIMENTS.md` records the
//! paper-vs-measured comparison.
//!
//! The `overheads` bench is a Criterion microbenchmark suite covering the
//! operation costs of Section V-C (chain update, classification, MRU-C
//! search, HIR operations).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod explore;
pub mod perf;
pub mod report;
pub mod runner;
pub mod tenant;

pub use campaign::{
    chaos_plan_set, grid_key, run_campaign, run_campaign_serial, CampaignError, CampaignOutcome,
    CampaignReport, CampaignRun, CampaignSnapshot, CampaignSpec, CampaignTotals, PlanSpec,
    PoolOptions, DEFAULT_SNAPSHOT_EVERY,
};
pub use explore::{replay_repro, repro_for, run_explore, ExploreError, RECOVERY_STREAK_FAULTS};
pub use perf::{BenchSnapshot, PolicyPerf, Tolerance, Verdict, WallClock, BENCH_SCHEMA_VERSION};
pub use report::{f2, f3, geomean, mean, save_json, traces_dir, write_jsonl, Table};
pub use runner::{
    drive, manual_strategy_for, rrip_config_for, run, run_policy, run_policy_traced, Driven,
    HpeReport, PolicyKind, RecoveryOptions, RunResult, RunSpec, TraceCapture, TRACE_CYCLE_WINDOW,
};
pub use tenant::{
    check_containment, containment_mix, fairness_grid, load_snapshot, run_mix, run_mix_serial,
    shared_hir_geometry, FairnessRow, MixOptions, TenantRunError, CONTAINMENT_APPS,
    DEFAULT_TENANT_SNAPSHOT_EVERY, FAIRNESS_HIR_SCALE,
};

use uvm_types::SimConfig;

/// The simulator configuration all figure benches use (scaled TLBs, same
/// latencies as Table I; see `DESIGN.md` section 2).
pub fn bench_config() -> SimConfig {
    SimConfig::scaled_default()
}
