//! Profiler acceptance suite: cycle conservation on the paper's
//! workloads, byte-identical `SimStats` with the profiler attached, and
//! the span/series surfaces the `hpe-trace` subcommands render.

use hpe_bench::{bench_config, run, run_policy, PolicyKind, RecoveryOptions, RunResult, RunSpec};
use uvm_sim::{ProfileReport, DEFAULT_PROFILE_CADENCE};
use uvm_types::{CycleAccount, Oversubscription, SpanStage};
use uvm_util::ToJson;
use uvm_workloads::{registry, App};

/// `app` under `kind` at `rate` with the profiler attached at `cadence`:
/// the result and its profile.
fn run_profiled(
    cfg: &uvm_types::SimConfig,
    app: &App,
    rate: Oversubscription,
    kind: PolicyKind,
    cadence: u64,
) -> Result<(RunResult, ProfileReport), uvm_types::SimError> {
    let spec = RunSpec {
        recovery: RecoveryOptions {
            profile: Some(cadence),
            ..RecoveryOptions::default()
        },
        ..RunSpec::new(app, rate, kind)
    };
    let mut result = run(cfg, &spec)?;
    let profile = result.profile.take().expect("profiler was attached");
    Ok((result, profile))
}

#[test]
fn profiled_stn_75_accounts_conserve_and_stats_stay_identical() {
    let cfg = bench_config();
    let app = registry::by_abbr("STN").unwrap();
    let plain = run_policy(&cfg, app, Oversubscription::Rate75, PolicyKind::Hpe).unwrap();
    let (profiled, profile) = run_profiled(
        &cfg,
        app,
        Oversubscription::Rate75,
        PolicyKind::Hpe,
        DEFAULT_PROFILE_CADENCE,
    )
    .unwrap();

    // Observation-only: the profiler must not perturb the run.
    assert_eq!(
        profiled.stats.to_json().to_string(),
        plain.stats.to_json().to_string(),
        "profiler must leave SimStats byte-identical"
    );

    // The per-component breakdown partitions the run exactly.
    assert_eq!(profile.total_cycles, profiled.stats.cycles);
    assert_eq!(
        profile.timeline_sum(),
        profile.total_cycles,
        "timeline accounts must sum exactly to total simulated cycles"
    );
    assert!(profile.account(CycleAccount::FaultService) > 0);
    assert!(
        profile.account(CycleAccount::HirFlush) > 0,
        "HPE flushes its HIR over PCIe"
    );
    assert!(
        profile.driver_idle() > 0,
        "the driver idles between fault batches — the skippable cycles"
    );
    // Host-side eviction-decision work is measured off the timeline.
    assert!(profile.account(CycleAccount::EvictionDecision) > 0);
}

#[test]
fn profiled_run_reports_span_lifecycle_and_series() {
    let cfg = bench_config();
    let app = registry::by_abbr("STN").unwrap();
    let (result, profile) = run_profiled(
        &cfg,
        app,
        Oversubscription::Rate75,
        PolicyKind::Hpe,
        DEFAULT_PROFILE_CADENCE,
    )
    .unwrap();

    // Spans: every serviced fault page opened and closed one span.
    assert!(profile.spans.opened > 0);
    assert_eq!(profile.spans.completed, profile.spans.opened);
    assert_eq!(
        profile.spans.refault_spans,
        result.stats.driver.wrong_evictions
    );
    // Stage histograms carry percentiles once spans completed.
    let total = profile.stage_histogram(SpanStage::Total);
    assert_eq!(total.count(), profile.spans.completed);
    assert!(total.quantile(0.5).unwrap() <= total.quantile(0.99).unwrap());
    // The queue stage never exceeds the total.
    let queue = profile.stage_histogram(SpanStage::Queue);
    assert!(queue.quantile(0.99).unwrap() <= total.quantile(0.99).unwrap());

    // Metrics series: sampled on cadence, exported in parallel forms.
    assert!(!profile.series.samples.is_empty());
    let csv = profile.series.to_csv();
    let jsonl = profile.series.to_jsonl();
    assert_eq!(
        csv.lines().count(),
        profile.series.samples.len() + 1,
        "header plus one row per sample"
    );
    assert_eq!(jsonl.lines().count(), profile.series.samples.len());
    // Samples observe a bounded residency.
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    for s in &profile.series.samples {
        assert!(s.resident_pages <= capacity);
    }

    // The renderings the CLI prints are well-formed.
    assert!(profile.render_accounts().contains("conserved"));
    assert!(profile.render_spans().contains("p99"));
    let folded = profile.folded();
    assert!(folded.lines().all(|l| l.contains(';')));
}

#[test]
fn recovery_options_profile_knob_attaches_observation_only() {
    // The opt-in plumbing campaigns use: RecoveryOptions.profile mirrors
    // the sanitizer knob and stays observation-only under it.
    let cfg = bench_config();
    let app = registry::by_abbr("SGM").unwrap();
    let plain = run_policy(&cfg, app, Oversubscription::Rate50, PolicyKind::Lru).unwrap();
    let profiled = run(
        &cfg,
        &RunSpec {
            recovery: RecoveryOptions {
                profile: Some(1 << 16),
                ..RecoveryOptions::default()
            },
            ..RunSpec::new(app, Oversubscription::Rate50, PolicyKind::Lru)
        },
    )
    .unwrap();
    assert_eq!(
        profiled.stats.to_json().to_string(),
        plain.stats.to_json().to_string()
    );
}
