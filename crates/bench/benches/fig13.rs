//! Fig. 13 — breakdown of eviction-strategy usage over time per
//! application, at both oversubscription rates.
//!
//! For each run, prints the fraction of faults spent under each strategy
//! and the switch/jump events. Paper shape: KMN, NW, B+T, HYB, SPV, MVT
//! run LRU throughout; HOT, BKP, PAT, LEU, CUT, MRQ, STN, 2DC, GEM run
//! MRU-C throughout; SRD/HSD/DWT/SGM adjust the search point; BFS, SAD,
//! HIS switch between strategies.

use hpe_bench::{bench_config, fault_windows, run_policy_traced, save_json, PolicyKind, Table};
use hpe_core::StrategyKind;
use uvm_sim::IntervalSeries;
use uvm_types::Oversubscription;
use uvm_util::json;
use uvm_workloads::registry;

fn main() {
    let cfg = bench_config();
    let mut json = Vec::new();
    for rate in [Oversubscription::Rate75, Oversubscription::Rate50] {
        let mut t = Table::new(
            format!(
                "Fig. 13: eviction-strategy usage breakdown ({})",
                rate.label()
            ),
            &["app", "%LRU", "%MRU-C", "switches", "jumps", "timeline"],
        );
        for app in registry::all() {
            let (r, events) =
                run_policy_traced(&cfg, app, rate, PolicyKind::Hpe).expect("bench run");
            let total_faults = r.stats.faults().max(1);
            let report = r.hpe.expect("HPE report");
            // Integrate the timeline over fault numbers, starting at the
            // classification point (no evictions happen before memory
            // fills, so earlier faults belong to no strategy).
            let tl = &report.timeline;
            let active_span = total_faults.saturating_sub(tl[0].0).max(1);
            let mut lru_faults = 0u64;
            for (i, &(start, strat)) in tl.iter().enumerate() {
                let end = tl.get(i + 1).map_or(total_faults, |&(f, _)| f);
                if strat == StrategyKind::Lru {
                    lru_faults += end.saturating_sub(start);
                }
            }
            let pct_lru = 100.0 * lru_faults as f64 / active_span as f64;
            let timeline_str: Vec<String> = tl.iter().map(|(f, s)| format!("{s}@{f}")).collect();
            t.row(vec![
                app.abbr().to_string(),
                format!("{pct_lru:.0}"),
                format!("{:.0}", 100.0 - pct_lru),
                report.timeline.len().saturating_sub(1).to_string(),
                report.jump_events.len().to_string(),
                timeline_str.join(" -> "),
            ]);
            // Enriched series from the trace: per fault-window counts of
            // strategy switches and wrong evictions (fig. 13's "over time"
            // axis, windowed by the classification interval length).
            let by_fault = IntervalSeries::of(&events, fault_windows(&cfg));
            let rows = by_fault.rows();
            let switch_series: Vec<u64> = rows.iter().map(|w| w.strategy_switches).collect();
            let wrong_series: Vec<u64> = rows.iter().map(|w| w.wrong_evictions).collect();
            json.push(json!({
                "app": app.abbr(),
                "rate": rate.label(),
                "pct_lru": pct_lru,
                "switches": report.timeline.len() - 1,
                "jump_events": report.jump_events,
                "switch_series": switch_series,
                "wrong_eviction_series": wrong_series,
            }));
        }
        t.print();
    }
    save_json("fig13", &json);
}
