//! Fig. 15 — average number of HIR entries transferred per flush, per
//! application (75% oversubscription).
//!
//! Paper shape: fewer than ten for most applications; MVT is the outlier
//! (its stride-4 touches waste HIR entry space, so many entries carry only
//! a few counters each).

use hpe_bench::{bench_config, f2, fault_windows, run_policy_traced, save_json, PolicyKind, Table};
use uvm_sim::{IntervalSeries, TraceHistograms};
use uvm_types::Oversubscription;
use uvm_util::json;
use uvm_workloads::registry;

fn main() {
    let cfg = bench_config();
    let rate = Oversubscription::Rate75;
    let mut t = Table::new(
        "Fig. 15: average HIR entries transferred per flush (75%)",
        &["app", "flushes", "entries total", "avg/flush", "conflicts"],
    );
    let mut json = Vec::new();
    for app in registry::all() {
        let (r, events) = run_policy_traced(&cfg, app, rate, PolicyKind::Hpe).expect("bench run");
        let p = &r.stats.policy;
        t.row(vec![
            app.abbr().to_string(),
            p.hir_flushes.to_string(),
            p.hir_entries_transferred.to_string(),
            f2(p.avg_hir_entries_per_flush()),
            p.hir_conflict_evictions.to_string(),
        ]);
        // Enriched: flush-size distribution plus HIR entries per fault
        // window (the figure only shows the average).
        let hir_series: Vec<u64> = IntervalSeries::of(&events, fault_windows(&cfg))
            .rows()
            .iter()
            .map(|w| w.hir_entries)
            .collect();
        json.push(json!({
            "app": app.abbr(),
            "flushes": p.hir_flushes,
            "entries": p.hir_entries_transferred,
            "avg_per_flush": p.avg_hir_entries_per_flush(),
            "conflicts": p.hir_conflict_evictions,
            "flush_entries_hist": TraceHistograms::of(&events).hir_flush_entries(),
            "hir_series": hir_series,
        }));
    }
    t.print();
    save_json("fig15", &json);
}
