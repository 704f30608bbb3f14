//! Fig. 14 — average MRU-C search overhead (entry comparisons per victim
//! search) per application.
//!
//! Applications that use LRU for their entire execution are omitted, as in
//! the paper. Paper shape: typically below 50 comparisons, with BFS and
//! HIS as outliers (irregular#2 apps that adjust during runtime).

use hpe_bench::{bench_config, f2, run_policy_traced, save_json, PolicyKind, Table};
use uvm_sim::TraceHistograms;
use uvm_types::Oversubscription;
use uvm_util::json;
use uvm_workloads::registry;

fn main() {
    let cfg = bench_config();
    let mut t = Table::new(
        "Fig. 14: average MRU-C comparisons per search",
        &["app", "rate", "searches", "avg comparisons"],
    );
    let mut json = Vec::new();
    for rate in [Oversubscription::Rate75, Oversubscription::Rate50] {
        for app in registry::all() {
            let (r, events) =
                run_policy_traced(&cfg, app, rate, PolicyKind::Hpe).expect("bench run");
            let report = r.hpe.expect("HPE report");
            if report.mruc_searches == 0 {
                continue; // LRU for the entire execution: omitted.
            }
            let avg = report.mruc_comparisons as f64 / report.mruc_searches as f64;
            t.row(vec![
                app.abbr().to_string(),
                rate.label(),
                report.mruc_searches.to_string(),
                f2(avg),
            ]);
            // Enriched: full distribution of per-search comparison counts
            // (the figure only shows the average).
            json.push(json!({
                "app": app.abbr(),
                "rate": rate.label(),
                "searches": report.mruc_searches,
                "avg_comparisons": avg,
                "comparisons_hist": TraceHistograms::of(&events).search_comparisons(),
            }));
        }
    }
    t.print();
    println!("paper reference: typically < 50 comparisons; outliers BFS, HIS");
    save_json("fig14", &json);
}
