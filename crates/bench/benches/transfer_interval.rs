//! Section V-A (text) — sensitivity to the HIR transfer interval
//! (1 / 8 / 16 / 32 / 64 page faults).
//!
//! Paper finding: 16 makes the best tradeoff between transfer frequency
//! and performance (result not shown in the paper due to space).

use hpe_bench::{bench_config, f3, geomean, run, save_json, RunSpec, Table};
use hpe_core::HpeConfig;
use uvm_types::Oversubscription;
use uvm_util::json;
use uvm_workloads::registry;

fn main() {
    let cfg = bench_config();
    let rate = Oversubscription::Rate75;
    let intervals = [1u32, 8, 16, 32, 64];
    let apps = ["HSD", "SRD", "STN", "BFS", "GEM", "MVT", "B+T", "KMN"];

    let mut t = Table::new(
        "HIR transfer-interval sensitivity: IPC normalized to interval 16",
        &["app", "1", "8", "16", "32", "64"],
    );
    let mut per_interval: Vec<Vec<f64>> = vec![Vec::new(); intervals.len()];
    let mut json = Vec::new();
    for abbr in apps {
        let app = registry::by_abbr(abbr).expect("registered app");
        let ipcs: Vec<f64> = intervals
            .iter()
            .map(|&ti| {
                let mut hpe_cfg = HpeConfig::from_sim(&cfg);
                hpe_cfg.transfer_interval = ti;
                run(&cfg, &RunSpec::hpe(app, rate, hpe_cfg))
                    .expect("bench run")
                    .stats
                    .ipc()
            })
            .collect();
        let base = ipcs[2]; // interval 16
        let mut row = vec![abbr.to_string()];
        for (i, ipc) in ipcs.iter().enumerate() {
            let norm = ipc / base;
            per_interval[i].push(norm);
            row.push(f3(norm));
        }
        t.row(row);
        json.push(json!({ "app": abbr, "ipc": ipcs }));
    }
    let mut means = vec!["GEOMEAN".to_string()];
    for series in &per_interval {
        means.push(f3(geomean(series)));
    }
    t.row(means);
    t.print();
    println!("paper reference: 16 is the best tradeoff");
    save_json("transfer_interval", &json);
}
