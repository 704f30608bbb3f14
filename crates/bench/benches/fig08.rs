//! Fig. 8 — HPE's sensitivity to interval length (32 / 64 / 128), page
//! set size 16.
//!
//! Same methodology as Fig. 7 (adjustment off, manual strategy, ideal hit
//! transfer); average IPC per pattern type normalized to interval 32.
//! Paper shape: within ~12%; 64 and 128 slightly ahead of 32; 128 is
//! unstable for type II (best for SRD, worst for STN), so the paper picks
//! 64.

use hpe_bench::{bench_config, f3, manual_strategy_for, mean, run, save_json, RunSpec, Table};
use hpe_core::HpeConfig;
use uvm_types::Oversubscription;
use uvm_util::json;
use uvm_workloads::{registry, PatternType};

fn sensitivity_cfg(interval_len: u32, app: &uvm_workloads::App) -> HpeConfig {
    let mut cfg = HpeConfig::paper_default();
    cfg.interval_len = interval_len;
    cfg.fifo_depth = 2 * interval_len;
    cfg.use_hir = false;
    cfg.dynamic_adjustment = false;
    cfg.forced_strategy = Some(manual_strategy_for(app));
    cfg
}

fn main() {
    let cfg = bench_config();
    let rate = Oversubscription::Rate75;
    let intervals = [32u32, 64, 128];

    let mut per_pattern: Vec<Vec<f64>> = vec![Vec::new(); intervals.len()];
    let mut json = Vec::new();
    for (ii, &interval) in intervals.iter().enumerate() {
        for pattern in PatternType::ALL {
            let ipcs: Vec<f64> = registry::by_pattern(pattern)
                .into_iter()
                .map(|app| {
                    let r = run(
                        &cfg,
                        &RunSpec::hpe(app, rate, sensitivity_cfg(interval, app)),
                    )
                    .expect("bench run");
                    r.stats.ipc()
                })
                .collect();
            per_pattern[ii].push(mean(&ipcs));
        }
    }

    let mut t = Table::new(
        "Fig. 8: HPE sensitivity to interval length (avg IPC per type, normalized to 32)",
        &["pattern", "interval 32", "interval 64", "interval 128"],
    );
    for (pi, pattern) in PatternType::ALL.iter().enumerate() {
        let base = per_pattern[0][pi];
        let norm: Vec<f64> = (0..intervals.len())
            .map(|ii| {
                if base > 0.0 {
                    per_pattern[ii][pi] / base
                } else {
                    0.0
                }
            })
            .collect();
        t.row(vec![
            format!("Type {}", pattern.roman()),
            f3(norm[0]),
            f3(norm[1]),
            f3(norm[2]),
        ]);
        json.push(json!({
            "pattern": pattern.roman(),
            "normalized_ipc": norm,
        }));
    }
    t.print();

    // The type II instability the paper calls out (SRD vs STN at 128).
    let mut t2 = Table::new(
        "Fig. 8 detail: type II per-app IPC normalized to interval 32",
        &["app", "interval 32", "interval 64", "interval 128"],
    );
    for app in registry::by_pattern(PatternType::Thrashing) {
        let ipcs: Vec<f64> = intervals
            .iter()
            .map(|&i| {
                run(&cfg, &RunSpec::hpe(app, rate, sensitivity_cfg(i, app)))
                    .expect("bench run")
                    .stats
                    .ipc()
            })
            .collect();
        t2.row(vec![
            app.abbr().to_string(),
            f3(1.0),
            f3(ipcs[1] / ipcs[0]),
            f3(ipcs[2] / ipcs[0]),
        ]);
    }
    t2.print();
    println!("paper reference: differences within ~12%; the paper selects 64");
    save_json("fig08", &json);
}
