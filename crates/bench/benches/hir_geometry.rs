//! Section IV-B / V-A (text) — HIR geometry: the paper found an 8-way,
//! 1024-entry HIR eliminates way conflicts for most applications (MVT
//! excepted in their full-scale runs) and that the cache beats an
//! address-order buffer on storage. This bench sweeps the geometry and
//! reports conflicts and IPC.

use hpe_bench::{bench_config, run, save_json, RunSpec, Table};
use hpe_core::HpeConfig;
use uvm_types::{HirGeometry, Oversubscription};
use uvm_util::json;
use uvm_workloads::registry;

fn main() {
    let cfg = bench_config();
    let rate = Oversubscription::Rate75;
    let apps = ["HSD", "GEM", "KMN", "MVT", "NW", "SPV", "BFS"];
    let geometries = [
        (64u32, 4u32),
        (128, 4),
        (256, 8),
        (1024, 8), // the paper's choice
    ];
    let mut t = Table::new(
        "HIR geometry sweep (75%): way-conflict evictions (IPC x1000)",
        &["app", "64e/4w", "128e/4w", "256e/8w", "1024e/8w (paper)"],
    );
    let mut json = Vec::new();
    for abbr in apps {
        let app = registry::by_abbr(abbr).expect("registered app");
        let mut row = vec![abbr.to_string()];
        for &(entries, ways) in &geometries {
            let mut hpe_cfg = HpeConfig::from_sim(&cfg);
            hpe_cfg.hir = HirGeometry {
                entries,
                ways,
                counter_bits: 2,
            };
            let r = run(&cfg, &RunSpec::hpe(app, rate, hpe_cfg)).expect("bench run");
            let p = &r.stats.policy;
            row.push(format!(
                "{} ({:.2})",
                p.hir_conflict_evictions,
                r.stats.ipc() * 1000.0
            ));
            json.push(json!({
                "app": abbr,
                "entries": entries,
                "ways": ways,
                "conflicts": p.hir_conflict_evictions,
                "ipc": r.stats.ipc(),
            }));
        }
        t.row(row);
    }
    t.print();
    println!("paper reference: 8-way/1024 entries eliminates conflicts for most applications");
    save_json("hir_geometry", &json);
}
