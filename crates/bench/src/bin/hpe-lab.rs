//! `hpe-lab` — command-line front end for the HPE reproduction stack.
//!
//! ```text
//! hpe-lab list                                # the registered applications
//! hpe-lab run <APP> [--policy P] [--rate PCT] [--json]
//! hpe-lab compare <APP> [--rate PCT]          # all policies side by side
//! hpe-lab sweep <APP> [--policy P]            # capacity sweep 95%..40%
//! hpe-lab profile <APP>                       # access-pattern profile
//! hpe-lab campaign [APP ...] [--workers N] [--seed N] [--chaos] [--rate PCT|both]
//!                  [--progress FILE] [--snapshot FILE] [--snapshot-every N]
//!                  [--resume] [--limit N]     # parallel grid sweep
//! hpe-lab bench-snapshot [--workers N] [--dir DIR]  # record the next BENCH_*.json
//! hpe-lab fairness [--workers N] [--seed N]   # per-tenant vs shared HIR:
//!                                             # fairness-vs-throughput grid
//! ```
//!
//! Run via `cargo run --release -p hpe-bench --bin hpe-lab -- <args>`;
//! the usage text (no arguments) is generated from the command table
//! below ([`hpe_bench::cli`]).
//!
//! Exit codes: 0 success, 1 a run failed, 2 usage error — the same
//! convention as `hpe-chaos` and `hpe-trace`.

use std::fs;
use std::process::ExitCode;

use hpe_bench::cli::{self, Args, CliError, Command};
use hpe_bench::{
    bench_config, campaign, f2, f3, fairness_grid, geomean, perf, run_policy, save_json,
    CampaignError, PolicyKind, Table,
};
use uvm_types::Oversubscription;
use uvm_util::{json, Json, ToJson};
use uvm_workloads::registry;

/// The command table.
static COMMANDS: &[Command] = &[
    Command {
        name: "list",
        about: "the registered applications: abbreviation, name, suite, pattern type and \
                footprint in pages",
        args: "",
        flags: &[],
        run: cmd_list,
    },
    Command {
        name: "run",
        about: "run APP under one policy and print its faults, evictions, cycles and IPC \
                (and HPE's classification); --json prints them as JSON",
        args: "<APP>",
        flags: &["--policy P --rate PCT --json"],
        run: cmd_run,
    },
    Command {
        name: "compare",
        about: "run APP under every policy at one rate, side by side",
        args: "<APP>",
        flags: &["--rate PCT"],
        run: cmd_compare,
    },
    Command {
        name: "sweep",
        about: "run APP under one policy at memory capacities from 95% down to 40% of its \
                footprint",
        args: "<APP>",
        flags: &["--policy P"],
        run: cmd_sweep,
    },
    Command {
        name: "profile",
        about: "access-pattern profile of APP's reference stream (reuse distances, \
                compulsory fraction); no simulation",
        args: "<APP>",
        flags: &[],
        run: cmd_profile,
    },
    Command {
        name: "campaign",
        about: "run the app x policy x rate grid (default every app at both rates; --rate \
                also takes both) on the parallel campaign engine and summarize the \
                deterministically merged report; --chaos adds the fault plans, --progress \
                streams JSONL completions, --snapshot/--snapshot-every/--resume checkpoint \
                and resume, --limit stops after N cells",
        args: "[APP ...]",
        flags: &[
            "--workers N --seed N --chaos --rate PCT --progress FILE --snapshot FILE \
                  --snapshot-every N --resume --limit N",
        ],
        run: cmd_campaign,
    },
    Command {
        name: "bench-snapshot",
        about: "collect the clean full grid and record it as the next \
                benchmarks/BENCH_NNNN.json (or under --dir)",
        args: "",
        flags: &["--workers N --dir DIR"],
        run: cmd_bench_snapshot,
    },
    Command {
        name: "fairness",
        about: "per-tenant vs shared HIR: p99 per-tenant slowdown against aggregate \
                throughput over the fairness grid's mixes and quotas",
        args: "",
        flags: &["--workers N --seed N"],
        run: cmd_fairness,
    },
];

fn cmd_list(_: &Args) -> Result<(), CliError> {
    let mut t = Table::new(
        "registered applications",
        &["abbr", "name", "suite", "type", "pages"],
    );
    for app in registry::all() {
        t.row(vec![
            app.abbr().to_string(),
            app.name().to_string(),
            app.suite().to_string(),
            app.pattern().roman().to_string(),
            app.footprint_pages().to_string(),
        ]);
    }
    t.print();
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), CliError> {
    let (policy, rate) = (args.policy()?, args.rate()?);
    let abbr = &args.positional[0];
    let app = cli::app(abbr)?;
    let r = run_policy(&bench_config(), app, rate, policy)
        .map_err(|e| CliError::Run(format!("{abbr} run failed: {e}")))?;
    if args.has("--json") {
        let mut v = json!({
            "app": r.app,
            "policy": r.policy,
            "rate": r.rate.label(),
            "faults": r.stats.faults(),
            "evictions": r.stats.evictions(),
            "cycles": r.stats.cycles,
            "ipc": r.stats.ipc(),
            "driver_core_load": r.stats.driver.core_load(r.stats.cycles),
        });
        if let Some(h) = &r.hpe {
            v["hpe"] = json!({
                "category": h.classification.map(|c| c.category.to_string()),
                "ratio1": h.classification.map(|c| c.ratio1),
                "ratio2": h.classification.map(|c| c.ratio2),
                "divided_sets": h.divided_sets,
                "strategy_switches": h.timeline.len() - 1,
            });
        }
        println!("{}", v.pretty());
    } else {
        println!(
            "{} under {} at {}: {} faults, {} evictions, {} cycles, IPC {:.5}",
            r.app,
            r.policy,
            r.rate.label(),
            r.stats.faults(),
            r.stats.evictions(),
            r.stats.cycles,
            r.stats.ipc()
        );
        if let Some(h) = &r.hpe {
            if let Some(c) = h.classification {
                println!(
                    "  classified {} (ratio1 {:.2}, ratio2 {:.2}); {} divided sets",
                    c.category, c.ratio1, c.ratio2, h.divided_sets
                );
            }
        }
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), CliError> {
    let rate = args.rate()?;
    let abbr = &args.positional[0];
    let app = cli::app(abbr)?;
    let cfg = bench_config();
    let mut t = Table::new(
        format!("{abbr} at {}", rate.label()),
        &["policy", "faults", "evictions", "cycles", "IPC"],
    );
    for kind in PolicyKind::ALL {
        let r = run_policy(&cfg, app, rate, kind)
            .map_err(|e| CliError::Run(format!("{abbr}/{} run failed: {e}", kind.label())))?;
        t.row(vec![
            r.policy.to_string(),
            r.stats.faults().to_string(),
            r.stats.evictions().to_string(),
            r.stats.cycles.to_string(),
            format!("{:.5}", r.stats.ipc()),
        ]);
    }
    t.print();
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), CliError> {
    let policy = args.policy()?;
    let abbr = &args.positional[0];
    let app = cli::app(abbr)?;
    let cfg = bench_config();
    let mut t = Table::new(
        format!("{abbr} capacity sweep under {}", policy.label()),
        &["memory", "capacity(pages)", "faults", "evictions", "IPC"],
    );
    for pct in [95, 90, 85, 75, 60, 50, 40] {
        let rate = Oversubscription::Custom(pct as f64 / 100.0);
        let r = run_policy(&cfg, app, rate, policy)
            .map_err(|e| CliError::Run(format!("{abbr} at {pct}% failed: {e}")))?;
        t.row(vec![
            format!("{pct}%"),
            rate.capacity_pages(app.footprint_pages()).to_string(),
            r.stats.faults().to_string(),
            r.stats.evictions().to_string(),
            format!("{:.5}", r.stats.ipc()),
        ]);
    }
    t.print();
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), CliError> {
    use uvm_workloads::analysis;
    let app = cli::app(&args.positional[0])?;
    let seq = app.global_sequence();
    let p = analysis::profile(&seq);
    println!("{app} ({}):", app.pattern());
    println!("  references        {}", p.refs);
    println!("  distinct pages    {}", p.distinct);
    println!("  compulsory        {:.0}%", 100.0 * p.compulsory_fraction);
    println!(
        "  median reuse      {}",
        p.median_reuse.map_or("-".to_string(), |d| d.to_string())
    );
    println!(
        "  p90 reuse         {}",
        p.p90_reuse.map_or("-".to_string(), |d| d.to_string())
    );
    println!("  max refs/page     {}", p.max_refs_per_page);
    Ok(())
}

/// `campaign`: run a (sub)grid on the parallel engine and summarize the
/// deterministically merged report.
fn cmd_campaign(args: &Args) -> Result<(), CliError> {
    let seed = args.seed()?;
    // `--rate both`, the default, keeps both of the grid's rates.
    let rate = match args.value("--rate") {
        None | Some("both") => None,
        Some(_) => Some(args.rate()?),
    };
    let pool = campaign::PoolOptions {
        workers: args.num("--workers")?.unwrap_or(1),
        shuffle: None,
        snapshot_path: args.path("--snapshot")?,
        // 0 asks the library for its default; the flag itself must be nonzero.
        snapshot_every: args
            .nonzero("--snapshot-every")?
            .map_or(0, |n| n.get() as usize),
        resume: args.has("--resume"),
        limit: args.num("--limit")?,
    };
    if pool.snapshot_path.is_none() {
        // Both would act on a snapshot file that was never named.
        if let Some(flag) = ["--resume", "--snapshot-every"]
            .into_iter()
            .find(|f| args.has(f))
        {
            return Err(CliError::Usage(format!("{flag} needs --snapshot FILE")));
        }
    }
    let progress_path = args.path("--progress")?;
    let every_app: Vec<&str> = registry::all().iter().map(|a| a.abbr()).collect();
    let apps = args.positional_or(&every_app);
    let mut spec = campaign::CampaignSpec::clean_grid(apps, seed);
    if args.has("--chaos") {
        spec.plans = campaign::chaos_plan_set(seed);
    }
    if let Some(rate) = rate {
        spec.rates = vec![rate];
    }
    eprintln!(
        "[campaign: {} apps x {} policies x {} rates x {} plans = {} cells, {} worker(s), seed {}]",
        spec.apps.len(),
        spec.policies.len(),
        spec.rates.len(),
        spec.plans.len(),
        spec.grid_len(),
        pool.workers.max(1),
        spec.seed,
    );

    let mut progress_file = progress_path
        .map(fs::File::create)
        .transpose()
        .map_err(|e| CliError::Usage(format!("--progress: {e}")))?;
    let progress = progress_file.as_mut().map(|f| f as &mut dyn std::io::Write);

    // A malformed snapshot or an unknown app is bad input, not a failed run.
    let outcome =
        campaign::run_campaign(&bench_config(), &spec, &pool, progress).map_err(|e| match e {
            CampaignError::SnapshotMalformed(_) | CampaignError::UnknownApp(_) => {
                CliError::Usage(e.to_string())
            }
            _ => CliError::Run(e.to_string()),
        })?;
    if !outcome.is_complete() {
        println!(
            "campaign stopped at --limit: {}/{} cells done ({} resumed, {} executed){}",
            outcome.runs.len(),
            outcome.total,
            outcome.resumed,
            outcome.executed,
            match &pool.snapshot_path {
                Some(_) => "; snapshot holds the completed cells",
                None => "",
            }
        );
        return Ok(());
    }
    let report = outcome.report().map_err(|e| CliError::Run(e.to_string()))?;

    // Per (policy, rate): totals and, where the clean Ideal run exists,
    // the geomean slowdown versus Ideal.
    let mut t = Table::new(
        format!(
            "campaign ({} cells, fingerprint {})",
            report.runs.len(),
            report.fingerprint
        ),
        &[
            "policy",
            "rate",
            "runs",
            "failed",
            "faults",
            "slowdown-vs-ideal",
        ],
    );
    for &policy in &spec.policies {
        for &rate in &spec.rates {
            let rate_label = rate.label();
            let rows: Vec<_> = report
                .runs
                .iter()
                .filter(|r| r.policy == policy.label() && r.rate == rate_label)
                .collect();
            let failed = rows.iter().filter(|r| !r.ok).count();
            let faults: u64 = rows.iter().map(|r| r.stats.faults()).sum();
            let mut slowdowns = Vec::new();
            for app in &spec.apps {
                let key = |p: PolicyKind| campaign::grid_key(app, p.label(), &rate_label, "clean");
                if let (Some(run), Some(ideal)) = (
                    report.find(&key(policy)),
                    report.find(&key(PolicyKind::Ideal)),
                ) {
                    if run.ok && ideal.ok && ideal.stats.cycles > 0 {
                        slowdowns.push(run.stats.cycles as f64 / ideal.stats.cycles as f64);
                    }
                }
            }
            t.row(vec![
                policy.label().to_string(),
                rate_label,
                rows.len().to_string(),
                failed.to_string(),
                faults.to_string(),
                if slowdowns.is_empty() {
                    "-".to_string()
                } else {
                    f3(geomean(&slowdowns))
                },
            ]);
        }
    }
    t.print();
    let totals = report.totals();
    println!(
        "merged: {} runs ({} resumed from snapshot), {} failed, {} faults, {} evictions",
        totals.runs, outcome.resumed, totals.failed, totals.faults, totals.evictions
    );
    save_json("campaign", &report.to_json());
    if totals.failed > 0 {
        return Err(CliError::Run(format!(
            "{} campaign cell(s) failed; see the merged report",
            totals.failed
        )));
    }
    Ok(())
}

fn print_snapshot(snap: &perf::BenchSnapshot) {
    let mut t = Table::new(
        format!("{} (seed {}, {} apps)", snap.id, snap.seed, snap.apps.len()),
        &["policy", "slowdown@75%", "slowdown@50%"],
    );
    for p in &snap.policies {
        t.row(vec![p.policy.clone(), f3(p.slowdown_75), f3(p.slowdown_50)]);
    }
    t.print();
}

/// `bench-snapshot`: collect and record the next `BENCH_NNNN.json`.
fn cmd_bench_snapshot(args: &Args) -> Result<(), CliError> {
    let workers = args.num("--workers")?.unwrap_or(1);
    let dir = args.path("--dir")?.unwrap_or_else(perf::bench_dir);
    fs::create_dir_all(&dir).map_err(|e| CliError::Run(e.to_string()))?;
    let id = perf::next_id(&dir);
    eprintln!("[collecting {} over the clean full grid ...]", id);
    let snap = perf::collect(&id, workers).map_err(CliError::Run)?;
    snap.validate().map_err(CliError::Run)?;
    let path = dir.join(format!("{id}.json"));
    fs::write(&path, snap.to_json().pretty()).map_err(|e| CliError::Run(e.to_string()))?;
    print_snapshot(&snap);
    println!("[saved {}]", path.display());
    Ok(())
}

/// The fairness grid's app mixes: a heterogeneous trio, a homogeneous
/// mix, and a larger skewed mix anchored by GEM (the largest-footprint
/// app, hence the most HIR-sensitive tenant in the grid) arriving
/// last, where lease concurrency divides the shared HIR deepest.
const FAIRNESS_MIXES: [&[&str]; 3] = [
    &["STN", "MVT", "CUT"],
    &["STN", "STN", "STN"],
    &["MVT", "CUT", "STN", "GEM"],
];

/// Quota percentages the fairness grid sweeps (per-tenant residency as a
/// fraction of footprint — the mix-level oversubscription knob).
const FAIRNESS_QUOTAS: [u64; 2] = [50, 75];

/// `fairness`: the per-tenant vs shared HIR trade-off table — p99
/// per-tenant slowdown against aggregate throughput over several app
/// mixes and quota rates (the data behind the EXPERIMENTS.md fairness
/// table).
fn cmd_fairness(args: &Args) -> Result<(), CliError> {
    let workers = args.num("--workers")?.unwrap_or(1);
    let seed = args.seed()?;
    let mixes: Vec<Vec<&str>> = FAIRNESS_MIXES.iter().map(|m| m.to_vec()).collect();
    eprintln!(
        "[fairness grid: {} mixes x {} quotas x 2 HIR modes, seed {}, {} worker(s)]",
        mixes.len(),
        FAIRNESS_QUOTAS.len(),
        seed,
        workers.max(1),
    );
    let rows = fairness_grid(&bench_config(), &mixes, &FAIRNESS_QUOTAS, seed, workers)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let mut t = Table::new(
        "fairness vs throughput (HPE, fault-free mixes)",
        &[
            "mix",
            "quota",
            "hir",
            "p99-slowdown",
            "hir-impact",
            "throughput",
            "rejected",
            "delayed",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.mix.clone(),
            format!("{}%", r.quota_pct),
            r.hir_mode.clone(),
            f2(r.p99_slowdown),
            f3(r.hir_impact),
            f2(r.throughput),
            r.rejected.to_string(),
            r.delayed.to_string(),
        ]);
    }
    t.print();
    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            json!({
                "mix": r.mix.as_str(),
                "quota_pct": r.quota_pct,
                "hir_mode": r.hir_mode.as_str(),
                "p99_slowdown": r.p99_slowdown,
                "hir_impact": r.hir_impact,
                "throughput": r.throughput,
                "rejected": r.rejected,
                "delayed": r.delayed,
            })
        })
        .collect();
    save_json("tenant-fairness", &json_rows.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::run("hpe-lab", COMMANDS, &args)
}
