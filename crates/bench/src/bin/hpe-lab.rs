//! `hpe-lab` — command-line front end for the HPE reproduction stack.
//!
//! ```text
//! hpe-lab list
//! hpe-lab run <APP> [--policy lru|random|lfu|rrip|clockpro|ideal|hpe]
//!                   [--rate 75|50|<percent>] [--json]
//! hpe-lab compare <APP> [--rate ...]        # all policies side by side
//! hpe-lab sweep <APP> [--policy ...]        # capacity sweep 95%..40%
//! hpe-lab profile <APP>                     # access-pattern profile
//! hpe-lab campaign [APP ...] [--workers N] [--chaos] [--snapshot FILE]
//!                  [--resume] [--progress FILE]   # parallel grid sweep
//! hpe-lab bench-snapshot [--workers N] [--dir DIR]  # record the next BENCH_*.json
//! hpe-lab fairness [--workers N] [--seed N] # per-tenant vs shared HIR:
//!                                           # fairness-vs-throughput grid
//! ```
//!
//! Run via `cargo run --release -p hpe-bench --bin hpe-lab -- <args>`.
//!
//! Exit codes: 0 success, 1 a run failed, 2 usage error — the same
//! convention as `hpe-chaos`.

use std::fs;
use std::path::PathBuf;

use hpe_bench::{
    bench_config, campaign, f2, f3, fairness_grid, geomean, perf, run_policy, save_json,
    PolicyKind, Table,
};
use uvm_types::Oversubscription;
use uvm_util::{json, Json, ToJson};
use uvm_workloads::registry;

fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "lru" => PolicyKind::Lru,
        "random" => PolicyKind::Random,
        "lfu" => PolicyKind::Lfu,
        "rrip" => PolicyKind::Rrip,
        "clockpro" | "clock-pro" => PolicyKind::ClockPro,
        "ideal" | "belady" | "min" => PolicyKind::Ideal,
        "hpe" => PolicyKind::Hpe,
        other => return Err(format!("unknown policy {other:?}")),
    })
}

fn parse_rate(s: &str) -> Result<Oversubscription, String> {
    match s {
        "75" => Ok(Oversubscription::Rate75),
        "50" => Ok(Oversubscription::Rate50),
        other => {
            let pct: f64 = other
                .trim_end_matches('%')
                .parse()
                .map_err(|_| format!("bad rate {other:?}"))?;
            if !(0.0..=100.0).contains(&pct) || pct == 0.0 {
                return Err(format!("rate {pct} out of range (0, 100]"));
            }
            Ok(Oversubscription::Custom(pct / 100.0))
        }
    }
}

struct Opts {
    policy: PolicyKind,
    rate: Oversubscription,
    json: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        policy: PolicyKind::Hpe,
        rate: Oversubscription::Rate75,
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                opts.policy = parse_policy(v)?;
            }
            "--rate" => {
                let v = it.next().ok_or("--rate needs a value")?;
                opts.rate = parse_rate(v)?;
            }
            "--json" => opts.json = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn cmd_list() {
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
}

fn cmd_run(abbr: &str, opts: &Opts) -> Result<(), CliError> {
    let app =
        registry::by_abbr(abbr).ok_or_else(|| CliError::Usage(format!("unknown app {abbr:?}")))?;
    let cfg = bench_config();
    let r = run_policy(&cfg, app, opts.rate, opts.policy)
        .map_err(|e| CliError::Run(format!("{abbr} run failed: {e}")))?;
    if opts.json {
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

fn cmd_compare(abbr: &str, opts: &Opts) -> Result<(), CliError> {
    let app =
        registry::by_abbr(abbr).ok_or_else(|| CliError::Usage(format!("unknown app {abbr:?}")))?;
    let cfg = bench_config();
    let mut t = Table::new(
        format!("{abbr} at {}", opts.rate.label()),
        &["policy", "faults", "evictions", "cycles", "IPC"],
    );
    for kind in PolicyKind::ALL {
        let r = run_policy(&cfg, app, opts.rate, kind)
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

fn cmd_sweep(abbr: &str, opts: &Opts) -> Result<(), CliError> {
    let app =
        registry::by_abbr(abbr).ok_or_else(|| CliError::Usage(format!("unknown app {abbr:?}")))?;
    let cfg = bench_config();
    let mut t = Table::new(
        format!("{abbr} capacity sweep under {}", opts.policy.label()),
        &["memory", "capacity(pages)", "faults", "evictions", "IPC"],
    );
    for pct in [95, 90, 85, 75, 60, 50, 40] {
        let rate = Oversubscription::Custom(pct as f64 / 100.0);
        let r = run_policy(&cfg, app, rate, opts.policy)
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

fn cmd_profile(abbr: &str) -> Result<(), String> {
    use uvm_workloads::analysis;
    let app = registry::by_abbr(abbr).ok_or_else(|| format!("unknown app {abbr:?}"))?;
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

/// Flags of the `campaign` subcommand.
struct CampaignOpts {
    apps: Vec<String>,
    workers: usize,
    seed: u64,
    chaos: bool,
    rate: Option<Oversubscription>,
    progress: Option<PathBuf>,
    snapshot: Option<PathBuf>,
    snapshot_every: usize,
    resume: bool,
    limit: Option<usize>,
}

fn parse_campaign_opts(args: &[String]) -> Result<CampaignOpts, String> {
    let mut opts = CampaignOpts {
        apps: Vec::new(),
        workers: 1,
        seed: 2019,
        chaos: false,
        rate: None,
        progress: None,
        snapshot: None,
        snapshot_every: 0,
        resume: false,
        limit: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workers" => {
                let v = value("--workers")?;
                opts.workers = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--chaos" => opts.chaos = true,
            "--rate" => {
                let v = value("--rate")?;
                if v == "both" {
                    opts.rate = None;
                } else {
                    opts.rate = Some(parse_rate(&v)?);
                }
            }
            "--progress" => opts.progress = Some(PathBuf::from(value("--progress")?)),
            "--snapshot" => opts.snapshot = Some(PathBuf::from(value("--snapshot")?)),
            "--snapshot-every" => {
                let v = value("--snapshot-every")?;
                opts.snapshot_every = v
                    .parse()
                    .map_err(|_| format!("bad --snapshot-every {v:?}"))?;
            }
            "--resume" => opts.resume = true,
            "--limit" => {
                let v = value("--limit")?;
                opts.limit = Some(v.parse().map_err(|_| format!("bad --limit {v:?}"))?);
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other:?}")),
            other => opts.apps.push(other.to_string()),
        }
    }
    Ok(opts)
}

/// `campaign`: run a (sub)grid on the parallel engine and summarize the
/// deterministically merged report.
fn cmd_campaign(opts: &CampaignOpts) -> Result<(), CliError> {
    let apps: Vec<String> = if opts.apps.is_empty() {
        registry::all()
            .iter()
            .map(|a| a.abbr().to_string())
            .collect()
    } else {
        opts.apps.clone()
    };
    let mut spec = campaign::CampaignSpec::clean_grid(apps, opts.seed);
    if opts.chaos {
        spec.plans = campaign::chaos_plan_set(opts.seed);
    }
    if let Some(rate) = opts.rate {
        spec.rates = vec![rate];
    }
    let pool = campaign::PoolOptions {
        workers: opts.workers,
        shuffle: None,
        snapshot_path: opts.snapshot.clone(),
        snapshot_every: opts.snapshot_every,
        resume: opts.resume,
        limit: opts.limit,
    };
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

    let mut progress_file = match &opts.progress {
        Some(path) => {
            Some(fs::File::create(path).map_err(|e| CliError::Usage(format!("--progress: {e}")))?)
        }
        None => None,
    };
    let progress = progress_file.as_mut().map(|f| f as &mut dyn std::io::Write);

    let outcome = campaign::run_campaign(&bench_config(), &spec, &pool, progress)
        .map_err(|e| CliError::Run(e.to_string()))?;
    if !outcome.is_complete() {
        println!(
            "campaign stopped at --limit: {}/{} cells done ({} resumed, {} executed); \
             snapshot holds the completed cells",
            outcome.runs.len(),
            outcome.total,
            outcome.resumed,
            outcome.executed
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

/// Pairs up `--flag value` arguments, rejecting any flag not in `known`:
/// each command names only the flags it reads.
fn parse_flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown option {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        pairs.push((flag.as_str(), value.as_str()));
    }
    Ok(pairs)
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {flag} {value:?}"))
}

/// Flags of the `bench-snapshot` subcommand.
struct SnapshotOpts {
    workers: usize,
    dir: PathBuf,
}

fn parse_snapshot_opts(args: &[String]) -> Result<SnapshotOpts, String> {
    let mut opts = SnapshotOpts {
        workers: 1,
        dir: perf::bench_dir(),
    };
    for (flag, value) in parse_flags(args, &["--workers", "--dir"])? {
        match flag {
            "--workers" => opts.workers = parse_num(flag, value)?,
            _ => opts.dir = PathBuf::from(value),
        }
    }
    Ok(opts)
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
fn cmd_bench_snapshot(opts: &SnapshotOpts) -> Result<(), CliError> {
    fs::create_dir_all(&opts.dir).map_err(|e| CliError::Run(e.to_string()))?;
    let id = perf::next_id(&opts.dir);
    eprintln!("[collecting {} over the clean full grid ...]", id);
    let snap = perf::collect(&id, opts.workers).map_err(CliError::Run)?;
    snap.validate().map_err(CliError::Run)?;
    let path = opts.dir.join(format!("{id}.json"));
    fs::write(&path, snap.to_json().pretty()).map_err(|e| CliError::Run(e.to_string()))?;
    print_snapshot(&snap);
    println!("[saved {}]", path.display());
    Ok(())
}

/// Flags of the `fairness` subcommand.
struct FairnessOpts {
    workers: usize,
    seed: u64,
}

fn parse_fairness_opts(args: &[String]) -> Result<FairnessOpts, String> {
    let mut opts = FairnessOpts {
        workers: 1,
        seed: 2019,
    };
    for (flag, value) in parse_flags(args, &["--workers", "--seed"])? {
        match flag {
            "--workers" => opts.workers = parse_num(flag, value)?,
            _ => opts.seed = parse_num(flag, value)?,
        }
    }
    Ok(opts)
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
fn cmd_fairness(opts: &FairnessOpts) -> Result<(), CliError> {
    let mixes: Vec<Vec<&str>> = FAIRNESS_MIXES.iter().map(|m| m.to_vec()).collect();
    eprintln!(
        "[fairness grid: {} mixes x {} quotas x 2 HIR modes, seed {}, {} worker(s)]",
        mixes.len(),
        FAIRNESS_QUOTAS.len(),
        opts.seed,
        opts.workers.max(1),
    );
    let rows = fairness_grid(
        &bench_config(),
        &mixes,
        &FAIRNESS_QUOTAS,
        opts.seed,
        opts.workers,
    )
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

/// How a command failed, mapped onto the process exit code (1 run
/// failure, 2 usage).
enum CliError {
    Usage(String),
    Run(String),
}

fn usage() -> String {
    "usage: hpe-lab <list|run|compare|sweep|profile|campaign|bench-snapshot|fairness> \
     [APP ...] [options]\n\
     exit codes: 0 ok, 1 run failure, 2 usage error"
        .to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), CliError> = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "list" => {
                cmd_list();
                Ok(())
            }
            "profile" => match rest.first() {
                Some(abbr) => cmd_profile(abbr).map_err(CliError::Usage),
                None => Err(CliError::Usage(
                    "profile needs an application abbreviation".to_string(),
                )),
            },
            "run" | "compare" | "sweep" => match rest.split_first() {
                Some((abbr, flags)) => {
                    parse_opts(flags)
                        .map_err(CliError::Usage)
                        .and_then(|opts| match cmd.as_str() {
                            "run" => cmd_run(abbr, &opts),
                            "compare" => cmd_compare(abbr, &opts),
                            _ => cmd_sweep(abbr, &opts),
                        })
                }
                None => Err(CliError::Usage(format!(
                    "{cmd} needs an application abbreviation"
                ))),
            },
            "campaign" => parse_campaign_opts(rest)
                .map_err(CliError::Usage)
                .and_then(|opts| cmd_campaign(&opts)),
            "bench-snapshot" => parse_snapshot_opts(rest)
                .map_err(CliError::Usage)
                .and_then(|opts| cmd_bench_snapshot(&opts)),
            "fairness" => parse_fairness_opts(rest)
                .map_err(CliError::Usage)
                .and_then(|opts| cmd_fairness(&opts)),
            other => Err(CliError::Usage(format!("unknown command {other:?}"))),
        },
        None => Err(CliError::Usage(usage())),
    };
    match result {
        Ok(()) => {}
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
        Err(CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
