//! `hpe-trace`: inspect simulation event traces.
//!
//! Operates on JSONL event streams written by `record` (one compact
//! JSON object per line, see `uvm_sim::write_jsonl`), or runs an
//! application live when given a registered abbreviation instead of a
//! file. Every table is computed from the recorded event stream.
//!
//! ```sh
//! hpe-trace record STN --out stn.jsonl     # run + dump the event stream
//! hpe-trace summarize stn.jsonl            # counters + intervals + histograms
//! hpe-trace summarize STN                  # same, running STN live (HPE, 75%)
//! hpe-trace timeline stn.jsonl             # windowed series + marker events
//! hpe-trace diff a.jsonl b.jsonl           # first divergence of two streams
//! hpe-trace shape fig13.json               # stable shape of a figure series
//! hpe-trace campaign progress.jsonl        # summarize a campaign progress stream
//! hpe-trace explore explore-report.json    # fault-space exploration coverage report
//! hpe-trace tenants tenant-mix.json        # per-tenant summary of a multi-tenant mix report
//! ```
//!
//! Exit codes: 0 success, 1 a run failed or a check did not hold (diff
//! divergence, failed campaign runs, counterexamples, conservation
//! violation, failed tenants), 2 usage error (bad arguments or input
//! files).

use std::num::NonZeroU64;
use std::path::Path;
use std::process::ExitCode;

use hpe_bench::cli::{self, Args, CliError, Command};
use hpe_bench::{
    bench_config, run, run_policy_traced, traces_dir, RecoveryOptions, RunSpec, Table,
};
use uvm_sim::{
    parse_jsonl, write_jsonl, EventCounters, IntervalKey, IntervalSeries, ProfileReport, SimEvent,
    TenantReport, TraceHistograms, DEFAULT_PROFILE_CADENCE,
};
use uvm_util::{FromJson, Json, ToJson};
use uvm_workloads::registry;

/// The command table.
static COMMANDS: &[Command] = &[
    Command {
        name: "record",
        about: "run APP and write its event stream as JSONL (default: \
                target/paper-results/traces/<app>-<policy>-<rate>.jsonl)",
        args: "<APP>",
        flags: &["--policy P --rate PCT --out FILE"],
        run: cmd_record,
    },
    Command {
        name: "summarize",
        about: "event counters, interval series and histograms",
        args: "<FILE|APP>",
        flags: &["--policy P --rate PCT --window N"],
        run: cmd_summarize,
    },
    Command {
        name: "timeline",
        about: "fault-windowed series plus marker events",
        args: "<FILE|APP>",
        flags: &["--policy P --rate PCT --window N"],
        run: cmd_timeline,
    },
    Command {
        name: "diff",
        about: "compare two streams; exit 1 if they differ",
        args: "<FILE|APP> <FILE|APP>",
        flags: &["--policy P --rate PCT"],
        run: cmd_diff,
    },
    Command {
        name: "shape",
        about: "stable shape of a figure's JSON series",
        args: "<FIG.json>",
        flags: &[],
        run: cmd_shape,
    },
    Command {
        name: "campaign",
        about: "summarize a campaign progress stream (written by `hpe-lab campaign \
                --progress FILE`); exit 1 if any recorded run failed",
        args: "<FILE.jsonl>",
        flags: &[],
        run: cmd_campaign,
    },
    Command {
        name: "profile",
        about: "cycle-attribution breakdown + metrics time series; --out writes the series \
                (.csv/.jsonl) or the full report (.json); exit 1 if the timeline accounts \
                fail to conserve total cycles",
        args: "<APP>",
        flags: &["--policy P --rate PCT --cadence N --out FILE"],
        run: cmd_profile,
    },
    Command {
        name: "spans",
        about: "fault-lifecycle span summary + stage latency percentiles \
                (queue/service/total/retry)",
        args: "<APP>",
        flags: &["--policy P --rate PCT"],
        run: cmd_spans,
    },
    Command {
        name: "flame",
        about: "folded-stack (component;account cycles) output for flamegraph tools",
        args: "<APP>",
        flags: &["--policy P --rate PCT --out FILE"],
        run: cmd_flame,
    },
    Command {
        name: "explore",
        about: "summarize a fault-space exploration coverage report (written by \
                `hpe-chaos explore`); exit 1 if it recorded any counterexample",
        args: "<REPORT.json>",
        flags: &[],
        run: cmd_explore,
    },
    Command {
        name: "tenants",
        about: "per-tenant summary of a multi-tenant mix report (written by `hpe-chaos \
                tenants`): admission outcomes, per-tenant slowdowns and fairness metrics; \
                exit 1 if any tenant failed",
        args: "<REPORT.json>",
        flags: &[],
        run: cmd_tenants,
    },
];

/// Faults per window of `summarize`'s and `timeline`'s interval tables.
const SUMMARY_WINDOW: NonZeroU64 = NonZeroU64::new(256).expect("nonzero");
const TIMELINE_WINDOW: NonZeroU64 = NonZeroU64::new(64).expect("nonzero");

/// Loads events from a JSONL file, or by running a registered app live
/// at `--policy` and `--rate`.
fn load_events(spec: &str, args: &Args) -> Result<Vec<SimEvent>, CliError> {
    let (policy, rate) = (args.policy()?, args.rate()?);
    let path = Path::new(spec);
    if path.exists() {
        return parse_jsonl(&cli::read(spec)?).map_err(|e| CliError::Usage(format!("{spec}: {e}")));
    }
    let Some(app) = registry::by_abbr(spec) else {
        return Err(CliError::Usage(format!(
            "'{spec}' is neither a readable file nor a registered app"
        )));
    };
    eprintln!(
        "[running {} under {} at {} ...]",
        app.abbr(),
        policy.label(),
        rate.label()
    );
    let (_, events) = run_policy_traced(&bench_config(), app, rate, policy)
        .map_err(|e| CliError::Run(format!("{} run failed: {e}", app.abbr())))?;
    Ok(events)
}

fn cmd_record(args: &Args) -> Result<(), CliError> {
    let (policy, rate, out) = (args.policy()?, args.rate()?, args.path("--out")?);
    let app = cli::app(&args.positional[0])?;
    let (result, events) = run_policy_traced(&bench_config(), app, rate, policy)
        .map_err(|e| CliError::Run(format!("{} run failed: {e}", app.abbr())))?;
    let path = out.unwrap_or_else(|| {
        traces_dir().join(format!(
            "{}-{}-{}.jsonl",
            app.abbr().to_lowercase().replace('+', "p"),
            policy.label().to_lowercase(),
            rate.label().trim_end_matches('%')
        ))
    });
    let lines = std::fs::File::create(&path)
        .and_then(|file| write_jsonl(std::io::BufWriter::new(file), &events))
        .map_err(|e| CliError::Run(e.to_string()))?;
    println!(
        "{} under {} at {}: {} faults, {} evictions, {} events -> {}",
        result.app,
        result.policy,
        result.rate.label(),
        result.stats.faults(),
        result.stats.evictions(),
        lines,
        path.display()
    );
    Ok(())
}

fn cmd_summarize(args: &Args) -> Result<(), CliError> {
    let (spec, window) = (&args.positional[0], args.nonzero("--window")?);
    let events = load_events(spec, args)?;
    let counters = EventCounters::of(&events);
    let mut t = Table::new(format!("event counters ({spec})"), &["event", "count"]);
    for (name, n) in [
        ("FaultRaised", counters.faults_raised),
        ("FaultServiced", counters.faults_serviced),
        ("Eviction", counters.evictions),
        ("WrongEviction", counters.wrong_evictions),
        ("PageWalk", counters.page_walks),
        ("  walk hits", counters.walk_hits),
        ("PrefetchIssued", counters.prefetches),
        ("VictimSelected", counters.victims_selected),
        ("StrategySwitch", counters.strategy_switches),
        ("HirFlush", counters.hir_flushes),
        ("  entries", counters.hir_entries),
        ("  dropped", counters.hir_dropped),
        ("MemoryFull", counters.memory_full),
    ] {
        t.row(vec![name.to_string(), n.to_string()]);
    }
    t.print();

    print_timeline_table(spec, &events, window.unwrap_or(SUMMARY_WINDOW));

    let hists = TraceHistograms::of(&events);
    for h in [
        hists.inter_fault(),
        hists.residency(),
        hists.victim_age(),
        hists.search_comparisons(),
        hists.hir_flush_entries(),
    ] {
        println!("{}", h.render());
    }
    Ok(())
}

fn print_timeline_table(spec: &str, events: &[SimEvent], window: NonZeroU64) {
    let iv = IntervalSeries::of(events, IntervalKey::Faults(window));
    let mut t = Table::new(
        format!("interval series ({spec}, {window} faults per window)"),
        &[
            "window", "faults", "serviced", "evict", "wrong", "prefetch", "walks", "hits", "hir",
            "switch",
        ],
    );
    for (i, row) in iv.rows().iter().enumerate() {
        t.row(vec![
            i.to_string(),
            row.faults.to_string(),
            row.serviced.to_string(),
            row.evictions.to_string(),
            row.wrong_evictions.to_string(),
            row.prefetches.to_string(),
            row.walks.to_string(),
            row.walk_hits.to_string(),
            row.hir_entries.to_string(),
            row.strategy_switches.to_string(),
        ]);
    }
    t.print();
}

fn cmd_timeline(args: &Args) -> Result<(), CliError> {
    let (spec, window) = (&args.positional[0], args.nonzero("--window")?);
    let events = load_events(spec, args)?;
    print_timeline_table(spec, &events, window.unwrap_or(TIMELINE_WINDOW));
    println!("\nmarker events:");
    let mut markers = 0;
    for e in &events {
        match *e {
            SimEvent::MemoryFull { time } => {
                println!("  cycle {time:>12}: memory full");
                markers += 1;
            }
            SimEvent::StrategySwitch {
                time,
                from,
                to,
                fault_num,
                ..
            } => {
                println!("  cycle {time:>12}: strategy {from} -> {to} (fault {fault_num})");
                markers += 1;
            }
            _ => {}
        }
    }
    if markers == 0 {
        println!("  (none)");
    }
    Ok(())
}

fn cmd_diff(args: &Args) -> Result<(), CliError> {
    let (a_spec, b_spec) = (&args.positional[0], &args.positional[1]);
    let a = load_events(a_spec, args)?;
    let b = load_events(b_spec, args)?;
    let (ca, cb) = (EventCounters::of(&a), EventCounters::of(&b));
    let mut identical = true;
    let mut t = Table::new(
        format!("event counts: {a_spec} vs {b_spec}"),
        &["event", "a", "b", "delta"],
    );
    for (name, na, nb) in [
        ("FaultRaised", ca.faults_raised, cb.faults_raised),
        ("FaultServiced", ca.faults_serviced, cb.faults_serviced),
        ("Eviction", ca.evictions, cb.evictions),
        ("WrongEviction", ca.wrong_evictions, cb.wrong_evictions),
        ("PageWalk", ca.page_walks, cb.page_walks),
        ("PrefetchIssued", ca.prefetches, cb.prefetches),
        ("VictimSelected", ca.victims_selected, cb.victims_selected),
        ("StrategySwitch", ca.strategy_switches, cb.strategy_switches),
        ("HirFlush", ca.hir_flushes, cb.hir_flushes),
        ("MemoryFull", ca.memory_full, cb.memory_full),
    ] {
        let delta = nb as i64 - na as i64;
        if delta != 0 {
            identical = false;
        }
        t.row(vec![
            name.to_string(),
            na.to_string(),
            nb.to_string(),
            if delta == 0 {
                "=".to_string()
            } else {
                format!("{delta:+}")
            },
        ]);
    }
    t.print();
    match a.iter().zip(&b).position(|(x, y)| x != y) {
        Some(i) => {
            identical = false;
            println!("\nfirst divergence at event {i}:");
            println!("  a: {}", a[i].to_json());
            println!("  b: {}", b[i].to_json());
        }
        None if a.len() != b.len() => {
            identical = false;
            println!(
                "\nstreams agree for {} events, then lengths differ: {} vs {}",
                a.len().min(b.len()),
                a.len(),
                b.len()
            );
        }
        None => println!("\nstreams are identical ({} events)", a.len()),
    }
    if identical {
        Ok(())
    } else {
        Err(CliError::Run("the streams differ".into()))
    }
}

/// Prints a stable "shape" of a figure's JSON series: the entry count and,
/// per entry, its identifying fields and sorted key set — but no measured
/// values, so the shape survives algorithmic tuning while still catching
/// missing apps, dropped fields, or schema drift.
fn cmd_shape(args: &Args) -> Result<(), CliError> {
    let file = &args.positional[0];
    let v = cli::read_json(file, "figure", |v| Ok(v.clone()))?;
    let entries = v
        .as_array()
        .ok_or_else(|| CliError::Usage(format!("{file}: expected a top-level array")))?;
    println!("entries={}", entries.len());
    for e in entries {
        let Json::Object(fields) = e else {
            return Err(CliError::Usage(format!(
                "{file}: expected an array of objects"
            )));
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        let app = e["app"].as_str().unwrap_or("?");
        let rate = e["rate"].as_str().unwrap_or("-");
        println!("app={app} rate={rate} keys={}", keys.join(","));
    }
    Ok(())
}

/// Summarizes a campaign progress JSONL stream: per-policy and per-plan
/// completion counts, failures, and whether the arrival order was
/// sequential (serial run) or interleaved (parallel workers). Fails
/// when any recorded run failed.
fn cmd_campaign(args: &Args) -> Result<(), CliError> {
    let file = &args.positional[0];
    let text = cli::read(file)?;
    let mut indices = Vec::new();
    let mut failures: Vec<(String, String)> = Vec::new();
    let mut by_policy: Vec<(String, u64)> = Vec::new();
    let mut by_plan: Vec<(String, u64)> = Vec::new();
    let mut cycles = 0u64;
    let mut faults = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line)
            .map_err(|e| CliError::Usage(format!("{file}:{}: {e}", lineno + 1)))?;
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| {
                    CliError::Usage(format!("{file}:{}: missing field `{name}`", lineno + 1))
                })
        };
        let index = v.get("index").and_then(Json::as_u64).ok_or_else(|| {
            CliError::Usage(format!("{file}:{}: missing field `index`", lineno + 1))
        })?;
        indices.push(index);
        let ok = v.get("ok").and_then(Json::as_bool).unwrap_or(false);
        if !ok {
            failures.push((
                field("key")?,
                field("error").unwrap_or_else(|_| "?".to_string()),
            ));
        }
        cycles += v.get("cycles").and_then(Json::as_u64).unwrap_or(0);
        faults += v.get("faults").and_then(Json::as_u64).unwrap_or(0);
        for (name, tallies) in [("policy", &mut by_policy), ("plan", &mut by_plan)] {
            let label = field(name)?;
            match tallies.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => tallies.push((label, 1)),
            }
        }
    }
    if indices.is_empty() {
        return Err(CliError::Usage(format!("{file}: no progress lines")));
    }
    let sequential = indices.windows(2).all(|w| w[1] > w[0]);
    println!(
        "{}: {} runs recorded, {} failed, {} faults, {} cycles total",
        file,
        indices.len(),
        failures.len(),
        faults,
        cycles
    );
    println!(
        "arrival order: {} (progress lines are completion-ordered; only the \
         merged report is deterministic)",
        if sequential {
            "sequential — consistent with a serial run"
        } else {
            "interleaved — parallel workers"
        }
    );
    let mut t = Table::new(format!("completions ({file})"), &["group", "label", "runs"]);
    for (group, tallies) in [("policy", &by_policy), ("plan", &by_plan)] {
        for (label, n) in tallies {
            t.row(vec![group.to_string(), label.clone(), n.to_string()]);
        }
    }
    t.print();
    if !failures.is_empty() {
        println!("\nfailed runs:");
        for (key, error) in &failures {
            println!("  {key}: {error}");
        }
        return Err(CliError::Run(format!(
            "{} recorded run(s) failed",
            failures.len()
        )));
    }
    Ok(())
}

/// `explore`: summarize a fault-space exploration coverage report written
/// by `hpe-chaos explore`. Fails when the report recorded any
/// counterexample.
fn cmd_explore(args: &Args) -> Result<(), CliError> {
    let file = &args.positional[0];
    let report = cli::read_json(file, "report", uvm_sim::ExploreReport::from_json)?;
    println!(
        "{}: {} under {} at {}%, invariants [{}]",
        file,
        report.app,
        report.policy,
        report.rate,
        report.invariants.join(", ")
    );
    let mut t = Table::new(format!("coverage ({file})"), &["metric", "value"]);
    for (name, n) in [
        ("cases", report.cases),
        ("  fixture", report.fixture_cases),
        ("  window", report.window_cases),
        ("  batch", report.batch_cases),
        ("skipped invalid", report.skipped_invalid),
        ("distinct placements", report.distinct_placements),
        ("simulation runs", report.runs),
        ("invariant checks", report.invariant_checks),
        ("shrink probes", report.shrink_probes),
        ("counterexamples", report.counterexamples.len() as u64),
    ] {
        t.row(vec![name.to_string(), n.to_string()]);
    }
    t.print();
    if report.counterexamples.is_empty() {
        println!("clean: every run upheld every selected invariant");
        return Ok(());
    }
    println!("\ncounterexamples:");
    for cx in &report.counterexamples {
        println!(
            "  case {} ({}): `{}` — {} [{} window(s), {} probe(s)]",
            cx.case,
            cx.label,
            cx.invariant,
            cx.error,
            cx.plan.windows.len(),
            cx.probes
        );
    }
    Err(CliError::Run(format!(
        "{} counterexample(s) recorded",
        report.counterexamples.len()
    )))
}

/// Runs `spec` live at `--policy` and `--rate` with the
/// cycle-attribution profiler attached.
fn profiled_run(spec: &str, args: &Args, cadence: u64) -> Result<ProfileReport, CliError> {
    let (policy, rate) = (args.policy()?, args.rate()?);
    let app = cli::app(spec)?;
    eprintln!(
        "[profiling {} under {} at {} (cadence {cadence}) ...]",
        app.abbr(),
        policy.label(),
        rate.label()
    );
    let run_spec = RunSpec {
        recovery: RecoveryOptions {
            profile: Some(cadence),
            ..RecoveryOptions::default()
        },
        ..RunSpec::new(app, rate, policy)
    };
    run(&bench_config(), &run_spec)
        .map_err(|e| CliError::Run(format!("{} run failed: {e}", app.abbr())))?
        .profile
        .ok_or_else(|| CliError::Run(format!("{} run recorded no profile", app.abbr())))
}

/// `profile`: per-account cycle breakdown plus the sampled metrics
/// series. Exit 1 if the timeline accounts fail to conserve.
fn cmd_profile(args: &Args) -> Result<(), CliError> {
    let out = args.path("--out")?;
    let cadence = args
        .nonzero("--cadence")?
        .map_or(DEFAULT_PROFILE_CADENCE, NonZeroU64::get);
    let profile = profiled_run(&args.positional[0], args, cadence)?;
    println!("{}", profile.render_accounts());
    println!(
        "metrics series: {} samples every {} cycles",
        profile.series.samples.len(),
        profile.series.cadence
    );
    if let Some(path) = &out {
        let text = match path.extension().and_then(|e| e.to_str()) {
            Some("csv") => profile.series.to_csv(),
            Some("jsonl") => profile.series.to_jsonl(),
            _ => profile.to_json().to_string(),
        };
        std::fs::write(path, text)
            .map_err(|e| CliError::Run(format!("cannot write {}: {e}", path.display())))?;
        println!("wrote {}", path.display());
    }
    if profile.timeline_sum() != profile.total_cycles {
        return Err(CliError::Run(format!(
            "CONSERVATION VIOLATED: timeline accounts sum to {} but the run took {} cycles",
            profile.timeline_sum(),
            profile.total_cycles
        )));
    }
    Ok(())
}

/// `spans`: fault-lifecycle span summary and stage latency percentiles.
fn cmd_spans(args: &Args) -> Result<(), CliError> {
    let profile = profiled_run(&args.positional[0], args, DEFAULT_PROFILE_CADENCE)?;
    println!("{}", profile.render_spans());
    Ok(())
}

/// `flame`: folded-stack output (`component;account cycles` per line) for
/// standard flamegraph tooling.
fn cmd_flame(args: &Args) -> Result<(), CliError> {
    let out = args.path("--out")?;
    let profile = profiled_run(&args.positional[0], args, DEFAULT_PROFILE_CADENCE)?;
    let folded = profile.folded();
    match &out {
        Some(path) => {
            std::fs::write(path, &folded)
                .map_err(|e| CliError::Run(format!("cannot write {}: {e}", path.display())))?;
            println!("wrote {}", path.display());
        }
        None => print!("{folded}"),
    }
    Ok(())
}

/// `tenants`: per-tenant summary of a multi-tenant mix report written by
/// `hpe-chaos tenants`. Fails when any tenant failed.
fn cmd_tenants(args: &Args) -> Result<(), CliError> {
    let file = &args.positional[0];
    let report = cli::read_json(file, "tenant report", TenantReport::from_json)?;
    println!(
        "{}: {} tenant(s) under {} ({} HIR){}, fingerprint {}",
        file,
        report.tenants.len(),
        report.policy,
        report.hir_mode,
        match report.fault_tenant {
            Some(t) => format!(", plan {} scoped to T{t}", report.plan),
            None => ", fault-free".to_string(),
        },
        report.fingerprint,
    );
    let mut t = Table::new(
        format!("tenants ({file})"),
        &[
            "tenant", "app", "quota", "arrival", "admitted", "outcome", "ok", "cycles", "faults",
            "slowdown",
        ],
    );
    let mut failed = 0u64;
    for row in &report.tenants {
        if !row.ok {
            failed += 1;
        }
        t.row(vec![
            row.tenant.to_string(),
            row.app.clone(),
            row.quota_pages.to_string(),
            row.arrival.to_string(),
            row.admitted.to_string(),
            row.admission.clone(),
            if row.ok {
                "yes".to_string()
            } else {
                format!("no: {}", row.error)
            },
            row.stats.cycles.to_string(),
            row.stats.faults().to_string(),
            format!("{:.2}", row.slowdown()),
        ]);
    }
    t.print();
    println!(
        "admission: {} rejected, {} delayed; makespan {}; p99 slowdown {:.2}; \
         aggregate throughput {:.2} instr/kcycle",
        report.rejected,
        report.delayed,
        report.makespan,
        report.p99_slowdown(),
        report.throughput(),
    );
    if failed > 0 {
        println!("\n{failed} tenant(s) failed");
        return Err(CliError::Run(format!("{failed} tenant(s) failed")));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::run("hpe-trace", COMMANDS, &args)
}
