//! `hpe-trace`: inspect simulation event traces.
//!
//! Operates on JSONL event streams written by the tracing layer (one
//! compact JSON object per line, see `uvm_sim::JsonlWriter`), or runs an
//! application live when given a registered abbreviation instead of a
//! file.
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

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hpe_bench::{
    bench_config, run, run_policy_traced, traces_dir, write_jsonl, PolicyKind, RecoveryOptions,
    RunSpec, Table,
};
use uvm_sim::{
    parse_jsonl, EventCounters, Instrument, IntervalCollector, IntervalKey, ProfileReport,
    SimEvent, TenantReport, TraceHistograms, DEFAULT_PROFILE_CADENCE,
};
use uvm_types::Oversubscription;
use uvm_util::{FromJson, Json, ToJson};
use uvm_workloads::registry;

/// How a command failed, mapped onto the process exit code (the same
/// 0/1/2 convention `hpe-chaos` and `hpe-lab` use).
enum CmdError {
    /// Bad arguments or unreadable/malformed input files: exit 2.
    Usage(String),
    /// A live run failed: exit 1.
    Run(String),
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hpe-trace <command> [args]\n\
         \n\
         commands:\n\
         \x20 record    <APP> [--policy P] [--rate 75|50] [--out FILE]\n\
         \x20           run APP and write its event stream as JSONL\n\
         \x20           (default: target/paper-results/traces/<app>-<policy>-<rate>.jsonl)\n\
         \x20 summarize <FILE|APP> [--window N] [--policy P] [--rate 75|50]\n\
         \x20           event counters, interval series and histograms\n\
         \x20 timeline  <FILE|APP> [--window N] [--policy P] [--rate 75|50]\n\
         \x20           fault-windowed series plus marker events\n\
         \x20 diff      <FILE|APP> <FILE|APP> [--policy P] [--rate 75|50]\n\
         \x20           compare two streams; exit 1 if they differ\n\
         \x20 shape     <FIG.json>\n\
         \x20           stable shape of a figure's JSON series\n\
         \x20 campaign  <FILE.jsonl>\n\
         \x20           summarize a campaign progress stream (written by\n\
         \x20           `hpe-lab campaign --progress FILE`); exit 1 if any\n\
         \x20           recorded run failed\n\
         \x20 profile   <APP> [--policy P] [--rate 75|50] [--cadence N] [--out FILE]\n\
         \x20           cycle-attribution breakdown + metrics time series;\n\
         \x20           --out writes the series (.csv/.jsonl) or the full\n\
         \x20           report (.json); exit 1 if the timeline accounts\n\
         \x20           fail to conserve total cycles\n\
         \x20 spans     <APP> [--policy P] [--rate 75|50]\n\
         \x20           fault-lifecycle span summary + stage latency\n\
         \x20           percentiles (queue/service/total/retry)\n\
         \x20 flame     <APP> [--policy P] [--rate 75|50] [--out FILE]\n\
         \x20           folded-stack (component;account cycles) output for\n\
         \x20           flamegraph tools\n\
         \x20 explore   <REPORT.json>\n\
         \x20           summarize a fault-space exploration coverage report\n\
         \x20           (written by `hpe-chaos explore`); exit 1 if it\n\
         \x20           recorded any counterexample\n\
         \x20 tenants   <REPORT.json>\n\
         \x20           per-tenant summary of a multi-tenant mix report\n\
         \x20           (written by `hpe-chaos tenants`): admission\n\
         \x20           outcomes, per-tenant slowdowns and fairness\n\
         \x20           metrics; exit 1 if any tenant failed\n\
         \n\
         policies: LRU, Random, LFU, RRIP, CLOCK-Pro, Ideal, HPE (default HPE)\n\
         exit codes: 0 ok, 1 run failure or failed check, 2 usage error"
    );
    ExitCode::from(2)
}

fn parse_policy(name: &str) -> Option<PolicyKind> {
    PolicyKind::parse(name)
}

fn parse_rate(text: &str) -> Option<Oversubscription> {
    match text.trim_end_matches('%') {
        "75" => Some(Oversubscription::Rate75),
        "50" => Some(Oversubscription::Rate50),
        _ => None,
    }
}

/// The `--policy` / `--rate` / `--out` / `--window` / `--cadence` flags
/// and the positional arguments.
struct Flags {
    policy: PolicyKind,
    rate: Oversubscription,
    out: Option<PathBuf>,
    window: Option<u64>,
    cadence: Option<u64>,
    positional: Vec<String>,
}

/// A command's entry point; `Ok(false)` exits 1.
type Run = fn(&Flags) -> Result<bool, CmdError>;

/// The flags of every command that runs an app live.
const LIVE_RUN: &str = "--policy --rate";

/// Looks up command `cmd`: its entry point and the flags it reads (in
/// space-separated groups). Any other flag is a usage error, never
/// silently dropped; each command checks its own positional arguments.
fn command(cmd: &str) -> Option<(Run, &'static [&'static str])> {
    Some(match cmd {
        "record" => (cmd_record as Run, &[LIVE_RUN, "--out"]),
        "summarize" => (cmd_summarize, &[LIVE_RUN, "--window"]),
        "timeline" => (cmd_timeline, &[LIVE_RUN, "--window"]),
        "diff" => (cmd_diff, &[LIVE_RUN]),
        "shape" => (cmd_shape, &[]),
        "campaign" => (cmd_campaign, &[]),
        "explore" => (cmd_explore, &[]),
        "profile" => (cmd_profile, &[LIVE_RUN, "--cadence --out"]),
        "spans" => (cmd_spans, &[LIVE_RUN]),
        "flame" => (cmd_flame, &[LIVE_RUN, "--out"]),
        "tenants" => (cmd_tenants, &[]),
        _ => return None,
    })
}

/// Parses `args` for command `cmd`, which reads the flags in `known`.
fn parse_flags(cmd: &str, known: &[&str], args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        policy: PolicyKind::Hpe,
        rate: Oversubscription::Rate75,
        out: None,
        window: None,
        cadence: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        if a.starts_with("--") && !known.iter().flat_map(|g| g.split(' ')).any(|k| k == a) {
            return Err(format!("{cmd} does not take '{a}'"));
        }
        match a.as_str() {
            "--policy" => {
                let v = value("--policy")?;
                flags.policy = parse_policy(&v).ok_or_else(|| format!("unknown policy '{v}'"))?;
            }
            "--rate" => {
                let v = value("--rate")?;
                flags.rate = parse_rate(&v).ok_or_else(|| format!("unknown rate '{v}'"))?;
            }
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            "--window" => {
                let v = value("--window")?;
                let w: u64 = v.parse().map_err(|_| format!("bad --window '{v}'"))?;
                if w == 0 {
                    return Err("--window must be nonzero".into());
                }
                flags.window = Some(w);
            }
            "--cadence" => {
                let v = value("--cadence")?;
                let c: u64 = v.parse().map_err(|_| format!("bad --cadence '{v}'"))?;
                if c == 0 {
                    return Err("--cadence must be nonzero".into());
                }
                flags.cadence = Some(c);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

/// Loads events from a JSONL file, or by running a registered app live.
fn load_events(spec: &str, flags: &Flags) -> Result<Vec<SimEvent>, CmdError> {
    let path = Path::new(spec);
    if path.exists() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CmdError::Usage(format!("cannot read {spec}: {e}")))?;
        return parse_jsonl(&text).map_err(|e| CmdError::Usage(format!("{spec}: {e}")));
    }
    let Some(app) = registry::by_abbr(spec) else {
        return Err(CmdError::Usage(format!(
            "'{spec}' is neither a readable file nor a registered app"
        )));
    };
    eprintln!(
        "[running {} under {} at {} ...]",
        app.abbr(),
        flags.policy.label(),
        flags.rate.label()
    );
    let (_, capture) = run_policy_traced(&bench_config(), app, flags.rate, flags.policy)
        .map_err(|e| CmdError::Run(format!("{} run failed: {e}", app.abbr())))?;
    Ok(capture.log.events().to_vec())
}

fn cmd_record(flags: &Flags) -> Result<bool, CmdError> {
    let [spec] = flags.positional.as_slice() else {
        return Err(CmdError::Usage("record needs exactly one APP".into()));
    };
    let Some(app) = registry::by_abbr(spec) else {
        return Err(CmdError::Usage(format!("unknown app '{spec}'")));
    };
    let (result, capture) = run_policy_traced(&bench_config(), app, flags.rate, flags.policy)
        .map_err(|e| CmdError::Run(format!("{} run failed: {e}", app.abbr())))?;
    let path = flags.out.clone().unwrap_or_else(|| {
        traces_dir().join(format!(
            "{}-{}-{}.jsonl",
            app.abbr().to_lowercase().replace('+', "p"),
            flags.policy.label().to_lowercase(),
            flags.rate.label().trim_end_matches('%')
        ))
    });
    let lines =
        write_jsonl(&path, capture.log.events()).map_err(|e| CmdError::Run(e.to_string()))?;
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
    Ok(true)
}

fn replay<S: Instrument>(sink: &mut S, events: &[SimEvent]) {
    for &e in events {
        sink.on_event(e);
    }
}

fn cmd_summarize(flags: &Flags) -> Result<bool, CmdError> {
    let [spec] = flags.positional.as_slice() else {
        return Err(CmdError::Usage(
            "summarize needs exactly one FILE or APP".into(),
        ));
    };
    let events = load_events(spec, flags)?;
    let mut counters = EventCounters::default();
    replay(&mut counters, &events);
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

    print_timeline_table(spec, &events, flags.window.unwrap_or(256));

    let mut hists = TraceHistograms::new();
    replay(&mut hists, &events);
    for h in [
        hists.inter_fault(),
        hists.residency(),
        hists.victim_age(),
        hists.search_comparisons(),
        hists.hir_flush_entries(),
    ] {
        println!("{}", h.render());
    }
    Ok(true)
}

fn print_timeline_table(spec: &str, events: &[SimEvent], window: u64) {
    let mut iv = IntervalCollector::new(IntervalKey::Faults(window));
    replay(&mut iv, events);
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

fn cmd_timeline(flags: &Flags) -> Result<bool, CmdError> {
    let [spec] = flags.positional.as_slice() else {
        return Err(CmdError::Usage(
            "timeline needs exactly one FILE or APP".into(),
        ));
    };
    let events = load_events(spec, flags)?;
    print_timeline_table(spec, &events, flags.window.unwrap_or(64));
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
    Ok(true)
}

fn cmd_diff(flags: &Flags) -> Result<bool, CmdError> {
    let [a_spec, b_spec] = flags.positional.as_slice() else {
        return Err(CmdError::Usage("diff needs exactly two FILEs".into()));
    };
    let a = load_events(a_spec, flags)?;
    let b = load_events(b_spec, flags)?;
    let mut ca = EventCounters::default();
    let mut cb = EventCounters::default();
    replay(&mut ca, &a);
    replay(&mut cb, &b);
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
    Ok(identical)
}

/// Prints a stable "shape" of a figure's JSON series: the entry count and,
/// per entry, its identifying fields and sorted key set — but no measured
/// values, so the shape survives algorithmic tuning while still catching
/// missing apps, dropped fields, or schema drift.
fn cmd_shape(flags: &Flags) -> Result<bool, CmdError> {
    let [file] = flags.positional.as_slice() else {
        return Err(CmdError::Usage("shape needs exactly one FIG.json".into()));
    };
    let text = std::fs::read_to_string(file)
        .map_err(|e| CmdError::Usage(format!("cannot read {file}: {e}")))?;
    let v = Json::parse(&text).map_err(|e| CmdError::Usage(format!("{file}: {e}")))?;
    let entries = v
        .as_array()
        .ok_or_else(|| CmdError::Usage(format!("{file}: expected a top-level array")))?;
    println!("entries={}", entries.len());
    for e in entries {
        let Json::Object(fields) = e else {
            return Err(CmdError::Usage(format!(
                "{file}: expected an array of objects"
            )));
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        let app = e["app"].as_str().unwrap_or("?");
        let rate = e["rate"].as_str().unwrap_or("-");
        println!("app={app} rate={rate} keys={}", keys.join(","));
    }
    Ok(true)
}

/// Summarizes a campaign progress JSONL stream: per-policy and per-plan
/// completion counts, failures, and whether the arrival order was
/// sequential (serial run) or interleaved (parallel workers). Returns
/// `Ok(false)` when any recorded run failed.
fn cmd_campaign(flags: &Flags) -> Result<bool, CmdError> {
    let [file] = flags.positional.as_slice() else {
        return Err(CmdError::Usage(
            "campaign needs exactly one FILE.jsonl".into(),
        ));
    };
    let text = std::fs::read_to_string(file)
        .map_err(|e| CmdError::Usage(format!("cannot read {file}: {e}")))?;
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
            .map_err(|e| CmdError::Usage(format!("{file}:{}: {e}", lineno + 1)))?;
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| {
                    CmdError::Usage(format!("{file}:{}: missing field `{name}`", lineno + 1))
                })
        };
        let index = v.get("index").and_then(Json::as_u64).ok_or_else(|| {
            CmdError::Usage(format!("{file}:{}: missing field `index`", lineno + 1))
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
        return Err(CmdError::Usage(format!("{file}: no progress lines")));
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
        return Ok(false);
    }
    Ok(true)
}

/// `explore`: summarize a fault-space exploration coverage report written
/// by `hpe-chaos explore`. Returns `Ok(false)` when the report recorded
/// any counterexample.
fn cmd_explore(flags: &Flags) -> Result<bool, CmdError> {
    let [file] = flags.positional.as_slice() else {
        return Err(CmdError::Usage(
            "explore needs exactly one REPORT.json".into(),
        ));
    };
    let text = std::fs::read_to_string(file)
        .map_err(|e| CmdError::Usage(format!("cannot read {file}: {e}")))?;
    let json = Json::parse(&text).map_err(|e| CmdError::Usage(format!("{file}: {e}")))?;
    let report = uvm_sim::ExploreReport::from_json(&json)
        .map_err(|e| CmdError::Usage(format!("{file}: bad report: {e}")))?;
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
        return Ok(true);
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
    Ok(false)
}

/// Runs `spec` live with the cycle-attribution profiler attached.
fn profiled_run(spec: &str, flags: &Flags) -> Result<ProfileReport, CmdError> {
    let Some(app) = registry::by_abbr(spec) else {
        return Err(CmdError::Usage(format!("unknown app '{spec}'")));
    };
    let cadence = flags.cadence.unwrap_or(DEFAULT_PROFILE_CADENCE);
    eprintln!(
        "[profiling {} under {} at {} (cadence {cadence}) ...]",
        app.abbr(),
        flags.policy.label(),
        flags.rate.label()
    );
    let run_spec = RunSpec {
        recovery: RecoveryOptions {
            profile: Some(cadence),
            ..RecoveryOptions::default()
        },
        ..RunSpec::new(app, flags.rate, flags.policy)
    };
    run(&bench_config(), &run_spec)
        .map_err(|e| CmdError::Run(format!("{} run failed: {e}", app.abbr())))?
        .profile
        .ok_or_else(|| CmdError::Run(format!("{} run recorded no profile", app.abbr())))
}

/// `profile`: per-account cycle breakdown plus the sampled metrics
/// series. Exit 1 if the timeline accounts fail to conserve.
fn cmd_profile(flags: &Flags) -> Result<bool, CmdError> {
    let [spec] = flags.positional.as_slice() else {
        return Err(CmdError::Usage("profile needs exactly one APP".into()));
    };
    let profile = profiled_run(spec, flags)?;
    println!("{}", profile.render_accounts());
    println!(
        "metrics series: {} samples every {} cycles",
        profile.series.samples.len(),
        profile.series.cadence
    );
    if let Some(path) = &flags.out {
        let text = match path.extension().and_then(|e| e.to_str()) {
            Some("csv") => profile.series.to_csv(),
            Some("jsonl") => profile.series.to_jsonl(),
            _ => profile.to_json().to_string(),
        };
        std::fs::write(path, text)
            .map_err(|e| CmdError::Run(format!("cannot write {}: {e}", path.display())))?;
        println!("wrote {}", path.display());
    }
    if profile.timeline_sum() != profile.total_cycles {
        eprintln!(
            "CONSERVATION VIOLATED: timeline accounts sum to {} but the run took {} cycles",
            profile.timeline_sum(),
            profile.total_cycles
        );
        return Ok(false);
    }
    Ok(true)
}

/// `spans`: fault-lifecycle span summary and stage latency percentiles.
fn cmd_spans(flags: &Flags) -> Result<bool, CmdError> {
    let [spec] = flags.positional.as_slice() else {
        return Err(CmdError::Usage("spans needs exactly one APP".into()));
    };
    let profile = profiled_run(spec, flags)?;
    println!("{}", profile.render_spans());
    Ok(true)
}

/// `flame`: folded-stack output (`component;account cycles` per line) for
/// standard flamegraph tooling.
fn cmd_flame(flags: &Flags) -> Result<bool, CmdError> {
    let [spec] = flags.positional.as_slice() else {
        return Err(CmdError::Usage("flame needs exactly one APP".into()));
    };
    let profile = profiled_run(spec, flags)?;
    let folded = profile.folded();
    match &flags.out {
        Some(path) => {
            std::fs::write(path, &folded)
                .map_err(|e| CmdError::Run(format!("cannot write {}: {e}", path.display())))?;
            println!("wrote {}", path.display());
        }
        None => print!("{folded}"),
    }
    Ok(true)
}

/// `tenants`: per-tenant summary of a multi-tenant mix report written by
/// `hpe-chaos tenants`. Returns `Ok(false)` when any tenant failed.
fn cmd_tenants(flags: &Flags) -> Result<bool, CmdError> {
    let [file] = flags.positional.as_slice() else {
        return Err(CmdError::Usage(
            "tenants needs exactly one REPORT.json".into(),
        ));
    };
    let text = std::fs::read_to_string(file)
        .map_err(|e| CmdError::Usage(format!("cannot read {file}: {e}")))?;
    let json = Json::parse(&text).map_err(|e| CmdError::Usage(format!("{file}: {e}")))?;
    let report = TenantReport::from_json_strict(&json)
        .map_err(|e| CmdError::Usage(format!("{file}: bad tenant report: {e}")))?;
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
        return Ok(false);
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some((run, known)) = command(cmd) else {
        eprintln!("error: unknown command '{cmd}'");
        return usage();
    };
    let flags = match parse_flags(cmd, known, rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match run(&flags) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(CmdError::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CmdError::Usage(e)) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}
