//! `hpe-lint`: static analysis over the workspace source tree.
//!
//! Front end to the `uvm-lint` crate: walks the checkout, runs the
//! selected rule families, and reports violations as `file:line` lines
//! or machine-readable JSON. Replaces the old awk-based unwrap counter
//! in `scripts/verify.sh` — violations carry a rule id and an inline
//! `// lint:allow(rule-id)` escape hatch instead of a numeric baseline.
//!
//! ```sh
//! hpe-lint check                               # all rule families, repo root
//! hpe-lint check --rules error-discipline      # one family (CI unwrap gate)
//! hpe-lint check --rules determinism,hermeticity --json
//! hpe-lint check path/to/checkout              # explicit root
//! hpe-lint rules                               # list families and rules
//! hpe-lint graph                               # call-graph summary from the roots
//! hpe-lint graph Pool::run                      # one symbol: trail + callees
//! hpe-lint explain panic-reachability          # what a rule means and how to fix
//! ```
//!
//! Exit codes (the `hpe-chaos` convention): 0 clean, 1 violations
//! found, 2 usage or internal error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use uvm_lint::callgraph::CallGraph;
use uvm_lint::{check_workspace, load_workspace_index, report_json, Diagnostic, RuleFamily};
use uvm_sim::ExploreSpec;
use uvm_util::{FromJson, Json};

fn usage() -> ExitCode {
    eprintln!(
        "usage: hpe-lint <command> [args]\n\
         \n\
         commands:\n\
         \x20 check [--rules FAMILY[,FAMILY..]] [--json] [ROOT]\n\
         \x20       lint the workspace at ROOT (default: the enclosing\n\
         \x20       checkout) with the selected rule families\n\
         \x20       (default: all of determinism, hermeticity,\n\
         \x20       error-discipline, paper-constants,\n\
         \x20       panic-reachability, determinism-taint, stale-allow,\n\
         \x20       explore-specs)\n\
         \x20 graph [SYMBOL] [--json] [ROOT]\n\
         \x20       call-graph view: without SYMBOL the roots, every\n\
         \x20       reachable panic site (annotated or not) with its\n\
         \x20       call trail, and slice-indexing counts in reachable\n\
         \x20       fns; with SYMBOL (qualified `Type::name` or bare\n\
         \x20       name) that symbol's reachability, trail, and callees\n\
         \x20 explain RULE-ID\n\
         \x20       what a rule id checks, why, and how to fix or\n\
         \x20       suppress a finding\n\
         \x20 rules list rule families and the rules they contain\n\
         \n\
         exit codes: 0 clean, 1 violations, 2 usage/internal error"
    );
    ExitCode::from(2)
}

/// The workspace root: `CARGO_MANIFEST_DIR/../..` when built in-tree,
/// else the current directory.
fn default_root() -> PathBuf {
    let compiled_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled_root.join("Cargo.toml").is_file() {
        return compiled_root;
    }
    PathBuf::from(".")
}

/// The selected rule families: the source-tree families `uvm-lint`
/// knows, plus the binary-level `explore-specs` pseudo-family (it needs
/// the simulator's `ExploreSpec` parser, which `uvm-lint` cannot depend
/// on).
struct Selection {
    families: Vec<RuleFamily>,
    explore_specs: bool,
}

impl Selection {
    fn all() -> Self {
        Selection {
            families: RuleFamily::ALL.to_vec(),
            explore_specs: true,
        }
    }

    fn labels(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = self.families.iter().map(|f| f.label()).collect();
        if self.explore_specs {
            labels.push("explore-specs");
        }
        labels
    }
}

fn parse_families(text: &str) -> Result<Selection, String> {
    let mut sel = Selection {
        families: Vec::new(),
        explore_specs: false,
    };
    for part in text.split(',') {
        let part = part.trim();
        if part == "explore-specs" {
            sel.explore_specs = true;
            continue;
        }
        let fam = RuleFamily::parse(part).ok_or_else(|| format!("unknown rule family `{part}`"))?;
        if !sel.families.contains(&fam) {
            sel.families.push(fam);
        }
    }
    if sel.families.is_empty() && !sel.explore_specs {
        return Err("empty --rules list".to_string());
    }
    Ok(sel)
}

/// `explore-specs` rule: every JSON fixture under `fixtures/explore/`
/// must parse as an [`ExploreSpec`] and pass its validation — a broken
/// fixture would otherwise only surface when someone runs it.
fn check_explore_specs(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let dir = root.join("fixtures/explore");
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut diags = Vec::new();
    for path in paths {
        let rel = format!(
            "fixtures/explore/{}",
            path.file_name().unwrap_or_default().to_string_lossy()
        );
        let problem = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
            .and_then(|json| ExploreSpec::from_json(&json).map_err(|e| e.to_string()))
            .and_then(|spec| spec.validate().map_err(|e| e.to_string()));
        if let Err(msg) = problem {
            diags.push(Diagnostic::new(rel, 1, "explore-spec", msg));
        }
    }
    Ok(diags)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let mut sel = Selection::all();
    let mut json_out = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rules" => {
                let spec = it.next().ok_or("--rules needs a value")?;
                sel = parse_families(spec)?;
            }
            "--json" => json_out = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`"));
            }
            path => {
                if root.replace(PathBuf::from(path)).is_some() {
                    return Err("more than one ROOT argument".to_string());
                }
            }
        }
    }
    let root = root.unwrap_or_else(default_root);
    if !root.join("Cargo.toml").is_file() {
        return Err(format!("{} is not a workspace root", root.display()));
    }
    let mut diags = if sel.explore_specs {
        check_explore_specs(&root)?
    } else {
        Vec::new()
    };
    if !sel.families.is_empty() {
        diags.extend(check_workspace(&root, &sel.families).map_err(|e| e.to_string())?);
    }
    if json_out {
        println!("{}", report_json(&diags).pretty());
    } else {
        for d in &diags {
            println!("{d}");
        }
        eprintln!(
            "hpe-lint: {} violation(s) [{}] under {}",
            diags.len(),
            sel.labels().join(","),
            root.display()
        );
    }
    Ok(if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Splits `graph` positionals: a path that contains a `Cargo.toml` is
/// the workspace ROOT, anything else is the SYMBOL to look up.
fn cmd_graph(args: &[String]) -> Result<ExitCode, String> {
    let mut json_out = false;
    let mut positionals: Vec<&str> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json_out = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            val => positionals.push(val),
        }
    }
    let mut symbol: Option<&str> = None;
    let mut root: Option<PathBuf> = None;
    for pos in positionals {
        if Path::new(pos).join("Cargo.toml").is_file() {
            if root.replace(PathBuf::from(pos)).is_some() {
                return Err("more than one ROOT argument".to_string());
            }
        } else if symbol.replace(pos).is_some() {
            return Err(format!("more than one SYMBOL argument (`{pos}`)"));
        }
    }
    let root = root.unwrap_or_else(default_root);
    if !root.join("Cargo.toml").is_file() {
        return Err(format!("{} is not a workspace root", root.display()));
    }
    let idx = load_workspace_index(&root).map_err(|e| e.to_string())?;
    let graph = CallGraph::build(&idx);
    match symbol {
        Some(sym) => graph_symbol(&graph, sym, json_out),
        None => {
            graph_summary(&graph, json_out);
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn trail_text(trail: &[String]) -> String {
    trail.join(" -> ")
}

fn graph_summary(graph: &CallGraph, json_out: bool) {
    let findings = graph.panic_findings();
    let index_ops = graph.reachable_index_ops();
    if json_out {
        let mut out = Json::object();
        out.insert(
            "roots",
            Json::Array(
                graph
                    .roots()
                    .iter()
                    .map(|&i| {
                        let f = graph.fn_item(i);
                        let mut r = Json::object();
                        r.insert("symbol", Json::Str(f.qualified()));
                        r.insert("file", Json::Str(f.file.clone()));
                        r.insert("line", Json::UInt(u64::from(f.line)));
                        r
                    })
                    .collect(),
            ),
        );
        out.insert(
            "panic_sites",
            Json::Array(
                findings
                    .iter()
                    .map(|p| {
                        let mut r = Json::object();
                        r.insert("file", Json::Str(p.file.clone()));
                        r.insert("line", Json::UInt(u64::from(p.line)));
                        r.insert("what", Json::Str(p.what.to_string()));
                        r.insert("in", Json::Str(graph.fn_item(p.fn_idx).qualified()));
                        r.insert(
                            "trail",
                            Json::Array(p.trail.iter().map(|s| Json::Str(s.clone())).collect()),
                        );
                        r
                    })
                    .collect(),
            ),
        );
        out.insert(
            "index_ops",
            Json::Array(
                index_ops
                    .iter()
                    .map(|&(i, count)| {
                        let f = graph.fn_item(i);
                        let mut r = Json::object();
                        r.insert("symbol", Json::Str(f.qualified()));
                        r.insert("file", Json::Str(f.file.clone()));
                        r.insert("line", Json::UInt(u64::from(f.line)));
                        r.insert("count", Json::UInt(u64::from(count)));
                        r
                    })
                    .collect(),
            ),
        );
        println!("{}", out.pretty());
        return;
    }
    println!("roots:");
    for &i in graph.roots() {
        let f = graph.fn_item(i);
        println!("  {}  ({}:{})", f.qualified(), f.file, f.line);
    }
    println!(
        "\nreachable panic sites ({}, including `lint:allow`ed):",
        findings.len()
    );
    for p in &findings {
        println!(
            "  {}:{}: `{}` in `{}` (trail: {})",
            p.file,
            p.line,
            p.what,
            graph.fn_item(p.fn_idx).qualified(),
            trail_text(&p.trail)
        );
    }
    let total_ops: u32 = index_ops.iter().map(|&(_, c)| c).sum();
    println!(
        "\nweak sites: {} slice-indexing expression(s) across {} reachable fn(s)",
        total_ops,
        index_ops.len()
    );
    for &(i, count) in &index_ops {
        let f = graph.fn_item(i);
        println!("  {}  ({}:{}): {}", f.qualified(), f.file, f.line, count);
    }
}

fn graph_symbol(graph: &CallGraph, symbol: &str, json_out: bool) -> Result<ExitCode, String> {
    let matches = graph.find_symbol(symbol);
    if matches.is_empty() {
        return Err(format!("symbol `{symbol}` not found in the item index"));
    }
    if json_out {
        let mut out = Json::object();
        out.insert("symbol", Json::Str(symbol.to_string()));
        out.insert(
            "matches",
            Json::Array(
                matches
                    .iter()
                    .map(|&i| {
                        let f = graph.fn_item(i);
                        let mut r = Json::object();
                        r.insert("symbol", Json::Str(f.qualified()));
                        r.insert("file", Json::Str(f.file.clone()));
                        r.insert("line", Json::UInt(u64::from(f.line)));
                        r.insert("reachable", Json::Bool(graph.is_reachable(i)));
                        r.insert(
                            "trail",
                            Json::Array(
                                graph
                                    .trail_to(i)
                                    .iter()
                                    .map(|s| Json::Str(s.clone()))
                                    .collect(),
                            ),
                        );
                        r.insert(
                            "calls",
                            Json::Array(
                                graph
                                    .callees(i)
                                    .iter()
                                    .map(|&c| Json::Str(graph.fn_item(c).qualified()))
                                    .collect(),
                            ),
                        );
                        r
                    })
                    .collect(),
            ),
        );
        println!("{}", out.pretty());
        return Ok(ExitCode::SUCCESS);
    }
    for &i in &matches {
        let f = graph.fn_item(i);
        println!("{}  ({}:{})", f.qualified(), f.file, f.line);
        if graph.is_reachable(i) {
            println!(
                "  reachable from roots: yes (trail: {})",
                trail_text(&graph.trail_to(i))
            );
        } else {
            println!("  reachable from roots: no");
        }
        let callees = graph.callees(i);
        if callees.is_empty() {
            println!("  calls: (none resolved)");
        } else {
            let names: Vec<String> = callees
                .iter()
                .map(|&c| graph.fn_item(c).qualified())
                .collect();
            println!("  calls: {}", names.join(", "));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Rule-id explanations for `hpe-lint explain`. One entry per concrete
/// rule id (not per family).
const EXPLANATIONS: &[(&str, &str)] = &[
    (
        "wall-clock",
        "Simulated time must come from the event loop, never the host\n\
         clock: `std::time::Instant`/`SystemTime` reads make runs\n\
         irreproducible. Fix: thread the simulation clock through; there\n\
         is no allow escape for this rule.",
    ),
    (
        "randomness",
        "All randomness must flow through the seeded `uvm_util::rng`\n\
         generator. `thread_rng`, `rand::`, or OS entropy break replay.\n\
         Fix: take an `Rng` (or a seed) as an argument.",
    ),
    (
        "hash-iteration",
        "Iterating a `HashMap`/`HashSet` visits entries in hash order,\n\
         which varies across runs and platforms. Fix: sort keys first,\n\
         or annotate a provably order-insensitive use (a sum, a max)\n\
         with `// lint:allow(hash-iteration)` and say why.",
    ),
    (
        "external-import",
        "The workspace is hermetic: no external crates. An import of one\n\
         would quietly pull untracked behaviour into the reproduction.\n\
         Fix: implement the needed slice in `crates/util`.",
    ),
    (
        "unwrap",
        "`.unwrap()`, `.expect(`, and `panic!` in non-test simulator\n\
         code turn recoverable conditions into aborts. Scope:\n\
         crates/{sim,core,policies}/src. Fix: return a typed error, or\n\
         annotate an audited invariant with `// lint:allow(unwrap)`.",
    ),
    (
        "profile-guard",
        "Profiler accumulation must sit behind the opt-in guard\n\
         (`if let Some(prof) = self.profiler.as_mut()`) so the hot path\n\
         pays nothing when profiling is off. Scope: crates/sim/src\n\
         except profile.rs.",
    ),
    (
        "paper-constants",
        "Config constructors named in the lint manifest must keep the\n\
         paper's pinned literals (epoch lengths, thresholds, geometry).\n\
         Drift would silently change every downstream number. Fix:\n\
         restore the constant, or update the manifest in the same\n\
         change that re-derives the dependent results.",
    ),
    (
        "panic-reachability",
        "A panic site (`panic!`, `unreachable!`, `todo!`,\n\
         `unimplemented!`, `.unwrap()`, `.expect(`) that the call graph\n\
         can reach from a simulation root — `Simulation::run`,\n\
         `Simulation::run_until`, `run_campaign`, `run_mix`, or the\n\
         worker pool's `Pool::run` — can abort a campaign mid-flight. The\n\
         finding carries the call trail (`hpe-lint graph` shows all of\n\
         them). Resolution is name-based and deliberately\n\
         over-approximate: a common method name may pull in an\n\
         unrelated fn; annotate such a site with\n\
         `// lint:allow(panic-reachability)` and say why. Existing\n\
         `lint:allow(unwrap)` annotations also suppress it.",
    ),
    (
        "rng-taint",
        "Every `Rng::seed_from_u64` call must derive its seed from a\n\
         parameter or config field of the enclosing fn — a literal or\n\
         free-floating constant forks an untracked stream that ignores\n\
         the campaign seed. Fix: thread the seed through, or annotate a\n\
         deliberate fixed stream with `// lint:allow(rng-taint)`.",
    ),
    (
        "stale-allow",
        "A `// lint:allow(rule-id)` that no longer suppresses anything\n\
         (the violation moved or was fixed, or the id is unknown) is\n\
         itself flagged, so the escape hatch cannot rot. Only judged\n\
         when every family that could consume the id is selected. Fix:\n\
         delete the annotation.",
    ),
    (
        "explore-spec",
        "Every JSON fixture under fixtures/explore/ must parse as an\n\
         `ExploreSpec` and pass validation, so a broken fixture fails in\n\
         CI rather than at campaign launch.",
    ),
];

fn cmd_explain(args: &[String]) -> Result<ExitCode, String> {
    let [id] = args else {
        return Err("explain takes exactly one RULE-ID".to_string());
    };
    match EXPLANATIONS.iter().find(|(rule, _)| rule == id) {
        Some((rule, text)) => {
            println!("{rule}\n\n{text}");
            Ok(ExitCode::SUCCESS)
        }
        None => {
            let known: Vec<&str> = EXPLANATIONS.iter().map(|(rule, _)| *rule).collect();
            Err(format!(
                "unknown rule id `{id}`; known: {}",
                known.join(", ")
            ))
        }
    }
}

fn cmd_rules() -> ExitCode {
    println!(
        "determinism        wall-clock, hash-iteration, randomness\n\
         \x20                  (crates/{{sim,core,policies,workloads}}/src)\n\
         hermeticity        external-import (every .rs file)\n\
         error-discipline   unwrap (.unwrap()/.expect(/panic! outside tests;\n\
         \x20                  crates/{{sim,core,policies}}/src),\n\
         \x20                  profile-guard (profiler accumulation outside\n\
         \x20                  the opt-in guard; crates/sim/src except\n\
         \x20                  profile.rs)\n\
         paper-constants    paper-constants (config constructors vs the\n\
         \x20                  declared manifest)\n\
         panic-reachability panic-reachability (panic sites the call\n\
         \x20                  graph reaches from Simulation::run,\n\
         \x20                  run_campaign, run_mix, or Pool::run;\n\
         \x20                  findings carry a call trail)\n\
         determinism-taint  rng-taint (Rng::seed_from_u64 must derive\n\
         \x20                  its seed from a parameter or config field)\n\
         stale-allow        stale-allow (lint:allow annotations that no\n\
         \x20                  longer suppress anything)\n\
         explore-specs      explore-spec (fixtures/explore/*.json must\n\
         \x20                  parse as ExploreSpec and validate)\n\
         \n\
         suppress a single line with: // lint:allow(rule-id)\n\
         `hpe-lint explain RULE-ID` has the full story for each rule"
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => match cmd_check(&args[1..]) {
            Ok(code) => code,
            Err(msg) => {
                eprintln!("hpe-lint: {msg}");
                ExitCode::from(2)
            }
        },
        Some("graph") => match cmd_graph(&args[1..]) {
            Ok(code) => code,
            Err(msg) => {
                eprintln!("hpe-lint: {msg}");
                ExitCode::from(2)
            }
        },
        Some("explain") => match cmd_explain(&args[1..]) {
            Ok(code) => code,
            Err(msg) => {
                eprintln!("hpe-lint: {msg}");
                ExitCode::from(2)
            }
        },
        Some("rules") => cmd_rules(),
        _ => usage(),
    }
}
