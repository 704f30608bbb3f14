//! The rule families: per-line matchers and cross-file symbol rules.
//!
//! Per-line rules run over [`crate::analyze::LineInfo`] lines — comments
//! and literal contents already blanked — so every matcher is plain,
//! boundary-checked substring search, byte-compatible with the v1
//! engine. Cross-file rules run over the [`crate::index::ItemIndex`]
//! and [`crate::callgraph::CallGraph`] built from the same lex pass.
//! Each hit not covered by a `// lint:allow(rule-id)` annotation becomes
//! one [`crate::Diagnostic`]; every suppression is recorded in an
//! [`AllowTracker`] so the `stale-allow` rule can flag annotations that
//! no longer suppress anything.

use std::collections::BTreeSet;

use crate::analyze::{is_ident_char, LineInfo};
use crate::callgraph::CallGraph;
use crate::index::ItemIndex;
use crate::{Diagnostic, RuleFamily};

/// Rule id: wall-clock / date reads in deterministic crates.
pub const RULE_WALL_CLOCK: &str = "wall-clock";
/// Rule id: iteration over `HashMap`/`HashSet` (unordered) in
/// deterministic crates.
pub const RULE_HASH_ITERATION: &str = "hash-iteration";
/// Rule id: randomness not drawn from `uvm_util::rng`.
pub const RULE_RANDOMNESS: &str = "randomness";
/// Rule id: import of a crate outside the workspace.
pub const RULE_EXTERNAL_IMPORT: &str = "external-import";
/// Rule id: `.unwrap()` / `.expect(` / `panic!` in non-test library code.
pub const RULE_UNWRAP: &str = "unwrap";
/// Rule id: a literal in a config constructor drifted from the paper's
/// constants manifest.
pub const RULE_PAPER_CONSTANTS: &str = "paper-constants";
/// Rule id: profiler accumulation outside the opt-in guard.
pub const RULE_PROFILE_GUARD: &str = "profile-guard";
/// Rule id: a panic site transitively reachable from a simulation /
/// campaign root (call-graph rule).
pub const RULE_PANIC_REACHABILITY: &str = "panic-reachability";
/// Rule id: a PRNG seeded from a literal or an expression that does not
/// derive from any binding of the enclosing function.
pub const RULE_RNG_TAINT: &str = "rng-taint";
/// Rule id: a `lint:allow` annotation that no longer suppresses any
/// diagnostic.
pub const RULE_STALE_ALLOW: &str = "stale-allow";

/// Which families can consume an allow with the given rule id. The
/// `stale-allow` rule only judges an unused allow when *every* family
/// listed here ran in the same invocation (so a partial `--rules` run
/// cannot misread a cross-family allow as stale). Ids mapped to an
/// empty list are owned by rules that never consume allows (or live
/// outside this library, like the binary-level `explore-specs` rule)
/// and are never judged; unknown ids are always stale.
const ALLOW_CONSUMERS: &[(&str, &[RuleFamily])] = &[
    (RULE_WALL_CLOCK, &[RuleFamily::Determinism]),
    (RULE_HASH_ITERATION, &[RuleFamily::Determinism]),
    (RULE_RANDOMNESS, &[RuleFamily::Determinism]),
    (RULE_EXTERNAL_IMPORT, &[RuleFamily::Hermeticity]),
    (
        RULE_UNWRAP,
        &[RuleFamily::ErrorDiscipline, RuleFamily::PanicReachability],
    ),
    (RULE_PROFILE_GUARD, &[RuleFamily::ErrorDiscipline]),
    (RULE_PAPER_CONSTANTS, &[]),
    (RULE_PANIC_REACHABILITY, &[RuleFamily::PanicReachability]),
    (RULE_RNG_TAINT, &[RuleFamily::DeterminismTaint]),
    (RULE_STALE_ALLOW, &[RuleFamily::StaleAllow]),
    ("explore-specs", &[]),
];

/// Crate-path prefixes whose code must be bit-exact deterministic.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/sim/src/",
    "crates/core/src/",
    "crates/policies/src/",
    "crates/workloads/src/",
];

/// Crate-path prefixes under the error-discipline gate.
const ERROR_DISCIPLINE_SCOPE: &[&str] = &[
    "crates/sim/src/",
    "crates/core/src/",
    "crates/policies/src/",
];

/// Profiler accumulation methods: mutate profiler state, so every call
/// site outside `profile.rs` itself must sit behind the opt-in guard
/// (`if let Some(prof) = self.profiler.as_mut()` or equivalent) — the
/// profiler is observation-only and must cost nothing when detached.
const PROFILE_ACCUM_TOKENS: &[&str] = &[
    ".charge(",
    ".open_span(",
    ".close_span(",
    ".begin_service(",
    ".note_retry(",
    ".note_coalesce(",
    ".mark_wrong_eviction(",
    ".warp_stalled(",
    ".warp_resumed(",
    ".record_samples(",
];

/// How many lines above an accumulation call the binding guard may sit
/// (the guard block can open well before a multi-line charge
/// computation; the search never crosses a function boundary).
const PROFILE_GUARD_WINDOW: usize = 40;

/// Import roots that keep the workspace hermetic: the language /
/// standard-library roots plus every workspace crate.
const ALLOWED_IMPORT_ROOTS: &[&str] = &[
    "std",
    "core",
    "alloc",
    "crate",
    "self",
    "super",
    "uvm_util",
    "uvm_types",
    "uvm_workloads",
    "uvm_policies",
    "uvm_sim",
    "uvm_lint",
    "hpe_core",
    "hpe_bench",
    "hpe",
];

/// APIs that read the wall clock or a date — nondeterministic across
/// runs, so banned where golden traces must stay bit-exact.
const WALL_CLOCK_TOKENS: &[&str] = &[
    "std::time::Instant",
    "std::time::SystemTime",
    "Instant::now",
    "SystemTime::now",
    "UNIX_EPOCH",
    "Date::now",
    "chrono::",
    "OffsetDateTime",
];

/// Randomness sources other than the workspace's seeded
/// `uvm_util::rng` generator.
const RANDOMNESS_TOKENS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "rand::",
    "getrandom",
    "OsRng",
    "RandomState::new",
];

/// Methods whose call on a `HashMap`/`HashSet` visits entries in hash
/// order.
const HASH_ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Records which `lint:allow` annotations actually suppressed a
/// diagnostic, keyed by (file, 0-based line of the annotation, rule id).
#[derive(Debug, Default)]
pub struct AllowTracker {
    used: BTreeSet<(String, usize, String)>,
}

impl AllowTracker {
    /// Whether line `n` carries an allow for `rule` — on the line
    /// itself, or on an immediately preceding comment-only line (the
    /// form rustfmt produces when a trailing comment no longer fits).
    /// A hit marks the annotation as used.
    pub fn allowed(&mut self, file: &str, lines: &[LineInfo], n: usize, rule: &str) -> bool {
        if lines[n].allows(rule) {
            self.used.insert((file.to_string(), n, rule.to_string()));
            return true;
        }
        if n > 0 && lines[n - 1].code.trim().is_empty() && lines[n - 1].allows(rule) {
            self.used
                .insert((file.to_string(), n - 1, rule.to_string()));
            return true;
        }
        false
    }

    /// Like [`AllowTracker::allowed`] for several interchangeable rule
    /// ids (e.g. `panic-reachability` accepts `unwrap` allows). Marks
    /// every matching annotation, so none reads as stale.
    pub fn allowed_any(
        &mut self,
        file: &str,
        lines: &[LineInfo],
        n: usize,
        rules: &[&str],
    ) -> bool {
        let mut any = false;
        for rule in rules {
            if self.allowed(file, lines, n, rule) {
                any = true;
            }
        }
        any
    }

    /// Whether the annotation at (file, 0-based line `n`) for `rule` was
    /// consumed by some diagnostic check.
    pub fn is_used(&self, file: &str, n: usize, rule: &str) -> bool {
        self.used.contains(&(file.to_string(), n, rule.to_string()))
    }
}

/// Whether `rel_path` (normalized with `/` separators) falls under any
/// prefix in `scope`.
fn in_scope(rel_path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| rel_path.starts_with(p))
}

/// Finds `token` in `code` at an identifier boundary (the characters
/// immediately before and after the match are not identifier
/// characters). Returns the match offset.
fn find_token(code: &str, token: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(at) = code[start..].find(token) {
        let at = start + at;
        let before_ok = at == 0
            || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '))
            || !token.starts_with(|c: char| is_ident_char(c));
        let end = at + token.len();
        let after_ok = end >= code.len()
            || !is_ident_char(code[end..].chars().next().unwrap_or(' '))
            || !token.ends_with(|c: char| is_ident_char(c));
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

/// Runs every per-line rule of the requested `families` over one
/// analyzed file, recording consumed allows in `tracker`.
pub fn scan_lines(
    rel_path: &str,
    lines: &[LineInfo],
    families: &[RuleFamily],
    tracker: &mut AllowTracker,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if families.contains(&RuleFamily::Determinism) && in_scope(rel_path, DETERMINISM_SCOPE) {
        scan_tokens(
            rel_path,
            lines,
            WALL_CLOCK_TOKENS,
            RULE_WALL_CLOCK,
            "reads the wall clock; simulated time must come from the event loop",
            tracker,
            &mut diags,
        );
        scan_tokens(
            rel_path,
            lines,
            RANDOMNESS_TOKENS,
            RULE_RANDOMNESS,
            "non-seeded randomness; use uvm_util::rng",
            tracker,
            &mut diags,
        );
        scan_hash_iteration(rel_path, lines, tracker, &mut diags);
    }
    if families.contains(&RuleFamily::Hermeticity) {
        scan_imports(rel_path, lines, tracker, &mut diags);
    }
    if families.contains(&RuleFamily::ErrorDiscipline) && in_scope(rel_path, ERROR_DISCIPLINE_SCOPE)
    {
        scan_unwraps(rel_path, lines, tracker, &mut diags);
    }
    if families.contains(&RuleFamily::ErrorDiscipline)
        && rel_path.starts_with("crates/sim/src/")
        && !rel_path.ends_with("/profile.rs")
    {
        scan_profile_guard(rel_path, lines, tracker, &mut diags);
    }
    if families.contains(&RuleFamily::PaperConstants) {
        crate::manifest::scan(rel_path, lines, &mut diags);
    }
    diags
}

/// Back-compat wrapper over [`scan_lines`] with a throwaway tracker
/// (per-line families only; symbol rules need the whole file set).
pub fn scan(rel_path: &str, lines: &[LineInfo], families: &[RuleFamily]) -> Vec<Diagnostic> {
    scan_lines(rel_path, lines, families, &mut AllowTracker::default())
}

/// Runs the symbol-aware rule families over the whole file set:
/// `rng-taint` and `panic-reachability` (call graph).
pub fn scan_cross_file(
    files: &[(String, Vec<LineInfo>)],
    idx: &ItemIndex,
    families: &[RuleFamily],
    tracker: &mut AllowTracker,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if families.contains(&RuleFamily::DeterminismTaint) {
        scan_rng_taint(files, idx, tracker, &mut diags);
    }
    if families.contains(&RuleFamily::PanicReachability) {
        scan_panic_reachability(files, idx, tracker, &mut diags);
    }
    diags
}

/// Determinism-taint: every `Rng::seed_from_u64(..)` argument must
/// mention at least one identifier bound in the enclosing function (a
/// seed parameter, a config field through `self`/a local, a loop
/// variable). Literal-only or ambient-constant seeds are flagged.
fn scan_rng_taint(
    files: &[(String, Vec<LineInfo>)],
    idx: &ItemIndex,
    tracker: &mut AllowTracker,
    diags: &mut Vec<Diagnostic>,
) {
    for f in &idx.fns {
        let Some((rel_path, lines)) = files.iter().find(|(p, _)| p == &f.file) else {
            continue;
        };
        for seed in &f.seeds {
            let n = seed.line as usize - 1;
            if n >= lines.len() {
                continue;
            }
            if seed
                .arg_idents
                .iter()
                .any(|id| f.bindings.iter().any(|b| b == id))
            {
                continue;
            }
            if tracker.allowed(rel_path, lines, n, RULE_RNG_TAINT) {
                continue;
            }
            let shape = if seed.arg_idents.is_empty() {
                "a literal".to_string()
            } else {
                format!(
                    "`{}`, none of which is bound in `{}`",
                    seed.arg_idents.join("`, `"),
                    f.qualified()
                )
            };
            diags.push(Diagnostic::new(
                rel_path,
                n as u64 + 1,
                RULE_RNG_TAINT,
                format!(
                    "`Rng::seed_from_u64` seeded from {shape}; derive the seed from a \
                     parameter or config field (or annotate with `// lint:allow(rng-taint)`)"
                ),
            ));
        }
    }
}

/// Panic-reachability: every hard panic site (`panic!`, `unreachable!`,
/// `todo!`, `unimplemented!`, `.unwrap()`, `.expect(`) inside a
/// function transitively reachable from a root (`Simulation::run`,
/// `Pool::run`, the campaign/mix worker entry points) is
/// flagged with its shortest call trail. A `lint:allow(unwrap)`
/// annotation — the error-discipline escape hatch — also suppresses
/// this rule, so a site justified once is justified everywhere.
fn scan_panic_reachability(
    files: &[(String, Vec<LineInfo>)],
    idx: &ItemIndex,
    tracker: &mut AllowTracker,
    diags: &mut Vec<Diagnostic>,
) {
    let graph = CallGraph::build(idx);
    for finding in graph.panic_findings() {
        let Some((rel_path, lines)) = files.iter().find(|(p, _)| p == &finding.file) else {
            continue;
        };
        let n = finding.line as usize - 1;
        if n >= lines.len() || lines[n].in_test {
            continue;
        }
        if tracker.allowed_any(rel_path, lines, n, &[RULE_PANIC_REACHABILITY, RULE_UNWRAP]) {
            continue;
        }
        let root = finding.trail.first().cloned().unwrap_or_default();
        let containing = finding.trail.last().cloned().unwrap_or_default();
        diags.push(
            Diagnostic::new(
                rel_path,
                n as u64 + 1,
                RULE_PANIC_REACHABILITY,
                format!(
                    "`{}` in `{containing}` is reachable from root `{root}`; return a \
                     typed error or annotate with `// lint:allow(panic-reachability)`",
                    finding.what
                ),
            )
            .with_trail(finding.trail),
        );
    }
}

/// Stale-allow: flags `lint:allow(rule-id)` annotations that suppressed
/// nothing in this run. Known ids are only judged when every family
/// that can consume them ran; unknown ids are always stale. Runs after
/// every other rule so the tracker is complete.
pub fn scan_stale_allows(
    files: &[(String, Vec<LineInfo>)],
    families: &[RuleFamily],
    tracker: &mut AllowTracker,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !families.contains(&RuleFamily::StaleAllow) {
        return diags;
    }
    for (rel_path, lines) in files {
        for n in 0..lines.len() {
            if lines[n].in_test {
                continue;
            }
            let ids: Vec<String> = lines[n].allows.clone();
            for id in ids {
                if id == RULE_STALE_ALLOW {
                    continue;
                }
                if tracker.is_used(rel_path, n, &id) {
                    continue;
                }
                let judged = match ALLOW_CONSUMERS.iter().find(|(known, _)| *known == id) {
                    None => true,
                    Some((_, consumers)) => {
                        !consumers.is_empty() && consumers.iter().all(|f| families.contains(f))
                    }
                };
                if !judged {
                    continue;
                }
                if tracker.allowed(rel_path, lines, n, RULE_STALE_ALLOW) {
                    continue;
                }
                diags.push(Diagnostic::new(
                    rel_path,
                    n as u64 + 1,
                    RULE_STALE_ALLOW,
                    format!("`lint:allow({id})` suppresses nothing; remove the stale annotation"),
                ));
            }
        }
    }
    diags
}

/// Token-list rules (wall clock, randomness).
#[allow(clippy::too_many_arguments)]
fn scan_tokens(
    rel_path: &str,
    lines: &[LineInfo],
    tokens: &[&str],
    rule: &'static str,
    why: &str,
    tracker: &mut AllowTracker,
    diags: &mut Vec<Diagnostic>,
) {
    for (n, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in tokens {
            if find_token(&line.code, token).is_some() {
                // The allow is only consumed (and marked used) when a
                // violation is actually suppressed — a stray annotation
                // must stay visible to the stale-allow rule.
                if !tracker.allowed(rel_path, lines, n, rule) {
                    diags.push(Diagnostic::new(
                        rel_path,
                        n as u64 + 1,
                        rule,
                        format!("`{token}` {why}"),
                    ));
                }
                break;
            }
        }
    }
}

/// Error-discipline rule: `.unwrap()`, `.expect(`, `panic!` in non-test
/// code without an inline allow.
fn scan_unwraps(
    rel_path: &str,
    lines: &[LineInfo],
    tracker: &mut AllowTracker,
    diags: &mut Vec<Diagnostic>,
) {
    for (n, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in [".unwrap()", ".expect(", "panic!"] {
            if find_token(&line.code, token).is_some() {
                if !tracker.allowed(rel_path, lines, n, RULE_UNWRAP) {
                    diags.push(Diagnostic::new(
                        rel_path,
                        n as u64 + 1,
                        RULE_UNWRAP,
                        format!(
                            "`{token}` in non-test code; return a typed error or annotate \
                             with `// lint:allow(unwrap)`"
                        ),
                    ));
                }
                break;
            }
        }
    }
}

/// Error-discipline rule: profiler accumulation behind the opt-in
/// guard.
///
/// Every call to a [`PROFILE_ACCUM_TOKENS`] method in engine code must
/// be visibly conditional on the profiler being attached: a guard token
/// on the call line itself, or the receiver bound by a `Some(<recv>)`
/// pattern within [`PROFILE_GUARD_WINDOW`] lines above it inside the
/// same function. Anything else charges profiler state on untraced runs
/// — exactly the cost the opt-in design promises away.
fn scan_profile_guard(
    rel_path: &str,
    lines: &[LineInfo],
    tracker: &mut AllowTracker,
    diags: &mut Vec<Diagnostic>,
) {
    for (n, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        for token in PROFILE_ACCUM_TOKENS {
            let Some(at) = find_token(code, token) else {
                continue;
            };
            if profile_call_is_guarded(lines, n, code, at) {
                continue;
            }
            if !tracker.allowed(rel_path, lines, n, RULE_PROFILE_GUARD) {
                diags.push(Diagnostic::new(
                    rel_path,
                    n as u64 + 1,
                    RULE_PROFILE_GUARD,
                    format!(
                        "profiler accumulation `{token}..)` outside the opt-in guard; wrap it \
                         in `if let Some(prof) = self.profiler.as_mut()` (or annotate with \
                         `// lint:allow(profile-guard)`)"
                    ),
                ));
            }
            break;
        }
    }
}

/// Whether an accumulation call at offset `at` of line `n` is covered by
/// an opt-in guard: a guard expression on the same line, or a
/// `Some(<receiver>)` binding within the window above, without crossing
/// a function boundary.
fn profile_call_is_guarded(lines: &[LineInfo], n: usize, code: &str, at: usize) -> bool {
    let same_line_guard =
        |s: &str| s.contains("if let Some") || s.contains(".as_mut()") || s.contains("is_some");
    if same_line_guard(code) {
        return true;
    }
    let Some(recv) = receiver_before(code, at) else {
        // No plain identifier receiver (e.g. a parenthesized
        // expression): demand the guard on the same line.
        return false;
    };
    let binding = format!("Some({recv})");
    for i in (n.saturating_sub(PROFILE_GUARD_WINDOW)..n).rev() {
        let above = &lines[i].code;
        if above.contains(&binding) || same_line_guard(above) {
            return true;
        }
        let trimmed = above.trim_start();
        if trimmed.starts_with("fn ") || above.contains(" fn ") {
            // Crossed into the enclosing function's signature (or a
            // previous function) without meeting a guard.
            return false;
        }
    }
    false
}

/// Hermeticity rule: every `use` / `extern crate` must resolve inside
/// the workspace or the standard library. Paths rooted at a module the
/// file itself declares (`mod engine;` → `pub use engine::Sim;`) are
/// local, not external.
fn scan_imports(
    rel_path: &str,
    lines: &[LineInfo],
    tracker: &mut AllowTracker,
    diags: &mut Vec<Diagnostic>,
) {
    let local_mods = collect_local_mods(lines);
    for (n, line) in lines.iter().enumerate() {
        let trimmed = line.code.trim_start();
        let path = if let Some(rest) = trimmed.strip_prefix("extern crate ") {
            rest
        } else if let Some(rest) = trimmed
            .strip_prefix("pub use ")
            .or_else(|| trimmed.strip_prefix("pub(crate) use "))
            .or_else(|| trimmed.strip_prefix("pub(super) use "))
            .or_else(|| trimmed.strip_prefix("use "))
        {
            rest
        } else {
            continue;
        };
        let path = path.trim_start_matches("::");
        let root: String = path.chars().take_while(|&c| is_ident_char(c)).collect();
        if root.is_empty() {
            continue;
        }
        if !ALLOWED_IMPORT_ROOTS.contains(&root.as_str())
            && !local_mods.contains(&root)
            && !tracker.allowed(rel_path, lines, n, RULE_EXTERNAL_IMPORT)
        {
            diags.push(Diagnostic::new(
                rel_path,
                n as u64 + 1,
                RULE_EXTERNAL_IMPORT,
                format!("import of external crate `{root}`; the workspace is hermetic"),
            ));
        }
    }
}

/// Module names the file declares itself (`mod x;`, `pub mod x;`,
/// `mod x {`) — valid un-prefixed import roots within the file.
fn collect_local_mods(lines: &[LineInfo]) -> Vec<String> {
    let mut mods = Vec::new();
    for line in lines {
        let trimmed = line.code.trim_start();
        let rest = if let Some(rest) = trimmed.strip_prefix("mod ") {
            rest
        } else if let Some(after_pub) = trimmed.strip_prefix("pub") {
            // `pub mod x;`, `pub(crate) mod x;`, ...
            let after_vis = after_pub
                .strip_prefix("(crate)")
                .or_else(|| after_pub.strip_prefix("(super)"))
                .unwrap_or(after_pub);
            match after_vis.trim_start().strip_prefix("mod ") {
                Some(rest) => rest,
                None => continue,
            }
        } else {
            continue;
        };
        let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
        if !name.is_empty() {
            mods.push(name);
        }
    }
    mods
}

/// Determinism rule: iteration over hash containers.
///
/// Pass 1 collects identifiers declared with a `HashMap`/`HashSet` type
/// or initializer anywhere in the file (struct fields included); pass 2
/// flags unordered-iteration methods invoked on them — same-line
/// (`self.stamps.iter()`), continuation-line (receiver at end of one
/// line, `.iter()` opening the next), and `for _ in &ident` loops.
fn scan_hash_iteration(
    rel_path: &str,
    lines: &[LineInfo],
    tracker: &mut AllowTracker,
    diags: &mut Vec<Diagnostic>,
) {
    let idents = collect_hash_idents(lines);
    if idents.is_empty() {
        return;
    }
    for (n, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let mut hit: Option<String> = None;
        for method in HASH_ITER_METHODS {
            let mut start = 0;
            while let Some(at) = code[start..].find(method) {
                let at = start + at;
                if let Some(recv) = receiver_before(code, at) {
                    if idents.contains(&recv) {
                        hit = Some(recv);
                        break;
                    }
                }
                start = at + 1;
            }
            if hit.is_some() {
                break;
            }
            // Continuation: a chain split across lines, with the
            // receiver closing the previous code line.
            if code.trim_start().starts_with(method) {
                if let Some(prev) = previous_code_line(lines, n) {
                    if let Some(recv) = trailing_ident(&lines[prev].code) {
                        if idents.contains(&recv) {
                            hit = Some(recv);
                            break;
                        }
                    }
                }
            }
        }
        if hit.is_none() {
            if let Some(recv) = for_loop_target(code) {
                if idents.contains(&recv) {
                    hit = Some(recv);
                }
            }
        }
        if let Some(recv) = hit {
            if tracker.allowed(rel_path, lines, n, RULE_HASH_ITERATION) {
                continue;
            }
            diags.push(Diagnostic::new(
                rel_path,
                n as u64 + 1,
                RULE_HASH_ITERATION,
                format!(
                    "iteration over hash container `{recv}` visits entries in hash order; \
                     sort first or annotate an order-insensitive use with \
                     `// lint:allow(hash-iteration)`"
                ),
            ));
        }
    }
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file: `let x =
/// HashMap::new()` bindings and `field: HashMap<..>` declarations.
fn collect_hash_idents(lines: &[LineInfo]) -> Vec<String> {
    let mut idents = Vec::new();
    for line in lines {
        let code = &line.code;
        if !code.contains("HashMap") && !code.contains("HashSet") {
            continue;
        }
        let trimmed = code.trim_start();
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let rest = rest.trim_start_matches("mut ").trim_start();
            let ident: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if !ident.is_empty() {
                idents.push(ident);
            }
            continue;
        }
        // `name: HashMap<..>` — struct fields, typed lets, fn params.
        for ty in ["HashMap", "HashSet"] {
            let mut start = 0;
            while let Some(at) = code[start..].find(ty) {
                let at = start + at;
                let before = code[..at].trim_end();
                if let Some(stripped) = before.strip_suffix(':') {
                    if let Some(ident) = trailing_ident(stripped) {
                        idents.push(ident);
                    }
                }
                start = at + 1;
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// The identifier immediately preceding position `at` (a `.method` call
/// site), skipping nothing else: `self.stamps.iter()` yields `stamps`.
fn receiver_before(code: &str, at: usize) -> Option<String> {
    let ident: String = code[..at]
        .chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!ident.is_empty()).then_some(ident)
}

/// The identifier a line's code ends with (ignoring trailing spaces).
fn trailing_ident(code: &str) -> Option<String> {
    let trimmed = code.trim_end();
    let ident: String = trimmed
        .chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!ident.is_empty() && !ident.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .then_some(ident)
}

/// Index of the nearest preceding line with non-blank code.
fn previous_code_line(lines: &[LineInfo], n: usize) -> Option<usize> {
    (0..n).rev().find(|&i| !lines[i].code.trim().is_empty())
}

/// The iterated identifier of a `for .. in <expr> {` line, stripped of
/// `&`, `&mut`, and a `self.` prefix. Returns `None` for non-loops or
/// compound expressions (method calls handle those).
fn for_loop_target(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    if !trimmed.starts_with("for ") {
        return None;
    }
    let after_in = trimmed.split(" in ").nth(1)?;
    let expr = after_in
        .split('{')
        .next()
        .unwrap_or("")
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim();
    // A dotted path of plain identifiers (`stamps`, `self.stamps`,
    // `s.stamps`): the hash container is the last segment. Method-call
    // expressions (`map.keys()`) are caught by the method scan instead.
    let mut last = None;
    for seg in expr.split('.') {
        if seg.is_empty() || !seg.chars().all(is_ident_char) {
            return None;
        }
        last = Some(seg);
    }
    last.map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::check_source;

    fn scan_at(path: &str, text: &str, fam: RuleFamily) -> Vec<Diagnostic> {
        scan(path, &analyze(text), &[fam])
    }

    #[test]
    fn unwrap_flagged_only_without_allow() {
        let text = "fn f() {\n  x.unwrap();\n  y.expect(\"z\"); // lint:allow(unwrap)\n}\n";
        let d = scan_at("crates/sim/src/a.rs", text, RuleFamily::ErrorDiscipline);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].rule, RULE_UNWRAP);
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        let text = "fn f() { x.unwrap_or_else(|| 3); y.unwrap_or(4); z.expect_err_helper(); }\n";
        let d = scan_at("crates/sim/src/a.rs", text, RuleFamily::ErrorDiscipline);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unwrap_outside_scope_is_ignored() {
        let d = scan_at(
            "crates/bench/src/lib.rs",
            "fn f() { x.unwrap(); }\n",
            RuleFamily::ErrorDiscipline,
        );
        assert!(d.is_empty());
    }

    #[test]
    fn wall_clock_and_randomness_flagged() {
        let text = "use std::time::Instant;\nlet t = Instant::now();\nlet r = thread_rng();\n";
        let d = scan_at("crates/core/src/a.rs", text, RuleFamily::Determinism);
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&RULE_WALL_CLOCK));
        assert!(rules.contains(&RULE_RANDOMNESS));
    }

    #[test]
    fn hash_iteration_same_line_continuation_and_for_loop() {
        let text = "struct S { stamps: HashMap<u64, u64> }\n\
                    fn f(s: &S) {\n\
                    \x20 for (k, v) in &s.stamps {}\n\
                    \x20 s.stamps.iter().count();\n\
                    \x20 s.stamps\n\
                    \x20     .iter()\n\
                    \x20     .count();\n\
                    }\n";
        let d = scan_at("crates/sim/src/a.rs", text, RuleFamily::Determinism);
        let lines: Vec<u64> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![3, 4, 6], "{d:?}");
    }

    #[test]
    fn vec_iteration_is_not_flagged() {
        let text = "fn f() { let v: Vec<u32> = Vec::new(); v.iter().count(); }\n";
        let d = scan_at("crates/sim/src/a.rs", text, RuleFamily::Determinism);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn external_imports_flagged_workspace_allowed() {
        let text = "use serde::Serialize;\nuse std::fmt;\nuse uvm_util::ToJson;\nuse crate::x;\n";
        let d = scan_at("crates/types/src/a.rs", text, RuleFamily::Hermeticity);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("serde"));
    }

    #[test]
    fn standalone_allow_line_covers_the_next_code_line() {
        let text = "fn f() {\n  // lint:allow(unwrap) — guarded by the caller\n  x.unwrap();\n  y.unwrap();\n}\n";
        let d = scan_at("crates/sim/src/a.rs", text, RuleFamily::ErrorDiscipline);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn local_module_reexports_are_allowed() {
        let text = "pub mod engine;\nmod detail;\npub use engine::Sim;\nuse detail::helper;\nuse report::Row;\n";
        let d = scan_at("crates/sim/src/lib.rs", text, RuleFamily::Hermeticity);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 5);
        assert!(d[0].message.contains("report"));
    }

    #[test]
    fn profile_guard_flags_unguarded_accumulation() {
        let text = "fn f(prof: &mut Profiler) {\n  prof.charge(A, 1);\n}\n";
        let d = scan_at(
            "crates/sim/src/engine.rs",
            text,
            RuleFamily::ErrorDiscipline,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_PROFILE_GUARD);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn profile_guard_accepts_guarded_and_distant_guarded_calls() {
        // Guard on the binding line, accumulation several lines below
        // (multi-line charge computations), still within the window.
        let text = "fn f(&mut self) {\n\
                    \x20 if let Some(prof) = self.profiler.as_mut() {\n\
                    \x20   let a = 1;\n\
                    \x20   let b = 2;\n\
                    \x20   let c = a + b;\n\
                    \x20   prof.charge(A, c);\n\
                    \x20   prof.warp_stalled(0, c);\n\
                    \x20 }\n\
                    }\n";
        let d = scan_at(
            "crates/sim/src/engine.rs",
            text,
            RuleFamily::ErrorDiscipline,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn profile_guard_stops_at_function_boundaries() {
        // A guard in a *previous* function must not cover this one.
        let text = "fn g(&mut self) {\n\
                    \x20 if let Some(prof) = self.profiler.as_mut() {\n\
                    \x20   prof.charge(A, 1);\n\
                    \x20 }\n\
                    }\n\
                    fn f(prof: &mut Profiler) {\n\
                    \x20 prof.note_retry(1, 2);\n\
                    }\n";
        let d = scan_at(
            "crates/sim/src/engine.rs",
            text,
            RuleFamily::ErrorDiscipline,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 7);
    }

    #[test]
    fn profile_guard_exempts_profile_rs_and_out_of_scope_files() {
        let text = "fn f(prof: &mut Profiler) {\n  prof.charge(A, 1);\n}\n";
        for path in ["crates/sim/src/profile.rs", "crates/bench/src/runner.rs"] {
            let d = scan_at(path, text, RuleFamily::ErrorDiscipline);
            assert!(d.is_empty(), "{path}: {d:?}");
        }
    }

    #[test]
    fn rng_taint_flags_literal_and_untraceable_seeds() {
        let text = "const AMBIENT: u64 = 7;\n\
                    fn good(seed: u64) -> Rng {\n\
                    \x20 Rng::seed_from_u64(seed ^ 0x9E37)\n\
                    }\n\
                    fn literal() -> Rng {\n\
                    \x20 Rng::seed_from_u64(0xD1B)\n\
                    }\n\
                    fn ambient() -> Rng {\n\
                    \x20 Rng::seed_from_u64(AMBIENT)\n\
                    }\n";
        let d = check_source("crates/sim/src/a.rs", text, &[RuleFamily::DeterminismTaint]);
        let lines: Vec<u64> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![6, 9], "{d:?}");
        assert!(d.iter().all(|d| d.rule == RULE_RNG_TAINT));
        assert!(d[1].message.contains("AMBIENT"));
    }

    #[test]
    fn rng_taint_honors_allow() {
        let text = "fn f() -> Rng {\n\
                    \x20 Rng::seed_from_u64(3) // lint:allow(rng-taint) — fixed dither stream\n\
                    }\n";
        let d = check_source("crates/sim/src/a.rs", text, &[RuleFamily::DeterminismTaint]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn panic_reachability_carries_trail_and_honors_unwrap_allow() {
        let text = "pub fn run_campaign() { worker(0); }\n\
                    fn worker(i: u64) {\n\
                    \x20 merge(i);\n\
                    \x20 audit(i);\n\
                    }\n\
                    fn merge(i: u64) { slots(i).unwrap(); }\n\
                    fn audit(i: u64) {\n\
                    \x20 slots(i).expect(\"present\") // lint:allow(unwrap) — audited above\n\
                    }\n\
                    fn slots(i: u64) -> Option<u64> { Some(i) }\n";
        let d = check_source(
            "crates/bench/src/campaign.rs",
            text,
            &[RuleFamily::PanicReachability],
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 6);
        assert_eq!(d[0].rule, RULE_PANIC_REACHABILITY);
        assert_eq!(d[0].trail, vec!["run_campaign", "worker", "merge"]);
        assert!(d[0].message.contains("run_campaign"));
    }

    #[test]
    fn panic_unreachable_from_roots_is_not_flagged() {
        let text = "pub fn run_campaign() { safe(); }\n\
                    fn safe() -> u64 { 3 }\n\
                    fn orphan() { x.unwrap(); }\n";
        let d = check_source(
            "crates/bench/src/campaign.rs",
            text,
            &[RuleFamily::PanicReachability],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn stale_allow_flags_unused_and_unknown_ids() {
        let text = "fn f(x: Option<u32>) -> u32 {\n\
                    \x20 let y = 3; // lint:allow(unwrap)\n\
                    \x20 let z = 4; // lint:allow(no-such-rule)\n\
                    \x20 x.unwrap() // lint:allow(unwrap) — used, stays clean\n\
                    }\n";
        let d = check_source("crates/sim/src/a.rs", text, RuleFamily::ALL);
        let hits: Vec<(u64, &str)> = d.iter().map(|d| (d.line, d.rule)).collect();
        assert_eq!(
            hits,
            vec![(2, RULE_STALE_ALLOW), (3, RULE_STALE_ALLOW)],
            "{d:?}"
        );
        assert!(d[0].message.contains("unwrap"));
        assert!(d[1].message.contains("no-such-rule"));
    }

    #[test]
    fn stale_allow_skips_ids_whose_consumers_did_not_run() {
        // An unused unwrap allow is only judged when both
        // error-discipline and panic-reachability ran.
        let text = "fn f() {\n  let y = 3; // lint:allow(unwrap)\n}\n";
        let d = check_source(
            "crates/sim/src/a.rs",
            text,
            &[RuleFamily::ErrorDiscipline, RuleFamily::StaleAllow],
        );
        assert!(d.is_empty(), "{d:?}");
        let d = check_source(
            "crates/sim/src/a.rs",
            text,
            &[
                RuleFamily::ErrorDiscipline,
                RuleFamily::PanicReachability,
                RuleFamily::StaleAllow,
            ],
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_STALE_ALLOW);
    }

    #[test]
    fn test_regions_are_exempt() {
        let text = "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { x.unwrap(); } }\n";
        let d = scan_at("crates/sim/src/a.rs", text, RuleFamily::ErrorDiscipline);
        assert!(d.is_empty());
    }
}
