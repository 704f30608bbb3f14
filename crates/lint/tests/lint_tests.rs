//! Integration tests for `uvm-lint`: seeded fixture violations (one per
//! rule family), a clean fixture, a pinned golden diagnostic report, a
//! drift check against every paper-constants manifest entry, and the
//! self-check that the live workspace lints clean.
//!
//! Fixtures live under `tests/fixtures/` (skipped by
//! `check_workspace`, never compiled) and are linted under synthetic
//! workspace-relative paths so rule scoping applies as it would in the
//! real tree. Regenerate the golden report with
//! `UPDATE_GOLDEN=1 cargo test -p uvm-lint` after an intentional
//! diagnostic format change.

use std::fs;
use std::path::{Path, PathBuf};

use uvm_lint::manifest::MANIFEST;
use uvm_lint::{check_source, check_workspace, report_json, Diagnostic, RuleFamily};

/// Each fixture with the workspace path it impersonates.
const FIXTURES: &[(&str, &str)] = &[
    ("determinism.rs", "crates/sim/src/fixture_determinism.rs"),
    ("hermeticity.rs", "crates/util/src/fixture_hermeticity.rs"),
    (
        "error_discipline.rs",
        "crates/core/src/fixture_error_discipline.rs",
    ),
    ("constants.rs", "crates/core/src/config.rs"),
    (
        "profile_guard.rs",
        "crates/sim/src/fixture_profile_guard.rs",
    ),
    ("panic_reachability.rs", "crates/bench/src/fixture_panic.rs"),
    ("rng_taint.rs", "crates/sim/src/fixture_rng_taint.rs"),
    ("stale_allow.rs", "crates/sim/src/fixture_stale_allow.rs"),
    ("clean.rs", "crates/sim/src/fixture_clean.rs"),
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(name: &str) -> String {
    let path = fixture_dir().join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let (_, rel) = FIXTURES
        .iter()
        .find(|(f, _)| *f == name)
        .unwrap_or_else(|| panic!("unknown fixture {name}"));
    check_source(rel, &fixture(name), RuleFamily::ALL)
}

fn lines_and_rules(diags: &[Diagnostic]) -> Vec<(u64, &str)> {
    diags.iter().map(|d| (d.line, d.rule)).collect()
}

#[test]
fn determinism_fixture_reports_every_rule_with_location() {
    let d = lint_fixture("determinism.rs");
    assert_eq!(
        lines_and_rules(&d),
        vec![
            (10, "wall-clock"),
            (11, "randomness"),
            (13, "hash-iteration")
        ],
        "{d:?}"
    );
    assert!(d
        .iter()
        .all(|d| d.file == "crates/sim/src/fixture_determinism.rs"));
}

#[test]
fn hermeticity_fixture_reports_external_import() {
    let d = lint_fixture("hermeticity.rs");
    assert_eq!(lines_and_rules(&d), vec![(3, "external-import")], "{d:?}");
    assert!(d[0].message.contains("serde"));
}

#[test]
fn error_discipline_fixture_reports_unannotated_sites_only() {
    let d = lint_fixture("error_discipline.rs");
    assert_eq!(
        lines_and_rules(&d),
        vec![(4, "unwrap"), (5, "unwrap"), (7, "unwrap")],
        "{d:?}"
    );
    // The annotated site on line 13 must be exempt.
    assert!(d.iter().all(|d| d.line != 13));
}

#[test]
fn constants_fixture_reports_drifted_literal() {
    let d = lint_fixture("constants.rs");
    assert_eq!(lines_and_rules(&d), vec![(17, "paper-constants")], "{d:?}");
    assert!(d[0].message.contains("interval_len"));
    assert!(d[0].message.contains("63"));
    assert!(d[0].message.contains("64"));
}

#[test]
fn profile_guard_fixture_reports_the_unguarded_site_only() {
    let d = lint_fixture("profile_guard.rs");
    assert_eq!(lines_and_rules(&d), vec![(13, "profile-guard")], "{d:?}");
    assert!(d[0].message.contains("opt-in guard"));
    // Guarded (line 19) and annotated (line 24) sites must be exempt.
    assert!(d.iter().all(|d| d.line != 19 && d.line != 24));
}

#[test]
fn panic_reachability_fixture_reports_reachable_sites_with_trails() {
    let d = lint_fixture("panic_reachability.rs");
    assert_eq!(
        lines_and_rules(&d),
        vec![(15, "panic-reachability"), (20, "panic-reachability")],
        "{d:?}"
    );
    // Each finding carries the call trail from the root.
    assert_eq!(d[0].trail, vec!["run_campaign", "worker"]);
    assert_eq!(d[1].trail, vec!["run_campaign", "worker", "merge"]);
    assert!(d[0].message.contains("reachable from root `run_campaign`"));
    // The annotated site (line 26) and the orphan unreachable from any
    // root (line 34) must both be exempt.
    assert!(d.iter().all(|d| d.line != 26 && d.line != 34));
}

#[test]
fn rng_taint_fixture_reports_untraceable_seeds_only() {
    let d = lint_fixture("rng_taint.rs");
    assert_eq!(
        lines_and_rules(&d),
        vec![(15, "rng-taint"), (19, "rng-taint")],
        "{d:?}"
    );
    assert!(d[0].message.contains("literal"));
    assert!(d[1].message.contains("GLOBAL_MAGIC"));
    // Param-derived (line 7), config-derived (line 11), and annotated
    // (line 23) seeds must be exempt.
    assert!(d
        .iter()
        .all(|d| d.line != 7 && d.line != 11 && d.line != 23));
}

#[test]
fn stale_allow_fixture_reports_unused_and_unknown_allows() {
    let d = lint_fixture("stale_allow.rs");
    assert_eq!(
        lines_and_rules(&d),
        vec![(17, "stale-allow"), (21, "stale-allow")],
        "{d:?}"
    );
    assert!(d[0].message.contains("suppresses nothing"));
    // The consumed allow on the real hash-iteration hit (line 14) is
    // not stale, and the hit itself stays suppressed.
    assert!(d.iter().all(|d| d.line != 14));
}

#[test]
fn clean_fixture_is_clean() {
    let d = lint_fixture("clean.rs");
    assert!(d.is_empty(), "{d:?}");
}

/// The full diagnostic report over every fixture, pinned as golden JSON.
/// Catches silent changes to rule ids, message wording, ordering, or the
/// report envelope.
#[test]
fn fixture_diagnostics_match_golden_json() {
    let mut diags = Vec::new();
    for (name, _) in FIXTURES {
        diags.extend(lint_fixture(name));
    }
    let actual = format!("{}\n", report_json(&diags).pretty());
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/diagnostics.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::write(&golden_path, &actual).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    assert_eq!(
        actual, golden,
        "diagnostic report drifted from tests/golden/diagnostics.json; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The acceptance gate: the live workspace has zero violations across
/// every rule family.
#[test]
fn live_workspace_lints_clean() {
    let diags = check_workspace(&workspace_root(), RuleFamily::ALL).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "workspace must lint clean:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Editing any pinned constant in the real config sources must trip the
/// paper-constants rule: for each manifest entry, mutate the first
/// pinned literal of the real file in memory and expect a diagnostic.
#[test]
fn every_manifest_entry_detects_drift_in_real_sources() {
    let root = workspace_root();
    for spec in MANIFEST {
        let path = root.join(spec.file_suffix);
        let text =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let (field, values) = spec.fields[0];
        let needle = format!("{field}: {}", values[0]);
        assert!(
            text.contains(&needle),
            "{}: expected literal `{needle}` not found; manifest and source \
             have diverged",
            spec.context
        );
        let drifted = text.replace(&needle, &format!("{field}: 987654321"));
        let diags = check_source(spec.file_suffix, &drifted, &[RuleFamily::PaperConstants]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "paper-constants" && d.message.contains(field)),
            "{}: drifting `{field}` went undetected: {diags:?}",
            spec.context
        );
    }
}
