//! Golden tests for the fault-space exploration engine.
//!
//! The `fixtures/explore/seeded-bad.json` spec carries a known-bad fault
//! plan: a CompletionLoss window wider than the fixed retry policy's
//! total backoff, wrapped in decoy windows and noise knobs. The engine
//! must find it, shrink it to the single offending window, and produce
//! the *same counterexample bytes* on every rerun and for every worker
//! count — that determinism is what makes a shrunk repro trustworthy.

use std::path::{Path, PathBuf};

use hpe_bench::{bench_config, replay_repro, repro_for, run_explore};
use uvm_sim::{ExploreSpec, FaultFamily};
use uvm_util::{FromJson, Json, ToJson};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/explore")
}

/// Parses `fixtures/explore/<name>` strictly and validates it, panicking
/// with the file name on the first problem.
fn load_spec(name: &str) -> ExploreSpec {
    let path = fixture_dir().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    let spec = ExploreSpec::from_json(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
    spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    spec
}

/// Every JSON spec under `fixtures/explore/` parses as an `ExploreSpec`
/// and validates, so a broken fixture fails here rather than when
/// someone runs it.
#[test]
fn every_explore_fixture_parses_and_validates() {
    let mut names: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("fixtures/explore is readable")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 2,
        "expected the committed specs, found {names:?}"
    );
    for name in &names {
        load_spec(name);
    }
}

#[test]
fn seeded_bad_is_found_shrunk_and_replayed_deterministically() {
    let cfg = bench_config();
    let spec = load_spec("seeded-bad.json");

    let one = run_explore(&cfg, &spec, 1, None).unwrap();
    let three = run_explore(&cfg, &spec, 3, None).unwrap();
    assert_eq!(
        one.to_json().to_string(),
        three.to_json().to_string(),
        "report bytes must not depend on worker count"
    );

    assert_eq!(one.counterexamples.len(), 1, "{:?}", one.counterexamples);
    let cx = &one.counterexamples[0];
    assert_eq!(cx.label, "fixture:0");
    assert_eq!(cx.invariant, "completes");
    assert!(cx.error.contains("retries exhausted"), "{}", cx.error);
    // Shrinking must strip both decoy windows and keep only the
    // CompletionLoss window that actually exhausts the retry policy,
    // with its width minimized below the planted 400k cycles.
    assert_eq!(cx.plan.windows.len(), 1, "{:?}", cx.plan.windows);
    assert_eq!(cx.plan.windows[0].family, FaultFamily::CompletionLoss);
    assert!(
        cx.plan.windows[0].width < 400_000,
        "width {} was not minimized",
        cx.plan.windows[0].width
    );

    // A rerun (different worker count again) reproduces the identical
    // counterexample bytes.
    let again = run_explore(&cfg, &spec, 2, None).unwrap();
    assert_eq!(one.to_json().to_string(), again.to_json().to_string());

    // The emitted repro replays in one step and reproduces the recorded
    // violation verbatim.
    let repro = repro_for(&spec, cx);
    let reproduced = replay_repro(&cfg, &repro).unwrap();
    assert_eq!(reproduced, Some((cx.invariant.clone(), cx.error.clone())));
}

#[test]
fn clean_smoke_spec_is_counterexample_free_for_any_worker_count() {
    let cfg = bench_config();
    let spec = load_spec("smoke.json");

    let one = run_explore(&cfg, &spec, 1, None).unwrap();
    assert!(one.counterexamples.is_empty(), "{:?}", one.counterexamples);
    assert_eq!(one.cases, 6, "2 families x 2 placements + 2 batch runs");
    assert_eq!(one.window_cases, 4);
    assert_eq!(one.batch_cases, 2);
    assert_eq!(one.shrink_probes, 0);

    let four = run_explore(&cfg, &spec, 4, None).unwrap();
    assert_eq!(
        one.to_json().to_string(),
        four.to_json().to_string(),
        "clean report bytes must not depend on worker count"
    );
}
