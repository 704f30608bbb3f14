//! `BENCH_*.json` schema suite: round-trip fidelity, malformed-snapshot
//! rejection, and the committed trajectory.

use hpe_bench::perf::{latest, next_id};
use hpe_bench::{BenchSnapshot, PolicyPerf, BENCH_SCHEMA_VERSION};
use uvm_util::ToJson;

/// A small but fully populated snapshot.
fn sample(id: &str) -> BenchSnapshot {
    BenchSnapshot {
        schema: BENCH_SCHEMA_VERSION,
        id: id.to_string(),
        seed: 2019,
        apps: vec!["STN".to_string(), "SGM".to_string()],
        policies: vec![
            PolicyPerf {
                policy: "LRU".to_string(),
                slowdown_75: 1.616,
                slowdown_50: 1.398,
            },
            PolicyPerf {
                policy: "HPE".to_string(),
                slowdown_75: 1.277,
                slowdown_50: 1.286,
            },
        ],
    }
}

// ---------------------------------------------------------------------------
// Round-trip
// ---------------------------------------------------------------------------

#[test]
fn snapshot_round_trips_byte_identically_through_json() {
    let snap = sample("BENCH_0001");
    let text = snap.to_json().to_string();
    let back = BenchSnapshot::parse(&text).expect("parses and validates");
    assert_eq!(back, snap);
    // Serializing the parsed value reproduces the original bytes: the
    // schema has no lossy or order-unstable fields.
    assert_eq!(back.to_json().to_string(), text);
    // The pretty form parses back to the same value too.
    let pretty = snap.to_json().pretty();
    assert_eq!(BenchSnapshot::parse(&pretty).unwrap(), snap);
}

#[test]
fn parse_fills_defaults_for_optional_fields_but_validation_still_gates() {
    // A sparse document parses (impl_json_struct defaults) but cannot
    // validate: default schema 0 and empty metric sets are rejected.
    let err = BenchSnapshot::parse("{}").expect_err("defaults must not validate");
    assert!(err.contains("schema"), "unexpected error: {err}");
}

// ---------------------------------------------------------------------------
// Malformed snapshots
// ---------------------------------------------------------------------------

#[test]
fn malformed_snapshots_are_rejected_with_readable_errors() {
    // Not JSON at all.
    assert!(BenchSnapshot::parse("nope").is_err());

    // Wrong schema version.
    let mut snap = sample("BENCH_0001");
    snap.schema = 99;
    let err = BenchSnapshot::parse(&snap.to_json().to_string()).unwrap_err();
    assert!(err.contains("schema 99"), "unexpected error: {err}");

    // Id without the BENCH_ prefix.
    let snap = sample("SNAP_1");
    let err = snap.validate().unwrap_err();
    assert!(err.contains("BENCH_"), "unexpected error: {err}");

    // Empty metric sets.
    let mut snap = sample("BENCH_0001");
    snap.apps.clear();
    assert!(snap.validate().unwrap_err().contains("empty app set"));
    let mut snap = sample("BENCH_0001");
    snap.policies.clear();
    assert!(snap.validate().unwrap_err().contains("empty policy set"));

    // Non-finite and non-positive numbers.
    for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
        let mut snap = sample("BENCH_0001");
        snap.policies[0].slowdown_50 = bad;
        assert!(snap.validate().is_err(), "slowdown {bad} must be rejected");
    }

    // A field with the wrong JSON type fails at the FromJson layer.
    let err = BenchSnapshot::parse(r#"{"schema": "one"}"#).unwrap_err();
    assert!(!err.is_empty());
}

// ---------------------------------------------------------------------------
// Trajectory bookkeeping
// ---------------------------------------------------------------------------

#[test]
fn every_committed_snapshot_loads_and_validates() {
    // BENCH_0001..0005 also carry the retired `wall_clocks` array; the
    // parser must skip it, not reject the file.
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("benchmarks/ is readable")
        .map(|entry| entry.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no benchmarks/BENCH_*.json committed");
    for path in &paths {
        let snap = BenchSnapshot::load(path).unwrap_or_else(|e| panic!("{e}"));
        let stem = path.file_stem().unwrap().to_string_lossy();
        assert_eq!(
            snap.id,
            stem,
            "{}: id does not match the file name",
            path.display()
        );
        assert_eq!(
            snap.apps.len(),
            23,
            "{}: not the full app grid",
            path.display()
        );
        assert!(snap.policies.iter().any(|p| p.policy == "HPE"));
    }
    assert_eq!(latest(&dir).as_ref(), paths.last());
    assert!(next_id(&dir).starts_with("BENCH_"));
}
