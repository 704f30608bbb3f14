//! Kill/resume suite: a campaign stopped at a snapshot boundary and
//! resumed from its auto-snapshot must merge to the same report as an
//! uninterrupted run, and snapshots from a different spec must be
//! refused with a typed error.

use std::fs;
use std::path::PathBuf;

use hpe_bench::{
    bench_config, campaign, chaos_plan_set, run_campaign, CampaignError, CampaignSnapshot,
    CampaignSpec, PolicyKind, PoolOptions,
};
use uvm_types::Oversubscription;

/// A fresh temp path per test so parallel test binaries cannot collide.
fn temp_snapshot(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "hpe-campaign-resume-{}-{tag}.json",
        std::process::id()
    ));
    let _ = fs::remove_file(&path);
    path
}

/// 2 apps x 2 policies x 1 rate x 2 plan columns = 8 cells.
fn sub_grid() -> CampaignSpec {
    let seed = 2019;
    let plans = chaos_plan_set(seed)
        .into_iter()
        .filter(|p| matches!(p.name.as_str(), "clean" | "signal-chaos"))
        .collect();
    CampaignSpec {
        apps: vec!["STN".to_string(), "SGM".to_string()],
        policies: vec![PolicyKind::Lru, PolicyKind::Hpe],
        rates: vec![Oversubscription::Rate75],
        plans,
        recovery: Default::default(),
        seed,
    }
}

#[test]
fn killed_campaign_resumes_from_auto_snapshot_to_identical_report() {
    let cfg = bench_config();
    let spec = sub_grid();

    // Reference: the same grid run straight through, no snapshotting.
    let reference = run_campaign(&cfg, &spec, &PoolOptions::default(), None)
        .expect("uninterrupted run")
        .report()
        .expect("complete")
        .to_json()
        .to_string();

    for workers in [1, 2, 8] {
        let path = temp_snapshot(&format!("kill-{workers}"));

        // "Kill" the campaign: dispatch only 4 cells, with a snapshot
        // boundary exactly there, then drop the pool. The cap holds for
        // any worker count.
        let killed = run_campaign(
            &cfg,
            &spec,
            &PoolOptions {
                workers,
                shuffle: Some(11),
                snapshot_path: Some(path.clone()),
                snapshot_every: 4,
                limit: Some(4),
                ..PoolOptions::default()
            },
            None,
        )
        .expect("partial run");
        assert!(!killed.is_complete());
        assert_eq!(killed.executed, 4, "workers {workers}");
        assert!(matches!(
            killed.report(),
            Err(CampaignError::Incomplete { done: 4, total: 8 })
        ));
        let snap = CampaignSnapshot::load(&path).expect("auto-snapshot exists and validates");
        assert_eq!(snap.completed.len(), 4);
        assert_eq!(snap.fingerprint, spec.fingerprint());

        // Resume: only the pending cells run; the merge is byte-identical
        // to the uninterrupted report.
        let resumed = run_campaign(
            &cfg,
            &spec,
            &PoolOptions {
                workers,
                snapshot_path: Some(path.clone()),
                resume: true,
                ..PoolOptions::default()
            },
            None,
        )
        .expect("resumed run");
        assert_eq!(resumed.resumed, 4);
        assert_eq!(resumed.executed, 4);
        assert!(resumed.is_complete());
        assert_eq!(
            resumed.report().expect("complete").to_json().to_string(),
            reference,
            "workers {workers}"
        );
        let _ = fs::remove_file(&path);
    }
}

#[test]
fn resume_refuses_a_snapshot_from_a_different_spec() {
    let cfg = bench_config();
    let spec = sub_grid();
    let path = temp_snapshot("mismatch");

    // Snapshot a *reseeded* spec: same grid shape, different fingerprint.
    let mut other = sub_grid();
    other.seed = 7;
    other.plans = chaos_plan_set(7)
        .into_iter()
        .filter(|p| matches!(p.name.as_str(), "clean" | "signal-chaos"))
        .collect();
    assert_ne!(other.fingerprint(), spec.fingerprint());
    run_campaign(
        &cfg,
        &other,
        &PoolOptions {
            snapshot_path: Some(path.clone()),
            snapshot_every: 2,
            limit: Some(2),
            ..PoolOptions::default()
        },
        None,
    )
    .expect("partial run of the other spec");

    let err = run_campaign(
        &cfg,
        &spec,
        &PoolOptions {
            snapshot_path: Some(path.clone()),
            resume: true,
            ..PoolOptions::default()
        },
        None,
    )
    .expect_err("fingerprint mismatch must refuse to resume");
    assert!(
        matches!(err, CampaignError::SnapshotMismatch { .. }),
        "expected SnapshotMismatch, got {err}"
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn resume_rejects_a_malformed_snapshot_file() {
    let cfg = bench_config();
    let spec = sub_grid();
    let path = temp_snapshot("malformed");
    fs::write(&path, "this is not json").unwrap();
    let err = run_campaign(
        &cfg,
        &spec,
        &PoolOptions {
            snapshot_path: Some(path.clone()),
            resume: true,
            ..PoolOptions::default()
        },
        None,
    )
    .expect_err("malformed snapshot must be rejected");
    assert!(
        matches!(err, CampaignError::SnapshotMalformed(_)),
        "expected SnapshotMalformed, got {err}"
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn resume_with_no_snapshot_file_starts_fresh() {
    let cfg = bench_config();
    let spec = sub_grid();
    let path = temp_snapshot("fresh");
    // resume: true with no file on disk is a fresh start, not an error —
    // that's what lets `--resume` be passed unconditionally in scripts.
    let outcome = run_campaign(
        &cfg,
        &spec,
        &PoolOptions {
            snapshot_path: Some(path.clone()),
            resume: true,
            ..PoolOptions::default()
        },
        None,
    )
    .expect("fresh run");
    assert_eq!(outcome.resumed, 0);
    assert!(outcome.is_complete());
    // The final snapshot is always written for a snapshot-enabled run.
    let snap = campaign::CampaignSnapshot::load(&path).expect("final snapshot");
    assert_eq!(snap.completed.len(), spec.grid_len());
    let _ = fs::remove_file(&path);
}
