//! `hpe-lab` CLI flag contract, driven through the real binary
//! (`CARGO_BIN_EXE_hpe-lab`): each subcommand accepts only the flags it
//! reads, and any other flag exits 2 with usage before any work starts.

use std::path::Path;
use std::process::{Command, Output};

fn hpe_lab(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpe-lab"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(stderr.contains("usage: hpe-lab"), "stderr: {stderr}");
}

#[test]
fn subcommands_reject_flags_they_never_read() {
    let dir = std::env::temp_dir().join("hpe-lab-cli-flags");
    std::fs::create_dir_all(&dir).unwrap();
    // A regular file where `--dir` wants a directory: should the flags
    // ever be accepted again, the snapshot fails fast (exit 1) instead
    // of collecting the whole grid.
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, "").unwrap();
    let snap_dir = blocker.join("snapshots");
    let snap_dir = snap_dir.to_str().unwrap();

    // `collect` always uses BENCH_SEED, so `--seed` has nothing to set.
    let out = hpe_lab(&["bench-snapshot", "--seed", "7", "--dir", snap_dir], &dir);
    assert_usage_error(&out, "unknown option \"--seed\"");

    // The fairness grid writes no snapshot directory.
    let out = hpe_lab(&["fairness", "--dir", snap_dir], &dir);
    assert_usage_error(&out, "unknown option \"--dir\"");

    // A read flag without its value is a usage error too.
    let out = hpe_lab(&["fairness", "--workers"], &dir);
    assert_usage_error(&out, "--workers needs a value");
    let out = hpe_lab(&["bench-snapshot", "--workers", "many"], &dir);
    assert_usage_error(&out, "bad --workers \"many\"");
}
