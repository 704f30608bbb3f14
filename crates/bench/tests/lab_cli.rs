//! `hpe-lab` CLI contract, driven through the real binary
//! (`CARGO_BIN_EXE_hpe-lab`): the stdout of the quick commands is pinned
//! byte for byte (`tests/pins/`), and each subcommand accepts only the
//! flags and positional arguments it reads — anything else exits 2 with
//! usage before any work starts.

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
    assert!(out.stdout.is_empty(), "no work may start before the check");
}

#[test]
fn quick_commands_print_pinned_stdout() {
    let dir = std::env::temp_dir();
    for (args, pin) in [
        (&["list"][..], include_str!("pins/list.txt")),
        (&["profile", "STN"], include_str!("pins/profile-stn.txt")),
        (
            &["run", "STN", "--policy", "lru", "--rate", "50", "--json"],
            include_str!("pins/run-stn-lru-50.json"),
        ),
        (&["compare", "STN"], include_str!("pins/compare-stn.txt")),
        (
            &["sweep", "STN", "--policy", "lru"],
            include_str!("pins/sweep-stn-lru.txt"),
        ),
    ] {
        let out = hpe_lab(args, &dir);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), pin, "{args:?}");
    }
}

#[test]
fn the_paper_rates_read_the_same_with_or_without_percent() {
    let dir = std::env::temp_dir();
    let plain = hpe_lab(&["run", "STN", "--json"], &dir);
    let percent = hpe_lab(&["run", "STN", "--rate", "75%", "--json"], &dir);
    assert_eq!(plain.status.code(), Some(0), "{plain:?}");
    assert_eq!(plain.stdout, percent.stdout);
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
    assert_usage_error(&out, "bench-snapshot does not take '--seed'");

    // The fairness grid writes no snapshot directory.
    let out = hpe_lab(&["fairness", "--dir", snap_dir], &dir);
    assert_usage_error(&out, "fairness does not take '--dir'");

    // A read flag without its value is a usage error too.
    let out = hpe_lab(&["fairness", "--workers"], &dir);
    assert_usage_error(&out, "--workers needs a value");
    let out = hpe_lab(&["bench-snapshot", "--workers", "many"], &dir);
    assert_usage_error(&out, "bad --workers 'many'");

    // `profile` profiles the access stream alone: no run, no rate.
    let out = hpe_lab(&["profile", "STN", "--rate", "50"], &dir);
    assert_usage_error(&out, "profile does not take '--rate'");
    let out = hpe_lab(&["list", "--bogus"], &dir);
    assert_usage_error(&out, "list does not take '--bogus'");
    // `compare` runs every policy and prints a table.
    let out = hpe_lab(&["compare", "STN", "--policy", "lru"], &dir);
    assert_usage_error(&out, "compare does not take '--policy'");
    let out = hpe_lab(&["compare", "STN", "--json"], &dir);
    assert_usage_error(&out, "compare does not take '--json'");
    // `sweep` sets the rate itself and prints a table.
    let out = hpe_lab(&["sweep", "STN", "--rate", "50"], &dir);
    assert_usage_error(&out, "sweep does not take '--rate'");
    let out = hpe_lab(&["sweep", "STN", "--json"], &dir);
    assert_usage_error(&out, "sweep does not take '--json'");
}

#[test]
fn subcommands_reject_positional_arguments_they_never_read() {
    let dir = std::env::temp_dir();
    let out = hpe_lab(&["profile", "STN", "extra"], &dir);
    assert_usage_error(&out, "profile takes at most 1 argument(s), got 2");
    let out = hpe_lab(&["run"], &dir);
    assert_usage_error(&out, "run needs <APP>");
    let out = hpe_lab(&["frob"], &dir);
    assert_usage_error(&out, "unknown command 'frob'");
}

#[test]
fn bare_invocation_prints_usage_once() {
    let out = hpe_lab(&[], &std::env::temp_dir());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("error:"), "stderr: {stderr}");
    assert_eq!(stderr.matches("usage: hpe-lab").count(), 1, "{stderr}");
}

#[test]
fn campaign_snapshot_flags_need_a_snapshot_file() {
    let dir = std::env::temp_dir().join("hpe-lab-cli-snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    // Without `--snapshot` there is no file to resume from or to write.
    let out = hpe_lab(
        &[
            "campaign",
            "STN",
            "--resume",
            "--snapshot-every",
            "3",
            "--limit",
            "1",
        ],
        &dir,
    );
    assert_usage_error(&out, "--resume needs --snapshot FILE");
    let out = hpe_lab(&["campaign", "STN", "--snapshot-every", "3"], &dir);
    assert_usage_error(&out, "--snapshot-every needs --snapshot FILE");
    // Zero is not a cadence: the flag must not fall back to the default.
    let out = hpe_lab(
        &[
            "campaign",
            "STN",
            "--snapshot",
            "s.json",
            "--snapshot-every",
            "0",
            "--limit",
            "1",
        ],
        &dir,
    );
    assert_usage_error(&out, "--snapshot-every must be nonzero");

    // The `--limit` stop line mentions a snapshot only when one was written.
    let out = hpe_lab(&["campaign", "STN", "--limit", "1"], &dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stopped at --limit: 1/14"), "{stdout}");
    assert!(!stdout.contains("snapshot"), "{stdout}");
    let snapshot = dir.join("snapshot.json");
    let _ = std::fs::remove_file(&snapshot);
    let path = snapshot.to_str().unwrap();
    let out = hpe_lab(
        &["campaign", "STN", "--limit", "1", "--snapshot", path],
        &dir,
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("snapshot holds the completed cells"),
        "{stdout}"
    );
    assert!(snapshot.exists());
}
