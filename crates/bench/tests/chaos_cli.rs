//! `hpe-chaos` CLI flag contract, driven through the real binary
//! (`CARGO_BIN_EXE_hpe-chaos`): each subcommand accepts only the flags
//! and positional arguments it reads, and anything else exits 2 with
//! usage before any work starts.

use std::process::{Command, Output};

fn hpe_chaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpe-chaos"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(stderr.contains("usage: hpe-chaos"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no work may start before the check");
}

#[test]
fn subcommands_reject_flags_they_never_read() {
    // `smoke` runs its campaign without the retry machinery.
    let out = hpe_chaos(&["smoke", "--retry"]);
    assert_usage_error(&out, "smoke does not take '--retry'");

    // `sanitize` runs clean HPE: there is no plan to select.
    let out = hpe_chaos(&["sanitize", "--plan", "victim-drop"]);
    assert_usage_error(&out, "sanitize does not take '--plan'");

    // `livelock` is one run; there is nothing to fan over workers.
    let out = hpe_chaos(&["livelock", "--workers", "8"]);
    assert_usage_error(&out, "livelock does not take '--workers'");

    // `replay` reads everything from its repro file.
    let out = hpe_chaos(&["replay", "--seed", "7", "repro.json"]);
    assert_usage_error(&out, "replay does not take '--seed'");

    // `tenants` reads `--target` only to scope a `--plan`.
    let out = hpe_chaos(&["tenants", "--target", "1"]);
    assert_usage_error(&out, "--target needs --plan");

    // A flag no command reads at all.
    let out = hpe_chaos(&["campaign", "--bogus"]);
    assert_usage_error(&out, "campaign does not take '--bogus'");
}

#[test]
fn subcommands_reject_positional_arguments_they_never_read() {
    // `smoke` always runs STN; an app argument would be ignored.
    let out = hpe_chaos(&["smoke", "BFS"]);
    assert_usage_error(&out, "smoke takes at most 0 argument(s), got 1");

    // `resume` runs one app.
    let out = hpe_chaos(&["resume", "STN", "BFS"]);
    assert_usage_error(&out, "resume takes at most 1 argument(s), got 2");
}

#[test]
fn read_flags_still_need_their_values() {
    let out = hpe_chaos(&["resume", "--at"]);
    assert_usage_error(&out, "--at needs a value");
    let out = hpe_chaos(&["smoke", "--workers", "many"]);
    assert_usage_error(&out, "bad --workers 'many'");
    let out = hpe_chaos(&["frob"]);
    assert_usage_error(&out, "unknown command 'frob'");
    let out = hpe_chaos(&["campaign", "XXX"]);
    assert_usage_error(&out, "unknown app 'XXX'");
}

#[test]
fn a_listed_flag_is_accepted() {
    // The backoff cap turns the injected livelock into RetriesExhausted,
    // which `livelock --retry` reports as success.
    let out = hpe_chaos(&["livelock", "--retry"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("RetriesExhausted"), "stdout: {stdout}");
}

/// A bad name or value in an explore spec or repro case is bad input:
/// exit 2 with usage, before the run header and before any run.
#[test]
fn bad_names_and_values_in_explore_inputs_are_usage_errors() {
    let dir = std::env::temp_dir().join("hpe-chaos-bad-inputs");
    std::fs::create_dir_all(&dir).unwrap();
    for (cmd, name, doc, needle) in [
        (
            "replay",
            "app.json",
            r#"{"app":"XXX","policy":"lru","invariant":"completes","error":"x"}"#,
            "bad repro case: unknown app 'XXX'",
        ),
        (
            "replay",
            "policy.json",
            r#"{"app":"STN","policy":"nope","invariant":"completes","error":"x"}"#,
            "bad repro case: unknown policy 'nope'",
        ),
        (
            "replay",
            "rate.json",
            r#"{"app":"STN","rate":0,"invariant":"completes","error":"x"}"#,
            "bad repro case: invalid configuration parameter `rate`: must be 50 or 75, got 0",
        ),
        (
            "replay",
            "invariant.json",
            r#"{"app":"STN","invariant":"fast","error":"x"}"#,
            "unknown invariant `fast`",
        ),
        (
            "replay",
            "plan.json",
            r#"{"app":"STN","invariant":"completes","plan":{"latency_jitter":2.0}}"#,
            "bad repro case: invalid configuration parameter `fixtures`",
        ),
        (
            "explore",
            "spec.json",
            r#"{"rate":0}"#,
            "bad explore spec: invalid configuration parameter `rate`",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, doc).unwrap();
        let out = hpe_chaos(&[cmd, path.to_str().unwrap()]);
        assert_usage_error(&out, needle);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains(&format!("[{cmd}:")), "no header: {stderr}");
    }
}
