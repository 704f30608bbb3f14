//! `hpe-trace` CLI exit-code contract, driven through the real binary
//! (`CARGO_BIN_EXE_hpe-trace`): the stdout of `summarize`, `timeline`,
//! `record` and `diff` is pinned byte for byte (`tests/pins/`), diff
//! exits 1 on divergence and 0 on identical streams, and the profiler
//! subcommands hold their promises (conservation check, folded-stack
//! shape).

use std::path::Path;
use std::process::{Command, Output};

fn hpe_trace(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpe-trace"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn write(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

const EVENTS_A: &str = "{\"kind\":\"FaultRaised\",\"time\":10,\"page\":1}\n\
                        {\"kind\":\"FaultServiced\",\"time\":40,\"page\":1}\n\
                        {\"kind\":\"MemoryFull\",\"time\":50}\n";

#[test]
fn stream_tables_print_pinned_stdout() {
    let dir = std::env::temp_dir().join("hpe-trace-cli-pins");
    std::fs::create_dir_all(&dir).unwrap();
    // In order: `record` writes `stn.jsonl` (HPE at 75%), which the two
    // commands after it read back; `diff` compares it with a live run.
    for (args, pin) in [
        (
            &["summarize", "STN", "--policy", "lru"][..],
            include_str!("pins/summarize-stn-lru.txt"),
        ),
        (&["timeline", "STN"], include_str!("pins/timeline-stn.txt")),
        (
            &["record", "STN", "--out", "stn.jsonl"],
            include_str!("pins/record-stn.txt"),
        ),
        (
            &["summarize", "stn.jsonl"],
            include_str!("pins/summarize-stn-jsonl.txt"),
        ),
        (
            &["diff", "stn.jsonl", "STN"],
            include_str!("pins/diff-stn-jsonl.txt"),
        ),
    ] {
        let out = hpe_trace(args, &dir);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), pin, "{args:?}");
    }
}

#[test]
fn diff_exits_zero_on_identical_and_one_on_mismatch() {
    let dir = std::env::temp_dir().join("hpe-trace-cli-diff");
    std::fs::create_dir_all(&dir).unwrap();
    let a = write(&dir, "a.jsonl", EVENTS_A);
    let same = write(&dir, "same.jsonl", EVENTS_A);
    // Same stream content: identical, exit 0.
    let out = hpe_trace(&["diff", &a, &same], &dir);
    assert_eq!(out.status.code(), Some(0), "stderr: {:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("identical"), "stdout: {stdout}");

    // One event differs: exit 1 and the divergence is localized.
    let b = write(
        &dir,
        "b.jsonl",
        &EVENTS_A.replace("\"time\":40", "\"time\":41"),
    );
    let out = hpe_trace(&["diff", &a, &b], &dir);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("first divergence at event 1"), "{stdout}");

    // A prefix stream (truncated file): counts differ, exit 1.
    let prefix = write(&dir, "prefix.jsonl", EVENTS_A.rsplit_once('{').unwrap().0);
    let out = hpe_trace(&["diff", &a, &prefix], &dir);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn diff_rejects_garbage_input_as_usage_error() {
    let dir = std::env::temp_dir().join("hpe-trace-cli-garbage");
    std::fs::create_dir_all(&dir).unwrap();
    let a = write(&dir, "a.jsonl", EVENTS_A);
    let garbage = write(&dir, "garbage.jsonl", "not json at all\n");
    let out = hpe_trace(&["diff", &a, &garbage], &dir);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 1"), "stderr: {stderr}");
}

#[test]
fn profile_subcommand_reports_conserved_breakdown() {
    let dir = std::env::temp_dir().join("hpe-trace-cli-profile");
    std::fs::create_dir_all(&dir).unwrap();
    let out = hpe_trace(&["profile", "STN"], &dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("conserved"), "stdout: {stdout}");
    assert!(stdout.contains("driver_idle"), "stdout: {stdout}");
    assert!(stdout.contains("metrics series"), "stdout: {stdout}");
}

#[test]
fn flame_subcommand_emits_folded_stacks() {
    let dir = std::env::temp_dir().join("hpe-trace-cli-flame");
    std::fs::create_dir_all(&dir).unwrap();
    let out = hpe_trace(&["flame", "STN"], &dir);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Folded-stack format: `frames;separated;by;semicolons <count>`.
    assert!(!stdout.trim().is_empty());
    for line in stdout.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
        assert!(stack.contains(';'), "line: {line}");
        count.parse::<u64>().expect("numeric sample count");
    }
    assert!(stdout.lines().any(|l| l.starts_with("driver;")));
}

#[test]
fn spans_subcommand_prints_stage_percentiles() {
    let dir = std::env::temp_dir().join("hpe-trace-cli-spans");
    std::fs::create_dir_all(&dir).unwrap();
    let out = hpe_trace(&["spans", "STN"], &dir);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("p99"), "stdout: {stdout}");
    assert!(stdout.contains("spans"), "stdout: {stdout}");
}

fn assert_usage_error(out: &Output, message: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "stderr: {stderr}");
    assert!(stderr.contains("usage: hpe-trace"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "stdout: {out:?}");
}

#[test]
fn commands_reject_flags_they_never_read() {
    let dir = std::env::temp_dir().join("hpe-trace-cli-flags");
    std::fs::create_dir_all(&dir).unwrap();
    // `spans` reports lifecycle spans, not the sampled metrics series.
    let out = hpe_trace(&["spans", "STN", "--cadence", "5"], &dir);
    assert_usage_error(&out, "spans does not take '--cadence'");
    // `flame` folds whole-run cycle accounts; it has no window.
    let out = hpe_trace(&["flame", "STN", "--window", "3"], &dir);
    assert_usage_error(&out, "flame does not take '--window'");
    // Report readers take everything from their input file.
    let out = hpe_trace(&["shape", "fig.json", "--policy", "LRU"], &dir);
    assert_usage_error(&out, "shape does not take '--policy'");
    let out = hpe_trace(&["timeline", "STN", "--out", "x.jsonl"], &dir);
    assert_usage_error(&out, "timeline does not take '--out'");
    let out = hpe_trace(&["record", "STN", "--bogus"], &dir);
    assert_usage_error(&out, "record does not take '--bogus'");
    let out = hpe_trace(&["frob"], &dir);
    assert_usage_error(&out, "unknown command 'frob'");
}

#[test]
fn explore_rejects_a_report_with_an_unknown_key() {
    // `explore`'s exit code gates on counterexamples, so a report whose
    // counterexamples it cannot see must not pass as clean.
    let dir = std::env::temp_dir().join("hpe-trace-cli-explore");
    std::fs::create_dir_all(&dir).unwrap();
    let report = write(
        &dir,
        "report.json",
        r#"{"app":"STN","policy":"hpe","rate":75,"cases":3,"counterexampels":[{"id":1}]}"#,
    );
    let out = hpe_trace(&["explore", &report], &dir);
    assert_usage_error(
        &out,
        "unknown field `counterexampels` (did you mean `counterexamples`?)",
    );
}

#[test]
fn summarize_rejects_an_event_with_an_unknown_key() {
    let dir = std::env::temp_dir().join("hpe-trace-cli-event-key");
    std::fs::create_dir_all(&dir).unwrap();
    let events = write(
        &dir,
        "typo.jsonl",
        "{\"kind\":\"FaultRaised\",\"time\":1,\"page\":1,\"pgae\":2}\n",
    );
    let out = hpe_trace(&["summarize", &events], &dir);
    assert_usage_error(&out, "unknown field `pgae` (did you mean `page`?)");
}

#[test]
fn listed_flags_are_still_read() {
    let dir = std::env::temp_dir().join("hpe-trace-cli-listed");
    std::fs::create_dir_all(&dir).unwrap();
    let a = write(&dir, "a.jsonl", EVENTS_A);
    let out = hpe_trace(&["summarize", &a, "--window", "0"], &dir);
    assert_usage_error(&out, "--window must be nonzero");
    let out = hpe_trace(&["timeline", &a, "--window", "1"], &dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn record_takes_the_shared_policy_and_rate_values() {
    // `--policy` is `PolicyKind::parse` with its aliases, and `--rate`
    // any percent in (0, 100], in all three CLIs.
    let dir = std::env::temp_dir().join("hpe-trace-cli-shared-values");
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("stn-clockpro-60.jsonl");
    let out_path = out_file.to_str().unwrap();
    let args = ["record", "STN", "--policy", "clockpro", "--rate", "60"];
    let out = hpe_trace(&[&args[..], &["--out", out_path]].concat(), &dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("STN under CLOCK-Pro at 60%"), "{stdout}");
    assert!(std::fs::metadata(&out_file).unwrap().len() > 0);
}
