//! The command-table contract of each CLI, read back through the real
//! binary's generated usage text:
//!
//! - the usage lists exactly the commands and flags below;
//! - every valued flag a command lists is read: an empty value gets that
//!   flag's own `bad <flag> ''` error (exit 2) before any work starts,
//!   where a listed-but-unread flag would be ignored;
//! - every flag a command does not list is rejected with
//!   `<cmd> does not take '<flag>'`.

use std::collections::BTreeSet;
use std::process::{Command, Output};

/// One command as its usage line shows it.
struct Entry {
    name: String,
    /// Required positional arguments (`<X>`).
    required: usize,
    /// Each flag and whether it takes a value.
    flags: Vec<(String, bool)>,
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("binary runs")
}

/// The command table `bin` prints as usage when run without arguments.
fn usage_table(bin: &str) -> Vec<Entry> {
    let out = run(bin, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = String::from_utf8(out.stderr).unwrap();
    let (_, commands) = text.split_once("commands:\n").expect("a command list");
    let (commands, _) = commands.split_once("\n\n").expect("a blank line after it");
    let mut table: Vec<Entry> = Vec::new();
    for line in commands.lines() {
        if !line.starts_with("   ") {
            let words: Vec<&str> = line.split_whitespace().collect();
            table.push(Entry {
                name: words[0].to_string(),
                required: words.iter().filter(|w| w.starts_with('<')).count(),
                flags: Vec::new(),
            });
        }
        let entry = table.last_mut().expect("a command line first");
        let mut rest = line;
        while let Some(start) = rest.find("[--") {
            let end = start + rest[start..].find(']').expect("a closed flag");
            let flag = &rest[start + 1..end];
            entry.flags.push(match flag.split_once(' ') {
                Some((name, _)) => (name.to_string(), true),
                None => (flag.to_string(), false),
            });
            rest = &rest[end..];
        }
    }
    table
}

fn check_table(bin: &str, expected: &[(&str, &str)]) {
    let table = usage_table(bin);
    let listed: Vec<(&str, String)> = table
        .iter()
        .map(|e| {
            let flags: Vec<&str> = e.flags.iter().map(|(f, _)| f.as_str()).collect();
            (e.name.as_str(), flags.join(" "))
        })
        .collect();
    let expected: Vec<(&str, String)> = expected.iter().map(|&(c, f)| (c, f.into())).collect();
    assert_eq!(listed, expected, "{bin}: usage vs the expected table");

    let every_flag: BTreeSet<&str> = table
        .iter()
        .flat_map(|e| e.flags.iter().map(|(f, _)| f.as_str()))
        .collect();
    for entry in &table {
        let mut base = vec![entry.name.as_str()];
        base.extend(std::iter::repeat_n("x", entry.required));
        for (flag, valued) in &entry.flags {
            if !valued {
                continue;
            }
            let out = run(bin, &[&base[..], &[flag.as_str(), ""]].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            let needle = format!("bad {flag} ''");
            assert_eq!(out.status.code(), Some(2), "{base:?} {flag}: {stderr}");
            assert!(stderr.contains(&needle), "{base:?} {flag}: {stderr}");
            assert!(out.stdout.is_empty(), "{base:?} {flag}: work started");
        }
        for flag in &every_flag {
            if entry.flags.iter().any(|(f, _)| f == flag) {
                continue;
            }
            let out = run(bin, &[&base[..], &[flag]].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            let needle = format!("{} does not take '{flag}'", entry.name);
            assert_eq!(out.status.code(), Some(2), "{base:?} {flag}: {stderr}");
            assert!(stderr.contains(&needle), "{base:?} {flag}: {stderr}");
        }
    }
}

#[test]
fn hpe_lab_table() {
    check_table(
        env!("CARGO_BIN_EXE_hpe-lab"),
        &[
            ("list", ""),
            ("run", "--policy --rate --json"),
            ("compare", "--rate"),
            ("sweep", "--policy"),
            ("profile", ""),
            (
                "campaign",
                "--workers --seed --chaos --rate --progress --snapshot --snapshot-every \
                 --resume --limit",
            ),
            ("bench-snapshot", "--workers --dir"),
            ("fairness", "--workers --seed"),
        ],
    );
}

#[test]
fn hpe_chaos_table() {
    const RECOVERY_RUN: &str = "--seed --rate --retry --adaptive --fallback --sanitize";
    check_table(
        env!("CARGO_BIN_EXE_hpe-chaos"),
        &[
            ("campaign", &format!("{RECOVERY_RUN} --workers")),
            ("livelock", RECOVERY_RUN),
            ("resume", &format!("{RECOVERY_RUN} --plan --at")),
            ("smoke", "--seed --sanitize --workers"),
            ("sanitize", "--rate --sanitize"),
            ("profile", "--rate"),
            ("explore", "--workers"),
            ("replay", ""),
            (
                "tenants",
                "--tenants --quota --hir --policy --seed --workers --plan --target",
            ),
        ],
    );
}

#[test]
fn hpe_trace_table() {
    check_table(
        env!("CARGO_BIN_EXE_hpe-trace"),
        &[
            ("record", "--policy --rate --out"),
            ("summarize", "--policy --rate --window"),
            ("timeline", "--policy --rate --window"),
            ("diff", "--policy --rate"),
            ("shape", ""),
            ("campaign", ""),
            ("profile", "--policy --rate --cadence --out"),
            ("spans", "--policy --rate"),
            ("flame", "--policy --rate --out"),
            ("explore", ""),
            ("tenants", ""),
        ],
    );
}
