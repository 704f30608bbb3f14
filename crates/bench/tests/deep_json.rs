//! Every command that reads a JSON or JSONL file rejects a document
//! nested far past `uvm_util::json::MAX_DEPTH` as bad input (exit 2),
//! instead of overflowing the parser's stack (exit 134).

use std::process::Command;

#[test]
fn deeply_nested_input_is_a_usage_error_in_every_reader() {
    let dir = std::env::temp_dir().join("hpe-cli-deep-json");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(50_000)).unwrap();
    let deep = path.to_str().unwrap();
    let trace = env!("CARGO_BIN_EXE_hpe-trace");
    let chaos = env!("CARGO_BIN_EXE_hpe-chaos");
    let lab = env!("CARGO_BIN_EXE_hpe-lab");
    for (bin, args) in [
        (trace, &["summarize", deep][..]),
        (trace, &["shape", deep]),
        (trace, &["diff", deep, deep]),
        (trace, &["campaign", deep]),
        (trace, &["explore", deep]),
        (trace, &["tenants", deep]),
        (chaos, &["replay", deep]),
        (chaos, &["explore", deep]),
        (lab, &["campaign", "STN", "--resume", "--snapshot", deep]),
    ] {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains("nesting deeper than"),
            "{bin} {args:?}: {stderr}"
        );
    }
}
