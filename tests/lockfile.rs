//! The workspace is hermetic: every crate it builds lives in this
//! checkout. rustc already rejects a `use` or `extern crate` of an
//! undeclared crate, so what is left to pin is that nothing external
//! gets declared. Cargo records every registry or git dependency in the
//! lockfile as a `source = ...` line; workspace path crates carry none.

use std::path::Path;

#[test]
fn cargo_lock_has_no_external_sources() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.lock");
    let lock = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        lock.contains("name = \"hpe\""),
        "{} does not look like the workspace lockfile",
        path.display()
    );
    let external: Vec<&str> = lock
        .lines()
        .filter(|line| line.trim_start().starts_with("source ="))
        .collect();
    assert!(
        external.is_empty(),
        "Cargo.lock declares crates from outside the workspace: {external:?}"
    );
}
