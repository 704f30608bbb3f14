#!/usr/bin/env sh
# Full repo verification: formatting, hermetic offline build, the
# complete workspace test suite (tier-1 is the build + root-package
# tests; this script is a superset), smokes, the benchmark/ smoke (which
# also pins the simulation metrics against the latest
# benchmarks/BENCH_*.json), rustdoc and clippy. Each check runs once.
#
# The workspace has zero external dependencies — `--offline` must
# succeed with an empty registry cache, and the lockfile test
# (tests/lockfile.rs) fails if Cargo.lock gains a registry source; see
# DESIGN.md §7.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release --offline (tier-1 build)"
cargo build --release --offline

echo "==> cargo test -q --offline (tier-1 tests, root package)"
cargo test -q --offline

echo "==> cargo test -q --offline --workspace (all crates)"
cargo test -q --offline --workspace

echo "==> chaos smoke campaign (seeded fault injection, must be panic-free)"
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- smoke
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- livelock > /dev/null
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- livelock --retry > /dev/null

echo "==> parallel campaign smoke (8 workers, deterministic merge)"
# The chaos campaign fanned over 8 workers must exit 0; the
# parallel-equivalence test suite proves the merged report is
# byte-identical to a serial run, this smoke proves the CLI path works.
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- campaign --workers 8 > /dev/null

echo "==> checkpoint/resume determinism smoke (STN, checkpoint mid-run)"
# `resume` runs STN straight through, checkpoints a second run mid-flight,
# resumes it in a fresh simulation, and exits nonzero unless the resumed
# SimStats are byte-identical to the uninterrupted run's.
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- resume > /dev/null
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- resume --plan victim-drop \
    --fallback lru-shadow --retry > /dev/null

echo "==> invariant sanitizer zero-perturbation proof (STN + SGM, on vs off)"
# Runs HPE with the runtime invariant sanitizer enabled and disabled and
# exits nonzero unless SimStats are byte-identical.
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- sanitize > /dev/null

echo "==> profiler smoke (one traced+profiled run, conservation checked)"
# `hpe-trace profile` attaches the cycle-attribution profiler to one
# run and exits 1 if the driver-timeline accounts fail to sum exactly
# to the run's total cycles. See DESIGN.md §12.
cargo run -q --release --offline -p hpe-bench --bin hpe-trace -- profile STN > /dev/null

echo "==> fault-space exploration smoke (clean, seeded-bad, replay)"
# The clean smoke spec must come back counterexample-free (exit 0);
# the seeded-bad fixture must be found and shrunk (exit 1) and its
# emitted repro must replay byte-identically (exit 0). See DESIGN.md §13.
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- \
    explore fixtures/explore/smoke.json --workers 4 2> /dev/null > /dev/null
if cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- \
    explore fixtures/explore/seeded-bad.json 2> /dev/null > /dev/null; then
    echo "explore: seeded-bad spec unexpectedly came back clean" >&2
    exit 1
fi
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- \
    replay target/paper-results/explore-repro-0.json > /dev/null

echo "==> multi-tenant isolation smoke (4 tenants, 2 workers)"
# A 4-tenant mix on 2 workers must run panic-free (exit 0), and a fault
# plan scoped to tenant 1 must leave every other tenant's SimStats
# byte-identical to the fault-free mix — `tenants` exits 1 if
# containment is broken. See DESIGN.md §14.
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- \
    tenants --tenants 4 --workers 2 > /dev/null
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- \
    tenants --tenants 4 --workers 2 --plan signal-chaos --target 1 > /dev/null
# The saved report must round-trip through the strict parser and
# render with every tenant ok (exit 0).
cargo run -q --release --offline -p hpe-bench --bin hpe-trace -- \
    tenants target/paper-results/tenant-mix-faulted.json > /dev/null

echo "==> profiler byte-identity gate (STN + SGM, on vs off)"
# Runs STN and SGM with the profiler attached and detached and exits
# nonzero unless SimStats are byte-identical and the timeline accounts
# conserve — the observation-only contract. See DESIGN.md §12.
cargo run -q --release --offline -p hpe-bench --bin hpe-chaos -- profile > /dev/null

echo "==> benchmark/ build and smoke (it compiles against the engine's API)"
# benchmark/ is a workspace of its own, so the build and tests above
# never compile it. Same target directory as benchmark/run.sh; --smoke
# runs one traced pass of every workload and exits nonzero on a
# correctness failure.
CARGO_TARGET_DIR=target/benchmark-build \
    cargo build -q --release --offline --manifest-path benchmark/Cargo.toml
target/benchmark-build/release/hpe-benchmark --smoke > /dev/null

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# A dangling or ambiguous intra-doc link fails here, not in a reader's
# browser.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Also the workspace's static rules (DESIGN.md §10): the library roots
# deny unwrap/expect/panic!/unreachable!/todo!/unimplemented! and
# iteration over hash types, crates/clippy.toml bans the wall clock and
# RandomState, and every exception is an #[expect(.., reason = "..")]
# that fails this step once it stops suppressing anything.
cargo clippy -q --offline --workspace --all-targets -- -D warnings

if [ "${CHECK_FIGURES:-0}" = "1" ]; then
    echo "==> figure shape check (CHECK_FIGURES=1)"
    sh scripts/check_figures.sh
fi

echo "verify: OK"
