#!/usr/bin/env sh
# Full repo verification: formatting, hermetic offline build, the
# complete workspace test suite (tier-1 is the build + root-package
# tests; this script is a superset), smokes, the full lint, the
# benchmark/ smoke (which also pins the simulation metrics against the
# latest benchmarks/BENCH_*.json) and clippy. Each check runs once.
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

echo "==> hpe-lint: full static analysis (all families incl. call-graph rules)"
# Exit codes: 0 clean, 1 violations (file:line listed above the summary),
# 2 internal error — same convention as hpe-chaos. The sweep covers every
# family, error-discipline (each .unwrap()/.expect(/panic! in non-test
# sim/core/policies code propagates SimError or carries an inline
# `// lint:allow(unwrap)`) and the symbol-aware ones (panic-reachability,
# determinism-taint, stale-allow), and must stay interactive: budget 5 s
# wall clock. See DESIGN.md §10.
lint_start=$(date +%s)
cargo run -q --release --offline -p hpe-bench --bin hpe-lint -- check
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -gt 5 ]; then
    echo "hpe-lint check took ${lint_elapsed}s, over the 5s budget" >&2
    exit 1
fi

echo "==> hpe-lint: golden/fixture self-check (regen must be a no-op)"
# Regenerating the golden diagnostic report must be byte-identical to
# the checked-in file — otherwise the goldens drifted from the fixtures
# (or an intentional diagnostic change forgot to run the regen).
golden=crates/lint/tests/golden/diagnostics.json
cp "$golden" "$golden.pre"
UPDATE_GOLDEN=1 cargo test -q --offline -p uvm-lint --test lint_tests \
    fixture_diagnostics_match_golden_json > /dev/null
if ! cmp -s "$golden" "$golden.pre"; then
    rm -f "$golden.pre"
    echo "golden diagnostics drifted from the fixtures; commit the regen" >&2
    exit 1
fi
rm -f "$golden.pre"

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

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

if [ "${CHECK_FIGURES:-0}" = "1" ]; then
    echo "==> figure shape check (CHECK_FIGURES=1)"
    sh scripts/check_figures.sh
fi

echo "verify: OK"
