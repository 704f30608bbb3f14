#!/usr/bin/env sh
# Builds, checks and runs the host-time benchmark (see benchmark/README.md).
#
#   benchmark/run.sh [LABEL]
#
# Offline release build, rustfmt and clippy (-D warnings), the unit tests,
# the --smoke run, then every workload untraced and traced once per seed in
# $SEEDS (default 2019). Each run prints every metric by name with its unit
# and appends its record to target/benchmark/LABEL.jsonl (default label:
# runs); compare two labels with
#
#   target/benchmark-build/release/hpe-benchmark compare \
#       target/benchmark/A.jsonl target/benchmark/B.jsonl
#
# Exit codes: 0 all runs correct, 1 a correctness check failed, 2 usage or
# build error.
set -eu

cd "$(dirname "$0")/.."
CARGO_TARGET_DIR=target/benchmark-build
export CARGO_TARGET_DIR
manifest=benchmark/Cargo.toml
record="target/benchmark/${1:-runs}.jsonl"
bin="$CARGO_TARGET_DIR/release/hpe-benchmark"

echo "==> build (offline, release)"
cargo build -q --release --offline --manifest-path "$manifest"
echo "==> rustfmt --check"
cargo fmt --manifest-path "$manifest" --check
echo "==> clippy -D warnings"
cargo clippy -q --release --offline --manifest-path "$manifest" --all-targets -- -D warnings
echo "==> unit tests"
cargo test -q --release --offline --manifest-path "$manifest"
echo "==> smoke: one traced pass of every workload"
"$bin" --smoke

mkdir -p target/benchmark
for seed in ${SEEDS:-2019}; do
    for trace in 0 1; do
        for workload in grid-serial grid-parallel hpe-cells lru-engine; do
            echo "==> $workload seed $seed trace $trace"
            "$bin" --workload "$workload" --seed "$seed" --trace "$trace" --record "$record"
        done
    done
done
echo "records: $record"
