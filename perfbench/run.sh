#!/usr/bin/env bash
# Build the benchmark and the real `cerberus-serve` binary from source, then
# run the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload litmus --seed 1 --seconds 10 --trace 0
#
# Both binaries land in one target directory ($CARGO_TARGET_DIR, default
# .bench_build); the benchmark finds cerberus-serve next to its own executable.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p cerberus-server --bin cerberus-serve
exec "$CARGO_TARGET_DIR/release/cerberus-perfbench" "$@"
