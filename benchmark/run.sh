#!/usr/bin/env bash
# Build the real server binaries and the benchmark into one target
# directory, then run the benchmark with the arguments given.
# From the repository root: benchmark/run.sh [run|aa|trace] [--workload NAME] ...
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --quiet -p elinda-server --bin elinda-serve --bin elinda-load >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
