#!/usr/bin/env bash
# Builds the server under test and the benchmark from source, then runs
# the benchmark with the given arguments, e.g.
#   bash wirebench/run.sh --workload point-hot --seed 1 --seconds 20 --trace 0
#   bash wirebench/run.sh --smoke
# It runs from the repository root whatever the caller's directory.
# Build output goes to $CARGO_TARGET_DIR (default .bench_build, relative
# to the repository root).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The server is built the way the workspace builds it, so its features
# match a plain `cargo build --release`.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    --workspace --bin cpplookup-serverd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/wirebench" --serverd "$CARGO_TARGET_DIR/release/cpplookup-serverd" "$@"
