#!/usr/bin/env bash
# Builds the mmpd daemon and the benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload place_iccad --seed 1 --seconds 35 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result. Artifacts land in $CARGO_TARGET_DIR (default .bench_build) and
# perfbench/out.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p mmp-serve --bin mmpd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --mmpd "$CARGO_TARGET_DIR/release/mmpd" --out perfbench/out "$@"
