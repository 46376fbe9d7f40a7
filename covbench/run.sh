#!/usr/bin/env bash
# Builds covern's CLI and the benchmark from source, then runs one workload.
#
#   bash covbench/run.sh --workload <stream-scale|campaign-fleet|daemon-open-loop> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), traces and
# daemon logs to .bench_out, both at the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin covern_cli >&2
cargo build --release --offline --quiet --manifest-path covbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/covbench" --cli "$CARGO_TARGET_DIR/release/covern_cli" "$@"
