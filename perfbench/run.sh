#!/usr/bin/env bash
# Build the `gosh` CLI and the benchmark harness from this checkout, then
# run one benchmark measurement:
#
#   bash perfbench/run.sh --workload embed --seed 1 --seconds 10 --trace 0
#
# Workloads: embed, embed-partitioned, update, serve (see README.md).
# Build products go to $CARGO_TARGET_DIR (default .bench_build); run
# files go to .perfbench/ under the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p gosh-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# The interpreter itself, not a version-manager shim: each timed command
# starts one, and a shim costs more than some commands.
python=$(python3 -c 'import sys; print(sys.executable)')
exec "$CARGO_TARGET_DIR/release/gosh-perfbench" --gosh "$CARGO_TARGET_DIR/release/gosh" \
    --python "$python" --measure perfbench/measure.py "$@"
