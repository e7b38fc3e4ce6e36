#!/usr/bin/env bash
# Runs the benchmark once per (workload, seed) from the repository root
# and keeps each run's stdout as OUT_DIR/<workload>.<seed>.out — the
# result-set layout compare.py reads.
#
#   perfbench/collect.sh OUT_DIR SECONDS SEED...
set -euo pipefail
if [ $# -lt 3 ]; then
    echo "usage: $0 OUT_DIR SECONDS SEED..." >&2
    exit 2
fi
out=$1
seconds=$2
shift 2
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml
for seed in "$@"; do
    for w in render_walk device_ladder serve_fleet; do
        cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
            >"$out/$w.$seed.out"
        tail -n 1 "$out/$w.$seed.out" | cut -c1-100
    done
done
