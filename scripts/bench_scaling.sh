#!/usr/bin/env bash
# Device-scaling performance trajectory: runs the scaling_bench harness,
# which measures wall-clock AND virtual-time elements/sec for 1-4 simulated
# devices over {map-chain, reduce, heat_diffusion}, and regenerates
# BENCH_scaling.json at the repository root.
#
# Wall-clock scaling requires real host cores for the per-device worker
# threads; the JSON records `host_cpus` so a single-core CI host's parity
# numbers are not mistaken for a regression.
#
# Usage:
#   scripts/bench_scaling.sh            # full run, rewrites BENCH_scaling.json
#   scripts/bench_scaling.sh --smoke    # small-N smoke run only (CI)
set -euo pipefail
cd "$(dirname "$0")/.."

# Preflight: the layout the bench depends on. A rename in the engine or the
# harness should fail here with a clear message, not deep inside cargo.
required_paths=(
    crates/bench/src/bin/scaling_bench.rs
    crates/oclsim/src/queue.rs
    crates/kernel/src/vm.rs
    crates/core/tests/determinism.rs
)
for path in "${required_paths[@]}"; do
    if [[ ! -e "$path" ]]; then
        echo "bench_scaling.sh: missing expected path: $path" >&2
        exit 1
    fi
done

if [[ "${1:-}" == "--smoke" ]]; then
    cargo run --release -p skelcl_bench --bin scaling_bench -- --smoke --out /tmp/BENCH_scaling.json
else
    cargo run --release -p skelcl_bench --bin scaling_bench -- --out BENCH_scaling.json
fi
