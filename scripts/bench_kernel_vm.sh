#!/usr/bin/env bash
# Kernel-engine performance trajectory: runs the criterion benches that cover
# the kernel language and skeletons, then regenerates BENCH_kernel_vm.json
# (elements/sec for map/zip/reduce/scan at 1M elements and the 256x256
# map_overlap stencil: AST interpreter vs scalar VM vs native tier) at the
# repository root.
#
# Usage:
#   scripts/bench_kernel_vm.sh            # full run, rewrites BENCH_kernel_vm.json
#   scripts/bench_kernel_vm.sh --quick    # small-N smoke run only (CI runs the
#                                         # kernel_vm_bench binary directly)
set -euo pipefail
cd "$(dirname "$0")/.."

# Preflight: the layout the bench and its workloads depend on. A rename in
# the core container layer or the bench harness should fail here with a
# clear message, not deep inside a cargo invocation.
required_paths=(
    crates/bench/src/bin/kernel_vm_bench.rs
    crates/core/src/container.rs
    crates/core/tests/container.rs
    examples/matrix_map.rs
)
for path in "${required_paths[@]}"; do
    if [[ ! -e "$path" ]]; then
        echo "bench_kernel_vm.sh: missing expected path: $path" >&2
        exit 1
    fi
done

if [[ "${1:-}" == "--quick" ]]; then
    cargo run --release -p skelcl_bench --bin kernel_vm_bench -- --quick --out /tmp/BENCH_kernel_vm.json
else
    cargo bench -p skelcl_bench --bench kernel_language
    cargo bench -p skelcl_bench --bench skeletons
    cargo run --release -p skelcl_bench --bin kernel_vm_bench -- --out BENCH_kernel_vm.json
fi
