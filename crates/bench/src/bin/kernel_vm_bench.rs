//! Kernel-engine throughput benchmark: AST interpreter vs batched bytecode
//! VM vs the closure-compiled native tier.
//!
//! Runs the generated skeleton kernel shapes (map, zip, reduce, scan over
//! 1M elements, and the map-overlap heat stencil over a 256×256 plate with
//! halo 1) through all three engines and emits `BENCH_kernel_vm.json` with
//! elements/sec per engine and the speedups, so future PRs have a perf
//! trajectory to compare against. Every native run must complete all of its
//! lane batches natively (no scalar replays); a replay fails the bench.
//!
//! Usage:
//!   cargo run --release -p skelcl_bench --bin kernel_vm_bench
//!   cargo run --release -p skelcl_bench --bin kernel_vm_bench -- --quick
//!   cargo run --release -p skelcl_bench --bin kernel_vm_bench -- --out path.json
//!
//! `--quick` shrinks the element count of the 1-D rows so CI can use the
//! binary as a smoke check (compile + run every engine, no perf thresholds).

use std::time::Instant;

use skelcl_kernel::interp::{ArgBinding, BufferView};
use skelcl_kernel::value::Value;
use skelcl_kernel::{Program, Tier};

/// Which engine a timing run drives.
#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Interp,
    Batched,
    Native,
}

const MAP_SRC: &str = r#"
    float func(float x) { return x * x * x - 2.0f * x + 1.0f; }
    __kernel void SKELCL_MAP(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n) {
        int skelcl_gid = get_global_id(0);
        if (skelcl_gid < skelcl_n) {
            skelcl_out[skelcl_gid] = func(skelcl_in[skelcl_gid]);
        }
    }
"#;

const ZIP_SRC: &str = r#"
    float func(float x, float y, float a) { return a * x + y; }
    __kernel void SKELCL_ZIP(__global float* skelcl_left, __global float* skelcl_right, __global float* skelcl_out, int skelcl_n, float skelcl_arg_a) {
        int skelcl_gid = get_global_id(0);
        if (skelcl_gid < skelcl_n) {
            skelcl_out[skelcl_gid] = func(skelcl_left[skelcl_gid], skelcl_right[skelcl_gid], skelcl_arg_a);
        }
    }
"#;

const REDUCE_SRC: &str = r#"
    float func(float a, float b) { return a + b; }
    __kernel void SKELCL_REDUCE(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n) {
        float skelcl_acc = skelcl_in[0];
        for (int skelcl_i = 1; skelcl_i < skelcl_n; skelcl_i++) {
            skelcl_acc = func(skelcl_acc, skelcl_in[skelcl_i]);
        }
        skelcl_out[0] = skelcl_acc;
    }
"#;

const SCAN_SRC: &str = r#"
    float func(float a, float b) { return a + b; }
    __kernel void SKELCL_SCAN(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n) {
        float skelcl_acc = skelcl_in[0];
        skelcl_out[0] = skelcl_acc;
        for (int skelcl_i = 1; skelcl_i < skelcl_n; skelcl_i++) {
            skelcl_acc = func(skelcl_acc, skelcl_in[skelcl_i]);
            skelcl_out[skelcl_i] = skelcl_acc;
        }
    }
"#;

/// The heat-diffusion step of the stencil row, wrapped exactly as
/// `skelcl::kernelgen::map_overlap_kernel` emits it: the output store goes to
/// the halo-padded index, the global id shifted by `halo × width`.
const MAP_OVERLAP_SRC: &str = r#"
    float func(float u, float alpha) {
        return u + alpha * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u);
    }
    __kernel void SKELCL_MAP_OVERLAP(__global float* skelcl_stencil_in, __global float* skelcl_out, int skelcl_n, int skelcl_stencil_w, int skelcl_stencil_halo, int skelcl_stencil_policy, float skelcl_stencil_oob, float skelcl_arg_alpha) {
        int skelcl_gid = get_global_id(0);
        if (skelcl_gid < skelcl_n) {
            int skelcl_idx = (skelcl_gid / skelcl_stencil_w + skelcl_stencil_halo) * skelcl_stencil_w + skelcl_gid % skelcl_stencil_w;
            skelcl_out[skelcl_idx] = func(skelcl_stencil_in[skelcl_idx], skelcl_arg_alpha);
        }
    }
"#;

/// Plate side and halo of the map-overlap row (fixed in quick mode too).
const PLATE: usize = 256;
const HALO: usize = 1;

struct Workload {
    name: &'static str,
    src: &'static str,
    kernel: &'static str,
    /// Elements each launch computes, given the run's element count `n`.
    elements: fn(usize) -> usize,
    /// Work-items per launch given `n` (1 for the sequential reduce/scan
    /// kernels).
    items: fn(usize) -> usize,
    /// Buffer lengths (inputs first, the output last) and the scalar
    /// arguments of a launch, given `n`.
    bind: fn(usize) -> (Vec<usize>, Vec<Value>),
}

/// `inputs` buffers of `n` elements, one output of `n`, then `n` and `extra`.
fn linear(n: usize, inputs: usize, extra: &[Value]) -> (Vec<usize>, Vec<Value>) {
    let mut scalars = vec![Value::Int(n as i32)];
    scalars.extend_from_slice(extra);
    (vec![n; inputs + 1], scalars)
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "map",
        src: MAP_SRC,
        kernel: "SKELCL_MAP",
        elements: |n| n,
        items: |n| n,
        bind: |n| linear(n, 1, &[]),
    },
    Workload {
        name: "zip",
        src: ZIP_SRC,
        kernel: "SKELCL_ZIP",
        elements: |n| n,
        items: |n| n,
        bind: |n| linear(n, 2, &[Value::Float(2.5)]),
    },
    Workload {
        name: "reduce",
        src: REDUCE_SRC,
        kernel: "SKELCL_REDUCE",
        elements: |n| n,
        items: |_| 1,
        bind: |n| linear(n, 1, &[]),
    },
    Workload {
        name: "scan",
        src: SCAN_SRC,
        kernel: "SKELCL_SCAN",
        elements: |n| n,
        items: |_| 1,
        bind: |n| linear(n, 1, &[]),
    },
    Workload {
        name: "map_overlap",
        src: MAP_OVERLAP_SRC,
        kernel: "SKELCL_MAP_OVERLAP",
        elements: |_| PLATE * PLATE,
        items: |_| PLATE * PLATE,
        // Input and output are the halo-padded part; clamp policy.
        bind: |_| {
            let padded = (PLATE + 2 * HALO) * PLATE;
            let scalars = vec![
                Value::Int((PLATE * PLATE) as i32),
                Value::Int(PLATE as i32),
                Value::Int(HALO as i32),
                Value::Int(0),
                Value::Float(0.0),
                Value::Float(0.2),
            ];
            (vec![padded; 2], scalars)
        },
    },
];

/// Best-of-`reps` wall-clock seconds for one engine over one workload.
fn time_engine(w: &Workload, n: usize, reps: usize, engine: Engine) -> f64 {
    let program = Program::build(w.src).expect("benchmark kernels build");
    if engine == Engine::Native {
        program.set_tier(Tier::Native);
        // Compile outside the timed region: launches amortize it in
        // production, and the JSON reports steady-state throughput.
        let k = program.kernel(w.kernel).expect("kernel exists");
        program
            .native_outcome(&k)
            .result
            .as_ref()
            .expect("benchmark kernels are native-eligible");
    }
    let kernel = program.kernel(w.kernel).expect("kernel exists");
    let items = (w.items)(n);
    let (lens, scalars) = (w.bind)(n);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut bufs: Vec<Vec<f32>> = lens
            .iter()
            .enumerate()
            .map(|(b, &len)| {
                if b + 1 == lens.len() {
                    vec![0.0f32; len]
                } else {
                    (0..len)
                        .map(|i| ((i + b) % 97) as f32 * 0.25 + 0.5)
                        .collect()
                }
            })
            .collect();
        let mut args: Vec<ArgBinding<'_>> = bufs
            .iter_mut()
            .map(|b| ArgBinding::Buffer(BufferView::F32(b)))
            .collect();
        args.extend(scalars.iter().map(|v| ArgBinding::Scalar(*v)));

        let start = Instant::now();
        let stats = match engine {
            Engine::Interp => program.run_ndrange_measured_interp(&kernel, items, &mut args),
            Engine::Batched => program.run_ndrange_measured_batched(&kernel, items, &mut args),
            Engine::Native => {
                program
                    .run_ndrange_traced(&kernel, items, &mut args)
                    .map(|(stats, trace)| {
                        assert!(
                            trace.tier == Tier::Native && trace.replayed_batches == 0,
                            "{}: the native tier must complete every batch: {trace:?}",
                            w.name
                        );
                        stats
                    })
            }
        }
        .expect("benchmark kernels run");
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(stats);
        best = best.min(elapsed);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernel_vm.json".to_string());

    let n: usize = if quick { 20_000 } else { 1_000_000 };
    let reps = if quick { 1 } else { 3 };

    let mut rows = Vec::new();
    for w in WORKLOADS {
        let elems = (w.elements)(n) as f64;
        let t_interp = time_engine(w, n, reps.min(2), Engine::Interp);
        let t_vm = time_engine(w, n, reps, Engine::Batched);
        let t_native = time_engine(w, n, reps, Engine::Native);
        let interp_eps = elems / t_interp;
        let vm_eps = elems / t_vm;
        let native_eps = elems / t_native;
        let speedup = vm_eps / interp_eps;
        let native_vs_vm = native_eps / vm_eps;
        println!(
            "{:<11} n={elems:>8}  interp {:>11.0} elem/s  vm {:>11.0} elem/s  native {:>11.0} elem/s  native/vm {:>5.1}x",
            w.name, interp_eps, vm_eps, native_eps, native_vs_vm
        );
        rows.push((
            w.name,
            elems,
            interp_eps,
            vm_eps,
            native_eps,
            speedup,
            native_vs_vm,
        ));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"kernel_vm\",\n");
    json.push_str(&format!("  \"elements\": {n},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p skelcl_bench --bin kernel_vm_bench\",\n",
    );
    json.push_str("  \"units\": \"elements_per_second\",\n");
    json.push_str("  \"workloads\": {\n");
    for (i, (name, elems, interp_eps, vm_eps, native_eps, speedup, native_vs_vm)) in
        rows.iter().enumerate()
    {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{name}\": {{ \"elements\": {elems}, \"interp_eps\": {interp_eps:.0}, \"vm_eps\": {vm_eps:.0}, \"native_eps\": {native_eps:.0}, \"speedup\": {speedup:.2}, \"native_vs_vm\": {native_vs_vm:.2} }}{comma}\n",
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");
}
