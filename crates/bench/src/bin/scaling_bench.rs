//! Wall-clock device-scaling benchmark for the threaded execution engine.
//!
//! PR 5 gave every simulated device a dedicated worker thread, so N-device
//! launches execute concurrently in *real* time (previously only the virtual
//! clocks overlapped). This harness measures end-to-end wall-clock
//! elements/sec for 1–4 devices over three workloads — a four-stage map
//! chain, a reduction, and an iterative heat-diffusion stencil — and emits
//! `BENCH_scaling.json`.
//!
//! Both wall-clock and virtual-time figures are reported. Virtual time is
//! the simulator's device model (near-linear by construction); wall-clock
//! scaling additionally requires real CPU cores for the workers, so the
//! emitted JSON records `host_cpus` — on a single-core host the wall-clock
//! column collapses to parity while the same binary shows the scaling on a
//! multi-core machine.
//!
//! Usage:
//!   cargo run --release -p skelcl_bench --bin scaling_bench
//!   cargo run --release -p skelcl_bench --bin scaling_bench -- --smoke
//!   cargo run --release -p skelcl_bench --bin scaling_bench -- --out path.json

use std::time::Instant;

use skelcl::prelude::*;

/// One measured configuration.
struct Row {
    workload: &'static str,
    devices: usize,
    wall_eps: f64,
    virt_eps: f64,
}

fn seeded(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32) / 1e6
        })
        .collect()
}

/// Best-of-`reps` measurement of one scenario: returns (wall seconds,
/// virtual seconds) for the fastest wall-clock repetition.
fn measure(
    devices: usize,
    reps: usize,
    scenario: impl Fn(&std::sync::Arc<skelcl::SkelCl>),
) -> (f64, f64) {
    let mut best = (f64::INFINITY, 0.0);
    for _ in 0..reps {
        let rt = skelcl::init_gpus(devices);
        let virt_start = rt.now();
        let wall_start = Instant::now();
        scenario(&rt);
        rt.finish_all();
        let wall = wall_start.elapsed().as_secs_f64();
        let virt = (rt.now() - virt_start).as_secs_f64();
        if wall < best.0 {
            best = (wall, virt);
        }
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());

    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let reps = if smoke { 1 } else { 3 };

    // Workload sizes: total elements processed per run (for elements/sec).
    let map_n: usize = if smoke { 20_000 } else { 1_000_000 };
    let map_sweeps = 4usize;
    let reduce_n: usize = if smoke { 40_000 } else { 2_000_000 };
    let (heat_rows, heat_cols) = if smoke { (48, 32) } else { (384, 256) };
    let heat_sweeps = if smoke { 3 } else { 10 };

    let mut rows: Vec<Row> = Vec::new();
    for devices in 1..=4 {
        // --- map-chain: four dependent element-wise sweeps ---
        let (wall, virt) = measure(devices, reps, |rt| {
            let cube = Map::<f32, f32>::from_source(
                "float func(float x) { return x * x * x - 2.0f * x + 1.0f; }",
            );
            let v = Vector::from_vec(rt, seeded(map_n, 23));
            let mut cur = v;
            for _ in 0..map_sweeps {
                cur = cube.run(&cur).exec().expect("map chain");
            }
            std::hint::black_box(cur.to_vec().expect("gather"));
        });
        let total = (map_n * map_sweeps) as f64;
        rows.push(Row {
            workload: "map_chain",
            devices,
            wall_eps: total / wall,
            virt_eps: total / virt,
        });

        // --- reduce: one full sum ---
        let (wall, virt) = measure(devices, reps, |rt| {
            let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
            let v = Vector::from_vec(rt, seeded(reduce_n, 31));
            std::hint::black_box(sum.run(&v).exec().expect("reduce"));
        });
        rows.push(Row {
            workload: "reduce",
            devices,
            wall_eps: reduce_n as f64 / wall,
            virt_eps: reduce_n as f64 / virt,
        });

        // --- heat diffusion: iterative 5-point stencil with halo exchange ---
        let (wall, virt) = measure(devices, reps, |rt| {
            let heat = MapOverlap::<f32, f32>::from_source(
                "float func(float x) { return x + 0.2f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * x); }",
            )
            .with_halo(1)
            .with_boundary(Boundary::Clamp);
            let m = Matrix::from_vec(rt, heat_rows, heat_cols, seeded(heat_rows * heat_cols, 47))
                .expect("matrix");
            let out = heat.run(&m).run_iter(heat_sweeps).expect("heat");
            std::hint::black_box(out.to_vec().expect("gather"));
        });
        let total = (heat_rows * heat_cols * heat_sweeps) as f64;
        rows.push(Row {
            workload: "heat_diffusion",
            devices,
            wall_eps: total / wall,
            virt_eps: total / virt,
        });
    }

    println!("host_cpus = {host_cpus}");
    for w in ["map_chain", "reduce", "heat_diffusion"] {
        let base = rows
            .iter()
            .find(|r| r.workload == w && r.devices == 1)
            .expect("baseline row");
        for r in rows.iter().filter(|r| r.workload == w) {
            println!(
                "{:<15} {} device(s)  wall {:>12.0} elem/s ({:>4.2}x)  virtual {:>13.0} elem/s ({:>4.2}x)",
                r.workload,
                r.devices,
                r.wall_eps,
                r.wall_eps / base.wall_eps,
                r.virt_eps,
                r.virt_eps / base.virt_eps,
            );
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"scaling\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p skelcl_bench --bin scaling_bench\",\n",
    );
    json.push_str("  \"units\": \"elements_per_second\",\n");
    json.push_str(
        "  \"note\": \"wall_eps is real wall-clock throughput (needs >= devices host cores to scale); virtual_eps is the simulator's device model\",\n",
    );
    json.push_str("  \"workloads\": {\n");
    for (wi, w) in ["map_chain", "reduce", "heat_diffusion"].iter().enumerate() {
        json.push_str(&format!("    \"{w}\": {{\n"));
        let base = rows
            .iter()
            .find(|r| r.workload == *w && r.devices == 1)
            .expect("baseline row");
        let of: Vec<&Row> = rows.iter().filter(|r| r.workload == *w).collect();
        for (i, r) in of.iter().enumerate() {
            let comma = if i + 1 < of.len() { "," } else { "" };
            json.push_str(&format!(
                "      \"devices_{}\": {{ \"wall_eps\": {:.0}, \"wall_speedup\": {:.2}, \"virtual_eps\": {:.0}, \"virtual_speedup\": {:.2} }}{comma}\n",
                r.devices,
                r.wall_eps,
                r.wall_eps / base.wall_eps,
                r.virt_eps,
                r.virt_eps / base.virt_eps,
            ));
        }
        json.push_str(if wi < 2 { "    },\n" } else { "    }\n" });
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");
}
