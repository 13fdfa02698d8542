//! End-to-end checks of the kernel-tier plumbing: `SkelCl::set_kernel_tier`
//! reaches already-cached programs, per-device tier counters surface in
//! `ExecTrace`, results are identical across tiers, `Tier::Auto` picks the
//! engine by launch size, and `Plan::explain` renders the tier decision.

use skelcl::prelude::*;
use skelcl::skeletons::{Map, Reduce, Zip};
use skelcl::vector::Vector;
use skelcl::Tier;

const SQUARE: &str = "float func(float x) { return x * x; }";

fn run_map(rt: &std::sync::Arc<skelcl::SkelCl>, n: usize) -> Vec<f32> {
    let square = Map::<f32, f32>::from_source(SQUARE);
    let data: Vec<f32> = (0..n).map(|i| (i % 31) as f32 * 0.5).collect();
    let v = Vector::from_vec(rt, data);
    v.map(&square).unwrap().to_vec().unwrap()
}

#[test]
fn forced_native_tier_is_counted_and_bit_identical() {
    let rt = skelcl::init_gpus(1);

    // First launch pinned to the scalar VM.
    rt.set_kernel_tier(Tier::Scalar);
    let baseline = run_map(&rt, 100);
    let t = rt.exec_trace();
    assert_eq!(t.scalar_launches(), 1, "pinned launch uses the scalar VM");
    assert_eq!(t.native_launches(), 0);
    assert_eq!(t.native_compiles(), 0);

    // Pin the native tier. The program is already cached in the context, so
    // this must reach it through the shared tier state.
    rt.set_kernel_tier(Tier::Native);
    let native = run_map(&rt, 100);
    assert_eq!(
        baseline.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        native.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "native tier must be bit-identical to the scalar VM"
    );
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 1, "pinned launch runs natively");
    assert_eq!(t.native_compiles(), 1, "first native launch compiles");
    assert!(t.native_compile_ns() > 0);

    // A second native launch reuses the compiled artifact.
    run_map(&rt, 100);
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 2);
    assert_eq!(
        t.native_compiles(),
        1,
        "compilation happens once per kernel"
    );
}

#[test]
fn auto_tier_graduates_large_launches() {
    let rt = skelcl::init_gpus(1);
    // A multi-item launch runs on the native tier from the very first
    // launch of the kernel.
    run_map(&rt, 10_000);
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 1, "large launch graduates immediately");
    assert_eq!(t.scalar_launches(), 0);
    assert_eq!(t.native_compiles(), 1);
}

#[test]
fn fused_dot_plan_runs_its_one_item_launches_on_the_scalar_vm() {
    // The fused zip+reduce kernel is one sequential fold per device: four
    // one-item launches, which Tier::Auto keeps on the scalar VM.
    let rt = skelcl::init_gpus(4);
    rt.set_kernel_tier(Tier::Auto);
    let mult = Zip::<f32, f32, f32>::from_source("float func(float x, float y) { return x * y; }");
    let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
    let x = Vector::from_vec(&rt, (0..1000).map(|i| (i % 7) as f32).collect());
    let y = Vector::from_vec(&rt, (0..1000).map(|i| (i % 5) as f32 * 0.5).collect());
    let dot = x.lazy().zip(&y, &mult).reduce(&sum).scalar().unwrap();
    let expected: f32 = (0..1000)
        .map(|i| (i % 7) as f32 * ((i % 5) as f32 * 0.5))
        .sum();
    assert_eq!(dot, expected);
    let t = rt.exec_trace();
    assert_eq!(t.scalar_launches(), 4, "one fold launch per device");
    assert_eq!(t.batched_launches(), 0);
    assert_eq!(t.native_launches(), 0);
    assert_eq!(t.native_compiles(), 0);
}

#[test]
fn map_overlap_sweeps_run_natively_without_replays() {
    // 4 devices × 32 rows × 256 columns: every device launch covers 8192
    // items, so each one runs natively under Tier::Auto.
    let rt = skelcl::init_gpus(4);
    rt.set_kernel_tier(Tier::Auto);
    let heat = MapOverlap::<f32, f32>::from_source(
        "float func(float u) { return u + 0.2f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u); }",
    )
    .with_halo(1)
    .with_boundary(Boundary::Clamp);
    let data: Vec<f32> = (0..128 * 256).map(|i| (i % 29) as f32).collect();
    let m = Matrix::from_vec(&rt, 128, 256, data).unwrap();
    heat.run(&m).run_iter(3).unwrap();
    let t = rt.exec_trace();
    let total = t.interp_launches() + t.scalar_launches() + t.native_launches();
    assert_eq!(total, 12, "one launch per device and sweep");
    assert_eq!(
        t.native_launches(),
        total,
        "every stencil launch runs natively"
    );
    assert_eq!(
        t.native_replayed_batches(),
        0,
        "no batch falls back to the VM"
    );
}

#[test]
fn interp_tier_pin_and_per_device_counters() {
    let rt = skelcl::init_gpus(2);
    rt.set_kernel_tier(Tier::Interp);
    run_map(&rt, 64);
    let t = rt.exec_trace();
    assert_eq!(t.interp_launches(), 2, "one launch per device");
    assert_eq!(t.native_launches() + t.scalar_launches(), 0);
    assert_eq!(t.native_compiles(), 0);
    assert_eq!(t.devices.len(), 2);
    for d in &t.devices {
        assert_eq!(d.interp_launches, 1);
    }
}

#[test]
fn explain_renders_tier_decision() {
    let rt = skelcl::init_gpus(1);
    let square = Map::<f32, f32>::from_source(SQUARE);
    let v = Vector::from_vec(&rt, vec![1.0f32; 32]);
    let plan = v.lazy().map(&square);
    let text = plan.explain().unwrap();
    assert!(
        text.contains("Kernel tier: auto"),
        "default explain shows the auto rule:\n{text}"
    );
    assert!(
        text.contains("launches of 2+ items run native"),
        "the launch-size rule is spelled out:\n{text}"
    );

    rt.set_kernel_tier(Tier::Native);
    let text = plan.explain().unwrap();
    assert!(
        text.contains("Kernel tier: native (pinned via set_kernel_tier)"),
        "pinned explain names the tier and its origin:\n{text}"
    );
}
