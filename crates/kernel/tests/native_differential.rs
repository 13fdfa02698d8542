//! Differential tests for the native execution tier: native ≡ scalar VM ≡
//! interpreter, on results (bit for bit), measured [`ExecStats`] and error
//! messages, across control flow, divergence, cross-lane hazards, division
//! by zero, early exit and stencil `get(dx, dy)` kernels — plus tests of the
//! `Tier::Auto` launch-size rule (launches of two or more work-items run
//! natively, one-item launches and bailed launches on the scalar VM).

use proptest::prelude::*;

use skelcl_kernel::interp::{ArgBinding, BufferView, ExecStats};
use skelcl_kernel::value::Value;
use skelcl_kernel::{Program, Tier};

type Outcome = Result<(Vec<Vec<f32>>, ExecStats), String>;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Engine {
    Interp,
    Scalar,
    Native,
}

const ENGINES: [Engine; 2] = [Engine::Scalar, Engine::Native];

fn run_engine(
    src: &str,
    kernel: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
    engine: Engine,
) -> Outcome {
    let (bufs, stats) =
        run_engine_keeping_buffers(src, kernel, buffers, scalars, global_size, engine);
    stats.map(|s| (bufs, s))
}

/// [`run_engine`], returning the buffers also when the launch fails: they
/// then hold whatever the work-items before the failing one stored.
fn run_engine_keeping_buffers(
    src: &str,
    kernel: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
    engine: Engine,
) -> (Vec<Vec<f32>>, Result<ExecStats, String>) {
    let p = Program::build(src).expect("test kernels must build");
    let k = p.kernel(kernel).expect("kernel exists");
    if engine == Engine::Native {
        p.set_tier(Tier::Native);
    }
    let mut bufs: Vec<Vec<f32>> = buffers.to_vec();
    let mut args: Vec<ArgBinding<'_>> = Vec::new();
    for b in &mut bufs {
        args.push(ArgBinding::Buffer(BufferView::F32(b)));
    }
    for s in scalars {
        args.push(ArgBinding::Scalar(*s));
    }
    let stats = match engine {
        Engine::Interp => p.run_ndrange_measured_interp(&k, global_size, &mut args),
        Engine::Scalar => p.run_ndrange_measured_scalar(&k, global_size, &mut args),
        Engine::Native => p.run_ndrange_measured(&k, global_size, &mut args),
    };
    drop(args);
    (bufs, stats.map_err(|e| e.message))
}

/// Assert every tier produces the interpreter oracle's outcome exactly:
/// bit-identical buffers, identical stats, identical error messages.
fn assert_tiers_agree(
    src: &str,
    kernel: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
) {
    let oracle = run_engine(src, kernel, buffers, scalars, global_size, Engine::Interp);
    for engine in ENGINES {
        let got = run_engine(src, kernel, buffers, scalars, global_size, engine);
        match (&got, &oracle) {
            (Ok((gb, gs)), Ok((ob, os))) => {
                for (i, (g, o)) in gb.iter().zip(ob).enumerate() {
                    let gbits: Vec<u32> = g.iter().map(|x| x.to_bits()).collect();
                    let obits: Vec<u32> = o.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(
                        gbits, obits,
                        "buffer {i} diverged on {engine:?} for kernel:\n{src}"
                    );
                }
                assert_eq!(
                    gs, os,
                    "ExecStats diverged on {engine:?} for kernel:\n{src}"
                );
            }
            (Err(ge), Err(oe)) => {
                assert_eq!(ge, oe, "errors diverged on {engine:?} for kernel:\n{src}");
            }
            _ => panic!(
                "{engine:?} disagrees with the oracle on success for kernel:\n{src}\n\
                 engine: {:?}\noracle: {:?}",
                got.as_ref().map(|(_, s)| s),
                oracle.as_ref().map(|(_, s)| s)
            ),
        }
    }
}

/// [`assert_tiers_agree`], plus: a failed launch leaves bit-identical
/// buffers on every tier (the stores of the work-items sequentially before
/// the failing one, nothing else).
fn assert_tiers_agree_after_errors(
    src: &str,
    kernel: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
) {
    assert_tiers_agree(src, kernel, buffers, scalars, global_size);
    let bits = |bufs: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
        bufs.iter()
            .map(|b| b.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    let (oracle, _) =
        run_engine_keeping_buffers(src, kernel, buffers, scalars, global_size, Engine::Interp);
    let oracle = bits(oracle);
    for engine in ENGINES {
        let (got, _) =
            run_engine_keeping_buffers(src, kernel, buffers, scalars, global_size, engine);
        assert_eq!(
            bits(got),
            oracle,
            "buffers diverged on {engine:?} for kernel:\n{src}"
        );
    }
}

/// One launch pinned to the native tier, returning its [`LaunchTrace`]
/// (batches completed natively vs. replayed), or the launch error.
///
/// [`LaunchTrace`]: skelcl_kernel::LaunchTrace
fn native_trace(
    src: &str,
    kernel: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
) -> Result<skelcl_kernel::LaunchTrace, String> {
    let p = Program::build(src).expect("test kernels must build");
    p.set_tier(Tier::Native);
    let k = p.kernel(kernel).expect("kernel exists");
    let mut bufs: Vec<Vec<f32>> = buffers.to_vec();
    let mut args: Vec<ArgBinding<'_>> = bufs
        .iter_mut()
        .map(|b| ArgBinding::Buffer(BufferView::F32(b)))
        .collect();
    args.extend(scalars.iter().map(|s| ArgBinding::Scalar(*s)));
    p.run_ndrange_traced(&k, global_size, &mut args)
        .map(|(_, trace)| trace)
        .map_err(|e| e.message)
}

/// The kernel `map_overlap_kernel` generates for a `get(dx, dy)` UDF: the
/// output store goes to the halo-padded index `skelcl_idx`, which is the
/// work-item's global id shifted by `halo × width`.
const GENERATED_STENCIL_SRC: &str =
    "float func(float x, int dx, int dy) { return x + 0.5f * (get(-1, 0) + get(1, 0) + get(dx, dy)); }\n\
     __kernel void SKELCL_MAP_OVERLAP(__global float* skelcl_stencil_in, __global float* skelcl_out,\n\
         int skelcl_n, int skelcl_stencil_w, int skelcl_stencil_halo,\n\
         int skelcl_stencil_policy, float skelcl_stencil_oob, int skelcl_arg_dx, int skelcl_arg_dy) {\n\
         int skelcl_gid = get_global_id(0);\n\
         if (skelcl_gid < skelcl_n) {\n\
             int skelcl_idx = (skelcl_gid / skelcl_stencil_w + skelcl_stencil_halo) * skelcl_stencil_w + skelcl_gid % skelcl_stencil_w;\n\
             skelcl_out[skelcl_idx] = func(skelcl_stencil_in[skelcl_idx], skelcl_arg_dx, skelcl_arg_dy);\n\
         }\n\
     }\n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The canonical guarded map shape — straight-line f32 arithmetic with
    /// iota loads/stores, the native tier's hottest fast path.
    #[test]
    fn guarded_map_agrees_across_all_tiers(
        data in prop::collection::vec(-100.0f32..100.0, 1..200),
        a in -4.0f32..4.0,
    ) {
        let src = r#"
            float func(float x, float a) { return x * a + 0.5f; }
            __kernel void SKELCL_MAP(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n, float skelcl_arg_a) {
                int skelcl_gid = get_global_id(0);
                if (skelcl_gid < skelcl_n) {
                    skelcl_out[skelcl_gid] = func(skelcl_in[skelcl_gid], skelcl_arg_a);
                }
            }
        "#;
        let n = data.len();
        let out = vec![0.0f32; n];
        assert_tiers_agree(
            src, "SKELCL_MAP", &[data, out],
            &[Value::Int(n as i32), Value::Float(a)], n,
        );
    }

    /// Uniform control flow (same trip count in every lane) with break and
    /// continue: exercises native back-edge budgeting and branch terms.
    #[test]
    fn uniform_loops_agree_across_all_tiers(
        data in prop::collection::vec(-50.0f32..50.0, 1..96),
        limit in 0i32..30,
        skip in 1i32..5,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n, int limit, int skip) {
                int gid = get_global_id(0);
                float acc = 0.0f;
                for (int i = 0; i < n; i++) {
                    if (i % skip == 0) { continue; }
                    if (i > limit) { break; }
                    acc += v[i] * 0.5f;
                }
                v[gid] = acc;
            }
        "#;
        let n = data.len();
        assert_tiers_agree(
            src, "k", &[data],
            &[Value::Int(n as i32), Value::Int(limit), Value::Int(skip)], n,
        );
    }

    /// Data-dependent (gid-dependent) trip counts: lanes diverge mid-batch,
    /// forcing the native tier down its rollback-and-replay path.
    #[test]
    fn divergent_loops_agree_across_all_tiers(
        items in 1usize..160,
        mult in 0.5f32..1.5,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n, float m) {
                int gid = get_global_id(0);
                float acc = 0.0f;
                for (int i = 0; i <= gid % 7; i++) { acc += v[gid] * m; }
                v[gid] = acc;
            }
        "#;
        let data: Vec<f32> = (0..items).map(|i| (i % 13) as f32 - 6.0).collect();
        assert_tiers_agree(
            src, "k", &[data],
            &[Value::Int(items as i32), Value::Float(mult)], items,
        );
    }

    /// Integer division and modulo where the divisor may be zero: every tier
    /// must report the identical "integer division by zero" error (or agree
    /// bit for bit when the divisor is non-zero).
    #[test]
    fn division_by_zero_errors_agree_across_all_tiers(
        data in prop::collection::vec(-1000.0f32..1000.0, 1..96),
        d in -4i32..4,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n, int d) {
                int gid = get_global_id(0);
                int x = (int) v[gid];
                v[gid] = (float) (x * 3 - x / d + x % d);
            }
        "#;
        let n = data.len();
        assert_tiers_agree(
            src, "k", &[data],
            &[Value::Int(n as i32), Value::Int(d)], n,
        );
    }

    /// Early exit: the launch covers more items than the guard admits, so
    /// suffix lanes retire through the guard's exit chain mid-batch.
    #[test]
    fn early_exit_lane_retirement_agrees_across_all_tiers(
        len in 1usize..80,
        extra in 0usize..80,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n) {
                int gid = get_global_id(0);
                if (gid < n) { v[gid] = v[gid] * 2.0f + 1.0f; }
            }
        "#;
        let launch = len + extra;
        let data: Vec<f32> = (0..launch).map(|i| i as f32 * 0.25).collect();
        assert_tiers_agree(src, "k", &[data], &[Value::Int(len as i32)], launch);
    }

    /// Math builtins over f32 rows (the fn-pointer fast paths) mixed with
    /// casts and f64 locals.
    #[test]
    fn math_builtins_and_casts_agree_across_all_tiers(
        data in prop::collection::vec(0.01f32..100.0, 1..96),
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n) {
                int gid = get_global_id(0);
                float x = v[gid];
                float y = sqrt(x) + exp(x * 0.001f) + pow(x, 0.5f);
                y = fmin(fmax(y, 0.5f), 1.0e6f) + clamp(x, 1.0f, 8.0f);
                double z = (double) y * 0.125;
                int t = (int) z;
                v[gid] = (float) z - (float) t + fabs(x) * 0.0625f;
            }
        "#;
        let n = data.len();
        assert_tiers_agree(src, "k", &[data], &[Value::Int(n as i32)], n);
    }

    /// The MapOverlap stencil shape: `get(dx, dy)` neighbour reads bind the
    /// reserved stencil context and must agree across tiers, including the
    /// "exceeds the declared halo" error when `dy` overruns.
    #[test]
    fn stencil_get_agrees_across_all_tiers(
        rows in 1usize..6,
        w in 1usize..8,
        halo in 0usize..3,
        policy in 0i32..3,
        dy in -3i32..4,
        seed in 0u32..1000,
    ) {
        let src =
            "float func(float x, int dy) { return x + 0.5f * (get(-1, 0) + get(1, 0) + get(0, dy)); }\n\
             __kernel void SKELCL_MAP_OVERLAP(__global float* skelcl_stencil_in, __global float* skelcl_out,\n\
                 int skelcl_n, int skelcl_stencil_w, int skelcl_stencil_halo,\n\
                 int skelcl_stencil_policy, float skelcl_stencil_oob, int skelcl_arg_dy) {\n\
                 int skelcl_gid = get_global_id(0);\n\
                 if (skelcl_gid < skelcl_n) {\n\
                     skelcl_out[skelcl_gid] = func(skelcl_stencil_in[skelcl_gid], skelcl_arg_dy);\n\
                 }\n\
             }\n";
        let n = rows * w;
        let padded = (rows + 2 * halo) * w;
        let input: Vec<f32> = (0..padded)
            .map(|i| ((i as u32 * 37 + seed) % 101) as f32 * 0.5 - 20.0)
            .collect();
        let out = vec![0.0f32; n];
        assert_tiers_agree(
            src, "SKELCL_MAP_OVERLAP", &[input, out],
            &[
                Value::Int(n as i32),
                Value::Int(w as i32),
                Value::Int(halo as i32),
                Value::Int(policy),
                Value::Float(-1.5),
                Value::Int(dy),
            ],
            n,
        );
    }

    /// The stencil kernel exactly as the MapOverlap skeleton generates it:
    /// shifted output stores into a padded part, multi-batch launches whose
    /// batches straddle row boundaries, every column policy and `dx`/`dy`
    /// beyond the halo. Tiers agree, and whenever the launch succeeds the
    /// native tier completes every batch without a replay.
    #[test]
    fn generated_stencil_kernel_agrees_and_stays_native(
        rows in 1usize..10,
        w in 1usize..40,
        halo in 0usize..4,
        policy in 0i32..3,
        dx in -4i32..5,
        dy in -4i32..5,
        seed in 0u32..1000,
    ) {
        let n = rows * w;
        let padded = (rows + 2 * halo) * w;
        let input: Vec<f32> = (0..padded)
            .map(|i| ((i as u32 * 37 + seed) % 101) as f32 * 0.5 - 20.0)
            .collect();
        let out = vec![0.25f32; padded];
        let scalars = [
            Value::Int(n as i32),
            Value::Int(w as i32),
            Value::Int(halo as i32),
            Value::Int(policy),
            Value::Float(-1.5),
            Value::Int(dx),
            Value::Int(dy),
        ];
        let buffers = [input, out];
        assert_tiers_agree_after_errors(GENERATED_STENCIL_SRC, "SKELCL_MAP_OVERLAP", &buffers, &scalars, n);
        let traced = native_trace(GENERATED_STENCIL_SRC, "SKELCL_MAP_OVERLAP", &buffers, &scalars, n);
        prop_assert_eq!(traced.is_ok(), dy.unsigned_abs() as usize <= halo);
        if let Ok(trace) = traced {
            prop_assert_eq!(trace.tier, Tier::Native);
            prop_assert_eq!(trace.replayed_batches, 0);
            prop_assert_eq!(trace.native_batches as usize, n.div_ceil(skelcl_kernel::native::BATCH_LANES));
        }
    }
}

/// `get(dx, dy)` on rows as wide as a batch or wider, with offsets reaching
/// far past the row edge: offsets uniform across the lanes (one span read,
/// per-lane patches where a batch crosses into the next row) and offsets that
/// vary per lane in `dy` or `dx`. Tiers agree, and the native tier completes
/// every batch; a uniform `dy` past the halo fails exactly like the oracle.
#[test]
fn stencil_span_reads_patch_row_edges_exactly() {
    let src =
        "float func(float x, int dx) {\n\
             int g = get_global_id(0);\n\
             return x + get(dx, 0) + 0.5f * get(dx, g % 3 - 1) + 0.25f * get(g % 5 - 2 + dx, 1);\n\
         }\n\
         __kernel void SKELCL_MAP_OVERLAP(__global float* skelcl_stencil_in, __global float* skelcl_out,\n\
             int skelcl_n, int skelcl_stencil_w, int skelcl_stencil_halo,\n\
             int skelcl_stencil_policy, float skelcl_stencil_oob, int skelcl_arg_dx) {\n\
             int skelcl_gid = get_global_id(0);\n\
             if (skelcl_gid < skelcl_n) {\n\
                 int skelcl_idx = (skelcl_gid / skelcl_stencil_w + skelcl_stencil_halo) * skelcl_stencil_w + skelcl_gid % skelcl_stencil_w;\n\
                 skelcl_out[skelcl_idx] = func(skelcl_stencil_in[skelcl_idx], skelcl_arg_dx);\n\
             }\n\
         }\n";
    let (rows, halo) = (3usize, 1usize);
    for w in [50usize, 64, 100, 130] {
        let n = rows * w;
        let padded = (rows + 2 * halo) * w;
        let input: Vec<f32> = (0..padded)
            .map(|i| ((i * 37) % 101) as f32 * 0.5 - 20.0)
            .collect();
        let buffers = [input, vec![0.25f32; padded]];
        for policy in 0i32..3 {
            for dx in [-70i32, -30, -1, 0, 1, 30, 70] {
                let scalars = [
                    Value::Int(n as i32),
                    Value::Int(w as i32),
                    Value::Int(halo as i32),
                    Value::Int(policy),
                    Value::Float(-1.5),
                    Value::Int(dx),
                ];
                assert_tiers_agree(src, "SKELCL_MAP_OVERLAP", &buffers, &scalars, n);
                let trace = native_trace(src, "SKELCL_MAP_OVERLAP", &buffers, &scalars, n)
                    .expect("in-halo offsets succeed");
                assert_eq!(trace.tier, Tier::Native);
                assert_eq!(trace.replayed_batches, 0);
                // A uniform `dy` one row past the halo: the first batches'
                // spans still lie inside the padded input, yet every
                // work-item must fail before storing anything.
                let mut scalars = scalars.to_vec();
                scalars.push(Value::Int(halo as i32 + 1));
                assert_tiers_agree_after_errors(
                    GENERATED_STENCIL_SRC,
                    "SKELCL_MAP_OVERLAP",
                    &buffers,
                    &scalars,
                    n,
                );
            }
        }
    }
}

/// Cross-lane hazard: each item writes its own element then reads its
/// neighbour's. The native tier must bail, roll back and replay exactly.
#[test]
fn cross_lane_hazards_roll_back_and_replay_exactly() {
    let src = r#"
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            v[gid] = v[gid] * 2.0f;
            v[gid] += v[(gid + 1) % n];
        }
    "#;
    let n = 2 * skelcl_kernel::native::BATCH_LANES + 3;
    let data: Vec<f32> = (0..n).map(|i| (i % 13) as f32 - 6.0).collect();
    assert_tiers_agree(src, "k", &[data], &[Value::Int(n as i32)], n);
}

/// A two-buffer kernel whose body `body` runs once per work-item `gid` of a
/// multi-batch launch over `v` (input) and `o` (output, two elements longer),
/// asserting that every tier agrees with the oracle (on the buffers a failed
/// launch leaves behind too) and that the native tier
/// replayed at least one batch instead of completing it in lockstep.
fn assert_hazard_replays_exactly(body: &str) {
    let src = format!(
        "__kernel void k(__global float* v, __global float* o, int n) {{\n\
             int gid = get_global_id(0);\n\
             {body}\n\
         }}\n"
    );
    let n = 2 * skelcl_kernel::native::BATCH_LANES + 5;
    let v: Vec<f32> = (0..n).map(|i| (i % 13) as f32 - 6.0).collect();
    let o: Vec<f32> = (0..n + 2).map(|i| (i % 7) as f32 * 0.5).collect();
    let buffers = [v, o];
    let scalars = [Value::Int(n as i32)];
    assert_tiers_agree_after_errors(&src, "k", &buffers, &scalars, n);
    if let Ok(trace) = native_trace(&src, "k", &buffers, &scalars, n) {
        assert!(
            trace.replayed_batches >= 1,
            "the native tier must bail on:\n{src}\ntrace: {trace:?}"
        );
    }
}

/// A shifted store (`a0 + lane`, not the own index) followed by a load of
/// the same buffer: lane ℓ + 1 must read what lane ℓ stored.
#[test]
fn shifted_store_then_load_of_the_slot_replays() {
    assert_hazard_replays_exactly("o[gid + 1] = v[gid] * 2.0f; v[gid] = o[gid] + 1.0f;");
}

/// A load followed by a shifted store to the same buffer: lane ℓ + 1 must
/// load the value lane ℓ stored, not the old one.
#[test]
fn load_then_shifted_store_of_the_slot_replays() {
    assert_hazard_replays_exactly("float x = o[gid]; o[gid + 1] = x + v[gid];");
}

/// Two shifted stores that overlap across lanes: sequential order leaves the
/// later lane's first store in `o[gid + 2]`, lockstep order would not.
#[test]
fn overlapping_shifted_stores_replay() {
    assert_hazard_replays_exactly("o[gid + 1] = v[gid]; o[gid + 2] = v[gid] * 3.0f;");
}

/// An own-index store after a shifted store to the same buffer. The shift
/// is `+1` in the first batch (sequential and lockstep order agree, so it
/// completes natively) and negative afterwards, where lane ℓ's shifted store
/// lands on an element an earlier lane already stored to its own index.
#[test]
fn own_store_after_downward_shifted_store_replays() {
    assert_hazard_replays_exactly(
        "int s = 1 - 2 * (gid / 64); o[gid + s] = v[gid]; o[gid] = v[gid] + 1.0f;",
    );
}

/// A strided store is neither own-index nor contiguous.
#[test]
fn strided_foreign_store_replays() {
    assert_hazard_replays_exactly("if (2 * gid < n) { o[2 * gid] = v[gid]; }");
}

/// A shifted store running past the end of its buffer reports the oracle's
/// out-of-bounds error after rolling the batch back.
#[test]
fn out_of_bounds_shifted_store_replays_the_error() {
    assert_hazard_replays_exactly("o[gid + 3] = v[gid];");
}

/// Under `Tier::Auto`, a kernel whose first batch bails finishes the launch
/// on the scalar VM, so the launch counts as scalar and reports the replayed
/// batch.
#[test]
fn fully_bailed_native_launches_report_the_scalar_tier() {
    let src = "__kernel void k(__global float* v, __global float* o, int n) {\n\
                   int gid = get_global_id(0);\n\
                   o[2 * gid] = v[gid];\n\
               }\n";
    let p = Program::build(src).unwrap();
    p.set_tier(Tier::Auto);
    let k = p.kernel("k").unwrap();
    let n = 2 * skelcl_kernel::native::BATCH_LANES;
    let mut v = vec![1.0f32; n];
    let mut o = vec![0.0f32; 2 * n];
    let mut args = vec![
        ArgBinding::buffer_f32(&mut v),
        ArgBinding::buffer_f32(&mut o),
        ArgBinding::Scalar(Value::Int(n as i32)),
    ];
    let (_, trace) = p.run_ndrange_traced(&k, n, &mut args).unwrap();
    assert_eq!(trace.tier, Tier::Scalar);
    assert!(trace.native_compiled, "the launch tried the native tier");
    assert_eq!(trace.native_batches, 0);
    assert_eq!(trace.replayed_batches, 1);
    drop(args);
    assert!(
        o.iter().step_by(2).all(|x| *x == 1.0),
        "the VM ran every item"
    );
}

/// Compound assignment and increment quirks: in-place forms (`x = x op y`)
/// exercise the native tier's operand-snapshot aliasing discipline.
#[test]
fn compound_assignment_aliasing_agrees_across_all_tiers() {
    let src = r#"
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            float x = v[gid];
            x *= 2.0f;
            x += x;
            x -= x * 0.25f;
            int i = gid;
            i += i;
            float a = i++;
            float b = ++i;
            v[gid] = x + a * 0.125f - b * 0.0625f;
        }
    "#;
    let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5 - 20.0).collect();
    assert_tiers_agree(src, "k", &[data], &[Value::Int(100)], 100);
}

/// Out-of-bounds and negative indices produce identical errors everywhere.
#[test]
fn out_of_bounds_errors_agree_across_all_tiers() {
    let src = r#"
        __kernel void k(__global float* v, int n, int idx) { v[idx] = 1.0f; }
    "#;
    for idx in [-3, 17] {
        assert_tiers_agree(
            src,
            "k",
            &[vec![0.0f32; 4]],
            &[Value::Int(4), Value::Int(idx)],
            1,
        );
    }
}

/// Reduce- and scan-shaped kernels (single-item sequential folds) run
/// identically on the native tier.
#[test]
fn sequential_fold_kernels_agree_across_all_tiers() {
    let src = r#"
        float func(float a, float b) { return a + b * 0.5f; }
        __kernel void SKELCL_REDUCE(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n) {
            float skelcl_acc = skelcl_in[0];
            for (int skelcl_i = 1; skelcl_i < skelcl_n; skelcl_i++) {
                skelcl_acc = func(skelcl_acc, skelcl_in[skelcl_i]);
            }
            skelcl_out[0] = skelcl_acc;
        }
    "#;
    let data: Vec<f32> = (0..200).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    let out = vec![0.0f32; 1];
    assert_tiers_agree(src, "SKELCL_REDUCE", &[data, out], &[Value::Int(200)], 1);
}

// ---------------------------------------------------------------------------
// Tier selection
// ---------------------------------------------------------------------------

const MAP_SRC: &str = r#"
    __kernel void k(__global float* v, int n) {
        int gid = get_global_id(0);
        if (gid < n) { v[gid] = v[gid] * 2.0f; }
    }
"#;

fn traced_launch(p: &Program, n: usize) -> skelcl_kernel::LaunchTrace {
    let k = p.kernel("k").unwrap();
    let mut data = vec![1.0f32; n];
    let mut args = vec![
        ArgBinding::buffer_f32(&mut data),
        ArgBinding::Scalar(Value::Int(n as i32)),
    ];
    let (_, trace) = p.run_ndrange_traced(&k, n, &mut args).unwrap();
    trace
}

#[test]
fn one_item_launches_report_the_scalar_tier() {
    let p = Program::build(MAP_SRC).unwrap();
    p.set_tier(Tier::Auto);
    for _ in 0..3 {
        let trace = traced_launch(&p, 1);
        assert_eq!(trace.tier, Tier::Scalar);
        assert!(!trace.native_compiled, "one-item launches never compile");
        assert_eq!(trace.native_batches, 0);
    }
}

#[test]
fn two_item_launches_run_natively_on_their_first_launch() {
    let p = Program::build(MAP_SRC).unwrap();
    p.set_tier(Tier::Auto);
    let trace = traced_launch(&p, 2);
    assert_eq!(trace.tier, Tier::Native);
    assert!(trace.native_compiled, "the first launch compiles");
    assert_eq!(trace.native_batches, 1);
    assert!(trace.fallback.is_none());
}

#[test]
fn large_launches_graduate_immediately_and_cache_the_artifact() {
    let p = Program::build(MAP_SRC).unwrap();
    p.set_tier(Tier::Auto);
    let n = 8192;
    let first = traced_launch(&p, n);
    assert_eq!(first.tier, Tier::Native);
    assert!(first.native_compiled);
    let second = traced_launch(&p, n);
    assert_eq!(second.tier, Tier::Native);
    assert!(!second.native_compiled, "the compiled artifact is cached");
    assert_eq!(second.native_compile_ns, first.native_compile_ns);
}

#[test]
fn forced_native_on_ineligible_kernels_falls_back_with_a_reason() {
    // Recursion leaves a real `Op::Call`, which only the VM can execute.
    let src = r#"
        float fib(float n) {
            if (n < 2.0f) { return n; }
            return fib(n - 1.0f) + fib(n - 2.0f);
        }
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            if (gid < n) { v[gid] = fib(v[gid]); }
        }
    "#;
    let p = Program::build(src).unwrap();
    p.set_tier(Tier::Native);
    let trace = traced_launch(&p, 16);
    assert_eq!(trace.tier, Tier::Scalar, "fell back to the scalar VM");
    let reason = trace.fallback.expect("fallback reason recorded");
    assert!(reason.contains("through a VM frame"), "reason: {reason}");
    // And the fallback still computes the right answer.
    assert_tiers_agree(src, "k", &[vec![7.0f32; 16]], &[Value::Int(16)], 16);
}

#[test]
fn explicit_tier_override_is_respected_per_program() {
    let p = Program::build(MAP_SRC).unwrap();
    for tier in [Tier::Interp, Tier::Scalar, Tier::Native] {
        p.set_tier(tier);
        assert_eq!(p.tier(), tier);
        let trace = traced_launch(&p, 64);
        assert_eq!(trace.tier, tier, "forced tier runs unconditionally");
    }
}
