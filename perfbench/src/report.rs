//! Metric registry, metric computation and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::harness::{RunData, Sample};
use crate::stats;

/// How a metric is measured, which decides what must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock or process memory: varies from run to run.
    Wall,
    /// Virtual time from the simulator's cost model: bit-identical for one
    /// seed.
    Virtual,
    /// Counts and ratios of counts: identical for one seed.
    Count,
}

/// A registered metric: name, unit and clock.
pub type Spec = (&'static str, &'static str, Clock);

use Clock::{Count, Virtual, Wall};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[Spec] = &[
    ("setup_s", "s", Wall),
    ("iter_p50_ms", "ms", Wall),
    ("iter_tail_ms", "ms", Wall),
    ("melem_per_s", "Melem/s", Wall),
    ("jobs_per_s", "1/s", Wall),
    ("virtual_ms", "ms", Virtual),
    ("virtual_scaling_4v1", "x", Virtual),
    ("job_virtual_p50_us", "us", Virtual),
    ("job_virtual_tail_us", "us", Virtual),
    ("peak_rss_mib", "MiB", Wall),
];

/// Per-layer metrics, printed with `--trace 1`. Unless noted otherwise a
/// value is per traced warm iteration.
pub const PER_LAYER: &[Spec] = &[
    ("kernel.native_launches", "count", Count),
    ("kernel.batched_launches", "count", Count),
    ("kernel.scalar_launches", "count", Count),
    ("kernel.interp_launches", "count", Count),
    ("kernel.native_share", "ratio", Count),
    ("kernel.native_compile_ms", "ms", Wall),
    ("oclsim.build_virtual_ms", "ms", Virtual),
    ("oclsim.write_virtual_ms", "ms", Virtual),
    ("oclsim.kernel_virtual_ms", "ms", Virtual),
    ("oclsim.read_virtual_ms", "ms", Virtual),
    ("oclsim.queue_wait_virtual_ms", "ms", Virtual),
    ("oclsim.device_idle_virtual_ms", "ms", Virtual),
    ("oclsim.write_bytes", "B", Count),
    ("oclsim.read_bytes", "B", Count),
    ("oclsim.commands", "count", Count),
    ("oclsim.kernel_work_items", "count", Count),
    ("container.upload_ms", "ms", Wall),
    ("container.gather_ms", "ms", Wall),
    ("container.gather_gbps", "GB/s", Wall),
    ("container.halo_transfers", "count", Count),
    ("container.halo_bytes", "B", Count),
    ("container.halo_virtual_ms", "ms", Virtual),
    ("container.pool_hits", "count", Count),
    ("plan.exec_ms", "ms", Wall),
    ("plan.kernels_fused", "count", Count),
    ("plan.launches_elided", "count", Count),
    ("plan.intermediate_bytes_elided", "B", Count),
    ("skeletons.reduce_ms", "ms", Wall),
    ("skeletons.scan_ms", "ms", Wall),
    ("skeletons.map_overlap_ms", "ms", Wall),
    ("skeletons.calls", "count", Count),
    ("runtime.deferred_errors", "count", Count),
    ("recovery.replayed_launches", "count", Count),
    ("serving.submit_us", "us", Wall),
    ("serving.flush_ms", "ms", Wall),
    ("serving.jobs_per_launch", "count", Count),
    ("serving.opaque_jobs", "count", Count),
    ("serving.would_blocks", "count", Count),
    ("serving.max_queue_depth", "count", Count),
    ("serving.jobs_failed", "count", Count),
    ("error_rate", "ratio", Count),
    ("reference.iter_ms", "ms", Wall),
    ("trace.iter_p50_ms", "ms", Wall),
    ("host.steal_pct", "%", Wall),
    ("trace.overhead_ms", "ms", Wall),
    ("span.iteration.self_ms", "ms", Wall),
    ("span.upload.self_ms", "ms", Wall),
    ("span.exec.self_ms", "ms", Wall),
    ("span.scalar.self_ms", "ms", Wall),
    ("span.scan.self_ms", "ms", Wall),
    ("span.run_iter.self_ms", "ms", Wall),
    ("span.to_vec.self_ms", "ms", Wall),
    ("span.try_submit_vec.self_ms", "ms", Wall),
    ("span.try_submit_scalar.self_ms", "ms", Wall),
    ("span.flush.self_ms", "ms", Wall),
    ("span.wait.self_ms", "ms", Wall),
];

/// Look a metric up in either registry.
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.0 == name)
}

/// Highest percentile a wall tail reports: on a shared host the p99 of a
/// ten-second run mostly measures the host's own hiccups, and varied by up
/// to 40 % between identical runs. Virtual time has no hiccups, so virtual
/// tails go up to p99.
pub const WALL_TAIL_CAP: usize = 90;

/// Computed metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The end-to-end metrics: wall ones per untraced round and then the median
/// over rounds, virtual ones over the rounds' prefixes.
pub fn end_to_end(data: &RunData) -> Metrics {
    // Wall metrics: a statistic per round, then the median over rounds.
    let per_round = |f: &dyn Fn(&[Sample]) -> f64| -> f64 {
        let values: Vec<f64> = data.rounds.iter().map(|r| f(r)).collect();
        stats::median(&values)
    };
    let wall = |r: &[Sample]| -> Vec<f64> { r.iter().map(|s| s.wall_ns as f64).collect() };
    let wall_s = |r: &[Sample]| r.iter().map(|s| s.wall_ns as f64).sum::<f64>() * 1e-9;
    let virt: Vec<f64> = data.prefix().map(|s| s.virt_ns as f64).collect();
    let lat: Vec<f64> = data
        .prefix()
        .flat_map(|s| s.op_latency_ns.iter().map(|&n| n as f64))
        .collect();
    let lat_tail = stats::tail_percentile(lat.len(), 10, 99);
    let mut m = Metrics::new();
    m.insert("setup_s", stats::median(&data.setup_s));
    m.insert("iter_p50_ms", ms(per_round(&|r| stats::median(&wall(r)))));
    m.insert(
        "iter_tail_ms",
        ms(per_round(&|r| {
            stats::percentile(&wall(r), stats::tail_percentile(r.len(), 10, WALL_TAIL_CAP))
        })),
    );
    m.insert(
        "melem_per_s",
        per_round(&|r| r.iter().map(|s| s.elements).sum::<usize>() as f64 / wall_s(r) / 1e6),
    );
    m.insert(
        "jobs_per_s",
        per_round(&|r| r.iter().map(|s| s.ops).sum::<usize>() as f64 / wall_s(r)),
    );
    // Serving ticks and job latencies are sums of the simulator's fixed
    // per-call charges, so their percentiles fall on a few discrete values
    // shared by every seed; a mean varies with the workload's mix.
    m.insert("virtual_ms", ms(stats::mean(&virt)));
    m.insert("virtual_scaling_4v1", data.scaling_4v1);
    m.insert("job_virtual_p50_us", stats::median(&lat) / 1e3);
    m.insert(
        "job_virtual_tail_us",
        stats::mean_from(&lat, lat_tail) / 1e3,
    );
    m.insert("peak_rss_mib", data.peak_rss_mib);
    m
}

/// The per-layer metrics of a traced run (empty without tracing).
pub fn per_layer(data: &RunData) -> Metrics {
    let mut m = Metrics::new();
    let Some(tr) = &data.traced else {
        return m;
    };
    let n = data.traced_warm.len().max(1) as f64;
    let e = &tr.events;
    let c = &tr.counters;
    // Set-up and the cold iteration carry iteration id 0.
    let spans = tr.tracer.stats(|s| s.iter >= 1);
    let span_ms = |names: &[&str]| -> f64 {
        let total_ns: u64 = names
            .iter()
            .filter_map(|k| spans.get(k))
            .map(|s| s.wall_ns)
            .sum();
        ms(total_ns as f64) / n
    };
    let per = |v: f64| v / n;
    let launches = c.launches();

    m.insert("kernel.native_launches", per(c.native as f64));
    m.insert("kernel.batched_launches", per(c.batched as f64));
    m.insert("kernel.scalar_launches", per(c.scalar as f64));
    m.insert("kernel.interp_launches", per(c.interp as f64));
    m.insert(
        "kernel.native_share",
        if launches == 0 {
            0.0
        } else {
            c.native as f64 / launches as f64
        },
    );
    // Set-up costs: over the measured runtime's whole life.
    m.insert(
        "kernel.native_compile_ms",
        ms(tr.lifetime.native_compile_ns as f64),
    );
    m.insert(
        "oclsim.build_virtual_ms",
        ms((tr.lifetime.programs_built as u64 * tr.build_ns_per_program) as f64),
    );
    m.insert("oclsim.write_virtual_ms", ms(per(e.write_ns as f64)));
    m.insert("oclsim.kernel_virtual_ms", ms(per(e.kernel_ns as f64)));
    m.insert("oclsim.read_virtual_ms", ms(per(e.read_ns as f64)));
    m.insert("oclsim.queue_wait_virtual_ms", ms(per(e.wait_ns as f64)));
    m.insert("oclsim.device_idle_virtual_ms", ms(per(e.idle_ns as f64)));
    m.insert("oclsim.write_bytes", per(e.write_bytes as f64));
    m.insert("oclsim.read_bytes", per(e.read_bytes as f64));
    m.insert("oclsim.commands", per(e.commands as f64));
    m.insert("oclsim.kernel_work_items", per(e.work_items as f64));

    let gather_ns = spans.get("to_vec").map_or(0, |s| s.wall_ns);
    m.insert("container.upload_ms", span_ms(&["upload"]));
    m.insert("container.gather_ms", span_ms(&["to_vec"]));
    m.insert(
        "container.gather_gbps",
        if gather_ns == 0 {
            0.0
        } else {
            e.gather_bytes as f64 / gather_ns as f64
        },
    );
    m.insert("container.halo_transfers", per(c.halo_transfers as f64));
    m.insert("container.halo_bytes", per(c.halo_bytes as f64));
    m.insert("container.halo_virtual_ms", ms(per(e.halo_ns as f64)));
    m.insert("container.pool_hits", per(c.pool_hits as f64));

    m.insert("plan.exec_ms", span_ms(&["exec", "scalar"]));
    m.insert("plan.kernels_fused", per(c.kernels_fused as f64));
    m.insert("plan.launches_elided", per(c.launches_elided as f64));
    m.insert(
        "plan.intermediate_bytes_elided",
        per(c.intermediate_bytes_elided as f64),
    );

    m.insert("skeletons.reduce_ms", span_ms(&["scalar"]));
    m.insert("skeletons.scan_ms", span_ms(&["scan"]));
    m.insert("skeletons.map_overlap_ms", span_ms(&["run_iter"]));
    m.insert("skeletons.calls", per(c.skeleton_calls as f64));

    m.insert(
        "runtime.deferred_errors",
        tr.lifetime.deferred_errors as f64,
    );
    m.insert(
        "recovery.replayed_launches",
        tr.lifetime.replayed_launches as f64,
    );

    let submits = ["try_submit_vec", "try_submit_scalar"];
    let submit_count: usize = submits
        .iter()
        .filter_map(|k| spans.get(k))
        .map(|s| s.count)
        .sum();
    m.insert(
        "serving.submit_us",
        if submit_count == 0 {
            0.0
        } else {
            span_ms(&submits) * n * 1e3 / submit_count as f64
        },
    );
    m.insert("serving.flush_ms", span_ms(&["flush"]));
    let (jobs_per_launch, opaque, would_blocks, depth, failed) = match &tr.serving {
        Some((before, after)) => {
            let packed = after.packed_batches - before.packed_batches;
            let opaque = after.opaque_jobs - before.opaque_jobs;
            let jobs = after.jobs_completed - before.jobs_completed;
            (
                if packed == 0 {
                    0.0
                } else {
                    (jobs - opaque) as f64 / packed as f64
                },
                per(opaque as f64),
                after.would_blocks as f64,
                after.max_queue_depth_seen as f64,
                after.jobs_failed as f64,
            )
        }
        None => (0.0, 0.0, 0.0, 0.0, 0.0),
    };
    m.insert("serving.jobs_per_launch", jobs_per_launch);
    m.insert("serving.opaque_jobs", opaque);
    m.insert("serving.would_blocks", would_blocks);
    m.insert("serving.max_queue_depth", depth);
    m.insert("serving.jobs_failed", failed);

    m.insert(
        "error_rate",
        data.failed as f64 / data.attempted.max(1) as f64,
    );
    let refs: Vec<f64> = data.warm().map(|s| s.reference_ns as f64).collect();
    m.insert("reference.iter_ms", ms(stats::median(&refs)));
    let untraced: Vec<f64> = data.warm().map(|s| s.wall_ns as f64).collect();
    let traced: Vec<f64> = data.traced_warm.iter().map(|s| s.wall_ns as f64).collect();
    let traced_p50 = ms(stats::median(&traced));
    m.insert("trace.iter_p50_ms", traced_p50);
    m.insert("host.steal_pct", tr.steal_pct);
    m.insert(
        "trace.overhead_ms",
        traced_p50 - ms(stats::median(&untraced)),
    );

    for &(name, _, _) in PER_LAYER {
        if let Some(span) = name
            .strip_prefix("span.")
            .and_then(|r| r.strip_suffix(".self_ms"))
        {
            let self_ns = spans.get(span).map_or(0, |s| s.self_ns);
            m.insert(name, ms(self_ns as f64) / n);
        }
    }
    m
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the metrics of `registry`. Panics if `metrics` and `registry` differ
/// in names, or a value is not finite.
pub fn result_line(data: &RunData, registry: &[Spec], metrics: &Metrics) -> String {
    let names: Vec<&str> = registry.iter().map(|s| s.0).collect();
    let computed: Vec<&str> = metrics.keys().copied().collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted, computed,
        "computed metrics differ from the registry"
    );
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        data.failed == 0,
        data.attempted,
        data.failed
    );
    for (i, (name, unit, _)) in registry.iter().enumerate() {
        let value = metrics[name];
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// The result line of a run: the per-layer metrics when it was traced, the
/// end-to-end metrics otherwise.
pub fn result(data: &RunData) -> String {
    if data.traced.is_some() {
        result_line(data, PER_LAYER, &per_layer(data))
    } else {
        result_line(data, END_TO_END, &end_to_end(data))
    }
}

/// Human-readable summary printed before the result line.
pub fn summary(name: &str, data: &RunData, e2e: &Metrics, layers: &Metrics) -> String {
    let mut s = String::new();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let c = &data.cfg;
    let ops: usize = data.prefix().map(|s| s.op_latency_ns.len()).sum();
    let warm = data.warm().count();
    let per_round = warm / data.rounds.len().max(1);
    let _ = writeln!(
        s,
        "workload {name}  seed {}  host_cpus {cpus}  sizes: len {} | plate {}x{}, {} sweeps | \
         burst {}, map {}, reduce {}",
        c.seed, c.len, c.rows, c.cols, c.sweeps, c.burst_mean, c.map_len, c.reduce_len
    );
    let _ = writeln!(
        s,
        "samples: {} set-ups; {warm} untraced warm iterations in {} rounds (tail p{}); {} traced; \
         virtual over {} prefix iterations with {ops} operations (job tail from p{}); \
         host CPU stolen {:.1} %",
        data.setup_s.len(),
        data.rounds.len(),
        stats::tail_percentile(per_round, 10, WALL_TAIL_CAP),
        data.traced_warm.len(),
        data.prefix().count(),
        stats::tail_percentile(ops, 10, 99),
        data.steal_pct,
    );
    let refs: Vec<f64> = data.warm().map(|s| s.reference_ns as f64).collect();
    for (k, v) in e2e {
        let _ = write!(s, "  {k:<24} {v:.6}");
        if *k == "iter_p50_ms" && !refs.is_empty() {
            let _ = write!(
                s,
                "   (baseline: host reference {:.6} ms)",
                ms(stats::median(&refs))
            );
        }
        s.push('\n');
    }
    for (k, v) in layers {
        let _ = writeln!(s, "  {k:<34} {v:.6}");
    }
    if let Some(tr) = &data.traced {
        let _ = writeln!(s, "  spans of the traced round, totals in ms:");
        for (k, st) in tr.tracer.stats(|_| true) {
            let _ = writeln!(
                s,
                "    {k:<20} n={:<6} wall {:>12.3}  self {:>12.3}  virtual {:>12.3}",
                st.count,
                ms(st.wall_ns as f64),
                ms(st.self_ns as f64),
                ms(st.virt_ns as f64)
            );
        }
    }
    s
}
