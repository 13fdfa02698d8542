//! The measurement loop.
//!
//! A run is [`ROUNDS`] rounds, each on a fresh runtime: a cold set-up, then
//! warm iterations for an equal share of the time budget. Wall metrics are
//! medians over the rounds of per-round statistics: that averages out
//! per-runtime effects, such as where the device worker threads land on the
//! host's CPUs, which moved a single-runtime run's wall figures by 10–20 %,
//! and ignores host slowdowns that cover fewer than half of the rounds.
//! Every round starts with a
//! fixed number of warm iterations (its prefix); the virtual metrics cover
//! exactly the prefixes, so they repeat bit for bit however fast the host
//! is. A 1-device replay of round 0's prefix gives the scaling ratio. With
//! tracing, one more round replays round 0's inputs with spans and event
//! accounting on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use skelcl::{ExecTrace, SkelCl};
use skelcl_serving::ServingTrace;

use crate::layers::{self, Counters, EventTotals, Window};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{self, Config, Kind, Workload};

/// Simulated Tesla S1070 GPUs every workload runs on.
pub const DEVICES: usize = 4;

/// Rounds per run; `setup_s` is the median of their set-ups.
pub const ROUNDS: usize = 9;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seed for every generated input and size.
    pub seed: u64,
    /// Measurement budget in seconds (split evenly between the untraced
    /// rounds and the traced round when tracing).
    pub seconds: f64,
    /// Whether to add the traced round.
    pub trace: bool,
    /// Shrink every problem (tests).
    pub smoke: bool,
    /// Measure exactly this many warm iterations per round instead of a
    /// time budget.
    pub iters: Option<usize>,
}

impl Options {
    /// A small, fixed-length run for tests: smoke-sized problems and
    /// exactly `iters` warm iterations per round.
    pub fn smoke(kind: Kind, seed: u64, trace: bool, iters: usize) -> Options {
        Options {
            kind,
            seed,
            seconds: 0.0,
            trace,
            smoke: true,
            iters: Some(iters),
        }
    }
}

/// One iteration's measurements.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Iteration index within its round (0 = cold).
    pub index: u64,
    /// Wall time of the library calls, nanoseconds.
    pub wall_ns: u64,
    /// Virtual time of the iteration, nanoseconds.
    pub virt_ns: u64,
    /// Wall time of the host reference, nanoseconds.
    pub reference_ns: u64,
    /// Operations completed.
    pub ops: usize,
    /// Elements processed.
    pub elements: usize,
    /// Virtual latency of every completed operation, nanoseconds.
    pub op_latency_ns: Vec<u64>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed, refused or wrong.
    pub failed: usize,
}

/// Everything the traced round measured.
#[derive(Debug)]
pub struct Traced {
    /// Event totals over the traced warm iterations.
    pub events: EventTotals,
    /// Counter deltas over the traced warm iterations.
    pub counters: Counters,
    /// Counters over the traced runtime's whole life (set-up included).
    pub lifetime: Counters,
    /// Virtual time charged per program build, nanoseconds.
    pub build_ns_per_program: u64,
    /// Serving statistics at the start and end of the traced warm phase.
    pub serving: Option<(ServingTrace, ServingTrace)>,
    /// Host CPU time stolen during the traced warm phase, in percent.
    pub steal_pct: f64,
    /// The span recorder: the traced set-up and warm iterations.
    pub tracer: Tracer,
}

/// The raw result of one run.
#[derive(Debug)]
pub struct RunData {
    /// The problem sizes.
    pub cfg: Config,
    /// Wall seconds of each round's cold set-up.
    pub setup_s: Vec<f64>,
    /// Untraced warm iterations, round by round.
    pub rounds: Vec<Vec<Sample>>,
    /// Prefix length of one round.
    pub prefix_len: usize,
    /// Traced warm iterations (empty without tracing). They replay round
    /// 0's inputs, so their prefix must match round 0's in virtual time.
    pub traced_warm: Vec<Sample>,
    /// Peak RSS after round 0's set-up and prefix.
    pub peak_rss_mib: f64,
    /// 1-device over 4-device virtual time of round 0's prefix.
    pub scaling_4v1: f64,
    /// Operations attempted over the whole run.
    pub attempted: usize,
    /// Operations failed over the whole run.
    pub failed: usize,
    /// Traced-round data, when tracing.
    pub traced: Option<Traced>,
    /// Share of host CPU time the hypervisor stole during the untraced
    /// rounds, in percent. Wall figures of thread-handoff-heavy workloads
    /// rise with it.
    pub steal_pct: f64,
}

impl RunData {
    /// Untraced warm iterations of all rounds.
    pub fn warm(&self) -> impl Iterator<Item = &Sample> {
        self.rounds.iter().flatten()
    }

    /// The prefix iterations of every round, round by round.
    pub fn prefix(&self) -> impl Iterator<Item = &Sample> {
        self.rounds.iter().flat_map(|r| &r[..self.prefix_len])
    }
}

/// Run one iteration: generate inputs and the reference (untimed), run the
/// library calls inside an `iteration` span that ends with a device sync
/// (timed), then check the outputs (untimed).
fn iterate(w: &mut dyn Workload, rt: &Arc<SkelCl>, t: &mut Tracer, index: u64) -> Sample {
    w.prepare(index);
    let r0 = Instant::now();
    w.reference();
    let reference_ns = r0.elapsed().as_nanos() as u64;
    t.set_iter(index);
    let v0 = rt.now();
    let t0 = Instant::now();
    let outcome = t.span("iteration", |t| {
        let out = w.run(t);
        rt.finish_all();
        out
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let virt_ns = (rt.now() - v0).as_nanos();
    let deferred = rt.take_deferred_errors();
    for (device, e) in &deferred {
        eprintln!("iteration {index}: deferred error on device {device}: {e}");
    }
    let mut sample = Sample {
        index,
        wall_ns,
        virt_ns,
        reference_ns,
        ..Sample::default()
    };
    match outcome {
        Ok(o) => {
            let check = w.check();
            sample.ops = o.ops;
            sample.elements = o.elements;
            sample.op_latency_ns = o.op_latency_ns;
            sample.attempted = check.attempted;
            sample.failed = check.mismatched + deferred.len();
        }
        Err(e) => {
            eprintln!("iteration {index} failed: {e}");
            sample.attempted = 1;
            sample.failed = 1;
        }
    }
    sample
}

/// One round's runtime after set-up.
struct Round {
    rt: Arc<SkelCl>,
    w: Box<dyn Workload>,
    /// Init, skeleton construction and the cold iteration, wall seconds.
    setup_s: f64,
    cold: Sample,
}

fn setup(kind: Kind, cfg: &Config, round: u64, devices: usize, t: &mut Tracer) -> Round {
    t.detach();
    t.set_iter(0);
    let t0 = Instant::now();
    let (rt, mut w) = t.span("setup", |t| {
        let rt = t.span("init", |_| skelcl::init_gpus(devices));
        t.attach(&rt);
        let w = t.span("skeletons", |_| workloads::build(kind, &rt, cfg, round));
        (rt, w)
    });
    let init_s = t0.elapsed().as_secs_f64();
    let cold = iterate(&mut *w, &rt, t, 0);
    Round {
        setup_s: init_s + cold.wall_ns as f64 * 1e-9,
        rt,
        w,
        cold,
    }
}

/// Warm iterations 1, 2, … of a round: exactly `count` if given, otherwise
/// until `budget` has passed and at least `min` ran. `after` sees each
/// sample with the index of its first span.
fn warm_phase(
    r: &mut Round,
    t: &mut Tracer,
    count: Option<usize>,
    min: usize,
    budget: Duration,
    mut after: impl FnMut(&Sample, &mut Tracer, usize),
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let done = match count {
            Some(n) => samples.len() >= n,
            None => samples.len() >= min && start.elapsed() >= budget,
        };
        if done {
            return samples;
        }
        let first_span = t.spans().len();
        let sample = iterate(&mut *r.w, &r.rt, t, samples.len() as u64 + 1);
        after(&sample, t, first_span);
        samples.push(sample);
    }
}

fn virtual_build_time(rt: &SkelCl) -> u64 {
    rt.context()
        .devices()
        .iter()
        .map(|d| d.profile.program_build_time.as_nanos())
        .max()
        .unwrap_or(0)
}

/// Windows of the spans called `name` among `t.spans()[from..]`.
fn windows(t: &Tracer, from: usize, name: &str) -> Vec<Window> {
    t.spans()[from..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.virt_start, s.virt_end))
        .collect()
}

/// The traced round: round 0's inputs again, with spans recorded and the
/// events of every warm iteration drained and reconciled.
fn traced_round(
    kind: Kind,
    cfg: &Config,
    count: Option<usize>,
    min: usize,
    budget: Duration,
) -> Result<(Sample, Vec<Sample>, Traced), String> {
    let mut tracer = Tracer::new(true);
    let mut r = setup(kind, cfg, 0, DEVICES, &mut tracer);
    r.rt.drain_events();
    let ticks = stats::cpu_ticks();
    let before = r.rt.exec_trace();
    let serving_before = r.w.serving_trace();
    let mut events = EventTotals::default();
    let mut error = None;
    let rt = r.rt.clone();
    let samples = warm_phase(&mut r, &mut tracer, count, min, budget, |s, t, first| {
        let drained = rt.drain_events();
        let iteration = &t.spans()[first];
        match layers::account(
            &drained,
            (iteration.virt_start, iteration.virt_end),
            &windows(t, first, "run_iter"),
            &windows(t, first, "to_vec"),
        ) {
            Ok(totals) => events.add(&totals),
            Err(e) => {
                error.get_or_insert(format!("iteration {}: {e}", s.index));
            }
        }
    });
    if let Some(e) = error {
        return Err(format!("layer reconciliation failed: {e}"));
    }
    tracer
        .reconcile()
        .map_err(|e| format!("span reconciliation failed: {e}"))?;
    let after = r.rt.exec_trace();
    let traced = Traced {
        events,
        counters: Counters::between(&before, &after),
        lifetime: Counters::between(&ExecTrace::default(), &after),
        build_ns_per_program: virtual_build_time(&r.rt),
        serving: serving_before.zip(r.w.serving_trace()),
        steal_pct: stats::steal_pct(ticks, stats::cpu_ticks()),
        tracer,
    };
    Ok((r.cold, samples, traced))
}

/// Do one run. Errors are reconciliation failures: the layer accounts or
/// the span tree do not add up.
pub fn run(opts: &Options) -> Result<RunData, String> {
    let kind = opts.kind;
    let cfg = Config::new(opts.seed, opts.smoke);
    let prefix_len = opts
        .iters
        .unwrap_or_else(|| kind.min_iters().div_ceil(ROUNDS));
    let budget = Duration::from_secs_f64(opts.seconds);
    let untraced_budget = if opts.trace { budget / 2 } else { budget };
    let mut tracer = Tracer::new(false);
    let mut data = RunData {
        cfg: cfg.clone(),
        setup_s: Vec::with_capacity(ROUNDS),
        rounds: Vec::with_capacity(ROUNDS),
        prefix_len,
        traced_warm: Vec::new(),
        peak_rss_mib: 0.0,
        scaling_4v1: 0.0,
        attempted: 0,
        failed: 0,
        traced: None,
        steal_pct: 0.0,
    };

    let ticks = stats::cpu_ticks();
    for round in 0..ROUNDS as u64 {
        let mut r = setup(kind, &cfg, round, DEVICES, &mut tracer);
        data.setup_s.push(r.setup_s);
        data.attempted += r.cold.attempted;
        data.failed += r.cold.failed;
        // Peak RSS is read after a fixed amount of work, so a faster
        // program is not charged for the iterations it fits in.
        let mut rss = None;
        let samples = warm_phase(
            &mut r,
            &mut tracer,
            opts.iters,
            prefix_len,
            untraced_budget / ROUNDS as u32,
            |s, _, _| {
                if s.index == prefix_len as u64 {
                    rss = Some(stats::peak_rss_mib());
                }
            },
        );
        if round == 0 {
            data.peak_rss_mib = rss.unwrap_or_else(stats::peak_rss_mib);
        }
        data.rounds.push(samples);
    }
    data.steal_pct = stats::steal_pct(ticks, stats::cpu_ticks());

    if opts.trace {
        let (cold, samples, traced) =
            traced_round(kind, &cfg, opts.iters, prefix_len, budget - untraced_budget)?;
        data.attempted += cold.attempted;
        data.failed += cold.failed;
        data.traced_warm = samples;
        data.traced = Some(traced);
    }

    // The 1-device replay of round 0's prefix.
    let mut one = setup(kind, &cfg, 0, 1, &mut tracer);
    data.attempted += one.cold.attempted;
    data.failed += one.cold.failed;
    let replay = warm_phase(
        &mut one,
        &mut tracer,
        Some(prefix_len),
        0,
        Duration::ZERO,
        |_, _, _| {},
    );
    let one_ns: u64 = replay.iter().map(|s| s.virt_ns).sum();
    let four_ns: u64 = data.rounds[0][..prefix_len].iter().map(|s| s.virt_ns).sum();
    data.scaling_4v1 = one_ns as f64 / four_ns.max(1) as f64;

    let (attempted, failed) = replay
        .iter()
        .chain(data.warm())
        .chain(&data.traced_warm)
        .fold((0, 0), |(a, f), s| (a + s.attempted, f + s.failed));
    data.attempted += attempted;
    data.failed += failed;
    Ok(data)
}
