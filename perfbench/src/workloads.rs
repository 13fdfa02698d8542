//! The four benchmark workloads.
//!
//! Every workload splits one iteration into four steps, and the harness
//! times only `run`:
//!
//! 1. `prepare(index)` generates the iteration's inputs from the seed;
//! 2. `reference()` computes the expected outputs single-threaded on the
//!    host (its time is reported as the ungated baseline);
//! 3. `run(tracer)` hands the inputs to the library and collects the
//!    outputs, wrapping each public layer call in a span;
//! 4. `check()` compares the outputs bit for bit with the reference.

use std::sync::Arc;

use skelcl::prelude::*;
use skelcl_serving::{JobHandle, Server, ServingTrace, Session, TenantConfig};

use crate::rng::Rng;
use crate::spans::Tracer;

/// Stream purposes for [`Rng::stream`].
const SIZE_STREAM: u64 = 1;
const INPUT_STREAM: u64 = 2;

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fresh uploads, fused zip∘map, full gather (transfer-bound).
    StreamSaxpy,
    /// Resident inputs, fused map∘zip∘reduce plus a scan (kernel-bound).
    DotScan,
    /// Iterative 5-point MapOverlap with halo exchange.
    HeatStencil,
    /// Multi-tenant serving of small coalesced maps and a few reduces.
    ServingMix,
}

impl Kind {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::StreamSaxpy,
        Kind::DotScan,
        Kind::HeatStencil,
        Kind::ServingMix,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::StreamSaxpy => "stream_saxpy",
            Kind::DotScan => "dot_scan",
            Kind::HeatStencil => "heat_stencil",
            Kind::ServingMix => "serving_mix",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Warm iterations every run measures at least, over all its rounds,
    /// whatever `--seconds` says. The virtual end-to-end metrics cover
    /// exactly these, so they repeat bit for bit for one seed however fast
    /// the host is.
    pub fn min_iters(self) -> usize {
        match self {
            Kind::StreamSaxpy => 32,
            Kind::DotScan => 16,
            Kind::HeatStencil => 8,
            // Ticks vary in content; enough of them for steady statistics.
            Kind::ServingMix => 1000,
        }
    }
}

/// Problem sizes, drawn from the seed. Sizes vary by up to ~3 % between
/// seeds so that virtual times differ from seed to seed while staying
/// bit-identical for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// The run's seed.
    pub seed: u64,
    /// The round of the run the inputs are for.
    pub round: u64,
    /// Vector length (stream_saxpy, dot_scan).
    pub len: usize,
    /// Matrix rows (heat_stencil).
    pub rows: usize,
    /// Matrix columns (heat_stencil).
    pub cols: usize,
    /// Stencil sweeps per call (heat_stencil).
    pub sweeps: usize,
    /// Mean jobs per tick (serving_mix).
    pub burst_mean: f64,
    /// Elements per map job (serving_mix).
    pub map_len: usize,
    /// Elements per reduce job (serving_mix).
    pub reduce_len: usize,
    /// Share of reduce jobs (serving_mix).
    pub reduce_share: f64,
}

impl Config {
    /// Sizes for `seed`; `smoke` shrinks every problem for fast tests.
    pub fn new(seed: u64, smoke: bool) -> Config {
        let mut rng = Rng::stream(seed, SIZE_STREAM, 0);
        let (len, rows, cols, sweeps, reduce_len) = if smoke {
            (
                4096 + 64 * rng.below(65) as usize,
                32 + rng.below(2) as usize,
                32,
                4,
                1024 + 16 * rng.below(65) as usize,
            )
        } else {
            (
                (1 << 20) + 64 * rng.below(513) as usize,
                256 + rng.below(9) as usize,
                256,
                16,
                (1 << 16) + 64 * rng.below(33) as usize,
            )
        };
        Config {
            seed,
            round: 0,
            len,
            rows,
            cols,
            sweeps,
            burst_mean: if smoke { 12.0 } else { 48.0 },
            map_len: 64,
            reduce_len,
            reduce_share: 0.03,
        }
    }

    /// The input stream of iteration `index` of this config's round.
    fn inputs(&self, index: u64) -> Rng {
        Rng::stream(self.seed, INPUT_STREAM, self.round << 32 | index)
    }
}

/// What one iteration's `run` produced.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// User-visible operations completed (skeleton calls or served jobs).
    pub ops: usize,
    /// Elements processed.
    pub elements: usize,
    /// Virtual latency of each completed operation, nanoseconds.
    pub op_latency_ns: Vec<u64>,
}

/// Outcome of comparing one iteration with the host reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    /// Operations compared.
    pub attempted: usize,
    /// Operations whose output differs from the reference.
    pub mismatched: usize,
}

/// One workload, built on one runtime.
pub trait Workload {
    /// Generate the inputs of iteration `index` of the round (0 = the cold
    /// iteration).
    fn prepare(&mut self, index: u64);
    /// Compute the expected outputs on the host.
    fn reference(&mut self);
    /// Run the iteration through the library.
    fn run(&mut self, tracer: &mut Tracer) -> skelcl::Result<RunOutcome>;
    /// Compare the outputs of the last `run` with the reference; a refused
    /// or failed operation counts as a mismatch.
    fn check(&mut self) -> Check;
    /// Serving-layer statistics, for the serving workload.
    fn serving_trace(&self) -> Option<ServingTrace> {
        None
    }
}

/// Construct the skeletons (and, for serving, the server) of `kind` on
/// `runtime`. Each `round` of a run draws its own inputs.
pub fn build(kind: Kind, runtime: &Arc<SkelCl>, cfg: &Config, round: u64) -> Box<dyn Workload> {
    let cfg = Config {
        round,
        ..cfg.clone()
    };
    match kind {
        Kind::StreamSaxpy => Box::new(StreamSaxpy::new(runtime, &cfg)),
        Kind::DotScan => Box::new(DotScan::new(runtime, &cfg)),
        Kind::HeatStencil => Box::new(HeatStencil::new(runtime, &cfg)),
        Kind::ServingMix => Box::new(ServingMix::new(runtime, &cfg)),
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn virt_since(rt: &SkelCl, start: oclsim::SimTime) -> u64 {
    (rt.now() - start).as_nanos()
}

// ---------------------------------------------------------------------------
// stream_saxpy
// ---------------------------------------------------------------------------

const SAXPY: &str = "float func(float x, float y, float a) { return a * x + y; }";
const SAXPY_POST: &str = "float func(float v) { return v * v + 1.0f; }";

fn saxpy_post(v: f32) -> f32 {
    v * v + 1.0
}

/// Listing 1 of the paper on fresh host data every iteration.
struct StreamSaxpy {
    rt: Arc<SkelCl>,
    cfg: Config,
    saxpy: Zip<f32, f32, f32>,
    post: Map<f32, f32>,
    x: Vec<f32>,
    y: Vec<f32>,
    a: f32,
    expected: Vec<f32>,
    out: Vec<f32>,
}

impl StreamSaxpy {
    fn new(rt: &Arc<SkelCl>, cfg: &Config) -> Self {
        StreamSaxpy {
            rt: rt.clone(),
            cfg: cfg.clone(),
            saxpy: Zip::from_source(SAXPY),
            post: Map::from_source(SAXPY_POST),
            x: Vec::new(),
            y: Vec::new(),
            a: 0.0,
            expected: Vec::new(),
            out: Vec::new(),
        }
    }
}

impl Workload for StreamSaxpy {
    fn prepare(&mut self, index: u64) {
        let mut rng = self.cfg.inputs(index);
        self.a = rng.signed_f32() * 4.0;
        self.x = (0..self.cfg.len).map(|_| rng.signed_f32()).collect();
        self.y = (0..self.cfg.len).map(|_| rng.signed_f32()).collect();
    }

    fn reference(&mut self) {
        let a = self.a;
        self.expected = self
            .x
            .iter()
            .zip(&self.y)
            .map(|(&x, &y)| saxpy_post(a * x + y))
            .collect();
    }

    fn run(&mut self, t: &mut Tracer) -> skelcl::Result<RunOutcome> {
        let start = self.rt.now();
        let (x, y) = t.span("upload", |_| -> skelcl::Result<_> {
            let x = Vector::from_vec(&self.rt, std::mem::take(&mut self.x));
            let y = Vector::from_vec(&self.rt, std::mem::take(&mut self.y));
            x.copy_data_to_devices()?;
            y.copy_data_to_devices()?;
            Ok((x, y))
        })?;
        let plan = x
            .lazy()
            .zip_with(&y, &self.saxpy, args!(self.a))
            .map(&self.post);
        let result = t.span("exec", |_| plan.exec())?;
        self.out = t.span("to_vec", |_| result.to_vec())?;
        Ok(RunOutcome {
            ops: 1,
            elements: self.cfg.len,
            op_latency_ns: vec![virt_since(&self.rt, start)],
        })
    }

    fn check(&mut self) -> Check {
        Check {
            attempted: 1,
            mismatched: usize::from(!same_bits(&self.out, &self.expected)),
        }
    }
}

// ---------------------------------------------------------------------------
// dot_scan
// ---------------------------------------------------------------------------

const HALF: &str = "float func(float x) { return 0.5f * x; }";
const MUL: &str = "float func(float x, float y) { return x * y; }";
const ADD: &str = "float func(float a, float b) { return a + b; }";

/// A fused dot product and a prefix sum over two resident vectors.
struct DotScan {
    rt: Arc<SkelCl>,
    cfg: Config,
    half: Map<f32, f32>,
    mul: Zip<f32, f32, f32>,
    sum: Reduce<f32>,
    scan: Scan<f32>,
    host: Option<(Vec<f32>, Vec<f32>)>,
    resident: Option<(Vector<f32>, Vector<f32>)>,
    expected: (f32, Vec<f32>),
    out: (f32, Vec<f32>),
}

impl DotScan {
    fn new(rt: &Arc<SkelCl>, cfg: &Config) -> Self {
        DotScan {
            rt: rt.clone(),
            cfg: cfg.clone(),
            half: Map::from_source(HALF),
            mul: Zip::from_source(MUL),
            sum: Reduce::from_source(ADD),
            scan: Scan::from_source(ADD),
            host: None,
            resident: None,
            expected: (0.0, Vec::new()),
            out: (0.0, Vec::new()),
        }
    }
}

impl Workload for DotScan {
    fn prepare(&mut self, index: u64) {
        // The inputs are generated once and stay resident afterwards.
        if index == 0 {
            let mut rng = self.cfg.inputs(0);
            let x = (0..self.cfg.len).map(|_| rng.small_int_f32()).collect();
            let y = (0..self.cfg.len).map(|_| rng.small_int_f32()).collect();
            self.host = Some((x, y));
        }
    }

    fn reference(&mut self) {
        let (x, y) = self.host.as_ref().expect("inputs prepared");
        // Integer-valued inputs: every partial sum is exact, so the host's
        // sequential order gives the same bits as any device order.
        let dot = x.iter().zip(y).map(|(&a, &b)| 0.5 * a * b).sum();
        let mut acc = 0.0f32;
        let prefix = x
            .iter()
            .map(|&v| {
                acc += v;
                acc
            })
            .collect();
        self.expected = (dot, prefix);
    }

    fn run(&mut self, t: &mut Tracer) -> skelcl::Result<RunOutcome> {
        if self.resident.is_none() {
            let (x, y) = self.host.clone().expect("inputs prepared");
            let resident = t.span("upload", |_| -> skelcl::Result<_> {
                let x = Vector::from_vec(&self.rt, x);
                let y = Vector::from_vec(&self.rt, y);
                x.copy_data_to_devices()?;
                y.copy_data_to_devices()?;
                Ok((x, y))
            })?;
            self.resident = Some(resident);
        }
        let (x, y) = self.resident.as_ref().expect("resident inputs");
        let start = self.rt.now();
        let plan = x.lazy().map(&self.half).zip(y, &self.mul).reduce(&self.sum);
        let dot = t.span("scalar", |_| plan.scalar())?;
        let dot_ns = virt_since(&self.rt, start);
        let start = self.rt.now();
        let prefix = t.span("scan", |_| self.scan.run(x).exec())?;
        let prefix = t.span("to_vec", |_| prefix.to_vec())?;
        let scan_ns = virt_since(&self.rt, start);
        self.out = (dot, prefix);
        Ok(RunOutcome {
            ops: 2,
            elements: 2 * self.cfg.len,
            op_latency_ns: vec![dot_ns, scan_ns],
        })
    }

    fn check(&mut self) -> Check {
        let dot_bad = self.out.0.to_bits() != self.expected.0.to_bits();
        let scan_bad = !same_bits(&self.out.1, &self.expected.1);
        Check {
            attempted: 2,
            mismatched: usize::from(dot_bad) + usize::from(scan_bad),
        }
    }
}

// ---------------------------------------------------------------------------
// heat_stencil
// ---------------------------------------------------------------------------

const HEAT_STEP: &str = r#"
    float func(float u, float alpha) {
        return u + alpha * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u);
    }
"#;
const ALPHA: f32 = 0.2;

/// One host sweep of [`HEAT_STEP`] with a clamped boundary.
fn heat_sweep(u: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let at = |r: isize, c: isize| {
        let r = r.clamp(0, rows as isize - 1) as usize;
        let c = c.clamp(0, cols as isize - 1) as usize;
        u[r * cols + c]
    };
    let mut out = Vec::with_capacity(u.len());
    for r in 0..rows as isize {
        for c in 0..cols as isize {
            let v = at(r, c);
            // get(dx, dy) is (column offset, row offset); the sum keeps the
            // kernel's left-to-right order so the result matches bit for bit.
            let neighbours = at(r - 1, c) + at(r + 1, c) + at(r, c - 1) + at(r, c + 1);
            out.push(v + ALPHA * (neighbours - 4.0 * v));
        }
    }
    out
}

/// Upload, `run_iter(sweeps)` and gather of a fresh plate per call.
struct HeatStencil {
    rt: Arc<SkelCl>,
    cfg: Config,
    step: MapOverlap<f32, f32>,
    plate: Vec<f32>,
    expected: Vec<f32>,
    out: Vec<f32>,
}

impl HeatStencil {
    fn new(rt: &Arc<SkelCl>, cfg: &Config) -> Self {
        HeatStencil {
            rt: rt.clone(),
            cfg: cfg.clone(),
            step: MapOverlap::from_source(HEAT_STEP)
                .with_halo(1)
                .with_boundary(Boundary::Clamp),
            plate: Vec::new(),
            expected: Vec::new(),
            out: Vec::new(),
        }
    }
}

impl Workload for HeatStencil {
    fn prepare(&mut self, index: u64) {
        let mut rng = self.cfg.inputs(index);
        self.plate = (0..self.cfg.rows * self.cfg.cols)
            .map(|_| rng.unit() as f32 * 100.0)
            .collect();
    }

    fn reference(&mut self) {
        let mut u = self.plate.clone();
        for _ in 0..self.cfg.sweeps {
            u = heat_sweep(&u, self.cfg.rows, self.cfg.cols);
        }
        self.expected = u;
    }

    fn run(&mut self, t: &mut Tracer) -> skelcl::Result<RunOutcome> {
        let start = self.rt.now();
        let plate = Matrix::from_vec(
            &self.rt,
            self.cfg.rows,
            self.cfg.cols,
            std::mem::take(&mut self.plate),
        )?;
        let sweeps = self.cfg.sweeps;
        let result = t.span("run_iter", |_| {
            self.step.run(&plate).arg(ALPHA).run_iter(sweeps)
        })?;
        self.out = t.span("to_vec", |_| result.to_vec())?;
        Ok(RunOutcome {
            ops: 1,
            elements: self.cfg.rows * self.cfg.cols * sweeps,
            op_latency_ns: vec![virt_since(&self.rt, start)],
        })
    }

    fn check(&mut self) -> Check {
        Check {
            attempted: 1,
            mismatched: usize::from(!same_bits(&self.out, &self.expected)),
        }
    }
}

// ---------------------------------------------------------------------------
// serving_mix
// ---------------------------------------------------------------------------

const TENANTS: [&str; 4] = ["t1", "t2", "t3", "t4"];
const SESSIONS_PER_TENANT: usize = 2;
const MAP_A: &str = "float func(float x) { return 2.0f * x + 0.5f; }";
const MAP_B: &str = "float func(float x) { return x * x - 1.0f; }";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    MapA,
    MapB,
    Reduce,
}

enum Pending {
    Vec(JobHandle<Vec<f32>>),
    Scalar(JobHandle<f32>),
}

/// Poisson bursts of jobs from four weighted tenants, one flush per tick.
///
/// The maps split 3:1 between a popular and a rarer kernel. Each kernel's
/// jobs of a tick coalesce into one packed launch, and the launch
/// dispatched second finishes about 27 µs later in virtual time; with an
/// even split the median job latency sat on the boundary between the two
/// launches and jumped between 44 and 70 µs from seed to seed.
struct ServingMix {
    rt: Arc<SkelCl>,
    cfg: Config,
    server: Server,
    sessions: Vec<Session>,
    map_a: Map<f32, f32>,
    map_b: Map<f32, f32>,
    sum: Reduce<f32>,
    jobs: Vec<(JobKind, Vec<f32>)>,
    expected: Vec<Vec<f32>>,
    out: Vec<Option<Vec<f32>>>,
}

impl ServingMix {
    fn new(rt: &Arc<SkelCl>, cfg: &Config) -> Self {
        let server = Server::new(rt.clone());
        for (i, tenant) in TENANTS.iter().enumerate() {
            server
                .add_tenant(tenant, TenantConfig::weighted(i as u32 + 1))
                .expect("fresh server accepts the tenant");
        }
        let sessions = (0..SESSIONS_PER_TENANT)
            .flat_map(|_| TENANTS.iter())
            .map(|t| server.session(t).expect("registered tenant"))
            .collect();
        ServingMix {
            rt: rt.clone(),
            cfg: cfg.clone(),
            server,
            sessions,
            map_a: Map::from_source(MAP_A),
            map_b: Map::from_source(MAP_B),
            sum: Reduce::from_source(ADD),
            jobs: Vec::new(),
            expected: Vec::new(),
            out: Vec::new(),
        }
    }
}

impl Workload for ServingMix {
    fn prepare(&mut self, index: u64) {
        let mut rng = self.cfg.inputs(index);
        let kinds: Vec<JobKind> = if index == 0 {
            // The cold tick is one job of every kind: every kernel is built
            // during set-up, and set-up does the same work for every seed.
            vec![JobKind::MapA, JobKind::MapB, JobKind::Reduce]
        } else {
            // At least one job per tick, so every tick has a latency sample.
            let burst = rng.poisson(self.cfg.burst_mean).max(1);
            (0..burst)
                .map(|_| {
                    if rng.unit() < self.cfg.reduce_share {
                        JobKind::Reduce
                    } else if rng.below(4) < 3 {
                        JobKind::MapA
                    } else {
                        JobKind::MapB
                    }
                })
                .collect()
        };
        self.jobs = kinds
            .into_iter()
            .map(|kind| {
                let data = match kind {
                    JobKind::Reduce => (0..self.cfg.reduce_len)
                        .map(|_| rng.small_int_f32())
                        .collect(),
                    _ => (0..self.cfg.map_len).map(|_| rng.signed_f32()).collect(),
                };
                (kind, data)
            })
            .collect();
    }

    fn reference(&mut self) {
        self.expected = self
            .jobs
            .iter()
            .map(|(kind, data)| match kind {
                JobKind::MapA => data.iter().map(|&x| 2.0 * x + 0.5).collect(),
                JobKind::MapB => data.iter().map(|&x| x * x - 1.0).collect(),
                JobKind::Reduce => vec![data.iter().sum()],
            })
            .collect();
    }

    fn run(&mut self, t: &mut Tracer) -> skelcl::Result<RunOutcome> {
        let jobs = std::mem::take(&mut self.jobs);
        let mut outcome = RunOutcome::default();
        let mut pending = Vec::with_capacity(jobs.len());
        for (i, (kind, data)) in jobs.into_iter().enumerate() {
            outcome.elements += data.len();
            let session = &self.sessions[i % self.sessions.len()];
            let input = Vector::from_vec(&self.rt, data);
            let submitted = match kind {
                JobKind::Reduce => {
                    let plan = input.lazy().reduce(&self.sum);
                    t.span("try_submit_scalar", |_| session.try_submit_scalar(&plan))
                        .map(Pending::Scalar)
                }
                JobKind::MapA | JobKind::MapB => {
                    let map = if kind == JobKind::MapA {
                        &self.map_a
                    } else {
                        &self.map_b
                    };
                    let plan = input.lazy().map(map);
                    t.span("try_submit_vec", |_| session.try_submit_vec(&plan))
                        .map(Pending::Vec)
                }
            };
            pending.push(submitted.ok());
        }
        t.span("flush", |_| self.server.flush());
        self.out = t.span("wait", |_| {
            pending
                .into_iter()
                .map(|job| {
                    let (out, report) = match job? {
                        Pending::Vec(h) => h.wait().ok()?,
                        Pending::Scalar(h) => h.wait().map(|(v, r)| (vec![v], r)).ok()?,
                    };
                    outcome.op_latency_ns.push(report.latency().as_nanos());
                    Some(out)
                })
                .collect()
        });
        outcome.ops = outcome.op_latency_ns.len();
        Ok(outcome)
    }

    fn check(&mut self) -> Check {
        let mismatched = self
            .out
            .iter()
            .zip(&self.expected)
            .filter(|(out, want)| !out.as_ref().is_some_and(|o| same_bits(o, want)))
            .count();
        Check {
            attempted: self.expected.len(),
            mismatched,
        }
    }

    fn serving_trace(&self) -> Option<ServingTrace> {
        Some(self.server.trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_heat_sweep_clamps_at_the_border() {
        let u = vec![1.0f32; 9];
        assert_eq!(heat_sweep(&u, 3, 3), u);
    }

    #[test]
    fn sizes_depend_on_the_seed_only() {
        assert_eq!(Config::new(5, false), Config::new(5, false));
        let lens: std::collections::BTreeSet<usize> =
            (0..16).map(|s| Config::new(s, false).len).collect();
        assert!(lens.len() > 1);
        assert!(lens
            .iter()
            .all(|&n| (1 << 20..=(1 << 20) + 64 * 512).contains(&n)));
    }
}
