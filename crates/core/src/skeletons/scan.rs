//! The scan skeleton: inclusive prefix combination,
//! `scan(⊕)([x1..xn]) = [x1, x1⊕x2, ..., x1⊕...⊕xn]`.
//!
//! Multi-GPU execution (paper, Section III-C and Figure 2):
//! 1. every GPU runs a local scan of its part,
//! 2. the per-part totals are downloaded to the host,
//! 3. for every GPU except the first, a map skeleton is created implicitly
//!    that combines the totals of its predecessors with every element of its
//!    part,
//! 4. these map kernels compute the final result on the devices.
//!
//! The output vector is block-distributed.

use std::sync::Arc;

use parking_lot::Mutex;

use oclsim::{CostHint, KernelArg, NativeKernelDef, Program, Value};

use crate::container::Container;
use crate::error::{Result, SkelError};
use crate::kernelgen::{self, UdfInfo};
use crate::skeletons::{
    sequential_cost, DeviceScalar, HostFold, Launch, LaunchConfig, PreparedCall, Skeleton, UdfCache,
};
use crate::vector::Vector;

enum ScanUdf<T> {
    Source(String),
    Native(Arc<dyn Fn(T, T) -> T + Send + Sync>),
}

struct BuiltSource {
    scan_kernel: oclsim::Kernel,
    offset_kernel: oclsim::Kernel,
    per_element_cost: CostHint,
}

/// Intermediate state of one multi-device scan: exposed so that tests and the
/// Figure 2 example can show the per-stage values exactly as the paper does.
/// Produced by the `trace` terminal form:
/// `scan.run(&v).trace()?`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanTrace<T> {
    /// The local (per-device) scan results before offsets are applied —
    /// the second row of Figure 2.
    pub local_scans: Vec<Vec<T>>,
    /// The offset combined into each device's part (`None` for the first
    /// device) — the values marked in Figure 2.
    pub offsets: Vec<Option<T>>,
}

/// The scan (prefix) skeleton.
///
/// ```
/// use skelcl::prelude::*;
///
/// let rt = skelcl::init_gpus(4);
/// let prefix_sum = Scan::<f32>::from_source("float func(float a, float b) { return a + b; }");
/// let v = Vector::from_vec(&rt, (1..=16).map(|i| i as f32).collect());
/// let out = v.scan(&prefix_sum).unwrap();
/// assert_eq!(out.to_vec().unwrap().last().copied(), Some(136.0));
/// ```
pub struct Scan<T: DeviceScalar> {
    udf: ScanUdf<T>,
    cost: CostHint,
    cache: UdfCache,
    built: Mutex<Option<Arc<BuiltSource>>>,
}

impl<T: DeviceScalar> Scan<T> {
    /// Customise the skeleton with a binary operator given as source code.
    pub fn from_source(source: &str) -> Scan<T> {
        Scan {
            udf: ScanUdf::Source(source.to_string()),
            cost: CostHint::DEFAULT,
            cache: UdfCache::new(),
            built: Mutex::new(None),
        }
    }

    /// Customise the skeleton with a native binary operator.
    pub fn new<F>(f: F) -> Scan<T>
    where
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        Scan {
            udf: ScanUdf::Native(Arc::new(f)),
            cost: CostHint::DEFAULT,
            cache: UdfCache::new(),
            built: Mutex::new(None),
        }
    }

    /// Override the per-element cost hint (native operators).
    pub fn with_cost(mut self, cost: CostHint) -> Self {
        self.cost = cost;
        self
    }

    /// Begin a launch of this skeleton over `input`:
    /// `scan.run(&v).exec()?` or `scan.run(&v).trace()?`.
    pub fn run<'a>(&'a self, input: &Vector<T>) -> Launch<'a, Self, Vector<T>> {
        Launch::new(self, input.clone())
    }

    /// The per-element cost used for scheduler-weighted partitioning.
    fn scheduler_cost(&self) -> CostHint {
        match &self.udf {
            ScanUdf::Source(src) => self.cache.cost(src).unwrap_or(self.cost),
            ScanUdf::Native(_) => self.cost,
        }
    }

    /// The analysed binary-operator UDF and its host fold, for use in a lazy
    /// plan. Native closures have no source to fuse, so they cannot
    /// participate in plans.
    pub(crate) fn plan_udf(&self) -> Result<(Arc<UdfInfo>, Arc<HostFold>)> {
        match &self.udf {
            ScanUdf::Source(src) => {
                let info = self.cache.info(src, 2)?;
                kernelgen::check_binary_op(&info, "scan")?;
                Ok((info, self.cache.host_fold(src)?))
            }
            ScanUdf::Native(_) => Err(SkelError::Plan(
                "scan stage uses a native Rust closure; lazy plans require source UDFs".into(),
            )),
        }
    }

    fn ensure_built(&self, runtime: &Arc<crate::runtime::SkelCl>) -> Result<Arc<BuiltSource>> {
        let mut built = self.built.lock();
        if let Some(b) = built.as_ref() {
            return Ok(b.clone());
        }
        let ScanUdf::Source(src) = &self.udf else {
            unreachable!("ensure_built is only called for source UDFs")
        };
        let info = self.cache.info(src, 2)?;
        let kernel_src = kernelgen::scan_kernels(&info)?;
        let program = runtime.context().build_program(&kernel_src)?;
        let b = Arc::new(BuiltSource {
            scan_kernel: program.kernel(kernelgen::SCAN_KERNEL)?,
            offset_kernel: program.kernel(kernelgen::SCAN_OFFSET_KERNEL)?,
            per_element_cost: self.cache.cost(src)?,
        });
        *built = Some(b.clone());
        Ok(b)
    }

    fn native_scan_kernel(&self) -> Option<oclsim::Kernel> {
        let ScanUdf::Native(f) = &self.udf else {
            return None;
        };
        let f = f.clone();
        let def = NativeKernelDef::new("skelcl_scan_native", self.cost, move |ctx| {
            let mut views = ctx.arg_views();
            let (in_view, rest) = views
                .split_first_mut()
                .ok_or_else(|| "scan kernel is missing its input".to_string())?;
            let (out_view, _) = rest
                .split_first_mut()
                .ok_or_else(|| "scan kernel is missing its output".to_string())?;
            let input = in_view
                .as_slice::<T>()
                .ok_or_else(|| "scan input must be a buffer".to_string())?;
            let output = out_view
                .as_slice_mut::<T>()
                .ok_or_else(|| "scan output must be a buffer".to_string())?;
            let mut acc = input[0];
            output[0] = acc;
            for i in 1..input.len() {
                acc = f(acc, input[i]);
                output[i] = acc;
            }
            Ok(())
        });
        Program::from_native([def])
            .kernel("skelcl_scan_native")
            .ok()
    }

    fn native_offset_kernel(&self, offset: T) -> Option<oclsim::Kernel> {
        let ScanUdf::Native(f) = &self.udf else {
            return None;
        };
        let f = f.clone();
        let def = NativeKernelDef::new("skelcl_scan_offset_native", self.cost, move |ctx| {
            let mut views = ctx.arg_views();
            let data = views
                .first_mut()
                .and_then(|v| v.as_slice_mut::<T>())
                .ok_or_else(|| "scan offset kernel needs a buffer".to_string())?;
            for x in data.iter_mut() {
                *x = f(offset, *x);
            }
            Ok(())
        });
        Program::from_native([def])
            .kernel("skelcl_scan_offset_native")
            .ok()
    }

    /// `a ⊕ b` on the host, for combining the per-part totals into offsets.
    fn host_combine(&self, a: T, b: T) -> Result<T> {
        match &self.udf {
            ScanUdf::Native(f) => Ok(f(a, b)),
            ScanUdf::Source(src) => self.cache.host_fold(src)?.fold(&[a, b]),
        }
    }

    /// The shared implementation behind every terminal form. When no trace
    /// is requested, only the *last* element of each device's local scan —
    /// its total — is downloaded between the two steps, exactly the marked
    /// values of Figure 2; the full parts stay on their devices.
    fn execute_scan(
        &self,
        input: &Vector<T>,
        cfg: &LaunchConfig<'_>,
        want_trace: bool,
        reuse: Option<&Vector<T>>,
    ) -> Result<(Vector<T>, Option<ScanTrace<T>>)> {
        // Copy distribution makes no sense for a prefix computation; the
        // paper's scan assumes block distribution by default.
        input.ensure_disjoint()?;
        let scheduler_cost = cfg.scheduler.map(|_| self.scheduler_cost());
        let call = PreparedCall::single::<T, Vector<T>>(input, cfg, scheduler_cost)?;
        if call.prepared_args.len() != 0 {
            return Err(SkelError::UnsupportedArg(
                "the scan skeleton's binary operator takes no additional arguments".into(),
            ));
        }
        let runtime = &call.runtime;
        let out_buffers = call.output_buffers::<T, Vector<T>>(reuse)?;

        let (scan_kernel, built, per_element_cost) = match &self.udf {
            ScanUdf::Source(_) => {
                let built = self.ensure_built(runtime)?;
                (
                    built.scan_kernel.clone(),
                    Some(built.clone()),
                    built.per_element_cost,
                )
            }
            ScanUdf::Native(_) => (
                self.native_scan_kernel()
                    .expect("native kernel construction cannot fail"),
                None,
                self.cost,
            ),
        };

        // Step 1: local scans.
        let active = call.partition.active_devices();
        for &device in &active {
            let n = call.partition.size(device);
            let in_buffer = call.input_buffer(device)?;
            let out_buffer = out_buffers[device].clone().expect("allocated above");
            runtime.queue(device).enqueue_kernel_with_cost(
                &scan_kernel,
                1,
                &[
                    KernelArg::Buffer(in_buffer),
                    KernelArg::Buffer(out_buffer),
                    KernelArg::Scalar(Value::Int(n as i32)),
                ],
                sequential_cost(per_element_cost, n, 8.0),
            )?;
        }

        // Step 2: download the per-part totals (last element of each local
        // scan) to the host. Only when a trace is requested does the whole
        // local scan come back — the totals are all the algorithm needs.
        let mut totals = Vec::with_capacity(active.len());
        let mut local_scans = Vec::with_capacity(active.len());
        for &device in &active {
            let n = call.partition.size(device);
            let out_buffer = out_buffers[device].as_ref().expect("allocated above");
            if want_trace {
                let mut part = vec![T::from_value(Value::Int(0)); n];
                runtime
                    .queue(device)
                    .enqueue_read_buffer(out_buffer, &mut part)?;
                totals.push(part[n - 1]);
                local_scans.push(part);
            } else {
                let mut last = [T::from_value(Value::Int(0)); 1];
                runtime
                    .queue(device)
                    .enqueue_read_buffer_region(out_buffer, n - 1, &mut last)?;
                totals.push(last[0]);
            }
        }

        // Step 3 + 4: combine predecessor totals into each later part via the
        // implicitly created map (offset) kernels. All offset kernels are
        // enqueued before any is waited on, so the per-device workers apply
        // them concurrently in real time.
        let mut offset_events = Vec::new();
        let mut offsets: Vec<Option<T>> = vec![None; active.len()];
        let mut running: Option<T> = None;
        for (i, &device) in active.iter().enumerate() {
            if i > 0 {
                offsets[i] = running;
            }
            running = Some(match running {
                None => totals[i],
                Some(acc) => self.host_combine(acc, totals[i])?,
            });
            if i == 0 {
                continue;
            }
            let offset = offsets[i].expect("set above for i > 0");
            let n = call.partition.size(device);
            let out_buffer = out_buffers[device].clone().expect("allocated above");
            let offset_cost = CostHint::new(per_element_cost.flops_per_item, 8.0);
            match &self.udf {
                ScanUdf::Source(_) => {
                    let built = built.as_ref().expect("source scan builds its program");
                    offset_events.push((
                        device,
                        runtime.queue(device).enqueue_kernel_with_cost(
                            &built.offset_kernel,
                            n,
                            &[
                                KernelArg::Buffer(out_buffer),
                                KernelArg::Scalar(Value::Int(n as i32)),
                                KernelArg::Scalar(offset.to_value()),
                            ],
                            offset_cost,
                        )?,
                    ));
                }
                ScanUdf::Native(_) => {
                    let kernel = self
                        .native_offset_kernel(offset)
                        .expect("native kernel construction cannot fail");
                    offset_events.push((
                        device,
                        runtime.queue(device).enqueue_kernel_with_cost(
                            &kernel,
                            n,
                            &[KernelArg::Buffer(out_buffer)],
                            offset_cost,
                        )?,
                    ));
                }
            }
        }
        crate::skeletons::exec::wait_kernel_events(runtime, offset_events)?;

        // The output adopts the input's (non-copy) distribution: the buffers
        // were allocated for exactly that partition, so block, weighted
        // block and single inputs all stay consistent (Section III-C's
        // "block-distributed output" is the default-input case).
        let distribution = input.distribution();
        let output = match reuse {
            Some(out) => {
                out.commit_as_output(call.len, distribution, out_buffers)?;
                out.clone()
            }
            None => Vector::device_resident(runtime, call.len, distribution, out_buffers),
        };
        Ok((
            output,
            want_trace.then_some(ScanTrace {
                local_scans,
                offsets,
            }),
        ))
    }
}

impl<T: DeviceScalar> Skeleton<Vector<T>> for Scan<T> {
    type Output = Vector<T>;

    fn name(&self) -> &'static str {
        "scan"
    }

    fn execute(&self, input: &Vector<T>, cfg: &LaunchConfig<'_>) -> Result<Vector<T>> {
        self.execute_scan(input, cfg, false, None).map(|(v, _)| v)
    }
}

impl<T: DeviceScalar> Launch<'_, Scan<T>, Vector<T>> {
    /// Execute and return the output vector (identity terminal form).
    pub fn into_vector(self) -> Result<Vector<T>> {
        self.exec()
    }

    /// Execute and additionally return the [`ScanTrace`] of Figure 2 (the
    /// per-device local scans and the offsets combined by the implicit map
    /// skeletons).
    pub fn trace(self) -> Result<(Vector<T>, ScanTrace<T>)> {
        let (output, trace) = self
            .skeleton
            .execute_scan(&self.input, &self.cfg, true, None)?;
        Ok((output, trace.expect("trace requested")))
    }

    /// Execute, writing the result into `out` and reusing `out`'s device
    /// buffers instead of allocating fresh ones.
    pub fn run_into(self, out: &Vector<T>) -> Result<()> {
        self.skeleton
            .execute_scan(&self.input, &self.cfg, false, Some(out))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::runtime::init_gpus;

    const ADD: &str = "float func(float a, float b) { return a + b; }";

    fn sequential_prefix_sums(data: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(data.len());
        let mut acc = 0.0;
        for x in data {
            acc += x;
            out.push(acc);
        }
        out
    }

    #[test]
    fn prefix_sums_match_sequential_for_any_device_count() {
        let data: Vec<f32> = (1..=100).map(|i| (i % 13) as f32).collect();
        let expected = sequential_prefix_sums(&data);
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let scan = Scan::<f32>::from_source(ADD);
            let v = Vector::from_vec(&rt, data.clone());
            let out = v.scan(&scan).unwrap();
            assert_eq!(out.to_vec().unwrap(), expected, "devices = {devices}");
        }
    }

    #[test]
    fn figure_2_example_on_four_gpus() {
        // The exact example of Figure 2: scanning [1..16] with + on 4 GPUs.
        let rt = init_gpus(4);
        let scan = Scan::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, (1..=16).map(|i| i as f32).collect());
        let (out, trace) = scan.run(&v).trace().unwrap();

        // Middle row of Figure 2: the local scans per device.
        assert_eq!(trace.local_scans[0], vec![1.0, 3.0, 6.0, 10.0]);
        assert_eq!(trace.local_scans[1], vec![5.0, 11.0, 18.0, 26.0]);
        assert_eq!(trace.local_scans[2], vec![9.0, 19.0, 30.0, 42.0]);
        assert_eq!(trace.local_scans[3], vec![13.0, 27.0, 42.0, 58.0]);

        // The offsets marked in Figure 2: 10, 36 (= 10 ⊕ 26), 78 (= 36 ⊕ 42).
        assert_eq!(trace.offsets[0], None);
        assert_eq!(trace.offsets[1], Some(10.0));
        assert_eq!(trace.offsets[2], Some(36.0));
        assert_eq!(trace.offsets[3], Some(78.0));

        // Bottom row: the complete prefix sums.
        let expected: Vec<f32> = (1..=16)
            .scan(0.0f32, |acc, i| {
                *acc += i as f32;
                Some(*acc)
            })
            .collect();
        assert_eq!(out.to_vec().unwrap(), expected);
        assert_eq!(out.distribution(), Distribution::Block);
    }

    #[test]
    fn native_scan_matches_source_scan() {
        let data: Vec<f32> = (1..=37).map(|i| i as f32).collect();
        let rt = init_gpus(3);
        let source = Scan::<f32>::from_source(ADD);
        let native = Scan::<f32>::new(|a, b| a + b);
        let v1 = Vector::from_vec(&rt, data.clone());
        let v2 = Vector::from_vec(&rt, data);
        assert_eq!(
            v1.scan(&source).unwrap().to_vec().unwrap(),
            v2.scan(&native).unwrap().to_vec().unwrap()
        );
    }

    #[test]
    fn scan_with_non_commutative_operator() {
        // Matrix-like composition encoded as digits: f(a, b) = a * 10 + b.
        let rt = init_gpus(4);
        let scan =
            Scan::<f32>::from_source("float func(float a, float b) { return a * 10.0f + b; }");
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0, 4.0]);
        let out = v.scan(&scan).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![1.0, 12.0, 123.0, 1234.0]);
    }

    #[test]
    fn scan_of_int_vector() {
        let rt = init_gpus(2);
        let scan = Scan::<i32>::from_source("int func(int a, int b) { return a + b; }");
        let v = Vector::from_vec(&rt, vec![1i32, 2, 3, 4, 5]);
        assert_eq!(
            v.scan(&scan).unwrap().to_vec().unwrap(),
            vec![1, 3, 6, 10, 15]
        );
    }

    #[test]
    fn scan_on_single_distribution_keeps_it() {
        let rt = init_gpus(3);
        let scan = Scan::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, vec![1.0f32; 6]);
        v.set_distribution(Distribution::Single(2)).unwrap();
        let out = v.scan(&scan).unwrap();
        assert_eq!(out.distribution(), Distribution::Single(2));
        assert_eq!(out.to_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn scan_rejects_empty_input_and_extra_args() {
        let rt = init_gpus(1);
        let scan = Scan::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, Vec::<f32>::new());
        assert!(matches!(v.scan(&scan), Err(SkelError::EmptyInput)));

        let v = Vector::from_vec(&rt, vec![1.0f32; 4]);
        assert!(matches!(
            scan.run(&v).arg(1.0f32).exec(),
            Err(SkelError::UnsupportedArg(_))
        ));
    }

    #[test]
    fn scan_run_into_reuses_buffers() {
        let rt = init_gpus(2);
        let scan = Scan::<i32>::new(|a, b| a + b);
        let v = Vector::from_vec(&rt, vec![1i32; 6]);
        let out = Vector::from_vec(&rt, vec![0i32; 6]);
        out.copy_data_to_devices().unwrap();
        scan.run(&v).run_into(&out).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }
}
