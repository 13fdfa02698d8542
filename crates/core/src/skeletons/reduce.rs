//! The reduce skeleton: `reduce(⊕)([x1..xn]) = x1 ⊕ x2 ⊕ ... ⊕ xn`.
//!
//! The operator must be associative but may be non-commutative.
//!
//! Multi-GPU execution (paper, Section III-C) proceeds in three steps:
//! 1. every GPU executes a local reduction of its part of the data,
//! 2. the per-GPU results are gathered by the CPU,
//! 3. the CPU reduces the intermediate results into the final value.
//!
//! With a scheduler attached to the launch
//! (`sum.run(&v).scheduler(&s).chunks(8).scalar_with_plan()`), the
//! Section V strategy is used instead: each device produces an intermediate
//! result vector, and the scheduler decides whether the final combination
//! runs on the host CPU or on the fastest device.

use std::sync::Arc;

use parking_lot::Mutex;

use oclsim::{CostHint, KernelArg, NativeKernelDef, Program, Value};

use crate::container::Container;
use crate::distribution::Distribution;
use crate::error::{Result, SkelError};
use crate::kernelgen;
use crate::skeletons::{
    sequential_cost, DeviceScalar, HostFold, Launch, LaunchConfig, PreparedCall, Skeleton, UdfCache,
};
use crate::vector::Vector;

enum ReduceUdf<T> {
    Source(String),
    Native(Arc<dyn Fn(T, T) -> T + Send + Sync>),
}

struct BuiltSource {
    kernel: oclsim::Kernel,
    per_element_cost: CostHint,
}

/// How a scheduler-aware reduction (Section V) was executed: how many
/// intermediate results the devices produced and where the final reduction
/// ran. Returned by the `scalar_with_plan` terminal form so applications and
/// tests can inspect the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReducePlan {
    /// Number of intermediate partial results gathered from the devices.
    pub intermediate_results: usize,
    /// Device index chosen for the final reduction (meaningful only when
    /// `final_on_cpu` is false).
    pub final_device: usize,
    /// Whether the final reduction ran on the host CPU rather than a device.
    pub final_on_cpu: bool,
}

/// The reduce skeleton.
///
/// ```
/// use skelcl::prelude::*;
///
/// let rt = skelcl::init_gpus(4);
/// let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
/// let v = Vector::from_vec(&rt, (1..=16).map(|i| i as f32).collect());
/// assert_eq!(sum.run(&v).scalar().unwrap(), 136.0);
/// // Or through the fluent vector pipeline:
/// assert_eq!(v.reduce(&sum).unwrap(), 136.0);
/// ```
pub struct Reduce<T: DeviceScalar> {
    udf: ReduceUdf<T>,
    cost: CostHint,
    cache: UdfCache,
    built: Mutex<Option<Arc<BuiltSource>>>,
    built_chunked: Mutex<Option<oclsim::Kernel>>,
}

impl<T: DeviceScalar> Reduce<T> {
    /// Customise the skeleton with a binary operator given as source code.
    pub fn from_source(source: &str) -> Reduce<T> {
        Reduce {
            udf: ReduceUdf::Source(source.to_string()),
            cost: CostHint::DEFAULT,
            cache: UdfCache::new(),
            built: Mutex::new(None),
            built_chunked: Mutex::new(None),
        }
    }

    /// Customise the skeleton with a native binary operator.
    pub fn new<F>(f: F) -> Reduce<T>
    where
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        Reduce {
            udf: ReduceUdf::Native(Arc::new(f)),
            cost: CostHint::DEFAULT,
            cache: UdfCache::new(),
            built: Mutex::new(None),
            built_chunked: Mutex::new(None),
        }
    }

    /// Override the per-element cost hint (native operators).
    pub fn with_cost(mut self, cost: CostHint) -> Self {
        self.cost = cost;
        self
    }

    /// Begin a launch of this skeleton over `input` — a [`Vector`] or a
    /// [`crate::matrix::Matrix`] (reduced over all its elements):
    /// `sum.run(&v).scalar()?`, `sum.run(&v).into_vector()?`, or the
    /// scheduler-aware `sum.run(&v).scheduler(&s).chunks(8).scalar_with_plan()?`.
    pub fn run<'a, C: Container<T>>(&'a self, input: &C) -> Launch<'a, Self, C> {
        Launch::new(self, input.clone())
    }

    /// The analysed binary-operator UDF and its host fold, for use in a lazy
    /// plan. Native closures have no source to fuse, so they cannot
    /// participate in plans.
    pub(crate) fn plan_udf(&self) -> Result<(Arc<kernelgen::UdfInfo>, Arc<HostFold>)> {
        match &self.udf {
            ReduceUdf::Source(src) => {
                let info = self.cache.info(src, 2)?;
                kernelgen::check_binary_op(&info, "reduce")?;
                Ok((info, self.cache.host_fold(src)?))
            }
            ReduceUdf::Native(_) => Err(SkelError::Plan(
                "reduce stage uses a native Rust closure; lazy plans require source UDFs".into(),
            )),
        }
    }

    fn ensure_built(&self, runtime: &Arc<crate::runtime::SkelCl>) -> Result<Arc<BuiltSource>> {
        let mut built = self.built.lock();
        if let Some(b) = built.as_ref() {
            return Ok(b.clone());
        }
        let ReduceUdf::Source(src) = &self.udf else {
            unreachable!("ensure_built is only called for source UDFs")
        };
        let info = self.cache.info(src, 2)?;
        let kernel_src = kernelgen::reduce_kernel(&info)?;
        let program = runtime.context().build_program(&kernel_src)?;
        let kernel = program.kernel(kernelgen::REDUCE_KERNEL)?;
        let b = Arc::new(BuiltSource {
            kernel,
            per_element_cost: self.cache.cost(src)?,
        });
        *built = Some(b.clone());
        Ok(b)
    }

    fn ensure_built_chunked(
        &self,
        runtime: &Arc<crate::runtime::SkelCl>,
    ) -> Result<oclsim::Kernel> {
        let mut built = self.built_chunked.lock();
        if let Some(k) = built.as_ref() {
            return Ok(k.clone());
        }
        let ReduceUdf::Source(src) = &self.udf else {
            unreachable!("ensure_built_chunked is only called for source UDFs")
        };
        let info = self.cache.info(src, 2)?;
        let kernel_src = kernelgen::reduce_chunked_kernel(&info)?;
        let program = runtime.context().build_program(&kernel_src)?;
        let kernel = program.kernel(kernelgen::REDUCE_CHUNKED_KERNEL)?;
        *built = Some(kernel.clone());
        Ok(kernel)
    }

    fn native_chunked_kernel(&self) -> Option<oclsim::Kernel> {
        let ReduceUdf::Native(f) = &self.udf else {
            return None;
        };
        let f = f.clone();
        let def = NativeKernelDef::new("skelcl_reduce_chunked_native", self.cost, move |ctx| {
            let chunks = ctx.global_size();
            let n = ctx.scalar_usize(2)?;
            let chunk = ctx.scalar_usize(3)?.max(1);
            let mut views = ctx.arg_views();
            let (in_view, rest) = views
                .split_first_mut()
                .ok_or_else(|| "chunked reduce kernel is missing its input".to_string())?;
            let (out_view, _) = rest
                .split_first_mut()
                .ok_or_else(|| "chunked reduce kernel is missing its output".to_string())?;
            let input = in_view
                .as_slice::<T>()
                .ok_or_else(|| "reduce input must be a buffer".to_string())?;
            let output = out_view
                .as_slice_mut::<T>()
                .ok_or_else(|| "reduce output must be a buffer".to_string())?;
            for g in 0..chunks {
                let start = g * chunk;
                if start >= n {
                    continue;
                }
                let end = (start + chunk).min(n);
                let mut acc = input[start];
                for x in &input[start + 1..end] {
                    acc = f(acc, *x);
                }
                output[g] = acc;
            }
            Ok(())
        });
        let program = Program::from_native([def]);
        program.kernel("skelcl_reduce_chunked_native").ok()
    }

    fn native_kernel(&self) -> Option<oclsim::Kernel> {
        let ReduceUdf::Native(f) = &self.udf else {
            return None;
        };
        let f = f.clone();
        let def = NativeKernelDef::new("skelcl_reduce_native", self.cost, move |ctx| {
            let mut views = ctx.arg_views();
            let (in_view, rest) = views
                .split_first_mut()
                .ok_or_else(|| "reduce kernel is missing its input".to_string())?;
            let (out_view, _) = rest
                .split_first_mut()
                .ok_or_else(|| "reduce kernel is missing its output".to_string())?;
            let input = in_view
                .as_slice::<T>()
                .ok_or_else(|| "reduce input must be a buffer".to_string())?;
            let output = out_view
                .as_slice_mut::<T>()
                .ok_or_else(|| "reduce output must be a buffer".to_string())?;
            let mut acc = input[0];
            for x in &input[1..] {
                acc = f(acc, *x);
            }
            output[0] = acc;
            Ok(())
        });
        let program = Program::from_native([def]);
        program.kernel("skelcl_reduce_native").ok()
    }

    /// Apply the binary operator on the host (step 3 of the multi-GPU
    /// strategy), folding the gathered partial results left to right.
    fn host_fold(&self, values: &[T]) -> Result<T> {
        match &self.udf {
            ReduceUdf::Native(f) => {
                let (first, rest) = values.split_first().ok_or(SkelError::EmptyInput)?;
                Ok(rest.iter().fold(*first, |acc, v| f(acc, *v)))
            }
            ReduceUdf::Source(src) => self.cache.host_fold(src)?.fold(values),
        }
    }

    /// The plain three-step reduction (Section III-C). Runs under
    /// replay-based fault recovery (see the `recovery` module).
    fn execute_plain<C: Container<T>>(&self, input: &C, cfg: &LaunchConfig<'_>) -> Result<T> {
        let runtime = input.runtime();
        crate::recovery::run_recoverable(
            &runtime,
            &|| input.refresh_for_replay(),
            &|weights| input.repartition_for_recovery(weights),
            &mut || self.execute_plain_attempt(input, cfg),
        )
    }

    fn execute_plain_attempt<C: Container<T>>(
        &self,
        input: &C,
        cfg: &LaunchConfig<'_>,
    ) -> Result<T> {
        // A replicated input would be folded once per device; reduce visits
        // every element exactly once, so coerce to a disjoint layout first
        // (merging replicas through the container's combine function).
        input.ensure_disjoint()?;
        let call = PreparedCall::single(input, cfg, None)?;
        if call.prepared_args.len() != 0 {
            return Err(SkelError::UnsupportedArg(
                "the reduce skeleton's binary operator takes no additional arguments".into(),
            ));
        }

        let (kernel, per_element_cost) = match &self.udf {
            ReduceUdf::Source(_) => {
                let built = self.ensure_built(&call.runtime)?;
                (built.kernel.clone(), built.per_element_cost)
            }
            ReduceUdf::Native(_) => (
                self.native_kernel()
                    .expect("native kernel construction cannot fail"),
                self.cost,
            ),
        };

        // Step 1: local reductions on every device that holds a part.
        let runtime = &call.runtime;
        let mut partial_buffers = Vec::new();
        for device in call.partition.active_devices() {
            let n = call.partition.size(device);
            let in_buffer = call.input_buffer(device)?;
            let out_buffer = runtime.context().create_buffer::<T>(device, 1)?;
            runtime.queue(device).enqueue_kernel_with_cost(
                &kernel,
                1,
                &[
                    KernelArg::Buffer(in_buffer),
                    KernelArg::Buffer(out_buffer.clone()),
                    KernelArg::Scalar(Value::Int(n as i32)),
                ],
                sequential_cost(per_element_cost, n, 4.0),
            )?;
            partial_buffers.push((device, out_buffer));
        }

        // Step 2: gather the intermediate results on the CPU, in device
        // order so that non-commutative operators stay correct.
        let mut partials = Vec::with_capacity(partial_buffers.len());
        for (device, buffer) in &partial_buffers {
            let mut one = [T::from_value(Value::Int(0)); 1];
            runtime
                .queue(*device)
                .enqueue_read_buffer(buffer, &mut one)?;
            partials.push(one[0]);
            runtime.context().release_buffer(buffer)?;
        }

        // Step 3: final reduction on the CPU.
        self.host_fold(&partials)
    }

    /// The scheduler-aware multi-stage reduction of Section V of the paper.
    ///
    /// Instead of folding each device's part down to a single value, every
    /// device produces an *intermediate result vector* of up to
    /// `cfg.chunks_per_device` partial results (one per chunk of its part).
    /// The gathered intermediates are then reduced either on the host CPU or
    /// on the device the scheduler predicts to be fastest — the paper notes
    /// that "CPUs will be faster to perform the final reduction of these
    /// vectors than GPUs which provide poor performance when reducing only
    /// few elements".
    fn execute_scheduled<C: Container<T>>(
        &self,
        input: &C,
        cfg: &LaunchConfig<'_>,
    ) -> Result<(T, ReducePlan)> {
        let runtime = input.runtime();
        crate::recovery::run_recoverable(
            &runtime,
            &|| input.refresh_for_replay(),
            &|weights| input.repartition_for_recovery(weights),
            &mut || self.execute_scheduled_attempt(input, cfg),
        )
    }

    fn execute_scheduled_attempt<C: Container<T>>(
        &self,
        input: &C,
        cfg: &LaunchConfig<'_>,
    ) -> Result<(T, ReducePlan)> {
        let scheduler = cfg.scheduler.ok_or_else(|| {
            SkelError::Internal("scheduled reduce launched without a scheduler".into())
        })?;
        let chunks_per_device = cfg.chunks_per_device.max(1);
        input.ensure_disjoint()?;
        let call = PreparedCall::single(input, cfg, None)?;
        if call.prepared_args.len() != 0 {
            return Err(SkelError::UnsupportedArg(
                "the reduce skeleton's binary operator takes no additional arguments".into(),
            ));
        }
        let runtime = &call.runtime;

        let (chunked_kernel, built, per_element_cost) = match &self.udf {
            ReduceUdf::Source(_) => {
                let built = self.ensure_built(runtime)?;
                let chunked = self.ensure_built_chunked(runtime)?;
                (chunked, Some(built.clone()), built.per_element_cost)
            }
            ReduceUdf::Native(_) => (
                self.native_chunked_kernel()
                    .expect("native kernel construction cannot fail"),
                None,
                self.cost,
            ),
        };

        // Step 1: chunked local reductions — each device leaves an
        // intermediate result vector on its own memory.
        let mut partial_buffers = Vec::new();
        for device in call.partition.active_devices() {
            let n = call.partition.size(device);
            let chunks = chunks_per_device.min(n);
            let chunk_size = n.div_ceil(chunks);
            let in_buffer = call.input_buffer(device)?;
            let out_buffer = runtime.context().create_buffer::<T>(device, chunks)?;
            runtime.queue(device).enqueue_kernel_with_cost(
                &chunked_kernel,
                chunks,
                &[
                    KernelArg::Buffer(in_buffer),
                    KernelArg::Buffer(out_buffer.clone()),
                    KernelArg::Scalar(Value::Int(n as i32)),
                    KernelArg::Scalar(Value::Int(chunk_size as i32)),
                ],
                sequential_cost(per_element_cost, chunk_size, 4.0),
            )?;
            partial_buffers.push((device, out_buffer, chunks));
        }

        // Step 2: gather the intermediate result vectors in device order (the
        // operator may be non-commutative).
        let mut partials = Vec::new();
        for (device, buffer, chunks) in &partial_buffers {
            let mut part = vec![T::from_value(Value::Int(0)); *chunks];
            runtime
                .queue(*device)
                .enqueue_read_buffer(buffer, &mut part)?;
            partials.extend_from_slice(&part);
            runtime.context().release_buffer(buffer)?;
        }

        // Step 3: let the scheduler place the final reduction.
        let (final_device, final_on_cpu) = scheduler.final_reduce_placement(
            partials.len(),
            std::mem::size_of::<T>(),
            per_element_cost,
        )?;
        let plan = ReducePlan {
            intermediate_results: partials.len(),
            final_device,
            final_on_cpu,
        };
        if final_on_cpu || partials.len() == 1 {
            return Ok((self.host_fold(&partials)?, plan));
        }

        // Final reduction on the chosen device: upload the gathered
        // intermediates and run the plain (single-work-item) reduce kernel.
        let final_kernel = match &self.udf {
            ReduceUdf::Source(_) => built
                .as_ref()
                .expect("source reduce always builds its program")
                .kernel
                .clone(),
            ReduceUdf::Native(_) => self
                .native_kernel()
                .expect("native kernel construction cannot fail"),
        };
        let queue = runtime.queue(final_device);
        let in_buffer = runtime
            .context()
            .create_buffer::<T>(final_device, partials.len())?;
        queue.enqueue_write_buffer(&in_buffer, &partials)?;
        let out_buffer = runtime.context().create_buffer::<T>(final_device, 1)?;
        queue.enqueue_kernel_with_cost(
            &final_kernel,
            1,
            &[
                KernelArg::Buffer(in_buffer.clone()),
                KernelArg::Buffer(out_buffer.clone()),
                KernelArg::Scalar(Value::Int(partials.len() as i32)),
            ],
            sequential_cost(per_element_cost, partials.len(), 4.0),
        )?;
        let mut one = [T::from_value(Value::Int(0)); 1];
        queue.enqueue_read_buffer(&out_buffer, &mut one)?;
        runtime.context().release_buffer(&in_buffer)?;
        runtime.context().release_buffer(&out_buffer)?;
        Ok((one[0], plan))
    }
}

impl<T: DeviceScalar, C: Container<T>> Skeleton<C> for Reduce<T> {
    type Output = T;

    fn name(&self) -> &'static str {
        "reduce"
    }

    fn execute(&self, input: &C, cfg: &LaunchConfig<'_>) -> Result<T> {
        if cfg.scheduler.is_some() {
            Ok(self.execute_scheduled(input, cfg)?.0)
        } else {
            self.execute_plain(input, cfg)
        }
    }
}

impl<T: DeviceScalar, C: Container<T>> Launch<'_, Reduce<T>, C> {
    /// Execute and return the reduced value (alias of [`Launch::exec`]).
    pub fn scalar(self) -> Result<T> {
        self.exec()
    }

    /// Execute and return the reduced value together with the
    /// [`ReducePlan`] describing how the reduction was scheduled. Without an
    /// attached scheduler the plan reflects the plain three-step strategy
    /// (final combination on the CPU).
    pub fn scalar_with_plan(self) -> Result<(T, ReducePlan)> {
        if self.cfg.scheduler.is_some() {
            return self.skeleton.execute_scheduled(&self.input, &self.cfg);
        }
        // The plain strategy gathers one partial per active device and
        // always finishes on the CPU.
        let value = self.skeleton.execute_plain(&self.input, &self.cfg)?;
        let actives = self.input.part_sizes().iter().filter(|&&s| s > 0).count();
        Ok((
            value,
            ReducePlan {
                intermediate_results: actives,
                final_device: 0,
                final_on_cpu: true,
            },
        ))
    }

    /// Execute and wrap the reduced value in a single-element,
    /// single-distributed vector (the paper's output shape).
    pub fn into_vector(self) -> Result<Vector<T>> {
        let input = self.input.clone();
        let value = self.exec()?;
        let runtime = input.runtime();
        let out = Vector::from_vec(&runtime, vec![value]);
        out.set_distribution(Distribution::Single(0))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::init_gpus;
    use crate::skeletons::Map;

    const ADD: &str = "float func(float a, float b) { return a + b; }";

    #[test]
    fn sum_reduction_matches_sequential_for_any_device_count() {
        let data: Vec<f32> = (1..=1000).map(|i| i as f32).collect();
        let expected: f32 = data.iter().sum();
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let sum = Reduce::<f32>::from_source(ADD);
            let v = Vector::from_vec(&rt, data.clone());
            assert_eq!(v.reduce(&sum).unwrap(), expected, "devices = {devices}");
        }
    }

    #[test]
    fn scheduler_aware_reduce_matches_the_plain_result() {
        use crate::scheduler::StaticScheduler;
        let data: Vec<f32> = (1..=4096).map(|i| (i % 31) as f32).collect();
        let expected: f32 = data.iter().sum();
        for devices in [1usize, 3] {
            let rt = init_gpus(devices);
            let scheduler = StaticScheduler::analytical(&rt);
            let sum = Reduce::<f32>::from_source(ADD);
            let v = Vector::from_vec(&rt, data.clone());
            let (value, plan) = sum
                .run(&v)
                .scheduler(&scheduler)
                .chunks(8)
                .scalar_with_plan()
                .unwrap();
            assert_eq!(value, expected, "devices = {devices}");
            assert!(plan.intermediate_results >= devices);
            assert!(plan.intermediate_results <= 8 * devices);
        }
    }

    #[test]
    fn scheduler_aware_reduce_places_small_finals_on_the_cpu_device_when_present() {
        use crate::scheduler::StaticScheduler;
        use oclsim::DeviceProfile;
        let rt = crate::runtime::init_profiles(vec![
            DeviceProfile::tesla_c1060(),
            DeviceProfile::tesla_c1060(),
            DeviceProfile::xeon_e5520(),
        ]);
        let scheduler = StaticScheduler::analytical(&rt);
        let max = Reduce::<i32>::new(|a, b| a.max(b));
        let v = Vector::from_vec(&rt, (0..3000).map(|i| (i * 37) % 1009).collect());
        let (value, plan) = max
            .run(&v)
            .scheduler(&scheduler)
            .chunks(4)
            .scalar_with_plan()
            .unwrap();
        assert_eq!(value, (0..3000).map(|i| (i * 37) % 1009).max().unwrap());
        assert!(
            plan.final_on_cpu,
            "a handful of intermediate results should be finished on the CPU: {plan:?}"
        );
    }

    #[test]
    fn scheduler_aware_reduce_with_native_operator_and_single_chunk() {
        use crate::scheduler::StaticScheduler;
        let rt = init_gpus(2);
        let scheduler = StaticScheduler::analytical(&rt);
        let sum = Reduce::<i32>::new(|a, b| a + b);
        let v = Vector::from_vec(&rt, (1..=100).collect());
        // chunks_per_device = 1 degenerates to the plain three-step strategy.
        let (value, plan) = sum
            .run(&v)
            .scheduler(&scheduler)
            .chunks(1)
            .scalar_with_plan()
            .unwrap();
        assert_eq!(value, 5050);
        assert_eq!(plan.intermediate_results, 2);
    }

    #[test]
    fn plan_without_scheduler_reports_the_plain_strategy() {
        let rt = init_gpus(3);
        let sum = Reduce::<i32>::new(|a, b| a + b);
        let v = Vector::from_vec(&rt, (1..=30).collect());
        let (value, plan) = sum.run(&v).scalar_with_plan().unwrap();
        assert_eq!(value, 465);
        assert!(plan.final_on_cpu);
        assert_eq!(plan.intermediate_results, 3);
    }

    #[test]
    fn native_reduce_max() {
        let rt = init_gpus(3);
        let max = Reduce::<i32>::new(|a, b| a.max(b));
        let v = Vector::from_vec(&rt, vec![3, -1, 42, 17, 0, 41]);
        assert_eq!(v.reduce(&max).unwrap(), 42);
    }

    #[test]
    fn non_commutative_operator_preserves_order() {
        // f(a, b) = a * 2 + b is associativity-breaking in general, but the
        // point here is ordering: left-to-right folding over device
        // boundaries must equal the sequential left-to-right fold.
        let data: Vec<f32> = (1..=64).map(|i| (i % 7) as f32).collect();
        let sequential = data[1..].iter().fold(data[0], |acc, x| acc - x);
        for devices in 1..=1 {
            // Subtraction is non-associative, so only the single-device case
            // must match the sequential fold exactly.
            let rt = init_gpus(devices);
            let sub = Reduce::<f32>::new(|a, b| a - b);
            let v = Vector::from_vec(&rt, data.clone());
            assert_eq!(v.reduce(&sub).unwrap(), sequential);
        }
        // Right projection f(a, b) = b is associative and non-commutative:
        // under the required left-to-right combination order the result is
        // always the last element, independent of the device count.
        let values: Vec<f32> = (1..=23).map(|i| i as f32).collect();
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let last = Reduce::<f32>::from_source("float func(float a, float b) { return b; }");
            let v = Vector::from_vec(&rt, values.clone());
            assert_eq!(v.reduce(&last).unwrap(), 23.0, "devices = {devices}");
        }
        // First projection must symmetrically give the first element.
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let first = Reduce::<f32>::new(|a, _b| a);
            let v = Vector::from_vec(&rt, values.clone());
            assert_eq!(v.reduce(&first).unwrap(), 1.0, "devices = {devices}");
        }
    }

    #[test]
    fn reduce_output_vector_is_single_distributed() {
        let rt = init_gpus(2);
        let sum = Reduce::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, vec![1.0f32; 10]);
        let out = sum.run(&v).into_vector().unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.distribution(), Distribution::Single(0));
        assert_eq!(out.to_vec().unwrap(), vec![10.0]);
    }

    #[test]
    fn reduce_of_single_element_vector() {
        let rt = init_gpus(4);
        let sum = Reduce::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, vec![7.0f32]);
        assert_eq!(v.reduce(&sum).unwrap(), 7.0);
    }

    #[test]
    fn reduce_rejects_empty_input_bad_udf_and_extra_args() {
        let rt = init_gpus(1);
        let sum = Reduce::<f32>::from_source(ADD);
        let empty = Vector::from_vec(&rt, Vec::<f32>::new());
        assert!(matches!(empty.reduce(&sum), Err(SkelError::EmptyInput)));

        let bad = Reduce::<f32>::from_source("float func(float a) { return a; }");
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0]);
        assert!(matches!(v.reduce(&bad), Err(SkelError::UdfSignature(_))));

        // The binary operator takes no additional arguments.
        assert!(matches!(
            sum.run(&v).arg(1.0f32).scalar(),
            Err(SkelError::UnsupportedArg(_))
        ));
    }

    #[test]
    fn copy_distributed_inputs_reduce_each_element_exactly_once() {
        // A replica per device must not be folded per device: the reduce
        // coerces replicated layouts to disjoint blocks first.
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let sum = Reduce::<f32>::from_source(ADD);

            let v = Vector::from_vec(&rt, vec![1.0f32; 4]);
            v.set_distribution(Distribution::Copy).unwrap();
            v.copy_data_to_devices().unwrap();
            assert_eq!(v.reduce(&sum).unwrap(), 4.0, "devices = {devices}");
            assert_eq!(v.distribution(), Distribution::Block);

            let m = crate::matrix::Matrix::filled(&rt, 2, 2, 1.0f32);
            m.set_distribution(crate::MatrixDistribution::Copy).unwrap();
            assert_eq!(m.reduce(&sum).unwrap(), 4.0, "devices = {devices}");
            assert_eq!(m.distribution(), crate::MatrixDistribution::RowBlock);

            // The scheduler-aware path applies the same coercion.
            let scheduler = crate::scheduler::StaticScheduler::analytical(&rt);
            let w = Vector::from_vec(&rt, (1..=8).map(|i| i as f32).collect());
            w.set_distribution(Distribution::Copy).unwrap();
            let (value, _) = sum
                .run(&w)
                .scheduler(&scheduler)
                .chunks(2)
                .scalar_with_plan()
                .unwrap();
            assert_eq!(value, 36.0, "devices = {devices}");
        }
    }

    #[test]
    fn reduce_over_a_matrix_folds_every_element() {
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let sum = Reduce::<f32>::from_source(ADD);
            let m = crate::matrix::Matrix::from_fn(&rt, 6, 5, |r, c| (r * 5 + c) as f32);
            assert_eq!(m.reduce(&sum).unwrap(), (0..30).sum::<i32>() as f32);
            let (value, plan) = sum.run(&m).scalar_with_plan().unwrap();
            assert_eq!(value, 435.0);
            assert!(plan.final_on_cpu);
        }
    }

    #[test]
    fn map_output_feeds_reduce_without_host_transfers() {
        // "when a map skeleton's output vector is passed as an input vector
        // to a reduce skeleton, the vector's data resides on the GPU and no
        // data transfer is performed" (paper, Section II-B).
        let rt = init_gpus(2);
        let square = Map::<f32, f32>::from_source("float func(float x) { return x * x; }");
        let sum = Reduce::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, (1..=8).map(|i| i as f32).collect());
        let squared = v.map(&square).unwrap();
        rt.drain_events();
        let result = squared.reduce(&sum).unwrap();
        assert_eq!(result, 204.0);
        let events = rt.drain_events();
        let uploads: usize = events
            .iter()
            .flatten()
            .filter(|e| matches!(e.kind, oclsim::CommandKind::WriteBuffer))
            .count();
        assert_eq!(
            uploads, 0,
            "reduce must reuse the map's device-resident output"
        );
    }
}
