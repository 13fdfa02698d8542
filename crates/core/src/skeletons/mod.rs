//! The algorithmic skeletons of SkelCL: [`Map`], [`Zip`], [`Reduce`] and
//! [`Scan`] (paper, Section II-A), including their multi-GPU execution
//! strategies (Section III-C).
//!
//! Each skeleton is customised with a user-defined function, given either as
//! a source string in the kernel language (merged into a generated kernel and
//! compiled at runtime, exactly as in the paper) or as a native Rust closure
//! (used for application kernels too large for the kernel-language subset,
//! such as the OSEM path tracer).
//!
//! Execution is uniform across every skeleton: each implements the
//! input-generic [`Skeleton`] trait and is invoked through the fluent
//! [`Launch`] builder returned by its `run` method — see the `exec` module
//! for the shared prepare → partition → launch → combine pipeline. The
//! data-parallel skeletons ([`Map`], [`Zip`], [`Reduce`]) are additionally
//! generic over the [`crate::container::Container`] trait, so one skeleton
//! instance launches over a [`crate::vector::Vector`] or element-wise over
//! a [`crate::matrix::Matrix`] with no container-specific code.

pub(crate) mod exec;
mod host_fold;
mod map;
mod map_overlap;
mod reduce;
mod scan;
mod zip;

pub use exec::{Launch, LaunchConfig, Skeleton};
pub use map::{IndexLaunch, Map};
pub use map_overlap::MapOverlap;
pub use reduce::{Reduce, ReducePlan};
pub use scan::{Scan, ScanTrace};
pub use zip::Zip;

pub(crate) use exec::{check_source_call, sequential_cost, wait_kernel_events, PreparedCall};
pub(crate) use host_fold::HostFold;

use std::sync::Arc;

use oclsim::{Buffer, CostHint, KernelArg, Pod, Value};

use crate::args::{ArgItem, Args};
use crate::distribution::Partition;
use crate::error::{Result, SkelError};
use crate::runtime::SkelCl;

/// Scalar element types that can cross the host/device boundary as kernel
/// scalar arguments (needed by the reduce and scan skeletons, which move
/// per-device partial results through the host).
pub trait DeviceScalar: Pod {
    /// Convert to a kernel scalar value.
    fn to_value(self) -> Value;
    /// Convert from a kernel scalar value.
    fn from_value(v: Value) -> Self;
    /// The kernel-language name of the type (used in generated source).
    fn type_name() -> &'static str;
}

impl DeviceScalar for f32 {
    fn to_value(self) -> Value {
        Value::Float(self)
    }
    fn from_value(v: Value) -> Self {
        v.as_f64() as f32
    }
    fn type_name() -> &'static str {
        "float"
    }
}

impl DeviceScalar for f64 {
    fn to_value(self) -> Value {
        Value::Double(self)
    }
    fn from_value(v: Value) -> Self {
        v.as_f64()
    }
    fn type_name() -> &'static str {
        "double"
    }
}

impl DeviceScalar for i32 {
    fn to_value(self) -> Value {
        Value::Int(self)
    }
    fn from_value(v: Value) -> Self {
        v.as_i64() as i32
    }
    fn type_name() -> &'static str {
        "int"
    }
}

impl DeviceScalar for u32 {
    fn to_value(self) -> Value {
        Value::Uint(self)
    }
    fn from_value(v: Value) -> Self {
        v.as_i64() as u32
    }
    fn type_name() -> &'static str {
        "uint"
    }
}

/// Additional arguments resolved for one skeleton call: scalars converted to
/// kernel values, vector arguments uploaded (lazily) according to their own
/// distributions with their per-device buffers captured. The element types of
/// vector arguments are already erased by [`crate::args::VectorArg`], so one
/// code path covers every `Pod` element type, `f64` included.
pub(crate) struct PreparedArgs {
    items: Vec<PreparedItem>,
}

enum PreparedItem {
    Scalar(Value),
    Vector { buffers: Vec<Option<Buffer>> },
}

impl PreparedArgs {
    /// Prepare the additional arguments of a call.
    pub(crate) fn prepare(runtime: &Arc<SkelCl>, args: &Args) -> Result<PreparedArgs> {
        let mut items = Vec::with_capacity(args.len());
        for item in args.items() {
            match item {
                ArgItem::Scalar(v) => items.push(PreparedItem::Scalar(*v)),
                ArgItem::Vector(v) => {
                    v.check_runtime(runtime)?;
                    items.push(PreparedItem::Vector {
                        buffers: v.prepare_buffers()?,
                    });
                }
            }
        }
        Ok(PreparedArgs { items })
    }

    /// Number of additional arguments.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether any additional argument is a vector.
    pub(crate) fn has_vectors(&self) -> bool {
        self.items
            .iter()
            .any(|i| matches!(i, PreparedItem::Vector { .. }))
    }

    /// The kernel arguments contributed by the additional arguments for a
    /// launch on `device`.
    pub(crate) fn kernel_args_for(&self, device: usize) -> Result<Vec<KernelArg>> {
        let mut out = Vec::with_capacity(self.items.len());
        for (i, item) in self.items.iter().enumerate() {
            match item {
                PreparedItem::Scalar(v) => out.push(KernelArg::Scalar(*v)),
                PreparedItem::Vector { buffers } => {
                    let buffer = buffers.get(device).cloned().flatten().ok_or_else(|| {
                        SkelError::UnsupportedArg(format!(
                            "additional vector argument {i} has no data on device {device}; \
                             set its distribution to copy (or block) before the skeleton call"
                        ))
                    })?;
                    out.push(KernelArg::Buffer(buffer));
                }
            }
        }
        Ok(out)
    }
}

/// Allocate one output buffer per active device of a partition.
pub(crate) fn alloc_output<T: Pod>(
    runtime: &Arc<SkelCl>,
    partition: &Partition,
) -> Result<Vec<Option<Buffer>>> {
    let mut buffers = vec![None; partition.device_count()];
    for device in partition.active_devices() {
        let len = partition.size(device);
        buffers[device] = Some(runtime.context().create_buffer::<T>(device, len)?);
    }
    Ok(buffers)
}

/// Per-skeleton-instance cache of the artefacts derived from a source UDF:
/// the analysed signature ([`UdfInfo`], shared by every generated kernel
/// variant of the skeleton), the scheduler cost estimate and, for binary
/// operators, the [`HostFold`]. Each is computed at most once per skeleton
/// instance instead of re-lexing and re-parsing the UDF source per launch.
pub(crate) struct UdfCache {
    info: parking_lot::Mutex<Option<Arc<crate::kernelgen::UdfInfo>>>,
    cost: parking_lot::Mutex<Option<CostHint>>,
    fold: parking_lot::Mutex<Option<Arc<HostFold>>>,
}

impl UdfCache {
    pub(crate) fn new() -> UdfCache {
        UdfCache {
            info: parking_lot::Mutex::new(None),
            cost: parking_lot::Mutex::new(None),
            fold: parking_lot::Mutex::new(None),
        }
    }

    /// The host fold of a binary-operator UDF (reduce and scan), built once.
    pub(crate) fn host_fold(&self, source: &str) -> Result<Arc<HostFold>> {
        let mut slot = self.fold.lock();
        if let Some(fold) = slot.as_ref() {
            return Ok(fold.clone());
        }
        let info = self.info(source, 2)?;
        let fold = Arc::new(HostFold::new(&info)?);
        *slot = Some(fold.clone());
        Ok(fold)
    }

    /// The analysed UDF signature; `source` and `main_inputs` are fixed per
    /// skeleton instance, so the first result is cached for good.
    pub(crate) fn info(
        &self,
        source: &str,
        main_inputs: usize,
    ) -> Result<Arc<crate::kernelgen::UdfInfo>> {
        let mut slot = self.info.lock();
        if let Some(info) = slot.as_ref() {
            return Ok(info.clone());
        }
        let info = Arc::new(crate::kernelgen::UdfInfo::analyze(source, main_inputs)?);
        *slot = Some(info.clone());
        Ok(info)
    }

    /// The per-element cost estimate used for scheduler-weighted
    /// partitioning, computed once instead of once per launch.
    pub(crate) fn cost(&self, source: &str) -> Result<CostHint> {
        let mut slot = self.cost.lock();
        if let Some(cost) = *slot {
            return Ok(cost);
        }
        let cost = udf_cost_estimate(source)?;
        *slot = Some(cost);
        Ok(cost)
    }
}

/// The per-element cost estimate of a source user-defined function, used to
/// override launch cost hints for the sequential reduce/scan kernels. The
/// UDF is resolved by the same rule kernel generation uses
/// ([`crate::kernelgen::resolve_udf`]) — the function that is compiled is
/// the function that is costed — and ambiguous sources are rejected with a
/// clear error rather than silently costing the wrong function.
pub(crate) fn udf_cost_estimate(source: &str) -> Result<CostHint> {
    let tokens = skelcl_kernel::lexer::lex(source)?;
    let unit = skelcl_kernel::parser::parse(&tokens, source)?;
    let func = crate::kernelgen::resolve_udf(&unit, "user function source")?;
    let est = skelcl_kernel::cost::estimate_function(&unit, func);
    Ok(CostHint::new(est.flops.max(1.0), est.global_bytes.max(8.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::init_gpus;
    use crate::vector::Vector;

    #[test]
    fn device_scalar_round_trips() {
        assert_eq!(f32::from_value(2.5f32.to_value()), 2.5);
        assert_eq!(i32::from_value((-7i32).to_value()), -7);
        assert_eq!(u32::from_value(9u32.to_value()), 9);
        assert_eq!(f64::from_value(1.25f64.to_value()), 1.25);
        assert_eq!(f32::type_name(), "float");
        assert_eq!(u32::type_name(), "uint");
    }

    #[test]
    fn prepared_args_scalars_and_vectors() {
        let rt = init_gpus(2);
        let img = Vector::from_vec(&rt, vec![1.0f32; 8]);
        img.set_distribution(crate::distribution::Distribution::Copy)
            .unwrap();
        let args = Args::new().arg(3.0f32).arg(&img).arg(5i32);
        let prepared = PreparedArgs::prepare(&rt, &args).unwrap();
        assert_eq!(prepared.len(), 3);
        assert!(prepared.has_vectors());
        let kargs = prepared.kernel_args_for(1).unwrap();
        assert_eq!(kargs.len(), 3);
        assert!(matches!(kargs[0], KernelArg::Scalar(Value::Float(v)) if v == 3.0));
        assert!(matches!(kargs[1], KernelArg::Buffer(_)));
        assert!(matches!(kargs[2], KernelArg::Scalar(Value::Int(5))));
    }

    #[test]
    fn prepared_args_accept_f64_vectors() {
        let rt = init_gpus(2);
        let table = Vector::from_vec(&rt, vec![1.0f64; 4]);
        table
            .set_distribution(crate::distribution::Distribution::Copy)
            .unwrap();
        let prepared = PreparedArgs::prepare(&rt, &crate::args![&table]).unwrap();
        assert!(prepared.has_vectors());
        assert!(matches!(
            prepared.kernel_args_for(0).unwrap()[0],
            KernelArg::Buffer(_)
        ));
    }

    #[test]
    fn prepared_args_reject_missing_device_copy() {
        let rt = init_gpus(2);
        let img = Vector::from_vec(&rt, vec![1.0f32; 8]);
        img.set_distribution(crate::distribution::Distribution::Single(0))
            .unwrap();
        let args = Args::new().arg(&img);
        let prepared = PreparedArgs::prepare(&rt, &args).unwrap();
        assert!(prepared.kernel_args_for(0).is_ok());
        assert!(prepared.kernel_args_for(1).is_err());
    }

    #[test]
    fn udf_cache_computes_each_artefact_once() {
        let cache = UdfCache::new();
        let src = "float func(float a, float b) { return a + b; }";
        let first = cache.info(src, 2).unwrap();
        let second = cache.info(src, 2).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "repeated analysis must return the cached Arc"
        );
        let c1 = cache.cost(src).unwrap();
        let c2 = cache.cost(src).unwrap();
        assert_eq!(c1, c2);
        assert!(c1.flops_per_item >= 1.0);
    }

    #[test]
    fn udf_cost_estimation() {
        let c = udf_cost_estimate("float f(float a, float b) { return a + b; }").unwrap();
        assert!(c.flops_per_item >= 1.0);
        assert!(udf_cost_estimate("").is_err());
    }

    #[test]
    fn udf_cost_resolves_the_function_named_func_among_helpers() {
        // The helper is heavy, the UDF trivial: the estimate must cost the
        // function named `func`, not whichever happens to come last.
        let helper_last = r#"
            float func(float a, float b) { return a + b; }
            float heavy_helper(float x) {
                float acc = x;
                for (int i = 0; i < 100; i++) { acc = acc * 1.5f + 2.0f; }
                return acc;
            }
        "#;
        let c = udf_cost_estimate(helper_last).unwrap();
        assert!(
            c.flops_per_item < 50.0,
            "cost {0} must reflect `func`, not the trailing helper",
            c.flops_per_item
        );
    }

    #[test]
    fn udf_cost_rejects_ambiguous_sources_with_a_clear_error() {
        let no_func_name = r#"
            float alpha(float a, float b) { return a + b; }
            float beta(float a, float b) { return a * b; }
        "#;
        match udf_cost_estimate(no_func_name) {
            Err(SkelError::UdfSignature(msg)) => {
                assert!(msg.contains("alpha") && msg.contains("beta"), "{msg}");
                assert!(msg.contains("func"), "{msg}");
            }
            other => panic!("expected a UdfSignature error, got {other:?}"),
        }
    }

    #[test]
    fn alloc_output_allocates_only_active_devices() {
        let rt = init_gpus(3);
        let p = Partition::compute(9, 3, &crate::distribution::Distribution::Single(1));
        let buffers = alloc_output::<f32>(&rt, &p).unwrap();
        assert!(buffers[0].is_none());
        assert!(buffers[1].is_some());
        assert!(buffers[2].is_none());
        assert_eq!(buffers[1].as_ref().unwrap().len(), 9);
    }
}
