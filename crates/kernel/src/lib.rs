//! # skelcl-kernel — an OpenCL-C-subset kernel language
//!
//! SkelCL (Steuwer, Kegel, Gorlatch; IPDPSW 2012) customises its algorithmic
//! skeletons with *user-defined functions passed as plain source strings*.
//! The library merges the user function with pre-implemented skeleton code,
//! producing a valid OpenCL kernel which is compiled at runtime by the OpenCL
//! implementation.
//!
//! This crate reproduces that mechanism without a GPU: it implements a small
//! OpenCL-C-like language — enough for the kernels that appear in the paper
//! (SAXPY, element-wise updates, reductions, scans, Mandelbrot) — consisting
//! of
//!
//! * a [`lexer`] and [`parser`] producing an [`ast`],
//! * a [`sema`] pass (symbol resolution and type checking),
//! * a [`compile`] stage lowering the checked AST into flat, register-based
//!   bytecode — names resolved to numbered slots, control flow lowered to
//!   jumps, FLOP/byte costs attributed per instruction at compile time,
//! * a [`vm`] (register-based bytecode VM) that executes a kernel for one
//!   work-item at a time against argument [`value::Value`]s and buffer views,
//! * a [`native`] tier that closure-compiles the bytecode into typed,
//!   lane-batched blocks — the fast engine behind multi-item launches,
//! * an [`interp`] (tree-walking interpreter) retained as the
//!   differential-testing oracle for both,
//! * a static [`cost`] estimator that counts floating-point and memory
//!   operations per work-item, used by the simulator's analytical cost model,
//! * a [`compose`] module with token-level identifier renaming and
//!   definition listing, the substrate for cross-stage UDF fusion in the
//!   skeleton library's lazy `plan` subsystem.
//!
//! The entry point is [`Program::build`], mirroring `clBuildProgram`: it
//! parses, checks and **compiles to bytecode once**, returning the compiled
//! program from which [`KernelHandle`]s can be looked up by name; every
//! launch then runs flat bytecode instead of re-walking the AST.
//!
//! ```
//! use skelcl_kernel::{Program, value::Value, interp::ArgBinding};
//!
//! let src = r#"
//!     float func(float x, float y, float a) { return a * x + y; }
//!     __kernel void SKELCL_ZIP(__global float* left, __global float* right,
//!                              __global float* out, int n, float a) {
//!         int gid = get_global_id(0);
//!         if (gid < n) { out[gid] = func(left[gid], right[gid], a); }
//!     }
//! "#;
//! let program = Program::build(src).unwrap();
//! let kernel = program.kernel("SKELCL_ZIP").unwrap();
//!
//! let mut left = vec![1.0f32, 2.0, 3.0];
//! let mut right = vec![10.0f32, 20.0, 30.0];
//! let mut out = vec![0.0f32; 3];
//! let mut args = vec![
//!     ArgBinding::buffer_f32(&mut left),
//!     ArgBinding::buffer_f32(&mut right),
//!     ArgBinding::buffer_f32(&mut out),
//!     ArgBinding::Scalar(Value::Int(3)),
//!     ArgBinding::Scalar(Value::Float(2.0)),
//! ];
//! program.run_ndrange(&kernel, 3, &mut args).unwrap();
//! assert_eq!(out, vec![12.0, 24.0, 36.0]);
//! ```

pub mod ast;
pub mod builtins;
pub mod compile;
pub mod compose;
pub mod cost;
pub mod diag;
pub mod interp;
pub mod lexer;
pub mod native;
pub mod pack;
pub mod parser;
pub mod sema;
pub mod token;
pub mod types;
pub mod value;
pub mod vm;

use std::sync::Arc;

use crate::ast::TranslationUnit;
use crate::compile::CompiledUnit;
use crate::diag::KernelError;
use crate::interp::{ArgBinding, Interpreter, WorkItem};
use crate::vm::Vm;

pub use crate::native::Tier;

/// A compiled kernel program: the checked AST of a translation unit plus its
/// bytecode lowering and the list of `__kernel` entry points.
///
/// This is the analogue of an OpenCL `cl_program` after `clBuildProgram`:
/// the bytecode is produced once at build time and shared (via `Arc`) by
/// every clone of the program, so repeated launches pay no per-call
/// compilation or name-resolution cost.
#[derive(Debug, Clone)]
pub struct Program {
    unit: Arc<TranslationUnit>,
    compiled: Arc<CompiledUnit>,
    source: Arc<str>,
    native: Arc<native::NativeState>,
}

/// Per-launch execution telemetry returned by
/// [`Program::run_ndrange_traced`]: which tier actually ran and what the
/// native tier did, feeding the simulator's per-device counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchTrace {
    /// The tier that executed the launch (never [`Tier::Auto`]: the
    /// launch-size rule is resolved before running). A native launch in
    /// which no batch completed natively reports [`Tier::Scalar`]: its work
    /// ran on the scalar VM.
    pub tier: Tier,
    /// Whether this launch performed the kernel's native compilation (at
    /// most one launch per kernel reports `true`).
    pub native_compiled: bool,
    /// Wall-clock nanoseconds of the native compilation, reported on every
    /// native launch of the kernel (the artifact is cached).
    pub native_compile_ns: u64,
    /// Lane batches completed by the native tier.
    pub native_batches: u64,
    /// Lane batches the native tier aborted and replayed through the scalar
    /// VM (divergence, hazards, or runtime errors).
    pub replayed_batches: u64,
    /// Why the kernel fell back to the scalar VM despite a native request
    /// (the bytecode shape is ineligible), if it did.
    pub fallback: Option<String>,
}

/// A handle to a `__kernel` entry point inside a [`Program`]
/// (the analogue of a `cl_kernel`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelHandle {
    /// Name of the kernel function.
    pub name: String,
    /// Index of the function in the translation unit.
    pub(crate) index: usize,
    /// Parameter signature (for argument validation by callers).
    pub params: Vec<KernelParam>,
}

impl KernelHandle {
    /// Index of the kernel's function in the translation unit (also valid
    /// into [`compile::CompiledUnit::functions`]), for callers driving the
    /// [`vm::Vm`] or [`interp::Interpreter`] directly.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// Description of one kernel parameter, exposed so that runtimes can validate
/// argument bindings before launching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelParam {
    /// Parameter name as written in the source.
    pub name: String,
    /// `true` if the parameter is a global-memory pointer (a buffer).
    pub is_buffer: bool,
    /// Scalar element type of the parameter (the pointee type for buffers).
    pub ty: types::ScalarType,
}

impl Program {
    /// Parse, resolve and type-check `source`, producing a runnable program.
    ///
    /// Mirrors `clCreateProgramWithSource` + `clBuildProgram`.
    pub fn build(source: &str) -> Result<Self, KernelError> {
        let tokens = lexer::lex(source)?;
        let unit = parser::parse(&tokens, source)?;
        let unit = sema::check(unit)?;
        let compiled = compile::compile(&unit)?;
        let initial = match std::env::var("SKELCL_KERNEL_TIER") {
            Ok(s) => Some(
                Tier::parse(&s)
                    .map_err(|e| KernelError::run(format!("SKELCL_KERNEL_TIER: {}", e.message)))?,
            ),
            Err(_) => None,
        };
        let num_functions = unit.functions.len();
        Ok(Program {
            unit: Arc::new(unit),
            compiled: Arc::new(compiled),
            source: Arc::from(source),
            native: Arc::new(native::NativeState::new(num_functions, initial)),
        })
    }

    /// Select the execution [`Tier`] for every subsequent launch of this
    /// program (shared across clones). [`Tier::Auto`] — the default —
    /// decides per launch by its size (see [`Program::run_ndrange_traced`]).
    pub fn set_tier(&self, tier: Tier) {
        self.native.set_tier(tier);
    }

    /// The currently selected execution [`Tier`].
    pub fn tier(&self) -> Tier {
        self.native.tier()
    }

    /// Compile (or fetch the cached) native-tier artifact for `kernel`,
    /// exposing the closure listing or the ineligibility reason. Used by
    /// tooling (`examples/dump_bytecode.rs`); launches call this lazily.
    pub fn native_outcome(&self, kernel: &KernelHandle) -> &native::CompileOutcome {
        self.native
            .kernel(kernel.index)
            .get_or_compile(&self.compiled, kernel.index)
            .0
    }

    /// The original source code the program was built from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The checked translation unit.
    pub fn unit(&self) -> &TranslationUnit {
        &self.unit
    }

    /// The bytecode lowering of the translation unit.
    pub fn compiled(&self) -> &CompiledUnit {
        &self.compiled
    }

    /// Names of all `__kernel` entry points, in declaration order.
    pub fn kernel_names(&self) -> Vec<String> {
        self.unit
            .functions
            .iter()
            .filter(|f| f.is_kernel)
            .map(|f| f.name.clone())
            .collect()
    }

    /// Look up a kernel entry point by name.
    pub fn kernel(&self, name: &str) -> Result<KernelHandle, KernelError> {
        let (index, func) = self
            .unit
            .functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.is_kernel && f.name == name)
            .ok_or_else(|| KernelError::no_such_kernel(name))?;
        let params = func
            .params
            .iter()
            .map(|p| KernelParam {
                name: p.name.clone(),
                is_buffer: p.ty.is_pointer(),
                ty: p.ty.scalar(),
            })
            .collect();
        Ok(KernelHandle {
            name: name.to_string(),
            index,
            params,
        })
    }

    /// Estimate the per-work-item cost of a kernel (floating point operations
    /// and bytes of global memory traffic). Used by the simulator's
    /// analytical device model and by SkelCL's scheduler (paper, Section V).
    pub fn cost_estimate(&self, kernel: &KernelHandle) -> cost::CostEstimate {
        cost::estimate_function(&self.unit, &self.unit.functions[kernel.index])
    }

    /// Execute `kernel` for a single work-item (through the bytecode VM).
    ///
    /// `args` must match the kernel signature (validated). The bindings are
    /// read and written in place.
    pub fn run_work_item(
        &self,
        kernel: &KernelHandle,
        item: WorkItem,
        args: &mut [ArgBinding<'_>],
    ) -> Result<(), KernelError> {
        let mut vm = Vm::new(&self.compiled);
        vm.run_kernel(kernel.index, item, args)
    }

    /// Execute `kernel` over a one-dimensional NDRange of `global_size`
    /// work-items on the selected [`Tier`]. This is the
    /// execution path used by the device simulator (`oclsim`), which models
    /// hardware parallelism in virtual time rather than in host threads.
    pub fn run_ndrange(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<(), KernelError> {
        self.run_ndrange_measured(kernel, global_size, args)
            .map(|_| ())
    }

    /// Execute `kernel` over a one-dimensional NDRange like
    /// [`Program::run_ndrange`], and additionally return the *measured*
    /// execution statistics (flops, global-memory bytes, statement count)
    /// summed over all work-items. The device simulator uses these measured
    /// counts — rather than the static [`Program::cost_estimate`] — to charge
    /// virtual time, so data-dependent loops are accounted for exactly.
    ///
    /// Under [`Tier::Auto`] a launch of two or more work-items runs on the
    /// native tier in lane batches of [`native::BATCH_LANES`] (see the
    /// [`native`] module docs — batching is semantically invisible: results,
    /// stats and errors are identical to the one-item-at-a-time loop of the
    /// scalar VM, which runs everything else); argument validation happens
    /// once per launch instead of once per item.
    pub fn run_ndrange_measured(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<interp::ExecStats, KernelError> {
        self.run_ndrange_traced(kernel, global_size, args)
            .map(|(stats, _)| stats)
    }

    /// Tier-dispatching twin of [`Program::run_ndrange_measured`] that also
    /// returns a [`LaunchTrace`] describing which engine ran and what the
    /// native tier did. The simulator uses the trace to feed per-device tier
    /// counters; results, stats and errors are identical across tiers.
    ///
    /// [`Tier::Auto`] runs a launch of two or more work-items on the native
    /// tier when the kernel is eligible, and one-item launches (the
    /// sequential reduce and scan loops) on the scalar VM.
    pub fn run_ndrange_traced(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<(interp::ExecStats, LaunchTrace), KernelError> {
        let tier = self.native.tier();
        let mut trace = LaunchTrace {
            tier,
            ..LaunchTrace::default()
        };
        let stats = match tier {
            Tier::Interp => self.run_ndrange_measured_interp(kernel, global_size, args)?,
            Tier::Native => self.run_ndrange_native(kernel, global_size, args, &mut trace)?,
            Tier::Auto if global_size >= 2 => {
                self.run_ndrange_native(kernel, global_size, args, &mut trace)?
            }
            // A one-item native launch is a single-lane batch whose undo
            // log records every store of the item's loop. Forcing the
            // `dot_scan` perfbench workload native on a 2-CPU host raised
            // its peak RSS from 53 to 93–98 MiB, while its iterations ran
            // about 30 % faster. Lowering such loops to partial
            // accumulators would lift this rule.
            Tier::Scalar | Tier::Auto => {
                trace.tier = Tier::Scalar;
                self.run_ndrange_measured_scalar(kernel, global_size, args)?
            }
        };
        Ok((stats, trace))
    }

    /// Run a launch on the native tier, falling back to the scalar VM when
    /// the kernel's bytecode is ineligible (recorded in `trace.fallback`).
    /// Aborted batches (divergence, hazards, runtime errors) are rolled back
    /// and replayed through the scalar VM, which is authoritative for
    /// results, stats and error messages; after a bail the scalar VM also
    /// runs the rest of the launch.
    fn run_ndrange_native(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
        trace: &mut LaunchTrace,
    ) -> Result<interp::ExecStats, KernelError> {
        let (outcome, first) = self
            .native
            .kernel(kernel.index)
            .get_or_compile(&self.compiled, kernel.index);
        trace.native_compiled = first;
        trace.native_compile_ns = outcome.compile_ns;
        let nk = match &outcome.result {
            Ok(nk) => Arc::clone(nk),
            Err(reason) => {
                trace.fallback = Some(reason.clone());
                trace.tier = Tier::Scalar;
                return self.run_ndrange_measured_scalar(kernel, global_size, args);
            }
        };
        trace.tier = Tier::Native;
        let mut vm = Vm::new(&self.compiled);
        vm.bind_kernel(kernel.index, args)?;
        let stencil = vm.stencil();
        let mut exec = native::NativeExec::new(nk);
        let mut native_stats = interp::ExecStats::default();
        let mut items = [WorkItem::linear(0, global_size); native::BATCH_LANES];
        let mut gid = 0;
        while gid < global_size {
            let n = (global_size - gid).min(native::BATCH_LANES);
            for (k, slot) in items.iter_mut().enumerate().take(n) {
                *slot = WorkItem::linear(gid + k, global_size);
            }
            gid += n;
            let abort = match exec.execute_batch(
                &items[..n],
                args,
                stencil,
                vm.max_loop_iterations,
                &mut native_stats,
            ) {
                Ok(()) => {
                    trace.native_batches += 1;
                    continue;
                }
                Err(abort) => abort,
            };
            exec.rollback(args);
            trace.replayed_batches += 1;
            for item in &items[..n] {
                vm.run_item(*item, args)?;
            }
            if abort == native::NativeAbort::Bail {
                // Cross-lane hazard or unsupported divergence: this kernel
                // shape won't batch, so the scalar VM finishes the launch.
                for g in gid..global_size {
                    vm.run_item(WorkItem::linear(g, global_size), args)?;
                }
                break;
            }
        }
        if trace.native_batches == 0 && global_size > 0 {
            trace.tier = Tier::Scalar;
        }
        // Both accumulators hold sums of dyadic per-instruction costs well
        // below 2^53, so adding them is exact regardless of order.
        let mut stats = vm.stats();
        stats.flops += native_stats.flops;
        stats.global_bytes += native_stats.global_bytes;
        stats.ops += native_stats.ops;
        Ok(stats)
    }

    /// Scalar (one-work-item-at-a-time) twin of
    /// [`Program::run_ndrange_measured`]: the [`Tier::Scalar`] engine,
    /// callable directly so benchmarks can quantify the native tier's win
    /// and the differential suites can pin both paths against the oracle.
    pub fn run_ndrange_measured_scalar(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<interp::ExecStats, KernelError> {
        let mut vm = Vm::new(&self.compiled);
        vm.bind_kernel(kernel.index, args)?;
        for gid in 0..global_size {
            vm.run_item(WorkItem::linear(gid, global_size), args)?;
        }
        Ok(vm.stats())
    }

    /// Execute `kernel` over an NDRange through the tree-walking
    /// interpreter. The interpreter is the differential-testing oracle for
    /// the bytecode VM — slower, but semantically authoritative; the
    /// property suite asserts both engines produce identical results and
    /// [`interp::ExecStats`].
    pub fn run_ndrange_interp(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<(), KernelError> {
        self.run_ndrange_measured_interp(kernel, global_size, args)
            .map(|_| ())
    }

    /// Run a *single* work-item of a larger NDRange through the interpreter
    /// oracle and return just that item's measured stats. The differential
    /// suites use this to rebuild a launch's totals strictly per item and
    /// assert the native tier's per-batch accumulation equals the sum.
    pub fn run_ndrange_measured_interp_item(
        &self,
        kernel: &KernelHandle,
        global_id: usize,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<interp::ExecStats, KernelError> {
        let mut interp = Interpreter::new(&self.unit);
        interp.run_kernel(kernel.index, WorkItem::linear(global_id, global_size), args)?;
        Ok(interp.stats())
    }

    /// Oracle twin of [`Program::run_ndrange_measured`]: runs every
    /// work-item through the AST interpreter and returns its measured stats.
    pub fn run_ndrange_measured_interp(
        &self,
        kernel: &KernelHandle,
        global_size: usize,
        args: &mut [ArgBinding<'_>],
    ) -> Result<interp::ExecStats, KernelError> {
        let mut interp = Interpreter::new(&self.unit);
        for gid in 0..global_size {
            let item = WorkItem {
                global_id: gid,
                global_size,
                local_id: gid,
                local_size: global_size,
                group_id: 0,
            };
            interp.run_kernel(kernel.index, item, args)?;
        }
        Ok(interp.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn build_and_list_kernels() {
        let src = r#"
            float helper(float x) { return x + 1.0f; }
            __kernel void a(__global float* v, int n) {
                int i = get_global_id(0);
                if (i < n) { v[i] = helper(v[i]); }
            }
            __kernel void b(__global int* v) {
                int i = get_global_id(0);
                v[i] = i;
            }
        "#;
        let p = Program::build(src).unwrap();
        assert_eq!(p.kernel_names(), vec!["a".to_string(), "b".to_string()]);
        assert!(p.kernel("a").is_ok());
        assert!(p.kernel("helper").is_err());
        assert!(p.kernel("missing").is_err());
    }

    #[test]
    fn saxpy_end_to_end() {
        let src = r#"
            float func(float x, float y, float a) { return a * x + y; }
            __kernel void zip(__global float* xs, __global float* ys,
                              __global float* out, int n, float a) {
                int gid = get_global_id(0);
                if (gid < n) { out[gid] = func(xs[gid], ys[gid], a); }
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("zip").unwrap();
        assert_eq!(k.params.len(), 5);
        assert!(k.params[0].is_buffer);
        assert!(!k.params[3].is_buffer);

        let mut xs = vec![1.0f32, 2.0, 3.0, 4.0];
        let mut ys = vec![5.0f32, 6.0, 7.0, 8.0];
        let mut out = vec![0.0f32; 4];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut xs),
            ArgBinding::buffer_f32(&mut ys),
            ArgBinding::buffer_f32(&mut out),
            ArgBinding::Scalar(Value::Int(4)),
            ArgBinding::Scalar(Value::Float(3.0)),
        ];
        p.run_ndrange(&k, 4, &mut args).unwrap();
        assert_eq!(out, vec![8.0, 12.0, 16.0, 20.0]);
    }

    #[test]
    fn cost_estimate_nonzero_for_arithmetic_kernel() {
        let src = r#"
            __kernel void scale(__global float* v, int n, float a) {
                int gid = get_global_id(0);
                if (gid < n) { v[gid] = v[gid] * a + 1.0f; }
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("scale").unwrap();
        let c = p.cost_estimate(&k);
        // The `if` branch is weighted 0.5 by the estimator, so the two flops
        // and two 4-byte accesses inside it count half.
        assert!(c.flops >= 1.0);
        assert!(c.global_bytes >= 4.0);
    }
}
