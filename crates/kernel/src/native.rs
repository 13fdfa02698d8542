//! Native execution tier: bytecode closure-compiled into pre-linked basic
//! blocks over a typed, struct-of-arrays register file.
//!
//! The scalar VM ([`crate::vm::Vm`]) decodes every instruction once per
//! work-item and moves every operand through the dynamically-typed [`Value`]
//! enum: a dispatch and a discriminant match per item per instruction, and
//! results that cannot be auto-vectorised. This module runs work-items in
//! lockstep batches of [`BATCH_LANES`] lanes instead and removes both
//! interpretation layers:
//!
//! * a **dataflow typing pass** runs over the basic blocks of the flat
//!   bytecode and assigns every register *at every program point* one of
//!   four concrete kinds (`f32`, `f64`, `i32`, `bool`) — flow-sensitively,
//!   because the compiler freely reuses temporary registers across types;
//! * each instruction is then compiled to a **monomorphized closure** over a
//!   plain struct-of-arrays register file (`Vec<f32>` / `Vec<f64>` /
//!   `Vec<i32>` / `Vec<bool>`, 64 lanes per register row). Straight-line
//!   f32/i32 arithmetic becomes tight chunked loops over local fixed-size
//!   arrays that LLVM auto-vectorises; buffer accesses whose index is the
//!   work-item's global id (tracked as an *iota* kind) become bounds-checked
//!   block copies, and so do accesses whose addresses turn out contiguous
//!   at run time (`a0 + lane`, checked per batch); stencil `get(dx, dy)`
//!   with the same offsets on every lane of a batch is one span copy of the
//!   `f32` input, and only lanes past a row edge (or a batch with per-lane
//!   offsets) go through the interpreter's `stencil_get`;
//! * basic blocks are **pre-linked**: jump targets are resolved to block
//!   indices at compile time and each block's instruction costs are
//!   pre-summed, charged `cost × active_lanes` once per block entry.
//!
//! Execution stays bit-identical to the interpreter oracle. Any shape the
//! native model cannot reproduce exactly is either rejected at native
//! compile time (the kernel permanently falls back to the scalar VM, with
//! a human-readable reason) or aborts the batch at runtime: every buffer
//! store is rolled back through an undo log and the batch is replayed
//! through the scalar engine, which is the authoritative semantics —
//! results, [`crate::interp::ExecStats`] and error messages included. All
//! per-instruction cost constants are dyadic rationals far below 2⁵³, so
//! charging `cost × active_lanes` per block is exactly the oracle's
//! per-item, per-instruction sum. Single-lane batches skip the cross-lane
//! hazard discipline entirely (sequential order is trivially preserved),
//! which makes single-work-item reduce/scan loops native-eligible with
//! arbitrary addresses; [`crate::Tier::Auto`] still runs one-item launches
//! on the scalar VM (see [`crate::Program::run_ndrange_traced`]).
//!
//! ## Cross-lane hazards
//!
//! Lockstep runs instruction *k* for every lane before instruction *k + 1*;
//! sequential order runs lane ℓ to completion before lane ℓ + 1. The two
//! differ only when one lane touches an element another lane stores, so each
//! multi-lane batch tracks, per buffer argument, whether it has been loaded,
//! loaded at a foreign index (not the lane's own global id), stored, or
//! written by a shifted store:
//!
//! * **own-index stores** (every lane writes its own global id) are safe as
//!   long as no lane loads that buffer at a foreign index in the same
//!   batch, before or after the store; otherwise the batch bails;
//! * a **shifted store** (lane ℓ writes `a0 + ℓ`, not its own id — the
//!   MapOverlap kernel's `skelcl_out[skelcl_idx]`, shifted by
//!   `halo × width`) is safe when it is the batch's only access to that
//!   buffer: it requires that nothing loaded or stored the buffer earlier in
//!   the batch, and any later load or store of it bails. The lanes write
//!   distinct elements that no other lane reads or writes, so lockstep and
//!   sequential order leave the same memory;
//! * every other store (strided, scattered) bails.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use crate::ast::BinOp;
use crate::builtins::Builtin;
use crate::compile::{CompiledUnit, Op};
use crate::diag::KernelError;
use crate::interp::{stencil_get, ArgBinding, BufferView, ExecStats, StencilCtx, WorkItem};
use crate::types::{ScalarType, Type};
use crate::value::Value;
use crate::vm::{exit_chain_cost, vm_eval_binary};

/// Number of work-items the native tier executes per lockstep batch: the
/// row width of its struct-of-arrays register file.
pub const BATCH_LANES: usize = 64;

/// Which execution engine runs kernel launches. Settable per program via
/// [`crate::Program::set_tier`] or globally via the `SKELCL_KERNEL_TIER`
/// environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// The tree-walking interpreter (the bit-exact oracle; slowest).
    Interp,
    /// The scalar register VM, one work-item at a time.
    Scalar,
    /// The closure-compiled native tier (this module).
    Native,
    /// Per-launch selection by launch size: launches of two or more
    /// work-items run on the native tier when the kernel is eligible,
    /// everything else on the scalar VM.
    #[default]
    Auto,
}

/// Valid tier names, for error messages.
pub const TIER_NAMES: &str = "interp, scalar, native, auto";

impl Tier {
    /// Parse a tier name (as accepted by `SKELCL_KERNEL_TIER`).
    pub fn parse(s: &str) -> Result<Tier, KernelError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "interp" | "interpreter" => Ok(Tier::Interp),
            "scalar" => Ok(Tier::Scalar),
            "native" => Ok(Tier::Native),
            "auto" => Ok(Tier::Auto),
            other => Err(KernelError::run(format!(
                "unknown kernel tier `{other}`: expected one of {TIER_NAMES}"
            ))),
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Tier::Interp => 0,
            Tier::Scalar => 1,
            Tier::Native => 2,
            Tier::Auto => 3,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Tier> {
        Some(match v {
            0 => Tier::Interp,
            1 => Tier::Scalar,
            2 => Tier::Native,
            3 => Tier::Auto,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Tier::Interp => "interp",
            Tier::Scalar => "scalar",
            Tier::Native => "native",
            Tier::Auto => "auto",
        })
    }
}

impl std::str::FromStr for Tier {
    type Err = KernelError;
    fn from_str(s: &str) -> Result<Tier, KernelError> {
        Tier::parse(s)
    }
}

/// Per-[`crate::Program`] native-tier state, shared across clones of the
/// program (and across the simulator's per-device worker threads).
pub(crate) struct NativeState {
    /// Selected [`Tier`] as `u8`; `u8::MAX` means "unset" (= [`Tier::Auto`]).
    tier: AtomicU8,
    kernels: Vec<KernelNativeState>,
}

impl std::fmt::Debug for NativeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeState")
            .field("tier", &self.tier())
            .field("kernels", &self.kernels.len())
            .finish()
    }
}

impl NativeState {
    pub(crate) fn new(num_functions: usize, initial: Option<Tier>) -> NativeState {
        NativeState {
            tier: AtomicU8::new(initial.map_or(u8::MAX, Tier::as_u8)),
            kernels: (0..num_functions)
                .map(|_| KernelNativeState::default())
                .collect(),
        }
    }

    pub(crate) fn tier(&self) -> Tier {
        Tier::from_u8(self.tier.load(Ordering::Relaxed)).unwrap_or(Tier::Auto)
    }

    pub(crate) fn set_tier(&self, tier: Tier) {
        self.tier.store(tier.as_u8(), Ordering::Relaxed);
    }

    pub(crate) fn kernel(&self, index: usize) -> &KernelNativeState {
        &self.kernels[index]
    }
}

/// Per-kernel cached native compilation result.
#[derive(Default)]
pub(crate) struct KernelNativeState {
    compiled: OnceLock<CompileOutcome>,
}

/// The cached outcome of one native compilation attempt.
pub struct CompileOutcome {
    /// The compiled kernel, or the human-readable ineligibility reason.
    pub result: Result<Arc<NativeKernel>, String>,
    /// Wall-clock nanoseconds the compilation took.
    pub compile_ns: u64,
}

impl KernelNativeState {
    /// The compiled artifact (compiling on first use), plus whether this
    /// call performed the compilation.
    pub(crate) fn get_or_compile(
        &self,
        unit: &CompiledUnit,
        index: usize,
    ) -> (&CompileOutcome, bool) {
        let mut first = false;
        let out = self.compiled.get_or_init(|| {
            first = true;
            let t0 = std::time::Instant::now();
            let result = compile_kernel(unit, index).map(Arc::new);
            CompileOutcome {
                result,
                compile_ns: t0.elapsed().as_nanos() as u64,
            }
        });
        (out, first)
    }
}

// ---------------------------------------------------------------------------
// Typed register kinds and the dataflow lattice
// ---------------------------------------------------------------------------

/// The concrete storage kind of a register at a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NKind {
    F32,
    F64,
    I32,
    Bool,
}

impl NKind {
    fn of(s: ScalarType) -> Option<NKind> {
        match s {
            ScalarType::Float => Some(NKind::F32),
            ScalarType::Double => Some(NKind::F64),
            ScalarType::Int => Some(NKind::I32),
            ScalarType::Bool => Some(NKind::Bool),
            ScalarType::Uint => None,
        }
    }

    fn scalar(self) -> ScalarType {
        match self {
            NKind::F32 => ScalarType::Float,
            NKind::F64 => ScalarType::Double,
            NKind::I32 => ScalarType::Int,
            NKind::Bool => ScalarType::Bool,
        }
    }
}

/// One lattice cell of the flow-sensitive typing pass. `iota` marks an `i32`
/// register known to hold `first_global_id + lane` in every lane (the value
/// of `get_global_id(0)` under linear launches), which unlocks contiguous
/// buffer fast paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// Not written on any path seen so far (the lattice bottom; the compiler
    /// guarantees every *executed* read is dominated by a write).
    Unset,
    /// Holds this kind on every path.
    Known { kind: NKind, iota: bool },
    /// Holds differently-typed values on merging paths (the lattice top).
    Conflict,
}

impl Cell {
    fn known(kind: NKind) -> Cell {
        Cell::Known { kind, iota: false }
    }

    fn merge(a: Cell, b: Cell) -> Cell {
        match (a, b) {
            (Cell::Unset, x) | (x, Cell::Unset) => x,
            (Cell::Known { kind: k1, iota: i1 }, Cell::Known { kind: k2, iota: i2 })
                if k1 == k2 =>
            {
                Cell::Known {
                    kind: k1,
                    iota: i1 && i2,
                }
            }
            _ => Cell::Conflict,
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime state: register file, undo log, execution context
// ---------------------------------------------------------------------------

/// Struct-of-arrays register file: four parallel arrays, each holding
/// `BATCH_LANES` values per register row. A register's value lives in the
/// array of its current kind (the dataflow pass guarantees reader and writer
/// agree at every program point).
pub(crate) struct RegFile {
    f32s: Vec<f32>,
    f64s: Vec<f64>,
    i32s: Vec<i32>,
    bools: Vec<bool>,
}

impl RegFile {
    fn new(rows: usize) -> RegFile {
        let n = rows * BATCH_LANES;
        RegFile {
            f32s: vec![0.0; n],
            f64s: vec![0.0; n],
            i32s: vec![0; n],
            bools: vec![false; n],
        }
    }
}

/// Ordered log of buffer mutations, for exact rollback on batch abort.
/// Contiguous f32 stores log a span backed by a flat arena; everything else
/// logs per-element [`Value`]s restored bit-exactly via
/// [`BufferView::restore`]. Entries are undone strictly newest-first.
#[derive(Default)]
pub(crate) struct UndoLog {
    entries: Vec<UndoEntry>,
    arena: Vec<f32>,
}

enum UndoEntry {
    Span {
        slot: u16,
        start: usize,
        arena_off: usize,
        len: usize,
    },
    Elem {
        slot: u16,
        idx: usize,
        old: Value,
    },
}

impl UndoLog {
    fn clear(&mut self) {
        self.entries.clear();
        self.arena.clear();
    }

    fn push_span(&mut self, slot: u16, start: usize, old: &[f32]) {
        let arena_off = self.arena.len();
        self.arena.extend_from_slice(old);
        self.entries.push(UndoEntry::Span {
            slot,
            start,
            arena_off,
            len: old.len(),
        });
    }

    fn push_elem(&mut self, slot: u16, idx: usize, old: Value) {
        self.entries.push(UndoEntry::Elem { slot, idx, old });
    }

    /// Restore every logged mutation, newest first.
    fn rollback(&mut self, args: &mut [ArgBinding<'_>]) {
        while let Some(entry) = self.entries.pop() {
            match entry {
                UndoEntry::Span {
                    slot,
                    start,
                    arena_off,
                    len,
                } => {
                    if let ArgBinding::Buffer(BufferView::F32(buf)) = &mut args[slot as usize] {
                        buf[start..start + len]
                            .copy_from_slice(&self.arena[arena_off..arena_off + len]);
                    }
                    self.arena.truncate(arena_off);
                }
                UndoEntry::Elem { slot, idx, old } => {
                    if let ArgBinding::Buffer(view) = &mut args[slot as usize] {
                        view.restore(idx, old);
                    }
                }
            }
        }
        self.arena.clear();
    }
}

/// Why a native batch could not complete. The caller rolls back the undo
/// log and replays the batch through the scalar engine (authoritative for results, stats and errors);
/// `Bail` additionally retires the native tier for the launch remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NativeAbort {
    /// A lane hit a runtime error; the replay reproduces it verbatim.
    Error,
    /// Divergence or a cross-lane hazard the native model does not order.
    Bail,
}

/// Mutable execution state threaded through every step closure.
pub(crate) struct ExecCtx<'a, 'b> {
    regs: &'a mut RegFile,
    items: &'a [WorkItem],
    /// Active lanes are the dense prefix `0..n_active` (suffix-only
    /// retirement keeps them contiguous for the vectorized loops).
    n_active: usize,
    args: &'a mut [ArgBinding<'b>],
    stencil: Option<StencilCtx>,
    undo: &'a mut UndoLog,
    /// Per-argument-slot access history of the current batch.
    slots: &'a mut [SlotFlags],
    /// Scratch for the lane addresses of one buffer access.
    addrs: &'a mut [i64; BATCH_LANES],
    /// Cross-lane hazard checks; off for single-lane batches, whose
    /// sequential order is trivially preserved.
    hazards: bool,
}

/// What the current batch has done to one buffer argument slot so far; the
/// cross-lane hazard rules (see the module docs) read and update it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlotFlags {
    /// Some lane loaded from the slot (any load kind).
    loaded: bool,
    /// Some lane loaded an element other than its own global id.
    foreign_load: bool,
    /// Some lane stored to the slot.
    stored: bool,
    /// A shifted store wrote the slot: every further access bails.
    shifted: bool,
}

impl ExecCtx<'_, '_> {
    /// Record a load from `slot`; `foreign` says whether some lane read an
    /// element other than its own global id. Bails when lockstep order could
    /// observe a store that sequential order would not (or vice versa).
    #[inline(always)]
    fn note_load(&mut self, slot: usize, foreign: bool) -> Result<(), NativeAbort> {
        if !self.hazards {
            return Ok(());
        }
        let f = &mut self.slots[slot];
        if f.shifted || (foreign && f.stored) {
            return Err(NativeAbort::Bail);
        }
        f.loaded = true;
        f.foreign_load |= foreign;
        Ok(())
    }

    /// Record a store to `slot` whose active-lane addresses are each lane's
    /// own global id (`own`) or `a0 + lane` (`contiguous`). Own-index stores
    /// are safe unless the slot saw a foreign load; a shifted store is safe
    /// only as the batch's sole access to the slot; anything else bails.
    #[inline(always)]
    fn note_store(&mut self, slot: usize, own: bool, contiguous: bool) -> Result<(), NativeAbort> {
        if !self.hazards {
            return Ok(());
        }
        let f = &mut self.slots[slot];
        let safe = !f.shifted
            && if own {
                !f.foreign_load
            } else {
                contiguous && !f.loaded && !f.stored
            };
        if !safe {
            return Err(NativeAbort::Bail);
        }
        f.shifted = !own;
        f.stored = true;
        Ok(())
    }
}

type StepFn =
    Box<dyn for<'a, 'b> Fn(&mut ExecCtx<'a, 'b>) -> Result<(), NativeAbort> + Send + Sync>;

/// Identity helper that pins the closure to the higher-ranked `Fn` bound.
fn step<F>(f: F) -> StepFn
where
    F: for<'a, 'b> Fn(&mut ExecCtx<'a, 'b>) -> Result<(), NativeAbort> + Send + Sync + 'static,
{
    Box::new(f)
}

#[inline(always)]
fn read_value(regs: &RegFile, kind: NKind, row: usize, lane: usize) -> Value {
    match kind {
        NKind::F32 => Value::Float(regs.f32s[row + lane]),
        NKind::F64 => Value::Double(regs.f64s[row + lane]),
        NKind::I32 => Value::Int(regs.i32s[row + lane]),
        NKind::Bool => Value::Bool(regs.bools[row + lane]),
    }
}

#[inline(always)]
fn write_value(regs: &mut RegFile, kind: NKind, row: usize, lane: usize, v: Value) {
    match kind {
        NKind::F32 => {
            regs.f32s[row + lane] = match v {
                Value::Float(x) => x,
                other => other.as_f64() as f32,
            }
        }
        NKind::F64 => regs.f64s[row + lane] = v.as_f64(),
        NKind::I32 => {
            regs.i32s[row + lane] = match v {
                Value::Int(x) => x,
                other => other.as_i64() as i32,
            }
        }
        NKind::Bool => regs.bools[row + lane] = v.as_bool(),
    }
}

/// The buffer address held in `row` at `lane` (exactly `Value::as_i64` of
/// the register's typed value).
#[inline(always)]
fn addr_of(regs: &RegFile, kind: NKind, row: usize, lane: usize) -> i64 {
    match kind {
        NKind::F32 => regs.f32s[row + lane] as i64,
        NKind::F64 => regs.f64s[row + lane] as i64,
        NKind::I32 => regs.i32s[row + lane] as i64,
        NKind::Bool => i64::from(regs.bools[row + lane]),
    }
}

/// Fill `addrs` with the buffer addresses of the active lanes held in `row`
/// (one per entry of `items`) and classify them: `(contiguous, own)`, where
/// `contiguous` means lane ℓ addresses `addrs[0] + ℓ` and `own` means every
/// lane addresses its own global id.
#[inline(always)]
fn lane_addrs(
    regs: &RegFile,
    kind: NKind,
    row: usize,
    items: &[WorkItem],
    addrs: &mut [i64],
) -> (bool, bool) {
    let (mut contiguous, mut own) = (true, true);
    let mut a0 = 0;
    for (li, (slot, it)) in addrs.iter_mut().zip(items).enumerate() {
        let a = addr_of(regs, kind, row, li);
        if li == 0 {
            a0 = a;
        }
        *slot = a;
        contiguous &= a0.checked_add(li as i64) == Some(a);
        own &= usize::try_from(a) == Ok(it.global_id);
    }
    (contiguous, own)
}

/// [`lane_addrs`] for a multi-lane batch. A single-lane batch (a sequential
/// reduce/scan loop) has no cross-lane order to protect and one element is no
/// span, so it only stores its address and reports `(false, true)`.
#[inline(always)]
fn lanes_or_single(cx: &mut ExecCtx<'_, '_>, kind: NKind, row: usize, n: usize) -> (bool, bool) {
    if cx.hazards {
        lane_addrs(cx.regs, kind, row, &cx.items[..n], &mut cx.addrs[..n])
    } else {
        cx.addrs[0] = addr_of(cx.regs, kind, row, 0);
        (false, true)
    }
}

/// The element range `a0..a0 + n` of a contiguous access (`None` when `a0`
/// is negative; the replay reports the error).
#[inline(always)]
fn span(a0: i64, n: usize) -> Option<std::ops::Range<usize>> {
    let start = usize::try_from(a0).ok()?;
    Some(start..start.checked_add(n)?)
}

/// Store the first `dst.len()` lanes of the `kind` row at `s` into an `f32`
/// span, converting exactly like [`BufferView::store`] (`as_f64() as f32`).
#[inline(always)]
fn store_f32_lanes(regs: &RegFile, kind: NKind, s: usize, dst: &mut [f32]) {
    let n = dst.len();
    match kind {
        NKind::F32 => dst.copy_from_slice(&regs.f32s[s..s + n]),
        NKind::F64 => {
            for (v, x) in dst.iter_mut().zip(&regs.f64s[s..s + n]) {
                *v = *x as f32;
            }
        }
        NKind::I32 => {
            for (v, x) in dst.iter_mut().zip(&regs.i32s[s..s + n]) {
                *v = (*x as f64) as f32;
            }
        }
        NKind::Bool => {
            for (v, x) in dst.iter_mut().zip(&regs.bools[s..s + n]) {
                *v = if *x { 1.0 } else { 0.0 };
            }
        }
    }
}

fn broadcast(regs: &mut RegFile, row: usize, v: Value) {
    match v {
        Value::Float(x) => regs.f32s[row..row + BATCH_LANES].fill(x),
        Value::Double(x) => regs.f64s[row..row + BATCH_LANES].fill(x),
        Value::Int(x) => regs.i32s[row..row + BATCH_LANES].fill(x),
        Value::Bool(x) => regs.bools[row..row + BATCH_LANES].fill(x),
        Value::Uint(_) => unreachable!("uint values are native-ineligible"),
    }
}

// ---------------------------------------------------------------------------
// Compiled artifact
// ---------------------------------------------------------------------------

/// How a basic block transfers control. Targets are pre-resolved block
/// indices, so runtime dispatch is a direct index.
enum Term {
    /// Unconditional transfer; back edges count against the loop budget.
    Jump { target: usize, back_edge: bool },
    /// Conditional transfer on the scratch bool row written by the block's
    /// final condition step. A divergent outcome retires the jumping lanes
    /// when they form a suffix of the active prefix and the target is a
    /// trivial exit chain (pre-summed cost); anything else bails.
    Branch {
        jump_when: bool,
        taken: usize,
        taken_back_edge: bool,
        exit_chain: Option<(f64, f64, f64)>,
        fall: usize,
    },
    /// All active lanes return from the kernel: the batch is complete.
    Ret,
    /// An unconditional runtime error (missing return, orphan break, …); the
    /// scalar replay reproduces the exact message.
    Abort,
}

struct Block {
    steps: Vec<StepFn>,
    /// Pre-summed `(flops, bytes, ops)` of every instruction in the block,
    /// terminator included; charged `× n_active` at block entry. Exact
    /// because `n_active` only changes at terminators and any mid-block
    /// abort discards the whole batch accumulator.
    cost: (f64, f64, f64),
    term: Term,
}

/// A kernel compiled to closure-threaded native blocks. Immutable and
/// shared; per-launch mutable state lives in the (private) executor.
pub struct NativeKernel {
    blocks: Vec<Block>,
    num_regs: usize,
    /// Whether any step uses the iota fast paths, which require contiguous
    /// global ids with `local_id == global_id` and ids within `i32` range
    /// (verified per batch; violations bail to the VM).
    uses_iota: bool,
    /// Constant pool broadcast once per launch (pool rows are never written
    /// by compiled code).
    pool: Vec<(u16, Value)>,
    /// Scalar parameters `(arg slot == register row, declared type)`,
    /// re-broadcast every batch (parameters are mutable locals).
    scalar_params: Vec<(usize, ScalarType)>,
    listing: String,
}

impl std::fmt::Debug for NativeKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeKernel")
            .field("blocks", &self.blocks.len())
            .field("num_regs", &self.num_regs)
            .field("uses_iota", &self.uses_iota)
            .finish()
    }
}

impl NativeKernel {
    /// Human-readable block/closure listing (for `dump_bytecode`).
    pub fn listing(&self) -> &str {
        &self.listing
    }

    /// Number of native basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

// ---------------------------------------------------------------------------
// Per-launch executor
// ---------------------------------------------------------------------------

/// Mutable per-launch state for one [`NativeKernel`]: the register file, the
/// undo log and the hazard flags. Created once per launch so the constant
/// pool broadcast is paid once.
pub(crate) struct NativeExec {
    kernel: Arc<NativeKernel>,
    regs: RegFile,
    undo: UndoLog,
    slots: Vec<SlotFlags>,
    addrs: [i64; BATCH_LANES],
}

impl NativeExec {
    pub(crate) fn new(kernel: Arc<NativeKernel>) -> NativeExec {
        let mut regs = RegFile::new(kernel.num_regs + 1);
        for &(reg, v) in &kernel.pool {
            broadcast(&mut regs, reg as usize * BATCH_LANES, v);
        }
        NativeExec {
            kernel,
            regs,
            undo: UndoLog::default(),
            slots: Vec::new(),
            addrs: [0; BATCH_LANES],
        }
    }

    /// Execute one batch of work-items. On `Ok`, results are committed and
    /// the batch's exact cost has been added to `stats`. On `Err`, the
    /// caller must call [`NativeExec::rollback`] and replay the batch
    /// through the scalar engine.
    pub(crate) fn execute_batch(
        &mut self,
        items: &[WorkItem],
        args: &mut [ArgBinding<'_>],
        stencil: Option<StencilCtx>,
        budget_limit: u64,
        stats: &mut ExecStats,
    ) -> Result<(), NativeAbort> {
        let lanes = items.len();
        debug_assert!((1..=BATCH_LANES).contains(&lanes));
        let kernel = Arc::clone(&self.kernel);
        if kernel.uses_iota {
            let gid0 = items[0].global_id;
            let ok = items
                .iter()
                .enumerate()
                .all(|(l, it)| it.global_id == gid0 + l && it.local_id == it.global_id)
                && items[lanes - 1].global_id <= i32::MAX as usize;
            if !ok {
                return Err(NativeAbort::Bail);
            }
        }
        self.undo.clear();
        self.slots.clear();
        self.slots.resize(args.len(), SlotFlags::default());
        for &(slot, declared) in &kernel.scalar_params {
            if let ArgBinding::Scalar(v) = &args[slot] {
                broadcast(&mut self.regs, slot * BATCH_LANES, v.convert_to(declared));
            }
        }

        let scratch = kernel.num_regs * BATCH_LANES;
        let mut acc = (0.0f64, 0.0f64, 0.0f64);
        let mut budget = budget_limit;
        let mut block = 0usize;
        // One context for the whole batch (rebuilding it per block costs real
        // time on single-lane sequential kernels); `n_active` shrinks in
        // place when a lane suffix retires.
        let mut cx = ExecCtx {
            regs: &mut self.regs,
            items,
            n_active: lanes,
            args,
            stencil,
            undo: &mut self.undo,
            slots: &mut self.slots,
            addrs: &mut self.addrs,
            hazards: lanes >= 2,
        };
        loop {
            let b = &kernel.blocks[block];
            let na = cx.n_active as f64;
            acc.0 += b.cost.0 * na;
            acc.1 += b.cost.1 * na;
            acc.2 += b.cost.2 * na;
            for s in &b.steps {
                s(&mut cx)?;
            }
            match &b.term {
                Term::Jump { target, back_edge } => {
                    if *back_edge {
                        budget = budget.checked_sub(1).ok_or(NativeAbort::Error)?;
                    }
                    block = *target;
                }
                Term::Ret => break,
                Term::Abort => return Err(NativeAbort::Error),
                Term::Branch {
                    jump_when,
                    taken,
                    taken_back_edge,
                    exit_chain,
                    fall,
                } => {
                    let n_active = cx.n_active;
                    let sb = &cx.regs.bools[scratch..scratch + n_active];
                    let jumpers = sb.iter().filter(|b| **b == *jump_when).count();
                    if jumpers == n_active {
                        if *taken_back_edge {
                            budget = budget.checked_sub(1).ok_or(NativeAbort::Error)?;
                        }
                        block = *taken;
                    } else if jumpers == 0 {
                        block = *fall;
                    } else {
                        // Divergent: only "a suffix of the lanes leaves
                        // through a trivial exit chain" keeps the active
                        // prefix dense; everything else replays.
                        if *taken_back_edge {
                            return Err(NativeAbort::Bail);
                        }
                        let Some(chain) = exit_chain else {
                            return Err(NativeAbort::Bail);
                        };
                        if sb[..n_active - jumpers].contains(jump_when) {
                            return Err(NativeAbort::Bail);
                        }
                        acc.0 += chain.0 * jumpers as f64;
                        acc.1 += chain.1 * jumpers as f64;
                        acc.2 += chain.2 * jumpers as f64;
                        cx.n_active = n_active - jumpers;
                        block = *fall;
                    }
                }
            }
        }
        stats.flops += acc.0;
        stats.global_bytes += acc.1;
        stats.ops += acc.2;
        Ok(())
    }

    /// Undo every buffer store of an aborted batch (newest first).
    pub(crate) fn rollback(&mut self, args: &mut [ArgBinding<'_>]) {
        self.undo.rollback(args);
    }
}

// ---------------------------------------------------------------------------
// Native compilation: eligibility, dataflow typing, block assembly
// ---------------------------------------------------------------------------

use crate::compile::Reg;

/// The storage kind of a literal value (`None` for `uint`, which the native
/// tier does not model).
fn kind_of_value(v: Value) -> Option<NKind> {
    match v {
        Value::Float(_) => Some(NKind::F32),
        Value::Double(_) => Some(NKind::F64),
        Value::Int(_) => Some(NKind::I32),
        Value::Bool(_) => Some(NKind::Bool),
        Value::Uint(_) => None,
    }
}

/// Buffer parameters of the kernel: interned name id → (argument slot,
/// pointee type).
type BufferMap = HashMap<u16, (u16, ScalarType)>;

/// Resolve a register read at a program point: its concrete kind, or the
/// human-readable reason the kernel is native-ineligible.
fn read_kind(st: &[Cell], reg: Reg) -> Result<(NKind, bool), String> {
    match st[reg as usize] {
        Cell::Known { kind, iota } => Ok((kind, iota)),
        Cell::Unset => Err(format!(
            "register r{reg} is read before any write on some path"
        )),
        Cell::Conflict => Err(format!(
            "register r{reg} holds differently-typed values on merging paths"
        )),
    }
}

/// The abstract write effect of one instruction on the typing state. Reads
/// are not validated here (the fixpoint visits blocks whose inputs are still
/// improving); the build pass validates them against the fixed entry states.
fn transfer(st: &mut [Cell], op: &Op, buffers: &BufferMap) {
    match op {
        Op::Const { dst, value } => {
            st[*dst as usize] =
                Cell::known(kind_of_value(*value).expect("uint constants are pre-rejected"));
        }
        Op::Mov { dst, src } => st[*dst as usize] = st[*src as usize],
        Op::Cast { dst, src, ty } => {
            let kind = NKind::of(*ty).expect("uint casts are pre-rejected");
            let iota = *ty == ScalarType::Int
                && matches!(
                    st[*src as usize],
                    Cell::Known {
                        kind: NKind::I32,
                        iota: true
                    }
                );
            st[*dst as usize] = Cell::Known { kind, iota };
        }
        Op::Bin { op, dst, lhs, rhs } => {
            st[*dst as usize] = if op.is_comparison() {
                Cell::known(NKind::Bool)
            } else {
                match (st[*lhs as usize], st[*rhs as usize]) {
                    (Cell::Conflict, _) | (_, Cell::Conflict) => Cell::Conflict,
                    (Cell::Unset, _) | (_, Cell::Unset) => Cell::Unset,
                    (Cell::Known { kind: a, .. }, Cell::Known { kind: b, .. }) => Cell::known(
                        NKind::of(a.scalar().unify(b.scalar()))
                            .expect("unifying non-uint kinds never yields uint"),
                    ),
                }
            };
        }
        Op::Neg { dst, src } => {
            st[*dst as usize] = match st[*src as usize] {
                Cell::Known { kind, .. } => Cell::known(kind),
                other => other,
            };
        }
        Op::Not { dst, .. } => st[*dst as usize] = Cell::known(NKind::Bool),
        Op::BufLoad { dst, name, .. } => {
            let (_, pointee) = buffers[name];
            st[*dst as usize] =
                Cell::known(NKind::of(pointee).expect("uint buffers are pre-rejected"));
        }
        Op::StencilGet { dst, .. } => st[*dst as usize] = Cell::known(NKind::F32),
        Op::CallBuiltin {
            builtin,
            dst,
            args,
            nargs,
        } => {
            let mut tys = Vec::with_capacity(*nargs as usize);
            let mut poison = None;
            for k in 0..*nargs as usize {
                match st[*args as usize + k] {
                    Cell::Known { kind, .. } => tys.push(kind.scalar()),
                    other => {
                        poison = Some(other);
                        break;
                    }
                }
            }
            st[*dst as usize] = poison.unwrap_or_else(|| {
                Cell::known(
                    NKind::of(builtin.result_type(&tys))
                        .expect("math builtins never return uint without uint arguments"),
                )
            });
        }
        Op::WorkItem { dst, builtin } => {
            // `get_global_id`/`get_local_id` hold `first_gid + lane` in every
            // lane of an iota-verified batch (the per-batch check asserts
            // `local_id == global_id`).
            st[*dst as usize] = Cell::Known {
                kind: NKind::I32,
                iota: matches!(builtin, Builtin::GetGlobalId | Builtin::GetLocalId),
            };
        }
        Op::BufStore { .. }
        | Op::Jump { .. }
        | Op::JumpIfFalse { .. }
        | Op::BinJumpIfFalse { .. }
        | Op::JumpIfTrue { .. }
        | Op::Call { .. }
        | Op::Return { .. }
        | Op::ReturnVoid
        | Op::MissingReturn { .. }
        | Op::OrphanFlow
        | Op::FailUnbound { .. }
        | Op::Nop => {}
    }
}

/// Reject shapes the native model cannot reproduce bit-exactly, before any
/// per-block work. The returned string is the (cached) ineligibility reason;
/// the kernel permanently falls back to the scalar VM.
fn check_eligible(
    unit: &CompiledUnit,
    func: &crate::compile::CompiledFunction,
    buffers: &BufferMap,
) -> Result<(), String> {
    for op in &func.code {
        match op {
            Op::Const {
                value: Value::Uint(_),
                ..
            } => return Err("uses a uint literal".to_string()),
            Op::Cast {
                ty: ScalarType::Uint,
                ..
            } => return Err("casts to uint".to_string()),
            Op::Bin {
                op: BinOp::And | BinOp::Or,
                ..
            } => return Err("carries a non-lowered logical operator".to_string()),
            Op::BufLoad { name, .. } | Op::BufStore { name, .. } if !buffers.contains_key(name) => {
                return Err(format!(
                    "buffer `{}` is resolved dynamically at runtime",
                    unit.buffer_names[*name as usize]
                ));
            }
            Op::Call { func: callee, .. } => {
                return Err(format!(
                    "calls function `{}` through a VM frame",
                    unit.functions[*callee as usize].name
                ));
            }
            Op::CallBuiltin { builtin, .. }
                if builtin.is_work_item_fn() || builtin.is_stencil_fn() =>
            {
                return Err("carries a non-math builtin call".to_string())
            }
            Op::FailUnbound { name } => {
                return Err(format!(
                    "reads unbound name `{}`",
                    unit.buffer_names[*name as usize]
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Successor blocks of the span `code[start..end]`, resolved through the
/// leader → block map.
fn successors(code: &[Op], end: usize, block_at: &HashMap<usize, usize>) -> Vec<usize> {
    match &code[end - 1] {
        Op::Jump { target } => vec![block_at[&(*target as usize)]],
        Op::JumpIfFalse { target, .. }
        | Op::JumpIfTrue { target, .. }
        | Op::BinJumpIfFalse { target, .. } => {
            vec![block_at[&(*target as usize)], block_at[&end]]
        }
        Op::Return { .. } | Op::ReturnVoid | Op::MissingReturn { .. } | Op::OrphanFlow => vec![],
        _ => vec![block_at[&end]],
    }
}

/// Compile one kernel of the unit into closure-threaded native blocks, or
/// explain why it is ineligible. Deterministic and side-effect free; the
/// result is cached per [`crate::Program`] in [`KernelNativeState`].
pub(crate) fn compile_kernel(
    unit: &CompiledUnit,
    kernel_index: usize,
) -> Result<NativeKernel, String> {
    use std::fmt::Write as _;
    let func = &unit.functions[kernel_index];

    let mut buffers: BufferMap = HashMap::new();
    let mut scalar_params = Vec::new();
    for (slot, p) in func.params.iter().enumerate() {
        match p.ty {
            Type::GlobalPtr(s) => {
                if NKind::of(s).is_none() {
                    return Err(format!("buffer `{}` has uint elements", p.name));
                }
                buffers.insert(p.name_id, (slot as u16, s));
            }
            Type::Scalar(s) => {
                if NKind::of(s).is_none() {
                    return Err(format!("scalar parameter `{}` is uint", p.name));
                }
                scalar_params.push((slot, s));
            }
            Type::Void => unreachable!("void parameters rejected by the parser"),
        }
    }
    check_eligible(unit, func, &buffers)?;

    let leaders = func.block_leaders();
    let block_at: HashMap<usize, usize> =
        leaders.iter().enumerate().map(|(b, &pc)| (pc, b)).collect();
    let spans: Vec<(usize, usize)> = leaders
        .iter()
        .enumerate()
        .map(|(b, &s)| (s, leaders.get(b + 1).copied().unwrap_or(func.code.len())))
        .collect();

    // Entry typing state of block 0: scalar parameters and the preloaded
    // constant pool are Known, everything else Unset (every read the VM can
    // execute is dominated by a write; anything the merge cannot prove falls
    // back with a reason).
    let mut init = vec![Cell::Unset; func.num_regs as usize];
    for &(slot, s) in &scalar_params {
        init[slot] = Cell::known(NKind::of(s).expect("checked above"));
    }
    for &(reg, value) in &func.const_pool {
        init[reg as usize] =
            Cell::known(kind_of_value(value).ok_or_else(|| "uses a uint literal".to_string())?);
    }

    // Monotone fixpoint over the block graph (Unset → Known → Conflict, iota
    // only decays), so the worklist terminates.
    let mut entry: Vec<Option<Vec<Cell>>> = vec![None; spans.len()];
    entry[0] = Some(init);
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let mut st = entry[b].clone().expect("worklist blocks have entry states");
        let (s, e) = spans[b];
        for op in &func.code[s..e] {
            transfer(&mut st, op, &buffers);
        }
        for succ in successors(&func.code, e, &block_at) {
            let merged: Vec<Cell> = match &entry[succ] {
                None => st.clone(),
                Some(old) => old
                    .iter()
                    .zip(&st)
                    .map(|(a, b)| Cell::merge(*a, *b))
                    .collect(),
            };
            if entry[succ].as_ref() != Some(&merged) {
                entry[succ] = Some(merged);
                work.push(succ);
            }
        }
    }

    // Build pass: validate every read against the fixed entry states and
    // emit one monomorphized closure per instruction.
    let scratch = func.num_regs as usize * BATCH_LANES;
    let mut blocks = Vec::with_capacity(spans.len());
    let mut uses_iota = false;
    let mut listing = String::new();
    for (b, &(s, e)) in spans.iter().enumerate() {
        let Some(state0) = &entry[b] else {
            // Unreachable at runtime (e.g. code after an unconditional
            // return); keep the block index dense.
            let _ = writeln!(listing, "b{b} @ pc {s}..{}: (unreachable)", e - 1);
            blocks.push(Block {
                steps: Vec::new(),
                cost: (0.0, 0.0, 0.0),
                term: Term::Abort,
            });
            continue;
        };
        let mut st = state0.clone();
        let mut cost = (0.0f64, 0.0f64, 0.0f64);
        for c in &func.costs[s..e] {
            cost.0 += c.flops as f64;
            cost.1 += c.bytes as f64;
            cost.2 += c.ops as f64;
        }
        let _ = writeln!(
            listing,
            "b{b} @ pc {s}..{} cost(flops={}, bytes={}, ops={}):",
            e - 1,
            cost.0,
            cost.1,
            cost.2
        );
        let mut steps = Vec::new();
        let mut term = None;
        for (pc, op) in func.code[s..e]
            .iter()
            .enumerate()
            .map(|(k, op)| (s + k, op))
        {
            match op {
                Op::Jump { target } => {
                    let t = *target as usize;
                    let back = t <= pc;
                    let _ = writeln!(
                        listing,
                        "  {pc:>4}  jump -> b{}{}",
                        block_at[&t],
                        if back { " (back edge)" } else { "" }
                    );
                    term = Some(Term::Jump {
                        target: block_at[&t],
                        back_edge: back,
                    });
                }
                Op::JumpIfFalse { cond, target } => {
                    steps.push(build_truthy_step(&st, *cond, scratch)?);
                    term = Some(branch_term(
                        func,
                        &block_at,
                        pc,
                        *target,
                        e,
                        false,
                        &mut listing,
                    ));
                }
                Op::JumpIfTrue { cond, target } => {
                    steps.push(build_truthy_step(&st, *cond, scratch)?);
                    term = Some(branch_term(
                        func,
                        &block_at,
                        pc,
                        *target,
                        e,
                        true,
                        &mut listing,
                    ));
                }
                Op::BinJumpIfFalse {
                    op: bop,
                    lhs,
                    rhs,
                    target,
                } => {
                    steps.push(build_cmp_step(&st, *bop, *lhs, *rhs, scratch)?);
                    term = Some(branch_term(
                        func,
                        &block_at,
                        pc,
                        *target,
                        e,
                        false,
                        &mut listing,
                    ));
                }
                Op::Return { .. } | Op::ReturnVoid => {
                    let _ = writeln!(listing, "  {pc:>4}  return");
                    term = Some(Term::Ret);
                }
                Op::MissingReturn { .. } | Op::OrphanFlow => {
                    let _ = writeln!(listing, "  {pc:>4}  abort ({op:?})");
                    term = Some(Term::Abort);
                }
                Op::Nop => {
                    let _ = writeln!(listing, "  {pc:>4}  nop");
                }
                other => {
                    let (f, note) = build_step(other, &st, &buffers, &mut uses_iota)?;
                    let _ = writeln!(listing, "  {pc:>4}  {other:?}{note}");
                    steps.push(f);
                    transfer(&mut st, other, &buffers);
                }
            }
        }
        let term = term.unwrap_or_else(|| {
            let _ = writeln!(listing, "        fall -> b{}", block_at[&e]);
            Term::Jump {
                target: block_at[&e],
                back_edge: false,
            }
        });
        blocks.push(Block { steps, cost, term });
    }

    Ok(NativeKernel {
        blocks,
        num_regs: func.num_regs as usize,
        uses_iota,
        pool: func.const_pool.clone(),
        scalar_params,
        listing,
    })
}

/// Build a [`Term::Branch`] for a conditional at `pc` jumping to `target`
/// when the scratch condition equals `jump_when`; `end` is the span end (the
/// fall-through leader).
fn branch_term(
    func: &crate::compile::CompiledFunction,
    block_at: &HashMap<usize, usize>,
    pc: usize,
    target: u32,
    end: usize,
    jump_when: bool,
    listing: &mut String,
) -> Term {
    use std::fmt::Write as _;
    let t = target as usize;
    let back = t <= pc;
    let chain = if back { None } else { exit_chain_cost(func, t) };
    let _ = writeln!(
        listing,
        "  {pc:>4}  branch(when {jump_when}) -> b{} else b{}{}{}",
        block_at[&t],
        block_at[&end],
        if back { " (back edge)" } else { "" },
        if chain.is_some() { " (exit chain)" } else { "" }
    );
    Term::Branch {
        jump_when,
        taken: block_at[&t],
        taken_back_edge: back,
        exit_chain: chain,
        fall: block_at[&end],
    }
}

// ---------------------------------------------------------------------------
// Step construction
// ---------------------------------------------------------------------------

/// First lane index of a register's row in the SoA register file.
#[inline(always)]
fn row(reg: Reg) -> usize {
    reg as usize * BATCH_LANES
}

/// Active-prefix row copy within one kind's array. Retired (suffix) lanes
/// are never read again, so only `n_active` lanes need moving.
fn copy_row(k: NKind, s: usize, d: usize) -> StepFn {
    match k {
        NKind::F32 => step(move |cx| {
            cx.regs.f32s.copy_within(s..s + cx.n_active, d);
            Ok(())
        }),
        NKind::F64 => step(move |cx| {
            cx.regs.f64s.copy_within(s..s + cx.n_active, d);
            Ok(())
        }),
        NKind::I32 => step(move |cx| {
            cx.regs.i32s.copy_within(s..s + cx.n_active, d);
            Ok(())
        }),
        NKind::Bool => step(move |cx| {
            cx.regs.bools.copy_within(s..s + cx.n_active, d);
            Ok(())
        }),
    }
}

/// Per-lane fallback binary op through the VM's exact evaluator (used for
/// mixed-kind operands and fallible shapes like float `%`); active lanes
/// only, aborting the batch on the first error.
fn generic_bin(bop: BinOp, lk: NKind, rk: NKind, d: usize, l: usize, r: usize) -> StepFn {
    let dk = if bop.is_comparison() {
        NKind::Bool
    } else {
        NKind::of(lk.scalar().unify(rk.scalar()))
            .expect("unifying non-uint kinds never yields uint")
    };
    step(move |cx| {
        for li in 0..cx.n_active {
            let a = read_value(cx.regs, lk, l, li);
            let b = read_value(cx.regs, rk, r, li);
            match vm_eval_binary(bop, a, b) {
                Ok(v) => write_value(cx.regs, dk, d, li, v),
                Err(_) => return Err(NativeAbort::Error),
            }
        }
        Ok(())
    })
}

/// `f64`-domain evaluation of an all-`f32` unary math builtin (exactly
/// [`Builtin::eval_math`]'s computation).
fn unary_math(b: Builtin) -> Option<fn(f64) -> f64> {
    Some(match b {
        Builtin::Sqrt => f64::sqrt,
        Builtin::Fabs => f64::abs,
        Builtin::Exp => f64::exp,
        Builtin::Log => f64::ln,
        Builtin::Sin => f64::sin,
        Builtin::Cos => f64::cos,
        Builtin::Floor => f64::floor,
        Builtin::Ceil => f64::ceil,
        _ => None?,
    })
}

/// `f64`-domain evaluation of an all-`f32` binary math builtin.
fn binary_math(b: Builtin) -> Option<fn(f64, f64) -> f64> {
    Some(match b {
        Builtin::Pow => f64::powf,
        Builtin::Fmin | Builtin::Min => f64::min,
        Builtin::Fmax | Builtin::Max => f64::max,
        Builtin::Atan2 => f64::atan2,
        _ => None?,
    })
}

/// `f64`-domain evaluation of an all-`f32` ternary math builtin.
fn ternary_math(b: Builtin) -> Option<fn(f64, f64, f64) -> f64> {
    Some(match b {
        Builtin::Fma => f64::mul_add,
        Builtin::Clamp => f64::clamp,
        _ => None?,
    })
}

/// Condition step of `JumpIfFalse`/`JumpIfTrue`: C truthiness of the
/// condition register into the scratch bool row.
fn build_truthy_step(st: &[Cell], cond: Reg, scratch: usize) -> Result<StepFn, String> {
    let (k, _) = read_kind(st, cond)?;
    let c = row(cond);
    Ok(match k {
        NKind::F32 => step(move |cx| {
            let n = cx.n_active;
            let regs = &mut *cx.regs;
            for (dv, sv) in regs.bools[scratch..scratch + n]
                .iter_mut()
                .zip(&regs.f32s[c..c + n])
            {
                *dv = *sv != 0.0;
            }
            Ok(())
        }),
        NKind::F64 => step(move |cx| {
            let n = cx.n_active;
            let regs = &mut *cx.regs;
            for (dv, sv) in regs.bools[scratch..scratch + n]
                .iter_mut()
                .zip(&regs.f64s[c..c + n])
            {
                *dv = *sv != 0.0;
            }
            Ok(())
        }),
        NKind::I32 => step(move |cx| {
            let n = cx.n_active;
            let regs = &mut *cx.regs;
            for (dv, sv) in regs.bools[scratch..scratch + n]
                .iter_mut()
                .zip(&regs.i32s[c..c + n])
            {
                *dv = *sv != 0;
            }
            Ok(())
        }),
        NKind::Bool => step(move |cx| {
            cx.regs.bools.copy_within(c..c + cx.n_active, scratch);
            Ok(())
        }),
    })
}

/// Condition step of `BinJumpIfFalse`: evaluate `lhs <op> rhs` and write the
/// result's truthiness into the scratch bool row. Same-kind comparisons are
/// monomorphized tight loops; anything else goes through the VM evaluator.
fn build_cmp_step(
    st: &[Cell],
    bop: BinOp,
    lhs: Reg,
    rhs: Reg,
    scratch: usize,
) -> Result<StepFn, String> {
    let (lk, _) = read_kind(st, lhs)?;
    let (rk, _) = read_kind(st, rhs)?;
    let l = row(lhs);
    let r = row(rhs);
    macro_rules! cmp_loop {
        ($field:ident, $op:tt) => {
            step(move |cx| {
                let n = cx.n_active;
                let regs = &mut *cx.regs;
                if n == BATCH_LANES {
                    for (dv, (av, bv)) in regs.bools[scratch..scratch + BATCH_LANES]
                        .iter_mut()
                        .zip(
                            regs.$field[l..l + BATCH_LANES]
                                .iter()
                                .zip(&regs.$field[r..r + BATCH_LANES]),
                        )
                    {
                        *dv = *av $op *bv;
                    }
                } else {
                    for li in 0..n {
                        regs.bools[scratch + li] = regs.$field[l + li] $op regs.$field[r + li];
                    }
                }
                Ok(())
            })
        };
    }
    macro_rules! cmp_kind {
        ($field:ident) => {
            match bop {
                BinOp::Eq => cmp_loop!($field, ==),
                BinOp::Ne => cmp_loop!($field, !=),
                BinOp::Lt => cmp_loop!($field, <),
                BinOp::Le => cmp_loop!($field, <=),
                BinOp::Gt => cmp_loop!($field, >),
                BinOp::Ge => cmp_loop!($field, >=),
                _ => unreachable!("guarded by is_comparison"),
            }
        };
    }
    if bop.is_comparison() {
        // Widening f32 → f64 is exact, so comparing the raw f32s (or i32s)
        // equals the VM's widened comparisons.
        match (lk, rk) {
            (NKind::F32, NKind::F32) => return Ok(cmp_kind!(f32s)),
            (NKind::F64, NKind::F64) => return Ok(cmp_kind!(f64s)),
            (NKind::I32, NKind::I32) => return Ok(cmp_kind!(i32s)),
            _ => {}
        }
    }
    Ok(step(move |cx| {
        for li in 0..cx.n_active {
            let a = read_value(cx.regs, lk, l, li);
            let b = read_value(cx.regs, rk, r, li);
            match vm_eval_binary(bop, a, b) {
                Ok(v) => cx.regs.bools[scratch + li] = v.as_bool(),
                Err(_) => return Err(NativeAbort::Error),
            }
        }
        Ok(())
    }))
}

/// Compile one non-control instruction into a step closure, using the typing
/// state `st` at its program point. Returns the step plus a listing
/// annotation for the fast-path shapes.
#[allow(clippy::too_many_lines)]
fn build_step(
    op: &Op,
    st: &[Cell],
    buffers: &BufferMap,
    uses_iota: &mut bool,
) -> Result<(StepFn, &'static str), String> {
    Ok(match op {
        Op::Const { dst, value } => {
            let d = row(*dst);
            let f = match *value {
                Value::Float(x) => step(move |cx| {
                    cx.regs.f32s[d..d + cx.n_active].fill(x);
                    Ok(())
                }),
                Value::Double(x) => step(move |cx| {
                    cx.regs.f64s[d..d + cx.n_active].fill(x);
                    Ok(())
                }),
                Value::Int(x) => step(move |cx| {
                    cx.regs.i32s[d..d + cx.n_active].fill(x);
                    Ok(())
                }),
                Value::Bool(x) => step(move |cx| {
                    cx.regs.bools[d..d + cx.n_active].fill(x);
                    Ok(())
                }),
                Value::Uint(_) => return Err("uses a uint literal".to_string()),
            };
            (f, "")
        }
        Op::Mov { dst, src } => {
            let (k, _) = read_kind(st, *src)?;
            (copy_row(k, row(*src), row(*dst)), "")
        }
        Op::Cast { dst, src, ty } => {
            let tk = NKind::of(*ty).expect("uint casts pre-rejected");
            let (sk, _) = read_kind(st, *src)?;
            let d = row(*dst);
            let s = row(*src);
            if sk == tk {
                return Ok((copy_row(sk, s, d), " ; identity"));
            }
            macro_rules! conv {
                ($srcf:ident, $dstf:ident, |$x:ident| $e:expr) => {
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        for (dv, sv) in regs.$dstf[d..d + n].iter_mut().zip(&regs.$srcf[s..s + n]) {
                            let $x = *sv;
                            *dv = $e;
                        }
                        Ok(())
                    })
                };
            }
            // Each arm mirrors `Value::convert_to` exactly (`as_f64 as f32`,
            // saturating `as_i64 as i32`, C truthiness).
            let f = match (sk, tk) {
                (NKind::I32, NKind::F32) => conv!(i32s, f32s, |x| (x as f64) as f32),
                (NKind::I32, NKind::F64) => conv!(i32s, f64s, |x| x as f64),
                (NKind::I32, NKind::Bool) => conv!(i32s, bools, |x| x != 0),
                (NKind::F32, NKind::I32) => conv!(f32s, i32s, |x| x as i64 as i32),
                (NKind::F32, NKind::F64) => conv!(f32s, f64s, |x| x as f64),
                (NKind::F32, NKind::Bool) => conv!(f32s, bools, |x| x != 0.0),
                (NKind::F64, NKind::I32) => conv!(f64s, i32s, |x| x as i64 as i32),
                (NKind::F64, NKind::F32) => conv!(f64s, f32s, |x| x as f32),
                (NKind::F64, NKind::Bool) => conv!(f64s, bools, |x| x != 0.0),
                (NKind::Bool, NKind::I32) => conv!(bools, i32s, |x| i32::from(x)),
                (NKind::Bool, NKind::F32) => conv!(bools, f32s, |x| if x { 1.0 } else { 0.0 }),
                (NKind::Bool, NKind::F64) => conv!(bools, f64s, |x| if x { 1.0 } else { 0.0 }),
                _ => unreachable!("identity casts handled above"),
            };
            (f, "")
        }
        Op::Bin {
            op: bop,
            dst,
            lhs,
            rhs,
        } => {
            let bop = *bop;
            let (lk, _) = read_kind(st, *lhs)?;
            let (rk, _) = read_kind(st, *rhs)?;
            let d = row(*dst);
            let l = row(*lhs);
            let r = row(*rhs);
            // Vectorizable same-kind loops; operands are snapshotted into
            // fixed-size locals so in-place forms (`x = x + y`) borrow-check
            // and keep exact per-lane semantics.
            macro_rules! f32_arith {
                ($op:tt) => {{
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        if n == BATCH_LANES {
                            let mut a = [0.0f32; BATCH_LANES];
                            let mut b = [0.0f32; BATCH_LANES];
                            a.copy_from_slice(&regs.f32s[l..l + BATCH_LANES]);
                            b.copy_from_slice(&regs.f32s[r..r + BATCH_LANES]);
                            for (dv, (av, bv)) in regs.f32s[d..d + BATCH_LANES]
                                .iter_mut()
                                .zip(a.iter().zip(b.iter()))
                            {
                                *dv = ((*av as f64) $op (*bv as f64)) as f32;
                            }
                        } else {
                            // Per-lane read-then-write is alias-safe: lane
                            // `li` only ever writes its own element.
                            for li in 0..n {
                                let av = regs.f32s[l + li];
                                let bv = regs.f32s[r + li];
                                regs.f32s[d + li] = ((av as f64) $op (bv as f64)) as f32;
                            }
                        }
                        Ok(())
                    })
                }};
            }
            macro_rules! f64_arith {
                ($op:tt) => {{
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        if n == BATCH_LANES {
                            let mut a = [0.0f64; BATCH_LANES];
                            let mut b = [0.0f64; BATCH_LANES];
                            a.copy_from_slice(&regs.f64s[l..l + BATCH_LANES]);
                            b.copy_from_slice(&regs.f64s[r..r + BATCH_LANES]);
                            for (dv, (av, bv)) in regs.f64s[d..d + BATCH_LANES]
                                .iter_mut()
                                .zip(a.iter().zip(b.iter()))
                            {
                                *dv = *av $op *bv;
                            }
                        } else {
                            for li in 0..n {
                                let av = regs.f64s[l + li];
                                let bv = regs.f64s[r + li];
                                regs.f64s[d + li] = av $op bv;
                            }
                        }
                        Ok(())
                    })
                }};
            }
            macro_rules! i32_arith {
                ($op:tt) => {{
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        if n == BATCH_LANES {
                            let mut a = [0i32; BATCH_LANES];
                            let mut b = [0i32; BATCH_LANES];
                            a.copy_from_slice(&regs.i32s[l..l + BATCH_LANES]);
                            b.copy_from_slice(&regs.i32s[r..r + BATCH_LANES]);
                            for (dv, (av, bv)) in regs.i32s[d..d + BATCH_LANES]
                                .iter_mut()
                                .zip(a.iter().zip(b.iter()))
                            {
                                *dv = ((*av as i64) $op (*bv as i64)) as i32;
                            }
                        } else {
                            for li in 0..n {
                                let av = regs.i32s[l + li];
                                let bv = regs.i32s[r + li];
                                regs.i32s[d + li] = ((av as i64) $op (bv as i64)) as i32;
                            }
                        }
                        Ok(())
                    })
                }};
            }
            macro_rules! cmp_bin {
                ($field:ident, $op:tt) => {
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        if n == BATCH_LANES {
                            for (dv, (av, bv)) in regs.bools[d..d + BATCH_LANES].iter_mut().zip(
                                regs.$field[l..l + BATCH_LANES]
                                    .iter()
                                    .zip(&regs.$field[r..r + BATCH_LANES]),
                            ) {
                                *dv = *av $op *bv;
                            }
                        } else {
                            for li in 0..n {
                                regs.bools[d + li] = regs.$field[l + li] $op regs.$field[r + li];
                            }
                        }
                        Ok(())
                    })
                };
            }
            macro_rules! cmp_kind {
                ($field:ident) => {
                    match bop {
                        BinOp::Eq => cmp_bin!($field, ==),
                        BinOp::Ne => cmp_bin!($field, !=),
                        BinOp::Lt => cmp_bin!($field, <),
                        BinOp::Le => cmp_bin!($field, <=),
                        BinOp::Gt => cmp_bin!($field, >),
                        BinOp::Ge => cmp_bin!($field, >=),
                        _ => unreachable!("guarded by is_comparison"),
                    }
                };
            }
            let f = match (lk, rk) {
                (NKind::F32, NKind::F32) => match bop {
                    BinOp::Add => f32_arith!(+),
                    BinOp::Sub => f32_arith!(-),
                    BinOp::Mul => f32_arith!(*),
                    BinOp::Div => f32_arith!(/),
                    b if b.is_comparison() => cmp_kind!(f32s),
                    _ => generic_bin(bop, lk, rk, d, l, r),
                },
                (NKind::F64, NKind::F64) => match bop {
                    BinOp::Add => f64_arith!(+),
                    BinOp::Sub => f64_arith!(-),
                    BinOp::Mul => f64_arith!(*),
                    BinOp::Div => f64_arith!(/),
                    b if b.is_comparison() => cmp_kind!(f64s),
                    _ => generic_bin(bop, lk, rk, d, l, r),
                },
                (NKind::I32, NKind::I32) => match bop {
                    BinOp::Add => i32_arith!(+),
                    BinOp::Sub => i32_arith!(-),
                    BinOp::Mul => i32_arith!(*),
                    BinOp::Div | BinOp::Rem => {
                        let is_div = bop == BinOp::Div;
                        step(move |cx| {
                            let n = cx.n_active;
                            let mut a = [0i32; BATCH_LANES];
                            let mut b = [0i32; BATCH_LANES];
                            a[..n].copy_from_slice(&cx.regs.i32s[l..l + n]);
                            b[..n].copy_from_slice(&cx.regs.i32s[r..r + n]);
                            for (li, (av, bv)) in a.iter().zip(&b).take(n).enumerate() {
                                if *bv == 0 {
                                    // "integer division by zero" at replay
                                    return Err(NativeAbort::Error);
                                }
                                let v = if is_div {
                                    (*av as i64) / (*bv as i64)
                                } else {
                                    (*av as i64) % (*bv as i64)
                                };
                                cx.regs.i32s[d + li] = v as i32;
                            }
                            Ok(())
                        })
                    }
                    b if b.is_comparison() => cmp_kind!(i32s),
                    _ => generic_bin(bop, lk, rk, d, l, r),
                },
                _ => generic_bin(bop, lk, rk, d, l, r),
            };
            (f, "")
        }
        Op::Neg { dst, src } => {
            let (k, _) = read_kind(st, *src)?;
            let d = row(*dst);
            let s = row(*src);
            let f = match k {
                NKind::F32 => step(move |cx| {
                    let n = cx.n_active;
                    let regs = &mut *cx.regs;
                    regs.f32s.copy_within(s..s + n, d);
                    for v in &mut regs.f32s[d..d + n] {
                        *v = -*v;
                    }
                    Ok(())
                }),
                NKind::F64 => step(move |cx| {
                    let n = cx.n_active;
                    let regs = &mut *cx.regs;
                    regs.f64s.copy_within(s..s + n, d);
                    for v in &mut regs.f64s[d..d + n] {
                        *v = -*v;
                    }
                    Ok(())
                }),
                NKind::I32 => step(move |cx| {
                    let n = cx.n_active;
                    let regs = &mut *cx.regs;
                    regs.i32s.copy_within(s..s + n, d);
                    for v in &mut regs.i32s[d..d + n] {
                        *v = v.wrapping_neg();
                    }
                    Ok(())
                }),
                NKind::Bool => return Err("negates a bool value".to_string()),
            };
            (f, "")
        }
        Op::Not { dst, src } => {
            let (k, _) = read_kind(st, *src)?;
            let d = row(*dst);
            let s = row(*src);
            macro_rules! not_loop {
                ($field:ident, |$x:ident| $e:expr) => {
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        for (dv, sv) in regs.bools[d..d + n].iter_mut().zip(&regs.$field[s..s + n])
                        {
                            let $x = *sv;
                            *dv = $e;
                        }
                        Ok(())
                    })
                };
            }
            // `!as_bool(x)` ≡ `x == 0` for every kind, NaN included (NaN is
            // truthy, so its negation is false — and `NaN == 0.0` is false).
            let f = match k {
                NKind::F32 => not_loop!(f32s, |x| x == 0.0),
                NKind::F64 => not_loop!(f64s, |x| x == 0.0),
                NKind::I32 => not_loop!(i32s, |x| x == 0),
                NKind::Bool => step(move |cx| {
                    let n = cx.n_active;
                    let regs = &mut *cx.regs;
                    regs.bools.copy_within(s..s + n, d);
                    for v in &mut regs.bools[d..d + n] {
                        *v = !*v;
                    }
                    Ok(())
                }),
            };
            (f, "")
        }
        Op::BufLoad { dst, name, idx } => {
            let (slot, pointee) = buffers[name];
            let pk = NKind::of(pointee).expect("uint buffers pre-rejected");
            let (ik, iota) = read_kind(st, *idx)?;
            let d = row(*dst);
            let i = row(*idx);
            let slot_us = slot as usize;
            if iota && pointee == ScalarType::Float {
                *uses_iota = true;
                (
                    step(move |cx| {
                        let n = cx.n_active;
                        // Iota ⇒ lane ℓ's address is `start + ℓ` and owns its
                        // element, so one bounds check covers the batch.
                        cx.note_load(slot_us, false)?;
                        let start = cx.regs.i32s[i] as usize;
                        let ArgBinding::Buffer(BufferView::F32(buf)) = &cx.args[slot_us] else {
                            return Err(NativeAbort::Error);
                        };
                        let Some(src) = buf.get(start..start + n) else {
                            return Err(NativeAbort::Error);
                        };
                        cx.regs.f32s[d..d + n].copy_from_slice(src);
                        Ok(())
                    }),
                    " ; iota f32 span",
                )
            } else {
                (
                    step(move |cx| {
                        let n = cx.n_active;
                        let (contiguous, own) = lanes_or_single(cx, ik, i, n);
                        cx.note_load(slot_us, !own)?;
                        let ArgBinding::Buffer(view) = &cx.args[slot_us] else {
                            return Err(NativeAbort::Error);
                        };
                        if let (BufferView::F32(buf), true) = (view, contiguous) {
                            let Some(src) = span(cx.addrs[0], n).and_then(|r| buf.get(r)) else {
                                return Err(NativeAbort::Error);
                            };
                            cx.regs.f32s[d..d + n].copy_from_slice(src);
                            return Ok(());
                        }
                        for (li, &a) in cx.addrs[..n].iter().enumerate() {
                            let Ok(addr) = usize::try_from(a) else {
                                return Err(NativeAbort::Error);
                            };
                            match view {
                                BufferView::F32(buf) => match buf.get(addr) {
                                    Some(v) => cx.regs.f32s[d + li] = *v,
                                    None => return Err(NativeAbort::Error),
                                },
                                other => match other.load(addr) {
                                    Some(v) => write_value(cx.regs, pk, d, li, v),
                                    None => return Err(NativeAbort::Error),
                                },
                            }
                        }
                        Ok(())
                    }),
                    "",
                )
            }
        }
        Op::BufStore { name, idx, src } => {
            let (slot, pointee) = buffers[name];
            let (ik, iota) = read_kind(st, *idx)?;
            let (sk, _) = read_kind(st, *src)?;
            let i = row(*idx);
            let s = row(*src);
            let slot_us = slot as usize;
            if iota && pointee == ScalarType::Float {
                *uses_iota = true;
                (
                    step(move |cx| {
                        let n = cx.n_active;
                        cx.note_store(slot_us, true, true)?;
                        let start = cx.regs.i32s[i] as usize;
                        let ArgBinding::Buffer(BufferView::F32(buf)) = &mut cx.args[slot_us] else {
                            return Err(NativeAbort::Error);
                        };
                        let Some(dst) = buf.get_mut(start..start + n) else {
                            return Err(NativeAbort::Error);
                        };
                        cx.undo.push_span(slot, start, dst);
                        store_f32_lanes(cx.regs, sk, s, dst);
                        Ok(())
                    }),
                    " ; iota f32 span",
                )
            } else {
                (
                    step(move |cx| {
                        let n = cx.n_active;
                        let (contiguous, own) = lanes_or_single(cx, ik, i, n);
                        cx.note_store(slot_us, own, contiguous)?;
                        let ArgBinding::Buffer(view) = &mut cx.args[slot_us] else {
                            return Err(NativeAbort::Error);
                        };
                        if let (BufferView::F32(buf), true) = (&mut *view, contiguous) {
                            let Some((start, dst)) =
                                span(cx.addrs[0], n).and_then(|r| Some((r.start, buf.get_mut(r)?)))
                            else {
                                return Err(NativeAbort::Error);
                            };
                            cx.undo.push_span(slot, start, dst);
                            store_f32_lanes(cx.regs, sk, s, dst);
                            return Ok(());
                        }
                        for (li, &a) in cx.addrs[..n].iter().enumerate() {
                            let Ok(addr) = usize::try_from(a) else {
                                return Err(NativeAbort::Error);
                            };
                            let v = read_value(cx.regs, sk, s, li);
                            match &mut *view {
                                BufferView::F32(buf) => {
                                    let Some(p) = buf.get_mut(addr) else {
                                        return Err(NativeAbort::Error);
                                    };
                                    cx.undo.push_elem(slot, addr, Value::Float(*p));
                                    *p = v.as_f64() as f32;
                                }
                                other => {
                                    let Some(old) = other.load(addr) else {
                                        return Err(NativeAbort::Error);
                                    };
                                    cx.undo.push_elem(slot, addr, old);
                                    if !other.store(addr, v) {
                                        return Err(NativeAbort::Error);
                                    }
                                }
                            }
                        }
                        Ok(())
                    }),
                    "",
                )
            }
        }
        Op::CallBuiltin {
            builtin,
            dst,
            args,
            nargs,
        } => {
            let builtin = *builtin;
            let n = *nargs as usize;
            if n > 4 {
                return Err("builtin call with more than four arguments".to_string());
            }
            let mut akinds = [NKind::I32; 4];
            let mut all_f32 = true;
            for (k, ak) in akinds.iter_mut().enumerate().take(n) {
                let (kk, _) = read_kind(st, *args + k as Reg)?;
                *ak = kk;
                all_f32 &= kk == NKind::F32;
            }
            let d = row(*dst);
            let a0 = row(*args);
            // All-f32 argument lists always produce f32 results, computed in
            // the f64 domain exactly like `eval_math`.
            if all_f32 && n == 1 {
                if let Some(g) = unary_math(builtin) {
                    return Ok((
                        step(move |cx| {
                            let na = cx.n_active;
                            let mut a = [0.0f32; BATCH_LANES];
                            a[..na].copy_from_slice(&cx.regs.f32s[a0..a0 + na]);
                            for (dv, av) in cx.regs.f32s[d..d + na].iter_mut().zip(a.iter()) {
                                *dv = g(*av as f64) as f32;
                            }
                            Ok(())
                        }),
                        " ; f32 math",
                    ));
                }
            }
            if all_f32 && n == 2 {
                if let Some(g) = binary_math(builtin) {
                    let a1 = a0 + BATCH_LANES;
                    return Ok((
                        step(move |cx| {
                            let na = cx.n_active;
                            let mut a = [0.0f32; BATCH_LANES];
                            let mut b = [0.0f32; BATCH_LANES];
                            a[..na].copy_from_slice(&cx.regs.f32s[a0..a0 + na]);
                            b[..na].copy_from_slice(&cx.regs.f32s[a1..a1 + na]);
                            for (dv, (av, bv)) in cx.regs.f32s[d..d + na]
                                .iter_mut()
                                .zip(a.iter().zip(b.iter()))
                            {
                                *dv = g(*av as f64, *bv as f64) as f32;
                            }
                            Ok(())
                        }),
                        " ; f32 math",
                    ));
                }
            }
            if all_f32 && n == 3 {
                if let Some(g) = ternary_math(builtin) {
                    let a1 = a0 + BATCH_LANES;
                    let a2 = a0 + 2 * BATCH_LANES;
                    return Ok((
                        step(move |cx| {
                            let na = cx.n_active;
                            let mut a = [0.0f32; BATCH_LANES];
                            let mut b = [0.0f32; BATCH_LANES];
                            let mut c = [0.0f32; BATCH_LANES];
                            a[..na].copy_from_slice(&cx.regs.f32s[a0..a0 + na]);
                            b[..na].copy_from_slice(&cx.regs.f32s[a1..a1 + na]);
                            c[..na].copy_from_slice(&cx.regs.f32s[a2..a2 + na]);
                            for (dv, ((av, bv), cv)) in cx.regs.f32s[d..d + na]
                                .iter_mut()
                                .zip(a.iter().zip(b.iter()).zip(c.iter()))
                            {
                                *dv = g(*av as f64, *bv as f64, *cv as f64) as f32;
                            }
                            Ok(())
                        }),
                        " ; f32 math",
                    ));
                }
            }
            let dk = {
                let tys: Vec<ScalarType> = akinds[..n].iter().map(|k| k.scalar()).collect();
                NKind::of(builtin.result_type(&tys))
                    .ok_or_else(|| "builtin returns uint".to_string())?
            };
            (
                step(move |cx| {
                    for li in 0..cx.n_active {
                        let mut vals = [Value::Int(0); 4];
                        for (k, v) in vals.iter_mut().enumerate().take(n) {
                            *v = read_value(cx.regs, akinds[k], a0 + k * BATCH_LANES, li);
                        }
                        let res = builtin.eval_math(&vals[..n]);
                        write_value(cx.regs, dk, d, li, res);
                    }
                    Ok(())
                }),
                "",
            )
        }
        Op::WorkItem { dst, builtin } => {
            let d = row(*dst);
            macro_rules! wi {
                (|$it:ident| $e:expr) => {
                    step(move |cx| {
                        let n = cx.n_active;
                        for (dv, $it) in cx.regs.i32s[d..d + n].iter_mut().zip(cx.items) {
                            *dv = ($e) as i32;
                        }
                        Ok(())
                    })
                };
            }
            let f = match builtin {
                Builtin::GetGlobalId => wi!(|it| it.global_id),
                Builtin::GetLocalId => wi!(|it| it.local_id),
                Builtin::GetGroupId => wi!(|it| it.group_id),
                Builtin::GetGlobalSize => wi!(|it| it.global_size),
                Builtin::GetLocalSize => wi!(|it| it.local_size),
                Builtin::GetNumGroups => wi!(|it| it.global_size.div_ceil(it.local_size.max(1))),
                other => return Err(format!("work-item op carries {other:?}")),
            };
            (f, "")
        }
        Op::StencilGet { dst, args } => {
            let (dxk, _) = read_kind(st, *args)?;
            let (dyk, _) = read_kind(st, *args + 1)?;
            let d = row(*dst);
            let dx_row = row(*args);
            let dy_row = row(*args + 1);
            (
                step(move |cx| {
                    let Some(ctx) = cx.stencil else {
                        return Err(NativeAbort::Error);
                    };
                    cx.note_load(ctx.in_slot, true)?;
                    let n = cx.n_active;
                    let items = &cx.items[..n];
                    let regs = &mut *cx.regs;
                    let dx = addr_of(regs, dxk, dx_row, 0);
                    let dy = addr_of(regs, dyk, dy_row, 0);
                    let gid0 = items.first().map_or(0, |it| it.global_id);
                    // When every lane asks for the same in-halo (dx, dy) over
                    // consecutive global ids, lane ℓ reads `base + ℓ` wherever
                    // its column `c + dx` stays inside the row: one span copy
                    // covers the batch, and only the lanes past a row edge go
                    // through `stencil_get`.
                    let uniform = (-ctx.halo..=ctx.halo).contains(&dy)
                        && items.iter().enumerate().all(|(li, it)| {
                            it.global_id == gid0 + li
                                && addr_of(regs, dxk, dx_row, li) == dx
                                && addr_of(regs, dyk, dy_row, li) == dy
                        });
                    let w = ctx.width;
                    let src = match &cx.args[ctx.in_slot] {
                        ArgBinding::Buffer(BufferView::F32(buf)) if uniform => (ctx.halo + dy)
                            .checked_mul(w)
                            .and_then(|x| x.checked_add(dx))
                            .and_then(|x| x.checked_add(i64::try_from(gid0).ok()?))
                            .and_then(|base| span(base, n))
                            .and_then(|r| buf.get(r)),
                        _ => None,
                    };
                    let edge_only = src.is_some();
                    if let Some(src) = src {
                        regs.f32s[d..d + n].copy_from_slice(src);
                        let c0 = gid0 as i64 % w;
                        let last = c0 + n as i64 - 1;
                        if last < w && c0 + dx >= 0 && last + dx < w {
                            return Ok(());
                        }
                    }
                    for (li, it) in items.iter().enumerate() {
                        let (dx, dy) = if edge_only {
                            let c = it.global_id as i64 % w + dx;
                            if (0..w).contains(&c) {
                                continue;
                            }
                            (dx, dy)
                        } else {
                            (
                                addr_of(regs, dxk, dx_row, li),
                                addr_of(regs, dyk, dy_row, li),
                            )
                        };
                        match stencil_get(ctx, cx.args, it.global_id, dx, dy) {
                            Ok(v) => write_value(regs, NKind::F32, d, li, v),
                            Err(_) => return Err(NativeAbort::Error),
                        }
                    }
                    Ok(())
                }),
                " ; f32 span get",
            )
        }
        other => return Err(format!("unsupported instruction {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    #[test]
    fn tier_parse_round_trips_and_aliases() {
        for t in [Tier::Interp, Tier::Scalar, Tier::Native, Tier::Auto] {
            assert_eq!(Tier::parse(&t.to_string()).unwrap(), t);
            assert_eq!(Tier::from_u8(t.as_u8()), Some(t));
        }
        assert_eq!(Tier::parse(" Native ").unwrap(), Tier::Native);
        assert_eq!(Tier::parse("Interpreter").unwrap(), Tier::Interp);
        // The removed batched VM's names are unknown like any other.
        for name in ["warp", "batched", "vm"] {
            let err = Tier::parse(name).unwrap_err();
            assert_eq!(
                err.message,
                format!(
                    "unknown kernel tier `{name}`: expected one of interp, scalar, native, auto"
                )
            );
        }
    }

    #[test]
    fn map_kernel_compiles_with_iota_fast_paths() {
        let p = Program::build(
            r#"
            __kernel void k(__global float* v, int n) {
                int i = get_global_id(0);
                if (i < n) { v[i] = v[i] * 2.0f; }
            }
        "#,
        )
        .unwrap();
        let idx = p.kernel("k").unwrap().index();
        let nk = compile_kernel(p.compiled(), idx).unwrap();
        assert!(nk.block_count() >= 2);
        assert!(nk.uses_iota);
        assert!(nk.listing().contains("iota f32 span"));
        assert!(nk.listing().contains("exit chain") || nk.listing().contains("branch"));
    }

    #[test]
    fn vm_frame_calls_are_ineligible() {
        // Recursion defeats the compiler's inliner, leaving a real
        // `Op::Call` that only the VM's frame machinery can execute.
        let p = Program::build(
            r#"
            float fib(float n) {
                if (n < 2.0f) { return n; }
                return fib(n - 1.0f) + fib(n - 2.0f);
            }
            __kernel void k(__global float* v, int n) {
                int i = get_global_id(0);
                if (i < n) { v[i] = fib(v[i]); }
            }
        "#,
        )
        .unwrap();
        let idx = p.kernel("k").unwrap().index();
        let err = compile_kernel(p.compiled(), idx).unwrap_err();
        assert!(err.contains("through a VM frame"), "reason: {err}");
    }

    #[test]
    fn loop_kernel_compiles_with_back_edges() {
        let p = Program::build(
            r#"
            __kernel void k(__global float* v, int n) {
                float acc = 0.0f;
                for (int j = 0; j < n; j++) { acc = acc + v[j]; }
                v[0] = acc;
            }
        "#,
        )
        .unwrap();
        let idx = p.kernel("k").unwrap().index();
        let nk = compile_kernel(p.compiled(), idx).unwrap();
        assert!(nk.listing().contains("back edge"));
    }
}
