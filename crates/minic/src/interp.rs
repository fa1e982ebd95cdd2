//! Host-side execution of mini-C programs: the [`Machine`] (one instance
//! of a shared program [`Image`]: guest memory and run state) and the
//! [`Interp`] that executes it.
//!
//! This stands in for "compile the translated C with gcc and run it on the
//! A57 cores": the OMPi translator rewrites OpenMP constructs into plain C
//! plus runtime calls, and this layer executes that C faithfully,
//! delegating every unknown function to pluggable [`Hooks`] (the OMPi host
//! runtime: `hostomp` + `cudadev`).
//!
//! [`Interp`] is the register bytecode VM ([`crate::vm`]): programs are
//! compiled once per image to bytecode ([`crate::compile`] →
//! [`crate::bytecode`]) and dispatched from a flat instruction array. The
//! original tree-walking interpreter, [`crate::walker::TreeWalker`],
//! implements the same semantics and is kept as the differential-test
//! oracle: tests build one or the other on a fresh machine and assert
//! bit-identical results — same values, same traps, same output. Guest
//! code a hook re-enters ([`HookCtx::call_guest`]) runs on the engine
//! that made the hook call.
//!
//! All program state lives in a guest [`MemArena`], so `&x`, pointer
//! arithmetic and byte-exact `memcpy` to the simulated device all behave
//! like real C. Execution is thread-safe: host `parallel` regions run one
//! execution context per OS thread over the shared arena.
//!
//! A runner builds one [`Image`] per program and a fresh [`Machine`] per
//! job ([`Machine::instantiate`]): the arena of a multi-MiB machine is a
//! lazily zeroed mapping, so an instance costs what the guest touches, and
//! the bytecode is compiled once per process rather than once per job.
//!
//! Untranslated OpenMP programs can also be executed directly: directives
//! are then ignored (a legal single-thread OpenMP execution), which provides
//! the sequential reference behaviour used by differential tests.

use std::collections::HashMap;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use vmcommon::alloc::AllocError;
use vmcommon::sync::Mutex;
use vmcommon::{BlockAllocator, MemArena, MemError, Value};

use crate::ast::*;
use crate::image::Image;
use crate::limits::{GuestLimitError, GuestLimits};
use crate::sema::ProgramInfo;

pub use crate::rt::convert;
pub use crate::vm::Interp;

/// Which frontend stage rejected the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontendStage {
    Parse,
    Sema,
}

/// A parse or semantic-analysis failure, with its source position intact
/// (previously these were flattened into an untyped `Trap` string).
#[derive(Clone, Debug)]
pub struct FrontendError {
    pub stage: FrontendStage,
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stage = match self.stage {
            FrontendStage::Parse => "parse",
            FrontendStage::Sema => "semantic",
        };
        write!(f, "{stage} error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl From<crate::parser::ParseError> for FrontendError {
    fn from(e: crate::parser::ParseError) -> Self {
        FrontendError { stage: FrontendStage::Parse, line: e.pos.line, col: e.pos.col, msg: e.msg }
    }
}

impl From<crate::sema::SemaError> for FrontendError {
    fn from(e: crate::sema::SemaError) -> Self {
        FrontendError { stage: FrontendStage::Sema, line: e.pos.line, col: e.pos.col, msg: e.msg }
    }
}

/// Runtime error raised by guest execution.
#[derive(Clone, Debug)]
pub enum InterpError {
    Mem(MemError),
    Alloc(AllocError),
    /// The program never started: parse or sema rejected it.
    Frontend(FrontendError),
    /// Any other guest misbehaviour (unknown function, bad cast, …).
    Trap(String),
    /// A configured resource limit stopped the program (fuel, memory
    /// ceiling, stack depth, job deadline). Recoverable by construction:
    /// the guest misbehaved, the host and device did not.
    Limit(GuestLimitError),
    /// The arena cannot hold the program's globals and string literals:
    /// they need `needed` bytes, the arena has `arena`.
    ArenaTooSmall {
        needed: u64,
        arena: u64,
    },
    /// An earlier call's global initializers failed, so the globals are
    /// only partly written: the machine refuses to run anything more.
    InitFailed,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Mem(e) => write!(f, "memory fault: {e}"),
            InterpError::Alloc(e) => write!(f, "allocation fault: {e}"),
            InterpError::Frontend(e) => write!(f, "{e}"),
            InterpError::Trap(m) => write!(f, "trap: {m}"),
            InterpError::Limit(e) => write!(f, "guest limit: {e}"),
            InterpError::ArenaTooSmall { needed, arena } => write!(
                f,
                "guest arena too small: globals and string literals need {needed} bytes, \
                 the arena has {arena}"
            ),
            InterpError::InitFailed => {
                write!(f, "global initializers failed on an earlier call; the machine cannot run")
            }
        }
    }
}

impl std::error::Error for InterpError {}

impl From<MemError> for InterpError {
    fn from(e: MemError) -> Self {
        InterpError::Mem(e)
    }
}

impl From<AllocError> for InterpError {
    fn from(e: AllocError) -> Self {
        InterpError::Alloc(e)
    }
}

impl From<FrontendError> for InterpError {
    fn from(e: FrontendError) -> Self {
        InterpError::Frontend(e)
    }
}

impl From<GuestLimitError> for InterpError {
    fn from(e: GuestLimitError) -> Self {
        InterpError::Limit(e)
    }
}

pub type IResult<T> = Result<T, InterpError>;

/// Hooks connect the interpreter to the OMPi runtime libraries.
pub trait Hooks: Send + Sync {
    /// Handle a call to a function that is neither defined in the program
    /// nor a core builtin. Return `Ok(None)` to decline (the interpreter
    /// then traps with "unknown function").
    fn call(&self, name: &str, args: &[Value], ctx: &HookCtx<'_>) -> IResult<Option<Value>>;

    /// Handle a CUDA `kernel<<<grid, block>>>(args)` launch (host CUDA
    /// dialect). The default declines.
    fn kernel_launch(
        &self,
        name: &str,
        _grid: [u32; 3],
        _block: [u32; 3],
        _args: &[Value],
        _ctx: &HookCtx<'_>,
    ) -> IResult<()> {
        Err(InterpError::Trap(format!("no runtime to launch kernel `{name}`")))
    }
}

/// No-op hooks (pure programs).
pub struct NoHooks;

impl Hooks for NoHooks {
    fn call(&self, _name: &str, _args: &[Value], _ctx: &HookCtx<'_>) -> IResult<Option<Value>> {
        Ok(None)
    }
}

/// Runs one guest call on a fresh execution context of the engine that
/// built the [`HookCtx`].
pub(crate) type GuestCall = fn(Arc<Machine>, Arc<dyn Hooks>, &str, &[Value]) -> IResult<Value>;

/// Context handed to hooks: enough to re-enter guest code and touch memory.
pub struct HookCtx<'a> {
    pub machine: &'a Arc<Machine>,
    pub hooks: &'a Arc<dyn Hooks>,
    call: GuestCall,
}

impl<'a> HookCtx<'a> {
    pub(crate) fn new(
        machine: &'a Arc<Machine>,
        hooks: &'a Arc<dyn Hooks>,
        call: GuestCall,
    ) -> HookCtx<'a> {
        HookCtx { machine, hooks, call }
    }

    /// Call a guest function on the current thread (fresh stack), on the
    /// engine that made this hook call.
    pub fn call_guest(&self, name: &str, args: &[Value]) -> IResult<Value> {
        (self.call)(self.machine.clone(), self.hooks.clone(), name, args)
    }

    pub fn mem(&self) -> &MemArena {
        &self.machine.mem
    }
}

/// Totals drained from a machine's VM dispatch counters
/// (see [`Machine::drain_vm_counters`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct VmCounters {
    /// Instructions dispatched.
    pub instructions: u64,
    /// Per-category dispatch counts, indexed like
    /// [`crate::bytecode::OP_CATS`].
    pub dispatch: [u64; 6],
}

impl VmCounters {
    pub fn is_zero(&self) -> bool {
        self.instructions == 0 && self.dispatch.iter().all(|&c| c == 0)
    }
}

/// VM instruction counts attributed to one guest source line (see
/// [`Machine::line_profile`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineHit {
    /// Function (chunk) name.
    pub func: String,
    /// 1-based source line (0 = no line info).
    pub line: u32,
    /// Instructions dispatched on this line.
    pub instructions: u64,
    /// Per-category breakdown, indexed like [`crate::bytecode::OP_CATS`].
    pub dispatch: [u64; 6],
}

/// One instance of a program [`Image`]: its guest memory and everything a
/// run changes.
pub struct Machine {
    /// The program, its static layout and its bytecode, shared with every
    /// other instance of it.
    pub(crate) image: Arc<Image>,
    pub mem: MemArena,
    pub heap: Mutex<BlockAllocator>,
    /// Everything `printf` and friends wrote.
    pub captured: Mutex<String>,
    /// Global initializers: [`GLOBALS_PENDING`], [`GLOBALS_STARTED`] or
    /// [`GLOBALS_FAILED`].
    globals: AtomicU8,
    /// VM observability: instructions dispatched, then per-category counts.
    vm_counters: [AtomicU64; 7],
    /// Attribute VM dispatch to source lines (costs nothing while the VM
    /// runs: the flush derives per-pc hits from the run-entry counts).
    hotspots: AtomicBool,
    /// Accumulated per-(chunk, line) dispatch counts, folded in by
    /// [`Interp`] once per top-level call.
    line_hits: Mutex<HashMap<(u32, u32), [u64; 6]>>,
    /// Guest resource governor: fuel, memory ceiling, stack depth,
    /// deadline. Shared by both engines and the runtime builtins.
    pub(crate) limits: GuestLimits,
}

/// Per-interp stack size (bytes).
pub(crate) const STACK_SIZE: u64 = 4 << 20;

/// States of [`Machine::globals`].
const GLOBALS_PENDING: u8 = 0;
const GLOBALS_STARTED: u8 = 1;
const GLOBALS_FAILED: u8 = 2;

impl Machine {
    /// Build an ungoverned machine (default [`GuestLimits`]) for an
    /// analyzed program with `mem_bytes` of guest memory.
    /// A program run more than once should build its [`Image`] once and
    /// [`Machine::instantiate`] it per run.
    pub fn new(prog: Program, info: ProgramInfo, mem_bytes: usize) -> IResult<Arc<Machine>> {
        Self::instantiate(Arc::new(Image::new(prog, info)?), mem_bytes, GuestLimits::default())
    }

    /// A fresh instance of `image` with `mem_bytes` of zeroed guest memory:
    /// the arena is mapped, the string literals written and the heap
    /// allocator built over the rest. Initializers run on the first
    /// [`Interp`] creation. An arena smaller than the image's static data
    /// is [`InterpError::ArenaTooSmall`]. The runner's config snapshot
    /// supplies `limits`; [`Machine::set_hotspots`] turns on attribution.
    pub fn instantiate(
        image: Arc<Image>,
        mem_bytes: usize,
        limits: GuestLimits,
    ) -> IResult<Arc<Machine>> {
        let mem = MemArena::new(mem_bytes);
        let heap = image.install(&mem)?;
        Ok(Arc::new(Machine {
            image,
            mem,
            heap: Mutex::new(heap),
            captured: Mutex::new(String::new()),
            globals: AtomicU8::new(GLOBALS_PENDING),
            vm_counters: Default::default(),
            hotspots: AtomicBool::new(false),
            line_hits: Mutex::new(HashMap::new()),
            limits,
        }))
    }

    /// Convenience: parse + analyze + build with a default 64 MiB arena.
    pub fn from_source(src: &str) -> IResult<Arc<Machine>> {
        Self::from_source_with_mem(src, 64 << 20)
    }

    pub fn from_source_with_mem(src: &str, mem_bytes: usize) -> IResult<Arc<Machine>> {
        let mut prog = crate::parser::parse(src).map_err(FrontendError::from)?;
        let info = crate::sema::analyze(&mut prog).map_err(FrontendError::from)?;
        Machine::new(prog, info, mem_bytes)
    }

    /// The image this machine is an instance of.
    pub fn image(&self) -> &Arc<Image> {
        &self.image
    }

    /// Add a VM execution's dispatch counts (flushed once per top-level
    /// guest call, not per instruction).
    pub(crate) fn add_vm_counters(&self, instructions: u64, dispatch: &[u64; 6]) {
        self.vm_counters[0].fetch_add(instructions, Ordering::Relaxed);
        for (slot, &n) in self.vm_counters[1..].iter().zip(dispatch) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Take the accumulated VM dispatch counters (resets them to zero).
    pub fn drain_vm_counters(&self) -> VmCounters {
        let mut c = VmCounters {
            instructions: self.vm_counters[0].swap(0, Ordering::Relaxed),
            ..Default::default()
        };
        for (out, slot) in c.dispatch.iter_mut().zip(&self.vm_counters[1..]) {
            *out = slot.swap(0, Ordering::Relaxed);
        }
        c
    }

    /// Is guest-source hotspot attribution on? (Off until
    /// [`Machine::set_hotspots`]; `fig4 --hotspots` turns it on.)
    pub fn hotspots_enabled(&self) -> bool {
        self.hotspots.load(Ordering::Relaxed)
    }

    /// Enable/disable hotspot attribution for [`Interp`]s created after
    /// the call.
    pub fn set_hotspots(&self, on: bool) {
        self.hotspots.store(on, Ordering::Relaxed);
    }

    /// Fold one chunk's per-pc hit counts into the per-line accumulator
    /// (flushed once per top-level guest call by the VM).
    pub(crate) fn add_line_hits(&self, chunk: u32, pc_hits: &[u64]) {
        let prog = self.image.compiled();
        let ch = &prog.chunks[chunk as usize];
        let table = &prog.line_tables[ch.line_table as usize];
        let mut hits = self.line_hits.lock();
        for (pc, &n) in pc_hits.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let line = crate::bytecode::line_for_pc(table, pc as u32);
            let row = hits.entry((chunk, line)).or_insert([0; 6]);
            for &cat in ch.code[pc].cats() {
                row[cat as usize] += n;
            }
        }
    }

    /// The accumulated hotspot profile: VM dispatch counts per
    /// (function, source line), sorted by function name then line.
    /// Empty unless hotspot attribution was enabled during execution.
    pub fn line_profile(&self) -> Vec<LineHit> {
        let prog = self.image.compiled();
        let hits = self.line_hits.lock();
        let mut rows: Vec<LineHit> = hits
            .iter()
            .map(|(&(chunk, line), d)| LineHit {
                func: prog.chunks[chunk as usize].name.clone(),
                line,
                instructions: d.iter().sum(),
                dispatch: *d,
            })
            .collect();
        rows.sort_by(|a, b| a.func.cmp(&b.func).then(a.line.cmp(&b.line)));
        rows
    }

    /// Run `init`, an engine's global initializers, on the machine's first
    /// call only. If it fails, the globals stay partly written: that call
    /// returns `init`'s error and every later one [`InterpError::InitFailed`].
    pub(crate) fn init_globals_once(&self, init: impl FnOnce() -> IResult<()>) -> IResult<()> {
        let state = &self.globals;
        match state.compare_exchange(GLOBALS_PENDING, GLOBALS_STARTED, SeqCst, SeqCst) {
            Ok(_) => init().inspect_err(|_| state.store(GLOBALS_FAILED, SeqCst)),
            Err(GLOBALS_FAILED) => Err(InterpError::InitFailed),
            Err(_) => Ok(()),
        }
    }

    /// The guest resource governor (fuel, memory ceiling, stack depth,
    /// deadline), as passed to [`Machine::instantiate`].
    pub fn limits(&self) -> &GuestLimits {
        &self.limits
    }

    pub(crate) fn emit(&self, s: &str) {
        self.captured.lock().push_str(s);
    }

    /// Take everything printed so far.
    pub fn take_output(&self) -> String {
        std::mem::take(&mut *self.captured.lock())
    }
}

/// Visit the direct child expressions of an expression.
pub fn visit_child_exprs(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    match &e.kind {
        ExprKind::Call { args, .. } => args.iter().for_each(&mut *f),
        ExprKind::KernelLaunch { grid, block, args, .. } => {
            f(grid);
            f(block);
            args.iter().for_each(&mut *f);
        }
        ExprKind::Dim3 { x, y, z } => {
            f(x);
            if let Some(y) = y {
                f(y);
            }
            if let Some(z) = z {
                f(z);
            }
        }
        ExprKind::Member { base, .. } => f(base),
        ExprKind::Index { base, index } => {
            f(base);
            f(index);
        }
        ExprKind::Unary { expr, .. }
        | ExprKind::IncDec { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::SizeofExpr(expr) => f(expr),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        ExprKind::Ternary { cond, then_e, else_e } => {
            f(cond);
            f(then_e);
            f(else_e);
        }
        ExprKind::Comma(a, b) => {
            f(a);
            f(b);
        }
        _ => {}
    }
}

/// Visit the direct expressions of a statement (not recursing into child
/// statements).
pub fn visit_stmt_exprs(s: &Stmt, f: &mut dyn FnMut(&Expr)) {
    match s {
        Stmt::Expr(e) => f(e),
        Stmt::Decl(d) => {
            if let Some(init) = &d.init {
                visit_init(init, f);
            }
        }
        Stmt::If { cond, .. } => f(cond),
        Stmt::For { cond, step, .. } => {
            if let Some(c) = cond {
                f(c);
            }
            if let Some(st) = step {
                f(st);
            }
        }
        Stmt::While { cond, .. } | Stmt::DoWhile { cond, .. } => f(cond),
        Stmt::Return(Some(e)) => f(e),
        _ => {}
    }
}

pub(crate) fn visit_init(i: &Init, f: &mut dyn FnMut(&Expr)) {
    match i {
        Init::Expr(e) => f(e),
        Init::List(list) => list.iter().for_each(|it| visit_init(it, f)),
    }
}

/// Visit the direct child statements of a statement.
pub fn visit_child_stmts(s: &Stmt, f: &mut dyn FnMut(&Stmt)) {
    match s {
        Stmt::Block(b) => b.stmts.iter().for_each(&mut *f),
        Stmt::If { then_s, else_s, .. } => {
            f(then_s);
            if let Some(e) = else_s {
                f(e);
            }
        }
        Stmt::For { init, body, .. } => {
            if let Some(i) = init {
                f(i);
            }
            f(body);
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => f(body),
        Stmt::Omp(o) => {
            if let Some(b) = &o.body {
                f(b);
            }
        }
        _ => {}
    }
}
