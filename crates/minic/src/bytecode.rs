//! Register bytecode for the mini-C host VM.
//!
//! [`crate::compile`] lowers an analyzed [`crate::ast::Program`] into one
//! [`Chunk`] per function; [`crate::interp::Interp`] executes them. The design
//! goals, in order: bit-identical results with the tree-walking oracle
//! ([`crate::walker`]), then dispatch economy for the array-index / FMA
//! shapes that dominate the UniBench loop nests.
//!
//! Key decisions:
//!
//! * **Registers, not a stack.** Operands are registers in a frame
//!   window, each a `Value` the VM keeps as a 64-bit payload and a 1-byte
//!   tag in two parallel arrays (`vm/regs.rs`); scalar locals whose
//!   address is never taken live directly in registers (slot resolution
//!   happens at compile time from `sema::FrameInfo`), so the gemm inner
//!   loop touches guest memory only for the actual array elements.
//! * **Fused addressing.** `LoadIdx`/`StoreIdx` compute
//!   `base + idx * stride`, null-check the base and access memory in one
//!   dispatch — the walker needs three visits and two typed-memory calls
//!   for the same shape. `FmaAssign` fuses `acc op= a * b` on a
//!   register-resident accumulator.
//! * **Everything slow stays a single op.** Calls, printf, kernel
//!   launches and traps carry pool indices; the pools live in
//!   [`CompiledProgram`].
//! * **Typed ops where the tags are proven.** The compiler's
//!   specialisation pass (`compile/specialize.rs`) rewrites `Bin`,
//!   `FmaAssign`, compare-and-branch and `k++` shapes whose operand tags
//!   it proved (`I32` or `F32`) into typed and fused ops (`AddI` …
//!   `IncI`, at the end of [`Op`]). `Bin` and `FmaAssign` stay as the form
//!   for unproven tags. Each typed op is one dispatch and counts as one
//!   instruction.
//! * **Loops optimised once per image.** After specialisation, the loop
//!   pass (`compile/loops.rs`) deletes repeated typed integer arithmetic,
//!   hoists loop-invariant arithmetic in front of its loop and rotates
//!   loop tests onto the back edge.
//! * **Superinstructions for the hot pairs.** Last, the fusion pass
//!   (`compile/fuse.rs`) rewrites the adjacent typed ops that dominate
//!   the loop nests (a sum- or `i * n + j`-indexed load, a load feeding an
//!   FMA, an increment feeding the back-edge test) into one op each
//!   (`LoadIdxSum` … `IncJcmp`, at the very end of [`Op`]). A
//!   superinstruction is one dispatch but counts as the ops it replaced:
//!   its weight ([`Op::cats`]) is their number, in fuel, instruction
//!   counts, dispatch categories and hotspot hits alike.
//! * **Billed per straight run.** A chunk's code splits into runs, each
//!   ending at its first control op ([`Op::ends_run`]); the VM bills fuel
//!   and counts one entry per run, not per op: a run's length
//!   ([`Chunk::run_len`]) is the sum of its ops' weights.

use crate::ast::BinOp;
use vmcommon::Value;

/// Register index within a chunk's frame window.
pub type R = u16;

/// Compact scalar type kind for typed memory access and conversions.
/// `Dim3X` stores the x component only (the walker's scalar-store
/// behaviour for whole-`dim3` assignment); loads of `dim3` are compiled
/// to traps instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TyK {
    Char,
    Int,
    Long,
    Float,
    Double,
    Ptr,
    Dim3X,
}

impl TyK {
    /// Bytes of one element of this type in guest memory (`None` for
    /// `Dim3X`, which does not load).
    pub fn size(self) -> Option<u32> {
        match self {
            TyK::Char => Some(1),
            TyK::Int | TyK::Float => Some(4),
            TyK::Long | TyK::Double | TyK::Ptr => Some(8),
            TyK::Dim3X => None,
        }
    }
}

/// One bytecode instruction.
///
/// `off` fields are byte offsets added to a base address; `stride` fields
/// are element strides for scaled indexing (the `D` variants read the
/// stride from a register for VLA-typed pointers). Jump targets are
/// absolute instruction indices.
#[derive(Clone, Debug)]
pub enum Op {
    /// `regs[dst] = consts[idx]`.
    Const {
        dst: R,
        idx: u32,
    },
    Mov {
        dst: R,
        src: R,
    },
    /// `regs[dst] = convert(regs[src], ty)` (C cast semantics).
    Conv {
        dst: R,
        src: R,
        ty: TyK,
    },
    /// Address of a frame slot: `regs[dst] = Ptr(frame_base + off)`.
    FrameAddr {
        dst: R,
        off: u32,
    },
    /// Typed load/store of a frame slot at a static offset.
    LoadSlot {
        dst: R,
        off: u32,
        ty: TyK,
    },
    StoreSlot {
        off: u32,
        src: R,
        ty: TyK,
    },
    /// Typed load/store at a static absolute address (`consts[at]` is a
    /// `Ptr`): globals.
    LoadAbs {
        dst: R,
        at: u32,
        ty: TyK,
    },
    StoreAbs {
        at: u32,
        src: R,
        ty: TyK,
    },
    /// Typed load/store through a pointer register (+ static byte offset).
    /// Null base traps like the walker's lvalue path.
    Load {
        dst: R,
        addr: R,
        off: u32,
        ty: TyK,
    },
    Store {
        addr: R,
        off: u32,
        src: R,
        ty: TyK,
    },
    /// Fused `base[idx]` element access: address `base + idx * stride`,
    /// base null-checked.
    LoadIdx {
        dst: R,
        base: R,
        idx: R,
        stride: u32,
        ty: TyK,
    },
    StoreIdx {
        base: R,
        idx: R,
        stride: u32,
        src: R,
        ty: TyK,
    },
    /// Fused element *address* (nested arrays, `&a[i]`).
    AddrIdx {
        dst: R,
        base: R,
        idx: R,
        stride: u32,
    },
    LoadIdxD {
        dst: R,
        base: R,
        idx: R,
        stride: R,
        ty: TyK,
    },
    StoreIdxD {
        base: R,
        idx: R,
        stride: R,
        src: R,
        ty: TyK,
    },
    AddrIdxD {
        dst: R,
        base: R,
        idx: R,
        stride: R,
    },
    /// Explicit null check (kept when the index expression is impure so
    /// the walker's check-before-index evaluation order is preserved).
    ChkNull {
        src: R,
    },
    /// VLA stride step: trap on negative extent, then
    /// `regs[dst] = I64(extent * elem)`.
    Stride {
        dst: R,
        extent: R,
        elem: u32,
    },
    StrideD {
        dst: R,
        extent: R,
        elem: R,
    },
    /// `regs[dst] = apply_binop(op, regs[a], stride, regs[b])` — the full
    /// C semantics of the walker (pointer±int with stride, f32-preserving
    /// float ops, wrapping integer ops, div/rem-by-zero traps).
    Bin {
        op: BinOp,
        dst: R,
        a: R,
        b: R,
        stride: u32,
    },
    BinD {
        op: BinOp,
        dst: R,
        a: R,
        b: R,
        stride: R,
    },
    /// Pointer difference `(a - b) / stride`.
    PtrDiff {
        dst: R,
        a: R,
        b: R,
        stride: u32,
    },
    PtrDiffD {
        dst: R,
        a: R,
        b: R,
        stride: R,
    },
    /// Fused `regs[dst] = convert(regs[dst] + regs[a] * regs[b], ty)`
    /// with exactly the walker's two-step `apply_binop` rounding.
    FmaAssign {
        dst: R,
        a: R,
        b: R,
        ty: TyK,
    },
    Neg {
        dst: R,
        src: R,
    },
    /// Logical not: `I32(!truthy)`.
    NotL {
        dst: R,
        src: R,
    },
    BitNot {
        dst: R,
        src: R,
    },
    /// `I32(is_truthy)` — materializes `&&`/`||` results.
    Truth {
        dst: R,
        src: R,
    },
    Jmp {
        to: u32,
    },
    /// Jump if falsy / truthy.
    Jz {
        cond: R,
        to: u32,
    },
    Jnz {
        cond: R,
        to: u32,
    },
    /// Return `regs[src]` (already converted to the declared return type).
    Ret {
        src: R,
    },
    /// Call chunk `func` with `nargs` consecutive registers from `abase`.
    Call {
        dst: R,
        func: u32,
        abase: R,
        nargs: u8,
    },
    /// Call builtin `rt::BUILTINS[which]`.
    CallBuiltin {
        dst: R,
        which: u16,
        abase: R,
        nargs: u8,
    },
    /// Call through [`crate::interp::Hooks`]; `name` indexes the string
    /// pool. Traps "unknown function" if the hook declines.
    CallHook {
        dst: R,
        name: u32,
        abase: R,
        nargs: u8,
    },
    /// printf with a static format string (`strs[fmt]`); `nargs` is the
    /// number of evaluated (conversion-matched) arguments.
    Printf {
        dst: R,
        fmt: u32,
        abase: R,
        nargs: u8,
    },
    /// printf with a runtime format pointer.
    PrintfD {
        dst: R,
        fmt: R,
        abase: R,
        nargs: u8,
    },
    /// CUDA-dialect kernel launch: `gb` is the first of six consecutive
    /// registers holding grid.xyz / block.xyz.
    Launch {
        name: u32,
        gb: R,
        abase: R,
        nargs: u8,
    },
    /// Launch-config component: `regs[dst] = I64(max(src, 1) as u32)`.
    DimFix {
        dst: R,
        src: R,
    },
    /// Load/store the three `u32` components of a `dim3` frame slot into
    /// three consecutive registers (as I64).
    Dim3Load {
        dst3: R,
        off: u32,
    },
    Dim3Store {
        off: u32,
        src3: R,
    },
    /// Unconditional trap with message `strs[msg]` (compile-time-known
    /// error paths: unresolved identifiers, bad casts, …).
    Trap {
        msg: u32,
    },

    // Typed and fused ops. Only [`crate::compile`]'s specialisation pass
    // emits them, where it proved the operand tags; each VM arm re-checks
    // the tags and otherwise runs the generic sequence it replaced. `conv`
    // marks an op that also absorbed the following `Conv` to its own type
    // (so the generic path must convert too).
    /// `Bin Add` on two `I32` operands.
    AddI {
        dst: R,
        a: R,
        b: R,
        conv: bool,
    },
    SubI {
        dst: R,
        a: R,
        b: R,
        conv: bool,
    },
    MulI {
        dst: R,
        a: R,
        b: R,
        conv: bool,
    },
    /// `Bin Add`/`Sub` of an `I32` and an `I32` constant (a subtraction
    /// stores the negated constant).
    AddIK {
        dst: R,
        a: R,
        k: i32,
        conv: bool,
    },
    MulIK {
        dst: R,
        a: R,
        k: i32,
        conv: bool,
    },
    /// `Bin Add`/`Sub`/`Mul` on two `F32` operands.
    AddF {
        dst: R,
        a: R,
        b: R,
        conv: bool,
    },
    SubF {
        dst: R,
        a: R,
        b: R,
        conv: bool,
    },
    MulF {
        dst: R,
        a: R,
        b: R,
        conv: bool,
    },
    /// `Bin Mul` of a non-NaN `F32` constant and an `F32` (either order:
    /// with a non-NaN constant the product does not depend on it).
    MulKF {
        dst: R,
        a: R,
        k: f32,
        conv: bool,
    },
    /// `FmaAssign` to a `float` with all three operands `F32`.
    FmaF {
        dst: R,
        a: R,
        b: R,
    },
    /// A comparison `Bin` and the `Jz`/`Jnz` that consumed it: jump when
    /// `(a op b) == when`. `float` selects the `F32` domain (compared in
    /// f64, like `apply_binop`), else the `I32` domain.
    Jcmp {
        op: BinOp,
        a: R,
        b: R,
        to: u32,
        when: bool,
        float: bool,
    },
    /// `Jcmp` of an `I32` against an `I32` constant that fits in 16 bits
    /// (so `Op` stays 12 bytes): jump when `(a op k) == when` (a constant
    /// on the left is mirrored to the right).
    JcmpIK {
        op: BinOp,
        a: R,
        k: i16,
        to: u32,
        when: bool,
    },
    /// `r++`/`r--` as a statement on an `int` register slot (`Mov; Const
    /// I64(±1); Bin Add; Conv int`): `r = convert(r + I64(k), int)`.
    IncI {
        r: R,
        k: i32,
    },

    // Superinstructions. Only the fusion pass (`compile/fuse.rs`) emits
    // them, for an adjacent run of the ops named below whose intermediate
    // registers are dead afterwards; the ops after the first are no jump
    // target. Each is one dispatch but bills, counts and attributes as the
    // ops it replaced ([`Op::cats`]), and its VM arm runs those ops' arms
    // in order, so tags, traps and messages are theirs. A fused load's
    // stride is its type's size ([`TyK::size`]).
    /// `AddI t = a + b; LoadIdx dst = base[t]`.
    LoadIdxSum {
        dst: R,
        base: R,
        a: R,
        b: R,
        ty: TyK,
    },
    /// `MulI t = i * n; AddI u = t + j; LoadIdx dst = base[u]`.
    LoadIdxMad {
        dst: R,
        base: R,
        i: R,
        n: R,
        j: R,
        ty: TyK,
    },
    /// `LoadIdx t = base[idx]` of a `float` and the `FmaF acc += x * t`
    /// (`acc += t * x` when `first`) that consumes it.
    FmaIdx {
        acc: R,
        x: R,
        base: R,
        idx: R,
        first: bool,
    },
    /// `IncI r, k` (or `AddIK r = r + k` with its `Conv`, whose generic
    /// form is the same) and the `Jcmp r op b` of the `I32` domain after
    /// it: the increment-and-branch of a rotated loop.
    IncJcmp {
        op: BinOp,
        r: R,
        b: R,
        k: i8,
        to: u32,
        when: bool,
    },
}

// `JcmpIK` squeezes its constant to 16 bits to keep every op at 12 bytes; a
// wider op would grow every chunk by a third.
const _: () = assert!(std::mem::size_of::<Op>() == 12);

/// How an incoming argument binds to the callee frame.
#[derive(Clone, Debug)]
pub enum ParamSpec {
    /// Register-resident scalar: `regs[reg] = convert(arg, ty)`.
    Reg { reg: R, ty: TyK },
    /// Memory-resident (address-taken) parameter: typed store at the
    /// frame offset.
    Mem { off: u32, ty: TyK },
}

/// A compiled function.
#[derive(Clone, Debug)]
pub struct Chunk {
    pub name: String,
    /// Register window size.
    pub nregs: u16,
    /// Guest-stack frame size (identical to the walker's `FrameInfo::size`
    /// so stack-exhaustion behaviour is unchanged).
    pub frame_size: u64,
    /// How each argument binds, in declaration order (an argument whose
    /// tag already is its register parameter's keeps its bits).
    pub params: Vec<ParamSpec>,
    /// Registers set at entry to the typed zero of their slot (matching a
    /// typed load from zeroed frame memory). Every register starts as
    /// `I32(0)`, so only other zeros are listed, and no register a
    /// parameter binds.
    pub zero_init: Vec<(R, TyK)>,
    pub code: Vec<Op>,
    /// Index into [`CompiledProgram::line_tables`] — the pc→source-line
    /// map for this chunk.
    pub line_table: u32,
    /// Per pc: the weight of the ops from `pc` through the next op that
    /// [ends a run](Op::ends_run), inclusive ([`run_lens`]).
    pub run_len: Vec<u32>,
    /// First of this chunk's `1 + code.len()` slots in the VM's flat
    /// counter buffer ([`CompiledProgram::counter_len`]): an "entered" flag,
    /// then one run-entry count per pc.
    pub base: u32,
}

/// [`Chunk::run_len`] for `code`.
pub fn run_lens(code: &[Op]) -> Vec<u32> {
    let mut out = vec![0; code.len()];
    let mut len = 0;
    for (pc, op) in code.iter().enumerate().rev() {
        let weight = op.cats().len() as u32;
        len = if op.ends_run() { weight } else { len + weight };
        out[pc] = len;
    }
    out
}

/// What the loop pass did to a program's code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Recomputations deleted by value numbering.
    pub removed: u32,
    /// Loop-invariant ops moved in front of their loop.
    pub hoisted: u32,
    /// Back-edge jumps replaced by the loop's test.
    pub rotated: u32,
    /// Superinstructions the fusion pass made (`compile/fuse.rs`).
    pub fused: u32,
}

/// The whole program in bytecode form, plus its pools.
#[derive(Clone, Debug, Default)]
pub struct CompiledProgram {
    pub chunks: Vec<Chunk>,
    /// Function name → chunk index.
    pub fn_chunk: std::collections::HashMap<String, u32>,
    /// Synthetic chunk running global initializers (guarded by the
    /// machine's once-only initializer state, like the walker).
    pub init_chunk: Option<u32>,
    pub consts: Vec<Value>,
    pub strs: Vec<String>,
    /// Run-length-encoded pc→line tables: `(pc_start, line)` pairs sorted
    /// by `pc_start`; an entry covers pcs up to the next entry. Tables are
    /// bit-exact-deduplicated like the constant pool (two chunks compiled
    /// from identical line shapes share one table).
    pub line_tables: Vec<Vec<(u32, u32)>>,
    /// What the loop pass did, over all chunks.
    pub loop_stats: LoopStats,
}

impl CompiledProgram {
    /// Slots of the VM's flat counter buffer the chunks use (see
    /// [`Chunk::base`]).
    pub fn counter_len(&self) -> usize {
        self.chunks.last().map_or(0, |c| c.base as usize + 1 + c.code.len())
    }
}

/// Source line for a pc given a chunk's RLE line table (binary search on
/// the run starts). Returns 0 for an empty table.
pub fn line_for_pc(table: &[(u32, u32)], pc: u32) -> u32 {
    match table.binary_search_by_key(&pc, |&(start, _)| start) {
        Ok(i) => table[i].1,
        Err(0) => 0,
        Err(i) => table[i - 1].1,
    }
}

/// Dispatch categories for the `vm.dispatch.*` observability counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpCat {
    Mem = 0,
    Idx = 1,
    Alu = 2,
    Ctrl = 3,
    Call = 4,
    Misc = 5,
}

pub const OP_CATS: [&str; 6] = ["mem", "idx", "alu", "ctrl", "call", "misc"];

impl Op {
    /// Does a straight run of ops end here? True for every op after which
    /// control may continue elsewhere than at the next op: jumps, calls,
    /// returns and traps.
    #[inline]
    pub fn ends_run(&self) -> bool {
        use Op::*;
        matches!(
            self,
            Jmp { .. }
                | Jz { .. }
                | Jnz { .. }
                | Jcmp { .. }
                | JcmpIK { .. }
                | IncJcmp { .. }
                | Call { .. }
                | Ret { .. }
                | Trap { .. }
        )
    }

    /// The dispatch categories of the ops this one stands for, in order:
    /// one for a plain op, one per op a superinstruction replaced. Its
    /// length is the op's weight in fuel and instruction counts.
    #[inline]
    pub fn cats(&self) -> &'static [OpCat] {
        use Op::*;
        use OpCat::{Alu, Ctrl, Idx};
        match self {
            LoadSlot { .. }
            | StoreSlot { .. }
            | LoadAbs { .. }
            | StoreAbs { .. }
            | Load { .. }
            | Store { .. }
            | Dim3Load { .. }
            | Dim3Store { .. } => &[OpCat::Mem],
            LoadIdx { .. }
            | StoreIdx { .. }
            | AddrIdx { .. }
            | LoadIdxD { .. }
            | StoreIdxD { .. }
            | AddrIdxD { .. } => &[Idx],
            Conv { .. }
            | Bin { .. }
            | BinD { .. }
            | PtrDiff { .. }
            | PtrDiffD { .. }
            | FmaAssign { .. }
            | Neg { .. }
            | NotL { .. }
            | BitNot { .. }
            | Truth { .. }
            | Stride { .. }
            | StrideD { .. }
            | DimFix { .. }
            | AddI { .. }
            | SubI { .. }
            | MulI { .. }
            | AddIK { .. }
            | MulIK { .. }
            | AddF { .. }
            | SubF { .. }
            | MulF { .. }
            | MulKF { .. }
            | FmaF { .. }
            | IncI { .. } => &[Alu],
            Jmp { .. } | Jz { .. } | Jnz { .. } | Jcmp { .. } | JcmpIK { .. } | Ret { .. } => {
                &[Ctrl]
            }
            Call { .. }
            | CallBuiltin { .. }
            | CallHook { .. }
            | Printf { .. }
            | PrintfD { .. }
            | Launch { .. } => &[OpCat::Call],
            Const { .. } | Mov { .. } | FrameAddr { .. } | ChkNull { .. } | Trap { .. } => {
                &[OpCat::Misc]
            }
            LoadIdxSum { .. } => &[Alu, Idx],
            LoadIdxMad { .. } => &[Alu, Alu, Idx],
            FmaIdx { .. } => &[Idx, Alu],
            IncJcmp { .. } => &[Alu, Ctrl],
        }
    }
}
