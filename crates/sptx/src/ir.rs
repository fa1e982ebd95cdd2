//! The SPTX instruction set and module structure.

/// Scalar value types computed in registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScalarTy {
    I32,
    I64,
    F32,
    F64,
}

impl ScalarTy {
    pub fn name(&self) -> &'static str {
        match self {
            ScalarTy::I32 => "i32",
            ScalarTy::I64 => "i64",
            ScalarTy::F32 => "f32",
            ScalarTy::F64 => "f64",
        }
    }

    pub fn from_name(s: &str) -> Option<ScalarTy> {
        Some(match s {
            "i32" => ScalarTy::I32,
            "i64" => ScalarTy::I64,
            "f32" => ScalarTy::F32,
            "f64" => ScalarTy::F64,
            _ => return None,
        })
    }

    pub fn is_float(&self) -> bool {
        matches!(self, ScalarTy::F32 | ScalarTy::F64)
    }
}

/// Memory access widths for loads/stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemTy {
    /// 8-bit, zero-extended on load.
    B8,
    B32,
    B64,
    F32,
    F64,
}

impl MemTy {
    pub fn size(&self) -> u64 {
        match self {
            MemTy::B8 => 1,
            MemTy::B32 | MemTy::F32 => 4,
            MemTy::B64 | MemTy::F64 => 8,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            MemTy::B8 => "b8",
            MemTy::B32 => "b32",
            MemTy::B64 => "b64",
            MemTy::F32 => "f32",
            MemTy::F64 => "f64",
        }
    }

    pub fn from_name(s: &str) -> Option<MemTy> {
        Some(match s {
            "b8" => MemTy::B8,
            "b32" => MemTy::B32,
            "b64" => MemTy::B64,
            "f32" => MemTy::F32,
            "f64" => MemTy::F64,
            _ => return None,
        })
    }
}

/// A virtual register index (per-function, per-thread).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(pub u32);

/// Special (read-only) hardware registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    TidX,
    TidY,
    TidZ,
    NtidX,
    NtidY,
    NtidZ,
    CtaidX,
    CtaidY,
    CtaidZ,
    NctaidX,
    NctaidY,
    NctaidZ,
    /// Lane index within the warp (0..32).
    LaneId,
    /// Warp index within the block.
    WarpId,
}

impl SpecialReg {
    pub fn name(&self) -> &'static str {
        match self {
            SpecialReg::TidX => "%tid.x",
            SpecialReg::TidY => "%tid.y",
            SpecialReg::TidZ => "%tid.z",
            SpecialReg::NtidX => "%ntid.x",
            SpecialReg::NtidY => "%ntid.y",
            SpecialReg::NtidZ => "%ntid.z",
            SpecialReg::CtaidX => "%ctaid.x",
            SpecialReg::CtaidY => "%ctaid.y",
            SpecialReg::CtaidZ => "%ctaid.z",
            SpecialReg::NctaidX => "%nctaid.x",
            SpecialReg::NctaidY => "%nctaid.y",
            SpecialReg::NctaidZ => "%nctaid.z",
            SpecialReg::LaneId => "%laneid",
            SpecialReg::WarpId => "%warpid",
        }
    }

    pub fn from_name(s: &str) -> Option<SpecialReg> {
        Some(match s {
            "%tid.x" => SpecialReg::TidX,
            "%tid.y" => SpecialReg::TidY,
            "%tid.z" => SpecialReg::TidZ,
            "%ntid.x" => SpecialReg::NtidX,
            "%ntid.y" => SpecialReg::NtidY,
            "%ntid.z" => SpecialReg::NtidZ,
            "%ctaid.x" => SpecialReg::CtaidX,
            "%ctaid.y" => SpecialReg::CtaidY,
            "%ctaid.z" => SpecialReg::CtaidZ,
            "%nctaid.x" => SpecialReg::NctaidX,
            "%nctaid.y" => SpecialReg::NctaidY,
            "%nctaid.z" => SpecialReg::NctaidZ,
            "%laneid" => SpecialReg::LaneId,
            "%warpid" => SpecialReg::WarpId,
            _ => return None,
        })
    }
}

/// An instruction operand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    Reg(Reg),
    /// Integer immediate (bit pattern for integer types).
    ImmI(i64),
    /// Float immediate.
    ImmF(f64),
    Special(SpecialReg),
    /// Base address of this thread's `.local` window (address-taken locals).
    LocalBase,
    /// Base address of the function's static `.shared` allocation.
    SharedBase,
}

/// Binary ALU operations (semantics depend on the instruction's type).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    // Comparisons write 0/1 into an i32 register.
    SetLt,
    SetLe,
    SetGt,
    SetGe,
    SetEq,
    SetNe,
}

impl BinOp {
    pub fn name(&self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::SetLt => "setp.lt",
            BinOp::SetLe => "setp.le",
            BinOp::SetGt => "setp.gt",
            BinOp::SetGe => "setp.ge",
            BinOp::SetEq => "setp.eq",
            BinOp::SetNe => "setp.ne",
        }
    }

    pub fn from_name(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "min" => BinOp::Min,
            "max" => BinOp::Max,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            "setp.lt" => BinOp::SetLt,
            "setp.le" => BinOp::SetLe,
            "setp.gt" => BinOp::SetGt,
            "setp.ge" => BinOp::SetGe,
            "setp.eq" => BinOp::SetEq,
            "setp.ne" => BinOp::SetNe,
            _ => return None,
        })
    }

    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::SetLt | BinOp::SetLe | BinOp::SetGt | BinOp::SetGe | BinOp::SetEq | BinOp::SetNe
        )
    }
}

/// Unary ALU operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    /// Logical not (i32 0/1).
    Not,
    /// Bitwise not.
    BitNot,
    Sqrt,
    Abs,
    Floor,
    Ceil,
    Exp,
    Log,
    Sin,
    Cos,
}

impl UnOp {
    pub fn name(&self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::BitNot => "bnot",
            UnOp::Sqrt => "sqrt",
            UnOp::Abs => "abs",
            UnOp::Floor => "floor",
            UnOp::Ceil => "ceil",
            UnOp::Exp => "ex2",
            UnOp::Log => "lg2",
            UnOp::Sin => "sin",
            UnOp::Cos => "cos",
        }
    }

    pub fn from_name(s: &str) -> Option<UnOp> {
        Some(match s {
            "neg" => UnOp::Neg,
            "not" => UnOp::Not,
            "bnot" => UnOp::BitNot,
            "sqrt" => UnOp::Sqrt,
            "abs" => UnOp::Abs,
            "floor" => UnOp::Floor,
            "ceil" => UnOp::Ceil,
            "ex2" => UnOp::Exp,
            "lg2" => UnOp::Log,
            "sin" => UnOp::Sin,
            "cos" => UnOp::Cos,
            _ => return None,
        })
    }
}

/// Conversion endpoint types (`cvt.to.from`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CvtTy {
    /// Sign-extend the low 8 bits (char loads).
    S8,
    I32,
    I64,
    F32,
    F64,
}

impl CvtTy {
    pub fn name(&self) -> &'static str {
        match self {
            CvtTy::S8 => "s8",
            CvtTy::I32 => "i32",
            CvtTy::I64 => "i64",
            CvtTy::F32 => "f32",
            CvtTy::F64 => "f64",
        }
    }

    pub fn from_name(s: &str) -> Option<CvtTy> {
        Some(match s {
            "s8" => CvtTy::S8,
            "i32" => CvtTy::I32,
            "i64" => CvtTy::I64,
            "f32" => CvtTy::F32,
            "f64" => CvtTy::F64,
            _ => return None,
        })
    }
}

/// Atomic read-modify-write kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomOp {
    /// 32-bit compare-and-swap (the paper's lock primitive).
    CasB32,
    AddI32,
    AddI64,
    AddF32,
    AddF64,
    ExchB32,
    MinI32,
    MaxI32,
}

impl AtomOp {
    pub fn name(&self) -> &'static str {
        match self {
            AtomOp::CasB32 => "atom.cas.b32",
            AtomOp::AddI32 => "atom.add.i32",
            AtomOp::AddI64 => "atom.add.i64",
            AtomOp::AddF32 => "atom.add.f32",
            AtomOp::AddF64 => "atom.add.f64",
            AtomOp::ExchB32 => "atom.exch.b32",
            AtomOp::MinI32 => "atom.min.i32",
            AtomOp::MaxI32 => "atom.max.i32",
        }
    }

    pub fn from_name(s: &str) -> Option<AtomOp> {
        Some(match s {
            "atom.cas.b32" => AtomOp::CasB32,
            "atom.add.i32" => AtomOp::AddI32,
            "atom.add.i64" => AtomOp::AddI64,
            "atom.add.f32" => AtomOp::AddF32,
            "atom.add.f64" => AtomOp::AddF64,
            "atom.exch.b32" => AtomOp::ExchB32,
            "atom.min.i32" => AtomOp::MinI32,
            "atom.max.i32" => AtomOp::MaxI32,
            _ => return None,
        })
    }
}

/// A straight-line instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Inst {
    Bin {
        ty: ScalarTy,
        op: BinOp,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    Un {
        ty: ScalarTy,
        op: UnOp,
        dst: Reg,
        a: Operand,
    },
    Mov {
        dst: Reg,
        src: Operand,
    },
    Cvt {
        to: CvtTy,
        from: CvtTy,
        dst: Reg,
        src: Operand,
    },
    /// `dst = *(addr + offset)`; the address space is taken from the tagged
    /// pointer (generic addressing).
    Ld {
        ty: MemTy,
        dst: Reg,
        addr: Operand,
        offset: i64,
    },
    /// `*(addr + offset) = src`.
    St {
        ty: MemTy,
        src: Operand,
        addr: Operand,
        offset: i64,
    },
    /// `dst = CAS(addr, expected, new)` — returns the old value.
    AtomCas {
        dst: Reg,
        addr: Operand,
        expected: Operand,
        new: Operand,
    },
    Atom {
        op: AtomOp,
        dst: Reg,
        addr: Operand,
        val: Operand,
    },
    /// `bar.sync id, count` — named barrier. `count` is in *threads* and
    /// must be a multiple of the warp size; `None` means the whole block.
    BarSync {
        id: Operand,
        count: Option<Operand>,
    },
    /// Device-function call by module-local index.
    Call {
        func: u32,
        dst: Option<Reg>,
        args: Vec<Operand>,
    },
    /// Runtime-library call by name (the cudadev device library, math,
    /// printf, …). Resolved when the module is linked. `sargs` carries
    /// string immediates (printf format strings).
    Intrinsic {
        name: String,
        dst: Option<Reg>,
        args: Vec<Operand>,
        sargs: Vec<String>,
    },
    /// Return (kernels return nothing; device functions may return a value).
    Ret {
        val: Option<Operand>,
    },
    /// Abort the kernel with a diagnostic.
    Trap {
        msg: String,
    },
}

/// A structured control-flow node.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    Inst(Inst),
    /// Lanes where `cond != 0` run `then_b`, the rest run `else_b`; all
    /// reconverge after.
    If {
        cond: Operand,
        then_b: Vec<Node>,
        else_b: Vec<Node>,
    },
    /// Runs until every lane has issued `break`/`ret`.
    Loop {
        body: Vec<Node>,
    },
    Break,
    Continue,
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamDecl {
    pub name: String,
    pub ty: ScalarTy,
}

/// A compiled function.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    pub name: String,
    /// Kernel (`__global__`) vs device function.
    pub is_kernel: bool,
    pub params: Vec<ParamDecl>,
    /// Number of virtual registers.
    pub num_regs: u32,
    /// Bytes of per-thread `.local` memory (address-taken locals, arrays).
    pub local_size: u64,
    /// Bytes of static `.shared` memory used by this function.
    pub shared_size: u64,
    pub body: Vec<Node>,
}

/// A compiled module — the contents of one kernel file.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Module {
    pub name: String,
    /// Target architecture tag (always `sm_53` for the Nano's Maxwell).
    pub arch: String,
    pub functions: Vec<Function>,
    /// Whether the device runtime library has been linked in (cubin mode
    /// links at compile time; PTX mode links during JIT).
    pub device_lib_linked: bool,
}

impl Module {
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Walk all instructions in a node list (for verification / analysis).
pub fn visit_insts<'a>(nodes: &'a [Node], f: &mut dyn FnMut(&'a Inst)) {
    for n in nodes {
        match n {
            Node::Inst(i) => f(i),
            Node::If { then_b, else_b, .. } => {
                visit_insts(then_b, f);
                visit_insts(else_b, f);
            }
            Node::Loop { body } => visit_insts(body, f),
            Node::Break | Node::Continue => {}
        }
    }
}
