//! The immutable half of a host program: [`Image`].
//!
//! An image is what every run of one program shares: the analyzed AST, the
//! static layout of guest memory (global addresses, string literals, where
//! the heap begins) and the register bytecode, compiled once on first use by
//! whichever machine runs first. A [`Machine`](crate::interp::Machine) is
//! one instance of an image: its own arena, heap, output, counters and
//! limits.
//!
//! Static layout of an arena (offsets, the same in every instance):
//!
//! ```text
//! 0 .. 256           reserved, so offset 0 stays an unmapped "null"
//! .. rodata_start    globals, in declaration order, each aligned to
//!                    max(its alignment, 8); zero until the initializers run
//! .. heap_start      string literals, 8-aligned, NUL-terminated
//! .. arena end       the guest heap (guest stacks are heap blocks)
//! ```

use std::collections::HashMap;
use std::sync::OnceLock;

use vmcommon::addr::{self, Space};
use vmcommon::{BlockAllocator, MemArena};

use crate::ast::*;
use crate::bytecode::CompiledProgram;
use crate::interp::{
    visit_child_exprs, visit_child_stmts, visit_init, visit_stmt_exprs, IResult, InterpError,
};
use crate::sema::ProgramInfo;

/// An analyzed program laid out for guest memory, plus its bytecode.
pub struct Image {
    pub prog: Program,
    pub info: ProgramInfo,
    /// Global-variable addresses, indexed like `ProgramInfo::globals`.
    pub(crate) global_addrs: Vec<u64>,
    /// Interned string literals.
    rodata: HashMap<String, u64>,
    /// Arena offset where the literal bytes begin.
    rodata_start: u64,
    /// Every literal with its padding, as it lies at `rodata_start`.
    rodata_bytes: Vec<u8>,
    /// Function name → item index (definitions only).
    fn_defs: HashMap<String, usize>,
    /// The bytecode, compiled on first use.
    compiled: OnceLock<CompiledProgram>,
}

impl Image {
    /// Lay out an analyzed program's globals and string literals. Nothing
    /// is compiled yet.
    pub fn new(prog: Program, info: ProgramInfo) -> IResult<Image> {
        let mut cursor: u64 = 256;
        let mut global_addrs = Vec::with_capacity(info.globals.len());
        for g in &info.globals {
            let size = g.ty.size().ok_or_else(|| {
                InterpError::Trap(format!("global `{}` has unsized type {}", g.name, g.ty))
            })?;
            cursor = cursor.next_multiple_of(g.ty.align().max(8));
            global_addrs.push(addr::make(Space::Host, cursor));
            cursor += size;
        }

        let rodata_start = cursor;
        let mut rodata = HashMap::new();
        let mut rodata_bytes = Vec::new();
        for s in collect_strings(&prog) {
            if rodata.contains_key(&s) {
                continue;
            }
            cursor = cursor.next_multiple_of(8);
            rodata_bytes.resize((cursor - rodata_start) as usize, 0);
            rodata_bytes.extend_from_slice(s.as_bytes());
            rodata_bytes.push(0);
            rodata.insert(s, addr::make(Space::Host, cursor));
            cursor = rodata_start + rodata_bytes.len() as u64;
        }

        let mut fn_defs = HashMap::new();
        for (i, item) in prog.items.iter().enumerate() {
            if let Item::Func(f) = item {
                fn_defs.insert(f.sig.name.clone(), i);
            }
        }
        Ok(Image {
            prog,
            info,
            global_addrs,
            rodata,
            rodata_start,
            rodata_bytes,
            fn_defs,
            compiled: OnceLock::new(),
        })
    }

    /// First arena offset past the static data: where the guest heap
    /// begins, and the least arena an instance needs.
    fn heap_start(&self) -> u64 {
        self.rodata_start + self.rodata_bytes.len() as u64
    }

    /// Write the string literals into a fresh instance's arena and build
    /// its heap allocator over the rest. The arena is zero, so the globals
    /// need no write until their initializers run.
    pub(crate) fn install(&self, mem: &MemArena) -> IResult<BlockAllocator> {
        let (needed, arena) = (self.heap_start(), mem.size() as u64);
        if needed > arena {
            return Err(InterpError::ArenaTooSmall { needed, arena });
        }
        mem.write_bytes(self.rodata_start, &self.rodata_bytes)?;
        Ok(BlockAllocator::new(needed, arena - needed))
    }

    /// Guest address of a global by name.
    pub fn global_addr(&self, name: &str) -> Option<u64> {
        let i = self.info.globals.iter().position(|g| g.name == name)?;
        Some(self.global_addrs[i])
    }

    /// Guest address of an interned string literal.
    pub(crate) fn rodata_addr(&self, s: &str) -> Option<u64> {
        self.rodata.get(s).copied()
    }

    /// The function definition item, by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.fn_defs.get(name).and_then(|&i| match &self.prog.items[i] {
            Item::Func(f) => Some(f),
            _ => None,
        })
    }

    /// The bytecode, compiled on first use; every machine instantiated
    /// from this image shares it.
    pub fn compiled(&self) -> &CompiledProgram {
        self.compiled.get_or_init(|| crate::compile::compile(self))
    }
}

/// Every string literal of the program, in item order: function bodies and
/// global initializers.
fn collect_strings(prog: &Program) -> Vec<String> {
    fn in_expr(e: &Expr, out: &mut Vec<String>) {
        if let ExprKind::StrLit(s) = &e.kind {
            out.push(s.clone());
        }
        visit_child_exprs(e, &mut |c| in_expr(c, out));
    }
    fn in_stmt(s: &Stmt, out: &mut Vec<String>) {
        visit_stmt_exprs(s, &mut |e| in_expr(e, out));
        visit_child_stmts(s, &mut |c| in_stmt(c, out));
    }
    let mut out = Vec::new();
    for item in &prog.items {
        match item {
            Item::Func(f) => f.body.stmts.iter().for_each(|s| in_stmt(s, &mut out)),
            Item::Global(d) => {
                if let Some(init) = &d.init {
                    visit_init(init, &mut |e| in_expr(e, &mut out));
                }
            }
            _ => {}
        }
    }
    out
}
