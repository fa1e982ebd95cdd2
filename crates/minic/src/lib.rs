//! `minic` — the C-subset frontend of the OMPi reproduction.
//!
//! Provides the lexer, parser, OpenMP directive representation, semantic
//! analysis, pretty-printer and a thread-safe executor for *host* programs
//! (a register bytecode VM, plus the original tree-walking interpreter as
//! a differential-test oracle). The dialect covers the C that the paper's
//! benchmark suite and the OMPi-generated code need:
//!
//! * scalar types `char`/`int`/`long`/`float`/`double`, pointers, multi-dim
//!   arrays (constant and VLA-parameter extents), full declarator syntax
//!   including pointer-to-array (`int (*x)[96]`, as in the paper's Fig. 3);
//! * all of C's statement and expression forms used by Polybench-style code;
//! * `#pragma omp` directives (target/teams/distribute/parallel/for and the
//!   combined forms, data-environment directives, worksharing and
//!   synchronization constructs);
//! * the CUDA dialect for kernel files: `__global__`/`__device__`/
//!   `__shared__`, `threadIdx`/`blockIdx`/`blockDim`/`gridDim`, `dim3` and
//!   `kernel<<<grid, block>>>(…)` launches.

pub mod ast;
pub mod bytecode;
pub mod compile;
pub mod fuzzgen;
mod image;
pub mod interp;
pub mod lexer;
pub mod limits;
pub mod omp;
pub mod parser;
pub mod pretty;
pub mod rt;
pub mod sema;
pub mod token;
pub mod types;
pub mod vm;
pub mod walker;

pub use ast::{Expr, ExprKind, FuncDef, Item, Program, Stmt};
pub use image::Image;
pub use parser::{parse, ParseError};
pub use sema::{analyze, ProgramInfo, SemaError};
pub use types::Ty;
