//! `ompi-core` — the OMPi compiler of the reproduction: the paper's primary
//! contribution (§3, §4).
//!
//! * [`transform`] — the transformation & analysis phase: two
//!   transformation sets (host + GPU) lower every OpenMP construct;
//!   `target` regions are outlined into CUDA C kernel files, with combined
//!   constructs mapped to grid launches and stand-alone parallel regions to
//!   the master/worker scheme of Fig. 3.
//! * [`driver`] — the `ompicc` compilation chain of Fig. 2 (and `CudaCc`,
//!   the plain-CUDA baseline compiler used by the evaluation).
//! * [`runner`] — executes compiled applications against the `hostomp` and
//!   `cudadev` runtimes on the simulated Jetson Nano.

pub mod analyze;
pub mod driver;
pub mod runner;
pub mod transform;

pub use analyze::TransError;
pub use driver::{CompiledApp, CudaCc, Ompicc, OmpiccError};
pub use runner::{
    build_fleet, ConfigError, OmpiHooks, ResolvedConfig, Runner, RunnerConfig, DEFAULT_DEVICE_MEM,
    DEFAULT_LAUNCH_TIMEOUT, DEFAULT_MAX_RESETS,
};
pub use transform::{
    translate, translate_traced, KernelFile, PassInfo, PassTrace, Pipeline, TraceEntry,
    TransformSet, Translation, PASSES,
};

/// Worker threads available to master/worker parallel regions (3 warps of
/// the 128-core SMM).
pub use cudadev::MW_WORKERS;
