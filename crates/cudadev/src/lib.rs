//! `cudadev` — the OMPi device module for CUDA GPUs (§4.2 of the paper).
//!
//! OMPi organizes device support as modules with a **host part** (loaded as
//! a plugin by the host runtime: device discovery, lazy initialization,
//! memory mapping and the three-phase kernel launch) and a **device part**
//! (the runtime library linked into every kernel, providing OpenMP
//! semantics inside offloaded code). Both live here; the GPU itself is the
//! simulated Maxwell SMM from `gpusim`.

pub mod devlib;
pub mod error;
pub mod host;
pub mod jit;

pub use devlib::{
    exports, round_barrier_count, CudaDeviceLib, B1, B2, MW_BLOCK_THREADS, MW_WORKERS,
};
pub use error::CudadevError;
pub use host::{
    BreakerState, CudaDev, CudaDevConfig, DevClock, MapKind, MemPressure, PressureOutcome,
    RetryPolicy, TileParam, DEFAULT_LAUNCH_TIMEOUT, DEFAULT_MAX_RESETS,
};
