//! # ompi-nano — OpenMP offloading for a (simulated) Jetson Nano
//!
//! A reproduction of *"OpenMP Offloading in the Jetson Nano Platform"*
//! (Kasmeridis & Dimakopoulos, ICPP Workshops 2022): the OMPi
//! source-to-source compiler extended with CUDA offloading, its cudadev
//! runtime module, and everything underneath — down to a SIMT simulator of
//! the board's 128-core Maxwell GPU, since no Jetson hardware is assumed.
//!
//! ## Layers (bottom to top)
//!
//! | crate      | role |
//! |------------|------|
//! | [`vmcommon`] | guest memory arenas, schedules, printf, hashing |
//! | [`minic`]    | C-subset frontend + host interpreter (OpenMP + CUDA dialects) |
//! | [`sptx`]     | the kernel IR, `.sptx` text ("PTX") and `.cubin` binaries |
//! | [`nvccsim`]  | the nvcc stand-in: CUDA C → SPTX |
//! | [`gpusim`]   | the Maxwell SMM simulator (warps, named barriers, timing model) |
//! | [`cudadev`]  | the OMPi device module: host part + device runtime library |
//! | [`hostomp`]  | the host OpenMP runtime (thread teams, worksharing) |
//! | [`devmod`]   | the device registry: cudadev GPUs by number, the host as the initial device |
//! | [`ompi_core`]| the translator, `ompicc` driver and application runner |
//! | [`serve`]    | the multi-tenant batch server over the device fleet |
//! | [`unibench`] | the paper's evaluation applications |
//!
//! ## Quickstart
//!
//! ```no_run
//! use ompi_nano::{Ompicc, Runner, RunnerConfig};
//!
//! let src = r#"
//! int main() {
//!     int n = 1024;
//!     float x[1024]; float y[1024];
//!     for (int i = 0; i < n; i++) { x[i] = (float) i; y[i] = 1.0f; }
//!     #pragma omp target teams distribute parallel for map(to: x[0:n]) map(tofrom: y[0:n])
//!     for (int i = 0; i < n; i++)
//!         y[i] = 2.0f * x[i] + y[i];
//!     return 0;
//! }
//! "#;
//! let app = Ompicc::new("/tmp/quickstart").compile(src).unwrap();
//! let runner = Runner::new(&app, &RunnerConfig::default()).unwrap();
//! runner.run_main().unwrap();
//! println!("simulated device time: {:.6}s", runner.dev_clock().total_s());
//! ```
//!
//! A pure-CUDA baseline (`CudaCc::compile`) is the same [`CompiledApp`],
//! run by the same [`Runner::new`]; a server's per-job view over a shared
//! [`DeviceRegistry`] is [`Runner::on`].

pub use cudadev;
pub use devmod;
pub use gpusim;
pub use hostomp;
pub use minic;
pub use nvccsim;
pub use ompi_core;
pub use serve;
pub use sptx;
pub use unibench;
pub use vmcommon;

pub use cudadev::{BreakerState, CudadevError, DevClock, RetryPolicy};
pub use devmod::DeviceRegistry;
pub use gpusim::ExecMode;
pub use gpusim::{FaultKind, FaultPlan, FaultPlanError, FaultRule, FaultSite};
pub use nvccsim::BinMode;
pub use ompi_core::{
    CompiledApp, ConfigError, CudaCc, Ompicc, ResolvedConfig, Runner, RunnerConfig,
};
pub use vmcommon::Value;
