//! `devmod` — the device layer of the OMPi reproduction.
//!
//! In OMPi, cudadev is *the* device module (§4.2 of the paper), and the
//! host is OpenMP's *initial device*: an offload request routed there runs
//! the region's host-lowered fallback body on the host thread team. This
//! crate holds the [`DeviceRegistry`]: an indexed set of
//! [`CudaDev`](cudadev::CudaDev)s plus the `default-device-var` ICV, the
//! initial device's trace pid and its fallback clock. `device(n)` clauses
//! and the `omp_*` device API route through it, giving N simulated devices
//! with independent clocks, fault plans and broken-latch state; a device
//! number past the last GPU resolves to `None`, the initial device.

mod registry;

pub use registry::DeviceRegistry;
