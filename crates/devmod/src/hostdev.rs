//! The host shim: the OpenMP *initial device* as a [`DeviceModule`].
//!
//! OMPi's general-purpose transformation always emits a host-lowered copy
//! of every target region as the fallback body; routing a region to the
//! initial device simply means answering "not available for offload" so
//! the generated guard takes that fallback path, which executes on the
//! host thread team through the wrapped `hostomp` runtime. Data-environment
//! operations are no-ops over unified (host) memory, and kernel launches
//! are rejected outright — the initial device has no kernel binaries.

use std::sync::Arc;

use cudadev::{CudadevError, DevClock, MapKind};
use gpusim::{ExecError, LaunchStats};
use hostomp::HostRt;
use vmcommon::sync::Mutex;
use vmcommon::MemArena;

use crate::{DeviceKind, DeviceModule};

/// The initial device: a shim over the `hostomp` runtime.
pub struct HostDevice {
    rt: Arc<HostRt>,
    clock: Mutex<DevClock>,
}

impl HostDevice {
    /// A shim whose host thread teams default to `host_threads` threads.
    pub fn new(host_threads: usize) -> HostDevice {
        HostDevice {
            rt: Arc::new(HostRt::new(host_threads)),
            clock: Mutex::new(DevClock::default()),
        }
    }

    /// The host OpenMP runtime this shim wraps; the runner's `ort_*` hooks
    /// (parallel regions, worksharing, critical sections) execute on it.
    pub fn rt(&self) -> &Arc<HostRt> {
        &self.rt
    }

    /// Account one host-fallback execution of a target region. Fallback
    /// bodies run on real host threads, so the wall-clock duration is
    /// recorded as the host device's simulated fallback time (documented
    /// substitution — the host has no cycle model).
    pub fn record_fallback(&self, seconds: f64) {
        let mut clk = self.clock.lock();
        clk.fallback_s += seconds;
        clk.fallbacks += 1;
    }
}

impl DeviceModule for HostDevice {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Host
    }

    /// Never available *for offload*: the generated `__dev_ok` guard sees 0
    /// and runs the region's host-lowered body instead.
    fn is_available(&self) -> bool {
        false
    }

    fn is_broken(&self) -> bool {
        false
    }

    /// The initial device cannot be lost; fallback must always have a
    /// place to land.
    fn mark_broken(&self) {}

    /// Host memory is unified: the "device" address of a mapping is the
    /// host address itself and no bytes move.
    fn map(
        &self,
        _host_mem: &MemArena,
        host_addr: u64,
        _len: u64,
        _kind: MapKind,
    ) -> Result<u64, CudadevError> {
        Ok(host_addr)
    }

    fn unmap(
        &self,
        _host_mem: &MemArena,
        _host_addr: u64,
        _kind: MapKind,
    ) -> Result<(), CudadevError> {
        Ok(())
    }

    fn update(
        &self,
        _host_mem: &MemArena,
        _host_addr: u64,
        _len: u64,
        _to_device: bool,
    ) -> Result<(), CudadevError> {
        Ok(())
    }

    fn dev_addr(&self, host_addr: u64) -> Option<u64> {
        Some(host_addr)
    }

    fn load_module(&self, name: &str) -> Result<Arc<sptx::Module>, CudadevError> {
        Err(CudadevError::ModuleLoad {
            module: name.to_string(),
            reason: "initial device has no kernel modules".to_string(),
        })
    }

    fn launch(
        &self,
        _host_mem: &MemArena,
        _module: &str,
        kernel: &str,
        _grid: [u32; 3],
        _block: [u32; 3],
        _params: Vec<u64>,
    ) -> Result<LaunchStats, CudadevError> {
        Err(CudadevError::Launch {
            kernel: kernel.to_string(),
            error: ExecError::Trap("initial device does not execute kernels".to_string()),
        })
    }

    fn clock(&self) -> DevClock {
        *self.clock.lock()
    }

    fn reset_clock(&self) {
        *self.clock.lock() = DevClock::default();
    }

    fn record_memcpy(&self, seconds: f64, h2d_bytes: u64, d2h_bytes: u64) {
        let mut clk = self.clock.lock();
        if d2h_bytes > 0 && h2d_bytes == 0 {
            clk.d2h_s += seconds;
        } else {
            clk.h2d_s += seconds;
        }
        clk.h2d_bytes += h2d_bytes;
        clk.d2h_bytes += d2h_bytes;
    }

    fn raw_device(&self) -> Option<Arc<gpusim::Device>> {
        None
    }

    fn take_printf_output(&self) -> String {
        String::new()
    }
}
