//! The device registry: an indexed set of [`DeviceModule`]s plus the
//! `default-device-var` ICV.
//!
//! Device numbering follows the OpenMP device API: offload-capable devices
//! are `0 .. num_devices()`, and the *initial device* (the host shim) is
//! number `num_devices()`. `device(n)` clause values and `omp_set_default_device`
//! arguments route through [`DeviceRegistry::resolve`]: negative ids mean
//! "the default device", and any id past the last offload device selects
//! the host — offload requests there run the region's fallback body.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use cudadev::DevClock;

use crate::{DeviceModule, HostDevice};

pub struct DeviceRegistry {
    devices: Vec<Arc<dyn DeviceModule>>,
    host: Arc<HostDevice>,
    /// The `default-device-var` ICV (`omp_get/set_default_device`).
    default_dev: AtomicI64,
    /// Trace/metrics pid for the host shim (see [`DeviceRegistry::new`]).
    host_pid: u64,
}

impl DeviceRegistry {
    /// A registry over `devices` with a fresh host shim (teams of
    /// `host_threads` by default) as the initial device; the default
    /// device starts at 0 (or the host if there are no offload devices).
    /// The host shim records metrics and traces under `host_pid`: a
    /// registry that owns its whole fleet passes `devices.len()` (the
    /// initial-device number), the batch server's single-device job views
    /// pass the fleet size so no job's host shim lands on a real fleet
    /// device's pid.
    pub fn new(
        devices: Vec<Arc<dyn DeviceModule>>,
        host_pid: u64,
        host_threads: usize,
    ) -> DeviceRegistry {
        DeviceRegistry {
            devices,
            host: Arc::new(HostDevice::new(host_threads)),
            default_dev: AtomicI64::new(0),
            host_pid,
        }
    }

    /// The pid host-shim metrics and traces are recorded under.
    pub fn host_pid(&self) -> u64 {
        self.host_pid
    }

    /// Number of offload-capable devices (the host is not counted, per
    /// `omp_get_num_devices`).
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The initial device's number (`omp_get_initial_device`).
    pub fn initial_device_id(&self) -> i64 {
        self.devices.len() as i64
    }

    /// The host shim behind the initial device number.
    pub fn host(&self) -> &Arc<HostDevice> {
        &self.host
    }

    pub fn default_device(&self) -> i64 {
        self.default_dev.load(Ordering::Relaxed)
    }

    pub fn set_default_device(&self, id: i64) {
        self.default_dev.store(id, Ordering::Relaxed);
    }

    /// Normalize a `device()` clause value (or `-1` for "no clause") to a
    /// concrete device number: negatives take the default-device ICV, and
    /// anything past the last offload device lands on the initial device.
    pub fn resolve_id(&self, id: i64) -> usize {
        let id = if id < 0 { self.default_device().max(0) } else { id };
        (id as usize).min(self.devices.len())
    }

    /// The module a `device()` clause value routes to.
    pub fn resolve(&self, id: i64) -> Arc<dyn DeviceModule> {
        let idx = self.resolve_id(id);
        match self.devices.get(idx) {
            Some(d) => d.clone(),
            None => self.host.clone(),
        }
    }

    /// Offload device `idx`, if it exists (the host is not indexable here).
    pub fn device(&self, idx: usize) -> Option<&Arc<dyn DeviceModule>> {
        self.devices.get(idx)
    }

    /// Per-device clock snapshot (`idx == num_devices()` reads the host
    /// shim's clock).
    pub fn clock_of(&self, idx: usize) -> Option<DevClock> {
        if idx == self.devices.len() {
            return Some(self.host.clock());
        }
        self.devices.get(idx).map(|d| d.clock())
    }

    /// Sum of all offload devices' clocks — equals device 0's clock in
    /// single-device runs, so existing single-device reports are unchanged.
    pub fn aggregate_clock(&self) -> DevClock {
        let mut total = DevClock::default();
        for d in &self.devices {
            d.stream_sync();
            total.merge(&d.clock());
        }
        total
    }

    /// `taskwait`: drain every device's queued async command-stream work.
    pub fn sync_streams(&self) {
        for d in &self.devices {
            d.stream_sync();
        }
        self.host.stream_sync();
    }

    pub fn reset_clocks(&self) {
        for d in &self.devices {
            d.reset_clock();
        }
        self.host.reset_clock();
    }

    /// One profile row per offload device (`dev0`..) plus the host shim,
    /// in device-number order — the rows of `obs::render_profile`.
    pub fn profile_rows(&self) -> Vec<obs::ProfileRow> {
        let mut rows: Vec<obs::ProfileRow> = self
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                d.stream_sync();
                d.clock().profile_row(&format!("dev{i}"))
            })
            .collect();
        rows.push(self.host.clock().profile_row("host"));
        rows
    }

    /// Concatenated captured printf output across all offload devices.
    pub fn take_printf_output(&self) -> String {
        let mut out = String::new();
        for d in &self.devices {
            out.push_str(&d.take_printf_output());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceKind;
    use cudadev::{CudadevError, MapKind};
    use gpusim::LaunchStats;
    use std::sync::atomic::AtomicBool;
    use vmcommon::MemArena;

    /// A registry test double: available unless broken, resettable clock.
    struct FakeDev {
        broken: AtomicBool,
        clock: vmcommon::sync::Mutex<DevClock>,
    }

    impl FakeDev {
        fn new(kernel_s: f64) -> Arc<FakeDev> {
            FakeDev::seeded(DevClock { kernel_s, launches: 1, ..DevClock::default() })
        }

        fn seeded(clock: DevClock) -> Arc<FakeDev> {
            Arc::new(FakeDev {
                broken: AtomicBool::new(false),
                clock: vmcommon::sync::Mutex::new(clock),
            })
        }
    }

    impl DeviceModule for FakeDev {
        fn kind(&self) -> DeviceKind {
            DeviceKind::CudaGpu
        }
        fn is_available(&self) -> bool {
            !self.is_broken()
        }
        fn is_broken(&self) -> bool {
            self.broken.load(Ordering::Relaxed)
        }
        fn mark_broken(&self) {
            self.broken.store(true, Ordering::Relaxed);
        }
        fn map(&self, _m: &MemArena, a: u64, _l: u64, _k: MapKind) -> Result<u64, CudadevError> {
            Ok(a)
        }
        fn unmap(&self, _m: &MemArena, _a: u64, _k: MapKind) -> Result<(), CudadevError> {
            Ok(())
        }
        fn update(&self, _m: &MemArena, _a: u64, _l: u64, _to: bool) -> Result<(), CudadevError> {
            Ok(())
        }
        fn dev_addr(&self, a: u64) -> Option<u64> {
            Some(a)
        }
        fn load_module(&self, name: &str) -> Result<Arc<sptx::Module>, CudadevError> {
            Err(CudadevError::ModuleLoad { module: name.into(), reason: "fake".into() })
        }
        fn launch(
            &self,
            _mem: &MemArena,
            _m: &str,
            k: &str,
            _g: [u32; 3],
            _b: [u32; 3],
            _p: Vec<u64>,
        ) -> Result<LaunchStats, CudadevError> {
            Err(CudadevError::Launch {
                kernel: k.into(),
                error: gpusim::ExecError::Trap("fake".into()),
            })
        }
        fn clock(&self) -> DevClock {
            *self.clock.lock()
        }
        fn reset_clock(&self) {
            self.clock.lock().reset();
        }
        fn record_memcpy(&self, _s: f64, _h: u64, _d: u64) {}
        fn raw_device(&self) -> Option<Arc<gpusim::Device>> {
            None
        }
        fn take_printf_output(&self) -> String {
            String::new()
        }
    }

    fn two_dev_registry() -> DeviceRegistry {
        DeviceRegistry::new(vec![FakeDev::new(1.0), FakeDev::new(2.0)], 2, 4)
    }

    #[test]
    fn negative_id_routes_to_default_device() {
        let reg = two_dev_registry();
        assert_eq!(reg.resolve_id(-1), 0);
        reg.set_default_device(1);
        assert_eq!(reg.resolve_id(-1), 1);
        assert_eq!(reg.default_device(), 1);
    }

    #[test]
    fn out_of_range_ids_land_on_the_initial_device() {
        let reg = two_dev_registry();
        assert_eq!(reg.initial_device_id(), 2);
        assert_eq!(reg.resolve_id(2), 2);
        assert_eq!(reg.resolve_id(99), 2);
        assert_eq!(reg.resolve(99).kind(), DeviceKind::Host);
        assert!(!reg.resolve(99).is_available());
        // Default device redirected past the end also lands on the host.
        reg.set_default_device(7);
        assert_eq!(reg.resolve_id(-1), 2);
    }

    #[test]
    fn host_pid_is_independent_of_local_device_numbering() {
        let reg = two_dev_registry();
        assert_eq!(reg.host_pid(), 2);
        // A single-device view of a larger fleet: device numbering is
        // still 0-based locally, but the host shim's pid is pinned.
        let reg = DeviceRegistry::new(vec![FakeDev::new(1.0)], 8, 4);
        assert_eq!(reg.host_pid(), 8);
        assert_eq!(reg.initial_device_id(), 1);
    }

    #[test]
    fn breaking_one_device_leaves_the_other_available() {
        let reg = two_dev_registry();
        reg.resolve(0).mark_broken();
        assert!(!reg.resolve(0).is_available());
        assert!(reg.resolve(1).is_available());
    }

    #[test]
    fn aggregate_clock_sums_offload_devices() {
        let reg = two_dev_registry();
        let total = reg.aggregate_clock();
        assert!((total.kernel_s - 3.0).abs() < 1e-12);
        assert_eq!(total.launches, 2);
        assert!((reg.clock_of(0).unwrap().kernel_s - 1.0).abs() < 1e-12);
        assert!((reg.clock_of(1).unwrap().kernel_s - 2.0).abs() < 1e-12);
        // The initial device's clock exists but stays empty.
        assert_eq!(reg.clock_of(2).unwrap().launches, 0);
        assert!(reg.clock_of(3).is_none());
    }

    /// Regression for the merge/reset asymmetry: `reset` must zero every
    /// field `merge` accumulates (including retry/fault counters), so the
    /// aggregate clock equals the sum of per-device clocks after a reset.
    #[test]
    fn reset_zeroes_every_merged_field() {
        let busy = DevClock {
            init_s: 0.1,
            modload_s: 0.2,
            kernel_s: 1.0,
            h2d_s: 0.3,
            d2h_s: 0.4,
            retry_backoff_s: 0.5,
            fallback_s: 0.6,
            overlap_s: 0.05,
            launches: 3,
            h2d_bytes: 100,
            d2h_bytes: 200,
            jit_compiles: 1,
            jit_cache_hits: 2,
            jit_invalidations: 1,
            retries: 4,
            fallbacks: 2,
        };
        let reg = DeviceRegistry::new(vec![FakeDev::seeded(busy), FakeDev::seeded(busy)], 2, 4);

        let before = reg.aggregate_clock();
        assert_eq!(before.retries, 8);
        assert_eq!(before.fallbacks, 4);
        assert!((before.total_s() - 2.0 * busy.total_s()).abs() < 1e-12);

        reg.reset_clocks();

        let after = reg.aggregate_clock();
        assert_eq!(after.retries, 0, "reset must zero the retry counter");
        assert_eq!(after.fallbacks, 0, "reset must zero the fallback counter");
        assert_eq!(after.launches, 0);
        assert_eq!(after.jit_compiles + after.jit_cache_hits + after.jit_invalidations, 0);
        assert_eq!(after.h2d_bytes + after.d2h_bytes, 0);
        assert_eq!(after.total_s(), 0.0);

        // Aggregate == sum of per-device snapshots, before and after.
        let mut summed = DevClock::default();
        for i in 0..reg.num_devices() {
            summed.merge(&reg.clock_of(i).unwrap());
        }
        assert_eq!(summed.retries, after.retries);
        assert_eq!(summed.total_s(), after.total_s());
    }

    #[test]
    fn profile_rows_cover_devices_and_host() {
        let reg = two_dev_registry();
        let rows = reg.profile_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].label, "dev0");
        assert_eq!(rows[1].label, "dev1");
        assert_eq!(rows[2].label, "host");
        assert!((rows[0].kernel_s - 1.0).abs() < 1e-12);
        assert!((rows[1].total_s() - 2.0).abs() < 1e-12);
        assert_eq!(rows[2].total_s(), 0.0);
    }
}
