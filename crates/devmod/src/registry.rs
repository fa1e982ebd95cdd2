//! The device registry: an indexed set of [`CudaDev`]s plus the
//! `default-device-var` ICV.
//!
//! Device numbering follows the OpenMP device API: offload-capable devices
//! are `0 .. num_devices()`, and the *initial device* (the host) is
//! number `num_devices()`. `device(n)` clause values and `omp_set_default_device`
//! arguments route through [`DeviceRegistry::resolve`]: negative ids mean
//! "the default device", and any id past the last offload device selects
//! the initial device (`None`) — offload requests there run the region's
//! fallback body.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use cudadev::{CudaDev, DevClock};
use vmcommon::sync::Mutex;

pub struct DeviceRegistry {
    devices: Vec<Arc<CudaDev>>,
    /// The `default-device-var` ICV (`omp_get/set_default_device`).
    default_dev: AtomicI64,
    /// Trace/metrics pid of the initial device (see [`DeviceRegistry::new`]).
    host_pid: u64,
    /// The initial device's clock: only host-fallback time accumulates here.
    host_clock: Mutex<DevClock>,
}

impl DeviceRegistry {
    /// A registry over `devices`; the default device starts at 0 (or the
    /// initial device if there are no offload devices). The initial device
    /// records metrics and traces under `host_pid`: a registry that owns
    /// its whole fleet passes `devices.len()` (the initial-device number),
    /// the batch server's single-device job views pass the fleet size so no
    /// job's host activity lands on a real fleet device's pid.
    pub fn new(devices: Vec<Arc<CudaDev>>, host_pid: u64) -> DeviceRegistry {
        DeviceRegistry {
            devices,
            default_dev: AtomicI64::new(0),
            host_pid,
            host_clock: Mutex::new(DevClock::default()),
        }
    }

    /// The pid the initial device's metrics and traces are recorded under.
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

    /// The device a `device()` clause value routes to; `None` is the
    /// initial device.
    pub fn resolve(&self, id: i64) -> Option<&Arc<CudaDev>> {
        self.devices.get(self.resolve_id(id))
    }

    /// Offload device `idx`; `None` past the last one.
    pub fn device(&self, idx: usize) -> Option<&Arc<CudaDev>> {
        self.devices.get(idx)
    }

    /// The initial device's clock (host-fallback time and count).
    pub fn host_clock(&self) -> DevClock {
        *self.host_clock.lock()
    }

    /// Account one host-fallback execution of a target region. Fallback
    /// bodies run on real host threads, so the wall-clock duration is
    /// recorded as the initial device's simulated fallback time
    /// (documented substitution — the host has no cycle model).
    pub fn record_fallback(&self, seconds: f64) {
        let mut clk = self.host_clock.lock();
        clk.fallback_s += seconds;
        clk.fallbacks += 1;
    }

    /// Per-device clock snapshot (`idx == num_devices()` reads the
    /// initial device's clock).
    pub fn clock_of(&self, idx: usize) -> Option<DevClock> {
        if idx == self.devices.len() {
            return Some(self.host_clock());
        }
        self.devices.get(idx).map(|d| d.clock())
    }

    /// Sum of all offload devices' clocks — equals device 0's clock in
    /// single-device runs, so existing single-device reports are unchanged.
    pub fn aggregate_clock(&self) -> DevClock {
        let mut total = DevClock::default();
        for d in &self.devices {
            total.merge(&d.clock_snapshot());
        }
        total
    }

    /// `taskwait`: drain every device's queued async command-stream work.
    pub fn sync_streams(&self) {
        for d in &self.devices {
            d.stream_sync();
        }
    }

    pub fn reset_clocks(&self) {
        for d in &self.devices {
            d.reset_clock();
        }
        self.host_clock.lock().reset();
    }

    /// One profile row per offload device (`dev0`..) plus the initial
    /// device, in device-number order — the rows of `obs::render_profile`.
    pub fn profile_rows(&self) -> Vec<obs::ProfileRow> {
        let mut rows: Vec<obs::ProfileRow> = self
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| d.clock_snapshot().profile_row(&format!("dev{i}")))
            .collect();
        rows.push(self.host_clock().profile_row("host"));
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
    use cudadev::CudaDevConfig;

    /// A lazy device (nothing is simulated until it is first used) whose
    /// clock starts at `clock`.
    fn seeded(clock: DevClock) -> Arc<CudaDev> {
        let d = CudaDev::new(CudaDevConfig::default());
        *d.clock.lock() = clock;
        Arc::new(d)
    }

    fn dev(kernel_s: f64) -> Arc<CudaDev> {
        seeded(DevClock { kernel_s, launches: 1, ..DevClock::default() })
    }

    fn two_dev_registry() -> DeviceRegistry {
        DeviceRegistry::new(vec![dev(1.0), dev(2.0)], 2)
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
        assert!(reg.resolve(99).is_none());
        assert!(!reg.resolve(99).is_some_and(|d| d.is_available()));
        // Default device redirected past the end also lands on the host.
        reg.set_default_device(7);
        assert_eq!(reg.resolve_id(-1), 2);
    }

    #[test]
    fn host_pid_is_independent_of_local_device_numbering() {
        let reg = two_dev_registry();
        assert_eq!(reg.host_pid(), 2);
        // A single-device view of a larger fleet: device numbering is
        // still 0-based locally, but the initial device's pid is pinned.
        let reg = DeviceRegistry::new(vec![dev(1.0)], 8);
        assert_eq!(reg.host_pid(), 8);
        assert_eq!(reg.initial_device_id(), 1);
    }

    #[test]
    fn breaking_one_device_leaves_the_other_available() {
        let reg = two_dev_registry();
        reg.resolve(0).unwrap().mark_broken();
        assert!(!reg.resolve(0).unwrap().is_available());
        assert!(reg.resolve(1).unwrap().is_available());
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
        let reg = DeviceRegistry::new(vec![seeded(busy), seeded(busy)], 2);

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
