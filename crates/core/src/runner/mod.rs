//! Execution of compiled applications: wires the host interpreter's hooks
//! to the OMPi runtimes — `hostomp` for `ort_*` calls and the device
//! registry for `__dev_*` offloading — exactly where OMPi's generated C
//! would call its runtime libraries.
//!
//! Every `__dev_*` hook takes a leading device-id argument (the value the
//! translator bound from the construct's `device()` clause); the
//! [`DeviceRegistry`] resolves it to a [`CudaDev`] (or to the initial
//! device), so one runner can drive several simulated GPUs with independent
//! clocks, fault plans, and broken-device latches.

use cudadev::{CudaDev, CudaDevConfig, DevClock};
use devmod::DeviceRegistry;
use gpusim::{ExecMode, FaultPlan, FaultPlanError};
use minic::interp::{IResult, Interp, InterpError, Machine};
use std::sync::Arc;
use vmcommon::Value;

use crate::driver::CompiledApp;

mod config;
mod hooks;

pub use config::{
    ConfigError, ResolvedConfig, DEFAULT_DEVICE_MEM, DEFAULT_LAUNCH_TIMEOUT, DEFAULT_MAX_RESETS,
};
pub use hooks::OmpiHooks;

/// Runner configuration. An unset (`None`) field means its default;
/// [`ResolvedConfig::resolve`] fills them in.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Host guest-memory size.
    pub host_mem: usize,
    /// Device DRAM size (per device). `None` = [`DEFAULT_DEVICE_MEM`].
    pub device_mem: Option<usize>,
    /// Grid simulation mode.
    pub exec_mode: ExecMode,
    /// JIT cache directory (PTX mode), shared across devices.
    pub jit_cache_dir: std::path::PathBuf,
    /// Retired: every launch is simulated. `true` fails
    /// [`ResolvedConfig::resolve`] with [`ConfigError::Retired`]; the field
    /// stays only because the repo benchmark still sets it to `false`.
    pub launch_sampling: bool,
    /// Number of simulated offload devices in the registry.
    pub num_devices: usize,
    /// Async command streams: transfers and launches are scheduled on
    /// per-region streams whose copy and compute engines overlap on the
    /// simulated clock (results stay bit-identical — execution is eager).
    /// `None` = `false`.
    pub async_streams: Option<bool>,
    /// Fault-plan source text with optional `devN:` prefixes (unprefixed
    /// rules target device 0), parsed once per device. `None` = no
    /// faults.
    pub fault_spec: Option<String>,
    /// Watchdog deadline for kernels and transfers: a hung operation is
    /// declared timed out after this much simulated waiting and handed to
    /// the recovery manager. `None` = [`DEFAULT_LAUNCH_TIMEOUT`].
    pub launch_timeout: Option<std::time::Duration>,
    /// How many consecutive reset-and-replay attempts may fail before a
    /// device latches permanently broken. `None` = [`DEFAULT_MAX_RESETS`].
    pub max_resets: Option<u32>,
    /// Guest instruction budget per machine: a hostile
    /// `while(1);` returns [`minic::limits::GuestLimitError::FuelExhausted`]
    /// instead of hanging the process. `None` = unlimited.
    pub fuel: Option<u64>,
    /// Guest heap + stack-frame byte ceiling. `None` =
    /// unlimited (bounded only by the host arena).
    pub guest_mem: Option<u64>,
    /// Guest call-depth limit in frames. `None`
    /// keeps the historical default of 200.
    pub guest_stack: Option<u32>,
    /// Wall-clock deadline for each guest job,
    /// armed at every [`Runner::call`] and checked at the engines'
    /// fuel-check boundary. `None` = no deadline.
    pub job_timeout: Option<std::time::Duration>,
    /// Observability sink (tracer + metrics + flight recorder). `None`
    /// gives the runner a disabled one. The caller owns export: it writes
    /// the trace ([`Runner::write_trace`]), prints the profile table
    /// ([`Runner::profile_table`]) and fires the flight post-mortem.
    pub obs: Option<Arc<obs::Obs>>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            host_mem: 256 << 20,
            device_mem: None,
            exec_mode: ExecMode::Functional,
            jit_cache_dir: std::env::temp_dir().join("ompi-jitcache"),
            launch_sampling: false,
            num_devices: 1,
            async_streams: None,
            fault_spec: None,
            launch_timeout: None,
            max_resets: None,
            fuel: None,
            guest_mem: None,
            guest_stack: None,
            job_timeout: None,
            obs: None,
        }
    }
}

/// Build the device fleet for a kernel directory — the one place
/// `CudaDev`s are constructed: `rc.num_devices` simulated GPUs, each with
/// its own clock, broken-latch and fault plan, all sharing `rc.device`'s
/// knobs. Every device's plan is parsed (and so validated) here from
/// `rc.fault_spec`, and kept only if it has rules for that device. Lazy
/// device initialization reports any init error as "device unavailable"
/// (host fallback), which would silently turn a malformed plan into a
/// fault-free run; failing construction is the loud alternative.
pub fn build_fleet(
    rc: &ResolvedConfig,
    kernel_dir: &std::path::Path,
    obs: &Arc<obs::Obs>,
) -> Result<Vec<Arc<CudaDev>>, FaultPlanError> {
    (0..rc.num_devices as u32)
        .map(|device_id| {
            let fault_plan = match &rc.fault_spec {
                Some(text) => Some(FaultPlan::parse_for_device(text, device_id)?)
                    .filter(|p| !p.rules().is_empty())
                    .map(Arc::new),
                None => None,
            };
            Ok(Arc::new(CudaDev::new(CudaDevConfig {
                device_id,
                kernel_dir: kernel_dir.to_path_buf(),
                fault_plan,
                obs: obs.clone(),
                ..rc.device.clone()
            })))
        })
        .collect()
}

/// A runnable application instance.
pub struct Runner {
    pub machine: Arc<Machine>,
    pub hooks: Arc<OmpiHooks>,
    /// Wall-clock deadline armed on the machine at every guest call.
    job_timeout: Option<std::time::Duration>,
}

impl Runner {
    /// Instantiate a compiled application — OpenMP or pure CUDA — on a
    /// fleet of its own: [`ResolvedConfig::resolve`], [`build_fleet`], a
    /// registry over it, and then the same per-job view ([`Runner::on`])
    /// the batch server uses over its long-lived fleet.
    pub fn new(app: &CompiledApp, cfg: &RunnerConfig) -> IResult<Runner> {
        let rc = ResolvedConfig::resolve(cfg).map_err(|e| InterpError::Trap(e.to_string()))?;
        let fleet = build_fleet(&rc, &app.kernel_dir, &rc.obs)
            .map_err(|e| InterpError::Trap(format!("fault plan: {e}")))?;
        let host_pid = fleet.len() as u64;
        let registry = Arc::new(DeviceRegistry::new(fleet, host_pid));
        Self::on(app, registry, &rc)
    }

    /// One job's view over a registry somebody else may own, from a
    /// resolved snapshot (whose `obs` is the caller's sink): a fresh
    /// instance of the app's image and a hook set. This is the batch
    /// server's path: the scheduler owns the device fleet and hands each
    /// job the device(s) it placed it on. Kernel launches of a CUDA
    /// baseline resolve through its `cuda_module`.
    pub fn on(
        app: &CompiledApp,
        registry: Arc<DeviceRegistry>,
        rc: &ResolvedConfig,
    ) -> IResult<Runner> {
        let machine = Machine::instantiate(app.image.clone(), rc.host_mem, rc.guest_limits())?;
        let obs = rc.obs.clone();
        let hooks =
            Arc::new(OmpiHooks::new(registry, app.cuda_module.clone(), obs, rc.host_threads));
        Ok(Runner { machine, hooks, job_timeout: rc.job_timeout })
    }

    /// Call a guest function. A guest that exceeds a configured resource
    /// limit (fuel, memory ceiling, stack depth, job deadline) returns the
    /// typed [`InterpError::Limit`] — never a panic or a hang — with device
    /// state salvaged for the next job (see `on_guest_limit`).
    pub fn call(&self, name: &str, args: &[Value]) -> IResult<Value> {
        self.machine.limits().arm_deadline(self.job_timeout);
        // `Interp::new` runs the global initializers on a machine's first
        // call: their failure takes the same clean-up path as the call's.
        let r = Interp::new(self.machine.clone(), self.hooks.clone())
            .and_then(|mut i| i.call(name, args));
        self.machine.limits().arm_deadline(None);
        self.record_vm_counters();
        if let Err(InterpError::Limit(l)) = &r {
            self.on_guest_limit(l);
        }
        r
    }

    /// Clean-up after a guest hit a resource limit. The *guest* misbehaved
    /// — the device did not — so this must leave the device ready for the
    /// next job and must not touch the recovery breaker:
    /// 1. drain queued async work (the streams' `drain_and_clear` path),
    /// 2. release the aborted job's device mappings (its buffers will
    ///    never be read again),
    /// 3. record `guest_limit.<kind>` + a `limit` trace instant, and give
    ///    the flight recorder its post-mortem trigger.
    fn on_guest_limit(&self, l: &minic::limits::GuestLimitError) {
        let registry = &self.hooks.registry;
        registry.sync_streams();
        for i in 0..registry.num_devices() {
            if let Some(d) = registry.device(i) {
                d.release_mappings();
            }
        }
        let pid = self.hooks.host_pid();
        let obs = self.obs();
        obs.metrics.incr(pid, &format!("guest_limit.{}", l.kind()), 1);
        obs.tracer.instant(
            pid,
            0,
            "limit",
            "limit",
            registry.host_clock().total_s(),
            vec![("kind", l.kind().into()), ("error", l.to_string().into())],
        );
        obs.flight.post_mortem(&format!("guest limit: {l}"));
    }

    /// Drain the machine's VM dispatch counters into the obs metrics
    /// (`vm.instructions`, `vm.dispatch.*` on the initial device's pid).
    fn record_vm_counters(&self) {
        let c = self.machine.drain_vm_counters();
        if c.is_zero() {
            return;
        }
        let pid = self.hooks.host_pid();
        self.obs().metrics.incr(pid, "vm.instructions", c.instructions);
        for (cat, &n) in minic::bytecode::OP_CATS.iter().zip(&c.dispatch) {
            if n != 0 {
                self.obs().metrics.incr(pid, &format!("vm.dispatch.{cat}"), n);
            }
        }
    }

    /// Run `main()`.
    pub fn run_main(&self) -> IResult<Value> {
        self.call("main", &[])
    }

    /// The device registry (per-device clocks, broken-latches, ICVs).
    pub fn registry(&self) -> &Arc<DeviceRegistry> {
        &self.hooks.registry
    }

    /// Number of registered offload devices.
    pub fn num_devices(&self) -> usize {
        self.hooks.registry.num_devices()
    }

    /// The accumulated virtual device time (the paper's reported metric),
    /// summed over all offload devices — identical to the single device's
    /// clock in default configurations.
    pub fn dev_clock(&self) -> DevClock {
        self.hooks.registry.aggregate_clock()
    }

    /// One device's virtual clock: offload devices `0..num_devices()`, and
    /// `idx == num_devices()` the initial device's (host-fallback time).
    pub fn dev_clock_of(&self, idx: usize) -> Option<DevClock> {
        self.hooks.registry.clock_of(idx)
    }

    /// Reset the virtual device clocks (before a measured run).
    pub fn reset_dev_clock(&self) {
        self.hooks.registry.reset_clocks();
    }

    /// Whether a terminal device fault has latched device 0 broken
    /// (subsequent target regions there execute on the host).
    pub fn device_broken(&self) -> bool {
        self.device_broken_at(0)
    }

    /// Whether a terminal device fault has latched device `idx` broken.
    pub fn device_broken_at(&self, idx: usize) -> bool {
        self.hooks.registry.device(idx).map(|d| d.is_broken()).unwrap_or(false)
    }

    /// Captured guest stdout.
    pub fn take_output(&self) -> String {
        self.machine.take_output()
    }

    /// Captured device printf output across all devices (empty if no
    /// device ever came up).
    pub fn take_device_output(&self) -> String {
        self.hooks.registry.take_printf_output()
    }

    /// The observability sink this runner records into.
    pub fn obs(&self) -> &Arc<obs::Obs> {
        &self.hooks.obs
    }

    /// The per-device profile table (simulated time by phase), rendered.
    /// The latency columns come from each device's `region_latency_us`
    /// histogram (pid = row index; the initial device's row comes last and
    /// stays zero — fallbacks are charged to the originating device's
    /// region span).
    pub fn profile_table(&self) -> String {
        let mut rows = self.hooks.registry.profile_rows();
        for (pid, row) in rows.iter_mut().enumerate() {
            if let Some(h) = self.hooks.obs.metrics.hist(pid as u64, "region_latency_us") {
                row.lat_p50_us = h.percentile(50.0).unwrap_or(0);
                row.lat_p95_us = h.percentile(95.0).unwrap_or(0);
                row.lat_p99_us = h.percentile(99.0).unwrap_or(0);
            }
        }
        obs::render_profile(&rows)
    }

    /// Make sure every trace "process" carries a human-readable name
    /// (first-wins: devices that came up already named themselves).
    fn name_trace_processes(&self) {
        let tracer = &self.hooks.obs.tracer;
        for i in 0..self.hooks.registry.num_devices() {
            tracer.set_process_name(i as u64, &format!("dev{i}"));
        }
        tracer.set_process_name(self.hooks.host_pid(), "host (initial device)");
    }

    /// Write the recorded trace as Chrome trace-event JSON.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.name_trace_processes();
        self.hooks.obs.tracer.write_json(path)
    }
}
