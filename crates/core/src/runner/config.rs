//! Config resolution: [`RunnerConfig`] keeps the user-facing builder
//! shape, and [`ResolvedConfig::resolve`] turns it into the concrete
//! values every layer below takes (machine, guest limits, obs, host
//! runtime, fault plans, devices). An unset `Option` field means its
//! default. The one environment read under `crates/*/src` is here:
//! `OMP_NUM_THREADS`, the OpenMP specification's initializer of the host
//! runtime's `nthreads-var` (`tests/env_reads.rs` enforces it). It is
//! read once, at resolution, so a `setenv` after construction can never
//! reconfigure a runner or a server's tenants behind their backs.

use std::sync::Arc;
use std::time::Duration;

use cudadev::CudaDevConfig;
pub use cudadev::{DEFAULT_LAUNCH_TIMEOUT, DEFAULT_MAX_RESETS};
use minic::limits::GuestLimits;

use super::RunnerConfig;

/// Default per-device DRAM size when the config leaves it unset.
pub const DEFAULT_DEVICE_MEM: usize = 512 << 20;

/// A `RunnerConfig` that cannot be resolved. Typed so callers (and the
/// batch server's admission path) can report it without string matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A `RunnerConfig` field set to a value that no longer exists
    /// (`launch_sampling: true`), refused rather than ignored.
    Retired { field: &'static str },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Retired { field } => write!(
                f,
                "RunnerConfig::{field} is retired: every launch is simulated, none is estimated"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A fully-concrete runner configuration: every knob has its final value.
/// One snapshot serves any number of jobs; [`super::build_fleet`] and
/// [`super::Runner::on`] take it directly.
#[derive(Clone, Debug)]
pub struct ResolvedConfig {
    pub host_mem: usize,
    /// The device knobs every fleet device shares: `global_mem`,
    /// `exec_mode`, `jit_cache_dir`, `async_streams`, `launch_timeout`
    /// and `max_resets`.
    /// [`super::build_fleet`] fills in the per-device rest (`device_id`,
    /// `kernel_dir`, `fault_plan`, `obs`).
    pub device: CudaDevConfig,
    pub num_devices: usize,
    /// Fault-plan text with optional `devN:` prefixes. Parsed, and so
    /// validated, once per device by [`super::build_fleet`].
    pub fault_spec: Option<String>,
    pub fuel: Option<u64>,
    pub guest_mem: Option<u64>,
    pub guest_stack: Option<u32>,
    pub job_timeout: Option<Duration>,
    /// `OMP_NUM_THREADS` (a positive integer; anything else is ignored),
    /// else the Nano's four cores: the host runtime's `nthreads-var`.
    pub host_threads: usize,
    /// The config's sink, else a disabled one of this snapshot's own.
    pub obs: Arc<obs::Obs>,
}

impl ResolvedConfig {
    /// Fill every unset field with its default. `launch_sampling: true`
    /// is [`ConfigError::Retired`]: no launch is estimated.
    pub fn resolve(cfg: &RunnerConfig) -> Result<ResolvedConfig, ConfigError> {
        if cfg.launch_sampling {
            return Err(ConfigError::Retired { field: "launch_sampling" });
        }
        Ok(ResolvedConfig {
            host_mem: cfg.host_mem,
            device: CudaDevConfig {
                global_mem: cfg.device_mem.unwrap_or(DEFAULT_DEVICE_MEM),
                exec_mode: cfg.exec_mode,
                jit_cache_dir: cfg.jit_cache_dir.clone(),
                async_streams: cfg.async_streams.unwrap_or(false),
                launch_timeout: cfg.launch_timeout.unwrap_or(DEFAULT_LAUNCH_TIMEOUT),
                max_resets: cfg.max_resets.unwrap_or(DEFAULT_MAX_RESETS),
                ..CudaDevConfig::default()
            },
            num_devices: cfg.num_devices,
            fault_spec: cfg.fault_spec.clone(),
            fuel: cfg.fuel,
            guest_mem: cfg.guest_mem,
            guest_stack: cfg.guest_stack,
            job_timeout: cfg.job_timeout,
            host_threads: std::env::var("OMP_NUM_THREADS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(hostomp::DEFAULT_NUM_THREADS),
            obs: cfg.obs.clone().unwrap_or_else(obs::Obs::disabled),
        })
    }

    /// The guest governor state for one job's machine, built from the
    /// snapshot.
    pub fn guest_limits(&self) -> GuestLimits {
        let l = GuestLimits::default();
        l.set_fuel(self.fuel);
        l.set_mem_limit(self.guest_mem);
        if let Some(s) = self.guest_stack {
            l.set_stack_limit(s);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_unset_fields() {
        let rc = ResolvedConfig::resolve(&RunnerConfig::default()).unwrap();
        assert_eq!(rc.device.global_mem, DEFAULT_DEVICE_MEM);
        assert!(!rc.device.async_streams);
        assert_eq!(rc.device.launch_timeout, DEFAULT_LAUNCH_TIMEOUT);
        assert_eq!(rc.device.max_resets, DEFAULT_MAX_RESETS);
    }

    #[test]
    fn explicit_fields_pass_through() {
        let cfg = RunnerConfig {
            device_mem: Some(1 << 20),
            async_streams: Some(true),
            launch_timeout: Some(Duration::from_millis(7)),
            max_resets: Some(9),
            ..Default::default()
        };
        let rc = ResolvedConfig::resolve(&cfg).unwrap();
        assert_eq!(rc.device.global_mem, 1 << 20);
        assert!(rc.device.async_streams);
        assert_eq!(rc.device.launch_timeout, Duration::from_millis(7));
        assert_eq!(rc.device.max_resets, 9);
    }

    #[test]
    fn launch_sampling_is_refused_by_name() {
        let cfg = RunnerConfig { launch_sampling: true, ..Default::default() };
        let e = ResolvedConfig::resolve(&cfg).unwrap_err();
        assert_eq!(e, ConfigError::Retired { field: "launch_sampling" });
        assert!(e.to_string().contains("launch_sampling"), "{e}");
    }

    #[test]
    fn guest_limits_come_from_the_snapshot() {
        let cfg = RunnerConfig {
            fuel: Some(123),
            guest_mem: Some(456),
            guest_stack: Some(7),
            ..Default::default()
        };
        let rc = ResolvedConfig::resolve(&cfg).unwrap();
        let l = rc.guest_limits();
        assert_eq!(l.fuel_budget(), Some(123));
        assert_eq!(l.mem_limit(), Some(456));
        assert_eq!(l.stack_limit(), 7);
    }
}
