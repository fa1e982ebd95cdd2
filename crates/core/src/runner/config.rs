//! Config resolution: the one file under `crates/*/src` that reads the
//! process environment (`tests/env_reads.rs` enforces it).
//!
//! [`RunnerConfig`] keeps the user-facing builder shape — tunable fields
//! are `Option`s so "explicitly set" and "left at default" are different
//! states. [`ResolvedConfig::resolve`] snapshots it against the process
//! environment exactly once, with the documented precedence:
//!
//! 1. an explicit `RunnerConfig` field always wins,
//! 2. otherwise a well-formed env var applies,
//! 3. otherwise the built-in default.
//!
//! A malformed env var that would have applied (rule 2) is a typed
//! [`ConfigError`], never a silent fallback — the same stance
//! `OMPI_GUEST_FUEL` has taken since the guest governor landed. Every
//! layer below (machine, guest limits, obs, host runtime, fault plans,
//! devices) takes its values from the snapshot, so a `setenv` after
//! construction can never reconfigure a runner or a server's tenants
//! behind their backs.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cudadev::CudaDevConfig;
pub use cudadev::{DEFAULT_LAUNCH_TIMEOUT, DEFAULT_MAX_RESETS};
use minic::limits::GuestLimits;

use super::RunnerConfig;

/// Default per-device DRAM size when neither config nor env say otherwise.
pub const DEFAULT_DEVICE_MEM: usize = 512 << 20;

/// A malformed `OMPI_*` value that was about to apply. Typed so callers
/// (and the batch server's admission path) can report it without string
/// matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Not parseable as the expected integer.
    Int { var: &'static str, value: String },
    /// Not a recognized boolean spelling (see [`obs::parse_bool`]).
    Bool { var: &'static str, value: String },
    /// `parse_size` rejected the value.
    Size { var: &'static str, msg: String },
    /// A parsed byte count that does not fit `usize` on this target —
    /// previously a silent `as usize` wrap on 32-bit.
    Overflow { var: &'static str, bytes: u64 },
    /// A `RunnerConfig` field set to a value that no longer exists
    /// (`launch_sampling: true`), refused rather than ignored.
    Retired { field: &'static str },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Int { var, value } => {
                write!(f, "{var}: `{value}` is not an integer")
            }
            ConfigError::Bool { var, value } => {
                write!(f, "{var}: `{value}` is not a boolean (use 1/true/on/yes or 0/false/off/no)")
            }
            ConfigError::Size { var, msg } => write!(f, "{var}: {msg}"),
            ConfigError::Overflow { var, bytes } => {
                write!(f, "{var}: {bytes} bytes does not fit in usize on this target")
            }
            ConfigError::Retired { field } => write!(
                f,
                "RunnerConfig::{field} is retired: every launch is simulated, none is estimated"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A fully-concrete runner configuration: every knob has its final value
/// and no environment read remains. One snapshot serves any number of
/// jobs; [`super::build_fleet`] and [`super::Runner::on`] take it directly.
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
    /// Fault-plan text with optional `devN:` prefixes: the explicit
    /// `RunnerConfig::fault_spec`, else `OMPI_FAULT_PLAN`. Parsed, and so
    /// validated, once per device by [`super::build_fleet`].
    pub fault_spec: Option<String>,
    pub fuel: Option<u64>,
    pub guest_mem: Option<u64>,
    pub guest_stack: Option<u32>,
    pub job_timeout: Option<Duration>,
    /// `OMP_NUM_THREADS` (a positive integer; anything else is ignored),
    /// else the Nano's four cores: the host runtime's `nthreads-var`.
    pub host_threads: usize,
    /// The explicit sink. With `None` the runner builds its own and
    /// exports it on drop as `export` says; an explicit sink means the
    /// caller owns export, so `export` is then `None` whatever the
    /// environment says.
    pub obs: Option<Arc<obs::Obs>>,
    /// What a runner that builds its own sink exports on drop.
    pub export: Option<Export>,
    /// `OMPI_FLIGHT_DUMP`: the flight recorder's post-mortem path. Callers
    /// that build the sink themselves (`fig4`) pass it to [`obs::Obs::new`].
    pub flight_dump: Option<PathBuf>,
}

/// Own-sink export, done when the runner drops; the last-chance flight
/// post-mortem always fires too.
#[derive(Clone, Debug)]
pub struct Export {
    /// `OMPI_TRACE`: write the Chrome trace here.
    pub trace_path: Option<PathBuf>,
    /// `OMPI_PROFILE`: print the per-device profile table.
    pub profile: bool,
    /// `OMPI_HOTSPOTS`: collect guest-source attribution in the machine
    /// and print the hotspot table. Like `profile`, one strict
    /// [`obs::parse_bool`]; an unrecognized spelling is "off".
    pub hotspots: bool,
}

impl ResolvedConfig {
    /// Snapshot for the OpenMP offload path: all of `OMPI_DEV_MEM`,
    /// `OMPI_ASYNC`, `OMPI_LAUNCH_TIMEOUT_MS`, `OMPI_MAX_RESETS`,
    /// `OMPI_JOB_TIMEOUT_MS` and the `OMPI_GUEST_*` limits may apply
    /// (each only where the config left the field unset).
    /// `launch_sampling: true` is [`ConfigError::Retired`]: no launch is
    /// estimated.
    pub fn resolve(cfg: &RunnerConfig) -> Result<ResolvedConfig, ConfigError> {
        if cfg.launch_sampling {
            return Err(ConfigError::Retired { field: "launch_sampling" });
        }
        let flag = |var| env_text(var).and_then(|v| obs::parse_bool(&v)).unwrap_or(false);
        Ok(ResolvedConfig {
            host_mem: cfg.host_mem,
            device: CudaDevConfig {
                global_mem: or_env(cfg.device_mem, || env_size_usize("OMPI_DEV_MEM"))?
                    .unwrap_or(DEFAULT_DEVICE_MEM),
                exec_mode: cfg.exec_mode,
                jit_cache_dir: cfg.jit_cache_dir.clone(),
                async_streams: or_env(cfg.async_streams, || env_bool("OMPI_ASYNC"))?
                    .unwrap_or(false),
                launch_timeout: or_env(cfg.launch_timeout, || env_ms("OMPI_LAUNCH_TIMEOUT_MS"))?
                    .unwrap_or(DEFAULT_LAUNCH_TIMEOUT),
                max_resets: or_env(cfg.max_resets, || env_int("OMPI_MAX_RESETS"))?
                    .unwrap_or(DEFAULT_MAX_RESETS),
                ..CudaDevConfig::default()
            },
            num_devices: cfg.num_devices,
            fault_spec: cfg.fault_spec.clone().or_else(|| env_text("OMPI_FAULT_PLAN")),
            fuel: or_env(cfg.fuel, || env_int("OMPI_GUEST_FUEL"))?,
            guest_mem: or_env(cfg.guest_mem, || env_size("OMPI_GUEST_MEM"))?,
            guest_stack: or_env(cfg.guest_stack, || env_int("OMPI_GUEST_STACK"))?,
            job_timeout: or_env(cfg.job_timeout, || env_ms("OMPI_JOB_TIMEOUT_MS"))?,
            host_threads: env_text("OMP_NUM_THREADS")
                .and_then(|v| v.trim().parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(hostomp::DEFAULT_NUM_THREADS),
            obs: cfg.obs.clone(),
            export: cfg.obs.is_none().then(|| Export {
                trace_path: env_text("OMPI_TRACE").map(PathBuf::from),
                profile: flag("OMPI_PROFILE"),
                hotspots: flag("OMPI_HOTSPOTS"),
            }),
            flight_dump: env_text("OMPI_FLIGHT_DUMP").map(PathBuf::from),
        })
    }

    /// Snapshot for the pure-CUDA baseline: the four device knobs come
    /// from the config alone (`OMPI_DEV_MEM` would just crash a baseline
    /// that manages raw device memory itself) — unset ones are pinned to
    /// their defaults, so their variables are not even read — while
    /// everything else is snapshotted as in [`ResolvedConfig::resolve`].
    /// [`super::Runner::new`] picks it for an app with a `cuda_module`.
    pub fn resolve_cuda(cfg: &RunnerConfig) -> Result<ResolvedConfig, ConfigError> {
        Self::resolve(&RunnerConfig {
            device_mem: cfg.device_mem.or(Some(DEFAULT_DEVICE_MEM)),
            async_streams: cfg.async_streams.or(Some(false)),
            launch_timeout: cfg.launch_timeout.or(Some(DEFAULT_LAUNCH_TIMEOUT)),
            max_resets: cfg.max_resets.or(Some(DEFAULT_MAX_RESETS)),
            ..cfg.clone()
        })
    }

    /// The guest governor state for one job's machine, built from the
    /// snapshot — no environment read.
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

/// Rules 1 and 2 of the precedence: the explicit value, else whatever
/// `env` reads. `env` is not called when the field is set, so a malformed
/// variable that would not apply is not even looked at.
fn or_env<T>(
    explicit: Option<T>,
    env: impl FnOnce() -> Result<Option<T>, ConfigError>,
) -> Result<Option<T>, ConfigError> {
    explicit.map_or_else(env, |v| Ok(Some(v)))
}

/// A variable's value; unset and blank are both `None`.
fn env_text(var: &str) -> Option<String> {
    std::env::var(var).ok().filter(|s| !s.trim().is_empty())
}

fn env_int<T: std::str::FromStr>(var: &'static str) -> Result<Option<T>, ConfigError> {
    match std::env::var(var) {
        Ok(s) => s.trim().parse().map(Some).map_err(|_| ConfigError::Int { var, value: s }),
        Err(_) => Ok(None),
    }
}

fn env_ms(var: &'static str) -> Result<Option<Duration>, ConfigError> {
    Ok(env_int(var)?.map(Duration::from_millis))
}

fn env_bool(var: &'static str) -> Result<Option<bool>, ConfigError> {
    match std::env::var(var) {
        Ok(s) => match obs::parse_bool(&s) {
            Some(b) => Ok(Some(b)),
            None => Err(ConfigError::Bool { var, value: s }),
        },
        Err(_) => Ok(None),
    }
}

fn env_size(var: &'static str) -> Result<Option<u64>, ConfigError> {
    match std::env::var(var) {
        Ok(s) => vmcommon::fmt::parse_size(&s)
            .map(Some)
            .map_err(|e| ConfigError::Size { var, msg: e.to_string() }),
        Err(_) => Ok(None),
    }
}

fn env_size_usize(var: &'static str) -> Result<Option<usize>, ConfigError> {
    match env_size(var)? {
        Some(bytes) => {
            usize::try_from(bytes).map(Some).map_err(|_| ConfigError::Overflow { var, bytes })
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-dependent resolution is covered by `tests/config_precedence.rs`,
    // which serializes on a process-wide lock; the pure paths are here.

    #[test]
    fn defaults_fill_unset_fields() {
        let rc = ResolvedConfig::resolve_cuda(&RunnerConfig::default()).unwrap();
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
        let rc = ResolvedConfig::resolve_cuda(&cfg).unwrap();
        assert_eq!(rc.device.global_mem, 1 << 20);
        assert!(rc.device.async_streams);
        assert_eq!(rc.device.launch_timeout, Duration::from_millis(7));
        assert_eq!(rc.device.max_resets, 9);
    }

    #[test]
    fn config_error_messages_name_the_variable() {
        let e = ConfigError::Bool { var: "OMPI_ASYNC", value: "off?".into() };
        assert!(e.to_string().contains("OMPI_ASYNC"));
        let e = ConfigError::Overflow { var: "OMPI_DEV_MEM", bytes: u64::MAX };
        assert!(e.to_string().contains("OMPI_DEV_MEM"));
        assert!(e.to_string().contains("does not fit"));
    }

    #[test]
    fn launch_sampling_is_refused_by_name() {
        let cfg = RunnerConfig { launch_sampling: true, ..Default::default() };
        for resolve in [ResolvedConfig::resolve, ResolvedConfig::resolve_cuda] {
            let e = resolve(&cfg).unwrap_err();
            assert_eq!(e, ConfigError::Retired { field: "launch_sampling" });
            assert!(e.to_string().contains("launch_sampling"), "{e}");
        }
    }

    #[test]
    fn guest_limits_come_from_the_snapshot() {
        let cfg = RunnerConfig {
            fuel: Some(123),
            guest_mem: Some(456),
            guest_stack: Some(7),
            ..Default::default()
        };
        let rc = ResolvedConfig::resolve_cuda(&cfg).unwrap();
        let l = rc.guest_limits();
        assert_eq!(l.fuel_budget(), Some(123));
        assert_eq!(l.mem_limit(), Some(456));
        assert_eq!(l.stack_limit(), 7);
    }
}
