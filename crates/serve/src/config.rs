//! Server and tenant configuration.

use std::path::PathBuf;

use nvccsim::BinMode;
use ompi_core::RunnerConfig;

/// Per-tenant scheduling and admission knobs.
#[derive(Clone, Copy, Debug)]
pub struct TenantConfig {
    /// Stride-scheduling weight: a weight-2 tenant is picked twice as
    /// often as a weight-1 tenant when both have work queued.
    pub weight: u32,
    /// Maximum jobs this tenant may have executing at once.
    pub max_inflight: usize,
    /// Maximum pending jobs (queued + in flight); submissions past this
    /// are rejected `Overloaded { reason: "tenant_queue_full" }`.
    pub queue_cap: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig { weight: 1, max_inflight: 2, queue_cap: 256 }
    }
}

/// Server-wide configuration. `runner` is resolved exactly once, at
/// [`crate::Server::new`], through [`ompi_core::ResolvedConfig`]: an unset
/// field means its default, as for a runner.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Working directory for compiled kernels and the shared JIT cache.
    pub work_dir: PathBuf,
    /// Kernel binary flavor for tenant programs. `Ptx` (the default)
    /// exercises the shared JIT disk cache across the fleet.
    pub mode: BinMode,
    /// Runner knobs (device memory, exec mode, fault plans, obs, …).
    /// `runner.num_devices` sizes the fleet the scheduler owns.
    pub runner: RunnerConfig,
    /// Worker threads. `0` means one per fleet device (minimum 1).
    pub workers: usize,
    /// Total queued jobs across all tenants; submissions past this are
    /// rejected `Overloaded { reason: "global_queue_full" }`.
    pub global_queue_cap: usize,
    /// Config applied to tenants that were never explicitly registered.
    pub default_tenant: TenantConfig,
}

impl ServeConfig {
    pub fn new(work_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            work_dir: work_dir.into(),
            mode: BinMode::Ptx,
            runner: RunnerConfig::default(),
            workers: 0,
            global_queue_cap: 1024,
            default_tenant: TenantConfig::default(),
        }
    }
}
