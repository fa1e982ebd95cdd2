//! The unified error taxonomy of the cudadev host module.
//!
//! Every driver-facing operation returns `Result<_, CudadevError>` instead
//! of panicking, so a dying (or fault-injected) device propagates cleanly
//! up to the OpenMP runtime, which can then retry or fall back to host
//! execution. Variants record *which phase* failed — the information the
//! runtime needs to decide between retry, recompile and fallback.

use gpusim::ExecError;

/// A failure in the cudadev host module.
#[derive(Clone, Debug)]
pub enum CudadevError {
    /// Lazy device initialization failed (device discovery, control-block
    /// allocation).
    Init(ExecError),
    /// The device was latched broken by an earlier terminal failure; the
    /// operation was not attempted.
    Broken,
    /// A data-environment operation failed (alloc, H2D/D2H copy, map
    /// bookkeeping), after any retries.
    Data(ExecError),
    /// `cuMemFree` rejected the pointer: double free or a pointer the
    /// driver never handed out. A host-side bookkeeping bug, not a device
    /// failure — the device stays usable.
    InvalidFree { dev_ptr: u64 },
    /// An unmap/update referenced a host address with no live mapping
    /// (never mapped, or already unmapped/evicted). A host-side
    /// bookkeeping error, not a device failure — the device stays usable.
    NotMapped { host_addr: u64 },
    /// Locating, decoding or verifying a kernel module failed.
    ModuleLoad { module: String, reason: String },
    /// JIT assembly/linking of a `.sptx` kernel failed.
    Jit { module: String, reason: String },
    /// A kernel launch failed, after any retries.
    Launch { kernel: String, error: ExecError },
    /// The watchdog expired an operation that exceeded its deadline
    /// (`CudaDevConfig::launch_timeout`) and recovery could not bring the
    /// device back within the reset budget. Equivalent to a lost device.
    Timeout { site: String, deadline_ms: u64 },
    /// A terminal `error` needed a device reset, which would drop the CUDA
    /// baseline's live `cudaMalloc` blocks (`(dev_ptr, bytes)`): they have
    /// no host copy to replay, so the device is latched broken instead.
    BaselineLost { blocks: Vec<(u64, u64)>, error: ExecError },
}

impl CudadevError {
    /// Would retrying the operation plausibly help?
    pub fn is_transient(&self) -> bool {
        match self {
            CudadevError::Init(e) | CudadevError::Data(e) => e.is_transient(),
            CudadevError::Launch { error, .. } => error.is_transient(),
            _ => false,
        }
    }

    /// Is the device gone for good (the caller should latch it broken and
    /// fall back to the host)?
    pub fn is_device_lost(&self) -> bool {
        matches!(
            self,
            CudadevError::Broken
                | CudadevError::Timeout { .. }
                | CudadevError::Init(ExecError::DeviceLost(_) | ExecError::Hang(_))
                | CudadevError::Data(ExecError::DeviceLost(_) | ExecError::Hang(_))
                | CudadevError::Launch { error: ExecError::DeviceLost(_) | ExecError::Hang(_), .. }
        )
    }

    /// The underlying simulator error, when there is one.
    pub fn exec_error(&self) -> Option<&ExecError> {
        match self {
            CudadevError::Init(e) | CudadevError::Data(e) => Some(e),
            CudadevError::Launch { error, .. } | CudadevError::BaselineLost { error, .. } => {
                Some(error)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for CudadevError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CudadevError::Init(e) => write!(f, "device initialization failed: {e}"),
            CudadevError::Broken => write!(f, "device is broken (latched by an earlier failure)"),
            CudadevError::Data(e) => write!(f, "device data operation failed: {e}"),
            CudadevError::InvalidFree { dev_ptr } => {
                write!(f, "invalid device free of {dev_ptr:#x} (double free or bad pointer)")
            }
            CudadevError::NotMapped { host_addr } => {
                write!(f, "host address {host_addr:#x} has no live device mapping")
            }
            CudadevError::ModuleLoad { module, reason } => {
                write!(f, "loading kernel module `{module}` failed: {reason}")
            }
            CudadevError::Jit { module, reason } => {
                write!(f, "JIT compilation of `{module}` failed: {reason}")
            }
            CudadevError::Launch { kernel, error } => {
                write!(f, "launch of kernel `{kernel}` failed: {error}")
            }
            CudadevError::Timeout { site, deadline_ms } => {
                write!(
                    f,
                    "watchdog timeout: `{site}` exceeded its {deadline_ms} ms deadline and \
                     recovery exhausted the reset budget"
                )
            }
            CudadevError::BaselineLost { blocks, error } => {
                write!(
                    f,
                    "{error} needs a device reset, which would lose {} live cudaMalloc \
                     block(s) with no host copy to replay:",
                    blocks.len()
                )?;
                blocks.iter().try_for_each(|(ptr, len)| write!(f, " {ptr:#x} ({len} B)"))
            }
        }
    }
}

impl std::error::Error for CudadevError {}

impl From<ExecError> for CudadevError {
    fn from(e: ExecError) -> Self {
        CudadevError::Data(e)
    }
}
