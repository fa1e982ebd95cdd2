//! The simulated device: one Jetson Nano Maxwell GPU.

use vmcommon::addr::{self, Space};
use vmcommon::sync::Mutex;
use vmcommon::{BlockAllocator, MemArena};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::fault::{FaultPlan, FaultSite};
use crate::timing;

/// Hardware properties, as the cudadev host module would query them via
/// `cuDeviceGetAttribute`.
#[derive(Clone, Debug)]
pub struct DeviceProps {
    pub name: String,
    /// CUDA compute capability.
    pub compute_capability: (u32, u32),
    pub multiprocessors: u32,
    pub cores_per_mp: u32,
    pub warp_size: u32,
    pub clock_hz: f64,
    pub max_threads_per_block: u32,
    pub max_threads_per_sm: u32,
    pub shared_mem_per_block: u64,
    pub total_global_mem: u64,
    pub max_grid_dim: [u32; 3],
    pub max_block_dim: [u32; 3],
}

impl DeviceProps {
    /// The Jetson Nano 2GB: 128-core Maxwell at sm_53.
    pub fn jetson_nano_2gb(global_mem: u64) -> DeviceProps {
        DeviceProps {
            name: "NVIDIA Tegra X1 (Jetson Nano 2GB, simulated)".into(),
            compute_capability: (5, 3),
            multiprocessors: 1,
            cores_per_mp: 128,
            warp_size: timing::WARP_SIZE,
            clock_hz: timing::CLOCK_HZ,
            max_threads_per_block: 1024,
            max_threads_per_sm: timing::MAX_THREADS_PER_SM,
            shared_mem_per_block: timing::SHARED_MEM_PER_BLOCK,
            total_global_mem: global_mem,
            max_grid_dim: [2147483647, 65535, 65535],
            max_block_dim: [1024, 1024, 64],
        }
    }
}

/// Errors from device execution.
#[derive(Clone, Debug)]
pub enum ExecError {
    Mem(vmcommon::MemError),
    Alloc(vmcommon::alloc::AllocError),
    Trap(String),
    /// Every unfinished warp of a block is parked on a named barrier, so
    /// none can ever arrive to complete one.
    BarrierDeadlock {
        barrier: u32,
        expected_threads: u32,
        arrived_threads: u32,
    },
    UnknownKernel(String),
    UnknownIntrinsic(String),
    BadLaunch(String),
    /// A transient driver fault (injected or modeled): the operation may
    /// succeed if retried.
    Transient(String),
    /// The device is gone for good; retrying is pointless.
    DeviceLost(String),
    /// The operation never completes. In-place retry is pointless; the
    /// host driver's watchdog converts this into a timeout and attempts
    /// reset-and-replay recovery.
    Hang(String),
}

impl ExecError {
    /// Is this error worth retrying?
    pub fn is_transient(&self) -> bool {
        matches!(self, ExecError::Transient(_))
    }

    /// Does this error mean the device can make no further progress
    /// without intervention (reset-and-replay, or the broken latch)?
    pub fn is_terminal(&self) -> bool {
        matches!(self, ExecError::DeviceLost(_) | ExecError::Hang(_))
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Mem(e) => write!(f, "device memory fault: {e}"),
            ExecError::Alloc(e) => write!(f, "device allocation failure: {e}"),
            ExecError::Trap(m) => write!(f, "device trap: {m}"),
            ExecError::BarrierDeadlock { barrier, expected_threads, arrived_threads } => write!(
                f,
                "barrier {barrier} deadlock: {arrived_threads} of {expected_threads} threads arrived"
            ),
            ExecError::UnknownKernel(n) => write!(f, "unknown kernel `{n}`"),
            ExecError::UnknownIntrinsic(n) => write!(
                f,
                "unresolved device intrinsic `{n}` (kernel not linked against the device library?)"
            ),
            ExecError::BadLaunch(m) => write!(f, "invalid launch: {m}"),
            ExecError::Transient(m) => write!(f, "transient device fault: {m}"),
            ExecError::DeviceLost(m) => write!(f, "device lost: {m}"),
            ExecError::Hang(m) => write!(f, "device hang: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<vmcommon::MemError> for ExecError {
    fn from(e: vmcommon::MemError) -> Self {
        ExecError::Mem(e)
    }
}

impl From<vmcommon::alloc::AllocError> for ExecError {
    fn from(e: vmcommon::alloc::AllocError) -> Self {
        ExecError::Alloc(e)
    }
}

/// Cumulative device counters (since creation).
#[derive(Clone, Debug, Default)]
pub struct DeviceStats {
    pub kernels_launched: u64,
    pub blocks_simulated: u64,
    pub blocks_total: u64,
    pub lane_insts: u64,
    pub mem_transactions: u64,
    /// Branches at which the active lanes split both ways.
    pub divergent_branches: u64,
    pub bytes_h2d: u64,
    pub bytes_d2h: u64,
    /// Total simulated busy time (seconds) across launches and copies.
    pub busy_time_s: f64,
}

/// Trace context installed by the driving module (cudadev): where
/// in-kernel events (block completions, barrier parks, shared-memory stack
/// depth) report to. `pid` is the device's trace-process number and
/// `base_s` the simulated start time of the launch in flight, so warp
/// cycle counts translate to absolute trace timestamps.
#[derive(Clone)]
pub struct DevTrace {
    pub obs: Arc<obs::Obs>,
    pub pid: u64,
    pub base_s: f64,
}

/// The simulated GPU.
pub struct Device {
    pub props: DeviceProps,
    /// Device global memory ("DRAM").
    pub global: MemArena,
    alloc: Mutex<BlockAllocator>,
    pub stats: Mutex<DeviceStats>,
    /// Captured device-side printf output.
    pub printf_output: Mutex<String>,
    /// Deterministic fault-injection plan, if any.
    fault: Mutex<Option<Arc<FaultPlan>>>,
    /// Host threads a launch spreads its blocks over: the parallelism the
    /// process had when the device was created (at most 8), asked for once
    /// here because the query costs an affinity syscall and cgroup reads.
    pub(crate) block_workers: usize,
    /// Fast gate for [`Device::trace`]: avoids the lock when not tracing.
    trace_on: AtomicBool,
    trace: Mutex<Option<DevTrace>>,
}

impl Device {
    /// Create a device with `global_mem` bytes of DRAM.
    pub fn new(global_mem: usize) -> Device {
        let global = MemArena::new(global_mem);
        let alloc = Self::fresh_allocator(&global);
        Device {
            props: DeviceProps::jetson_nano_2gb(global_mem as u64),
            global,
            alloc: Mutex::new(alloc),
            stats: Mutex::new(DeviceStats::default()),
            printf_output: Mutex::new(String::new()),
            fault: Mutex::new(None),
            block_workers: std::thread::available_parallelism().map_or(4, |n| n.get()).min(8),
            trace_on: AtomicBool::new(false),
            trace: Mutex::new(None),
        }
    }

    /// Install (or clear) the trace context in-kernel events report to.
    pub fn set_trace(&self, t: Option<DevTrace>) {
        self.trace_on.store(t.is_some(), Ordering::Release);
        *self.trace.lock() = t;
    }

    /// Move the trace context's launch base time (called by the driver
    /// before each launch so kernel events nest under the launch span).
    pub fn set_trace_base(&self, base_s: f64) {
        if let Some(t) = self.trace.lock().as_mut() {
            t.base_s = base_s;
        }
    }

    /// The current trace context, if tracing is on. One relaxed atomic
    /// load when it is not.
    pub fn trace(&self) -> Option<DevTrace> {
        if !self.trace_on.load(Ordering::Acquire) {
            return None;
        }
        self.trace.lock().clone()
    }

    /// Install (or clear) the fault-injection plan.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault.lock() = plan;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault.lock().clone()
    }

    /// Consult the fault plan for one call to `site`. No-op without a plan.
    pub fn fault_check(&self, site: FaultSite) -> Result<(), ExecError> {
        let plan = self.fault.lock().clone();
        match plan {
            Some(p) => p.check(site),
            None => Ok(()),
        }
    }

    /// `cuMemAlloc`: allocate device memory, returning a tagged device
    /// pointer.
    pub fn mem_alloc(&self, size: u64) -> Result<u64, ExecError> {
        if self.fault_check(FaultSite::Arena).is_err() {
            // Arena pressure fired: permanently reserve about half of the
            // free memory (in whatever fragmented chunks are available) so
            // this and later allocations run closer to the wall.
            self.reserve_arena_pressure();
        }
        self.fault_check(FaultSite::Alloc)?;
        let off = self.alloc.lock().alloc(size)?;
        Ok(addr::make(Space::Global, off))
    }

    /// Leak allocations totalling ~half the currently-free bytes. The
    /// blocks are never freed, simulating another tenant of the shared
    /// arena (the Jetson board's CPU side) claiming memory mid-run.
    fn reserve_arena_pressure(&self) {
        let mut a = self.alloc.lock();
        let mut want = a.bytes_free() / 2;
        while want >= BlockAllocator::ALIGN {
            let chunk = want.min(a.largest_free());
            if chunk < BlockAllocator::ALIGN || a.alloc(chunk).is_err() {
                break;
            }
            want -= chunk;
        }
    }

    /// Device reset (`cuDevicePrimaryCtxReset`): drop the allocator state
    /// so all device allocations are gone. The fault plan (and its call
    /// counters), cumulative stats and trace context survive — a reset
    /// clears the device, not the experiment. Arena contents are left as
    /// garbage; the recovery manager re-reserves and re-uploads what it
    /// needs via [`Device::reserve_at`].
    pub fn reset(&self) {
        *self.alloc.lock() = Self::fresh_allocator(&self.global);
    }

    /// An empty allocator over `global`. Offset 0 is reserved so that a
    /// null device pointer faults; an arena of 256 bytes or less has no
    /// allocatable bytes at all, so every allocation is `OutOfMemory`.
    fn fresh_allocator(global: &MemArena) -> BlockAllocator {
        BlockAllocator::new(256, (global.size() as u64).saturating_sub(256))
    }

    /// Re-reserve `size` bytes at the exact device address `ptr` after a
    /// [`Device::reset`]. Driver-internal bookkeeping reconstruction, not
    /// a guest-visible API call — it does not consult the fault plan, so
    /// replay never perturbs call numbering.
    pub fn reserve_at(&self, ptr: u64, size: u64) -> Result<(), ExecError> {
        if addr::space(ptr) != Some(Space::Global) {
            return Err(ExecError::Trap(format!("reserve of non-device pointer {ptr:#x}")));
        }
        self.alloc.lock().alloc_at(addr::offset(ptr), size)?;
        Ok(())
    }

    /// `cuMemFree`.
    pub fn mem_free(&self, ptr: u64) -> Result<(), ExecError> {
        self.fault_check(FaultSite::Free).map_err(|_| {
            ExecError::Alloc(vmcommon::alloc::AllocError::InvalidFree { offset: addr::offset(ptr) })
        })?;
        if addr::space(ptr) != Some(Space::Global) {
            return Err(ExecError::Trap(format!("cuMemFree of non-device pointer {ptr:#x}")));
        }
        self.alloc.lock().free(addr::offset(ptr))?;
        Ok(())
    }

    /// Bytes currently allocated on the device.
    pub fn mem_in_use(&self) -> u64 {
        self.alloc.lock().bytes_in_use()
    }

    /// Total free bytes in the global arena (possibly fragmented).
    pub fn mem_free_bytes(&self) -> u64 {
        self.alloc.lock().bytes_free()
    }

    /// `cuMemcpyHtoD`: copy from a host buffer into device memory.
    /// Returns the simulated copy time in seconds.
    pub fn memcpy_h2d(&self, dst: u64, src: &[u8]) -> Result<f64, ExecError> {
        self.h2d_check(dst)?;
        self.global.write_bytes(addr::offset(dst), src)?;
        Ok(self.charge_copy(src.len() as u64, true))
    }

    /// `cuMemcpyHtoD` straight from `len` bytes of a host arena at
    /// `src_off`: the checks, timing and stats of [`Device::memcpy_h2d`],
    /// one pass over the bytes.
    pub fn memcpy_h2d_from(
        &self,
        dst: u64,
        src: &MemArena,
        src_off: u64,
        len: u64,
    ) -> Result<f64, ExecError> {
        self.h2d_check(dst)?;
        src.copy_to(src_off, &self.global, addr::offset(dst), len)?;
        Ok(self.charge_copy(len, true))
    }

    /// `cuMemcpyDtoH`. Returns the simulated copy time in seconds.
    pub fn memcpy_d2h(&self, dst: &mut [u8], src: u64) -> Result<f64, ExecError> {
        self.d2h_check(src, dst.len() as u64)?;
        self.global.read_bytes(addr::offset(src), dst)?;
        Ok(self.charge_copy(dst.len() as u64, false))
    }

    /// `cuMemcpyDtoH` straight into `len` bytes of a host arena at
    /// `dst_off`: every check first, then the bytes, so a rejected copy
    /// leaves the host range untouched.
    pub fn memcpy_d2h_to(
        &self,
        dst: &MemArena,
        dst_off: u64,
        src: u64,
        len: u64,
    ) -> Result<f64, ExecError> {
        self.d2h_check(src, len)?;
        self.global.copy_to(addr::offset(src), dst, dst_off, len)?;
        Ok(self.charge_copy(len, false))
    }

    /// Everything `cuMemcpyDtoH` checks on the device side before a byte
    /// moves, in order: the fault site, the source space, the source range.
    fn d2h_check(&self, src: u64, len: u64) -> Result<(), ExecError> {
        self.fault_check(FaultSite::D2H)?;
        if addr::space(src) != Some(Space::Global) {
            return Err(ExecError::Trap(format!("DtoH source {src:#x} is not device memory")));
        }
        self.global.check_range(addr::offset(src), len)?;
        Ok(())
    }

    /// What `cuMemcpyHtoD` checks before a byte moves: the fault site,
    /// then the destination space.
    fn h2d_check(&self, dst: u64) -> Result<(), ExecError> {
        self.fault_check(FaultSite::H2D)?;
        if addr::space(dst) != Some(Space::Global) {
            return Err(ExecError::Trap(format!("HtoD destination {dst:#x} is not device memory")));
        }
        Ok(())
    }

    /// The simulated time of one `len`-byte copy, booked in the stats.
    fn charge_copy(&self, len: u64, h2d: bool) -> f64 {
        let t = timing::MEMCPY_OVERHEAD_S + len as f64 / timing::MEMCPY_BYTES_PER_S;
        let mut st = self.stats.lock();
        if h2d {
            st.bytes_h2d += len;
        } else {
            st.bytes_d2h += len;
        }
        st.busy_time_s += t;
        t
    }

    /// Fill a device range with a byte value (`cuMemsetD8`).
    pub fn memset_d8(&self, dst: u64, byte: u8, len: u64) -> Result<(), ExecError> {
        if addr::space(dst) != Some(Space::Global) {
            return Err(ExecError::Trap(format!("memset target {dst:#x} is not device memory")));
        }
        let off = addr::offset(dst);
        if byte == 0 {
            self.global.zero(off, len)?;
        } else {
            for i in 0..len {
                self.global.store_u8(off + i, byte)?;
            }
        }
        Ok(())
    }

    pub fn take_printf_output(&self) -> String {
        std::mem::take(&mut *self.printf_output.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcommon::alloc::AllocError;

    #[test]
    fn alloc_copy_roundtrip() {
        let d = Device::new(1 << 20);
        let p = d.mem_alloc(1024).unwrap();
        assert_eq!(addr::space(p), Some(Space::Global));
        let data: Vec<u8> = (0..=255).collect();
        d.memcpy_h2d(p, &data).unwrap();
        let mut back = vec![0u8; 256];
        d.memcpy_d2h(&mut back, p).unwrap();
        assert_eq!(back, data);
        d.mem_free(p).unwrap();
        assert_eq!(d.mem_in_use(), 0);
    }

    /// The arena copies move the same bytes and charge the same time and
    /// stats as the slice copies; a rejected copy moves nothing.
    #[test]
    fn arena_copies_match_slice_copies() {
        let d = Device::new(1 << 20);
        let p = d.mem_alloc(1024).unwrap();
        let host = MemArena::new(4096);
        let data: Vec<u8> = (0..200).collect();
        host.write_bytes(13, &data).unwrap();

        let t = d.memcpy_h2d_from(p, &host, 13, 200).unwrap();
        assert_eq!(t, d.memcpy_h2d(p + 512, &data).unwrap(), "same timing formula");
        let mut back = vec![0u8; 200];
        d.memcpy_d2h(&mut back, p).unwrap();
        assert_eq!(back, data);
        assert_eq!(d.memcpy_d2h_to(&host, 1001, p + 512, 200).unwrap(), t);
        host.read_bytes(1001, &mut back).unwrap();
        assert_eq!(back, data);
        let st = d.stats.lock().clone();
        assert_eq!((st.bytes_h2d, st.bytes_d2h), (400, 400));

        assert!(d.memcpy_h2d_from(addr::make(Space::Host, 64), &host, 0, 8).is_err());
        assert!(d.memcpy_d2h_to(&host, 4090, p, 16).is_err(), "host range too short");
        assert!(d.d2h_check(p + (1 << 20), 8).is_err(), "device range out of bounds");
        let mut tail = [0u8; 6];
        host.read_bytes(4090, &mut tail).unwrap();
        assert_eq!(tail, [0; 6], "a rejected copy-back moves nothing");
        assert_eq!(d.stats.lock().bytes_d2h, 400, "and charges nothing");
    }

    #[test]
    fn copy_times_scale_with_size() {
        let d = Device::new(1 << 22);
        let p = d.mem_alloc(1 << 21).unwrap();
        let small = d.memcpy_h2d(p, &vec![0u8; 1024]).unwrap();
        let large = d.memcpy_h2d(p, &vec![0u8; 1 << 21]).unwrap();
        assert!(large > small * 10.0);
    }

    #[test]
    fn host_pointer_rejected() {
        let d = Device::new(1 << 20);
        assert!(d.memcpy_h2d(addr::make(Space::Host, 64), &[1, 2, 3]).is_err());
        assert!(d.mem_free(addr::make(Space::Shared, 0)).is_err());
    }

    #[test]
    fn oom_reported() {
        let d = Device::new(1 << 16);
        assert!(d.mem_alloc(1 << 20).is_err());
    }

    /// An arena smaller than the reserved null page has no allocatable
    /// bytes, before and after a reset: the allocator's range must not
    /// wrap around to a huge one.
    #[test]
    fn tiny_arena_has_nothing_to_allocate() {
        for size in [0, 1, 256] {
            let d = Device::new(size);
            let oom = |r| matches!(r, Err(ExecError::Alloc(AllocError::OutOfMemory { .. })));
            assert!(oom(d.mem_alloc(1)), "{size} B");
            d.reset();
            assert!(oom(d.mem_alloc(1)), "{size} B after reset");
        }
    }

    /// After a reset, every prior allocation is gone and `reserve_at`
    /// brings blocks back at their exact old addresses — the basis of the
    /// recovery manager's mapping replay.
    #[test]
    fn reset_then_reserve_at_restores_addresses() {
        let d = Device::new(1 << 20);
        let a = d.mem_alloc(1000).unwrap();
        let b = d.mem_alloc(4096).unwrap();
        d.mem_free(a).unwrap();
        let in_use = d.mem_in_use();

        d.reset();
        assert_eq!(d.mem_in_use(), 0, "reset clears all allocations");
        d.reserve_at(b, 4096).unwrap();
        assert_eq!(d.mem_in_use(), in_use, "the layout is reconstructible");
        // The reserved block is a real allocation again: readable, and
        // freeable exactly once.
        d.memcpy_h2d(b, &[7u8; 16]).unwrap();
        d.mem_free(b).unwrap();
        assert!(d.mem_free(b).is_err());
        // A hole that was free before the reset is allocatable.
        assert_eq!(d.mem_alloc(1000).unwrap(), a);
    }

    #[test]
    fn props_match_nano() {
        let d = Device::new(1 << 20);
        assert_eq!(d.props.compute_capability, (5, 3));
        assert_eq!(d.props.multiprocessors, 1);
        assert_eq!(d.props.cores_per_mp, 128);
    }
}
