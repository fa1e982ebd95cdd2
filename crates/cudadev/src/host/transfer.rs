//! Host↔device **transfers**: every `map`, `unmap`, `update`, dirty
//! refresh, OOM sync, tile stream, recovery replay and CUDA-baseline
//! `cudaMemcpy` moves its bytes here, as one retried driver copy from
//! arena to arena ([`vmcommon::MemArena::copy_to`] via
//! [`gpusim::Device::memcpy_h2d_from`] / [`gpusim::Device::memcpy_d2h_to`])
//! — the paper's one `cuMemcpyHtoD`/`cuMemcpyDtoH` per mapping (§4.2),
//! with no host-side staging buffer and no chunking.
//!
//! A copy-back checks its fault site, source space and both ranges before
//! the first byte lands in the host arena. A failed copy-back therefore
//! leaves the host range as it was, which is what lets the runtime
//! re-execute the region on the host.
//!
//! Transfer reuse ([`CudaDev::cache_contents_match`]) compares the cached
//! device range with the host range byte for byte; it is only asked for
//! buffers whose last unmap copied back, so device and host agreed then.

use gpusim::{Device, ExecError};
use vmcommon::{addr, MemArena};

use super::governor::CacheEntry;
use super::CudaDev;

impl CudaDev {
    /// Host→device copy of `len` bytes at `host_off` in `host_mem`: one
    /// retried driver copy. Emits the `h2d` span and charges the clock. On
    /// an async stream the copy still executes eagerly, but its simulated
    /// time is queued on the copy engine and drawn on the stream's track.
    /// Mappings and the CUDA baseline's `cudaMemcpy` both copy here.
    pub fn h2d_copy(
        &self,
        device: &Device,
        dev_ptr: u64,
        host_mem: &MemArena,
        host_off: u64,
        len: u64,
    ) -> Result<(), ExecError> {
        // A host range outside the arena is the caller's error: report it
        // before the span, the fault plan or the device see a copy.
        host_mem.check_range(host_off, len)?;
        let async_stream = self.async_stream();
        let _span = self.copy_span("h2d", len, async_stream);
        let t =
            self.retrying("h2d", || device.memcpy_h2d_from(dev_ptr, host_mem, host_off, len))?;
        self.book_copy(async_stream, true, t, len);
        Ok(())
    }

    /// Device→host copy into `len` bytes at `host_off` in `host_mem`, like
    /// [`CudaDev::h2d_copy`]. On failure the host range is untouched (see
    /// the module docs).
    pub fn d2h_copy(
        &self,
        device: &Device,
        dev_ptr: u64,
        host_mem: &MemArena,
        host_off: u64,
        len: u64,
    ) -> Result<(), ExecError> {
        host_mem.check_range(host_off, len)?;
        let async_stream = self.async_stream();
        let _span = self.copy_span("d2h", len, async_stream);
        let t = self.retrying("d2h", || device.memcpy_d2h_to(host_mem, host_off, dev_ptr, len))?;
        self.book_copy(async_stream, false, t, len);
        Ok(())
    }

    /// Do the host bytes still match what the cached device buffer holds?
    /// Only a buffer whose last unmap copied back qualifies.
    pub(super) fn cache_contents_match(
        &self,
        device: &Device,
        host_mem: &MemArena,
        host_addr: u64,
        len: u64,
        cached: &CacheEntry,
    ) -> bool {
        cached.synced
            && device
                .global
                .range_eq(addr::offset(cached.dev_ptr), host_mem, addr::offset(host_addr), len)
                .unwrap_or(false)
    }

    /// The synchronous-track span of one copy; an async stream draws its
    /// copies on the stream's track instead.
    fn copy_span(
        &self,
        name: &'static str,
        len: u64,
        async_stream: Option<usize>,
    ) -> Option<obs::trace::SpanGuard<'_, impl Fn() -> f64 + '_>> {
        async_stream.is_none().then(|| {
            self.cfg.obs.tracer.span(
                self.pid(),
                0,
                name,
                "memcpy",
                || self.now(),
                vec![("bytes", len.into())],
            )
        })
    }

    /// Book a finished copy: its time on the clock (or queued on its
    /// async stream), its bytes on the clock and in the metrics.
    fn book_copy(&self, async_stream: Option<usize>, h2d: bool, copy_s: f64, len: u64) {
        {
            let clk = &mut *self.clock.lock();
            let (bytes, secs) = if h2d {
                (&mut clk.h2d_bytes, &mut clk.h2d_s)
            } else {
                (&mut clk.d2h_bytes, &mut clk.d2h_s)
            };
            *bytes += len;
            if async_stream.is_none() {
                *secs += copy_s;
            }
        }
        if let Some(s) = async_stream {
            self.async_copy(s, h2d, copy_s, len);
        }
        let name = if h2d { "h2d_bytes" } else { "d2h_bytes" };
        self.cfg.obs.metrics.incr(self.pid(), name, len);
    }
}
