//! The device-memory **governor**: allocation failure on the (simulated)
//! 2 GB shared arena degrades gracefully instead of killing the offload.
//!
//! Three rungs, tried in order, each traced as a `pressure` instant (with a
//! `rung` argument) and counted as `pressure.<rung>` in the metrics:
//!
//! 1. **evict** — buffers whose mapping refcount dropped to zero are kept
//!    as an LRU cache for transfer reuse; under pressure they are freed
//!    (they were written back at unmap time, so eviction is just a free)
//!    and the allocation is retried.
//! 2. **tile** — a combined `target teams distribute parallel for` region
//!    whose mapped arrays still don't fit runs as a sequence of smaller
//!    grids: each tile streams the slices of oversized (*pending*) arrays
//!    it touches, and the kernel observes the *logical* grid via
//!    [`gpusim::TileView`], so `cudadev_get_distribute_chunk` computes the
//!    same per-team bounds as the monolithic launch — results are
//!    bit-identical.
//! 3. **host fallback** — the region is declined ([`PressureOutcome::
//!    Declined`]) and the runtime re-executes it on the host, annotated
//!    with an `oom` reason distinct from `device_lost`.
//!
//! Transfers are never split: bytes move arena to arena in one driver
//! copy (`host::transfer`), so no copy needs memory the arena lacks.
//!
//! Slicing assumes the translator's conservative shape analysis: a buffer
//! is sliceable only when every access indexes it as `i*stride + rest`
//! with `i` the distribute-loop variable and `rest` an unscaled inner
//! index — the row-major convention that `rest < stride`.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gpusim::{Device, ExecError, LaunchConfig, Program, TileView};
use vmcommon::addr::offset;
use vmcommon::alloc::AllocError;
use vmcommon::sched::static_block;
use vmcommon::MemArena;

use super::{CudaDev, MapEntry};
use crate::error::CudadevError;

/// One kernel parameter of a pressure-aware offload, as the runtime
/// describes it to the governor.
#[derive(Clone, Copy, Debug)]
pub enum TileParam {
    /// Raw scalar bits, passed through unchanged.
    Scalar(u64),
    /// A mapped buffer, identified by host address. `row_bytes` is the
    /// byte stride per distribute-loop iteration when the translator
    /// proved the buffer sliceable, 0 when it must stay resident.
    Buf { host: u64, row_bytes: u64 },
}

/// What the governor did with a pressured offload request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PressureOutcome {
    /// The region ran on the device (tiled); results are on the host side
    /// for pending buffers and on the device for resident ones.
    Ran,
    /// The region cannot run under the current memory pressure; the
    /// runtime must re-execute it on the host (OOM fallback).
    Declined,
}

/// A device's memory standing, exported for admission control: how big
/// the arena is, how much is free right now, how much of the used space is
/// merely LRU-cached (reclaimable by eviction), and how many governor
/// ladder rungs this device has ever had to take. A scheduler reading
/// `free_bytes + cached_bytes` gets the bytes a new job could claim
/// without degrading anyone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemPressure {
    pub total_bytes: u64,
    pub free_bytes: u64,
    pub cached_bytes: u64,
    pub pressure_events: u64,
}

/// One cached (unmapped but not yet freed) device buffer.
#[derive(Clone, Debug)]
pub(super) struct CacheEntry {
    pub dev_ptr: u64,
    pub len: u64,
    /// The unmap copy-back ran, so device == host at insert time and
    /// nothing has written the parked buffer since. Only then may a
    /// re-map skip its upload, and only if the host range still equals
    /// the device range ([`CudaDev::cache_contents_match`]). `false` when
    /// the device copy was never read back — reuse must then re-upload.
    pub synced: bool,
    /// LRU stamp; smallest is evicted first.
    pub tick: u64,
}

/// A pending buffer being streamed slice-by-slice during a tiled launch.
struct SliceStream {
    host_addr: u64,
    row: u64,
    len: u64,
    param_idx: usize,
    /// Device buffer sized for the largest tile, reused across tiles.
    dev_ptr: u64,
    /// Full host contents at tiling start (restored on mid-run failure so
    /// a subsequent host fallback re-executes from pristine inputs).
    pristine: Vec<u8>,
}

impl CudaDev {
    /// Emit one `pressure` trace instant + counter for a ladder rung.
    pub(super) fn pressure(&self, rung: &str, mut args: Vec<(&'static str, obs::ArgValue)>) {
        self.pressure_events.fetch_add(1, Ordering::Relaxed);
        let obs = &self.cfg.obs;
        args.insert(0, ("rung", rung.into()));
        obs.tracer.instant(self.pid(), 0, "pressure", "pressure", self.now(), args);
        obs.metrics.incr(self.pid(), &format!("pressure.{rung}"), 1);
    }

    /// Memory-pressure snapshot for admission control. Deliberately does
    /// *not* force lazy init: an untouched device reports its configured
    /// arena as fully free, and a broken one reports zero free bytes.
    pub fn mem_pressure(&self) -> MemPressure {
        let total = self.cfg.global_mem as u64;
        let free = if !self.is_initialized() {
            total
        } else {
            self.try_device().map(|d| d.mem_free_bytes()).unwrap_or(0)
        };
        MemPressure {
            total_bytes: total,
            free_bytes: free,
            cached_bytes: self.cached_bytes(),
            pressure_events: self.pressure_events.load(Ordering::Relaxed),
        }
    }

    /// Free a device buffer, surfacing driver rejection as the typed
    /// [`CudadevError::InvalidFree`] instead of an opaque data error.
    pub(super) fn free_dev(&self, device: &Device, dev_ptr: u64) -> Result<(), CudadevError> {
        match device.mem_free(dev_ptr) {
            Ok(()) => Ok(()),
            Err(ExecError::Alloc(AllocError::InvalidFree { .. })) => {
                self.cfg.obs.metrics.incr(self.pid(), "invalid_frees", 1);
                Err(CudadevError::InvalidFree { dev_ptr })
            }
            Err(e) => Err(CudadevError::Data(self.latch("free", e))),
        }
    }

    // ------------------------------------------------ rung 1: evict (LRU)

    /// Allocate `len` bytes, evicting cached buffers (LRU first) while the
    /// arena is out of memory. `Ok(None)` means the arena cannot hold the
    /// buffer even with an empty cache — the mapping goes pending.
    /// Terminal failures are returned raw (no latch): the caller — `map`
    /// — hands them to the recovery manager.
    pub(super) fn alloc_pressured(
        &self,
        device: &Arc<Device>,
        len: u64,
    ) -> Result<Option<u64>, CudadevError> {
        loop {
            match self.retrying("alloc", || device.mem_alloc(len)) {
                Ok(p) => return Ok(Some(p)),
                Err(ExecError::Alloc(AllocError::OutOfMemory { .. })) => {
                    if !self.evict_lru(device)? {
                        return Ok(None);
                    }
                }
                Err(e) => return Err(CudadevError::Data(e)),
            }
        }
    }

    /// Evict the least-recently-used cache entry. Returns false when the
    /// cache is empty.
    fn evict_lru(&self, device: &Arc<Device>) -> Result<bool, CudadevError> {
        let victim = {
            let mut cache = self.cache.lock();
            let key = cache.iter().min_by_key(|(_, c)| c.tick).map(|(&k, _)| k);
            key.and_then(|k| cache.remove(&k).map(|c| (k, c)))
        };
        let Some((host, c)) = victim else {
            return Ok(false);
        };
        self.pressure("evict", vec![("bytes", c.len.into()), ("host", host.into())]);
        self.cfg.obs.metrics.observe(self.pid(), "evicted_bytes", c.len);
        self.free_dev(device, c.dev_ptr)?;
        Ok(true)
    }

    /// Take a cached buffer of exactly this shape for reuse. A cached
    /// buffer with a different length is stale (the program re-mapped the
    /// address at another size) and is dropped here.
    pub(super) fn cache_take(&self, host_addr: u64, len: u64) -> Option<CacheEntry> {
        let mut cache = self.cache.lock();
        match cache.get(&host_addr) {
            Some(c) if c.len == len => cache.remove(&host_addr),
            Some(_) => {
                let c = cache.remove(&host_addr).unwrap();
                drop(cache);
                if let Ok(d) = self.try_device() {
                    let _ = self.free_dev(&d, c.dev_ptr);
                }
                None
            }
            None => None,
        }
    }

    /// Park an unmapped buffer in the LRU cache. `synced` says the unmap
    /// just copied it back (device == host), which lets the next map skip
    /// the upload when the host range is still equal.
    pub(super) fn cache_insert(&self, host_addr: u64, entry: &MapEntry, synced: bool) {
        let tick = self.lru_tick.fetch_add(1, Ordering::Relaxed);
        let ce = CacheEntry { dev_ptr: entry.dev_ptr, len: entry.len, synced, tick };
        self.cache.lock().insert(host_addr, ce);
        self.cfg.obs.metrics.incr(self.pid(), "cache.insert", 1);
    }

    /// Bytes currently parked in the LRU cache (diagnostic).
    pub fn cached_bytes(&self) -> u64 {
        self.cache.lock().values().map(|c| c.len).sum()
    }

    /// Drop every cached buffer, freeing its device memory.
    pub fn trim_cache(&self) -> Result<(), CudadevError> {
        let drained: Vec<CacheEntry> = self.cache.lock().drain().map(|(_, c)| c).collect();
        if drained.is_empty() {
            return Ok(());
        }
        let device = self.try_device()?;
        for c in drained {
            self.free_dev(&device, c.dev_ptr)?;
        }
        Ok(())
    }

    // ----------------------------------------- dirty tracking (fallback)

    /// After a host fallback ran under an enclosing `target data`, every
    /// live device copy is stale: mark them so copy-back is skipped and
    /// the next launch that uses them re-uploads first.
    pub fn mark_all_host_dirty(&self) {
        for e in self.maps.lock().values_mut() {
            if !e.pending {
                e.host_dirty = true;
            }
        }
    }

    /// Drop every live mapping without copy-back, freeing the device
    /// buffers. The runtime calls this when a guest job was aborted by a
    /// resource limit: nothing will ever read those buffers again, but the
    /// device itself is healthy and must stay usable for the next job —
    /// so driver errors here are swallowed, never latched.
    pub fn release_mappings(&self) -> usize {
        let entries: Vec<_> = {
            let mut maps = self.maps.lock();
            std::mem::take(&mut *maps).into_values().collect()
        };
        let n = entries.len();
        if let Ok(device) = self.try_device() {
            for e in entries {
                if !e.pending {
                    // Raw free, not `free_dev`: a driver error here only
                    // leaks simulated DRAM and must not reach `latch`.
                    let _ = device.mem_free(e.dev_ptr);
                }
            }
        }
        if n > 0 {
            self.cfg.obs.metrics.incr(self.pid(), "maps_released", n as u64);
        }
        n
    }

    /// Does any of these host addresses have a pending (buffer-less)
    /// mapping?
    pub fn has_pending(&self, host_addrs: &[u64]) -> bool {
        let maps = self.maps.lock();
        host_addrs.iter().any(|a| maps.get(a).is_some_and(|e| e.pending))
    }

    /// Re-upload any stale (host-dirty) device copies among `host_addrs`
    /// before a launch reads them.
    pub fn refresh_args(
        &self,
        host_mem: &MemArena,
        host_addrs: &[u64],
    ) -> Result<(), CudadevError> {
        for &addr in host_addrs {
            let (dev_ptr, len) = {
                let maps = self.maps.lock();
                match maps.get(&addr) {
                    Some(e) if e.host_dirty && !e.pending => (e.dev_ptr, e.len),
                    _ => continue,
                }
            };
            let device = self.try_device()?;
            self.h2d_copy(&device, dev_ptr, host_mem, offset(addr), len)
                .map_err(|e| self.latch("h2d", e))?;
            self.cfg.obs.metrics.incr(self.pid(), "dirty_refresh", 1);
            if let Some(e) = self.maps.lock().get_mut(&addr) {
                e.host_dirty = false;
                e.device_dirty = false;
            }
        }
        Ok(())
    }

    /// Make host memory authoritative before an OOM-declined fallback:
    /// copy every live (non-pending) device buffer back to the host.
    /// Earlier regions of an enclosing `target data` may have left their
    /// results device-side only (e.g. an `alloc`-mapped intermediate); the
    /// fallback body reads them from host memory. Host-dirty entries are
    /// skipped — there the host is already fresher.
    fn sync_host(&self, host_mem: &MemArena) -> Result<(), CudadevError> {
        let live: Vec<(u64, u64, u64)> = self
            .maps
            .lock()
            .iter()
            .filter(|(_, e)| !e.pending && !e.host_dirty)
            .map(|(&h, e)| (h, e.dev_ptr, e.len))
            .collect();
        if live.is_empty() {
            return Ok(());
        }
        let device = self.try_device()?;
        let mut synced = 0u64;
        for (host, dev_ptr, len) in live {
            self.d2h_copy(&device, dev_ptr, host_mem, offset(host), len)
                .map_err(|e| self.latch("d2h", e))?;
            if let Some(e) = self.maps.lock().get_mut(&host) {
                // The host copy is now current.
                e.device_dirty = false;
            }
            synced += len;
        }
        self.cfg.obs.metrics.observe(self.pid(), "oom_sync_bytes", synced);
        Ok(())
    }

    // -------------------------------------------------- rung 3/4: tiling

    /// Run an offload whose data environment has pending (buffer-less)
    /// mappings: tile the iteration space and stream slices when the
    /// translator proved the region tileable, else decline so the runtime
    /// falls back to the host (`rung=fallback`).
    ///
    /// `total` is the distribute trip count, `logical_grid`/`block` the
    /// geometry the monolithic launch would use.
    #[allow(clippy::too_many_arguments)]
    pub fn offload_pressured(
        &self,
        host_mem: &MemArena,
        module: &str,
        kernel: &str,
        tileable: bool,
        total: u64,
        logical_grid: [u32; 3],
        block: [u32; 3],
        params: &[TileParam],
    ) -> Result<PressureOutcome, CudadevError> {
        let device = self.try_device()?;
        let lib = self.devlib()?;
        let m = self.load_program(module)?;

        let decline = |reason: &str| {
            self.pressure(
                "fallback",
                vec![("kernel", kernel.into()), ("reason", reason.to_string().into())],
            );
            // The host is about to re-execute the region: make it
            // authoritative first (device-side intermediates from earlier
            // regions would otherwise be invisible to the fallback body).
            self.sync_host(host_mem)?;
            Ok(PressureOutcome::Declined)
        };

        // Resolve parameters: scalars pass through, resident buffers
        // translate to device pointers, pending sliceable buffers become
        // slice streams.
        let mut vals = vec![0u64; params.len()];
        let mut pending: Vec<(usize, u64, u64, u64)> = Vec::new(); // (param_idx, host, row, len)
        let mut resident: Vec<u64> = Vec::new();
        {
            let maps = self.maps.lock();
            for (i, p) in params.iter().enumerate() {
                match *p {
                    TileParam::Scalar(v) => vals[i] = v,
                    TileParam::Buf { host, row_bytes } => match maps.get(&host) {
                        Some(e) if !e.pending => {
                            vals[i] = e.dev_ptr;
                            resident.push(host);
                        }
                        Some(e) => pending.push((i, host, row_bytes, e.len)),
                        None => {
                            return Err(CudadevError::Data(ExecError::Trap(format!(
                                "launch argument {host:#x} is not mapped"
                            ))))
                        }
                    },
                }
            }
        }
        if pending.is_empty() {
            // Nothing is actually pending; the caller should use the
            // normal launch path. Treat as declined rather than guessing.
            return decline("no pending buffers");
        }
        if !tileable {
            return decline("region not tileable");
        }
        if logical_grid[1] != 1 || logical_grid[2] != 1 || total == 0 {
            return decline("non-1d grid");
        }
        for &(_, _, row, len) in &pending {
            if row == 0 {
                return decline("unsliceable pending buffer");
            }
            if row.checked_mul(total) != Some(len) {
                return decline("buffer shape does not match trip count");
            }
        }

        // Tile sizing: the largest per-team iteration count bounds each
        // slice, and the whole tile's slices must fit in the free arena
        // with headroom.
        let gx = logical_grid[0] as u64;
        let per_team = total.div_ceil(gx);
        let row_sum: u64 = pending.iter().map(|&(_, _, row, _)| row).sum();
        let free = device.mem_free_bytes();
        let mut budget = free - free / 8;
        if self.async_stream().is_some() {
            // Async mode wants a second buffer set for double-buffered
            // tiling: size the tile to half the budget so both sets fit.
            // (If the alt allocation still fails the loop degrades to
            // single-buffered tiles — smaller than they could have been,
            // but correct.)
            budget /= 2;
        }
        // Start from the budgeted estimate but always try at least one
        // team per tile — the halve-on-OOM loop below is the arbiter of
        // what actually fits.
        let mut teams_per_tile = (budget / (row_sum * per_team).max(1)).clamp(1, gx);

        // Refresh stale resident inputs before anything runs.
        self.refresh_args(host_mem, &resident)?;

        // Allocate the slice buffers once (max tile size), halving the
        // tile on fragmentation, and reuse them across tiles. In async
        // mode a second (alt) buffer set is allocated in the same loop so
        // both sets shrink together: double-buffered tiling needs tile
        // k+1's slices live while tile k's are still in flight. The alt
        // set is best-effort — at one team per tile the loop settles for
        // single buffering rather than declining the region.
        let want_alt = self.async_stream().is_some();
        let mut streams: Vec<SliceStream> = Vec::new();
        let mut alt_streams: Vec<SliceStream> = Vec::new();
        'size: while teams_per_tile >= 1 {
            // Each attempt starts from a clean slate.
            for s in streams.drain(..).chain(alt_streams.drain(..)) {
                self.free_dev(&device, s.dev_ptr)?;
            }
            match self.try_alloc_set(&device, &pending, teams_per_tile, per_team)? {
                Some(set) => streams = set,
                None => {
                    if !self.evict_lru(&device)? {
                        teams_per_tile /= 2;
                    }
                    continue 'size; // retry: emptier arena or smaller tile
                }
            }
            if want_alt && teams_per_tile < gx {
                match self.try_alloc_set(&device, &pending, teams_per_tile, per_team)? {
                    Some(set) => alt_streams = set,
                    None => {
                        if self.evict_lru(&device)? {
                            continue 'size;
                        }
                        if teams_per_tile > 1 {
                            teams_per_tile /= 2;
                            continue 'size;
                        }
                        // Nothing evictable and already at one team per
                        // tile: settle for single buffering.
                    }
                }
            }
            break 'size;
        }
        if teams_per_tile == 0 || streams.len() != pending.len() {
            for s in streams.drain(..).chain(alt_streams.drain(..)) {
                self.free_dev(&device, s.dev_ptr)?;
            }
            return decline("slices do not fit even one team per tile");
        }

        // Snapshot pending host contents: if the device dies mid-tiling,
        // the host copies are restored so the fallback re-executes the
        // region from pristine inputs (tiles may have streamed partial
        // results back already).
        for s in &mut streams {
            let mut buf = vec![0u8; s.len as usize];
            host_mem
                .read_bytes(offset(s.host_addr), &mut buf)
                .map_err(|e| CudadevError::Data(ExecError::Mem(e)))?;
            s.pristine = buf;
        }

        let ntiles = gx.div_ceil(teams_per_tile);
        self.pressure(
            "tile",
            vec![
                ("kernel", kernel.into()),
                ("tiles", ntiles.into()),
                ("teams_per_tile", teams_per_tile.into()),
                ("pending_buffers", (pending.len() as u64).into()),
            ],
        );
        self.cfg.obs.metrics.incr(self.pid(), "tile_launches", ntiles);

        // Double buffering (async mode): the second buffer set on a second
        // stream lets tile k+1 upload — and tile k−1 download — while
        // tile k computes. Without the alt set the serial loop still runs
        // correctly, just with no overlap.
        let alt: Option<(Vec<SliceStream>, [usize; 2])> = match self.async_stream() {
            Some(sid) if !alt_streams.is_empty() => {
                Some((std::mem::take(&mut alt_streams), [sid, self.new_stream()]))
            }
            _ => None,
        };
        if alt.is_some() {
            self.cfg.obs.metrics.incr(self.pid(), "tile_double_buffered", 1);
        }

        let result = self.run_tiles(
            host_mem,
            &device,
            &m,
            lib.as_ref(),
            kernel,
            total,
            logical_grid,
            block,
            &mut vals,
            &streams,
            alt.as_ref().map(|(a, sids)| (a.as_slice(), *sids)),
            teams_per_tile,
        );
        if result.is_err() {
            // Put the host copies back the way the region found them.
            for s in &streams {
                let _ = host_mem.write_bytes(offset(s.host_addr), &s.pristine);
            }
        } else {
            // Resident buffers may have been written by the tiled kernel
            // and have no streamed copy-back; salvage them on any reset.
            let mut maps = self.maps.lock();
            for h in &resident {
                if let Some(e) = maps.get_mut(h) {
                    e.device_dirty = true;
                }
            }
        }
        for s in streams.iter().chain(alt.iter().flat_map(|(a, _)| a.iter())) {
            // Best-effort: on a lost device the frees may fail; the arena
            // dies with the device.
            let _ = self.free_dev(&device, s.dev_ptr);
        }
        result.map(|()| PressureOutcome::Ran)
    }

    /// Try to allocate one full slice-buffer set for a tile of
    /// `teams_per_tile` teams. `Ok(None)` means the set does not fit
    /// (partial allocations freed — the caller evicts or shrinks the
    /// tile); other allocation failures propagate.
    fn try_alloc_set(
        &self,
        device: &Arc<Device>,
        pending: &[(usize, u64, u64, u64)],
        teams_per_tile: u64,
        per_team: u64,
    ) -> Result<Option<Vec<SliceStream>>, CudadevError> {
        let mut out: Vec<SliceStream> = Vec::with_capacity(pending.len());
        for &(param_idx, host, row, len) in pending {
            let cap = (teams_per_tile * per_team * row).min(len);
            match self.retrying("alloc", || device.mem_alloc(cap)) {
                Ok(dev_ptr) => out.push(SliceStream {
                    host_addr: host,
                    row,
                    len,
                    param_idx,
                    dev_ptr,
                    pristine: Vec::new(),
                }),
                Err(ExecError::Alloc(AllocError::OutOfMemory { .. })) => {
                    for s in out {
                        self.free_dev(device, s.dev_ptr)?;
                    }
                    return Ok(None);
                }
                Err(e) => {
                    for s in out {
                        self.free_dev(device, s.dev_ptr)?;
                    }
                    return Err(CudadevError::Data(self.latch("alloc", e)));
                }
            }
        }
        Ok(Some(out))
    }

    /// The tile loop proper: upload slices, launch the windowed grid,
    /// stream results back to the host. With an `alt` buffer set (async
    /// mode) the loop is software-pipelined: tile k+1's upload is queued
    /// before tile k's launch, so on the virtual timeline the copy engine
    /// fills the next tile's slices (and drains the previous tile's
    /// results) while the compute engine runs the current tile.
    #[allow(clippy::too_many_arguments)]
    fn run_tiles(
        &self,
        host_mem: &MemArena,
        device: &Arc<Device>,
        m: &Program,
        lib: &dyn gpusim::DeviceLib,
        kernel: &str,
        total: u64,
        logical_grid: [u32; 3],
        block: [u32; 3],
        vals: &mut [u64],
        streams: &[SliceStream],
        alt: Option<(&[SliceStream], [usize; 2])>,
        teams_per_tile: u64,
    ) -> Result<(), CudadevError> {
        let gx = logical_grid[0] as u64;
        // Tile windows [t0, t1) with their iteration bounds; teams with
        // empty chunks do no work.
        let mut tiles: Vec<(u64, u64, u64, u64)> = Vec::new();
        let mut t0 = 0u64;
        while t0 < gx {
            let t1 = (t0 + teams_per_tile).min(gx);
            let (lb, _) = static_block(total, gx, t0);
            let (_, ub) = static_block(total, gx, t1 - 1);
            if lb < ub {
                tiles.push((t0, t1, lb, ub));
            }
            t0 = t1;
        }
        let Some((alt_streams, sids)) = alt else {
            // Single-buffered: strictly serial — every tile reuses the one
            // buffer set, so its upload must wait for the previous
            // download anyway.
            for &(t0, t1, lb, ub) in &tiles {
                self.upload_tile(host_mem, device, streams, lb, ub)?;
                self.launch_tile(
                    device,
                    m,
                    lib,
                    kernel,
                    vals,
                    streams,
                    logical_grid,
                    block,
                    (t0, t1, lb),
                )?;
                self.download_tile(host_mem, device, streams, lb, ub)?;
            }
            return Ok(());
        };
        // Double-buffered: tile k lives on buffer set / stream k % 2. A
        // stream serializes its own operations, so tile k+2's upload waits
        // for tile k's download (same buffers, same stream) automatically.
        let bufs = [streams, alt_streams];
        for (k, &(t0, t1, lb, ub)) in tiles.iter().enumerate() {
            if k == 0 {
                let _g = self.override_stream(sids[0]);
                self.upload_tile(host_mem, device, bufs[0], lb, ub)?;
            }
            if let Some(&(_, _, nlb, nub)) = tiles.get(k + 1) {
                let _g = self.override_stream(sids[(k + 1) % 2]);
                self.upload_tile(host_mem, device, bufs[(k + 1) % 2], nlb, nub)?;
            }
            let _g = self.override_stream(sids[k % 2]);
            self.launch_tile(
                device,
                m,
                lib,
                kernel,
                vals,
                bufs[k % 2],
                logical_grid,
                block,
                (t0, t1, lb),
            )?;
            self.download_tile(host_mem, device, bufs[k % 2], lb, ub)?;
        }
        Ok(())
    }

    /// Upload the slice rows `[lb, ub)` of every buffer in `bufs`.
    fn upload_tile(
        &self,
        host_mem: &MemArena,
        device: &Arc<Device>,
        bufs: &[SliceStream],
        lb: u64,
        ub: u64,
    ) -> Result<(), CudadevError> {
        for s in bufs {
            let lo = (lb * s.row).min(s.len);
            let hi = (ub * s.row).min(s.len);
            self.h2d_copy(device, s.dev_ptr, host_mem, offset(s.host_addr) + lo, hi - lo)
                .map_err(|e| self.latch("h2d", e))?;
        }
        Ok(())
    }

    /// Stream the slice rows `[lb, ub)` of every buffer back to the host.
    fn download_tile(
        &self,
        host_mem: &MemArena,
        device: &Arc<Device>,
        bufs: &[SliceStream],
        lb: u64,
        ub: u64,
    ) -> Result<(), CudadevError> {
        for s in bufs {
            let lo = (lb * s.row).min(s.len);
            let hi = (ub * s.row).min(s.len);
            self.d2h_copy(device, s.dev_ptr, host_mem, offset(s.host_addr) + lo, hi - lo)
                .map_err(|e| self.latch("d2h", e))?;
        }
        Ok(())
    }

    /// Launch one tile's windowed grid from the buffer set in `bufs`;
    /// `window` is `(t0, t1, lb)`.
    #[allow(clippy::too_many_arguments)]
    fn launch_tile(
        &self,
        device: &Arc<Device>,
        m: &Program,
        lib: &dyn gpusim::DeviceLib,
        kernel: &str,
        vals: &mut [u64],
        bufs: &[SliceStream],
        logical_grid: [u32; 3],
        block: [u32; 3],
        window: (u64, u64, u64),
    ) -> Result<(), CudadevError> {
        let (t0, t1, lb) = window;
        for s in bufs {
            // The kernel indexes the buffer from its logical base; the
            // slice holds rows [lb, ub), so bias the base pointer back by
            // the slice start. Intermediate wrap-around is fine: in-tile
            // accesses land back inside the slice.
            vals[s.param_idx] = s.dev_ptr.wrapping_sub((lb * s.row).min(s.len));
        }
        let cfg = LaunchConfig { grid: [(t1 - t0) as u32, 1, 1], block, params: vals.to_vec() };
        let tile = TileView { team_base: t0, logical_grid };
        let stats = self
            .retrying("launch", || {
                device.set_trace_base(self.launch_base());
                m.launch(device, kernel, &cfg, lib, self.cfg.exec_mode, Some(tile))
            })
            .map_err(|e| CudadevError::Launch {
                kernel: kernel.to_string(),
                error: self.latch("launch", e),
            })?;
        self.finish_launch(kernel, &stats);
        Ok(())
    }
}
