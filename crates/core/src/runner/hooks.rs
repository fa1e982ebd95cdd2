//! The runtime hook implementation: every `ort_*` (hostomp) and
//! `__dev_*` (offload) call the translated program makes lands in
//! [`OmpiHooks::call`], which dispatches through the device registry —
//! including the memory governor's pressured-offload path and the
//! OOM-annotated host fallback.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cudadev::{CudaDev, CudadevError, MapKind, PressureOutcome, TileParam};
use devmod::DeviceRegistry;
use hostomp::{HostRt, WsState};
use minic::interp::{HookCtx, Hooks, IResult, InterpError};
use vmcommon::sync::Mutex;
use vmcommon::Value;

thread_local! {
    /// Current worksharing loop of this host thread.
    static LOOP_WS: RefCell<Option<Arc<WsState>>> = const { RefCell::new(None) };
    /// Current sections region (state, total).
    static SECT_WS: RefCell<Option<(Arc<WsState>, u64)>> = const { RefCell::new(None) };
}

/// A runtime error the guest sees as a trap.
fn trap(e: impl std::fmt::Display) -> InterpError {
    InterpError::Trap(e.to_string())
}

/// The runtime hook implementation.
pub struct OmpiHooks {
    /// The host OpenMP runtime the `ort_*` hooks (parallel regions,
    /// worksharing, critical sections) and fallback bodies execute on.
    pub rt: Arc<HostRt>,
    /// All offload devices, the initial device's clock and the
    /// default-device ICV.
    pub registry: Arc<DeviceRegistry>,
    /// `omp_set_num_threads` ICV (0 = unset).
    nthreads_icv: AtomicUsize,
    /// For pure CUDA applications: the module kernels live in.
    cuda_module: Option<String>,
    /// First error raised inside a parallel region.
    parallel_error: Mutex<Option<String>>,
    /// Copy-backs committed to host memory since the current region's
    /// launch — guards host fallback against mixed device/host state.
    /// Target regions execute sequentially on the host thread, so one
    /// counter suffices even with several registered devices.
    region_commits: AtomicUsize,
    /// Trace + metrics sink shared with every device module.
    pub(super) obs: Arc<obs::Obs>,
    /// The current region's offload was declined by the memory governor
    /// (OOM fallback) rather than lost to a device failure — decides the
    /// `reason` recorded on the fallback span.
    fb_oom: std::sync::atomic::AtomicBool,
    /// Wall-clock start of the fallback body currently executing (the host
    /// has no cycle model; its elapsed time becomes simulated fallback
    /// time — documented substitution).
    fb_start: Mutex<Option<std::time::Instant>>,
    /// `(device idx, simulated begin time)` of the target region currently
    /// open — feeds the per-region offload-latency histogram. One slot is
    /// enough: target regions execute sequentially on the host thread (see
    /// `region_commits`).
    region_start: Mutex<Option<(usize, f64)>>,
}

impl OmpiHooks {
    pub(super) fn new(
        registry: Arc<DeviceRegistry>,
        cuda_module: Option<String>,
        obs: Arc<obs::Obs>,
        host_threads: usize,
    ) -> OmpiHooks {
        OmpiHooks {
            rt: Arc::new(HostRt::new(host_threads)),
            registry,
            nthreads_icv: AtomicUsize::new(0),
            cuda_module,
            parallel_error: Mutex::new(None),
            region_commits: AtomicUsize::new(0),
            obs,
            fb_oom: std::sync::atomic::AtomicBool::new(false),
            fb_start: Mutex::new(None),
            region_start: Mutex::new(None),
        }
    }

    /// Trace pid of the initial device (one Chrome-trace "process" per
    /// device; the initial device comes after the offload devices — unless
    /// the registry pinned it elsewhere, as the batch server's per-job
    /// single-device fleet views do).
    pub(super) fn host_pid(&self) -> u64 {
        self.registry.host_pid()
    }

    /// Simulated time on device `idx` right now (`idx == num_devices()`
    /// reads the initial device's clock).
    fn sim_now(&self, idx: usize) -> f64 {
        self.registry.clock_of(idx).unwrap_or_default().total_s()
    }

    /// Graceful-degradation filter for `__dev_*` hooks: terminal device
    /// failures are absorbed (the region falls back to host execution),
    /// anything else is a genuine trap.
    fn degrade(&self, dev: &CudaDev, e: CudadevError) -> IResult<()> {
        if e.is_device_lost() || dev.is_broken() {
            Ok(())
        } else {
            Err(InterpError::Trap(e.to_string()))
        }
    }

    /// Device 0 and its raw simulator, for the CUDA-baseline runtime hooks
    /// (`cudaMalloc` & friends bypass the mapping layer).
    fn baseline_device(&self) -> IResult<(&CudaDev, Arc<gpusim::Device>)> {
        self.registry
            .device(0)
            .and_then(|d| Some((d.as_ref(), d.raw_device()?)))
            .ok_or_else(|| InterpError::Trap("no offload device available".into()))
    }

    fn map_kind(code: i64) -> MapKind {
        match code {
            0 => MapKind::To,
            1 => MapKind::From,
            3 => MapKind::Alloc,
            4 => MapKind::Release,
            5 => MapKind::Delete,
            _ => MapKind::ToFrom,
        }
    }

    /// Convert interpreter values to raw kernel-parameter bits according to
    /// the kernel's parameter types — the "parameter preparation" phase:
    /// host pointers are looked up in the device's map table.
    fn prepare_params(
        &self,
        dev: &CudaDev,
        kernel: &sptx::Function,
        args: &[Value],
    ) -> IResult<Vec<u64>> {
        if args.len() != kernel.params.len() {
            return Err(InterpError::Trap(format!(
                "kernel `{}` takes {} parameters, offload provided {}",
                kernel.name,
                kernel.params.len(),
                args.len()
            )));
        }
        let mut out = Vec::with_capacity(args.len());
        for (v, p) in args.iter().zip(&kernel.params) {
            let bits = match (v, p.ty) {
                (Value::Ptr(host), _) => dev.dev_addr(*host).ok_or_else(|| {
                    InterpError::Trap(format!(
                        "kernel argument {host:#x} is not mapped to the device (missing map clause?)"
                    ))
                })?,
                (_, sptx::ScalarTy::F32) => v.as_f32().to_bits() as u64,
                (_, sptx::ScalarTy::F64) => v.as_f64().to_bits(),
                (_, sptx::ScalarTy::I32) => v.as_i32() as u32 as u64,
                (_, sptx::ScalarTy::I64) => v.as_i64() as u64,
            };
            out.push(bits);
        }
        Ok(out)
    }

    /// Grid/block geometry for an offload (§5: scalar num_teams /
    /// num_threads are mapped to multi-dimensional shapes matching the
    /// hand-written CUDA versions; dimensionality comes from the collapsed
    /// nest depth).
    fn geometry(
        mw: bool,
        ndims: i64,
        tcs: [i64; 3],
        teams: i64,
        threads: i64,
    ) -> ([u32; 3], [u32; 3]) {
        if mw {
            return ([1, 1, 1], [cudadev::MW_BLOCK_THREADS, 1, 1]);
        }
        let threads = if threads > 0 { threads as u32 } else { 128 }.clamp(1, 1024);
        let ceil =
            |a: i64, b: u32| -> u32 { ((a.max(1) as u64).div_ceil(b as u64)).min(65535) as u32 };
        match ndims {
            2 => {
                let block = [32u32, (threads / 32).max(1), 1];
                let grid = [ceil(tcs[1], block[0]), ceil(tcs[0], block[1]), 1];
                (grid, block)
            }
            3 => {
                let block = [32u32, 4, (threads / 128).max(1)];
                let grid = [ceil(tcs[2], block[0]), ceil(tcs[1], block[1]), ceil(tcs[0], block[2])];
                (grid, block)
            }
            _ => {
                let block = [threads, 1, 1];
                let mut gx = ceil(tcs[0], block[0]);
                if teams > 0 {
                    gx = teams.clamp(1, 65535) as u32;
                }
                (([gx, 1, 1]), block)
            }
        }
    }
}

impl Hooks for OmpiHooks {
    fn call(&self, name: &str, args: &[Value], ctx: &HookCtx<'_>) -> IResult<Option<Value>> {
        let a = |i: usize| args.get(i).copied().unwrap_or(Value::I32(0));
        let mem = ctx.mem();
        let read_str = |i: usize| -> IResult<String> {
            Ok(mem.read_cstr(vmcommon::addr::offset(a(i).as_ptr()))?)
        };
        let write_i64 = |addr: Value, v: i64| -> IResult<()> {
            mem.store_u64(vmcommon::addr::offset(addr.as_ptr()), v as u64)?;
            Ok(())
        };
        // `__dev_*` hooks carry the device id in argument 0.
        let resolve = |i: usize| self.registry.resolve(a(i).as_i64());

        match name {
            // ---------------------------------------- region observability
            "__dev_region_begin" => {
                // (dev, construct-kind string): opens the target-region span
                // on the resolved device's driver track.
                let idx = self.registry.resolve_id(a(0).as_i64());
                let construct = read_str(1)?;
                self.fb_oom.store(false, Ordering::Relaxed);
                if let Some(dev) = self.registry.device(idx) {
                    dev.stream_region_begin();
                }
                self.obs.metrics.incr(idx as u64, "target_regions", 1);
                let t0 = self.sim_now(idx);
                *self.region_start.lock() = Some((idx, t0));
                // Unconditional (no `is_enabled` gate): a disabled tracer
                // drops the span at one atomic load, but the flight ring
                // still captures it for post-mortems.
                self.obs.tracer.begin(
                    idx as u64,
                    0,
                    &construct,
                    "region",
                    t0,
                    vec![("device", (idx as u64).into())],
                );
                Ok(Some(Value::I32(0)))
            }
            "__dev_region_end" => {
                let idx = self.registry.resolve_id(a(0).as_i64());
                self.obs.tracer.end_track(idx as u64, 0, self.sim_now(idx));
                // A synchronization point unless the region was marked
                // `nowait` (the span end above reads only flushed time, so
                // it does not force a drain either way).
                if let Some(dev) = self.registry.device(idx) {
                    dev.stream_region_end();
                }
                // Region latency (µs of simulated time, begin→after-sync)
                // into the per-device histogram the profile table
                // summarizes as p50/p95/p99.
                if let Some((bidx, t0)) = self.region_start.lock().take() {
                    if bidx == idx {
                        let dt_us = ((self.sim_now(idx) - t0) * 1e6).max(0.0) as u64;
                        self.obs.metrics.observe(idx as u64, "region_latency_us", dt_us);
                    }
                }
                Ok(Some(Value::I32(0)))
            }
            "__dev_taskwait" => {
                // Wait for all queued device work (the `nowait` target
                // regions still in flight on the command streams).
                self.registry.sync_streams();
                Ok(Some(Value::I32(0)))
            }
            "__dev_fb_begin" => {
                // The region's fallback body is about to run on the host
                // thread team (offload declined or failed).
                let from = self.registry.resolve_id(a(0).as_i64());
                let host_pid = self.host_pid();
                *self.fb_start.lock() = Some(std::time::Instant::now());
                // Why are we here? `OomFallback` (the memory governor
                // declined the region — the device is fine) vs a lost or
                // unavailable device.
                let oom = self.fb_oom.swap(false, Ordering::Relaxed);
                let reason = if oom { "oom" } else { "device_lost" };
                self.obs.metrics.incr(host_pid, "fallbacks", 1);
                self.obs.metrics.incr(host_pid, &format!("fallbacks.{reason}"), 1);
                self.obs.tracer.begin(
                    host_pid,
                    0,
                    "host fallback",
                    "fallback",
                    self.registry.host_clock().total_s(),
                    vec![("from_device", (from as u64).into()), ("reason", reason.into())],
                );
                Ok(Some(Value::I32(0)))
            }
            "__dev_fb_end" => {
                // The fallback body rewrote host memory; any device
                // buffers still mapped (enclosing `target data`) are now
                // stale and must be refreshed before the next launch that
                // reads them.
                if let Some(dev) = resolve(0) {
                    dev.mark_all_host_dirty();
                }
                if let Some(t0) = self.fb_start.lock().take() {
                    self.registry.record_fallback(t0.elapsed().as_secs_f64());
                }
                let t = self.registry.host_clock().total_s();
                self.obs.tracer.end_track(self.host_pid(), 0, t);
                Ok(Some(Value::I32(0)))
            }

            // ------------------------------------------------- offloading
            "__dev_ok" => {
                // Guard emitted before every offload region: is the device
                // worth trying? A broken (or terminally fault-injected)
                // device answers 0 and the region runs on the host instead —
                // as does the initial device.
                let ok = resolve(0).is_some_and(|d| !d.is_broken() && d.is_available());
                Ok(Some(Value::I32(ok as i32)))
            }
            "__dev_map" => {
                let dev = match resolve(0) {
                    Some(dev) if !dev.is_broken() => dev,
                    // The initial device, or a dead one: the region runs on
                    // the host, where host memory is already authoritative
                    // — mapping is a no-op.
                    _ => return Ok(Some(Value::I32(0))),
                };
                let kind = Self::map_kind(a(3).as_i64());
                match dev.map(mem, a(1).as_ptr(), a(2).as_i64().max(0) as u64, kind) {
                    Ok(_) => Ok(Some(Value::I32(0))),
                    Err(e) => self.degrade(dev, e).map(|_| Some(Value::I32(0))),
                }
            }
            "__dev_unmap" => {
                // Returns 1 when the host holds this buffer's correct data
                // afterwards (copy-back committed, or none was needed), 0
                // when a needed copy-back was lost — the region must then
                // re-execute on the host.
                let kind = Self::map_kind(a(2).as_i64());
                let copies_back = matches!(kind, MapKind::From | MapKind::ToFrom);
                let unmapped = match resolve(0) {
                    // Skip copy-back entirely; host memory is pre-kernel
                    // state, authoritative for the fallback execution.
                    Some(dev) if dev.is_broken() => {
                        return Ok(Some(Value::I32(!copies_back as i32)))
                    }
                    Some(dev) => dev.unmap(mem, a(1).as_ptr(), kind).map_err(|e| (dev, e)),
                    // The initial device: host memory holds the results.
                    None => Ok(()),
                };
                match unmapped {
                    Ok(()) => {
                        if copies_back {
                            self.region_commits.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(Some(Value::I32(1)))
                    }
                    Err((dev, e)) if copies_back => {
                        if self.region_commits.load(Ordering::Relaxed) > 0 {
                            // Another buffer already committed its device
                            // results: host state is mixed, re-executing
                            // would double-apply. Surface the loss instead.
                            return Err(InterpError::Trap(format!(
                                "device lost during copy-back after a partial commit: {e}"
                            )));
                        }
                        self.degrade(dev, e).map(|_| Some(Value::I32(0)))
                    }
                    Err((dev, e)) => self.degrade(dev, e).map(|_| Some(Value::I32(1))),
                }
            }
            "__dev_update" => {
                let dev = match resolve(0) {
                    Some(dev) if !dev.is_broken() => dev,
                    // The initial device, or a dead one: nothing to refresh.
                    _ => return Ok(Some(Value::I32(0))),
                };
                match dev.update(mem, a(1).as_ptr(), a(2).as_i64().max(0) as u64, a(3).is_truthy())
                {
                    Ok(()) => Ok(Some(Value::I32(0))),
                    Err(e) => self.degrade(dev, e).map(|_| Some(Value::I32(0))),
                }
            }
            "__dev_offload" => {
                // (dev, module, kernel, mw, ndims, tc0, tc1, tc2, teams,
                // threads, tileable, nowait, (kernel arg, row_bytes)…)
                // Returns 1 when the kernel ran on the device —
                // monolithically or tiled by the memory governor — and 0
                // when the region must re-execute on the host: terminal
                // device failure, or an OOM fallback (the governor
                // declined a region it cannot tile).
                self.region_commits.store(0, Ordering::Relaxed);
                let dev = match resolve(0) {
                    Some(dev) if dev.is_broken() => return Ok(Some(Value::I32(0))),
                    Some(dev) => dev,
                    // `__dev_ok` answered 0 for the initial device, so a
                    // translated region never asks it to launch.
                    None => {
                        let module = read_str(1)?;
                        let reason = "initial device has no kernel modules".to_string();
                        let e = CudadevError::ModuleLoad { module, reason };
                        return Err(InterpError::Trap(e.to_string()));
                    }
                };
                let module = read_str(1)?;
                let kernel = read_str(2)?;
                let mw = a(3).is_truthy();
                let ndims = a(4).as_i64();
                let tcs = [a(5).as_i64(), a(6).as_i64(), a(7).as_i64()];
                let teams = a(8).as_i64();
                let threads = a(9).as_i64();
                let tileable = a(10).is_truthy();
                if a(11).is_truthy() {
                    // `nowait`: the region's queued async work may outlive
                    // region end (drained at `taskwait` or the next report).
                    dev.stream_mark_nowait();
                }
                let pairs = args.get(12..).unwrap_or(&[]);
                if pairs.len() % 2 != 0 {
                    return Err(InterpError::Trap(
                        "__dev_offload: launch arguments must come as (arg, row) pairs".into(),
                    ));
                }
                let lvals: Vec<Value> = pairs.iter().step_by(2).copied().collect();
                let rows: Vec<u64> =
                    pairs.iter().skip(1).step_by(2).map(|v| v.as_i64().max(0) as u64).collect();
                let m = match dev.load_module(&module) {
                    Ok(m) => m,
                    Err(e) => return self.degrade(dev, e).map(|_| Some(Value::I32(0))),
                };
                let kf = m.function(&kernel).ok_or_else(|| {
                    InterpError::Trap(format!("kernel `{kernel}` not in `{module}`"))
                })?;
                if lvals.len() != kf.params.len() {
                    return Err(InterpError::Trap(format!(
                        "kernel `{kernel}` takes {} parameters, offload provided {}",
                        kf.params.len(),
                        lvals.len()
                    )));
                }
                let (grid, block) = Self::geometry(mw, ndims, tcs, teams, threads);
                let haddrs: Vec<u64> = lvals
                    .iter()
                    .filter_map(|v| match v {
                        Value::Ptr(h) => Some(*h),
                        _ => None,
                    })
                    .collect();
                if dev.has_pending(&haddrs) {
                    // Memory pressure: some mapped buffers have no device
                    // copy. Hand the region to the governor, which tiles
                    // the iteration space when the translator proved it
                    // safe — or declines, making this an OOM fallback.
                    let tparams: Vec<TileParam> = lvals
                        .iter()
                        .zip(&kf.params)
                        .zip(&rows)
                        .map(|((v, p), row)| match (v, p.ty) {
                            (Value::Ptr(h), _) => TileParam::Buf { host: *h, row_bytes: *row },
                            (_, sptx::ScalarTy::F32) => {
                                TileParam::Scalar(v.as_f32().to_bits() as u64)
                            }
                            (_, sptx::ScalarTy::F64) => TileParam::Scalar(v.as_f64().to_bits()),
                            (_, sptx::ScalarTy::I32) => TileParam::Scalar(v.as_i32() as u32 as u64),
                            (_, sptx::ScalarTy::I64) => TileParam::Scalar(v.as_i64() as u64),
                        })
                        .collect();
                    let total = tcs[0].max(0) as u64;
                    let tileable = tileable && !mw && ndims <= 1;
                    return match dev.offload_pressured(
                        mem, &module, &kernel, tileable, total, grid, block, &tparams,
                    ) {
                        Ok(PressureOutcome::Ran) => {
                            // Tiled results are already committed to host
                            // memory: a later copy-back loss must trap, not
                            // silently re-execute.
                            self.region_commits.fetch_add(1, Ordering::Relaxed);
                            Ok(Some(Value::I32(1)))
                        }
                        Ok(PressureOutcome::Declined) => {
                            self.fb_oom.store(true, Ordering::Relaxed);
                            Ok(Some(Value::I32(0)))
                        }
                        Err(e) => self.degrade(dev, e).map(|_| Some(Value::I32(0))),
                    };
                }
                // Re-upload any device buffers a host fallback left stale
                // (host-dirty under an enclosing `target data`).
                if let Err(e) = dev.refresh_args(mem, &haddrs) {
                    return self.degrade(dev, e).map(|_| Some(Value::I32(0)));
                }
                let params = self.prepare_params(dev, kf, &lvals)?;
                match dev.launch(mem, &module, &kernel, grid, block, params) {
                    Ok(_) => Ok(Some(Value::I32(1))),
                    Err(e) => self.degrade(dev, e).map(|_| Some(Value::I32(0))),
                }
            }

            // --------------------------------------------- host parallelism
            "ort_execute_parallel" => {
                let fname = read_str(0)?;
                let env = a(1);
                let nthr_req = a(2).as_i64();
                let icv = self.nthreads_icv.load(Ordering::Relaxed);
                let nthr = if nthr_req > 0 {
                    Some(nthr_req as usize)
                } else if icv > 0 {
                    Some(icv)
                } else {
                    None
                };
                self.rt.parallel(nthr, |_tid| {
                    if let Err(e) = ctx.call_guest(&fname, &[Value::I64(env.as_i64())]) {
                        let mut slot = self.parallel_error.lock();
                        if slot.is_none() {
                            *slot = Some(e.to_string());
                        }
                    }
                });
                if let Some(e) = self.parallel_error.lock().take() {
                    return Err(InterpError::Trap(format!("in parallel region: {e}")));
                }
                Ok(Some(Value::I32(0)))
            }
            "ort_barrier" => {
                self.rt.barrier();
                Ok(Some(Value::I32(0)))
            }
            "ort_critical_enter" => {
                self.rt.critical_enter(&read_str(0)?);
                Ok(Some(Value::I32(0)))
            }
            "ort_critical_exit" => {
                self.rt.critical_exit(&read_str(0)?);
                Ok(Some(Value::I32(0)))
            }
            "ort_single" => Ok(Some(Value::I32(self.rt.single_enter() as i32))),
            "ort_sections_begin" => {
                let n = a(0).as_i64().max(0) as u64;
                let ws = self.rt.sections_begin();
                SECT_WS.with(|s| *s.borrow_mut() = Some((ws, n)));
                Ok(Some(Value::I32(0)))
            }
            "ort_sections_next" => {
                let r = SECT_WS.with(|s| {
                    let b = s.borrow();
                    b.as_ref().and_then(|(ws, n)| ws.sections_next(*n))
                });
                Ok(Some(Value::I64(r.map(|v| v as i64).unwrap_or(-1))))
            }
            "ort_loop_begin" => {
                let ws = self.rt.loop_begin(a(0).as_i64().max(0) as u64);
                LOOP_WS.with(|s| *s.borrow_mut() = Some(ws));
                Ok(Some(Value::I32(0)))
            }
            "ort_static_chunk" => {
                // (chunk, &lb, &ub) over the current loop.
                let ws = LOOP_WS
                    .with(|s| s.borrow().clone())
                    .ok_or_else(|| InterpError::Trap("ort_static_chunk without a loop".into()))?;
                let nthr = self.rt.num_threads() as u64;
                let tid = self.rt.thread_num() as u64;
                // `schedule(static, chunk)` degenerates to the blocked
                // partition (any exact partition is a legal static
                // schedule for correctness purposes; documented in
                // DESIGN.md).
                let (lo, hi) = vmcommon::sched::static_block(ws.total, nthr, tid);
                write_i64(a(1), lo as i64)?;
                write_i64(a(2), hi as i64)?;
                Ok(Some(Value::I32(0)))
            }
            "ort_dynamic_next" => {
                let ws = LOOP_WS
                    .with(|s| s.borrow().clone())
                    .ok_or_else(|| InterpError::Trap("ort_dynamic_next without a loop".into()))?;
                match ws.dynamic.next_chunk(ws.total, a(0).as_i64().max(1) as u64) {
                    Some((lo, hi)) => {
                        write_i64(a(1), lo as i64)?;
                        write_i64(a(2), hi as i64)?;
                        Ok(Some(Value::I32(1)))
                    }
                    None => Ok(Some(Value::I32(0))),
                }
            }
            "ort_guided_next" => {
                let ws = LOOP_WS
                    .with(|s| s.borrow().clone())
                    .ok_or_else(|| InterpError::Trap("ort_guided_next without a loop".into()))?;
                let nthr = self.rt.num_threads() as u64;
                match ws.guided.next_chunk(ws.total, nthr, a(0).as_i64().max(1) as u64) {
                    Some((lo, hi)) => {
                        write_i64(a(1), lo as i64)?;
                        write_i64(a(2), hi as i64)?;
                        Ok(Some(Value::I32(1)))
                    }
                    None => Ok(Some(Value::I32(0))),
                }
            }

            // ------------------------------------------------- omp_* API
            "omp_get_thread_num" => Ok(Some(Value::I32(self.rt.thread_num() as i32))),
            "omp_get_num_threads" => Ok(Some(Value::I32(self.rt.num_threads() as i32))),
            "omp_get_max_threads" => {
                let icv = self.nthreads_icv.load(Ordering::Relaxed);
                Ok(Some(Value::I32(if icv > 0 { icv } else { self.rt.default_threads } as i32)))
            }
            "omp_in_parallel" => Ok(Some(Value::I32(self.rt.in_parallel() as i32))),
            "omp_set_num_threads" => {
                self.nthreads_icv.store(a(0).as_i64().max(1) as usize, Ordering::Relaxed);
                Ok(Some(Value::I32(0)))
            }
            "omp_get_wtime" => {
                // Simulated time, not wall time: the default device's
                // virtual clock, so interpreted programs measure the same
                // quantity the harness reports.
                let idx = self.registry.resolve_id(-1);
                Ok(Some(Value::F64(self.sim_now(idx))))
            }
            "omp_get_wtick" => {
                // Resolution of the simulated clock: one GPU core cycle.
                Ok(Some(Value::F64(1.0 / gpusim::timing::CLOCK_HZ)))
            }
            "omp_get_num_procs" => Ok(Some(Value::I32(4))), // quad-core A57
            "omp_get_num_devices" => Ok(Some(Value::I32(self.registry.num_devices() as i32))),
            "omp_get_default_device" => Ok(Some(Value::I32(self.registry.default_device() as i32))),
            "omp_set_default_device" => {
                self.registry.set_default_device(a(0).as_i64());
                Ok(Some(Value::I32(0)))
            }
            "omp_get_initial_device" => {
                Ok(Some(Value::I32(self.registry.initial_device_id() as i32)))
            }
            "omp_is_initial_device" => Ok(Some(Value::I32(1))),
            "omp_get_team_num" => Ok(Some(Value::I32(0))),
            "omp_get_num_teams" => Ok(Some(Value::I32(1))),

            // ----------------------------------- CUDA runtime (baselines)
            "cudaMalloc" => {
                // cudaMalloc(&ptr, size)
                let size = a(1).as_i64().max(0) as u64;
                let (dev, device) = self.baseline_device()?;
                let dp = dev.baseline_alloc(&device, size).map_err(trap)?;
                mem.store_u64(vmcommon::addr::offset(a(0).as_ptr()), dp)?;
                Ok(Some(Value::I32(0)))
            }
            "cudaFree" => {
                let (dev, device) = self.baseline_device()?;
                dev.baseline_free(&device, a(0).as_ptr()).map_err(trap)?;
                Ok(Some(Value::I32(0)))
            }
            "cudaMemcpy" => {
                // cudaMemcpy(dst, src, bytes, kind): 1 = HtoD, 2 = DtoH.
                // cudadev's retried, booked copy; a bad host range is the
                // guest's memory fault, reported before the device sees
                // the copy.
                let bytes = a(2).as_i64().max(0) as u64;
                let (dev, device) = self.baseline_device()?;
                match a(3).as_i64() {
                    1 => {
                        let src = vmcommon::addr::offset(a(1).as_ptr());
                        mem.check_range(src, bytes)?;
                        dev.h2d_copy(&device, a(0).as_ptr(), mem, src, bytes)
                    }
                    2 => {
                        let dst = vmcommon::addr::offset(a(0).as_ptr());
                        mem.check_range(dst, bytes)?;
                        dev.d2h_copy(&device, a(1).as_ptr(), mem, dst, bytes)
                    }
                    other => {
                        return Err(InterpError::Trap(format!(
                            "cudaMemcpy kind {other} unsupported"
                        )))
                    }
                }
                .map_err(trap)?;
                Ok(Some(Value::I32(0)))
            }
            "cudaDeviceSynchronize" | "cudaThreadSynchronize" => Ok(Some(Value::I32(0))),
            "cudaMemset" => {
                self.baseline_device()?
                    .1
                    .memset_d8(a(0).as_ptr(), a(1).as_i64() as u8, a(2).as_i64().max(0) as u64)
                    .map_err(trap)?;
                Ok(Some(Value::I32(0)))
            }

            _ => Ok(None),
        }
    }

    fn kernel_launch(
        &self,
        name: &str,
        grid: [u32; 3],
        block: [u32; 3],
        args: &[Value],
        ctx: &HookCtx<'_>,
    ) -> IResult<()> {
        let module = self
            .cuda_module
            .clone()
            .ok_or_else(|| InterpError::Trap("no CUDA module registered for launches".into()))?;
        let dev = self
            .registry
            .device(0)
            .ok_or_else(|| InterpError::Trap("no offload device available".into()))?;
        let m = dev.load_module(&module).map_err(|e| InterpError::Trap(e.to_string()))?;
        let kf = m
            .function(name)
            .ok_or_else(|| InterpError::Trap(format!("kernel `{name}` not in `{module}`")))?;
        // CUDA host code passes raw device pointers — no map translation.
        let mut params = Vec::with_capacity(args.len());
        for (v, p) in args.iter().zip(&kf.params) {
            params.push(match (v, p.ty) {
                (Value::Ptr(dp), _) => *dp,
                (_, sptx::ScalarTy::F32) => v.as_f32().to_bits() as u64,
                (_, sptx::ScalarTy::F64) => v.as_f64().to_bits(),
                (_, sptx::ScalarTy::I32) => v.as_i32() as u32 as u64,
                (_, sptx::ScalarTy::I64) => v.as_i64() as u64,
            });
        }
        if args.len() != kf.params.len() {
            return Err(InterpError::Trap(format!(
                "kernel `{name}` takes {} parameters, launch provided {}",
                kf.params.len(),
                args.len()
            )));
        }
        dev.launch(ctx.mem(), &module, name, grid, block, params)
            .map_err(|e| InterpError::Trap(e.to_string()))?;
        Ok(())
    }
}
