//! Layer drives: the layers nested inside `Ompicc::compile` and
//! `Runner::call` cannot be seen from spans around those calls, so the
//! traced run calls each nested layer's public functions directly, on the
//! workload's own programs and sizes, and times that.
//!
//! Compile-side metrics are sums over the workload's program set for one
//! compile of each program (median of [`REPS`] repetitions of the whole
//! set); run-side metrics are seconds for one pass's worth of work.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cudadev::{CudaDev, CudaDevConfig, MapKind};
use gpusim::{Device, ExecMode, LaunchConfig, NoLib};
use minic::interp::Machine;
use nvccsim::BinMode;
use ompi_core::{CudaCc, Ompicc, Pipeline, Runner, RunnerConfig};
use vmcommon::{addr, MemArena};

use crate::harness::Counters;
use crate::metrics::Values;
use crate::progs::EMPTY_KERNEL_CU;
use crate::spans::Spans;
use crate::stats::median;

/// Repetitions of a drive over a program set.
const REPS: usize = 5;
/// Repetitions of a microsecond-scale drive (empty-kernel launches).
const MICRO_REPS: usize = 200;
/// Largest single mapping the transfer drive makes.
const MAP_CHUNK: u64 = 8 << 20;

/// One guest program of a workload's program set.
pub struct Program {
    pub name: String,
    pub src: String,
    /// Guest arena the workload gives this program's machine.
    pub host_mem: usize,
}

fn timed<T>(sp: &Spans, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _g = sp.enter(layer, name);
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64() * 1e6)
}

/// Per-repetition sums by metric name; [`Sums::finish`] reports medians.
#[derive(Default)]
struct Sums {
    reps: Vec<Values>,
}

impl Sums {
    fn rep(&mut self) -> &mut Values {
        self.reps.push(Values::default());
        self.reps.last_mut().expect("just pushed")
    }

    fn finish(&self, names: &[&'static str], out: &mut Values) {
        for name in names {
            let xs: Vec<f64> = self.reps.iter().map(|r| r.get(name)).collect();
            out.set(name, median(&xs));
        }
    }
}

/// `minic.parse_us`, `minic.analyze_us`, `minic.machine_new_us`.
pub fn frontend(sp: &Spans, progs: &[Program], out: &mut Values) -> Result<(), String> {
    let mut sums = Sums::default();
    for _ in 0..REPS {
        let rep = sums.rep();
        for p in progs {
            let (prog, us) = timed(sp, "minic", "parse", || minic::parse(&p.src));
            let mut prog = prog.map_err(|e| format!("{}: {e}", p.name))?;
            rep.add("minic.parse_us", us);
            let (info, us) = timed(sp, "minic", "analyze", || minic::analyze(&mut prog));
            let info = info.map_err(|e| format!("{}: {e}", p.name))?;
            rep.add("minic.analyze_us", us);
            let (m, us) =
                timed(sp, "minic", "machine_new", || Machine::new(prog, info, p.host_mem));
            m.map_err(|e| format!("{}: {e}", p.name))?;
            rep.add("minic.machine_new_us", us);
        }
    }
    sums.finish(&["minic.parse_us", "minic.analyze_us", "minic.machine_new_us"], out);
    Ok(())
}

/// The translator, nvccsim, sptx and the `Ompicc` driver over the program
/// set, then `Runner::new` on each compiled program: `core.transform_*`,
/// `nvccsim.*`, `sptx.*`, `core.ompicc_us`, `core.ompicc_self_us`,
/// `core.runner_new_us`. Leaves cubin and PTX builds of every program
/// under `dir` and returns the kernel module names.
pub fn backend(
    sp: &Spans,
    dir: &Path,
    progs: &[Program],
    out: &mut Values,
) -> Result<Vec<String>, String> {
    let lib = cudadev::exports();
    let mut sums = Sums::default();
    for _ in 0..REPS {
        let rep = sums.rep();
        for p in progs {
            let err = |e: String| format!("{}: {e}", p.name);
            let mut prog = minic::parse(&p.src).map_err(|e| err(e.to_string()))?;
            minic::analyze(&mut prog).map_err(|e| err(e.to_string()))?;
            let (tr, us) = timed(sp, "core", "transform", || Pipeline::new().run(&prog));
            let (translation, _) = tr.map_err(|e| err(e.to_string()))?;
            rep.add("core.transform_us", us);
            rep.add("core.transform_kernels", translation.kernels.len() as f64);
            for k in &translation.kernels {
                rep.add("core.transform_kernel_bytes", k.c_text.len() as f64);
                let (m, us) = timed(sp, "nvccsim", "compile_source", || {
                    nvccsim::compile_source(&k.c_text, &k.module_name)
                });
                let mut m = m.map_err(|e| err(e.to_string()))?;
                rep.add("nvccsim.compile_us", us);
                let (linked, us) =
                    timed(sp, "nvccsim", "link_module", || nvccsim::link_module(&mut m, &lib));
                linked.map_err(|e| err(e.to_string()))?;
                rep.add("nvccsim.link_us", us);
                let mut insts = 0u64;
                for f in &m.functions {
                    sptx::visit_insts(&f.body, &mut |_| insts += 1);
                }
                rep.add("nvccsim.sptx_insts", insts as f64);

                let (text, us) = timed(sp, "sptx", "print_module", || sptx::text::print_module(&m));
                rep.add("sptx.print_us", us);
                let (parsed, us) =
                    timed(sp, "sptx", "parse_module", || sptx::text::parse_module(&text));
                parsed.map_err(|e| err(e.to_string()))?;
                rep.add("sptx.parse_us", us);
                let (ok, us) = timed(sp, "sptx", "verify_module", || sptx::verify_module(&m));
                ok.map_err(|e| err(e.to_string()))?;
                rep.add("sptx.verify_us", us);
                let (bin, us) = timed(sp, "sptx", "cubin_encode", || sptx::cubin::encode(&m));
                rep.add("sptx.cubin_encode_us", us);
                rep.add("sptx.cubin_bytes", bin.len() as f64);
                let (dec, us) = timed(sp, "sptx", "cubin_decode", || sptx::cubin::decode(&bin));
                dec.map_err(|e| err(e.to_string()))?;
                rep.add("sptx.cubin_decode_us", us);
            }
        }
    }
    // The driver as a whole, and the runner built on its output. A module
    // prefix per program keeps the set in one kernel directory per mode.
    let mut modules = Vec::new();
    let mut driver = Sums::default();
    for r in 0..REPS {
        let rep = driver.rep();
        for (i, p) in progs.iter().enumerate() {
            let err = |e: String| format!("{}: {e}", p.name);
            let cc = Ompicc::new(dir.join("cubin")).with_module_prefix(format!("p{i}_"));
            let (app, us) = timed(sp, "core", "ompicc_compile", || cc.compile(&p.src));
            let app = app.map_err(|e| err(e.to_string()))?;
            rep.add("core.ompicc_us", us);
            let cfg = RunnerConfig {
                host_mem: p.host_mem,
                jit_cache_dir: dir.join("jit"),
                ..RunnerConfig::default()
            };
            let (runner, us) = timed(sp, "core", "runner_new", || Runner::new(&app, &cfg));
            runner.map_err(|e| err(e.to_string()))?;
            rep.add("core.runner_new_us", us);
            if r == 0 {
                modules.extend(app.kernels.iter().map(|k| k.module_name.clone()));
                Ompicc::new(dir.join("ptx"))
                    .with_mode(BinMode::Ptx)
                    .with_module_prefix(format!("p{i}_"))
                    .compile(&p.src)
                    .map_err(|e| err(e.to_string()))?;
            }
        }
    }
    sums.finish(
        &[
            "core.transform_us",
            "core.transform_kernels",
            "core.transform_kernel_bytes",
            "nvccsim.compile_us",
            "nvccsim.link_us",
            "nvccsim.sptx_insts",
            "sptx.print_us",
            "sptx.parse_us",
            "sptx.verify_us",
            "sptx.cubin_encode_us",
            "sptx.cubin_decode_us",
            "sptx.cubin_bytes",
        ],
        out,
    );
    driver.finish(&["core.ompicc_us", "core.runner_new_us"], out);
    let nested = ["minic.parse_us", "minic.analyze_us", "core.transform_us"]
        .iter()
        .chain(&["nvccsim.compile_us", "nvccsim.link_us", "sptx.cubin_encode_us"])
        .map(|n| out.get(n))
        .sum::<f64>();
    out.set("core.ompicc_self_us", out.get("core.ompicc_us") - nested);
    Ok(modules)
}

/// `core.cudacc_us`: the CUDA-baseline compiler over `(name, source)`.
/// Leaves `<dir>/cuda/kernels/<name>_cuda.cubin` for the gpusim drive.
pub fn cudacc(
    sp: &Spans,
    dir: &Path,
    sources: &[(&str, &str)],
    out: &mut Values,
) -> Result<(), String> {
    let mut sums = Sums::default();
    for _ in 0..REPS {
        let rep = sums.rep();
        for (name, src) in sources {
            let cc = CudaCc::new(dir.join("cuda"));
            let (app, us) =
                timed(sp, "core", "cudacc_compile", || cc.compile(src, &format!("{name}_cuda")));
            app.map_err(|e| format!("{name}: {e}"))?;
            rep.add("core.cudacc_us", us);
        }
    }
    sums.finish(&["core.cudacc_us"], out);
    Ok(())
}

fn dev_cfg(kernel_dir: &Path, jit_dir: &Path, mem: usize) -> CudaDevConfig {
    CudaDevConfig {
        global_mem: mem,
        kernel_dir: kernel_dir.to_path_buf(),
        jit_cache_dir: jit_dir.to_path_buf(),
        exec_mode: ExecMode::Functional,
        ..CudaDevConfig::default()
    }
}

fn empty_module() -> Result<sptx::Module, String> {
    let mut m = nvccsim::compile_source(EMPTY_KERNEL_CU, "empty").map_err(|e| e.to_string())?;
    nvccsim::link_module(&mut m, &cudadev::exports()).map_err(|e| e.to_string())?;
    Ok(m)
}

/// Buffers of at most [`MAP_CHUNK`] bytes adding up to `bytes`.
fn chunks(bytes: u64) -> Vec<u64> {
    let mut left = bytes;
    let mut out = Vec::new();
    while left > 0 {
        out.push(left.min(MAP_CHUNK));
        left -= out[out.len() - 1];
    }
    out
}

/// The cudadev host module driven directly: `cudadev.init_us`,
/// `cudadev.modload_*_us` over `modules` (as [`backend`] left them under
/// `dir`), `cudadev.map_s` / `unmap_s` for one pass's h2d and d2h bytes,
/// `cudadev.update_s`, `cudadev.copy_gib_per_s`, `cudadev.launch_overhead_us`.
pub fn cudadev_layer(
    sp: &Spans,
    dir: &Path,
    modules: &[String],
    per_pass: &Counters,
    out: &mut Values,
) -> Result<(), String> {
    let e = |e: cudadev::CudadevError| e.to_string();
    let (cubin_dir, ptx_dir) = (dir.join("cubin/kernels"), dir.join("ptx/kernels"));

    let mut sums = Sums::default();
    for r in 0..REPS {
        let rep = sums.rep();
        let d = CudaDev::new(dev_cfg(&cubin_dir, &dir.join("jit"), 64 << 20));
        let (dev, us) = timed(sp, "cudadev", "init", || d.try_device());
        dev.map_err(e)?;
        rep.add("cudadev.init_us", us);
        for name in modules {
            let (m, us) = timed(sp, "cudadev", "load_module_cubin", || d.load_module(name));
            m.map_err(e)?;
            rep.add("cudadev.modload_cubin_us", us);
        }
        // PTX: the first device finds an empty JIT cache and compiles, the
        // second finds the first one's entries.
        let jit = dir.join(format!("jit-drive{r}"));
        for (metric, span) in [
            ("cudadev.modload_ptx_cold_us", "load_module_ptx_cold"),
            ("cudadev.modload_ptx_warm_us", "load_module_ptx_warm"),
        ] {
            let d = CudaDev::new(dev_cfg(&ptx_dir, &jit, 64 << 20));
            d.try_device().map_err(e)?;
            for name in modules {
                let (m, us) = timed(sp, "cudadev", span, || d.load_module(name));
                m.map_err(e)?;
                rep.add(metric, us);
            }
        }
    }
    sums.finish(
        &[
            "cudadev.init_us",
            "cudadev.modload_cubin_us",
            "cudadev.modload_ptx_cold_us",
            "cudadev.modload_ptx_warm_us",
        ],
        out,
    );

    // One pass's transfer volume through map/unmap.
    let count = |k: &str| per_pass.get(k).copied().unwrap_or(0.0).round() as u64;
    let (up, down) = (chunks(count("cudadev.h2d_bytes")), chunks(count("cudadev.d2h_bytes")));
    let total: u64 = up.iter().chain(&down).sum();
    if total > 0 {
        let host = MemArena::new(total as usize + 4096);
        let mut regions = Vec::new();
        let mut off = 4096u64;
        for (len, kind) in
            up.iter().map(|l| (*l, MapKind::To)).chain(down.iter().map(|l| (*l, MapKind::From)))
        {
            // Touch the pages: the workloads map arrays their guests wrote.
            host.write_bytes(off, &vec![0x5au8; len as usize]).map_err(|e| e.to_string())?;
            regions.push((addr::make(addr::Space::Host, off), len, kind));
            off += len;
        }
        let mut sums = Sums::default();
        for _ in 0..3 {
            let rep = sums.rep();
            // A fresh device per repetition: the governor would otherwise
            // find the previous repetition's buffers in its transfer cache.
            let d =
                CudaDev::new(dev_cfg(&cubin_dir, &dir.join("jit"), total as usize + (16 << 20)));
            d.try_device().map_err(e)?;
            for &(a, len, kind) in &regions {
                let (r, us) = timed(sp, "cudadev", "map", || d.map(&host, a, len, kind));
                r.map_err(e)?;
                rep.add("cudadev.map_s", us / 1e6);
            }
            let (a, len, _) = regions[0];
            let (r, us) = timed(sp, "cudadev", "update", || {
                d.update(&host, a, len, true).and_then(|_| d.update(&host, a, len, false))
            });
            r.map_err(e)?;
            rep.add("cudadev.update_s", us / 1e6);
            for &(a, _, kind) in &regions {
                let (r, us) = timed(sp, "cudadev", "unmap", || d.unmap(&host, a, kind));
                r.map_err(e)?;
                rep.add("cudadev.unmap_s", us / 1e6);
            }
        }
        sums.finish(&["cudadev.map_s", "cudadev.unmap_s", "cudadev.update_s"], out);
        let copy_s = out.get("cudadev.map_s") + out.get("cudadev.unmap_s");
        out.set("cudadev.copy_gib_per_s", total as f64 / copy_s / (1u64 << 30) as f64);
    }

    // What a launch costs in cudadev and below before any warp runs.
    let d = CudaDev::new(dev_cfg(&cubin_dir, &dir.join("jit"), 16 << 20));
    d.try_device().map_err(e)?;
    d.register_module(empty_module()?);
    let host = MemArena::new(4096);
    let mut us = Vec::with_capacity(MICRO_REPS);
    for _ in 0..MICRO_REPS {
        let (r, t) = timed(sp, "cudadev", "launch_empty", || {
            d.launch(&host, "empty", "empty_kernel", [1, 1, 1], [32, 1, 1], vec![0])
        });
        r.map_err(e)?;
        us.push(t);
    }
    out.set("cudadev.launch_overhead_us", median(&us));
    Ok(())
}

/// One kernel launch of a CUDA-baseline module, as its host code makes it.
pub struct KernelLaunch {
    pub kernel: &'static str,
    pub grid: [u32; 3],
    pub block: [u32; 3],
    /// Leading `int` parameters.
    pub ints: Vec<i32>,
    /// Trailing `float *` parameters.
    pub ptrs: usize,
}

/// All launches of one app's CUDA variant at one size.
pub struct DirectApp {
    pub name: &'static str,
    /// Floats behind each pointer parameter.
    pub elems: usize,
    pub mode: ExecMode,
    pub launches: Vec<KernelLaunch>,
}

/// gpusim driven directly: `gpusim.launch_fixed_us`, `gpusim.memcpy_*`,
/// and, for `apps` (whose cubins [`cudacc`] left under `dir`),
/// `gpusim.launch_s`, `gpusim.lane_minstr_per_s`, `gpusim.divergent_branches`.
pub fn gpusim_layer(
    sp: &Spans,
    dir: &Path,
    apps: &[DirectApp],
    out: &mut Values,
) -> Result<(), String> {
    let e = |e: gpusim::ExecError| e.to_string();

    let empty = empty_module()?;
    let d = Device::new(16 << 20);
    let cfg = LaunchConfig { grid: [1, 1, 1], block: [32, 1, 1], params: vec![0] };
    let mut us = Vec::with_capacity(MICRO_REPS);
    for _ in 0..MICRO_REPS {
        let (r, t) = timed(sp, "gpusim", "launch_empty", || {
            gpusim::launch(&d, &empty, "empty_kernel", &cfg, &NoLib, ExecMode::Functional)
        });
        r.map_err(e)?;
        us.push(t);
    }
    out.set("gpusim.launch_fixed_us", median(&us));

    let d = Device::new(MAP_CHUNK as usize + (8 << 20));
    let dst = d.mem_alloc(MAP_CHUNK).map_err(e)?;
    let mut buf = vec![0x5au8; MAP_CHUNK as usize];
    let (mut up, mut down) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (r, t) = timed(sp, "gpusim", "memcpy_h2d", || d.memcpy_h2d(dst, &buf));
        r.map_err(e)?;
        up.push(t);
        let (r, t) = timed(sp, "gpusim", "memcpy_d2h", || d.memcpy_d2h(&mut buf, dst));
        r.map_err(e)?;
        down.push(t);
    }
    let gib_per_s = |us: &[f64]| MAP_CHUNK as f64 / (median(us) / 1e6) / (1u64 << 30) as f64;
    out.set("gpusim.memcpy_h2d_gib_per_s", gib_per_s(&up));
    out.set("gpusim.memcpy_d2h_gib_per_s", gib_per_s(&down));

    if apps.is_empty() {
        return Ok(());
    }
    let mut sums = Sums::default();
    for _ in 0..3 {
        let rep = sums.rep();
        for app in apps {
            let path = dir.join(format!("cuda/kernels/{}_cuda.cubin", app.name));
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let module = Arc::new(sptx::cubin::decode(&bytes).map_err(|e| e.to_string())?);
            let ptrs = app.launches.iter().map(|l| l.ptrs).max().unwrap_or(0);
            let d = Device::new(ptrs * app.elems * 4 + (8 << 20));
            let ones: Vec<u8> =
                std::iter::repeat_n(1.0f32.to_le_bytes(), app.elems).flatten().collect();
            let mut bufs = Vec::new();
            for _ in 0..ptrs {
                let p = d.mem_alloc(ones.len() as u64).map_err(e)?;
                d.memcpy_h2d(p, &ones).map_err(e)?;
                bufs.push(p);
            }
            for l in &app.launches {
                let mut params: Vec<u64> = l.ints.iter().map(|v| *v as u32 as u64).collect();
                params.extend(&bufs[..l.ptrs]);
                let cfg = LaunchConfig { grid: l.grid, block: l.block, params };
                let (st, us) = timed(sp, "gpusim", &format!("launch:{}", l.kernel), || {
                    gpusim::launch(&d, &module, l.kernel, &cfg, &NoLib, app.mode)
                });
                let st = st.map_err(|x| format!("{}: {x}", l.kernel))?;
                rep.add("gpusim.launch_s", us / 1e6);
                rep.add("gpusim.divergent_branches", st.divergent_branches as f64);
                rep.add("lane_insts", st.lane_insts as f64);
            }
        }
    }
    sums.finish(&["gpusim.launch_s", "gpusim.divergent_branches"], out);
    let mut lanes = Values::default();
    sums.finish(&["lane_insts"], &mut lanes);
    let rate = lanes.get("lane_insts") / out.get("gpusim.launch_s") / 1e6;
    out.set("gpusim.lane_minstr_per_s", rate);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_the_volume_exactly() {
        assert!(chunks(0).is_empty());
        assert_eq!(chunks(100), vec![100]);
        assert_eq!(chunks(MAP_CHUNK * 2 + 5), vec![MAP_CHUNK, MAP_CHUNK, 5]);
    }
}
