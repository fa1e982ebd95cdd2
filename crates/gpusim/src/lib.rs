//! `gpusim` — a SIMT simulator of the Jetson Nano's Maxwell GPU.
//!
//! This crate is the hardware substitute of the reproduction (see
//! DESIGN.md): one Maxwell SMM with 128 cores, warps of 32 lanes in
//! lockstep with divergence masks, 16 named barriers per block with the
//! multiple-of-warp-size arrival rule, 48 KiB shared memory per block, a
//! global-memory arena with relaxed-atomic word access, and a calibrated
//! timing model ([`timing`]).
//!
//! The execution model: a module is lowered once into a [`Program`] — per
//! function a flat list of ops with operands, costs and branch targets
//! resolved ([`program`]) — and a warp steps those ops warp-wide, 32 lanes
//! per decode, over a mask stack (see [`warp`]). Blocks are independent and
//! are simulated by a small worker pool. Within a block, every warp runs on
//! the block worker's thread under one scheduler: a warp runs until it
//! parks on a named barrier, spins on a lock, or ends, and then the next
//! warp in warp-id order runs (see [`launch`]).

#![forbid(unsafe_code)]

pub mod barrier;
pub mod device;
pub mod fault;
pub mod launch;
pub mod program;
pub mod stream;
pub mod timing;
pub mod warp;

pub use device::{DevTrace, Device, DeviceProps, DeviceStats, ExecError};
pub use fault::{FaultKind, FaultPlan, FaultPlanError, FaultRule, FaultSite};
pub use launch::{launch, ExecMode, LaunchConfig, LaunchStats, TileView};
pub use program::Program;
pub use stream::{EngineKind, EventId, OpSchedule, StreamEngine};
pub use warp::{iter_lanes, BlockCtx, BlockEnv, DeviceLib, LaneVec, LibStep, NoLib, Warp};

/// Block `ext` slot holding the dynamic shared-memory stack pointer
/// (convention shared between the launcher and the cudadev device library).
pub const SHMEM_SP_SLOT: usize = 0;

/// For each conversion in a printf format: does it consume a string?
pub(crate) fn printf_arg_kinds(fmt: &str) -> Vec<bool> {
    let mut out = Vec::new();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            continue;
        }
        if chars.peek() == Some(&'%') {
            chars.next();
            continue;
        }
        let mut conv = None;
        for c in chars.by_ref() {
            if c.is_ascii_alphabetic() && !matches!(c, 'l' | 'z' | 'h') {
                conv = Some(c);
                break;
            }
        }
        if let Some(conv) = conv {
            out.push(conv == 's');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptx::builder::{op, FnBuilder};
    use sptx::{BinOp, CvtTy, MemTy, ScalarTy, SpecialReg};

    fn device() -> Device {
        Device::new(8 << 20)
    }

    /// Build a saxpy kernel: y[i] = a*x[i] + y[i] for i < n over a 1D grid.
    fn saxpy_module() -> sptx::Module {
        let mut b = FnBuilder::new("saxpy", true);
        let a = b.param("a", ScalarTy::F32);
        let n = b.param("n", ScalarTy::I32);
        let x = b.param("x", ScalarTy::I64);
        let y = b.param("y", ScalarTy::I64);
        // i = ctaid.x * ntid.x + tid.x
        let base =
            b.bin(ScalarTy::I32, BinOp::Mul, op::sp(SpecialReg::CtaidX), op::sp(SpecialReg::NtidX));
        let i = b.bin(ScalarTy::I32, BinOp::Add, op::r(base), op::sp(SpecialReg::TidX));
        let inb = b.bin(ScalarTy::I32, BinOp::SetLt, op::r(i), op::r(n));
        b.begin_if();
        {
            let i64v = b.cvt(CvtTy::I64, CvtTy::I32, op::r(i));
            let off = b.bin(ScalarTy::I64, BinOp::Mul, op::r(i64v), op::i(4));
            let xa = b.bin(ScalarTy::I64, BinOp::Add, op::r(x), op::r(off));
            let ya = b.bin(ScalarTy::I64, BinOp::Add, op::r(y), op::r(off));
            let xv = b.ld(MemTy::F32, op::r(xa), 0);
            let yv = b.ld(MemTy::F32, op::r(ya), 0);
            let ax = b.bin(ScalarTy::F32, BinOp::Mul, op::r(a), op::r(xv));
            let s = b.bin(ScalarTy::F32, BinOp::Add, op::r(ax), op::r(yv));
            b.st(MemTy::F32, op::r(s), op::r(ya), 0);
        }
        b.end_if(op::r(inb));
        sptx::Module {
            name: "saxpy".into(),
            arch: "sm_53".into(),
            functions: vec![b.build()],
            device_lib_linked: true,
        }
    }

    #[test]
    fn saxpy_functional() {
        let d = device();
        let n = 1000u32;
        let x = d.mem_alloc(4 * n as u64).unwrap();
        let y = d.mem_alloc(4 * n as u64).unwrap();
        let xs: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let ys: Vec<u8> = (0..n).flat_map(|i| (2.0 * i as f32).to_le_bytes()).collect();
        d.memcpy_h2d(x, &xs).unwrap();
        d.memcpy_h2d(y, &ys).unwrap();

        let m = saxpy_module();
        sptx::verify_module(&m).unwrap();
        let cfg = LaunchConfig {
            grid: [n.div_ceil(128), 1, 1],
            block: [128, 1, 1],
            params: vec![3.0f32.to_bits() as u64, n as u64, x, y],
        };
        let stats = launch(&d, &m, "saxpy", &cfg, &NoLib, ExecMode::Functional).unwrap();
        assert_eq!(stats.blocks_total, 8);
        assert_eq!(stats.blocks_executed, 8);
        assert!(stats.kernel_cycles > 0);

        let mut out = vec![0u8; 4 * n as usize];
        d.memcpy_d2h(&mut out, y).unwrap();
        for i in 0..n as usize {
            let v = f32::from_le_bytes(out[4 * i..4 * i + 4].try_into().unwrap());
            let expect = 3.0 * i as f32 + 2.0 * i as f32;
            assert_eq!(v, expect, "element {i}");
        }
    }

    #[test]
    fn out_of_bounds_guard_lanes_inactive() {
        // n = 100 with 128-thread blocks: lanes ≥ 100 must not fault.
        let d = device();
        let n = 100u32;
        let x = d.mem_alloc(4 * n as u64).unwrap();
        let y = d.mem_alloc(4 * n as u64).unwrap();
        let m = saxpy_module();
        let cfg = LaunchConfig {
            grid: [1, 1, 1],
            block: [128, 1, 1],
            params: vec![1.0f32.to_bits() as u64, n as u64, x, y],
        };
        launch(&d, &m, "saxpy", &cfg, &NoLib, ExecMode::Functional).unwrap();
    }

    #[test]
    fn loop_sum_kernel() {
        // One thread sums 0..100 into out[0] via a loop.
        let mut b = FnBuilder::new("sum", true);
        let out = b.param("out", ScalarTy::I64);
        let acc = b.mov(op::i(0));
        let i = b.mov(op::i(0));
        b.begin_loop();
        {
            let done = b.bin(ScalarTy::I32, BinOp::SetGe, op::r(i), op::i(100));
            b.begin_if();
            b.brk();
            b.end_if(op::r(done));
            let acc2 = b.bin(ScalarTy::I32, BinOp::Add, op::r(acc), op::r(i));
            b.mov_to(acc, op::r(acc2));
            let i2 = b.bin(ScalarTy::I32, BinOp::Add, op::r(i), op::i(1));
            b.mov_to(i, op::r(i2));
        }
        b.end_loop();
        b.st(MemTy::B32, op::r(acc), op::r(out), 0);
        let m = sptx::Module {
            name: "sum".into(),
            arch: "sm_53".into(),
            functions: vec![b.build()],
            device_lib_linked: true,
        };
        let d = device();
        let buf = d.mem_alloc(4).unwrap();
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [1, 1, 1], params: vec![buf] };
        launch(&d, &m, "sum", &cfg, &NoLib, ExecMode::Functional).unwrap();
        let mut out4 = [0u8; 4];
        d.memcpy_d2h(&mut out4, buf).unwrap();
        assert_eq!(u32::from_le_bytes(out4), 4950);
    }

    #[test]
    fn divergent_lanes_reconverge() {
        // Each lane: out[tid] = tid % 2 ? tid * 10 : tid; then all lanes add 1.
        let mut b = FnBuilder::new("div", true);
        let out = b.param("out", ScalarTy::I64);
        let tid = b.mov(op::sp(SpecialReg::TidX));
        let odd = b.bin(ScalarTy::I32, BinOp::Rem, op::r(tid), op::i(2));
        let val = b.alloc();
        b.begin_if();
        {
            let v = b.bin(ScalarTy::I32, BinOp::Mul, op::r(tid), op::i(10));
            b.mov_to(val, op::r(v));
        }
        b.begin_else();
        {
            b.mov_to(val, op::r(tid));
        }
        b.end_if_else(op::r(odd));
        let plus = b.bin(ScalarTy::I32, BinOp::Add, op::r(val), op::i(1));
        let t64 = b.cvt(CvtTy::I64, CvtTy::I32, op::r(tid));
        let off = b.bin(ScalarTy::I64, BinOp::Mul, op::r(t64), op::i(4));
        let addr = b.bin(ScalarTy::I64, BinOp::Add, op::r(out), op::r(off));
        b.st(MemTy::B32, op::r(plus), op::r(addr), 0);
        let m = sptx::Module {
            name: "div".into(),
            arch: "sm_53".into(),
            functions: vec![b.build()],
            device_lib_linked: true,
        };
        let d = device();
        let buf = d.mem_alloc(4 * 32).unwrap();
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [32, 1, 1], params: vec![buf] };
        let stats = launch(&d, &m, "div", &cfg, &NoLib, ExecMode::Functional).unwrap();
        assert!(stats.divergent_branches > 0, "odd/even split must be counted as divergence");
        let mut raw = vec![0u8; 128];
        d.memcpy_d2h(&mut raw, buf).unwrap();
        for t in 0..32u32 {
            let v = u32::from_le_bytes(raw[4 * t as usize..4 * t as usize + 4].try_into().unwrap());
            let expect = if t % 2 == 1 { t * 10 + 1 } else { t + 1 };
            assert_eq!(v, expect, "lane {t}");
        }
    }

    #[test]
    fn named_barrier_syncs_warps() {
        // Warp 0 writes shared[0]; all 4 warps bar.sync; every thread adds
        // shared[0] to its output — ordering enforced by the barrier.
        let mut b = FnBuilder::new("bar", true);
        let out = b.param("out", ScalarTy::I64);
        let tid = b.mov(op::sp(SpecialReg::TidX));
        let wid = b.mov(op::sp(SpecialReg::WarpId));
        let is0 = b.bin(ScalarTy::I32, BinOp::SetEq, op::r(wid), op::i(0));
        b.begin_if();
        {
            b.st(MemTy::B32, op::i(42), sptx::Operand::SharedBase, 0);
        }
        b.end_if(op::r(is0));
        b.emit(sptx::Inst::BarSync { id: op::i(0), count: Some(op::i(128)) });
        let sh = b.ld(MemTy::B32, sptx::Operand::SharedBase, 0);
        let t64 = b.cvt(CvtTy::I64, CvtTy::I32, op::r(tid));
        let off = b.bin(ScalarTy::I64, BinOp::Mul, op::r(t64), op::i(4));
        let addr = b.bin(ScalarTy::I64, BinOp::Add, op::r(out), op::r(off));
        b.st(MemTy::B32, op::r(sh), op::r(addr), 0);
        let mut f = b.build();
        f.shared_size = 4;
        let m = sptx::Module {
            name: "bar".into(),
            arch: "sm_53".into(),
            functions: vec![f],
            device_lib_linked: true,
        };
        let d = device();
        let buf = d.mem_alloc(4 * 128).unwrap();
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [128, 1, 1], params: vec![buf] };
        launch(&d, &m, "bar", &cfg, &NoLib, ExecMode::Functional).unwrap();
        let mut raw = vec![0u8; 4 * 128];
        d.memcpy_d2h(&mut raw, buf).unwrap();
        for t in 0..128usize {
            assert_eq!(
                u32::from_le_bytes(raw[4 * t..4 * t + 4].try_into().unwrap()),
                42,
                "thread {t}"
            );
        }
    }

    #[test]
    fn atomics_across_block() {
        // All 256 threads atomically increment a counter.
        let mut b = FnBuilder::new("count", true);
        let out = b.param("out", ScalarTy::I64);
        let dst = b.alloc();
        b.emit(sptx::Inst::Atom { op: sptx::AtomOp::AddI32, dst, addr: op::r(out), val: op::i(1) });
        let m = sptx::Module {
            name: "count".into(),
            arch: "sm_53".into(),
            functions: vec![b.build()],
            device_lib_linked: true,
        };
        let d = device();
        let buf = d.mem_alloc(4).unwrap();
        let cfg = LaunchConfig { grid: [2, 1, 1], block: [128, 1, 1], params: vec![buf] };
        launch(&d, &m, "count", &cfg, &NoLib, ExecMode::Functional).unwrap();
        let mut raw = [0u8; 4];
        d.memcpy_d2h(&mut raw, buf).unwrap();
        assert_eq!(u32::from_le_bytes(raw), 256);
    }

    #[test]
    fn device_function_call() {
        // helper(v) = v * 3; kernel: out[tid] = helper(tid).
        let mut h = FnBuilder::new("helper", false);
        let v = h.param("v", ScalarTy::I32);
        let r = h.bin(ScalarTy::I32, BinOp::Mul, op::r(v), op::i(3));
        h.ret(Some(op::r(r)));

        let mut b = FnBuilder::new("k", true);
        let out = b.param("out", ScalarTy::I64);
        let tid = b.mov(op::sp(SpecialReg::TidX));
        let hres = b.call(1, vec![op::r(tid)], true).unwrap();
        let t64 = b.cvt(CvtTy::I64, CvtTy::I32, op::r(tid));
        let off = b.bin(ScalarTy::I64, BinOp::Mul, op::r(t64), op::i(4));
        let addr = b.bin(ScalarTy::I64, BinOp::Add, op::r(out), op::r(off));
        b.st(MemTy::B32, op::r(hres), op::r(addr), 0);

        let m = sptx::Module {
            name: "call".into(),
            arch: "sm_53".into(),
            functions: vec![b.build(), h.build()],
            device_lib_linked: true,
        };
        sptx::verify_module(&m).unwrap();
        let d = device();
        let buf = d.mem_alloc(4 * 64).unwrap();
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [64, 1, 1], params: vec![buf] };
        launch(&d, &m, "k", &cfg, &NoLib, ExecMode::Functional).unwrap();
        let mut raw = vec![0u8; 4 * 64];
        d.memcpy_d2h(&mut raw, buf).unwrap();
        for t in 0..64usize {
            assert_eq!(u32::from_le_bytes(raw[4 * t..4 * t + 4].try_into().unwrap()), 3 * t as u32);
        }
    }

    #[test]
    fn sampled_mode_extrapolates() {
        let d = device();
        let n = 128 * 64; // 64 blocks
        let x = d.mem_alloc(4 * n as u64).unwrap();
        let y = d.mem_alloc(4 * n as u64).unwrap();
        let m = saxpy_module();
        let cfg = LaunchConfig {
            grid: [64, 1, 1],
            block: [128, 1, 1],
            params: vec![1.0f32.to_bits() as u64, n as u64, x, y],
        };
        let full = launch(&d, &m, "saxpy", &cfg, &NoLib, ExecMode::Functional).unwrap();
        let sampled =
            launch(&d, &m, "saxpy", &cfg, &NoLib, ExecMode::Sampled { max_blocks: 8 }).unwrap();
        assert_eq!(sampled.blocks_total, 64);
        assert!(sampled.blocks_executed <= 9);
        // Extrapolated totals within 10% of the full run (blocks homogeneous).
        let ratio = sampled.lane_insts as f64 / full.lane_insts as f64;
        assert!((0.9..1.1).contains(&ratio), "lane_insts ratio {ratio}");
        let tratio = sampled.time_s / full.time_s;
        assert!((0.8..1.2).contains(&tratio), "time ratio {tratio}");
    }

    #[test]
    fn device_printf() {
        let mut b = FnBuilder::new("p", true);
        let tid = b.mov(op::sp(SpecialReg::TidX));
        let t64 = b.cvt(CvtTy::I64, CvtTy::I32, op::r(tid));
        b.intrinsic_s("printf", vec![op::r(t64)], vec!["tid=%d\n".into()], true);
        let m = sptx::Module {
            name: "p".into(),
            arch: "sm_53".into(),
            functions: vec![b.build()],
            device_lib_linked: true,
        };
        let d = device();
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [2, 1, 1], params: vec![] };
        launch(&d, &m, "p", &cfg, &NoLib, ExecMode::Functional).unwrap();
        let out = d.take_printf_output();
        assert!(out.contains("tid=0\n") && out.contains("tid=1\n"), "got {out:?}");
    }

    #[test]
    fn launch_validation() {
        let d = device();
        let m = saxpy_module();
        // Wrong param count.
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [32, 1, 1], params: vec![0] };
        assert!(matches!(
            launch(&d, &m, "saxpy", &cfg, &NoLib, ExecMode::Functional),
            Err(ExecError::BadLaunch(_))
        ));
        // Unknown kernel.
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [32, 1, 1], params: vec![] };
        assert!(matches!(
            launch(&d, &m, "nope", &cfg, &NoLib, ExecMode::Functional),
            Err(ExecError::UnknownKernel(_))
        ));
        // Oversized block.
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [2048, 1, 1], params: vec![0, 0, 0, 0] };
        assert!(matches!(
            launch(&d, &m, "saxpy", &cfg, &NoLib, ExecMode::Functional),
            Err(ExecError::BadLaunch(_))
        ));
        // Unlinked module.
        let mut m2 = saxpy_module();
        m2.device_lib_linked = false;
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [32, 1, 1], params: vec![0, 0, 0, 0] };
        assert!(matches!(
            launch(&d, &m2, "saxpy", &cfg, &NoLib, ExecMode::Functional),
            Err(ExecError::BadLaunch(_))
        ));
    }

    #[test]
    fn wild_pointer_faults_cleanly() {
        let mut b = FnBuilder::new("wild", true);
        let v = b.ld(MemTy::F32, op::i(0x7700_0000_0000_0000u64 as i64), 0);
        b.st(MemTy::F32, op::r(v), op::i(64), 0);
        let m = sptx::Module {
            name: "wild".into(),
            arch: "sm_53".into(),
            functions: vec![b.build()],
            device_lib_linked: true,
        };
        let d = device();
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [1, 1, 1], params: vec![] };
        assert!(launch(&d, &m, "wild", &cfg, &NoLib, ExecMode::Functional).is_err());
    }

    #[test]
    fn local_memory_per_lane_isolated() {
        // Each lane spills tid to local memory, reads it back, adds 5.
        let mut b = FnBuilder::new("loc", true);
        let out = b.param("out", ScalarTy::I64);
        let slot = b.alloc_local(4, 4);
        let tid = b.mov(op::sp(SpecialReg::TidX));
        b.st(MemTy::B32, op::r(tid), sptx::Operand::LocalBase, slot as i64);
        let back = b.ld(MemTy::B32, sptx::Operand::LocalBase, slot as i64);
        let v = b.bin(ScalarTy::I32, BinOp::Add, op::r(back), op::i(5));
        let t64 = b.cvt(CvtTy::I64, CvtTy::I32, op::r(tid));
        let off = b.bin(ScalarTy::I64, BinOp::Mul, op::r(t64), op::i(4));
        let addr = b.bin(ScalarTy::I64, BinOp::Add, op::r(out), op::r(off));
        b.st(MemTy::B32, op::r(v), op::r(addr), 0);
        let m = sptx::Module {
            name: "loc".into(),
            arch: "sm_53".into(),
            functions: vec![b.build()],
            device_lib_linked: true,
        };
        let d = device();
        let buf = d.mem_alloc(4 * 64).unwrap();
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [64, 1, 1], params: vec![buf] };
        launch(&d, &m, "loc", &cfg, &NoLib, ExecMode::Functional).unwrap();
        let mut raw = vec![0u8; 4 * 64];
        d.memcpy_d2h(&mut raw, buf).unwrap();
        for t in 0..64usize {
            assert_eq!(u32::from_le_bytes(raw[4 * t..4 * t + 4].try_into().unwrap()), t as u32 + 5);
        }
    }
}
