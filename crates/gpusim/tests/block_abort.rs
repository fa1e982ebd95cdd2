//! A warp that fails ends its block: siblings parked on a named barrier are
//! never resumed, and the launch reports the failing warp's own error at
//! once. (A genuine deadlock is reported at once too: `barrier_deadlock.rs`.)
//! A kernel without barriers runs its warps in order and stops at the first
//! that fails. A barrier count the block cannot reach traps at once.

use std::time::{Duration, Instant};

use gpusim::{launch, Device, ExecError, ExecMode, LaunchConfig, NoLib};
use sptx::builder::{op, FnBuilder};
use sptx::{BinOp, CvtTy, Inst, MemTy, ScalarTy, SpecialReg};

/// Warps whose id is in `trapping` divide by zero; every other warp waits
/// on barrier 1 for the whole block, which can therefore never complete.
fn kernel(trapping: &[i64]) -> sptx::Module {
    let mut b = FnBuilder::new("k", true);
    let zero = b.param("zero", ScalarTy::I32);
    let mut traps = b.mov(op::i(0));
    for &w in trapping {
        let hit = b.bin(ScalarTy::I32, BinOp::SetEq, op::sp(SpecialReg::WarpId), op::i(w));
        traps = b.bin(ScalarTy::I32, BinOp::Or, op::r(traps), op::r(hit));
    }
    b.begin_if();
    b.bin(ScalarTy::I32, BinOp::Div, op::i(7), op::r(zero));
    b.begin_else();
    b.emit(Inst::BarSync { id: op::i(1), count: None });
    b.end_if_else(op::r(traps));
    sptx::Module {
        name: "abort".into(),
        arch: "sm_53".into(),
        functions: vec![b.build()],
        device_lib_linked: true,
    }
}

fn launch_128(m: &sptx::Module) -> (Result<(), ExecError>, Duration) {
    let d = Device::new(1 << 20);
    let cfg = LaunchConfig { grid: [1, 1, 1], block: [128, 1, 1], params: vec![0] };
    let start = Instant::now();
    let r = launch(&d, m, "k", &cfg, &NoLib, ExecMode::Functional).map(|_| ());
    (r, start.elapsed())
}

#[test]
fn trap_in_warp_0_releases_warps_parked_on_a_barrier() {
    let (r, waited) = launch_128(&kernel(&[0]));
    let err = r.expect_err("warp 0 divides by zero");
    assert_eq!(err.to_string(), "device trap: division by zero in warp 0");
    assert!(waited < Duration::from_secs(1), "parked warps held the launch for {waited:?}");
}

#[test]
fn the_lowest_failing_warp_is_reported_not_a_released_sibling() {
    // Warps 0 and 1 are parked, warps 2 and 3 would both trap: warp 2 runs
    // first, and its error ends the block.
    for _ in 0..20 {
        let (r, waited) = launch_128(&kernel(&[2, 3]));
        let err = r.expect_err("warps 2 and 3 divide by zero");
        assert_eq!(err.to_string(), "device trap: division by zero in warp 2");
        assert!(waited < Duration::from_secs(1), "took {waited:?}");
    }
}

#[test]
fn a_barrier_free_kernel_stops_at_its_first_failing_warp() {
    // Every warp stores id + 1 to out[id]; then warps 2 and 3 divide by zero.
    let mut b = FnBuilder::new("k", true);
    let out = b.param("out", ScalarTy::I64);
    let zero = b.param("zero", ScalarTy::I32);
    let wid = b.mov(op::sp(SpecialReg::WarpId));
    let w64 = b.cvt(CvtTy::I64, CvtTy::I32, op::r(wid));
    let off = b.bin(ScalarTy::I64, BinOp::Mul, op::r(w64), op::i(4));
    let addr = b.bin(ScalarTy::I64, BinOp::Add, op::r(out), op::r(off));
    let tag = b.bin(ScalarTy::I32, BinOp::Add, op::r(wid), op::i(1));
    b.st(MemTy::B32, op::r(tag), op::r(addr), 0);
    let traps = b.bin(ScalarTy::I32, BinOp::SetGe, op::r(wid), op::i(2));
    b.begin_if();
    b.bin(ScalarTy::I32, BinOp::Div, op::i(7), op::r(zero));
    b.end_if(op::r(traps));
    let m = sptx::Module {
        name: "abort".into(),
        arch: "sm_53".into(),
        functions: vec![b.build()],
        device_lib_linked: true,
    };
    for _ in 0..20 {
        let d = Device::new(1 << 20);
        let buf = d.mem_alloc(16).unwrap();
        d.memset_d8(buf, 0, 16).unwrap();
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [128, 1, 1], params: vec![buf, 0] };
        let err = launch(&d, &m, "k", &cfg, &NoLib, ExecMode::Functional)
            .expect_err("warps 2 and 3 divide by zero");
        assert_eq!(err.to_string(), "device trap: division by zero in warp 2");
        let mut raw = [0u8; 16];
        d.memcpy_d2h(&mut raw, buf).unwrap();
        let tags: Vec<u32> =
            raw.chunks(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
        // Warp 2 stored before it trapped; warp 3 never started.
        assert_eq!(tags, [1, 2, 3, 0]);
    }
}

#[test]
fn a_barrier_count_above_the_block_size_traps_at_once() {
    for (threads, count) in [(32u32, 64i64), (64, 96)] {
        let mut b = FnBuilder::new("k", true);
        b.emit(Inst::BarSync { id: op::i(0), count: Some(op::i(count)) });
        let m = sptx::Module {
            name: "overcount".into(),
            arch: "sm_53".into(),
            functions: vec![b.build()],
            device_lib_linked: true,
        };
        let d = Device::new(1 << 20);
        let cfg = LaunchConfig { grid: [1, 1, 1], block: [threads, 1, 1], params: vec![] };
        let start = Instant::now();
        let err = launch(&d, &m, "k", &cfg, &NoLib, ExecMode::Functional)
            .expect_err("no block of {threads} threads can bring {count} to a barrier");
        let waited = start.elapsed();
        assert_eq!(
            err.to_string(),
            format!(
                "device trap: bar.sync 0 waits for {count} threads but the block has {threads}"
            )
        );
        assert!(waited < Duration::from_secs(1), "{threads} threads: took {waited:?}");
    }
}
