//! A deadlocked block is reported at once, as a typed error: when no warp
//! of a block can run and one is parked on a named barrier, no arrival can
//! ever complete it.

use std::time::{Duration, Instant};

use gpusim::{launch, Device, ExecError, ExecMode, LaunchConfig, NoLib};
use sptx::builder::{op, FnBuilder};
use sptx::{BinOp, Inst, ScalarTy, SpecialReg};

#[test]
fn a_deadlocked_barrier_is_reported_at_once() {
    // Warp 0 waits on barrier 3 for two warps (64 threads); warp 1 returns
    // without arriving.
    let mut b = FnBuilder::new("k", true);
    let first = b.bin(ScalarTy::I32, BinOp::SetEq, op::sp(SpecialReg::WarpId), op::i(0));
    b.begin_if();
    b.emit(Inst::BarSync { id: op::i(3), count: Some(op::i(64)) });
    b.end_if(op::r(first));
    let m = sptx::Module {
        name: "deadlock".into(),
        arch: "sm_53".into(),
        functions: vec![b.build()],
        device_lib_linked: true,
    };
    let d = Device::new(1 << 20);
    let cfg = LaunchConfig { grid: [1, 1, 1], block: [64, 1, 1], params: vec![] };
    let start = Instant::now();
    let err = launch(&d, &m, "k", &cfg, &NoLib, ExecMode::Functional)
        .expect_err("warp 0 can never be released");
    let waited = start.elapsed();
    assert!(
        matches!(
            err,
            ExecError::BarrierDeadlock { barrier: 3, expected_threads: 64, arrived_threads: 32 }
        ),
        "got {err:?}"
    );
    assert_eq!(err.to_string(), "barrier 3 deadlock: 32 of 64 threads arrived");
    assert!(waited < Duration::from_secs(1), "took {waited:?}");
}
