//! A kernel that cannot wait on a sibling warp runs its warps one after
//! another on the launching thread (`gpusim::waits::can_wait`), and a wrong
//! classification is a typed trap, not a parked thread.

use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use gpusim::{launch, Device, DeviceLib, ExecError, ExecMode, LaneVec, LaunchConfig, Warp};
use sptx::builder::FnBuilder;

/// `record` notes who called it; `sneaky_sync` arrives at barrier 5 for the
/// whole block although `may_wait` (left at its default) says it cannot.
#[derive(Default)]
struct Recorder {
    calls: Mutex<Vec<(u32, u32, ThreadId)>>,
}

impl DeviceLib for Recorder {
    fn call(
        &self,
        name: &str,
        warp: &mut Warp<'_>,
        mask: u32,
        _args: &[LaneVec],
        _sargs: &[String],
    ) -> Result<Option<LaneVec>, ExecError> {
        match name {
            "record" => {
                let call = (warp.warp_id, mask, std::thread::current().id());
                self.calls.lock().unwrap().push(call);
                Ok(None)
            }
            "sneaky_sync" => warp.bar_sync(5, 128).map(|()| None),
            other => Err(ExecError::UnknownIntrinsic(other.to_string())),
        }
    }
}

/// One block of `threads` threads of a kernel that only calls `intrinsic`.
fn launch_calling(intrinsic: &str, threads: u32, lib: &Recorder) -> Result<(), ExecError> {
    let mut b = FnBuilder::new("k", true);
    b.intrinsic(intrinsic, vec![], false);
    let m = sptx::Module {
        name: "inline".into(),
        arch: "sm_53".into(),
        functions: vec![b.build()],
        device_lib_linked: true,
    };
    let d = Device::new(1 << 20);
    let cfg = LaunchConfig { grid: [1, 1, 1], block: [threads, 1, 1], params: vec![] };
    launch(&d, &m, "k", &cfg, lib, ExecMode::Functional).map(|_| ())
}

#[test]
fn warps_run_in_id_order_on_the_launching_thread() {
    let lib = Recorder::default();
    launch_calling("record", 128, &lib).unwrap();
    let me = std::thread::current().id();
    let calls = lib.calls.into_inner().unwrap();
    let expected: Vec<_> = (0..4).map(|w| (w, u32::MAX, me)).collect();
    assert_eq!(calls, expected);
}

#[test]
fn a_partial_last_warp_runs_its_live_lanes_only() {
    let lib = Recorder::default();
    launch_calling("record", 100, &lib).unwrap();
    let masks: Vec<_> = lib.calls.into_inner().unwrap().iter().map(|c| (c.0, c.1)).collect();
    assert_eq!(masks, [(0, u32::MAX), (1, u32::MAX), (2, u32::MAX), (3, 0xF)]);
}

#[test]
fn a_barrier_the_classifier_was_not_told_about_traps_at_once() {
    let start = Instant::now();
    let err = launch_calling("sneaky_sync", 128, &Recorder::default())
        .expect_err("warp 0 would park on a barrier no sibling can reach");
    let waited = start.elapsed();
    assert_eq!(
        err.to_string(),
        "device trap: kernel `k` reached bar.sync 5 in warp 0 but was classified as never \
         waiting on a sibling warp (DeviceLib::may_wait must name every blocking call)"
    );
    assert!(waited < Duration::from_secs(1), "took {waited:?}");
}
