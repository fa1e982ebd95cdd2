//! Every kernel runs its warps on the launching thread, and a kernel that
//! never yields runs them one after another in warp-id order, each on its
//! block's live lanes.

use std::sync::Mutex;
use std::thread::ThreadId;

use gpusim::{
    launch, Device, DeviceLib, ExecError, ExecMode, LaneVec, LaunchConfig, LibStep, Warp,
};
use sptx::builder::FnBuilder;

/// `record` notes who called it.
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
        _phase: u32,
    ) -> Result<LibStep, ExecError> {
        match name {
            "record" => {
                let call = (warp.warp_id, mask, std::thread::current().id());
                self.calls.lock().unwrap().push(call);
                Ok(LibStep::Ret([0; 32]))
            }
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
