//! Differential test: the bytecode VM against the tree-walker oracle.
//!
//! Every UniBench app is executed by both engines and the outputs are
//! asserted **bit-identical** — not within tolerance. The two engines run
//! the same guest source on separately constructed machines, so any
//! divergence in arithmetic order, conversion, or memory layout shows up
//! as a checksum mismatch.
//!
//! One offloaded case additionally runs the full OMPi pipeline (translate,
//! JIT, simulated device) under each engine and compares results plus the
//! simulated device clock, which must not depend on host execution speed.
//! A host `parallel` case checks that the walker stays the engine of every
//! guest call the runtime hooks re-enter.

use std::sync::Arc;

use minic::interp::{Interp, NoHooks};
use minic::walker::TreeWalker;
use ompi_nano::unibench::{
    all_apps, app_by_name, compile_omp, host_machine, output_checksum, run_entry, run_host_once,
    run_once, runner_config, App,
};
use ompi_nano::{Ompicc, Runner, RunnerConfig, Value};

/// Host-sequential outputs of `app` at size `n` under the VM.
fn vm_outputs(app: &App, n: u32) -> Vec<f32> {
    let m = host_machine(app, n).unwrap();
    run_host_once(app, &m, n).unwrap_or_else(|e| panic!("{} under the vm: {e}", app.name))
}

/// Host-sequential outputs of `app` at size `n` under the walker.
fn walker_outputs(app: &App, n: u32) -> Vec<f32> {
    let m = host_machine(app, n).unwrap();
    let mut w = TreeWalker::new(m.clone(), Arc::new(NoHooks)).unwrap();
    run_entry(app, &m, n, |args| w.call("run", args))
        .unwrap_or_else(|e| panic!("{} under the walker: {e}", app.name))
}

#[test]
fn all_apps_bit_identical_on_host() {
    for app in all_apps() {
        let n = app.test_size;
        let vm = vm_outputs(&app, n);
        let walker = walker_outputs(&app, n);
        assert_eq!(vm.len(), walker.len(), "{}: output length differs", app.name);
        let (cv, cw) = (output_checksum(&vm), output_checksum(&walker));
        assert_eq!(cv, cw, "{}: vm 0x{cv:016x} != walker 0x{cw:016x}", app.name);
        for (i, (a, b)) in vm.iter().zip(&walker).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: output[{i}] differs: vm {a} walker {b}",
                app.name
            );
        }
    }
}

#[test]
fn offloaded_run_bit_identical_between_engines() {
    let app = app_by_name("gemm").unwrap();
    let n = app.test_size;
    let dir = std::env::temp_dir().join(format!("ompinano-vmdiff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let compiled = compile_omp(&app, &dir);
    let cfg = runner_config((app.footprint)(n));

    let (vm_sum, vm_clock) = {
        let runner = Runner::new(&compiled, &cfg).unwrap();
        let out = run_once(&app, &runner, n).unwrap();
        (output_checksum(&out), runner.dev_clock().total_s())
    };
    let (wk_sum, wk_clock) = {
        let runner = Runner::new(&compiled, &cfg).unwrap();
        let (m, hooks) = (&runner.machine, &runner.hooks);
        let out = run_entry(&app, m, n, |args| {
            TreeWalker::new(m.clone(), hooks.clone())?.call("run", args)
        })
        .unwrap();
        (output_checksum(&out), runner.dev_clock().total_s())
    };
    assert_eq!(vm_sum, wk_sum, "offloaded gemm checksum differs between engines");
    assert_eq!(vm_clock, wk_clock, "simulated device clock differs between engines");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A translated host `parallel` region runs its team threads through
/// `ort_execute_parallel`, which re-enters guest code from a hook. Under
/// the walker the whole run, team threads included, must dispatch no
/// bytecode and return the VM's answer.
#[test]
fn host_parallel_team_threads_run_on_the_walker() {
    let src = r#"
int main() {
    int part[4];
    #pragma omp parallel num_threads(4)
    {
        int t = omp_get_thread_num();
        int s = 0;
        for (int i = 0; i <= 100 * (t + 1); i++) s += i;
        part[t] = s;
    }
    return part[0] + part[1] + part[2] + part[3];
}
"#;
    let dir = std::env::temp_dir().join(format!("ompinano-vmdiff-par-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = Ompicc::new(&dir).compile(src).unwrap();
    let cfg = RunnerConfig::default();

    let runner = Runner::new(&app, &cfg).unwrap();
    let vm = Interp::new(runner.machine.clone(), runner.hooks.clone())
        .and_then(|mut i| i.run_main())
        .unwrap();
    assert_eq!(vm, Value::I32(5050 + 20100 + 45150 + 80200));
    assert!(!runner.machine.drain_vm_counters().is_zero(), "the vm run dispatched no bytecode");

    let runner = Runner::new(&app, &cfg).unwrap();
    let walker = TreeWalker::new(runner.machine.clone(), runner.hooks.clone())
        .and_then(|mut w| w.run_main())
        .unwrap();
    assert_eq!(walker, vm, "walker and vm disagree on the parallel region");
    let c = runner.machine.drain_vm_counters();
    assert!(c.is_zero(), "team threads of a walker run dispatched bytecode: {c:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
