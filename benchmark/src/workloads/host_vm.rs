//! `host_vm`: the six UniBench apps run host-sequentially, untranslated,
//! plus a call-heavy and a branch-heavy guest program.
//!
//! Why: minic's bytecode VM does nearly all the work and no device layer
//! runs. The apps are counted loops over `LoadIdx`; `calls_fib` and
//! `branch_sieve` use the VM differently, so a loop superinstruction that
//! costs call- or branch-heavy code shows here.

use std::sync::Arc;

use minic::interp::Machine;
use unibench::{all_apps, host_machine, output_checksum, run_host_once, App};

use crate::drives::{self, Program};
use crate::harness::{Counters, DriveCx, OpFacts, OpRun, Workload};
use crate::metrics::Values;
use crate::progs;
use crate::spans::Spans;
use crate::workloads::{check, VM_DISPATCH};

/// Sizes for a pass of about 1.1 s on the 2-vCPU box the benchmark was
/// sized on (0.08–0.19 s per op at 70–83 M guest instructions/s), so a
/// 20 s run sees each op some 17 times.
fn size_of(app: &str) -> u32 {
    match app {
        "3dconv" => 48,
        "bicg" | "atax" | "mvt" => 704,
        "gemm" => 96,
        "gramschmidt" => 96,
        "calls_fib" => 27,
        "branch_sieve" => 400_000,
        other => panic!("no host_vm size for `{other}`"),
    }
}

struct HostOp {
    app: App,
    n: u32,
    machine: Arc<Machine>,
    reference: Vec<f32>,
}

pub struct HostVm {
    ops: Vec<HostOp>,
    acc: Counters,
}

impl HostVm {
    pub fn build(sp: &Spans) -> Result<HostVm, String> {
        let mut apps = all_apps();
        apps.push(progs::calls_fib());
        apps.push(progs::branch_sieve());
        let mut ops = Vec::new();
        for app in apps {
            let n = size_of(app.name);
            let machine = sp
                .time("minic", "parse+analyze+machine_new", || host_machine(&app, n))
                .map_err(|e| format!("{}: {e}", app.name))?;
            let reference = sp.time("bench", "reference", || (app.reference)(n));
            ops.push(HostOp { app, n, machine, reference });
        }
        Ok(HostVm { ops, acc: Counters::new() })
    }
}

impl Workload for HostVm {
    fn op_names(&self) -> Vec<String> {
        self.ops.iter().map(|o| o.app.name.to_string()).collect()
    }

    fn run_op(&mut self, i: usize, verify: bool, sp: &Spans) -> Result<OpRun, String> {
        let op = &self.ops[i];
        let out = sp
            .time("minic", "vm_run", || run_host_once(&op.app, &op.machine, op.n))
            .map_err(|e| e.to_string())?;
        let c = op.machine.drain_vm_counters();
        *self.acc.entry("minic.vm_instr").or_insert(0.0) += c.instructions as f64;
        for (slot, n) in VM_DISPATCH.iter().zip(c.dispatch) {
            *self.acc.entry(slot).or_insert(0.0) += n as f64;
        }
        if verify {
            check(&out, &op.reference, op.app.tolerance)?;
        }
        Ok(OpRun::single(OpFacts { checksum: output_checksum(&out), ..OpFacts::default() }))
    }

    fn counters(&self) -> Counters {
        self.acc.clone()
    }

    fn drive_layers(&mut self, cx: &DriveCx, out: &mut Values) -> Result<(), String> {
        let programs: Vec<Program> = self
            .ops
            .iter()
            .map(|o| Program {
                name: o.app.name.to_string(),
                src: o.app.omp_src.to_string(),
                host_mem: o.machine.mem.size(),
            })
            .collect();
        drives::frontend(cx.sp, &programs, out)
    }
}
