//! `serve_closed`: a closed loop of small offloading jobs on the batch
//! server.
//!
//! One client thread keeps [`OUTSTANDING`] jobs in flight on a
//! `serve::Server` with two devices: callers that wait for replies, so a
//! slower server receives less load. Three tenants (weights 1/2/3, job
//! sizes 64/256/1024 floats) share it; one job in twenty asks for the
//! priority lane. The one op is a batch of [`BATCH`] jobs, the same seeded
//! stream every pass, each return value checked against a Rust formula.
//! The benchmark runs on one CPU (`sys::pin_to_one_cpu`), so the client and
//! the two device workers take turns.
//!
//! Why: per-job `Runner`/`Machine` construction and `serve` queueing
//! dominate; no other workload builds a runner per request.
//!
//! `host_mem` is 6 MiB (the guest stack alone is 4 MiB), not the 256 MiB
//! default. Every job zeroes its arena: at the default that is an
//! mmap/munmap pair of a quarter GiB per job and identical runs swung
//! 989–1438 jobs/s; at 16 MiB the zeroing is still half the job, it is
//! memory-bound, and the batch time followed the neighbours' memory traffic
//! (lower quartiles of 787–892 ms over ten runs, against 584–654 ms at 6 MiB).

use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

use nvccsim::BinMode;
use ompi_core::{Ompicc, Runner, RunnerConfig};
use serve::{JobId, JobSpec, Priority, ProgramId, ServeConfig, Server, TenantConfig};
use vmcommon::rng::XorShift64;
use vmcommon::Value;

use crate::drives::{self, Program};
use crate::harness::{Counters, DriveCx, OpFacts, OpRun, Workload};
use crate::metrics::Values;
use crate::progs::{tenant_expected, tenant_source};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{add_clock, device_counters};

const BATCH: usize = 500;
const OUTSTANDING: usize = 4;
const DEVICES: usize = 2;
const HOST_MEM: usize = 6 << 20;
/// Floats per job of tenant 0, 1, 2; the tenant's weight, and its share of
/// the stream, is its index + 1.
const JOB_SIZES: [u32; 3] = [64, 256, 1024];
/// Jobs the stand-alone drive runs through a bare `Runner`.
const STANDALONE_JOBS: usize = 60;

#[derive(Clone, Copy)]
struct Job {
    tenant: usize,
    k: i32,
    high: bool,
}

impl Job {
    fn expected(&self) -> Value {
        Value::I32(tenant_expected(JOB_SIZES[self.tenant], self.tenant as u32 + 1, self.k))
    }
}

/// The batch: tenants in exact proportion to their weights and exactly one
/// job in twenty on the priority lane, so every seed's stream costs the
/// same; the seed draws each job's argument and the order.
fn job_stream(seed: u64) -> Vec<Job> {
    let mut rng = XorShift64::new(seed);
    let mut stream: Vec<Job> = (0..BATCH)
        .map(|i| {
            let tenant = match i % 6 {
                0 => 0,
                1 | 2 => 1,
                _ => 2,
            };
            Job { tenant, k: rng.below(64) as i32, high: i % 20 == 7 }
        })
        .collect();
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.below(i as u64 + 1) as usize);
    }
    stream
}

fn tenant_name(t: usize) -> String {
    format!("t{t}")
}

fn runner_cfg(dir: &Path) -> RunnerConfig {
    RunnerConfig {
        host_mem: HOST_MEM,
        num_devices: DEVICES,
        jit_cache_dir: dir.join("jit"),
        obs: Some(obs::Obs::disabled()),
        ..RunnerConfig::default()
    }
}

/// A started server with the three tenants and their programs.
fn start_server(dir: &Path, sp: &Spans) -> Result<(Server, Vec<ProgramId>, f64), String> {
    let mut cfg = ServeConfig::new(dir);
    cfg.runner = runner_cfg(dir);
    let server = Server::new(&cfg).map_err(|e| e.to_string())?;
    let mut programs = Vec::new();
    let start = Instant::now();
    for (t, n) in JOB_SIZES.iter().enumerate() {
        let name = tenant_name(t);
        let knobs = TenantConfig { weight: t as u32 + 1, max_inflight: 2, queue_cap: 64 };
        server.register_tenant(&name, knobs);
        let source = tenant_source(*n, t as u32 + 1);
        let id = sp
            .time("serve", "register_program", || server.register_program(&name, &source))
            .map_err(|e| e.to_string())?;
        programs.push(id);
    }
    let register_us = start.elapsed().as_secs_f64() * 1e6;
    server.start();
    Ok((server, programs, register_us))
}

pub struct ServeClosed {
    server: Server,
    programs: Vec<ProgramId>,
    stream: Vec<Job>,
}

/// What one batch observed.
struct Batch {
    run: OpRun,
    submit_us: Vec<f64>,
}

impl ServeClosed {
    pub fn build(seed: u64, dir: &Path, sp: &Spans) -> Result<ServeClosed, String> {
        let (server, programs, _) = start_server(&dir.join("serve"), sp)?;
        Ok(ServeClosed { server, programs, stream: job_stream(seed) })
    }

    fn claim(&self, id: JobId, job: Job, sp: &Spans, run: &mut OpRun) {
        let result = sp.time("serve", "wait", || self.server.wait(id));
        if result.value != Ok(job.expected()) {
            run.failed += 1;
        }
        run.latencies_ms.push(result.latency_us as f64 / 1e3);
        // Order-exact fingerprint of the values the batch returned.
        let bits = match result.value {
            Ok(Value::I32(v)) => v as u32 as u64,
            _ => u64::MAX,
        };
        run.facts.checksum = (run.facts.checksum ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn batch(&self, sp: &Spans) -> Batch {
        let mut run = OpRun {
            facts: OpFacts::default(),
            attempted: BATCH as u64,
            failed: 0,
            latencies_ms: Vec::with_capacity(BATCH),
        };
        let mut submit_us = Vec::with_capacity(BATCH);
        let mut inflight: VecDeque<(JobId, Job)> = VecDeque::with_capacity(OUTSTANDING);
        for &job in &self.stream {
            if inflight.len() == OUTSTANDING {
                let (id, sent) = inflight.pop_front().expect("non-empty");
                self.claim(id, sent, sp, &mut run);
            }
            let mut spec = JobSpec::new(self.programs[job.tenant]);
            spec.entry = "job".to_string();
            spec.args = vec![Value::I32(job.k)];
            if job.high {
                spec.priority = Priority::High;
            }
            let t = Instant::now();
            let sent =
                sp.time("serve", "submit", || self.server.submit(&tenant_name(job.tenant), spec));
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            match sent {
                Ok(id) => inflight.push_back((id, job)),
                // Refused: counts as failed, never enters the window.
                Err(_) => run.failed += 1,
            }
        }
        while let Some((id, sent)) = inflight.pop_front() {
            self.claim(id, sent, sp, &mut run);
        }
        Batch { run, submit_us }
    }
}

/// `serve.standalone_job_us`: the stream's first jobs, each through a bare
/// `Runner` built, called once and dropped: what a job costs with no
/// server around it.
fn standalone_job_us(stream: &[Job], dir: &Path, sp: &Spans) -> Result<f64, String> {
    let mut cfg = runner_cfg(dir);
    cfg.num_devices = 1;
    let mut compiled = Vec::new();
    for (t, n) in JOB_SIZES.iter().enumerate() {
        let cc = Ompicc::new(dir.join(tenant_name(t))).with_mode(BinMode::Ptx);
        compiled.push(cc.compile(&tenant_source(*n, t as u32 + 1)).map_err(|e| e.to_string())?);
    }
    let mut us = Vec::new();
    for job in stream.iter().take(STANDALONE_JOBS) {
        let t = Instant::now();
        let value = sp.time("core", "runner_new+call+drop", || {
            let runner = Runner::new(&compiled[job.tenant], &cfg)?;
            runner.call("job", &[Value::I32(job.k)])
        });
        us.push(t.elapsed().as_secs_f64() * 1e6);
        if value.as_ref().ok() != Some(&job.expected()) {
            return Err(format!("stand-alone job returned {value:?}"));
        }
    }
    // The first job of each tenant JIT-compiles; the median leaves them out.
    Ok(median(&us))
}

impl Workload for ServeClosed {
    fn op_names(&self) -> Vec<String> {
        vec![format!("batch{BATCH}")]
    }

    fn run_op(&mut self, _i: usize, _verify: bool, sp: &Spans) -> Result<OpRun, String> {
        // Every job's value is checked on every pass, warm-up or not.
        Ok(self.batch(sp).run)
    }

    fn counters(&self) -> Counters {
        let sims: Vec<_> = (0..DEVICES)
            .filter_map(|i| self.server.device(i).and_then(|d| d.try_device().ok()))
            .collect();
        // The fleet's clocks run from server start: cumulative, like the
        // counters.
        let mut clocks = Counters::new();
        for i in 0..DEVICES {
            if let Some(d) = self.server.device(i) {
                add_clock(&mut clocks, &d.clock_snapshot());
            }
        }
        let mut c = device_counters(self.server.obs(), DEVICES as u64, &sims, &clocks);
        let m = &self.server.obs().metrics;
        let pid = self.server.serve_pid();
        c.insert("affinity_hit", m.counter(pid, "serve.affinity.hit") as f64);
        c.insert("affinity_miss", m.counter(pid, "serve.affinity.miss") as f64);
        c.insert("serve.rejected", m.counter(pid, "serve.rejected.overload") as f64);
        c
    }

    fn drive_layers(&mut self, cx: &DriveCx, out: &mut Values) -> Result<(), String> {
        let programs: Vec<Program> = JOB_SIZES
            .iter()
            .enumerate()
            .map(|(t, n)| Program {
                name: tenant_name(t),
                src: tenant_source(*n, t as u32 + 1),
                host_mem: HOST_MEM,
            })
            .collect();
        drives::frontend(cx.sp, &programs, out)?;
        let modules = drives::backend(cx.sp, cx.dir, &programs, out)?;
        drives::cudadev_layer(cx.sp, cx.dir, &modules, cx.per_pass, out)?;
        drives::gpusim_layer(cx.sp, cx.dir, &[], out)?;

        let mut register_us = Vec::new();
        for r in 0..3 {
            let (server, _, us) = start_server(&cx.dir.join(format!("register{r}")), cx.sp)?;
            drop(server);
            register_us.push(us);
        }
        out.set("serve.register_program_us", median(&register_us));
        out.set("serve.submit_us", median(&self.batch(cx.sp).submit_us));
        let standalone = standalone_job_us(&self.stream, &cx.dir.join("standalone"), cx.sp)?;
        out.set("serve.standalone_job_us", standalone);
        out.set("serve.queue_wait_est_us", cx.op_p50_ms * 1e3 - standalone);
        let count = |k: &str| cx.per_pass.get(k).copied().unwrap_or(0.0);
        let placed = count("affinity_hit") + count("affinity_miss");
        if placed > 0.0 {
            out.set("serve.affinity_hit_share", count("affinity_hit") / placed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_repeats_for_a_seed_and_follows_the_weights() {
        let a = job_stream(7);
        let b = job_stream(7);
        assert_eq!(a.len(), BATCH);
        assert!(a.iter().zip(&b).all(|(x, y)| (x.tenant, x.k, x.high) == (y.tenant, y.k, y.high)));
        assert!(job_stream(8).iter().zip(&a).any(|(x, y)| x.k != y.k));
        let share = |t: usize| a.iter().filter(|j| j.tenant == t).count();
        assert_eq!([share(0), share(1), share(2)], [84, 167, 249]);
        assert_eq!(a.iter().filter(|j| j.high).count(), BATCH / 20);
        assert!(job_stream(8).iter().zip(&a).any(|(x, y)| x.tenant != y.tenant));
    }

    #[test]
    fn the_formula_matches_the_job_program_by_hand() {
        // n = 4, c = 1, k = 63: x = [63, 0, 1, 2] -> 2x + 1 = [127, 1, 3, 5].
        assert_eq!(tenant_expected(4, 1, 63), 136);
    }
}
