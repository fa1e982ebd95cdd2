//! The batch server: tenants, programs, submission, workers, results.
//!
//! Lifecycle: [`Server::new`] resolves configuration **once** (every job
//! takes its values from that snapshot), builds the device fleet the
//! scheduler owns with [`ompi_core::build_fleet`], and compiles nothing.
//! Tenants register programs ([`Server::register_program`] — each gets a
//! unique module-name prefix so every tenant's `k0_main` coexists in the
//! shared kernel directory),
//! submit jobs ([`Server::submit`], which runs admission control inline
//! and returns typed rejections), and claim results ([`Server::wait`]).
//! Worker threads pull placements from the scheduler and execute each job
//! through [`Runner::on`] against a single-device view of the fleet. A
//! job is a fresh instance of its program's shared `minic::Image`: its own
//! zeroed arena, the bytecode compiled once per program.
//!
//! Metrics live under the server's own pid (`fleet size + 1`; the fleet
//! uses `0..n` and each job's initial device `n`): `serve.jobs_submitted`,
//! `serve.jobs_completed[.tenant]`, `serve.jobs_failed`,
//! `serve.rejected.overload[.reason]`, `serve.affinity.*`, and the
//! `job_latency_us[.tenant]` histograms the soak harness reads p50/p95/p99
//! from. A failed job fires a flight-recorder post-mortem before its
//! result is published.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cudadev::CudaDev;
use ompi_core::{build_fleet, CompiledApp, Ompicc, ResolvedConfig, Runner};
use vmcommon::sync::{Condvar, Mutex};
use vmcommon::Value;

use crate::scheduler::{Affinity, Scheduler};
use crate::{JobId, JobResult, JobSpec, ProgramId, ServeConfig, ServeError, TenantConfig};

struct PendingJob {
    app: Arc<CompiledApp>,
    entry: String,
    args: Vec<Value>,
    submitted: Instant,
}

struct Inner {
    rc: ResolvedConfig,
    obs: Arc<obs::Obs>,
    sched: Scheduler,
    /// Registered programs: index is the `ProgramId`, value is
    /// `(owning tenant, compiled app)`. The app is `None` while its
    /// compile runs, and stays `None` if the compile failed.
    programs: Mutex<Vec<(String, Option<Arc<CompiledApp>>)>>,
    /// Accepted-but-not-finished jobs, keyed by job id.
    pending: Mutex<HashMap<u64, PendingJob>>,
    /// Finished jobs awaiting their one `wait` claim.
    results: Mutex<HashMap<u64, JobResult>>,
    done: Condvar,
    /// Job ids in completion order (test/bench introspection).
    completion_log: Mutex<Vec<JobId>>,
    next_job: AtomicU64,
    serve_pid: u64,
}

/// The multi-tenant batch server. See the crate docs for the model.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    worker_count: usize,
    work_dir: std::path::PathBuf,
    mode: nvccsim::BinMode,
}

impl Server {
    /// Build the server: resolve the config once, construct the fleet,
    /// validate every device's fault plan eagerly.
    pub fn new(cfg: &ServeConfig) -> Result<Server, ServeError> {
        let mut rc = ResolvedConfig::resolve(&cfg.runner).map_err(ServeError::Config)?;
        rc.num_devices = rc.num_devices.max(1);
        let obs = rc.obs.clone();

        let kernel_dir = cfg.work_dir.join("kernels");
        std::fs::create_dir_all(&kernel_dir).map_err(|e| ServeError::Io(e.to_string()))?;
        // Fault plans resolve at startup, not at lazy device init: a
        // malformed `fault_spec` must fail server construction, never
        // surface later as one tenant's mysterious host run.
        let fleet = build_fleet(&rc, &kernel_dir, &obs)
            .map_err(|e| ServeError::FaultPlan(e.to_string()))?;

        let worker_count = if cfg.workers == 0 { fleet.len().max(1) } else { cfg.workers };
        let serve_pid = fleet.len() as u64 + 1;
        let sched = Scheduler::new(fleet, cfg.global_queue_cap, cfg.default_tenant);
        Ok(Server {
            inner: Arc::new(Inner {
                rc,
                obs,
                sched,
                programs: Mutex::new(Vec::new()),
                pending: Mutex::new(HashMap::new()),
                results: Mutex::new(HashMap::new()),
                done: Condvar::new(),
                completion_log: Mutex::new(Vec::new()),
                next_job: AtomicU64::new(0),
                serve_pid,
            }),
            workers: Mutex::new(Vec::new()),
            worker_count,
            work_dir: cfg.work_dir.clone(),
            mode: cfg.mode,
        })
    }

    /// Spawn the worker threads. Jobs may be submitted before `start` —
    /// they queue up and run once workers exist (tests use this to build
    /// deterministic schedules).
    pub fn start(&self) {
        let mut ws = self.workers.lock();
        if !ws.is_empty() {
            return;
        }
        for w in 0..self.worker_count {
            let inner = self.inner.clone();
            ws.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker"),
            );
        }
    }

    /// Register (or reconfigure) a tenant with explicit scheduling knobs.
    pub fn register_tenant(&self, name: &str, cfg: TenantConfig) {
        self.inner.sched.ensure_tenant(name, Some(cfg));
    }

    /// Compile a tenant's guest program into the shared kernel directory.
    /// The tenant is auto-registered with default knobs if new; the
    /// program's kernels get a `p<id>_` module prefix so no two programs
    /// collide on outlined-kernel names.
    pub fn register_program(&self, tenant: &str, source: &str) -> Result<ProgramId, ServeError> {
        self.inner.sched.ensure_tenant(tenant, None);
        // Reserve the id under the lock, compile outside it: every tenant's
        // `submit` takes this lock too.
        let id = {
            let mut programs = self.inner.programs.lock();
            programs.push((tenant.to_string(), None));
            programs.len() - 1
        };
        let app = Ompicc::new(&self.work_dir)
            .with_mode(self.mode)
            .with_module_prefix(format!("p{id}_"))
            .compile(source)
            .map_err(|e| ServeError::Compile(e.to_string()))?;
        self.inner.programs.lock()[id].1 = Some(Arc::new(app));
        Ok(ProgramId(id as u64))
    }

    /// Submit a job. Admission control runs here, inline: a rejection is
    /// immediate and typed, and rejected jobs leave no residue.
    pub fn submit(&self, tenant: &str, spec: JobSpec) -> Result<JobId, ServeError> {
        let app = {
            let programs = self.inner.programs.lock();
            let Some((owner, Some(app))) = programs.get(spec.program.0 as usize) else {
                return Err(ServeError::UnknownProgram(spec.program));
            };
            if owner != tenant {
                return Err(ServeError::WrongTenant {
                    program: spec.program,
                    owner: owner.clone(),
                });
            }
            app.clone()
        };
        let id = self.inner.next_job.fetch_add(1, Ordering::Relaxed);
        self.inner.obs.metrics.incr(self.inner.serve_pid, "serve.jobs_submitted", 1);
        // Pending goes in *before* enqueue: a worker could pick the job
        // the instant `enqueue` releases the scheduler lock.
        self.inner.pending.lock().insert(
            id,
            PendingJob {
                app,
                entry: spec.entry.clone(),
                args: spec.args.clone(),
                submitted: Instant::now(),
            },
        );
        match self.inner.sched.enqueue(tenant, id, spec.priority, spec.mem_hint) {
            Ok(()) => Ok(JobId(id)),
            Err(e) => {
                self.inner.pending.lock().remove(&id);
                if let ServeError::Overloaded { reason } = e {
                    let m = &self.inner.obs.metrics;
                    m.incr(self.inner.serve_pid, "serve.rejected.overload", 1);
                    m.incr(self.inner.serve_pid, &format!("serve.rejected.overload.{reason}"), 1);
                }
                Err(e)
            }
        }
    }

    /// Block until the job finishes, then claim its result. Each result
    /// can be claimed exactly once; waiting again for the same id blocks
    /// forever.
    pub fn wait(&self, id: JobId) -> JobResult {
        let mut results = self.inner.results.lock();
        loop {
            if let Some(r) = results.remove(&id.0) {
                return r;
            }
            self.inner.done.wait_for(&mut results, Duration::from_millis(50));
        }
    }

    /// Stop admitting jobs, let workers drain the queues, and join them.
    pub fn shutdown(&self) {
        self.inner.sched.shutdown();
        let ws = std::mem::take(&mut *self.workers.lock());
        for w in ws {
            let _ = w.join();
        }
    }

    /// The shared observability sink (metrics pid map: fleet devices are
    /// `0..n`, per-job initial devices `n`, server counters [`Self::serve_pid`]).
    pub fn obs(&self) -> &Arc<obs::Obs> {
        &self.inner.obs
    }

    pub fn serve_pid(&self) -> u64 {
        self.inner.serve_pid
    }

    pub fn num_devices(&self) -> usize {
        self.inner.sched.fleet().len()
    }

    /// Direct fleet access (chaos tests latch devices broken mid-soak).
    pub fn device(&self, idx: usize) -> Option<&Arc<CudaDev>> {
        self.inner.sched.fleet().get(idx)
    }

    /// Job ids in the order they finished.
    pub fn completion_order(&self) -> Vec<JobId> {
        self.inner.completion_log.lock().clone()
    }

    /// The resolved config snapshot jobs run under.
    pub fn resolved(&self) -> &ResolvedConfig {
        &self.inner.rc
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    while let Some(p) = inner.sched.next() {
        let Some(job) = inner.pending.lock().remove(&p.job) else {
            // Unreachable by construction (pending precedes enqueue), but
            // a lost payload must not wedge the device slot.
            inner.sched.complete(&p.tenant, p.device);
            continue;
        };
        let m = &inner.obs.metrics;
        let affinity = match p.affinity {
            Affinity::First => "serve.affinity.first",
            Affinity::Hit => "serve.affinity.hit",
            Affinity::Miss => "serve.affinity.miss",
            Affinity::Reroute => "serve.affinity.reroute",
            Affinity::Host => "serve.affinity.host",
        };
        m.incr(inner.serve_pid, affinity, 1);

        let registry = inner.sched.job_registry(p.device);
        let (value, output) = match Runner::on(&job.app, registry, &inner.rc) {
            Ok(runner) => {
                let value = runner.call(&job.entry, &job.args).map_err(|e| e.to_string());
                let mut out = runner.take_output();
                out.push_str(&runner.take_device_output());
                (value, out)
            }
            Err(e) => (Err(e.to_string()), String::new()),
        };
        inner.sched.complete(&p.tenant, p.device);

        let latency_us = job.submitted.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        m.observe(inner.serve_pid, "job_latency_us", latency_us);
        m.observe(inner.serve_pid, &format!("job_latency_us.{}", p.tenant), latency_us);
        match &value {
            Ok(_) => {
                m.incr(inner.serve_pid, "serve.jobs_completed", 1);
                m.incr(inner.serve_pid, &format!("serve.jobs_completed.{}", p.tenant), 1);
            }
            Err(e) => {
                m.incr(inner.serve_pid, "serve.jobs_failed", 1);
                inner.obs.flight.post_mortem(&format!("job {} ({}) aborted: {e}", p.job, p.tenant));
            }
        }

        inner.completion_log.lock().push(JobId(p.job));
        inner.results.lock().insert(
            p.job,
            JobResult {
                id: JobId(p.job),
                tenant: p.tenant.clone(),
                device: p.device,
                value,
                output,
                latency_us,
            },
        );
        inner.done.notify_all();
    }
}
