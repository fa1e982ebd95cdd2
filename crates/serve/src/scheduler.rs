//! The scheduler: owns the device fleet, admits jobs, and picks which
//! tenant runs next on which device.
//!
//! This is the ownership inversion at the heart of the batch server. The
//! one-shot runner builds a `DeviceRegistry` per process and throws it
//! away; here the scheduler holds the fleet of [`CudaDev`]s for the
//! server's lifetime and hands each picked job a *single-device view*
//! ([`Scheduler::job_registry`]) — device maps are keyed by guest host
//! address, so two jobs sharing a device concurrently would collide, but
//! consecutive jobs on the same device happily reuse its module cache and
//! governor LRU (that reuse is exactly what affinity placement is for).
//!
//! Picking is stride scheduling: each tenant carries a `pass` value that
//! advances by `STRIDE / weight` per pick, and the lowest pass with
//! runnable work wins — weighted-fair without timestamps or randomness,
//! so tests can assert exact pick orders. The high-priority lane is
//! scanned first, same stride accounting, so `Priority::High` jumps the
//! normal lane without starving fairness within high traffic.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use cudadev::CudaDev;
use devmod::DeviceRegistry;
use vmcommon::sync::{Condvar, Mutex};

use crate::{Priority, ServeError, TenantConfig};

/// Stride numerator: pass advances by `STRIDE / weight` per pick.
const STRIDE: u64 = 1 << 20;

/// How a picked job landed on its device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Affinity {
    /// Tenant's first placement — no preference yet.
    First,
    /// Placed on the preferred device (warm module/JIT/LRU caches).
    Hit,
    /// Preferred device was busy; placed elsewhere.
    Miss,
    /// Preferred device is broken; rerouted to a healthy one.
    Reroute,
    /// Whole fleet broken; the job runs on the initial device.
    Host,
}

/// A job handed to a worker: which queued id, for which tenant, on which
/// fleet device (`None` = host execution).
#[derive(Clone, Debug)]
pub struct Picked {
    pub job: u64,
    pub tenant: String,
    pub device: Option<usize>,
    pub affinity: Affinity,
}

struct Tenant {
    cfg: TenantConfig,
    /// Stride pass value; the runnable tenant with the lowest pass is
    /// picked next (ties break on tenant name for determinism).
    pass: u64,
    inflight: usize,
    high: VecDeque<u64>,
    normal: VecDeque<u64>,
    /// Device that ran this tenant's last job.
    preferred: Option<usize>,
}

impl Tenant {
    fn pending(&self) -> usize {
        self.high.len() + self.normal.len() + self.inflight
    }
}

struct State {
    tenants: BTreeMap<String, Tenant>,
    /// Per-fleet-device "a job is executing here" flag.
    busy: Vec<bool>,
    queued_total: usize,
    shutdown: bool,
}

pub struct Scheduler {
    /// The fleet. Owned here — not by any Runner — for the server's
    /// whole lifetime.
    fleet: Vec<Arc<CudaDev>>,
    global_queue_cap: usize,
    default_tenant: TenantConfig,
    state: Mutex<State>,
    work: Condvar,
}

impl Scheduler {
    pub fn new(
        fleet: Vec<Arc<CudaDev>>,
        global_queue_cap: usize,
        default_tenant: TenantConfig,
    ) -> Scheduler {
        let busy = vec![false; fleet.len()];
        Scheduler {
            fleet,
            global_queue_cap,
            default_tenant,
            state: Mutex::new(State {
                tenants: BTreeMap::new(),
                busy,
                queued_total: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
        }
    }

    pub fn fleet(&self) -> &[Arc<CudaDev>] {
        &self.fleet
    }

    /// Register (or reconfigure) a tenant. New tenants join at the
    /// minimum existing pass so they cannot monopolize the fleet by
    /// arriving late with pass 0 — standard stride-scheduling join rule.
    pub fn ensure_tenant(&self, name: &str, cfg: Option<TenantConfig>) {
        let mut st = self.state.lock();
        let join_pass = st.tenants.values().map(|t| t.pass).min().unwrap_or(0);
        match st.tenants.get_mut(name) {
            Some(t) => {
                if let Some(cfg) = cfg {
                    t.cfg = cfg;
                }
            }
            None => {
                st.tenants.insert(
                    name.to_string(),
                    Tenant {
                        cfg: cfg.unwrap_or(self.default_tenant),
                        pass: join_pass,
                        inflight: 0,
                        high: VecDeque::new(),
                        normal: VecDeque::new(),
                        preferred: None,
                    },
                );
            }
        }
    }

    /// Admission + enqueue. All three gates run under the one lock so a
    /// burst of submissions cannot oversubscribe between check and insert.
    pub fn enqueue(
        &self,
        tenant: &str,
        job: u64,
        priority: Priority,
        mem_hint: u64,
    ) -> Result<(), ServeError> {
        let mut st = self.state.lock();
        if st.shutdown {
            return Err(ServeError::Shutdown);
        }
        if st.queued_total >= self.global_queue_cap {
            return Err(ServeError::Overloaded { reason: "global_queue_full" });
        }
        {
            let t = st
                .tenants
                .get(tenant)
                .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))?;
            if t.pending() >= t.cfg.queue_cap {
                return Err(ServeError::Overloaded { reason: "tenant_queue_full" });
            }
        }
        if mem_hint > 0 && !self.mem_admissible(mem_hint) {
            return Err(ServeError::Overloaded { reason: "mem_pressure" });
        }
        let t = st.tenants.get_mut(tenant).expect("checked above");
        match priority {
            Priority::High => t.high.push_back(job),
            Priority::Normal => t.normal.push_back(job),
        }
        st.queued_total += 1;
        drop(st);
        self.work.notify_all();
        Ok(())
    }

    /// Could any healthy device plausibly host `mem_hint` bytes? The gate
    /// uses the governor's pressure export: free DRAM plus the LRU cache
    /// it could evict. Conservative in the right direction — a job the
    /// gate admits may still tile or fall back, but a job it rejects
    /// could only have fallen straight to the host.
    fn mem_admissible(&self, mem_hint: u64) -> bool {
        let mut any_healthy = false;
        let mut best = 0u64;
        for dev in &self.fleet {
            if CudaDev::is_broken(dev) {
                continue;
            }
            any_healthy = true;
            let p = dev.mem_pressure();
            best = best.max(p.free_bytes + p.cached_bytes);
        }
        // With the whole fleet broken jobs run on the host, where device
        // memory is irrelevant — don't reject what the host can absorb.
        !any_healthy || mem_hint <= best
    }

    /// Block until a job is runnable (returns it) or shutdown has drained
    /// the queues (returns `None`). The 50 ms re-check bounds the window
    /// where a device latches broken without a completion notification.
    pub fn next(&self) -> Option<Picked> {
        let mut st = self.state.lock();
        loop {
            if let Some(p) = self.try_pick(&mut st) {
                return Some(p);
            }
            if st.shutdown && st.queued_total == 0 {
                return None;
            }
            self.work.wait_for(&mut st, Duration::from_millis(50));
        }
    }

    fn try_pick(&self, st: &mut State) -> Option<Picked> {
        if st.queued_total == 0 {
            return None;
        }
        let idle: Vec<usize> = (0..self.fleet.len())
            .filter(|&d| !st.busy[d] && !CudaDev::is_broken(&self.fleet[d]))
            .collect();
        let any_healthy = self.fleet.iter().any(|d| !CudaDev::is_broken(d));
        // Healthy devices exist but all are occupied: wait rather than
        // spill onto the host (host execution is the broken-fleet path,
        // not an overflow path).
        if any_healthy && idle.is_empty() {
            return None;
        }

        // High lane strictly before normal; stride-fair within each lane.
        let name = Self::min_pass_tenant(st, true).or_else(|| Self::min_pass_tenant(st, false))?;

        let (device, affinity) = {
            let t = &st.tenants[&name];
            if !any_healthy {
                (None, Affinity::Host)
            } else {
                match t.preferred {
                    Some(p) if idle.contains(&p) => (Some(p), Affinity::Hit),
                    Some(p) if CudaDev::is_broken(&self.fleet[p]) => {
                        (Some(idle[0]), Affinity::Reroute)
                    }
                    Some(_) => (Some(idle[0]), Affinity::Miss),
                    None => (Some(idle[0]), Affinity::First),
                }
            }
        };

        let t = st.tenants.get_mut(&name).expect("picked tenant exists");
        let job = t
            .high
            .pop_front()
            .or_else(|| t.normal.pop_front())
            .expect("runnable tenant has queued work");
        t.pass += STRIDE / u64::from(t.cfg.weight.max(1));
        t.inflight += 1;
        t.preferred = device.or(t.preferred);
        if let Some(d) = device {
            st.busy[d] = true;
        }
        st.queued_total -= 1;
        Some(Picked { job, tenant: name, device, affinity })
    }

    /// Lowest-pass runnable tenant in one lane (ties break on name).
    fn min_pass_tenant(st: &State, high: bool) -> Option<String> {
        st.tenants
            .iter()
            .filter(|(_, t)| {
                t.inflight < t.cfg.max_inflight
                    && if high { !t.high.is_empty() } else { !t.normal.is_empty() }
            })
            .min_by_key(|(name, t)| (t.pass, name.as_str()))
            .map(|(name, _)| name.clone())
    }

    /// A job finished (either way); free its device and tenant slot.
    pub fn complete(&self, tenant: &str, device: Option<usize>) {
        let mut st = self.state.lock();
        if let Some(d) = device {
            st.busy[d] = false;
        }
        if let Some(t) = st.tenants.get_mut(tenant) {
            t.inflight = t.inflight.saturating_sub(1);
        }
        drop(st);
        self.work.notify_all();
    }

    /// Stop admitting; wake every worker so they drain and exit.
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.work.notify_all();
    }

    /// The single-device registry a worker executes one job against. The
    /// job's device is local number 0; its initial device records metrics
    /// under pid `fleet.len()` so per-job host activity never collides
    /// with another fleet device's pid.
    pub fn job_registry(&self, device: Option<usize>) -> Arc<DeviceRegistry> {
        let devs = device.map(|d| self.fleet[d].clone()).into_iter().collect();
        Arc::new(DeviceRegistry::new(devs, self.fleet.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudadev::CudaDevConfig;

    fn fleet(n: usize) -> Vec<Arc<CudaDev>> {
        (0..n)
            .map(|i| {
                Arc::new(CudaDev::new(CudaDevConfig { device_id: i as u32, ..Default::default() }))
            })
            .collect()
    }

    fn sched(devices: usize) -> Scheduler {
        Scheduler::new(fleet(devices), 64, TenantConfig::default())
    }

    /// Drain the queue single-worker style, recording the tenant order.
    fn drain_order(s: &Scheduler) -> Vec<String> {
        let mut order = Vec::new();
        s.shutdown();
        while let Some(p) = s.next() {
            order.push(p.tenant.clone());
            s.complete(&p.tenant, p.device);
        }
        order
    }

    #[test]
    fn stride_gives_weighted_fair_order() {
        let s = sched(1);
        s.ensure_tenant("a", Some(TenantConfig { weight: 2, ..Default::default() }));
        s.ensure_tenant("b", Some(TenantConfig { weight: 1, ..Default::default() }));
        for j in 0..6 {
            s.enqueue("a", j, Priority::Normal, 0).unwrap();
        }
        for j in 6..9 {
            s.enqueue("b", j, Priority::Normal, 0).unwrap();
        }
        // Weight 2:1 → a runs twice per b, starting with the tied pick
        // broken by name.
        assert_eq!(drain_order(&s), ["a", "b", "a", "a", "b", "a", "a", "b", "a"]);
    }

    #[test]
    fn high_lane_jumps_normal_lane() {
        let s = sched(1);
        s.ensure_tenant("a", None);
        s.ensure_tenant("b", None);
        s.enqueue("a", 0, Priority::Normal, 0).unwrap();
        s.enqueue("a", 1, Priority::Normal, 0).unwrap();
        s.enqueue("b", 2, Priority::High, 0).unwrap();
        s.shutdown();
        let p = s.next().unwrap();
        assert_eq!((p.tenant.as_str(), p.job), ("b", 2));
        s.complete("b", p.device);
    }

    #[test]
    fn tenant_queue_cap_rejects_typed() {
        let s = sched(1);
        s.ensure_tenant("a", Some(TenantConfig { queue_cap: 2, ..Default::default() }));
        s.enqueue("a", 0, Priority::Normal, 0).unwrap();
        s.enqueue("a", 1, Priority::Normal, 0).unwrap();
        match s.enqueue("a", 2, Priority::Normal, 0) {
            Err(ServeError::Overloaded { reason: "tenant_queue_full" }) => {}
            other => panic!("expected tenant_queue_full, got {other:?}"),
        }
    }

    #[test]
    fn global_queue_cap_rejects_typed() {
        let s = Scheduler::new(fleet(1), 1, TenantConfig::default());
        s.ensure_tenant("a", None);
        s.enqueue("a", 0, Priority::Normal, 0).unwrap();
        match s.enqueue("a", 1, Priority::Normal, 0) {
            Err(ServeError::Overloaded { reason: "global_queue_full" }) => {}
            other => panic!("expected global_queue_full, got {other:?}"),
        }
    }

    #[test]
    fn mem_gate_rejects_impossible_hints() {
        let s = sched(1);
        s.ensure_tenant("a", None);
        // Uninitialized device: full DRAM reported free, so a sane hint
        // passes and an impossible one is refused.
        s.enqueue("a", 0, Priority::Normal, 1 << 20).unwrap();
        match s.enqueue("a", 1, Priority::Normal, u64::MAX) {
            Err(ServeError::Overloaded { reason: "mem_pressure" }) => {}
            other => panic!("expected mem_pressure, got {other:?}"),
        }
    }

    #[test]
    fn broken_preferred_device_reroutes() {
        let s = sched(2);
        s.ensure_tenant("a", None);
        s.enqueue("a", 0, Priority::Normal, 0).unwrap();
        let p = s.next().unwrap();
        assert_eq!(p.affinity, Affinity::First);
        let first_dev = p.device.unwrap();
        s.complete("a", p.device);

        // Same tenant again: warm cache hit on the same device.
        s.enqueue("a", 1, Priority::Normal, 0).unwrap();
        let p = s.next().unwrap();
        assert_eq!(p.affinity, Affinity::Hit);
        assert_eq!(p.device, Some(first_dev));
        s.complete("a", p.device);

        // Preferred device latches broken mid-soak → reroute.
        s.fleet()[first_dev].mark_broken();
        s.enqueue("a", 2, Priority::Normal, 0).unwrap();
        let p = s.next().unwrap();
        assert_eq!(p.affinity, Affinity::Reroute);
        assert_ne!(p.device, Some(first_dev));
        s.complete("a", p.device);
    }

    #[test]
    fn whole_fleet_broken_falls_to_host() {
        let s = sched(2);
        for d in s.fleet() {
            d.mark_broken();
        }
        s.ensure_tenant("a", None);
        s.enqueue("a", 0, Priority::Normal, 0).unwrap();
        // Broken fleet: the mem gate must not block host-bound jobs.
        s.enqueue("a", 1, Priority::Normal, u64::MAX).unwrap();
        let p = s.next().unwrap();
        assert_eq!(p.affinity, Affinity::Host);
        assert_eq!(p.device, None);
        let reg = s.job_registry(p.device);
        assert_eq!(reg.num_devices(), 0);
        assert_eq!(reg.host_pid(), 2);
        s.complete("a", p.device);
    }

    #[test]
    fn max_inflight_holds_back_a_tenant() {
        let s = sched(2);
        s.ensure_tenant("a", Some(TenantConfig { max_inflight: 1, ..Default::default() }));
        s.enqueue("a", 0, Priority::Normal, 0).unwrap();
        s.enqueue("a", 1, Priority::Normal, 0).unwrap();
        s.shutdown();
        let p0 = s.next().unwrap();
        // Job 1 is queued and a device is idle, but the tenant is at its
        // in-flight cap — nothing runnable until job 0 completes.
        {
            let mut st = s.state.lock();
            assert!(s.try_pick(&mut st).is_none());
        }
        s.complete("a", p0.device);
        let p1 = s.next().unwrap();
        assert_eq!(p1.job, 1);
        s.complete("a", p1.device);
        assert!(s.next().is_none());
    }
}
