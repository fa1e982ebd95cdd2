//! `hostomp` — the host-side OpenMP runtime (OMPi's "ORT").
//!
//! The paper's compiler is a complete host OpenMP implementation into which
//! the device work plugs (§4.2). This crate provides that host runtime:
//! real thread teams over the (simulated Jetson Nano's) quad-core A57,
//! worksharing with all three schedules, barriers, critical sections,
//! `single`/`master`/`sections`, and the `omp_*` query API.
//!
//! The translated host program calls into this runtime through interpreter
//! hooks (`ort_*` functions, wired up in `ompi-core`); the runtime tracks
//! the current team in a thread-local so nested guest calls can query
//! `omp_get_thread_num()` etc. from any depth.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use vmcommon::sync::{Condvar, Mutex};

pub mod team;

pub use team::{Team, WsState};

/// Re-exported scheduling math (shared with the device library).
pub use vmcommon::sched;

/// Default team size: the Jetson Nano's quad-core Cortex-A57.
pub const DEFAULT_NUM_THREADS: usize = 4;

thread_local! {
    /// Stack of (team, tid) for nested runtime entry.
    static CURRENT: RefCell<Vec<(Arc<Team>, usize)>> = const { RefCell::new(Vec::new()) };
    static CRITICAL_HELD: RefCell<Vec<Arc<GuestLock>>> = const { RefCell::new(Vec::new()) };
}

/// The host runtime.
pub struct HostRt {
    /// `nthreads-var` ICV.
    pub default_threads: usize,
    /// Named critical locks (name → lock).
    criticals: Mutex<HashMap<String, Arc<GuestLock>>>,
    start: Instant,
}

impl Default for HostRt {
    /// A runtime with [`DEFAULT_NUM_THREADS`] as its `nthreads-var`.
    fn default() -> Self {
        Self::new(DEFAULT_NUM_THREADS)
    }
}

impl HostRt {
    /// Create a runtime whose `nthreads-var` ICV is `default_threads` (the
    /// runner passes its snapshot of `OMP_NUM_THREADS`).
    pub fn new(default_threads: usize) -> HostRt {
        HostRt { default_threads, criticals: Mutex::new(HashMap::new()), start: Instant::now() }
    }

    /// Seconds since runtime start (`omp_get_wtime`).
    pub fn wtime(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Execute a parallel region: `body(tid)` runs on `n` OS threads with a
    /// fresh team. Nested parallelism runs the inner region with 1 thread
    /// (the OpenMP default of `max-active-levels = 1`).
    pub fn parallel<F>(&self, num_threads: Option<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        let nested = CURRENT.with(|c| !c.borrow().is_empty());
        let n = if nested { 1 } else { num_threads.unwrap_or(self.default_threads).max(1) };
        let team = Arc::new(Team::new(n));
        if n == 1 {
            Self::enter(team.clone(), 0);
            body(0);
            Self::exit();
            return;
        }
        std::thread::scope(|scope| {
            for tid in 1..n {
                let team = team.clone();
                let body = &body;
                scope.spawn(move || {
                    Self::enter(team, tid);
                    body(tid);
                    Self::exit();
                });
            }
            Self::enter(team.clone(), 0);
            body(0);
            Self::exit();
        });
    }

    fn enter(team: Arc<Team>, tid: usize) {
        CURRENT.with(|c| c.borrow_mut().push((team, tid)));
    }

    fn exit() {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }

    /// The current (team, tid), if the caller runs inside a parallel region.
    pub fn current(&self) -> Option<(Arc<Team>, usize)> {
        CURRENT.with(|c| c.borrow().last().cloned())
    }

    /// `omp_get_thread_num()`.
    pub fn thread_num(&self) -> usize {
        self.current().map(|(_, tid)| tid).unwrap_or(0)
    }

    /// `omp_get_num_threads()`.
    pub fn num_threads(&self) -> usize {
        self.current().map(|(t, _)| t.nthreads).unwrap_or(1)
    }

    /// `omp_in_parallel()`.
    pub fn in_parallel(&self) -> bool {
        self.current().map(|(t, _)| t.nthreads > 1).unwrap_or(false)
    }

    /// Team barrier (no-op outside a parallel region).
    pub fn barrier(&self) {
        if let Some((team, _)) = self.current() {
            team.barrier();
        }
    }

    /// Enter a (named) critical section.
    pub fn critical_enter(&self, name: &str) {
        let lock = {
            let mut map = self.criticals.lock();
            map.entry(name.to_string()).or_insert_with(|| Arc::new(GuestLock::new())).clone()
        };
        lock.lock();
        CRITICAL_HELD.with(|h| h.borrow_mut().push(lock));
    }

    /// Leave the most recently entered critical section.
    pub fn critical_exit(&self, _name: &str) {
        let lock = CRITICAL_HELD.with(|h| h.borrow_mut().pop());
        if let Some(lock) = lock {
            lock.unlock();
        }
    }

    /// `single`: true for exactly one thread of the team per region
    /// instance.
    pub fn single_enter(&self) -> bool {
        match self.current() {
            None => true,
            Some((team, tid)) => team.ws(tid).single_winner(),
        }
    }

    /// Enter a `sections` region: one worksharing instance per team pass.
    /// Call [`WsState::sections_next`] on the result to claim sections.
    pub fn sections_begin(&self) -> Arc<WsState> {
        match self.current() {
            None => Arc::new(WsState::solo(0)),
            Some((team, tid)) => team.ws(tid),
        }
    }

    /// Begin a worksharing loop instance (per-team shared scheduling state).
    pub fn loop_begin(&self, total: u64) -> Arc<WsState> {
        match self.current() {
            None => Arc::new(WsState::solo(total)),
            Some((team, tid)) => team.ws_loop(tid, total),
        }
    }
}

/// A lock with explicit lock/unlock (guest-style enter/exit pairing).
pub struct GuestLock {
    held: Mutex<bool>,
    cv: Condvar,
}

impl Default for GuestLock {
    fn default() -> Self {
        Self::new()
    }
}

impl GuestLock {
    pub fn new() -> GuestLock {
        GuestLock { held: Mutex::new(false), cv: Condvar::new() }
    }

    pub fn lock(&self) {
        let mut h = self.held.lock();
        while *h {
            self.cv.wait(&mut h);
        }
        *h = true;
    }

    pub fn unlock(&self) {
        let mut h = self.held.lock();
        *h = false;
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_runs_all_threads() {
        let rt = HostRt::default();
        let hits = AtomicUsize::new(0);
        let tids = Mutex::new(Vec::new());
        rt.parallel(Some(4), |tid| {
            hits.fetch_add(1, Ordering::SeqCst);
            tids.lock().push(tid);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        let mut t = tids.into_inner();
        t.sort_unstable();
        assert_eq!(t, vec![0, 1, 2, 3]);
    }

    #[test]
    fn thread_num_queries() {
        let rt = HostRt::default();
        assert_eq!(rt.thread_num(), 0);
        assert_eq!(rt.num_threads(), 1);
        assert!(!rt.in_parallel());
        let saw = Mutex::new(Vec::new());
        rt.parallel(Some(3), |tid| {
            assert_eq!(rt.thread_num(), tid);
            assert_eq!(rt.num_threads(), 3);
            assert!(rt.in_parallel());
            saw.lock().push(tid);
        });
        assert_eq!(saw.into_inner().len(), 3);
    }

    #[test]
    fn nested_parallel_serializes() {
        let rt = HostRt::default();
        let inner_sizes = Mutex::new(Vec::new());
        rt.parallel(Some(2), |_tid| {
            rt.parallel(Some(4), |_inner| {
                inner_sizes.lock().push(rt.num_threads());
            });
        });
        let sizes = inner_sizes.into_inner();
        assert_eq!(sizes.len(), 2);
        assert!(sizes.iter().all(|&s| s == 1));
    }

    #[test]
    fn barrier_orders_phases() {
        let rt = HostRt::default();
        let phase1 = AtomicUsize::new(0);
        let ok = AtomicUsize::new(0);
        rt.parallel(Some(4), |_tid| {
            phase1.fetch_add(1, Ordering::SeqCst);
            rt.barrier();
            if phase1.load(Ordering::SeqCst) == 4 {
                ok.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn critical_is_mutually_exclusive() {
        let rt = HostRt::default();
        let counter = AtomicUsize::new(0);
        let max_inside = AtomicUsize::new(0);
        rt.parallel(Some(4), |_tid| {
            for _ in 0..200 {
                rt.critical_enter("c");
                let inside = counter.fetch_add(1, Ordering::SeqCst) + 1;
                max_inside.fetch_max(inside, Ordering::SeqCst);
                counter.fetch_sub(1, Ordering::SeqCst);
                rt.critical_exit("c");
            }
        });
        assert_eq!(max_inside.load(Ordering::SeqCst), 1, "two threads inside a critical");
    }

    #[test]
    fn distinct_critical_names_do_not_exclude() {
        let rt = HostRt::default();
        // Just check no deadlock when nesting differently-named criticals.
        rt.parallel(Some(2), |tid| {
            if tid == 0 {
                rt.critical_enter("a");
                rt.critical_exit("a");
            } else {
                rt.critical_enter("b");
                rt.critical_exit("b");
            }
        });
    }

    #[test]
    fn single_picks_one_thread_per_instance() {
        let rt = HostRt::default();
        let winners = AtomicUsize::new(0);
        rt.parallel(Some(4), |_tid| {
            for _ in 0..3 {
                if rt.single_enter() {
                    winners.fetch_add(1, Ordering::SeqCst);
                }
                rt.barrier();
            }
        });
        assert_eq!(winners.load(Ordering::SeqCst), 3, "one winner per region instance");
    }

    #[test]
    fn sections_distribute_all() {
        let rt = HostRt::default();
        let run: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        rt.parallel(Some(3), |_tid| {
            let ws = rt.sections_begin();
            while let Some(s) = ws.sections_next(5) {
                run.lock().push(s);
            }
            rt.barrier();
        });
        let mut r = run.into_inner();
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn loop_dynamic_schedule_covers() {
        let rt = HostRt::default();
        let seen = Mutex::new(vec![false; 100]);
        rt.parallel(Some(4), |_tid| {
            let ws = rt.loop_begin(100);
            while let Some((s, e)) = ws.dynamic.next_chunk(100, 7) {
                let mut v = seen.lock();
                for i in s..e {
                    assert!(!v[i as usize]);
                    v[i as usize] = true;
                }
            }
            rt.barrier();
        });
        assert!(seen.into_inner().iter().all(|&x| x));
    }

    #[test]
    fn loop_guided_schedule_covers() {
        let rt = HostRt::default();
        let seen = Mutex::new(vec![false; 500]);
        rt.parallel(Some(4), |_tid| {
            let ws = rt.loop_begin(500);
            while let Some((s, e)) = ws.guided.next_chunk(500, 4, 1) {
                let mut v = seen.lock();
                for i in s..e {
                    assert!(!v[i as usize]);
                    v[i as usize] = true;
                }
            }
            rt.barrier();
        });
        assert!(seen.into_inner().iter().all(|&x| x));
    }

    #[test]
    fn wtime_advances() {
        let rt = HostRt::default();
        let a = rt.wtime();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(rt.wtime() > a);
    }

    #[test]
    fn guest_lock_blocks() {
        let l = Arc::new(GuestLock::new());
        l.lock();
        let l2 = l.clone();
        let t = std::thread::spawn(move || {
            l2.lock();
            l2.unlock();
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(!t.is_finished(), "second locker must block");
        l.unlock();
        assert!(t.join().unwrap());
    }
}
