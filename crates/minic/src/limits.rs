//! Guest resource governor: the typed limit-error taxonomy and the
//! per-[`Machine`](crate::interp::Machine) budget state shared by both
//! execution engines.
//!
//! Every limit here exists so an untrusted guest program cannot wedge the
//! host process: a `while(1);` burns fuel, a malloc loop hits the memory
//! ceiling, runaway recursion hits the stack limit, and a job that is slow
//! for any other reason hits the wall-clock deadline. All four surface as
//! [`GuestLimitError`] — a typed, recoverable error, never a panic.
//!
//! Parity contract: the VM and the tree-walker must trap **bit-identically**
//! on stack and memory limits, so every message below mentions only
//! *configured* values (budget, ceiling, depth), never consumed counts —
//! the engines execute different step granularities and their counters
//! would diverge. Fuel and deadline are checked at engine-specific
//! boundaries, so differential tests treat those traps as "both terminated"
//! rather than comparing outputs.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Instructions (VM ops / walker steps) between fuel + deadline checks.
/// Small enough that a hostile loop is caught within microseconds, large
/// enough that the atomic traffic is invisible next to dispatch itself.
pub const FUEL_CHECK_INTERVAL: u64 = 1024;

/// Sentinel meaning "no limit configured" for the u64-valued budgets.
const UNLIMITED: u64 = u64::MAX;

/// A guest program exceeded a configured resource limit. Typed and
/// recoverable: the runner returns it from the job, salvages device state,
/// and leaves the recovery breaker untouched — guest misbehavior must
/// never latch a healthy device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GuestLimitError {
    /// The per-job instruction budget ran out (`RunnerConfig::fuel`).
    FuelExhausted { budget: u64 },
    /// Guest heap + stack-frame bytes would exceed the per-job ceiling
    /// (`RunnerConfig::guest_mem`).
    MemExceeded { limit: u64 },
    /// Call depth exceeded the recursion limit (`RunnerConfig::guest_stack`).
    StackOverflow { limit: u32 },
    /// The wall-clock job deadline passed (`RunnerConfig::job_timeout`).
    DeadlineExceeded { ms: u64 },
}

impl GuestLimitError {
    /// Metric suffix: the violation shows up as `guest_limit.<kind>`.
    pub fn kind(&self) -> &'static str {
        match self {
            GuestLimitError::FuelExhausted { .. } => "fuel",
            GuestLimitError::MemExceeded { .. } => "mem",
            GuestLimitError::StackOverflow { .. } => "stack",
            GuestLimitError::DeadlineExceeded { .. } => "deadline",
        }
    }
}

impl fmt::Display for GuestLimitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuestLimitError::FuelExhausted { budget } => {
                write!(f, "guest fuel exhausted (budget {budget} instructions)")
            }
            GuestLimitError::MemExceeded { limit } => {
                write!(f, "guest memory limit exceeded ({limit}-byte ceiling)")
            }
            GuestLimitError::StackOverflow { limit } => {
                write!(f, "guest stack overflow (recursion deeper than {limit} frames)")
            }
            GuestLimitError::DeadlineExceeded { ms } => {
                write!(f, "guest job deadline exceeded ({ms} ms)")
            }
        }
    }
}

impl std::error::Error for GuestLimitError {}

/// Per-machine governor state. Lives on the shared `Machine` so both
/// engines — and the runtime builtins (`malloc`/`free`) — charge against
/// the same pools. All fields are atomics: parallel-region worker threads
/// share the machine.
pub struct GuestLimits {
    /// Remaining fuel; [`UNLIMITED`] = no budget configured.
    fuel_left: AtomicU64,
    /// Configured budget, kept for the trap message.
    fuel_budget: AtomicU64,
    /// Heap + frame byte ceiling; [`UNLIMITED`] = no ceiling.
    mem_limit: AtomicU64,
    /// Live guest heap bytes (malloc minus free). Tracked even with no
    /// ceiling so a limit set later starts from an honest figure.
    heap_used: AtomicU64,
    /// Maximum call depth (frames).
    stack_limit: AtomicU32,
    /// Job deadline as nanoseconds since `epoch`; 0 = no deadline armed.
    deadline_ns: AtomicU64,
    /// Configured deadline duration in ms, kept for the trap message.
    deadline_ms: AtomicU64,
    epoch: Instant,
}

/// The historical hard-coded recursion trap depth, now the default.
pub const DEFAULT_STACK_LIMIT: u32 = 200;

impl Default for GuestLimits {
    fn default() -> GuestLimits {
        GuestLimits {
            fuel_left: AtomicU64::new(UNLIMITED),
            fuel_budget: AtomicU64::new(UNLIMITED),
            mem_limit: AtomicU64::new(UNLIMITED),
            heap_used: AtomicU64::new(0),
            stack_limit: AtomicU32::new(DEFAULT_STACK_LIMIT),
            deadline_ns: AtomicU64::new(0),
            deadline_ms: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }
}

impl GuestLimits {
    // ------------------------------------------------------------- fuel

    /// Install (or clear) the instruction budget, refilling the pool.
    pub fn set_fuel(&self, budget: Option<u64>) {
        let b = budget.unwrap_or(UNLIMITED);
        self.fuel_budget.store(b, Ordering::Relaxed);
        self.fuel_left.store(b, Ordering::Relaxed);
    }

    /// The configured budget, if any.
    pub fn fuel_budget(&self) -> Option<u64> {
        match self.fuel_budget.load(Ordering::Relaxed) {
            UNLIMITED => None,
            b => Some(b),
        }
    }

    /// Bill `n` retired instructions against the pool; errors when the
    /// budget is exhausted.
    pub fn consume_fuel(&self, n: u64) -> Result<(), GuestLimitError> {
        if self.fuel_left.load(Ordering::Relaxed) == UNLIMITED {
            return Ok(());
        }
        let prev = self
            .fuel_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| Some(cur.saturating_sub(n)))
            .unwrap_or(0);
        if prev < n {
            return Err(GuestLimitError::FuelExhausted {
                budget: self.fuel_budget.load(Ordering::Relaxed),
            });
        }
        Ok(())
    }

    /// Bill without trapping — used when flushing a partial interval at
    /// the end of a top-level call. A drained pool then traps at the first
    /// checkpoint of the next call.
    pub fn drain_fuel(&self, n: u64) {
        if self.fuel_left.load(Ordering::Relaxed) == UNLIMITED {
            return;
        }
        let _ = self
            .fuel_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| Some(cur.saturating_sub(n)));
    }

    /// Fuel + deadline check, the per-interval engine checkpoint.
    pub fn checkpoint(&self, n: u64) -> Result<(), GuestLimitError> {
        self.consume_fuel(n)?;
        self.check_deadline()
    }

    // ----------------------------------------------------------- memory

    /// Install (or clear) the heap + frame byte ceiling.
    pub fn set_mem_limit(&self, limit: Option<u64>) {
        self.mem_limit.store(limit.unwrap_or(UNLIMITED), Ordering::Relaxed);
    }

    /// The configured ceiling, if any.
    pub fn mem_limit(&self) -> Option<u64> {
        match self.mem_limit.load(Ordering::Relaxed) {
            UNLIMITED => None,
            l => Some(l),
        }
    }

    /// Live guest heap bytes (malloc minus free).
    pub fn heap_used(&self) -> u64 {
        self.heap_used.load(Ordering::Relaxed)
    }

    /// Charge a heap allocation against the ceiling; call *before* the
    /// allocator so a rejected request never touches the arena.
    pub fn charge_heap(&self, bytes: u64) -> Result<(), GuestLimitError> {
        let limit = self.mem_limit.load(Ordering::Relaxed);
        let used = self.heap_used.fetch_add(bytes, Ordering::Relaxed);
        if limit != UNLIMITED && used.saturating_add(bytes) > limit {
            self.heap_used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(GuestLimitError::MemExceeded { limit });
        }
        Ok(())
    }

    /// Grow the charge without a ceiling check — for allocator rounding
    /// discovered after a successful `charge_heap`, so `credit_heap` of the
    /// actual block size stays symmetric.
    pub fn charge_heap_unchecked(&self, bytes: u64) {
        self.heap_used.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Return freed heap bytes to the pool.
    pub fn credit_heap(&self, bytes: u64) {
        let _ = self.heap_used.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur.saturating_sub(bytes))
        });
    }

    /// Frame-entry check: would `stack_used` bytes of call frames plus the
    /// live heap exceed the ceiling? Both engines call this with the same
    /// figure (frame layouts are shared), keeping the trap bit-identical.
    pub fn check_footprint(&self, stack_used: u64) -> Result<(), GuestLimitError> {
        let limit = self.mem_limit.load(Ordering::Relaxed);
        if limit != UNLIMITED
            && self.heap_used.load(Ordering::Relaxed).saturating_add(stack_used) > limit
        {
            return Err(GuestLimitError::MemExceeded { limit });
        }
        Ok(())
    }

    // ------------------------------------------------------------ stack

    /// Maximum call depth (frames).
    pub fn stack_limit(&self) -> u32 {
        self.stack_limit.load(Ordering::Relaxed)
    }

    pub fn set_stack_limit(&self, frames: u32) {
        self.stack_limit.store(frames, Ordering::Relaxed);
    }

    // --------------------------------------------------------- deadline

    /// Arm (or clear) the wall-clock deadline, `d` from now. Checked at
    /// the same fuel-check boundary as the instruction budget.
    pub fn arm_deadline(&self, d: Option<Duration>) {
        match d {
            Some(d) => {
                let at = self.epoch.elapsed().saturating_add(d);
                self.deadline_ms.store(d.as_millis() as u64, Ordering::Relaxed);
                // 0 means "none"; a zero-duration deadline still arms.
                self.deadline_ns.store((at.as_nanos() as u64).max(1), Ordering::Relaxed);
            }
            None => {
                self.deadline_ns.store(0, Ordering::Relaxed);
                self.deadline_ms.store(0, Ordering::Relaxed);
            }
        }
    }

    pub fn check_deadline(&self) -> Result<(), GuestLimitError> {
        let at = self.deadline_ns.load(Ordering::Relaxed);
        if at != 0 && self.epoch.elapsed().as_nanos() as u64 >= at {
            return Err(GuestLimitError::DeadlineExceeded {
                ms: self.deadline_ms.load(Ordering::Relaxed),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuel_pool_traps_exactly_at_budget() {
        let l = GuestLimits::default();
        l.set_fuel(Some(2048));
        assert!(l.consume_fuel(1024).is_ok());
        assert!(l.consume_fuel(1024).is_ok()); // pool hits exactly zero
        let err = l.consume_fuel(1024).unwrap_err();
        assert_eq!(err, GuestLimitError::FuelExhausted { budget: 2048 });
        assert_eq!(err.kind(), "fuel");
        // Refilling restores the pool.
        l.set_fuel(Some(10));
        assert!(l.consume_fuel(5).is_ok());
    }

    #[test]
    fn unlimited_fuel_never_traps() {
        let l = GuestLimits::default();
        for _ in 0..100 {
            assert!(l.consume_fuel(u64::MAX / 2).is_ok());
        }
    }

    #[test]
    fn heap_charges_and_credits_balance() {
        let l = GuestLimits::default();
        l.set_mem_limit(Some(100));
        assert!(l.charge_heap(60).is_ok());
        assert_eq!(l.charge_heap(50), Err(GuestLimitError::MemExceeded { limit: 100 }));
        // The failed charge must not leak into the accounting.
        assert_eq!(l.heap_used(), 60);
        l.credit_heap(60);
        assert!(l.charge_heap(100).is_ok());
    }

    #[test]
    fn footprint_combines_stack_and_heap() {
        let l = GuestLimits::default();
        l.set_mem_limit(Some(1000));
        l.charge_heap(600).unwrap();
        assert!(l.check_footprint(400).is_ok());
        assert_eq!(l.check_footprint(401), Err(GuestLimitError::MemExceeded { limit: 1000 }));
    }

    #[test]
    fn deadline_zero_duration_trips_immediately() {
        let l = GuestLimits::default();
        assert!(l.check_deadline().is_ok());
        l.arm_deadline(Some(Duration::from_millis(0)));
        assert_eq!(l.check_deadline(), Err(GuestLimitError::DeadlineExceeded { ms: 0 }));
        l.arm_deadline(None);
        assert!(l.check_deadline().is_ok());
    }

    #[test]
    fn messages_mention_only_configured_values() {
        // The parity contract: no consumed counts in the text.
        assert_eq!(
            GuestLimitError::FuelExhausted { budget: 9 }.to_string(),
            "guest fuel exhausted (budget 9 instructions)"
        );
        assert_eq!(
            GuestLimitError::MemExceeded { limit: 4096 }.to_string(),
            "guest memory limit exceeded (4096-byte ceiling)"
        );
        assert_eq!(
            GuestLimitError::StackOverflow { limit: 200 }.to_string(),
            "guest stack overflow (recursion deeper than 200 frames)"
        );
        assert_eq!(
            GuestLimitError::DeadlineExceeded { ms: 50 }.to_string(),
            "guest job deadline exceeded (50 ms)"
        );
    }
}
