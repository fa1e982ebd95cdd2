//! Device **recovery**: watchdog timeouts, reset-and-replay, and the
//! per-device circuit breaker (DESIGN.md §6).
//!
//! A terminal driver failure — a lost device, or a hang the watchdog
//! expired — no longer latches the device permanently on first sight.
//! Instead the recovery manager:
//!
//! 1. **books the watchdog wait** for hangs: the operation is charged its
//!    full deadline (`CudaDevConfig::launch_timeout`) on the simulated
//!    clock and surfaces as a typed timeout;
//! 2. **opens the breaker** and charges an exponential cool-down to the
//!    simulated clock (no wall-time sleep — the cool-down is part of the
//!    virtual timeline, like retry backoff);
//! 3. **resets the device and replays the data environment**: dirty
//!    device buffers are salvaged to the host first, the arena is torn
//!    down ([`gpusim::Device::reset`]), and every live mapping is
//!    re-reserved *at its old device address* ([`gpusim::Device::
//!    reserve_at`], which bypasses fault-plan numbering) and re-uploaded
//!    from the host-authoritative copy;
//! 4. **half-opens** the breaker and re-runs the failed operation as a
//!    probe. Success closes the breaker (and refunds the reset budget);
//!    another terminal failure loops back to step 2.
//!
//! Only when `CudaDevConfig::max_resets` consecutive reset attempts fail
//! does the breaker latch and the old permanent `broken` flag engage — from then
//! on the runtime falls back to the host as before. Because replayed
//! mappings land at their exact old addresses, already-translated kernel
//! parameters stay valid and a re-executed region is bit-identical to a
//! fault-free run.

use std::sync::Arc;

use gpusim::{Device, ExecError};
use vmcommon::addr::offset;
use vmcommon::MemArena;

use crate::devlib::NUM_LOCKS;
use crate::error::CudadevError;

use super::CudaDev;

/// Health state of a device's recovery circuit breaker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: operations flow through normally.
    #[default]
    Closed,
    /// A terminal failure tripped the breaker; a cool-down is being
    /// charged before the next reset attempt.
    Open,
    /// The device was reset and replayed; a single probe operation is
    /// deciding whether it is healthy again.
    HalfOpen,
    /// The reset budget is exhausted; the device is latched broken and
    /// every operation fails fast ([`CudadevError::Broken`]).
    Latched,
}

impl BreakerState {
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
            BreakerState::Latched => "latched",
        }
    }
}

/// Per-device recovery bookkeeping (behind the host module's mutex).
#[derive(Debug, Default)]
pub(super) struct RecoveryCtl {
    /// Consecutive failed reset-and-replay attempts. Refunded to 0 when a
    /// half-open probe succeeds, so the budget bounds one failure
    /// *episode*, not the device's lifetime.
    pub resets_used: u32,
    pub state: BreakerState,
}

/// Simulated cool-down before reset attempt `n` (1-based): 10 ms
/// doubling per consecutive failure.
fn cooldown_s(attempt: u32) -> f64 {
    0.010 * (1u64 << attempt.saturating_sub(1).min(16)) as f64
}

impl CudaDev {
    /// The current health state of this device's recovery breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.recovery.lock().state
    }

    /// Transition the breaker, emitting a metric and trace instant on
    /// every actual state change.
    pub(super) fn set_breaker(&self, next: BreakerState) {
        let mut r = self.recovery.lock();
        if r.state == next {
            return;
        }
        r.state = next;
        drop(r);
        let obs = &self.cfg.obs;
        obs.metrics.incr(self.pid(), &format!("breaker.state.{}", next.name()), 1);
        obs.tracer.instant(
            self.pid(),
            0,
            "breaker",
            "recovery",
            self.now(),
            vec![("state", next.name().into())],
        );
    }

    /// Book a watchdog expiry: the hung operation is charged its full
    /// deadline on the simulated clock (the time the watchdog spent
    /// waiting before declaring the operation dead).
    pub(super) fn charge_watchdog(&self, site: &str) {
        let deadline = self.cfg.launch_timeout;
        let wait_s = deadline.as_secs_f64();
        let t0 = {
            let mut clk = self.clock.lock();
            let t = clk.total_s();
            clk.retry_backoff_s += wait_s;
            t
        };
        let obs = &self.cfg.obs;
        obs.tracer.complete(
            self.pid(),
            0,
            "watchdog timeout",
            "recovery",
            t0,
            wait_s,
            vec![("site", site.into()), ("deadline_ms", (deadline.as_millis() as u64).into())],
        );
        obs.metrics.incr(self.pid(), &format!("timeouts.{site}"), 1);
        obs.metrics.observe(self.pid(), "watchdog_wait_ms", deadline.as_millis() as u64);
        obs.flight.post_mortem("watchdog timeout");
    }

    /// Drive a terminal failure through the breaker state machine until
    /// either a half-open `probe` of the failed operation succeeds (the
    /// result is returned and the breaker closes) or the reset budget
    /// runs out (the device latches broken, as before this subsystem
    /// existed).
    ///
    /// `device` is `None` during pre-device initialization (nothing to
    /// reset — the breaker only paces re-probes). `host_mem` is required
    /// to replay mapped buffers; `None` is only valid while the data
    /// environment is empty. `extra` lists in-flight allocations
    /// (`(dev_ptr, len)`) that are not in the map table yet but must
    /// survive the reset at their addresses.
    pub(super) fn recover_terminal<T>(
        &self,
        device: Option<&Arc<Device>>,
        host_mem: Option<&MemArena>,
        site: &str,
        extra: &[(u64, u64)],
        err: ExecError,
        mut probe: impl FnMut() -> Result<T, ExecError>,
    ) -> Result<T, CudadevError> {
        let obs = &self.cfg.obs;
        let mut err = err;
        loop {
            if matches!(err, ExecError::Hang(_)) {
                self.charge_watchdog(site);
            }
            // A reset would drop the CUDA baseline's `cudaMalloc` blocks,
            // which nothing can replay: the run ends here, naming them.
            let blocks: Vec<(u64, u64)> =
                self.baseline.lock().iter().map(|(&p, &n)| (p, n)).collect();
            if device.is_some() && !blocks.is_empty() {
                self.latch_broken(&err);
                return Err(CudadevError::BaselineLost { blocks, error: err });
            }
            let used = self.recovery.lock().resets_used;
            if used >= self.cfg.max_resets {
                self.latch_broken(&err);
                return Err(match err {
                    ExecError::Hang(_) => CudadevError::Timeout {
                        site: site.to_string(),
                        deadline_ms: self.cfg.launch_timeout.as_millis() as u64,
                    },
                    e => CudadevError::Data(e),
                });
            }
            let attempt = used + 1;
            self.recovery.lock().resets_used = attempt;
            self.set_breaker(BreakerState::Open);
            let wait_s = cooldown_s(attempt);
            let t0 = {
                let mut clk = self.clock.lock();
                let t = clk.total_s();
                clk.retry_backoff_s += wait_s;
                t
            };
            obs.tracer.complete(
                self.pid(),
                0,
                "breaker open",
                "recovery",
                t0,
                wait_s,
                vec![
                    ("site", site.into()),
                    ("attempt", attempt.into()),
                    ("error", err.to_string().into()),
                ],
            );
            if let Some(dev) = device {
                match self.reset_and_replay(dev, host_mem, extra) {
                    Ok(replayed) => {
                        obs.metrics.incr(self.pid(), "recovery.reset", 1);
                        obs.metrics.incr(self.pid(), "recovery.replayed", replayed);
                        obs.tracer.instant(
                            self.pid(),
                            0,
                            "recovery.reset",
                            "recovery",
                            self.now(),
                            vec![("site", site.into()), ("replayed_buffers", replayed.into())],
                        );
                    }
                    // Another terminal failure mid-replay charges the same
                    // budget and loops; anything else is a host-side error
                    // recovery cannot fix.
                    Err(e) if e.is_terminal() => {
                        err = e;
                        continue;
                    }
                    Err(e) => return Err(CudadevError::Data(e)),
                }
            }
            self.set_breaker(BreakerState::HalfOpen);
            obs.metrics.incr(self.pid(), "recovery.probe", 1);
            obs.tracer.instant(
                self.pid(),
                0,
                "breaker.probe",
                "recovery",
                self.now(),
                vec![("site", site.into()), ("attempt", attempt.into())],
            );
            match probe() {
                Ok(v) => {
                    self.recovery.lock().resets_used = 0;
                    self.set_breaker(BreakerState::Closed);
                    obs.metrics.incr(self.pid(), "recovery.recovered", 1);
                    return Ok(v);
                }
                Err(e) if e.is_terminal() => {
                    err = e;
                }
                Err(e) => {
                    // The device answered (the failure is the operation's
                    // own, e.g. out-of-memory): the reset worked, so close
                    // the breaker and surface the error unchanged.
                    self.set_breaker(BreakerState::Closed);
                    return Err(CudadevError::Data(e));
                }
            }
        }
    }

    /// Tear the device down and rebuild its resident state: drain the
    /// async streams, salvage device-dirty buffers to the host, reset the
    /// arena, then re-reserve the control block and every live mapping at
    /// its old address and re-upload the host-authoritative contents.
    /// Returns the number of replayed buffers.
    fn reset_and_replay(
        &self,
        device: &Arc<Device>,
        host_mem: Option<&MemArena>,
        extra: &[(u64, u64)],
    ) -> Result<u64, ExecError> {
        self.streams.drain_and_clear(&self.clock);
        // Salvage: buffers only the device holds current (a kernel wrote
        // them, no copy-back yet) would be resurrected at their pre-kernel
        // contents by replay. Copy them home first; the host copy then
        // feeds the re-upload below.
        if let Some(hm) = host_mem {
            let dirty: Vec<(u64, u64, u64)> = self
                .maps
                .lock()
                .iter()
                .filter(|(_, e)| !e.pending && e.device_dirty && !e.host_dirty)
                .map(|(&h, e)| (h, e.dev_ptr, e.len))
                .collect();
            for (host, dev_ptr, len) in dirty {
                self.d2h_copy(device, dev_ptr, hm, offset(host), len)?;
                if let Some(e) = self.maps.lock().get_mut(&host) {
                    e.device_dirty = false;
                }
            }
        }
        device.reset();
        // Cached (unmapped) buffers died with the arena; forget them
        // without issuing frees.
        self.cache.lock().clear();
        // The runtime control block is always the arena's first
        // allocation; put it back where the device library expects it.
        if let Some(lib) = self.lib.lock().as_ref() {
            device.reserve_at(lib.lock_area, NUM_LOCKS * 4)?;
        }
        let entries: Vec<(u64, u64, u64)> = self
            .maps
            .lock()
            .iter()
            .filter(|(_, e)| !e.pending)
            .map(|(&h, e)| (h, e.dev_ptr, e.len))
            .collect();
        let mut replayed = 0u64;
        for &(_, dev_ptr, len) in &entries {
            device.reserve_at(dev_ptr, len)?;
        }
        for (host, dev_ptr, len) in entries {
            let Some(hm) = host_mem else {
                return Err(ExecError::Trap(
                    "device recovery with live mappings but no host arena".into(),
                ));
            };
            self.h2d_copy(device, dev_ptr, hm, offset(host), len)?;
            if let Some(e) = self.maps.lock().get_mut(&host) {
                // Device and host agree again.
                e.host_dirty = false;
                e.device_dirty = false;
            }
            replayed += 1;
        }
        for &(ptr, len) in extra {
            device.reserve_at(ptr, len)?;
        }
        Ok(replayed)
    }
}
