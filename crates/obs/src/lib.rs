//! Observability substrate: span tracing, per-device metrics, and profile
//! reports for the offload stack.
//!
//! Everything in this crate is driven by the *simulated* clocks — the
//! `DevClock` accumulators the runtime already keeps — never by wall time,
//! so traces are deterministic and comparable across machines. The two
//! recorders are:
//!
//! * [`Tracer`] — a lock-cheap span/event recorder covering the offload
//!   lifecycle (init, module load, H2D/D2H, launch, retries, faults, host
//!   fallback) plus in-kernel master/worker events. Exports Chrome
//!   trace-event JSON ([`Tracer::to_chrome_json`]), loadable in Perfetto,
//!   with one trace "process" per device.
//! * [`Metrics`] — per-device counters and log2-bucket histograms
//!   (launches, bytes moved, retries by site, fallbacks, occupancy-limited
//!   blocks).
//!
//! Both live behind an [`Obs`] handle that the runner threads through every
//! layer. A disabled handle is a single relaxed atomic load per event, so
//! instrumentation can stay unconditional in hot paths.
//!
//! [`Obs::new`] takes the tracing switch and the flight-dump path as
//! values. Whoever builds the sink exports it: `fig4` writes the trace and
//! prints the profile table (see [`profile::render_profile`]) and the
//! hotspot table (see [`hotspots::render_hotspots`]) from its flags.

pub mod flight;
pub mod hotspots;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

pub use flight::{FlightEvent, FlightRecorder, FLIGHT_CAPACITY};
pub use hotspots::{render_hotspots, HotLine};
pub use json::Json;
pub use metrics::{Hist, Metrics};
pub use profile::{render_profile, ProfileRow};
pub use trace::{ArgValue, Phase, SpanId, TraceEvent, Tracer};

/// The bundle of recorders threaded through the stack.
pub struct Obs {
    pub tracer: Tracer,
    pub metrics: Metrics,
    /// Always-on post-mortem ring, shared with (and fed by) both
    /// recorders above.
    pub flight: Arc<FlightRecorder>,
}

impl Obs {
    /// A no-op handle: events are dropped at an atomic-load gate, metrics
    /// still count (they are cheap and power the profile table), and the
    /// flight ring keeps the most recent events for post-mortems.
    pub fn disabled() -> Arc<Obs> {
        Obs::new(false, None)
    }

    /// A recording handle.
    pub fn enabled() -> Arc<Obs> {
        Obs::new(true, None)
    }

    /// A handle with an explicit tracing switch and flight-recorder dump
    /// path (`None` = the ring records but never touches the filesystem).
    pub fn new(tracing: bool, flight_dump: Option<PathBuf>) -> Arc<Obs> {
        let flight = Arc::new(FlightRecorder::with_path(flight_dump));
        Arc::new(Obs {
            tracer: Tracer::with_flight(tracing, flight.clone()),
            metrics: Metrics::with_flight(flight.clone()),
            flight,
        })
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("tracing", &self.tracer.is_enabled())
            .field("events", &self.tracer.len())
            .finish()
    }
}
