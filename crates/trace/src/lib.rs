//! Structured tracing and metrics for the simulated GPU.
//!
//! The paper argues through profiler counters — occupancy, waves, tail
//! utilisation, transaction counts, L2 hit rates (Fig. 5–8, Eq. 3–5) — and
//! this crate turns the reproduction's equivalents into machine-readable
//! artefacts instead of stdout-only text blocks:
//!
//! * [`session::TraceSession`] — a shared event buffer with a
//!   **deterministic logical clock** (simulated cycles, never wall time):
//!   structural spans from the harness, and per-launch timelines the
//!   simulator emits block by block.
//! * [`chrome`] — a Chrome trace-event / Perfetto JSON exporter: one lane
//!   per SM, blocks placed by the wave schedule, counter tracks for L2 hit
//!   rate and DRAM bytes/cycle. Load a file at <https://ui.perfetto.dev>
//!   and the tail effect of §III-B1 is literally visible.
//! * [`metrics::MetricsRegistry`] — counters/gauges/histograms under the
//!   NCU-style names of [`names`], exported as sorted JSON or CSV.
//!
//! # Zero cost when detached
//!
//! Instrumented code follows the same `Option`-test discipline as the
//! simulator's `AccessSink`: the global facade ([`current`], [`span`],
//! [`counter_add`], …) is one relaxed atomic load when no session is
//! installed, and `GpuSim` holds its tracer as an `Option` it tests once
//! per launch. `repro -- fastcheck` and the self-timing baseline run with
//! the subscriber detached and are unaffected.
//!
//! # Determinism
//!
//! Timestamps are logical: span edges tick the clock by one, a launch
//! occupies exactly its reported cycle count. Identical runs therefore
//! export byte-identical traces and metrics — snapshot-testable like every
//! other artefact in this repository.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod metrics;
pub mod names;
pub mod session;

pub use chrome::{
    device_pid, request_tid, ChromeEvent, Phase, DEVICE_COMPUTE_TID, DEVICE_LINK_TID,
    DEVICE_PID_BASE, HARNESS_TID, PID, REQUESTS_PID, REQUEST_TID_BASE, SM_TID_BASE,
};
pub use metrics::{Histogram, Metric, MetricsRegistry};
pub use session::{LaunchTimeline, SpanGuard, TraceSession};

use serde_json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<TraceSession>> = Mutex::new(None);

/// Installs `session` as the process-global subscriber the free functions
/// below write to. Replaces any previous session.
pub fn install(session: TraceSession) {
    *GLOBAL.lock().unwrap() = Some(session);
    ENABLED.store(true, Ordering::Release);
}

/// Removes and returns the global subscriber; tracing goes back to the
/// zero-cost detached state.
pub fn uninstall() -> Option<TraceSession> {
    ENABLED.store(false, Ordering::Release);
    GLOBAL.lock().unwrap().take()
}

/// Whether a global subscriber is installed (one relaxed atomic load —
/// the hot-path test).
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A handle on the installed session, if any.
pub fn current() -> Option<TraceSession> {
    if !enabled() {
        return None;
    }
    GLOBAL.lock().unwrap().clone()
}

/// Opens a span on the installed session; a no-op guard when detached.
pub fn span(name: &str) -> SpanGuard {
    match current() {
        Some(s) => s.span(name),
        None => SpanGuard::noop(),
    }
}

/// [`span`] with a key/value payload on the begin edge.
pub fn span_with(name: &str, args: &[(&str, Value)]) -> SpanGuard {
    match current() {
        Some(s) => s.span_with(name, args),
        None => SpanGuard::noop(),
    }
}

/// Adds to a counter on the installed session's registry; no-op when
/// detached.
pub fn counter_add(name: &str, delta: u64) {
    if let Some(s) = current() {
        s.metrics().add(name, delta);
    }
}

/// Records a histogram observation on the installed session's registry;
/// no-op when detached.
pub fn observe(name: &str, value: f64) {
    if let Some(s) = current() {
        s.metrics().observe(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The one test exercising the process-global facade: everything it
    // asserts happens between install() and uninstall(), and no other test
    // in the workspace installs a global session, so parallel test threads
    // cannot interfere.
    #[test]
    fn facade_roundtrip() {
        assert!(!enabled());
        assert!(current().is_none());
        // Detached calls are no-ops, not panics.
        let _g = span("ignored");
        counter_add("ignored", 1);
        observe("ignored", 1.0);

        let session = TraceSession::new();
        install(session.clone());
        assert!(enabled());
        {
            let _g = span("while-installed");
            counter_add("facade.count", 2);
            observe("facade.hist", 9.0);
        }
        let back = uninstall().expect("session was installed");
        assert!(!enabled());
        assert!(uninstall().is_none());

        // The handle we kept and the one returned see the same state.
        assert_eq!(session.event_count(), back.event_count());
        assert_eq!(back.metrics().get("facade.count"), Some(Metric::Counter(2)));
        assert!(back.to_chrome_json().contains("while-installed"));
    }
}
