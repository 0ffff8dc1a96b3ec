//! Trace sessions: a shared event buffer with a deterministic logical
//! clock, plus the per-launch timeline builder the simulator drives.
//!
//! A [`TraceSession`] is a cheap cloneable handle (the same
//! `Arc<Mutex<…>>` shape as the sanitizer): the harness creates one,
//! installs it globally or attaches it to a `GpuSim`, and every component
//! appends events into the shared buffer. Time is **logical**: structural
//! span edges advance the clock by one tick, and a simulated launch
//! occupies exactly its reported cycle count. No wall clock is ever read,
//! so two identical runs export byte-identical traces.
//!
//! Multi-device runs place each simulated GPU in its own lane *group*
//! (Perfetto process): the first device-scoped event names the group,
//! [`LaunchTimeline::begin_on`] routes a launch's SM lanes into it,
//! and [`TraceSession::device_slice`] / [`TraceSession::counter`] let a
//! serving scheduler draw batch-compute and halo-transfer slices at its
//! own u64 cycle timestamps.

use crate::chrome::{
    self, device_pid, request_tid, ChromeEvent, Phase, DEVICE_COMPUTE_TID, DEVICE_LINK_TID,
    HARNESS_TID, PID, REQUESTS_PID, SM_TID_BASE,
};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::names;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

struct Inner {
    now: f64,
    events: Vec<ChromeEvent>,
    /// How many SM lanes have been named so far, per lane group (metadata
    /// emitted once per lane).
    sm_lanes: BTreeMap<u64, u32>,
    /// Device lane groups whose metadata has been emitted.
    device_groups: BTreeSet<u32>,
    /// Request lanes whose metadata has been emitted (the `requests` group
    /// title is emitted with the first lane).
    request_lanes: BTreeSet<u64>,
}

impl Inner {
    /// Names device `device`'s lane group — the `GPU d` process title plus
    /// its `compute` and `interconnect` lanes. Idempotent.
    fn ensure_device_lanes(&mut self, device: u32) {
        if self.device_groups.insert(device) {
            let pid = device_pid(device);
            self.events
                .push(ChromeEvent::process_name(pid, &format!("GPU {device}")));
            self.events.push(ChromeEvent::thread_name_in(
                pid,
                DEVICE_COMPUTE_TID,
                "compute",
            ));
            self.events.push(ChromeEvent::thread_name_in(
                pid,
                DEVICE_LINK_TID,
                "interconnect",
            ));
        }
    }

    fn ensure_request_lane(&mut self, request: u64) {
        if self.request_lanes.is_empty() {
            self.events
                .push(ChromeEvent::process_name(REQUESTS_PID, "requests"));
        }
        if self.request_lanes.insert(request) {
            self.events.push(ChromeEvent::thread_name_in(
                REQUESTS_PID,
                request_tid(request),
                &format!("request {request}"),
            ));
        }
    }

    fn ensure_sm_lanes(&mut self, pid: u64, num_sms: usize) {
        let named = self.sm_lanes.entry(pid).or_insert(0);
        while (*named as usize) < num_sms {
            let n = *named;
            self.events.push(ChromeEvent::thread_name_in(
                pid,
                SM_TID_BASE + n as u64,
                &format!("SM {n}"),
            ));
            *named += 1;
        }
    }
}

/// A handle on one tracing session: event buffer, logical clock and
/// metrics registry.
#[derive(Clone)]
pub struct TraceSession {
    inner: Arc<Mutex<Inner>>,
    metrics: MetricsRegistry,
}

impl Default for TraceSession {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSession {
    /// Opens a session at logical time zero with named harness lane.
    pub fn new() -> Self {
        let events = vec![
            ChromeEvent {
                name: "process_name".to_string(),
                ph: Phase::Metadata,
                ts: 0.0,
                dur: None,
                pid: PID,
                tid: HARNESS_TID,
                args: vec![("name".to_string(), serde_json::json!("hpsparse-sim"))],
            },
            ChromeEvent::thread_name(HARNESS_TID, "harness"),
        ];
        Self {
            inner: Arc::new(Mutex::new(Inner {
                now: 0.0,
                events,
                sm_lanes: BTreeMap::new(),
                device_groups: BTreeSet::new(),
                request_lanes: BTreeSet::new(),
            })),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The session's metrics registry (a shared handle).
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.clone()
    }

    /// Current logical time in simulated cycles.
    pub fn now(&self) -> f64 {
        self.lock().now
    }

    /// Number of buffered events (metadata included).
    pub fn event_count(&self) -> usize {
        self.lock().events.len()
    }

    /// Opens a structural span on the harness lane; it closes when the
    /// returned guard drops. Each edge advances the clock one tick.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with(name, &[])
    }

    /// [`Self::span`] with a key/value payload on the begin edge.
    pub fn span_with(&self, name: &str, args: &[(&str, Value)]) -> SpanGuard {
        let mut inner = self.lock();
        let ts = inner.now;
        inner.now += 1.0;
        inner.events.push(ChromeEvent {
            name: name.to_string(),
            ph: Phase::Begin,
            ts,
            dur: None,
            pid: PID,
            tid: HARNESS_TID,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
        SpanGuard {
            session: Some((self.clone(), name.to_string())),
        }
    }

    /// Emits a complete slice on device `device`'s lane `tid`
    /// ([`DEVICE_COMPUTE_TID`] or [`DEVICE_LINK_TID`]) at an absolute
    /// timestamp chosen by the caller. Serving schedulers own their cycle
    /// arithmetic, so this does **not** consult or advance the session
    /// clock; pair with [`Self::advance_to`] once per scheduling run.
    pub fn device_slice(
        &self,
        device: u32,
        tid: u64,
        name: &str,
        start: f64,
        dur: f64,
        args: &[(&str, Value)],
    ) {
        let mut inner = self.lock();
        inner.ensure_device_lanes(device);
        inner.events.push(ChromeEvent {
            name: name.to_string(),
            ph: Phase::Complete,
            ts: start,
            dur: Some(dur),
            pid: device_pid(device),
            tid,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Emits a complete slice on request `request`'s lane in the
    /// [`REQUESTS_PID`] group (titled `requests`, one lane per request).
    /// Like [`Self::device_slice`] the timestamp is absolute and the
    /// session clock is untouched: the serving scheduler that knows the
    /// request's span tree (queue → halo → dispatch → compute) draws it
    /// here at its own cycle timestamps.
    pub fn request_slice(
        &self,
        request: u64,
        name: &str,
        start: f64,
        dur: f64,
        args: &[(&str, Value)],
    ) {
        let mut inner = self.lock();
        inner.ensure_request_lane(request);
        inner.events.push(ChromeEvent {
            name: name.to_string(),
            ph: Phase::Complete,
            ts: start,
            dur: Some(dur),
            pid: REQUESTS_PID,
            tid: request_tid(request),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Samples counter track `name` in device `device`'s lane group at an
    /// absolute timestamp (e.g. [`names::INTERCONNECT_BYTES`] after each
    /// halo transfer).
    pub fn counter(&self, device: u32, name: &str, key: &str, ts: f64, value: f64) {
        let mut inner = self.lock();
        inner.ensure_device_lanes(device);
        inner.events.push(ChromeEvent {
            name: name.to_string(),
            ph: Phase::Counter,
            ts,
            dur: None,
            pid: device_pid(device),
            tid: HARNESS_TID,
            args: vec![(key.to_string(), serde_json::json!(value))],
        });
    }

    /// Advances the logical clock to at least `t` (never rewinds).
    pub fn advance_to(&self, t: f64) {
        let mut inner = self.lock();
        inner.now = inner.now.max(t);
    }

    /// Renders the buffered events as a Chrome trace JSON document.
    pub fn to_chrome_json(&self) -> String {
        chrome::render(&self.lock().events)
    }

    /// Writes the Chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Writes the metrics registry to `path`: CSV when the extension is
    /// `csv`, pretty JSON otherwise.
    pub fn write_metrics(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let text = if path.extension().and_then(|e| e.to_str()) == Some("csv") {
            self.metrics.to_csv()
        } else {
            let mut s = serde_json::to_string_pretty(&self.metrics.to_json())
                .expect("metrics serialisation");
            s.push('\n');
            s
        };
        std::fs::write(path, text)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap()
    }

    fn end_span(&self, name: &str) {
        let mut inner = self.lock();
        let ts = inner.now;
        inner.now += 1.0;
        inner.events.push(ChromeEvent {
            name: name.to_string(),
            ph: Phase::End,
            ts,
            dur: None,
            pid: PID,
            tid: HARNESS_TID,
            args: Vec::new(),
        });
    }
}

/// Closes its span when dropped. A no-op guard (no subscriber installed)
/// is a single `Option` test.
pub struct SpanGuard {
    session: Option<(TraceSession, String)>,
}

impl SpanGuard {
    /// A guard that does nothing — what the facade hands out when tracing
    /// is disabled.
    pub fn noop() -> Self {
        SpanGuard { session: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((session, name)) = self.session.take() {
            session.end_span(&name);
        }
    }
}

/// Builds the timeline of one simulated launch: blocks placed on SM lanes
/// wave by wave, counter tracks, and the per-warp cycle histogram.
///
/// The builder buffers locally and takes the session lock only in
/// [`LaunchTimeline::begin_on`] and [`LaunchTimeline::finish`], so the
/// simulator's per-warp hot loop never contends on the session.
pub struct LaunchTimeline {
    session: TraceSession,
    kernel: String,
    /// Lane group the launch renders into.
    pid: u64,
    /// Lane for the launch/wave slices and counter tracks within the
    /// group: harness lane on the host, compute lane on a device.
    lane0: u64,
    t0: f64,
    wave_start: f64,
    num_sms: usize,
    /// Blocks of the current wave: (sm, true cycles, warps).
    wave_blocks: Vec<(usize, f64, u64)>,
    block_seq: u64,
    wave_seq: u64,
    events: Vec<ChromeEvent>,
    warp_hist: Histogram,
    /// Scratch: per-SM placement cursor and per-SM duration sum.
    sm_cursor: Vec<f64>,
}

impl LaunchTimeline {
    /// Starts a timeline for `kernel` at the session's current time.
    /// `device = Some(d)` renders the launch — SM lanes included — inside
    /// simulated GPU `d`'s lane group; `None` keeps the single-device
    /// layout (the host lane group). SM lanes are named on first use so
    /// the trace always carries one lane per SM of the device.
    pub fn begin_on(
        session: &TraceSession,
        kernel: &str,
        num_sms: usize,
        device: Option<u32>,
    ) -> Self {
        let (pid, lane0) = match device {
            Some(d) => (device_pid(d), DEVICE_COMPUTE_TID),
            None => (PID, HARNESS_TID),
        };
        let t0 = {
            let mut inner = session.lock();
            if let Some(d) = device {
                inner.ensure_device_lanes(d);
            }
            inner.ensure_sm_lanes(pid, num_sms);
            inner.now
        };
        LaunchTimeline {
            session: session.clone(),
            kernel: kernel.to_string(),
            pid,
            lane0,
            t0,
            wave_start: t0,
            num_sms,
            wave_blocks: Vec::new(),
            block_seq: 0,
            wave_seq: 0,
            events: Vec::new(),
            warp_hist: Histogram::new(),
            sm_cursor: vec![0.0; num_sms],
        }
    }

    /// Records one warp's modelled cycles (feeds the cycle histogram).
    pub fn record_warp(&mut self, cycles: f64) {
        self.warp_hist.observe(cycles);
    }

    /// Records one block of the current wave: the SM it ran on, its
    /// critical-path cycles and its warp count.
    pub fn record_block(&mut self, sm: usize, cycles: f64, warps: u64) {
        self.wave_blocks.push((sm, cycles, warps));
    }

    /// Closes the current wave. `wave_time` is the wave's modelled
    /// duration; the sector/byte arguments are this wave's deltas and feed
    /// the counter tracks.
    pub fn end_wave(
        &mut self,
        wave_time: f64,
        l2_hit_sectors: u64,
        dram_sectors: u64,
        dram_bytes: u64,
    ) {
        // Wave slice on the group's structural lane, nested under the
        // launch slice.
        self.events.push(ChromeEvent {
            name: format!("wave {}", self.wave_seq),
            ph: Phase::Complete,
            ts: self.wave_start,
            dur: Some(wave_time),
            pid: self.pid,
            tid: self.lane0,
            args: vec![(
                "blocks".to_string(),
                serde_json::json!(self.wave_blocks.len()),
            )],
        });

        // Blocks stack sequentially on their SM lane. An SM's aggregate
        // block time can exceed the wave's modelled duration (the SMT
        // pipeline overlaps resident blocks), so placements are compressed
        // to fit the wave window; true cycles stay in the args.
        self.sm_cursor.fill(0.0);
        let mut sm_total = vec![0.0f64; self.num_sms];
        for &(sm, cycles, _) in &self.wave_blocks {
            sm_total[sm] += cycles;
        }
        for &(sm, cycles, warps) in &self.wave_blocks {
            let scale = if sm_total[sm] > wave_time && sm_total[sm] > 0.0 {
                wave_time / sm_total[sm]
            } else {
                1.0
            };
            let ts = self.wave_start + self.sm_cursor[sm];
            self.sm_cursor[sm] += cycles * scale;
            self.events.push(ChromeEvent {
                name: format!("block {}", self.block_seq),
                ph: Phase::Complete,
                ts,
                dur: Some(cycles * scale),
                pid: self.pid,
                tid: SM_TID_BASE + sm as u64,
                args: vec![
                    ("warps".to_string(), serde_json::json!(warps)),
                    ("cycles".to_string(), serde_json::json!(cycles)),
                ],
            });
            self.block_seq += 1;
        }

        // Counter tracks sampled once per wave.
        let traffic = l2_hit_sectors + dram_sectors;
        let hit_pct = if traffic == 0 {
            0.0
        } else {
            l2_hit_sectors as f64 / traffic as f64 * 100.0
        };
        let bpc = if wave_time > 0.0 {
            dram_bytes as f64 / wave_time
        } else {
            0.0
        };
        for (name, key, value) in [
            ("L2 hit rate", "pct", hit_pct),
            ("DRAM bytes/cycle", "b/cyc", bpc),
        ] {
            self.events.push(ChromeEvent {
                name: name.to_string(),
                ph: Phase::Counter,
                ts: self.wave_start,
                dur: None,
                pid: self.pid,
                tid: self.lane0,
                args: vec![(key.to_string(), serde_json::json!(value))],
            });
        }

        self.wave_start += wave_time;
        self.wave_seq += 1;
        self.wave_blocks.clear();
    }

    /// Flushes the launch into the session: a complete slice spanning the
    /// reported `cycles` on the group's structural lane, all buffered
    /// wave/block/counter events, the warp-cycle histogram into the
    /// metrics registry, and the clock advanced past the launch.
    pub fn finish(self, cycles: f64) {
        let metrics = self.session.metrics.clone();
        metrics.merge_histogram(
            &names::launch_metric(&self.kernel, names::WARP_CYCLES_HIST),
            &self.warp_hist,
        );
        let mut inner = self.session.lock();
        inner.events.push(ChromeEvent {
            name: self.kernel.clone(),
            ph: Phase::Complete,
            ts: self.t0,
            dur: Some(cycles),
            pid: self.pid,
            tid: self.lane0,
            args: vec![("waves".to_string(), serde_json::json!(self.wave_seq))],
        });
        inner.events.extend(self.events);
        inner.now = inner.now.max(self.t0 + cycles + 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_advance_the_clock() {
        let s = TraceSession::new();
        assert_eq!(s.now(), 0.0);
        {
            let _outer = s.span("outer");
            assert_eq!(s.now(), 1.0);
            let _inner = s.span_with("inner", &[("k", serde_json::json!(3u64))]);
            assert_eq!(s.now(), 2.0);
        }
        assert_eq!(s.now(), 4.0); // two end edges
        let doc = serde_json::from_str(&s.to_chrome_json()).unwrap();
        let phases: Vec<String> = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .skip(2) // process_name + harness thread_name metadata
            .map(|e| e["ph"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(phases, ["B", "B", "E", "E"]);
    }

    #[test]
    fn noop_guard_touches_nothing() {
        let _g = SpanGuard::noop();
    }

    #[test]
    fn timeline_places_blocks_and_advances_past_launch() {
        let s = TraceSession::new();
        let mut tl = LaunchTimeline::begin_on(&s, "demo", 2, None);
        tl.record_warp(50.0);
        tl.record_warp(100.0);
        tl.record_block(0, 100.0, 2);
        tl.record_block(1, 40.0, 2);
        tl.end_wave(100.0, 30, 10, 320);
        tl.finish(100.0);
        assert_eq!(s.now(), 101.0);
        let doc = serde_json::from_str(&s.to_chrome_json()).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        // 2 session metadata + 2 SM lanes + launch X + wave X + 2 blocks
        // + 2 counters.
        assert_eq!(events.len(), 10);
        let launch = events
            .iter()
            .find(|e| e["name"].as_str() == Some("demo"))
            .unwrap();
        assert_eq!(launch["dur"].as_u64(), Some(100));
        assert_eq!(launch["pid"].as_u64(), Some(PID));
        // Histogram landed in the registry.
        match s
            .metrics()
            .get("launch.demo.smsp__warp_cycles")
            .expect("warp histogram")
        {
            crate::metrics::Metric::Histogram(h) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.max(), 100.0);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn sm_lanes_are_named_once_across_launches() {
        let s = TraceSession::new();
        LaunchTimeline::begin_on(&s, "a", 4, None).finish(10.0);
        LaunchTimeline::begin_on(&s, "b", 4, None).finish(10.0);
        let doc = serde_json::from_str(&s.to_chrome_json()).unwrap();
        let lanes = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| {
                e["ph"].as_str() == Some("M")
                    && e["args"]["name"]
                        .as_str()
                        .is_some_and(|n| n.starts_with("SM "))
            })
            .count();
        assert_eq!(lanes, 4);
    }

    #[test]
    fn device_launches_render_in_their_own_group() {
        let s = TraceSession::new();
        LaunchTimeline::begin_on(&s, "k0", 2, Some(0)).finish(10.0);
        LaunchTimeline::begin_on(&s, "k1", 2, Some(1)).finish(10.0);
        let doc = serde_json::from_str(&s.to_chrome_json()).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        // Each device names its own process + 2 scheduler lanes + 2 SM
        // lanes (lane metadata is per group, not shared).
        for d in 0u64..2 {
            let pid = DEVICE_PID_BASE_TEST + d;
            assert!(events.iter().any(|e| {
                e["ph"].as_str() == Some("M")
                    && e["pid"].as_u64() == Some(pid)
                    && e["args"]["name"].as_str() == Some(&format!("GPU {d}"))
            }));
            let sm_lanes = events
                .iter()
                .filter(|e| {
                    e["ph"].as_str() == Some("M")
                        && e["pid"].as_u64() == Some(pid)
                        && e["args"]["name"]
                            .as_str()
                            .is_some_and(|n| n.starts_with("SM "))
                })
                .count();
            assert_eq!(sm_lanes, 2);
        }
        let k1 = events
            .iter()
            .find(|e| e["name"].as_str() == Some("k1"))
            .unwrap();
        assert_eq!(k1["pid"].as_u64(), Some(DEVICE_PID_BASE_TEST + 1));
        assert_eq!(k1["tid"].as_u64(), Some(DEVICE_COMPUTE_TID));
    }

    const DEVICE_PID_BASE_TEST: u64 = crate::chrome::DEVICE_PID_BASE;

    #[test]
    fn device_slices_and_counters_land_in_the_group() {
        let s = TraceSession::new();
        s.device_slice(
            3,
            DEVICE_LINK_TID,
            "halo d1→d3",
            100.0,
            250.0,
            &[("bytes", serde_json::json!(4096u64))],
        );
        s.counter(3, names::INTERCONNECT_BYTES, "bytes", 350.0, 4096.0);
        s.advance_to(350.0);
        assert_eq!(s.now(), 350.0);
        s.advance_to(10.0); // never rewinds
        assert_eq!(s.now(), 350.0);
        let doc = serde_json::from_str(&s.to_chrome_json()).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        let halo = events
            .iter()
            .find(|e| e["name"].as_str() == Some("halo d1→d3"))
            .unwrap();
        assert_eq!(halo["pid"].as_u64(), Some(DEVICE_PID_BASE_TEST + 3));
        assert_eq!(halo["tid"].as_u64(), Some(DEVICE_LINK_TID));
        assert_eq!(halo["dur"].as_u64(), Some(250));
        let ctr = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("C"))
            .unwrap();
        assert_eq!(ctr["name"].as_str(), Some(names::INTERCONNECT_BYTES));
        assert_eq!(ctr["args"]["bytes"].as_f64(), Some(4096.0));
        // Lane-group metadata was emitted exactly once despite two calls.
        let titles = events
            .iter()
            .filter(|e| e["args"]["name"].as_str() == Some("GPU 3"))
            .count();
        assert_eq!(titles, 1);
    }

    #[test]
    fn request_slices_get_their_own_lane_group() {
        let s = TraceSession::new();
        s.request_slice(
            7,
            "request 7",
            10.0,
            500.0,
            &[("rows", serde_json::json!(3u64))],
        );
        s.request_slice(7, "queue", 10.0, 40.0, &[]);
        s.request_slice(2, "request 2", 0.0, 80.0, &[]);
        let doc = serde_json::from_str(&s.to_chrome_json()).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        // One "requests" process title, one lane title per request.
        let group_titles = events
            .iter()
            .filter(|e| {
                e["name"].as_str() == Some("process_name")
                    && e["args"]["name"].as_str() == Some("requests")
            })
            .count();
        assert_eq!(group_titles, 1);
        for (req, lane_title) in [(7u64, "request 7"), (2, "request 2")] {
            let lane = events
                .iter()
                .find(|e| {
                    e["name"].as_str() == Some("thread_name")
                        && e["args"]["name"].as_str() == Some(lane_title)
                })
                .unwrap();
            assert_eq!(lane["pid"].as_u64(), Some(crate::chrome::REQUESTS_PID));
            assert_eq!(lane["tid"].as_u64(), Some(crate::chrome::request_tid(req)));
        }
        let top = events
            .iter()
            .find(|e| e["name"].as_str() == Some("request 7") && e["ph"].as_str() == Some("X"))
            .unwrap();
        assert_eq!(top["dur"].as_u64(), Some(500));
        assert_eq!(top["args"]["rows"].as_u64(), Some(3));
        let stage = events
            .iter()
            .find(|e| e["name"].as_str() == Some("queue"))
            .unwrap();
        assert_eq!(stage["tid"], top["tid"]);
        // Absolute timestamps: the session clock was never consulted.
        assert_eq!(s.now(), 0.0);
    }

    #[test]
    fn identical_recordings_export_identical_bytes() {
        let run = || {
            let s = TraceSession::new();
            let _e = s.span("experiment");
            let mut tl = LaunchTimeline::begin_on(&s, "k", 3, None);
            for w in 0..6 {
                tl.record_warp(10.0 * (w + 1) as f64);
            }
            tl.record_block(0, 60.0, 6);
            tl.end_wave(60.0, 5, 5, 160);
            tl.finish(75.0);
            drop(_e);
            s.to_chrome_json()
        };
        assert_eq!(run(), run());
    }
}
