//! In-memory span recorder for the traced run.
//!
//! Every layer boundary the benchmark crosses — a call into a crate's
//! public function — is wrapped in [`span`]. While the recorder is off
//! (every untraced pass) a span costs one relaxed atomic load and takes no
//! timestamp, so end-to-end metrics are measured without instrumentation.
//! While it is on, a span stores name, start, end, parent and the op it
//! belongs to; a layer's host time is its spans' *self* time (duration
//! minus the part covered by child spans on the same thread).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-call name, e.g. `datasets.generate` or `core.gespmm.host`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Operation the call belongs to (launch, phase or rung index).
    pub op: u64,
    /// Work count taken at the same boundary (edges, requests, …).
    pub count: u64,
    /// Small per-thread id, stable within the process.
    pub tid: u64,
}

struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Turns recording on or off. Called between passes only, never while a
/// span is open.
pub fn set_enabled(on: bool) {
    // Relaxed: the flag publishes no data; passes are separated by joins.
    recorder().on.store(on, Ordering::Relaxed);
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span around a layer call.
pub fn span(name: &str, op: u64, count: u64) -> Guard {
    let r = recorder();
    if !r.on.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let tid = TID.with(|t| *t);
    let mut spans = r.spans.lock().expect("no span holder panics");
    let id = spans.len();
    spans.push(Span {
        name: name.to_string(),
        start_ns: r.epoch.elapsed().as_nanos() as u64,
        end_ns: 0,
        parent,
        op,
        count,
        tid,
    });
    drop(spans);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard(Some(id))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            let r = recorder();
            let end = r.epoch.elapsed().as_nanos() as u64;
            STACK.with(|s| s.borrow_mut().pop());
            if let Ok(mut spans) = r.spans.lock() {
                spans[id].end_ns = end;
            }
        }
    }
}

/// Removes and returns every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *recorder().spans.lock().expect("no span holder panics"))
}

/// Per-name totals over one pass's spans.
#[derive(Debug, Default, Clone)]
pub struct Fold {
    /// Seconds of self time per span name.
    pub self_s: BTreeMap<String, f64>,
    /// Seconds of total (inclusive) time per span name.
    pub total_s: BTreeMap<String, f64>,
}

impl Fold {
    /// Self seconds of `name` (0 when the layer was never called).
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Inclusive seconds of `name`.
    pub fn total_of(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    /// Inclusive seconds summed over every name starting with `prefix`.
    pub fn total_with_prefix(&self, prefix: &str) -> f64 {
        self.total_s
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Folds spans into per-name self/total time. A child subtracts from its
/// parent only when both ran on the same thread: work fanned out to the
/// pool overlaps its parent instead of nesting inside it.
pub fn fold(spans: &[Span]) -> Fold {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].tid == s.tid {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
    }
    let mut f = Fold::default();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let own = dur.saturating_sub(child_ns[i]);
        *f.self_s.entry(s.name.clone()).or_default() += own as f64 * 1e-9;
        *f.total_s.entry(s.name.clone()).or_default() += dur as f64 * 1e-9;
    }
    f
}

/// Renders spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"count\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.tid,
            s.op,
            s.count
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &str, start: u64, end: u64, parent: Option<usize>, tid: u64) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            count: 1,
            tid,
        }
    }

    #[test]
    fn self_time_is_span_minus_same_thread_children() {
        let spans = vec![
            sp("phase", 0, 1_000, None, 0),
            sp("call", 100, 400, Some(0), 0),
            sp("call", 500, 700, Some(0), 0),
            // A pool thread's span overlaps the parent; it does not nest.
            sp("call", 100, 900, Some(0), 1),
        ];
        let f = fold(&spans);
        assert!((f.self_of("phase") - 500e-9).abs() < 1e-15);
        assert!((f.total_of("phase") - 1_000e-9).abs() < 1e-15);
        assert!((f.self_of("call") - 1_300e-9).abs() < 1e-15);
        assert_eq!(f.self_of("never"), 0.0);
    }

    #[test]
    fn chrome_export_is_one_complete_event_per_span() {
        let spans = vec![
            sp("a.b", 0, 2_000, None, 0),
            sp("c", 500, 1_500, Some(0), 0),
        ];
        let text = chrome_json(&spans);
        let v = serde_json::from_str(&text).expect("valid JSON");
        let ev = v["traceEvents"].as_array().unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1]["args"]["parent"].as_i64(), Some(0));
        assert_eq!(ev[0]["ph"].as_str(), Some("X"));
    }
}
