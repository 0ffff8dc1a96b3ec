//! `perfdiff` — a per-metric performance-regression gate.
//!
//! Compares two performance snapshots — any JSON artefact this repository
//! emits (`BENCH_repro.json`, a `--json` view, a `--metrics` registry
//! export) — metric by metric instead of collapsing a run into one scalar:
//!
//! 1. Both documents are flattened to dotted-path → scalar-leaf maps
//!    ([`flatten`]). Arrays key their elements by an identifying string
//!    field (`experiment`, `kernel`, `name`, `id`, `graph`) when present,
//!    by index otherwise, so reordering a result list does not shuffle the
//!    diff; the second and later elements sharing one key value are
//!    `value#2`, `value#3`, … so no element hides another.
//! 2. Every path in the union is classified ([`Status`]): present in both
//!    and within tolerance → `Pass`; beyond tolerance in the bad direction
//!    → `Regressed`; beyond it in the good direction → `Improved`; only in
//!    the new snapshot → `New` (reported, not failing); only in the old →
//!    `Vanished` (failing — a silently dropped metric is how regressions
//!    hide). A string, boolean or null leaf has no magnitude for a
//!    tolerance to absorb: any change of one is `Regressed`.
//! 3. The verdict is the worst status: `Regressed` or `Vanished` anywhere
//!    fails the gate.
//!
//! Direction matters: most metrics are costs (seconds, cycles, bytes)
//! where bigger is worse, but rates like `hit_rate`, `throughput`,
//! `occupancy`, `utilization` and `headroom` invert
//! ([`higher_is_better`]). Host-describing segments (`host`, `threads`)
//! are excluded — the machine the snapshot was taken on is provenance, not
//! performance.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Default relative tolerance: a metric may move 25 % before the gate
/// reacts (wall-clock noise on shared CI machines is real).
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Parses a `--tolerance` value: a finite fraction ≥ 0, else `None` (under
/// NaN or ±∞ every comparison would pass).
pub fn parse_tolerance(text: &str) -> Option<f64> {
    text.parse()
        .ok()
        .filter(|t: &f64| t.is_finite() && *t >= 0.0)
}

/// Absolute floor: at a tolerance above 0, when two values differ by less
/// than this, the pair passes regardless of relative movement. Absorbs
/// 0.01 s → 0.02 s style noise on near-zero timings that a relative
/// threshold would flag as a 2× regression.
pub const ABS_FLOOR: f64 = 0.05;

/// Dotted-path segments that describe the host rather than the run; paths
/// containing one are dropped before comparison so snapshots from
/// different machines (or thread counts) stay comparable.
pub const EXCLUDED_SEGMENTS: [&str; 2] = ["host", "threads"];

/// Metric-name fragments for which bigger is better; everything else is
/// treated as a cost.
const HIGHER_IS_BETTER: [&str; 5] = [
    "hit_rate",
    "throughput",
    "utilization",
    "occupancy",
    "headroom",
];

/// Whether movement upward in `path` is an improvement.
pub fn higher_is_better(path: &str) -> bool {
    HIGHER_IS_BETTER.iter().any(|frag| path.contains(frag))
}

/// Array elements key themselves by the first of these string fields they
/// carry; result tables stay addressable when their order changes.
const KEY_FIELDS: [&str; 5] = ["experiment", "kernel", "name", "id", "graph"];

/// One metric's comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Present in both snapshots, within tolerance.
    Pass,
    /// Moved beyond tolerance in the good direction.
    Improved,
    /// Moved beyond tolerance in the bad direction.
    Regressed,
    /// Only in the new snapshot (reported, never failing).
    New,
    /// Only in the old snapshot (failing: a metric that stops being
    /// reported is an unreviewable change).
    Vanished,
}

impl Status {
    /// Stable lowercase name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Status::Pass => "pass",
            Status::Improved => "improved",
            Status::Regressed => "regressed",
            Status::New => "new",
            Status::Vanished => "vanished",
        }
    }

    /// Whether this status fails the gate.
    pub fn failing(self) -> bool {
        matches!(self, Status::Regressed | Status::Vanished)
    }
}

/// One scalar leaf of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// A number, judged against the tolerance.
    Number(f64),
    /// A string, boolean or null, judged by equality.
    Exact(Value),
}

impl Leaf {
    fn number(&self) -> Option<f64> {
        match self {
            Leaf::Number(v) => Some(*v),
            Leaf::Exact(_) => None,
        }
    }

    fn to_json(&self) -> Value {
        match self {
            Leaf::Number(v) => json!(v),
            Leaf::Exact(v) => v.clone(),
        }
    }
}

impl std::fmt::Display for Leaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Leaf::Number(v) => write!(f, "{v:.4}"),
            Leaf::Exact(v) => write!(f, "{v}"),
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Dotted metric path.
    pub path: String,
    /// Value in the old snapshot, if present.
    pub old: Option<Leaf>,
    /// Value in the new snapshot, if present.
    pub new: Option<Leaf>,
    /// Comparison outcome.
    pub status: Status,
}

impl Entry {
    /// `new / old` when both are numbers and old is non-zero.
    pub fn ratio(&self) -> Option<f64> {
        let old = self.old.as_ref()?.number()?;
        let new = self.new.as_ref()?.number()?;
        (old != 0.0).then(|| new / old)
    }
}

/// The full diff: every compared path plus the tolerance it was judged
/// under.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Relative tolerance the comparison used.
    pub tolerance: f64,
    /// One entry per union path, in sorted path order.
    pub entries: Vec<Entry>,
}

impl DiffReport {
    /// Entries that fail the gate.
    pub fn failing(&self) -> Vec<&Entry> {
        self.entries.iter().filter(|e| e.status.failing()).collect()
    }

    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failing().is_empty()
    }

    fn count(&self, status: Status) -> usize {
        self.entries.iter().filter(|e| e.status == status).count()
    }

    /// Human-readable report: verdict, counts, and every non-`Pass` entry.
    pub fn render(&self) -> String {
        let mut out = format!(
            "perfdiff: {} metric(s) compared, tolerance ±{:.0}%\n",
            self.entries.len(),
            self.tolerance * 100.0
        );
        out.push_str(&format!(
            "  pass {}  improved {}  regressed {}  new {}  vanished {}\n",
            self.count(Status::Pass),
            self.count(Status::Improved),
            self.count(Status::Regressed),
            self.count(Status::New),
            self.count(Status::Vanished),
        ));
        for e in &self.entries {
            if e.status == Status::Pass {
                continue;
            }
            let fmt = |v: &Option<Leaf>| match v {
                Some(v) => v.to_string(),
                None => "-".to_string(),
            };
            let ratio = match e.ratio() {
                Some(r) => format!(" ({r:.2}x)"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  [{}] {}: {} -> {}{}\n",
                e.status.label(),
                e.path,
                fmt(&e.old),
                fmt(&e.new),
                ratio
            ));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Machine-readable report (the `--report` artefact): summary counts
    /// plus every non-`Pass` entry.
    pub fn to_json(&self) -> Value {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .filter(|e| e.status != Status::Pass)
            .map(|e| {
                json!({
                    "metric": e.path.as_str(),
                    "old": e.old.as_ref().map(Leaf::to_json),
                    "new": e.new.as_ref().map(Leaf::to_json),
                    "ratio": e.ratio(),
                    "status": e.status.label(),
                })
            })
            .collect();
        json!({
            "schema": "hpsparse-perfdiff-v1",
            "tolerance": self.tolerance,
            "passed": self.passed(),
            "summary": json!({
                "compared": self.entries.len() as u64,
                "pass": self.count(Status::Pass) as u64,
                "improved": self.count(Status::Improved) as u64,
                "regressed": self.count(Status::Regressed) as u64,
                "new": self.count(Status::New) as u64,
                "vanished": self.count(Status::Vanished) as u64,
            }),
            "entries": Value::Array(entries),
        })
    }
}

/// Flattens a JSON document into dotted-path → scalar-leaf pairs, skipping
/// any path with a segment in [`EXCLUDED_SEGMENTS`].
pub fn flatten(doc: &Value) -> BTreeMap<String, Leaf> {
    let mut out = BTreeMap::new();
    walk(doc, String::new(), &mut out);
    out
}

fn walk(v: &Value, prefix: String, out: &mut BTreeMap<String, Leaf>) {
    match v {
        Value::Object(map) => {
            for (k, child) in map.iter() {
                if EXCLUDED_SEGMENTS.contains(&k.as_str()) {
                    continue;
                }
                walk(child, join(&prefix, k), out);
            }
        }
        Value::Array(items) => {
            let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
            for (i, child) in items.iter().enumerate() {
                let key = match KEY_FIELDS
                    .iter()
                    .find_map(|f| child.get(f).and_then(Value::as_str))
                {
                    Some(id) => {
                        let n = seen.entry(id).or_insert(0);
                        *n += 1;
                        if *n == 1 {
                            id.to_string()
                        } else {
                            format!("{id}#{n}")
                        }
                    }
                    None => i.to_string(),
                };
                walk(child, join(&prefix, &key), out);
            }
        }
        _ if prefix.is_empty() => {}
        _ => {
            let leaf = v
                .as_f64()
                .map_or_else(|| Leaf::Exact(v.clone()), Leaf::Number);
            out.insert(prefix, leaf);
        }
    }
}

fn join(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

/// Classifies one present-in-both pair of leaves: numbers by [`classify`],
/// anything else by equality.
fn classify_leaf(path: &str, old: &Leaf, new: &Leaf, tolerance: f64) -> Status {
    match (old, new) {
        (Leaf::Number(o), Leaf::Number(n)) => classify(path, *o, *n, tolerance),
        _ if old == new => Status::Pass,
        _ => Status::Regressed,
    }
}

/// Classifies one present-in-both pair. At tolerance 0 every move counts:
/// [`ABS_FLOOR`] applies only to a tolerance above 0.
fn classify(path: &str, old: f64, new: f64, tolerance: f64) -> Status {
    if new == old || (tolerance > 0.0 && (new - old).abs() < ABS_FLOOR) {
        return Status::Pass;
    }
    let good_up = higher_is_better(path);
    if old == 0.0 {
        // Relative movement is undefined; any above-floor appearance of a
        // cost where there was none is a regression.
        return if (new > 0.0) == good_up {
            Status::Improved
        } else {
            Status::Regressed
        };
    }
    let rel = (new - old) / old.abs();
    if rel > tolerance {
        if good_up {
            Status::Improved
        } else {
            Status::Regressed
        }
    } else if rel < -tolerance {
        if good_up {
            Status::Regressed
        } else {
            Status::Improved
        }
    } else {
        Status::Pass
    }
}

/// Diffs two snapshots under a relative `tolerance`.
pub fn diff(old: &Value, new: &Value, tolerance: f64) -> DiffReport {
    let old_flat = flatten(old);
    let new_flat = flatten(new);
    let mut paths: Vec<&String> = old_flat.keys().chain(new_flat.keys()).collect();
    paths.sort_unstable();
    paths.dedup();
    let entries = paths
        .into_iter()
        .map(|path| {
            let (o, n) = (old_flat.get(path).cloned(), new_flat.get(path).cloned());
            let status = match (&o, &n) {
                (Some(o), Some(n)) => classify_leaf(path, o, n, tolerance),
                (Some(_), None) => Status::Vanished,
                (None, Some(_)) => Status::New,
                (None, None) => unreachable!("path came from one of the maps"),
            };
            Entry {
                path: path.clone(),
                old: o,
                new: n,
                status,
            }
        })
        .collect();
    DiffReport { tolerance, entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tolerance_is_a_finite_fraction_at_least_zero() {
        assert_eq!(parse_tolerance("0"), Some(0.0));
        assert_eq!(parse_tolerance("0.25"), Some(0.25));
        for refused in ["nan", "inf", "-0.1", "abc"] {
            assert_eq!(parse_tolerance(refused), None, "{refused}");
        }
    }

    #[test]
    fn flatten_keys_arrays_by_identity_field_and_skips_host_segments() {
        let doc = json!({
            "total_seconds": 12.5,
            "host": json!({ "cores": 64 }),
            "results": json!([
                json!({ "kernel": "hp-spmm", "cycles": 100 }),
                json!({ "cycles": 7 }),
                json!({ "kernel": "hp-spmm", "cycles": 300 }),
            ]),
            "label": "quick",
            "lossless": true,
        });
        let flat = flatten(&doc);
        let number = |path: &str| flat.get(path).and_then(Leaf::number);
        assert_eq!(number("total_seconds"), Some(12.5));
        assert_eq!(number("results.hp-spmm.cycles"), Some(100.0));
        assert_eq!(number("results.1.cycles"), Some(7.0));
        assert_eq!(number("results.hp-spmm#2.cycles"), Some(300.0));
        assert_eq!(flat.get("label"), Some(&Leaf::Exact(json!("quick"))));
        assert_eq!(flat.get("lossless"), Some(&Leaf::Exact(json!(true))));
        assert!(!flat.keys().any(|k| k.contains("host")), "{flat:?}");
    }

    /// A committed view whose first cell changes only its plan choice —
    /// a string and a boolean, in the first of two cells keyed by the same
    /// graph — fails at tolerance 0, naming both leaves.
    #[test]
    fn a_moved_string_or_boolean_fails_and_is_named() {
        let committed = include_str!("../../../results/quick/fused-mha.json");
        let first = "\"plan_pick\": \"hp-fused-mha:auto\",\n      \"plan_match\": true";
        assert!(committed.contains(first), "the view's layout moved");
        let flipped = committed.replacen(
            first,
            "\"plan_pick\": \"no-fuse\",\n      \"plan_match\": false",
            1,
        );
        let old: Value = serde_json::from_str(committed).unwrap();
        let new: Value = serde_json::from_str(&flipped).unwrap();
        assert!(diff(&old, &old, 0.0).passed());
        let d = diff(&old, &new, 0.0);
        let failing: Vec<&str> = d.failing().iter().map(|e| e.path.as_str()).collect();
        assert_eq!(
            failing,
            ["cells.Flickr.plan_match", "cells.Flickr.plan_pick"],
            "{}",
            d.render()
        );
        let report = d.render();
        assert!(report.contains("verdict: FAIL"), "{report}");
        assert!(
            report.contains(
                "[regressed] cells.Flickr.plan_pick: \"hp-fused-mha:auto\" -> \"no-fuse\""
            ),
            "{report}"
        );
        assert!(
            report.contains("[regressed] cells.Flickr.plan_match: true -> false"),
            "{report}"
        );
    }

    #[test]
    fn seeded_regression_fails_and_improvement_passes() {
        let old = json!({ "runs": json!({ "a": json!({ "total_seconds": 100.0 }) }) });
        let worse = json!({ "runs": json!({ "a": json!({ "total_seconds": 200.0 }) }) });
        let better = json!({ "runs": json!({ "a": json!({ "total_seconds": 40.0 }) }) });

        let d = diff(&old, &worse, 0.5);
        assert!(!d.passed());
        assert_eq!(d.failing()[0].path, "runs.a.total_seconds");
        assert_eq!(d.failing()[0].status, Status::Regressed);
        assert!(d.render().contains("verdict: FAIL"));

        let d = diff(&old, &better, 0.5);
        assert!(d.passed());
        assert_eq!(d.entries[0].status, Status::Improved);
    }

    #[test]
    fn direction_inverts_for_rate_metrics() {
        let old = json!({ "l2.hit_rate": 0.9, "throughput_rps": 1000.0 });
        let new = json!({ "l2.hit_rate": 0.3, "throughput_rps": 400.0 });
        let d = diff(&old, &new, 0.25);
        assert_eq!(d.failing().len(), 2, "{}", d.render());
        assert!(d.entries.iter().all(|e| e.status == Status::Regressed));
        // And the reverse direction is an improvement, not a regression.
        let d = diff(&new, &old, 0.25);
        assert!(d.passed());
    }

    #[test]
    fn vanished_fails_new_reports() {
        let old = json!({ "a": 1.0, "b": 2.0 });
        let new = json!({ "a": 1.0, "c": 3.0 });
        let d = diff(&old, &new, 0.25);
        let by_path = |p: &str| d.entries.iter().find(|e| e.path == p).unwrap().status;
        assert_eq!(by_path("b"), Status::Vanished);
        assert_eq!(by_path("c"), Status::New);
        assert!(!d.passed());
        assert_eq!(d.failing().len(), 1);
    }

    #[test]
    fn tiny_absolute_noise_passes_despite_large_relative_movement() {
        let old = json!({ "experiments.profile.seconds": 0.01 });
        let new = json!({ "experiments.profile.seconds": 0.04 });
        assert!(diff(&old, &new, 0.25).passed(), "4x but under ABS_FLOOR");
        let new = json!({ "experiments.profile.seconds": 0.30 });
        assert!(!diff(&old, &new, 0.25).passed());
    }

    #[test]
    fn tolerance_zero_fails_a_move_under_the_absolute_floor() {
        let old = json!({ "report": json!({ "latency_ms": json!({ "p50": 0.2949 }) }) });
        let new = json!({ "report": json!({ "latency_ms": json!({ "p50": 0.3349 }) }) });
        let d = diff(&old, &new, 0.0);
        assert_eq!(d.failing().len(), 1, "{}", d.render());
        assert_eq!(d.failing()[0].path, "report.latency_ms.p50");
        assert_eq!(d.failing()[0].status, Status::Regressed);
        assert!(diff(&old, &old, 0.0).passed());
    }

    #[test]
    fn golden_report_json() {
        let old = json!({ "total_seconds": 10.0, "gone": 5.0 });
        let new = json!({ "total_seconds": 20.0, "fresh": 1.0 });
        let report = diff(&old, &new, 0.25).to_json();
        let golden = json!({
            "schema": "hpsparse-perfdiff-v1",
            "tolerance": 0.25,
            "passed": false,
            "summary": json!({
                "compared": 3,
                "pass": 0,
                "improved": 0,
                "regressed": 1,
                "new": 1,
                "vanished": 1,
            }),
            "entries": json!([
                json!({
                    "metric": "fresh",
                    "old": Value::Null,
                    "new": 1.0,
                    "ratio": Value::Null,
                    "status": "new",
                }),
                json!({
                    "metric": "gone",
                    "old": 5.0,
                    "new": Value::Null,
                    "ratio": Value::Null,
                    "status": "vanished",
                }),
                json!({
                    "metric": "total_seconds",
                    "old": 10.0,
                    "new": 20.0,
                    "ratio": 2.0,
                    "status": "regressed",
                }),
            ]),
        });
        assert_eq!(
            report,
            golden,
            "{}",
            serde_json::to_string_pretty(&report).unwrap()
        );
    }
}
