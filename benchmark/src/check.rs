//! `bench check A.json B.json`: compares two result sets written by
//! `bench run --workload all --out`, one verdict per metric and workload.
//!
//! * An end-to-end metric is **regressed** when B's value is worse than A's
//!   by more than the metric's bound, unless the pass-to-pass spread of
//!   either side exceeds the bound or a run was disturbed — then it is
//!   **unresolved**, never "unchanged". A host metric's value comes from
//!   the run's passes (the fastest for the two times, the median for
//!   memory) and its spread is theirs (interquartile range over the
//!   median), read from the samples every run records.
//! * An exact metric (simulated or counted) compared at the same seed must
//!   be equal; any difference is **changed**: a cycle that moves is a
//!   modelling change and has to say so.
//! * `sim_digest` must agree between `sweep` and `sweep-mt` (1 thread ≡ N
//!   threads, engine ≡ engine), between traced and untraced runs, and
//!   between the two sets when their seeds agree.
//!
//! The bounds are the catalog's, which `tests/contract.rs` keeps equal to
//! `BENCHMARK.json`.

use crate::metrics::{end_to_end, per_layer, Better, MetricDef, WORKLOADS};
use crate::run::spread;
use serde_json::Value;
use std::collections::BTreeMap;

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the bound allows, with spread small enough to say so.
    Regressed,
    /// Worse than the bound allows, but the spread or a disturbed run makes
    /// the comparison inconclusive.
    Unresolved,
    /// An exact metric differs at the same seed.
    Changed,
    /// Present in A, absent from B.
    Missing,
}

impl Verdict {
    /// Whether the verdict fails the check.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::Changed | Verdict::Missing
        )
    }
}

/// One metric on one side: what the run reported and what is behind it.
#[derive(Debug, Clone, Default)]
pub struct Side {
    /// The reported value.
    pub value: f64,
    /// The passes the value was taken from (host end-to-end metrics only;
    /// empty for everything else).
    pub passes: Vec<f64>,
    /// The run was marked disturbed.
    pub disturbed: bool,
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (negative = better). A zero baseline cannot be scaled: equal
/// is 0, anything else is infinitely worse or better.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// The verdict for one metric.
pub fn judge(def: &MetricDef, a: &Side, b: Option<&Side>, same_seed: bool) -> Verdict {
    let Some(b) = b else {
        return Verdict::Missing;
    };
    if def.exact && same_seed {
        return if a.value == b.value {
            Verdict::Ok
        } else {
            Verdict::Changed
        };
    }
    let Some(bound) = def.bound else {
        // Per-layer host metrics carry no bound: they explain, they do not gate.
        return Verdict::Ok;
    };
    if worsening(a.value, b.value, def.better) <= bound {
        return Verdict::Ok;
    }
    let noisy =
        spread(&a.passes) > bound || spread(&b.passes) > bound || a.disturbed || b.disturbed;
    if noisy && !def.exact {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

type PerWorkload = BTreeMap<String, BTreeMap<String, Side>>;

struct ResultSet {
    seed: u64,
    metrics: PerWorkload,
    /// Every distinct digest seen per workload.
    digests: BTreeMap<String, Vec<String>>,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))?;
    parse(&v).ok_or_else(|| {
        format!("{path}: not a result set written by `bench run --workload all --out`")
    })
}

fn parse(v: &Value) -> Option<ResultSet> {
    let mut set = ResultSet {
        seed: v.get("seed")?.as_u64()?,
        metrics: BTreeMap::new(),
        digests: BTreeMap::new(),
    };
    for (name, w) in v.get("workloads")?.as_object()?.iter() {
        let metrics = set.metrics.entry(name.clone()).or_default();
        let digests = set.digests.entry(name.clone()).or_default();
        for run in w.get("runs")?.as_array()? {
            let disturbed = run
                .get("disturbed")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            if let Some(d) = run.get("sim_digest").and_then(Value::as_str) {
                if !digests.iter().any(|x| x == d) {
                    digests.push(d.to_string());
                }
            }
            for (metric, entry) in run.get("metrics")?.as_object()?.iter() {
                let passes = run
                    .get("samples")
                    .and_then(|s| s.get(metric))
                    .and_then(Value::as_array)
                    .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default();
                metrics.insert(
                    metric.clone(),
                    Side {
                        value: entry.get("value")?.as_f64()?,
                        passes,
                        disturbed,
                    },
                );
            }
        }
    }
    Some(set)
}

/// Runs the comparison, prints the table, and returns whether it passed.
pub fn check(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let same_seed = a.seed == b.seed;
    let mut failures = 0usize;
    let mut unresolved = 0usize;

    for (label, set) in [(path_a, &a), (path_b, &b)] {
        for (w, ds) in &set.digests {
            if ds.len() > 1 {
                println!("FAIL {label}: {w} sim_digest differs between its runs (traced vs untraced): {ds:?}");
                failures += 1;
            }
        }
        if let (Some(x), Some(y)) = (set.digests.get("sweep"), set.digests.get("sweep-mt")) {
            if x != y {
                println!("FAIL {label}: sweep {x:?} and sweep-mt {y:?} sim_digest differ");
                failures += 1;
            }
        }
    }
    if same_seed {
        for (w, da) in &a.digests {
            if b.digests.get(w).is_some_and(|db| db != da) {
                println!(
                    "FAIL {w}: sim_digest differs between the two sets at seed {}",
                    a.seed
                );
                failures += 1;
            }
        }
    }

    let e2e = end_to_end();
    let layers = per_layer();
    println!(
        "{:<10} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    let none = BTreeMap::new();
    for (w, _) in WORKLOADS {
        let Some(ma) = a.metrics.get(w) else {
            continue;
        };
        let mb = b.metrics.get(w).unwrap_or(&none);
        for def in e2e.iter().chain(&layers) {
            let Some(sa) = ma.get(&def.name) else {
                continue;
            };
            let verdict = judge(def, sa, mb.get(&def.name), same_seed);
            failures += usize::from(verdict.fails());
            unresolved += usize::from(verdict == Verdict::Unresolved);
            // Per-layer rows are printed only when they have something to say.
            if def.bound.is_none() && verdict == Verdict::Ok {
                continue;
            }
            let (va, vb) = (sa.value, mb.get(&def.name).map_or(f64::NAN, |s| s.value));
            println!(
                "{:<10} {:<18} {:>14.6e} {:>14.6e} {:>+8.1}% {:>7}  {:?}",
                w,
                def.name,
                va,
                vb,
                worsening(va, vb, def.better) * 100.0,
                def.bound.map_or("-".to_string(), |b| format!("{b}")),
                verdict
            );
        }
    }
    println!(
        "{} failing, {} unresolved{}",
        failures,
        unresolved,
        if same_seed {
            ""
        } else {
            " (different seeds: exact metrics compared within bounds)"
        }
    );
    Ok(failures == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(bound: f64, better: Better) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s",
            better,
            exact: false,
            bound: Some(bound),
        }
    }

    fn s(value: f64) -> Side {
        Side {
            value,
            ..Side::default()
        }
    }

    #[test]
    fn within_bound_is_ok_beyond_is_regressed() {
        let d = host(0.1, Better::Lower);
        assert_eq!(judge(&d, &s(10.0), Some(&s(10.9)), true), Verdict::Ok);
        assert_eq!(
            judge(&d, &s(10.0), Some(&s(11.5)), true),
            Verdict::Regressed
        );
        assert_eq!(judge(&d, &s(10.0), Some(&s(5.0)), true), Verdict::Ok);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let d = host(0.1, Better::Higher);
        assert_eq!(
            judge(&d, &s(100.0), Some(&s(80.0)), true),
            Verdict::Regressed
        );
        assert_eq!(judge(&d, &s(100.0), Some(&s(130.0)), true), Verdict::Ok);
        assert!((worsening(100.0, 80.0, Better::Higher) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_baselines_do_not_divide() {
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 3.0, Better::Lower), f64::INFINITY);
        assert_eq!(worsening(0.0, 3.0, Better::Higher), f64::NEG_INFINITY);
        let d = host(0.1, Better::Lower);
        assert_eq!(judge(&d, &s(0.0), Some(&s(0.0)), true), Verdict::Ok);
        assert_eq!(judge(&d, &s(0.0), Some(&s(1.0)), true), Verdict::Regressed);
    }

    #[test]
    fn missing_metrics_fail() {
        let d = host(0.1, Better::Lower);
        assert_eq!(judge(&d, &s(1.0), None, true), Verdict::Missing);
        assert!(Verdict::Missing.fails());
    }

    #[test]
    fn wide_pass_spread_or_a_disturbed_run_is_unresolved_not_regressed() {
        let d = host(0.1, Better::Lower);
        let wide = Side {
            value: 11.0,
            passes: vec![8.0, 10.0, 12.0, 14.0],
            disturbed: false,
        };
        let tight = Side {
            value: 13.05,
            passes: vec![13.0, 13.1],
            disturbed: false,
        };
        assert_eq!(judge(&d, &wide, Some(&tight), true), Verdict::Unresolved);
        assert_eq!(
            judge(&d, &s(11.0), Some(&tight), true),
            Verdict::Regressed,
            "tight on both sides: the difference is real"
        );
        let disturbed = Side {
            disturbed: true,
            ..s(12.0)
        };
        assert_eq!(
            judge(&d, &s(10.0), Some(&disturbed), true),
            Verdict::Unresolved
        );
        assert!(!Verdict::Unresolved.fails());
    }

    #[test]
    fn exact_metrics_must_be_equal_at_the_same_seed_only() {
        let d = MetricDef {
            exact: true,
            ..host(0.05, Better::Lower)
        };
        assert_eq!(judge(&d, &s(100.0), Some(&s(100.0)), true), Verdict::Ok);
        // Even an improvement is a modelling change.
        assert_eq!(judge(&d, &s(100.0), Some(&s(99.0)), true), Verdict::Changed);
        // Across seeds the inputs differ, so the bound applies instead.
        assert_eq!(judge(&d, &s(100.0), Some(&s(103.0)), false), Verdict::Ok);
        assert_eq!(
            judge(&d, &s(100.0), Some(&s(110.0)), false),
            Verdict::Regressed
        );
    }

    #[test]
    fn unbounded_host_rows_never_gate() {
        let d = MetricDef {
            bound: None,
            ..host(0.0, Better::Lower)
        };
        assert_eq!(judge(&d, &s(1.0), Some(&s(9.0)), true), Verdict::Ok);
    }

    #[test]
    fn result_sets_parse_with_their_pass_samples_and_digests() {
        let v = serde_json::from_str(
            r#"{"seed": 1, "workloads": {"sweep": {"runs": [
                {"sim_digest": "0x1", "disturbed": true,
                 "samples": {"wall_s": [2.0, 3.0, 2.5]},
                 "metrics": {"wall_s": {"value": 2.5, "unit": "s"},
                             "sim_cycles": {"value": 7.0, "unit": "cycles"}}},
                {"sim_digest": "0x1", "disturbed": false,
                 "metrics": {"sim.launches": {"value": 3.0, "unit": "count"}}}
            ]}}}"#,
        )
        .unwrap();
        let set = parse(&v).unwrap();
        assert_eq!(set.seed, 1);
        assert_eq!(set.digests["sweep"], ["0x1"]);
        let wall = &set.metrics["sweep"]["wall_s"];
        assert_eq!((wall.value, wall.disturbed), (2.5, true));
        assert_eq!(wall.passes, [2.0, 3.0, 2.5]);
        assert!(set.metrics["sweep"]["sim_cycles"].passes.is_empty());
        assert!(!set.metrics["sweep"]["sim.launches"].disturbed);
    }
}
