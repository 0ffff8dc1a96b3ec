//! `verify` — the memory-safety experiment: static proof plus dynamic
//! sweep, one row per kernel.
//!
//! Kernels: every catalogue kernel's symbolic plans (for HP kernels, every
//! configuration a planner can pick) run through the `hpsparse-verify`
//! abstract interpreter, which returns a three-valued verdict per checker —
//! `Proved`, `Refuted(counterexample)`, or `Unknown` — aggregated
//! worst-over-variant. The same kernel's cost walk then runs on every
//! full-graph registry dataset with an `hpsparse-sanitize` sink attached —
//! the repo's analogue of running `compute-sanitizer --tool <each>` over
//! the benchmark suite. A kernel passes when it is dynamically clean on
//! every graph and not statically refuted; the prover's verdict never
//! excuses a dynamic violation.
//!
//! Mutants: each seeded mutant of `hpsparse_core::mutants` must be
//! statically refuted by exactly the checker its defect targets *and*
//! flagged dynamically by exactly that checker on the mutant test graph —
//! proving both detectors fire and do not bleed into each other.
//!
//! [`failures`] is the gate; [`run`] panics when it names anything.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::registry_graphs;
use crate::table;
use hpsparse_core::catalog::{Row, KERNELS};
use hpsparse_core::mutants;
use hpsparse_sanitize::{sanitize_run, Report};
use hpsparse_sim::{DeviceSpec, Property, SymbolicPlan};
use hpsparse_verify::{verify_plan, CheckVerdict};
use serde_json::{json, ToJson};

/// Feature dimension of the dynamic runs: large enough to exercise
/// vectorized access paths, small enough to bound per-lane event volume.
const K: usize = 32;

/// Edge cap for the dynamic sweep. Gather-heavy kernels emit one event per
/// lane, so the sweep uses tighter caps than the shared
/// [`Effort::max_edges`] to keep the kernel × registry product fast.
fn edge_cap(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 8_000,
        Effort::Full => 40_000,
    }
}

/// Worst-over-variant aggregate for one checker on one kernel.
pub struct CheckAgg {
    /// The worst verdict across every plan variant.
    pub verdict: CheckVerdict,
    /// The variant that produced it.
    pub variant: String,
}

/// One kernel's row: static verdicts over its planner variants, and the
/// dynamic sanitizer's totals over every registry graph.
pub struct KernelVerdict {
    /// Catalogue id.
    pub id: String,
    /// Symbolic plans examined.
    pub plans: usize,
    /// Worst bounds verdict.
    pub bounds: CheckAgg,
    /// Worst race verdict.
    pub race: CheckAgg,
    /// Worst init verdict.
    pub init: CheckAgg,
    /// Graphs the kernel ran on.
    pub graphs: usize,
    /// The sanitizer's totals across those graphs; `examples` keeps the
    /// first few violations, their kernel label suffixed `on <graph>`.
    pub dynamic: Report,
    /// Names of graphs with any violation.
    pub failing_graphs: Vec<String>,
}

impl KernelVerdict {
    fn checks(&self) -> [&CheckAgg; 3] {
        [&self.bounds, &self.race, &self.init]
    }

    /// All three checkers statically proved on every variant?
    pub fn fully_proved(&self) -> bool {
        self.checks().iter().all(|c| c.verdict.is_proved())
    }

    /// Dynamically clean on every graph and not statically refuted?
    pub fn passed(&self) -> bool {
        self.dynamic.passed() && !self.checks().iter().any(|c| c.verdict.is_refuted())
    }
}

/// `Refuted` dominates `Unknown` dominates `Proved`.
fn severity(v: &CheckVerdict) -> u8 {
    match v {
        CheckVerdict::Proved => 0,
        CheckVerdict::Unknown { .. } => 1,
        CheckVerdict::Refuted(_) => 2,
    }
}

/// The worst verdict per checker over `plans`.
fn aggregate(id: &str, plans: &[SymbolicPlan]) -> [CheckAgg; 3] {
    assert!(!plans.is_empty(), "{id}: no symbolic plans emitted");
    let mut worst: [Option<CheckAgg>; 3] = [None, None, None];
    for plan in plans {
        let v = verify_plan(plan);
        for (slot, kind) in worst.iter_mut().zip(Property::ALL) {
            let verdict = v.check(kind);
            let replace = slot
                .as_ref()
                .map(|agg| severity(verdict) > severity(&agg.verdict))
                .unwrap_or(true);
            if replace {
                *slot = Some(CheckAgg {
                    verdict: verdict.clone(),
                    variant: plan.variant.clone(),
                });
            }
        }
        hpsparse_trace::counter_add("verify.plans", 1);
    }
    worst.map(|slot| slot.expect("plans is non-empty"))
}

/// Adds one graph's sanitizer report into `verdict`.
fn fold(verdict: &mut KernelVerdict, graph: &str, report: &Report) {
    let total = &mut verdict.dynamic;
    verdict.graphs += 1;
    total.launches += report.launches;
    total.events += report.events;
    total.memcheck += report.memcheck;
    total.racecheck += report.racecheck;
    total.initcheck += report.initcheck;
    hpsparse_trace::counter_add("sanitize.launches", report.launches);
    hpsparse_trace::counter_add("sanitize.events", report.events);
    hpsparse_trace::counter_add("sanitize.violations.memcheck", report.memcheck);
    hpsparse_trace::counter_add("sanitize.violations.racecheck", report.racecheck);
    hpsparse_trace::counter_add("sanitize.violations.initcheck", report.initcheck);
    if !report.passed() {
        verdict.failing_graphs.push(graph.to_string());
        for v in report.examples.iter().take(2) {
            if total.examples.len() < 6 {
                let mut v = v.clone();
                v.kernel = format!("{} on {graph}", v.kernel);
                total.examples.push(v);
            }
        }
    }
}

/// Every catalogue kernel's row: the static verdicts over all its planner
/// variants, then its cost walk on every registry graph (capped at 8 000
/// edges quick, 40 000 full), one fresh sanitized simulator per graph.
/// The sink sees the cost walk's accesses, which are the full run's.
pub fn collect(device: &DeviceSpec, effort: Effort) -> Vec<KernelVerdict> {
    let graphs = registry_graphs(edge_cap(effort));

    let verdict_of = |row: &Row| {
        let id = row.id;
        let (plans, [bounds, race, init]) = {
            let _span = hpsparse_trace::span(&format!("verify:{id}"));
            let plans: Vec<SymbolicPlan> = row
                .planner_variants()
                .iter()
                .flat_map(|v| v.symbolic_plans())
                .collect();
            let checks = aggregate(id, &plans);
            if checks.iter().all(|c| c.verdict.is_proved()) {
                hpsparse_trace::counter_add("verify.proved", 1);
            }
            (plans.len(), checks)
        };
        let mut verdict = KernelVerdict {
            id: id.to_string(),
            plans,
            bounds,
            race,
            init,
            graphs: 0,
            dynamic: Report::default(),
            failing_graphs: Vec::new(),
        };
        let _span = hpsparse_trace::span_with(
            &format!("sanitize:{id}"),
            &[("graphs", json!(graphs.len()))],
        );
        for (graph, s) in &graphs {
            let report = sanitize_run(device.clone(), |sim| {
                row.auto(device, s, K)
                    .cost_on(sim, s, K)
                    .unwrap_or_else(|e| panic!("{id} on {graph}: {e:?}"));
            });
            fold(&mut verdict, graph, &report);
        }
        verdict
    };
    KERNELS.iter().map(verdict_of).collect()
}

/// One mutant's row: its static verdict and what the sanitizer saw.
pub struct MutantVerdict {
    /// Mutant kernel name.
    pub name: String,
    /// The property its seeded bug violates.
    pub defect: Property,
    /// The static verdict on the targeted check.
    pub verdict: CheckVerdict,
    /// No *other* static check refuted (defects must not bleed).
    pub others_clean: bool,
    /// The sanitizer's report on the mutant test graph.
    pub report: Report,
}

impl MutantVerdict {
    /// Flagged dynamically by the intended checker and by nothing else?
    pub fn exactly_intended(&self) -> bool {
        Property::ALL
            .into_iter()
            .all(|p| (self.report.count(p) > 0) == (p == self.defect))
    }

    /// Statically refuted on exactly the intended check, and flagged
    /// dynamically by exactly the intended checker?
    pub fn caught(&self) -> bool {
        self.verdict.is_refuted() && self.others_clean && self.exactly_intended()
    }

    /// First example violation (kernel + address attribution).
    fn example(&self) -> String {
        let first = self.report.examples.first();
        first.map_or_else(|| "none".into(), |v| v.to_string())
    }
}

/// Verifies every seeded mutant's plan statically and runs its cost walk
/// under the sanitizer on the mutant test graph.
pub fn collect_mutants(device: &DeviceSpec) -> Vec<MutantVerdict> {
    let s = mutants::mutant_test_graph();
    mutants::all_mutants()
        .into_iter()
        .map(|(defect, m)| {
            let plans = m.symbolic_plans();
            assert_eq!(plans.len(), 1, "{}: one plan expected", m.name());
            let v = {
                let _span = hpsparse_trace::span("verify:mutants");
                verify_plan(&plans[0])
            };
            let report = {
                let _span = hpsparse_trace::span("sanitize:mutants");
                sanitize_run(device.clone(), |sim| {
                    m.cost_on(sim, &s, K).expect("mutants run");
                })
            };
            MutantVerdict {
                name: m.name().to_string(),
                defect,
                verdict: v.check(defect).clone(),
                others_clean: Property::ALL
                    .into_iter()
                    .filter(|p| *p != defect)
                    .all(|p| !v.check(p).is_refuted()),
                report,
            }
        })
        .collect()
}

/// The gate: every kernel that fails ([`KernelVerdict::passed`]) and every
/// mutant not caught ([`MutantVerdict::caught`]), by name. Empty means the
/// experiment passes.
pub fn failures(kernels: &[KernelVerdict], mutants: &[MutantVerdict]) -> Vec<String> {
    let kernels = kernels.iter().filter(|v| !v.passed()).map(|v| &v.id);
    let mutants = mutants.iter().filter(|m| !m.caught()).map(|m| &m.name);
    kernels.chain(mutants).cloned().collect()
}

/// Runs both parts, renders one table each, and panics (after rendering)
/// when the gate names a failing kernel or mutant.
pub fn run(device: &DeviceSpec, effort: Effort) -> ExperimentOutput {
    let verdicts = collect(device, effort);
    let mutant_verdicts = collect_mutants(device);
    let out = render(device, effort, &verdicts, &mutant_verdicts);
    let failing = failures(&verdicts, &mutant_verdicts);
    assert!(
        failing.is_empty(),
        "verify gate failed on {failing:?}\n{}",
        out.text
    );
    out
}

fn check_cell(agg: &CheckAgg) -> String {
    match &agg.verdict {
        CheckVerdict::Proved => "proved".to_string(),
        CheckVerdict::Unknown { .. } => format!("UNKNOWN [{}]", agg.variant),
        CheckVerdict::Refuted(_) => format!("REFUTED [{}]", agg.variant),
    }
}

/// Formats the verification report.
pub fn render(
    device: &DeviceSpec,
    effort: Effort,
    verdicts: &[KernelVerdict],
    mutant_verdicts: &[MutantVerdict],
) -> ExperimentOutput {
    let rows: Vec<Vec<String>> = verdicts
        .iter()
        .map(|v| {
            vec![
                v.id.clone(),
                v.plans.to_string(),
                check_cell(&v.bounds),
                check_cell(&v.race),
                check_cell(&v.init),
                v.graphs.to_string(),
                v.dynamic.launches.to_string(),
                v.dynamic.events.to_string(),
                v.dynamic.memcheck.to_string(),
                v.dynamic.racecheck.to_string(),
                v.dynamic.initcheck.to_string(),
                if v.passed() { "PASS" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    let header = [
        "Kernel", "Plans", "Bounds", "Race", "Init", "Graphs", "Launches", "Events", "Memchk",
        "Racechk", "Initchk", "Verdict",
    ];

    let mutant_rows: Vec<Vec<String>> = mutant_verdicts
        .iter()
        .map(|m| {
            let cex = match &m.verdict {
                CheckVerdict::Refuted(cex) => format!("{cex}"),
                other => other.status().to_string(),
            };
            vec![
                m.name.clone(),
                format!("{} / {}", m.defect.label(), m.defect.checker()),
                m.verdict.status().to_string(),
                m.report.memcheck.to_string(),
                m.report.racecheck.to_string(),
                m.report.initcheck.to_string(),
                if m.caught() { "caught" } else { "MISSED" }.to_string(),
                cex,
            ]
        })
        .collect();
    let mutant_header = [
        "Mutant",
        "Expected",
        "Static",
        "Memchk",
        "Racechk",
        "Initchk",
        "Verdict",
        "Counterexample",
    ];

    let proved = verdicts.iter().filter(|v| v.fully_proved()).count();
    let clean = verdicts.iter().filter(|v| v.dynamic.passed()).count();
    let graphs = verdicts.iter().map(|v| v.graphs).max().unwrap_or(0);
    let caught = mutant_verdicts.iter().filter(|m| m.caught()).count();
    let mut failing = String::new();
    for v in verdicts.iter().filter(|v| !v.passed()) {
        failing.push_str(&format!(
            "  {} FAILS on: {}\n",
            v.id,
            v.failing_graphs.join(", ")
        ));
        for e in &v.dynamic.examples {
            failing.push_str(&format!("    {e}\n"));
        }
    }
    let examples: String = mutant_verdicts
        .iter()
        .map(|m| format!("  {}\n", m.example()))
        .collect();

    let text = format!(
        "verify — static bounds/race/init proofs over symbolic plans and a \
         memcheck/racecheck/initcheck sweep at K = {K}, {} ({}, edge cap {})\n\n{}\n  \
         kernels: {proved}/{n} statically proved on every variant; {clean}/{n} dynamically \
         clean on {graphs} registry graphs\n{failing}\n\
         seeded mutants (each defect statically refuted on, and dynamically flagged by, \
         exactly its checker on the mutant test graph):\n\n{}\n  \
         mutants: {caught}/{} caught\n  example violations:\n{examples}",
        device.name,
        effort.label(),
        edge_cap(effort),
        table::render(&header, &rows),
        table::render(&mutant_header, &mutant_rows),
        mutant_verdicts.len(),
        n = verdicts.len(),
    );

    let agg_json = |agg: &CheckAgg| {
        json!({
            "status": agg.verdict.status(),
            "variant": agg.variant.as_str(),
        })
    };
    let json_kernels: Vec<serde_json::Value> = verdicts
        .iter()
        .map(|v| {
            json!({
                "id": v.id.as_str(),
                "plans": v.plans,
                "fully_proved": v.fully_proved(),
                "bounds": agg_json(&v.bounds),
                "race": agg_json(&v.race),
                "init": agg_json(&v.init),
                "graphs": v.graphs,
                "launches": v.dynamic.launches,
                "events": v.dynamic.events,
                "memcheck": v.dynamic.memcheck,
                "racecheck": v.dynamic.racecheck,
                "initcheck": v.dynamic.initcheck,
                "failing_graphs": v.failing_graphs,
                "pass": v.passed(),
            })
        })
        .collect();
    let json_mutants: Vec<serde_json::Value> = mutant_verdicts
        .iter()
        .map(|m| {
            json!({
                "name": m.name.as_str(),
                "expected": m.defect.label(),
                "expected_checker": m.defect.checker(),
                "static": m.verdict.status(),
                "counterexample": match &m.verdict {
                    CheckVerdict::Refuted(cex) => cex.to_json(),
                    _ => serde_json::Value::Null,
                },
                "memcheck": m.report.memcheck,
                "racecheck": m.report.racecheck,
                "initcheck": m.report.initcheck,
                "exactly_intended": m.exactly_intended(),
                "caught": m.caught(),
                "example": m.example(),
            })
        })
        .collect();

    ExperimentOutput::new(
        text,
        json!({
            "device": device.name,
            "effort": effort.label(),
            "k": K,
            "edge_cap": edge_cap(effort),
            "kernels_proved": proved,
            "kernels_clean": clean,
            "graphs": graphs,
            "mutants_caught": caught,
            "failures": failures(verdicts, mutant_verdicts),
            "kernels": json_kernels,
            "mutants": json_mutants,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_verify::Counterexample;

    fn agg(verdict: CheckVerdict) -> CheckAgg {
        CheckAgg {
            verdict,
            variant: "v".into(),
        }
    }

    fn kernel(bounds: CheckVerdict, dynamic: Report) -> KernelVerdict {
        KernelVerdict {
            id: "k".into(),
            plans: 1,
            bounds: agg(bounds),
            race: agg(CheckVerdict::Proved),
            init: agg(CheckVerdict::Proved),
            graphs: 19,
            dynamic,
            failing_graphs: Vec::new(),
        }
    }

    fn refuted() -> CheckVerdict {
        CheckVerdict::Refuted(Counterexample {
            shape: (1, 1, 1, 1),
            launch: "l".into(),
            warp: 0,
            buffer: "O".into(),
            offset: 0,
            len: 1,
            oob: None,
            detail: String::new(),
        })
    }

    #[test]
    fn the_gate_fails_on_any_dynamic_violation_or_missed_mutant() {
        let unknown = CheckVerdict::Unknown { reason: "r".into() };
        let memcheck = Report {
            memcheck: 1,
            ..Report::default()
        };
        let racecheck = Report {
            racecheck: 3,
            ..Report::default()
        };
        let clean = kernel(CheckVerdict::Proved, Report::default());
        assert!(failures(&[clean], &[]).is_empty());
        assert_eq!(failures(&[kernel(unknown, memcheck)], &[]), ["k"]);
        assert_eq!(
            failures(&[kernel(CheckVerdict::Proved, racecheck.clone())], &[]),
            ["k"]
        );
        let wrong_checker = MutantVerdict {
            name: "m".into(),
            defect: Property::Bounds,
            verdict: refuted(),
            others_clean: true,
            report: racecheck,
        };
        assert_eq!(failures(&[], &[wrong_checker]), ["m"]);
    }

    #[test]
    fn acceptance_every_kernel_proved_and_clean_and_every_mutant_caught() {
        let out = run(&DeviceSpec::v100(), Effort::Quick);
        let json = &out.json;
        assert_eq!(json["failures"].as_array().map(Vec::len), Some(0));
        let kernels = json["kernels"].as_array().unwrap();
        assert_eq!(kernels.len(), KERNELS.len());
        assert_eq!(kernels.len(), 16);
        assert_eq!(json["kernels_proved"].as_u64(), Some(16), "{}", out.text);
        assert_eq!(json["kernels_clean"].as_u64(), Some(16), "{}", out.text);
        for k in kernels {
            assert_eq!(k["fully_proved"].as_bool(), Some(true), "{}", k["id"]);
            assert!(k["plans"].as_u64().unwrap() > 0, "{}", k["id"]);
            assert_eq!(k["graphs"].as_u64(), Some(19), "{}", k["id"]);
            assert!(k["events"].as_u64().unwrap() > 0, "{}", k["id"]);
            assert_eq!(k["pass"].as_bool(), Some(true), "{}", k["id"]);
        }
        // The HP kernels aggregate over every planner variant.
        assert_eq!(kernels[0]["id"].as_str(), Some("hp-spmm"));
        assert!(kernels[0]["plans"].as_u64().unwrap() >= 18);
        let mutants = json["mutants"].as_array().unwrap();
        assert_eq!(mutants.len(), 4);
        assert_eq!(json["mutants_caught"].as_u64(), Some(4));
        for m in mutants {
            assert_eq!(m["static"].as_str(), Some("refuted"), "{}", m["name"]);
            assert!(!m["counterexample"]["buffer"].as_str().unwrap().is_empty());
            assert_eq!(m["exactly_intended"].as_bool(), Some(true), "{}", m["name"]);
            assert_eq!(m["caught"].as_bool(), Some(true), "{}", m["name"]);
            // Examples carry the kernel name and a hex address.
            let example = m["example"].as_str().unwrap();
            assert!(example.contains("mutant:"), "{example}");
            assert!(example.contains("0x"), "{example}");
        }
    }

    #[test]
    fn report_is_deterministic() {
        let a = run(&DeviceSpec::v100(), Effort::Quick);
        let b = run(&DeviceSpec::v100(), Effort::Quick);
        assert_eq!(a.text, b.text);
    }
}
