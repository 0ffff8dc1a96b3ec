//! `sanitize` — compute-sanitizer sweep over the kernel catalogue.
//!
//! Part 1: every catalogue kernel's cost walk runs on every full-graph
//! registry dataset with an `hpsparse-sanitize` sink attached, and must
//! come back clean under all three checkers — memcheck, racecheck,
//! initcheck. This is the repo's analogue of running `compute-sanitizer
//! --tool <each>` over the whole benchmark suite before trusting its
//! performance numbers.
//!
//! Part 2: the seeded mutants of `hpsparse_core::mutants` run under the
//! same sink, and each must be flagged by *exactly* the checker its defect
//! targets — proving the detectors actually fire and do not bleed into
//! each other.

use crate::experiments::{Effort, ExperimentOutput};
use crate::table;
use hpsparse_core::catalog::{Row, KERNELS};
use hpsparse_core::mutants::{self, Defect};
use hpsparse_datasets::{full_graph_dataset, store};
use hpsparse_sanitize::{sanitize_run, Checker, Report};
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::Hybrid;
use serde_json::json;

/// Edge cap for the sweep. Gather-heavy kernels emit one event per lane,
/// so the sanitizer sweep uses tighter caps than the shared
/// [`Effort::max_edges`] to keep the full registry × registry product
/// fast.
fn edge_cap(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 8_000,
        Effort::Full => 40_000,
    }
}

/// Feature dimension for the sweep and for `verify`'s dynamic escalations:
/// large enough to exercise vectorized access paths, small enough to bound
/// per-lane event volume.
pub const SANITIZE_K: usize = 32;

/// Aggregated verdict for one kernel across every registry graph.
#[derive(Default)]
pub struct KernelVerdict {
    /// Catalogue id.
    pub id: String,
    /// Graphs the kernel was checked on.
    pub graphs: usize,
    /// Launches observed across all graphs.
    pub launches: u64,
    /// Access events observed across all graphs.
    pub events: u64,
    /// Total memcheck violations.
    pub memcheck: u64,
    /// Total racecheck violations.
    pub racecheck: u64,
    /// Total initcheck violations.
    pub initcheck: u64,
    /// Names of graphs with any violation.
    pub failing_graphs: Vec<String>,
    /// Example violations (first few, for diagnosis).
    pub examples: Vec<String>,
}

impl KernelVerdict {
    /// Clean under all three checkers on every graph?
    pub fn passed(&self) -> bool {
        self.memcheck + self.racecheck + self.initcheck == 0
    }
}

fn fold(verdict: &mut KernelVerdict, graph: &str, report: &Report) {
    verdict.graphs += 1;
    verdict.launches += report.launches;
    verdict.events += report.events;
    verdict.memcheck += report.memcheck;
    verdict.racecheck += report.racecheck;
    verdict.initcheck += report.initcheck;
    hpsparse_trace::counter_add("sanitize.launches", report.launches);
    hpsparse_trace::counter_add("sanitize.events", report.events);
    hpsparse_trace::counter_add("sanitize.violations.memcheck", report.memcheck);
    hpsparse_trace::counter_add("sanitize.violations.racecheck", report.racecheck);
    hpsparse_trace::counter_add("sanitize.violations.initcheck", report.initcheck);
    if !report.passed() {
        verdict.failing_graphs.push(graph.to_string());
        for v in report.examples.iter().take(2) {
            if verdict.examples.len() < 6 {
                verdict.examples.push(format!("{graph}: {v}"));
            }
        }
    }
}

/// Runs the catalogue sweep: every kernel × every registry graph, one
/// fresh sanitized simulator per cell. The sink sees the cost walk's
/// accesses, which are the full run's.
pub fn collect(device: &DeviceSpec, effort: Effort, k: usize) -> Vec<KernelVerdict> {
    let cap = edge_cap(effort);
    let graphs: Vec<(String, Hybrid)> = full_graph_dataset()
        .into_iter()
        .map(|spec| (spec.name.to_string(), store::graph(&spec, cap).to_hybrid()))
        .collect();

    let verdict_of = |row: &Row| {
        let id = row.id;
        let _span = hpsparse_trace::span_with(
            &format!("sanitize:{id}"),
            &[("graphs", json!(graphs.len()))],
        );
        let mut verdict = KernelVerdict {
            id: id.to_string(),
            ..KernelVerdict::default()
        };
        for (graph, s) in &graphs {
            let report = sanitize_run(device.clone(), |sim| {
                row.auto(device, s, k)
                    .cost_on(sim, s, k)
                    .unwrap_or_else(|e| panic!("{id} on {graph}: {e:?}"));
            });
            fold(&mut verdict, graph, &report);
        }
        verdict
    };
    KERNELS.iter().map(verdict_of).collect()
}

/// The dynamic checker a seeded defect must trip.
pub fn checker_of(defect: Defect) -> Checker {
    match defect {
        Defect::Bounds => Checker::Memcheck,
        Defect::Race => Checker::Racecheck,
        Defect::Init => Checker::Initcheck,
    }
}

/// One mutant's verdict: which checkers fired, and whether that matches
/// the defect it seeds.
pub struct MutantVerdict {
    /// Mutant kernel name.
    pub name: String,
    /// The checker the seeded defect must trip.
    pub expected: Checker,
    /// What the sanitizer saw.
    pub report: Report,
}

impl MutantVerdict {
    /// Flagged by the intended checker and by nothing else?
    pub fn exactly_intended(&self) -> bool {
        [Checker::Memcheck, Checker::Racecheck, Checker::Initcheck]
            .into_iter()
            .all(|c| (self.report.count(c) > 0) == (c == self.expected))
    }

    /// First example violation (kernel + address attribution).
    fn example(&self) -> String {
        let first = self.report.examples.first();
        first.map_or_else(|| "none".into(), |v| v.to_string())
    }
}

/// Runs every seeded mutant's cost walk under the sanitizer.
pub fn collect_mutants(device: &DeviceSpec) -> Vec<MutantVerdict> {
    let _span = hpsparse_trace::span("sanitize:mutants");
    let s = mutants::mutant_test_graph();
    mutants::all_mutants()
        .into_iter()
        .map(|(defect, m)| {
            let report = sanitize_run(device.clone(), |sim| {
                m.cost_on(sim, &s, SANITIZE_K).expect("mutants run");
            });
            MutantVerdict {
                name: m.name().to_string(),
                expected: checker_of(defect),
                report,
            }
        })
        .collect()
}

/// Runs both parts and renders the verdict tables.
pub fn run(device: &DeviceSpec, effort: Effort) -> ExperimentOutput {
    let verdicts = collect(device, effort, SANITIZE_K);
    let mutant_verdicts = collect_mutants(device);
    render(device, effort, &verdicts, &mutant_verdicts)
}

/// Formats the sanitizer report.
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
                format!("{}", v.graphs),
                format!("{}", v.launches),
                format!("{}", v.events),
                format!("{}", v.memcheck),
                format!("{}", v.racecheck),
                format!("{}", v.initcheck),
                if v.passed() { "PASS" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    let header = [
        "Kernel", "Graphs", "Launches", "Events", "Memchk", "Racechk", "Initchk", "Verdict",
    ];

    let mutant_rows: Vec<Vec<String>> = mutant_verdicts
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                m.expected.to_string(),
                format!("{}", m.report.memcheck),
                format!("{}", m.report.racecheck),
                format!("{}", m.report.initcheck),
                if m.exactly_intended() {
                    "flagged as intended"
                } else {
                    "WRONG CHECKER"
                }
                .to_string(),
            ]
        })
        .collect();
    let mutant_header = [
        "Mutant", "Expected", "Memchk", "Racechk", "Initchk", "Verdict",
    ];

    let all_pass = verdicts.iter().all(|v| v.passed());
    let mutants_ok = mutant_verdicts.iter().all(|m| m.exactly_intended());
    let mut failures = String::new();
    for v in verdicts.iter().filter(|v| !v.passed()) {
        failures.push_str(&format!(
            "  {} fails on: {}\n",
            v.id,
            v.failing_graphs.join(", ")
        ));
        for e in &v.examples {
            failures.push_str(&format!("    {e}\n"));
        }
    }
    let examples: String = mutant_verdicts
        .iter()
        .map(|m| format!("  {}\n", m.example()))
        .collect();

    let text = format!(
        "sanitize — memcheck/racecheck/initcheck sweep, K = {SANITIZE_K}, {} ({}, edge cap {})\n\n{}\n  \
         registry verdict: {}\n{}\n\
         seeded-mutant detection (each defect must trip exactly its checker):\n\n{}\n  \
         mutant verdict: {}\n  example violations:\n{}",
        device.name,
        effort.label(),
        edge_cap(effort),
        table::render(&header, &rows),
        if all_pass {
            "all kernels PASS on every registry graph"
        } else {
            "FAILURES:"
        },
        failures,
        table::render(&mutant_header, &mutant_rows),
        if mutants_ok {
            "every mutant flagged by exactly the intended checker"
        } else {
            "DETECTOR GAP — a mutant was missed or misattributed"
        },
        examples,
    );

    let json_kernels: Vec<serde_json::Value> = verdicts
        .iter()
        .map(|v| {
            json!({
                "id": v.id.as_str(),
                "graphs": v.graphs,
                "launches": v.launches,
                "events": v.events,
                "memcheck": v.memcheck,
                "racecheck": v.racecheck,
                "initcheck": v.initcheck,
                "pass": v.passed(),
                "failing_graphs": v.failing_graphs,
            })
        })
        .collect();
    let json_mutants: Vec<serde_json::Value> = mutant_verdicts
        .iter()
        .map(|m| {
            json!({
                "name": m.name.as_str(),
                "expected": m.expected.to_string(),
                "memcheck": m.report.memcheck,
                "racecheck": m.report.racecheck,
                "initcheck": m.report.initcheck,
                "exactly_intended": m.exactly_intended(),
                "example": m.example(),
            })
        })
        .collect();

    ExperimentOutput::new(
        text,
        json!({
            "device": device.name,
            "k": SANITIZE_K,
            "effort": effort.label(),
            "edge_cap": edge_cap(effort),
            "all_pass": all_pass,
            "mutants_exactly_intended": mutants_ok,
            "kernels": json_kernels,
            "mutants": json_mutants,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_registry_clean_and_mutants_caught() {
        let out = run(&DeviceSpec::v100(), Effort::Quick);
        assert_eq!(out.json["all_pass"].as_bool(), Some(true), "{}", out.text);
        assert_eq!(
            out.json["mutants_exactly_intended"].as_bool(),
            Some(true),
            "{}",
            out.text
        );
        // Every catalogue kernel, 19 graphs.
        let kernels = out.json["kernels"].as_array().unwrap();
        assert_eq!(kernels.len(), KERNELS.len());
        for k in kernels {
            assert_eq!(k["graphs"].as_u64(), Some(19), "{}", k["id"]);
            assert!(k["events"].as_u64().unwrap() > 0, "{}", k["id"]);
        }
        assert_eq!(out.json["mutants"].as_array().unwrap().len(), 4);
        // Mutant examples carry the kernel name and a hex address.
        for m in out.json["mutants"].as_array().unwrap() {
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
