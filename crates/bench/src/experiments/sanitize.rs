//! `sanitize` — compute-sanitizer sweep over the kernel registry.
//!
//! Part 1: every SpMM/SDDMM kernel (HP kernels plus every registry
//! baseline) runs on every full-graph registry dataset with an
//! `hpsparse-sanitize` sink attached, and must come back clean under all
//! three checkers — memcheck, racecheck, initcheck. This is the repo's
//! analogue of running `compute-sanitizer --tool <each>` over the whole
//! benchmark suite before trusting its performance numbers.
//!
//! Part 2: the seeded mutants of `hpsparse_core::mutants` run under the
//! same sink, and each must be flagged by *exactly* the checker its defect
//! targets — proving the detectors actually fire and do not bleed into
//! each other.

use crate::experiments::{Effort, ExperimentOutput};
use crate::table;
use hpsparse_core::baselines::registry;
use hpsparse_core::hp::{HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::mutants;
use hpsparse_datasets::{full_graph_dataset, store};
use hpsparse_sanitize::{Checker, Report, Sanitizer};
use hpsparse_sim::{DeviceSpec, GpuSim};
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

/// Feature dimension for the sweep: large enough to exercise vectorized
/// access paths, small enough to bound per-lane event volume.
const SANITIZE_K: usize = 32;

/// Aggregated verdict for one kernel across every registry graph.
pub struct KernelVerdict {
    /// Kernel registry id (or `hp-spmm` / `hp-sddmm`).
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

fn new_verdict(id: String) -> KernelVerdict {
    KernelVerdict {
        id,
        graphs: 0,
        launches: 0,
        events: 0,
        memcheck: 0,
        racecheck: 0,
        initcheck: 0,
        failing_graphs: Vec::new(),
        examples: Vec::new(),
    }
}

/// Runs the registry sweep: every kernel × every registry graph, one
/// fresh sanitized simulator per cell.
pub fn collect(device: &DeviceSpec, effort: Effort, k: usize) -> Vec<KernelVerdict> {
    let cap = edge_cap(effort);
    let graphs: Vec<(String, Hybrid)> = full_graph_dataset()
        .into_iter()
        .map(|spec| (spec.name.to_string(), store::graph(&spec, cap).to_hybrid()))
        .collect();

    let spmm_ids: Vec<String> = std::iter::once("hp-spmm".to_string())
        .chain(registry::SPMM_IDS.iter().map(|id| id.to_string()))
        .collect();
    let sddmm_ids: Vec<String> = std::iter::once("hp-sddmm".to_string())
        .chain(registry::SDDMM_IDS.iter().map(|id| id.to_string()))
        .collect();

    let mut verdicts: Vec<KernelVerdict> = Vec::new();
    for id in &spmm_ids {
        let _span = hpsparse_trace::span_with(
            &format!("sanitize:{id}"),
            &[("graphs", json!(graphs.len()))],
        );
        let mut verdict = new_verdict(id.clone());
        for (graph, s) in &graphs {
            let kernel: Box<dyn hpsparse_core::SpmmKernel> = if id == "hp-spmm" {
                Box::new(HpSpmm::auto(device, s, k))
            } else {
                registry::spmm_by_id(id).expect("registry id resolves")
            };
            let a = crate::runner::bench_features(s.cols(), k);
            let sanitizer = Sanitizer::new();
            let mut sim = GpuSim::new(device.clone());
            sim.attach_sink(sanitizer.sink());
            kernel
                .run_on(&mut sim, s, &a)
                .unwrap_or_else(|e| panic!("{id} on {graph}: {e:?}"));
            fold(&mut verdict, graph, &sanitizer.report());
        }
        verdicts.push(verdict);
    }
    for id in &sddmm_ids {
        let _span = hpsparse_trace::span_with(
            &format!("sanitize:{id}"),
            &[("graphs", json!(graphs.len()))],
        );
        let mut verdict = new_verdict(id.clone());
        for (graph, s) in &graphs {
            let kernel: Box<dyn hpsparse_core::SddmmKernel> = if id == "hp-sddmm" {
                Box::new(HpSddmm::auto(device, s, k))
            } else {
                registry::sddmm_by_id(id).expect("registry id resolves")
            };
            let a1 = crate::runner::bench_features(s.rows(), k);
            let a2t = crate::runner::bench_features(s.cols(), k);
            let sanitizer = Sanitizer::new();
            let mut sim = GpuSim::new(device.clone());
            sim.attach_sink(sanitizer.sink());
            kernel
                .run_on(&mut sim, s, &a1, &a2t)
                .unwrap_or_else(|e| panic!("{id} on {graph}: {e:?}"));
            fold(&mut verdict, graph, &sanitizer.report());
        }
        verdicts.push(verdict);
    }
    // The fused attention kernel joins the sweep with its own harness —
    // two heads so the multi-head indexing and the shared-tile/spill split
    // are both exercised under the sanitizer.
    {
        let id = "hp-fused-mha".to_string();
        let _span = hpsparse_trace::span_with(
            &format!("sanitize:{id}"),
            &[("graphs", json!(graphs.len()))],
        );
        let mut verdict = new_verdict(id.clone());
        for (graph, s) in &graphs {
            let sanitizer = Sanitizer::new();
            let mut sim = GpuSim::new(device.clone());
            sim.attach_sink(sanitizer.sink());
            HpFusedMha::auto(device, s, k)
                .cost_on(&mut sim, s, k, 2)
                .unwrap_or_else(|e| panic!("{id} on {graph}: {e:?}"));
            fold(&mut verdict, graph, &sanitizer.report());
        }
        verdicts.push(verdict);
    }
    verdicts
}

/// One mutant's verdict: which checkers fired, and whether that matches
/// the defect it seeds.
pub struct MutantVerdict {
    /// Mutant kernel name.
    pub name: String,
    /// The checker the seeded defect must trip.
    pub expected: Checker,
    /// Violations per checker.
    pub memcheck: u64,
    /// Racecheck violations.
    pub racecheck: u64,
    /// Initcheck violations.
    pub initcheck: u64,
    /// First example violation (kernel + address attribution).
    pub example: String,
}

impl MutantVerdict {
    /// Flagged by the intended checker and by nothing else?
    pub fn exactly_intended(&self) -> bool {
        [Checker::Memcheck, Checker::Racecheck, Checker::Initcheck]
            .into_iter()
            .all(|c| {
                let n = match c {
                    Checker::Memcheck => self.memcheck,
                    Checker::Racecheck => self.racecheck,
                    Checker::Initcheck => self.initcheck,
                };
                (n > 0) == (c == self.expected)
            })
    }
}

/// Runs every seeded mutant under the sanitizer.
pub fn collect_mutants(device: &DeviceSpec) -> Vec<MutantVerdict> {
    let _span = hpsparse_trace::span("sanitize:mutants");
    let s = mutants::mutant_test_graph();
    let a = crate::runner::bench_features(s.cols(), SANITIZE_K);
    mutants::all_mutants()
        .into_iter()
        .map(|m| {
            let expected = match m.name() {
                "mutant:oob-tail" => Checker::Memcheck,
                "mutant:racy-tail" => Checker::Racecheck,
                "mutant:uninit-acc" => Checker::Initcheck,
                "mutant:eager-norm" => Checker::Initcheck,
                other => panic!("unknown mutant {other}"),
            };
            let sanitizer = Sanitizer::new();
            let mut sim = GpuSim::new(device.clone());
            sim.attach_sink(sanitizer.sink());
            m.run_on(&mut sim, &s, &a).expect("mutants run");
            let report = sanitizer.report();
            MutantVerdict {
                name: m.name().to_string(),
                expected,
                memcheck: report.memcheck,
                racecheck: report.racecheck,
                initcheck: report.initcheck,
                example: report
                    .examples
                    .first()
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "none".into()),
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
                format!("{}", m.memcheck),
                format!("{}", m.racecheck),
                format!("{}", m.initcheck),
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
        .map(|m| format!("  {}\n", m.example))
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
                "memcheck": m.memcheck,
                "racecheck": m.racecheck,
                "initcheck": m.initcheck,
                "exactly_intended": m.exactly_intended(),
                "example": m.example.as_str(),
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
        // 12 SpMM (hp + 11 registry) + 3 SDDMM (hp + 2 registry) + the
        // fused attention kernel, 19 graphs.
        let kernels = out.json["kernels"].as_array().unwrap();
        assert_eq!(kernels.len(), 16);
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
