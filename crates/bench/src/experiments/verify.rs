//! `verify` — the memory-safety experiment: a sanitizer sweep, one row per
//! kernel.
//!
//! Kernels: every catalogue kernel's cost walk runs on every full-graph
//! registry dataset with a [`hpsparse_verify::Sanitizer`] sink attached —
//! the repo's analogue of running `compute-sanitizer --tool <each>` over
//! the benchmark suite. That sink makes the walk observed (every descriptor
//! expands element-wise), so its `Launches` are the oracle of the
//! unobserved walk every figure is priced by: one more unobserved walk per
//! graph must report them exactly. A kernel passes when it is clean on
//! every graph and its two walks agree. Every configuration a planner may
//! pick, on tile-boundary shapes, is the root `tests/boundary_shapes.rs`'s
//! sweep.
//!
//! Mutants: each seeded mutant of `hpsparse_core::mutants::all_mutants`
//! must be flagged by exactly the checker its defect targets on the mutant
//! test graph — proving each detector fires and does not bleed into the
//! others.
//!
//! [`failures`] is the gate; [`run`] panics when it names anything.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{measure, registry_graphs, Record};
use crate::table;
use hpsparse_core::catalog::{Row, KERNELS};
use hpsparse_core::mutants;
use hpsparse_core::traits::Launches;
use hpsparse_sim::{DeviceSpec, Property};
use hpsparse_verify::{sanitize_run, Report};
use serde_json::json;

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

/// One kernel's row: the sanitizer's totals over every registry graph.
pub struct KernelVerdict {
    /// Catalogue id.
    pub id: String,
    /// Graphs the kernel ran on.
    pub graphs: usize,
    /// The sanitizer's totals across those graphs; `examples` keeps the
    /// first few violations, their kernel label suffixed `on <graph>`.
    pub dynamic: Report,
    /// Names of graphs with any violation or walk divergence.
    pub failing_graphs: Vec<String>,
    /// One line per graph whose unobserved walk reported other launches
    /// than the observed one: both sides' cycles and DRAM bytes.
    pub divergences: Vec<String>,
    /// The unobserved walk on every graph, in graph order.
    pub unobserved: Vec<Record>,
}

impl KernelVerdict {
    /// Clean with agreeing walks on every graph?
    pub fn passed(&self) -> bool {
        self.dynamic.passed() && self.divergences.is_empty()
    }
}

/// Adds one graph's sanitizer report and both walks' launches into
/// `verdict`.
fn fold(
    verdict: &mut KernelVerdict,
    graph: &str,
    report: &Report,
    observed: &Launches,
    unobserved: &Launches,
) {
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
    let diverged = observed != unobserved;
    if diverged {
        let side = |l: &Launches| format!("{} cycles, {} B DRAM", l.exec_cycles(), l.dram_bytes());
        verdict.divergences.push(format!(
            "walks diverge on {graph}: observed {} vs unobserved {}",
            side(observed),
            side(unobserved)
        ));
    }
    if !report.passed() || diverged {
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

/// Every catalogue kernel's row: its cost walk on every registry graph
/// (capped at 8 000 edges quick, 40 000 full), once on a fresh sanitized
/// simulator and once on a fresh unobserved one. The sink sees the cost
/// walk's accesses, which are the full run's.
pub fn collect(device: &DeviceSpec, effort: Effort) -> Vec<KernelVerdict> {
    let graphs = registry_graphs(edge_cap(effort));

    let verdict_of = |row: &Row| {
        let id = row.id;
        let mut verdict = KernelVerdict {
            id: id.to_string(),
            graphs: 0,
            dynamic: Report::default(),
            failing_graphs: Vec::new(),
            divergences: Vec::new(),
            unobserved: Vec::new(),
        };
        let _span = hpsparse_trace::span_with(
            &format!("sanitize:{id}"),
            &[("graphs", json!(graphs.len()))],
        );
        for (graph, s) in &graphs {
            let kernel = row.auto(device, s, K);
            let mut observed = None;
            let report = sanitize_run(device.clone(), |sim| {
                let launches = kernel.cost_on(sim, s, K);
                observed = Some(launches.unwrap_or_else(|e| panic!("{id} on {graph}: {e:?}")));
            });
            let observed = observed.expect("the sanitized walk ran");
            let unobserved = measure(graph, &kernel, device, s, K);
            fold(
                &mut verdict,
                graph,
                &report,
                &observed,
                &unobserved.launches,
            );
            verdict.unobserved.push(unobserved);
        }
        verdict
    };
    KERNELS.iter().map(verdict_of).collect()
}

/// One mutant's row: what the sanitizer saw on the mutant test graph.
pub struct MutantVerdict {
    /// Mutant kernel name.
    pub name: String,
    /// The property its seeded bug violates.
    pub defect: Property,
    /// The sanitizer's report on the mutant test graph.
    pub report: Report,
}

impl MutantVerdict {
    /// Flagged by the intended checker and by nothing else?
    pub fn caught(&self) -> bool {
        Property::ALL
            .into_iter()
            .all(|p| (self.report.count(p) > 0) == (p == self.defect))
    }

    /// First example violation (kernel + address attribution).
    fn example(&self) -> String {
        let first = self.report.examples.first();
        first.map_or_else(|| "none".into(), |v| v.to_string())
    }
}

/// Runs every seeded mutant's cost walk under the sanitizer on the mutant
/// test graph.
pub fn collect_mutants(device: &DeviceSpec) -> Vec<MutantVerdict> {
    let s = mutants::mutant_test_graph();
    let _span = hpsparse_trace::span("sanitize:mutants");
    mutants::all_mutants()
        .into_iter()
        .map(|(defect, m)| MutantVerdict {
            name: m.name().to_string(),
            defect,
            report: sanitize_run(device.clone(), |sim| {
                m.cost_on(sim, &s, K).expect("mutants run");
            }),
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
    out.with_records(verdicts.into_iter().flat_map(|v| v.unobserved).collect())
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
        "Kernel", "Graphs", "Launches", "Events", "Memchk", "Racechk", "Initchk", "Verdict",
    ];

    let mutant_rows: Vec<Vec<String>> = mutant_verdicts
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                format!("{} / {}", m.defect.label(), m.defect.checker()),
                m.report.memcheck.to_string(),
                m.report.racecheck.to_string(),
                m.report.initcheck.to_string(),
                if m.caught() { "caught" } else { "MISSED" }.to_string(),
            ]
        })
        .collect();
    let mutant_header = [
        "Mutant", "Expected", "Memchk", "Racechk", "Initchk", "Verdict",
    ];

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
        for d in &v.divergences {
            failing.push_str(&format!("    {d}\n"));
        }
    }
    let examples: String = mutant_verdicts
        .iter()
        .map(|m| format!("  {}\n", m.example()))
        .collect();

    let text = format!(
        "verify — a memcheck/racecheck/initcheck sweep at K = {K}, {} ({}, edge cap {})\n\n{}\n  \
         kernels: {clean}/{n} clean on {graphs} registry graphs\n{failing}\n\
         seeded mutants (each defect flagged by exactly its checker on the mutant test \
         graph):\n\n{}\n  \
         mutants: {caught}/{} caught\n  example violations:\n{examples}",
        device.name,
        effort.label(),
        edge_cap(effort),
        table::render(&header, &rows),
        table::render(&mutant_header, &mutant_rows),
        mutant_verdicts.len(),
        n = verdicts.len(),
    );

    let json_kernels: Vec<serde_json::Value> = verdicts
        .iter()
        .map(|v| {
            json!({
                "id": v.id.as_str(),
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
                "memcheck": m.report.memcheck,
                "racecheck": m.report.racecheck,
                "initcheck": m.report.initcheck,
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
    use hpsparse_sim::GpuSim;

    fn kernel(dynamic: Report) -> KernelVerdict {
        KernelVerdict {
            id: "k".into(),
            graphs: 19,
            dynamic,
            failing_graphs: Vec::new(),
            divergences: Vec::new(),
            unobserved: Vec::new(),
        }
    }

    #[test]
    fn the_gate_fails_on_any_dynamic_violation_or_missed_mutant() {
        let memcheck = Report {
            memcheck: 1,
            ..Report::default()
        };
        let racecheck = Report {
            racecheck: 3,
            ..Report::default()
        };
        let clean = kernel(Report::default());
        assert!(failures(&[clean], &[]).is_empty());
        assert_eq!(failures(&[kernel(memcheck)], &[]), ["k"]);
        assert_eq!(failures(&[kernel(racecheck.clone())], &[]), ["k"]);
        let wrong_checker = MutantVerdict {
            name: "m".into(),
            defect: Property::Bounds,
            report: racecheck,
        };
        assert_eq!(failures(&[], &[wrong_checker]), ["m"]);
    }

    #[test]
    fn the_gate_fails_when_the_unobserved_walk_diverges() {
        let device = DeviceSpec::v100();
        let s = mutants::mutant_test_graph();
        let observed = KERNELS[0]
            .auto(&device, &s, K)
            .cost_on(&mut GpuSim::new(device.clone()), &s, K)
            .unwrap();
        let mut unobserved = observed.clone();
        unobserved.exec[0].cycles += 1;

        let clean = Report::default();
        let mut agreeing = kernel(clean.clone());
        fold(&mut agreeing, "g", &clean, &observed, &observed);
        assert!(agreeing.passed() && agreeing.failing_graphs.is_empty());

        let mut diverging = kernel(clean.clone());
        fold(&mut diverging, "g", &clean, &observed, &unobserved);
        assert!(diverging.dynamic.passed() && !diverging.passed());
        assert_eq!(diverging.failing_graphs, ["g"]);
        let diverging = [diverging];
        let text = render(&device, Effort::Quick, &diverging, &[]).text;
        let cycles = observed.exec_cycles();
        let dram = observed.dram_bytes();
        let line = format!(
            "walks diverge on g: observed {cycles} cycles, {dram} B DRAM vs unobserved {} cycles, {dram} B DRAM",
            cycles + 1
        );
        assert!(text.contains(&line), "{text}");
        assert_eq!(failures(&diverging, &[]), ["k"]);
    }

    #[test]
    fn acceptance_every_kernel_clean_and_every_mutant_caught() {
        let out = run(&DeviceSpec::v100(), Effort::Quick);
        let json = &out.json;
        assert_eq!(json["failures"].as_array().map(Vec::len), Some(0));
        let kernels = json["kernels"].as_array().unwrap();
        assert_eq!(kernels.len(), KERNELS.len());
        assert_eq!(kernels.len(), 16);
        assert_eq!(json["kernels_clean"].as_u64(), Some(16), "{}", out.text);
        for k in kernels {
            assert_eq!(k["graphs"].as_u64(), Some(19), "{}", k["id"]);
            assert!(k["events"].as_u64().unwrap() > 0, "{}", k["id"]);
            assert_eq!(k["pass"].as_bool(), Some(true), "{}", k["id"]);
        }
        assert_eq!(kernels[0]["id"].as_str(), Some("hp-spmm"));
        let mutants = json["mutants"].as_array().unwrap();
        assert_eq!(mutants.len(), 4);
        assert_eq!(json["mutants_caught"].as_u64(), Some(4));
        for m in mutants {
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
