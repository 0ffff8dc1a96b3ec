//! `fastcheck` — differential test of the two cost engines and of the
//! cost-only entry.
//!
//! Every catalogue kernel — the fused attention kernel at [`HEADS`] heads
//! included — runs on every full-graph registry dataset three times: in
//! full on the **reference** engine (element-wise descriptor expansion), in
//! full on the **batched** engine (the sort-once stepped-gather
//! descriptor), and as a bare **cost walk** (`cost_on`: no feature operand,
//! no float) on the batched engine. The three profiles must be *equal* —
//! not approximately, field for field, preprocessing included — for every
//! cell. This is the witness that the fast engine and the cost-only entry
//! are pure optimisations: same model, fewer host instructions. Each
//! simulator picks its engine with [`GpuSim::set_engine`].
//!
//! Two feature dimensions are checked per cell: the benchmark default
//! (K = 64), which exercises the vectorized paths, and an odd K (K = 33),
//! which defeats the alignment and vector fast paths (scalar fallbacks,
//! ragged tails in the stepped gathers).

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::bench_features;
use crate::table;
use hpsparse_core::catalog::{Kernel, Launches, Row, HEADS, KERNELS};
use hpsparse_datasets::{full_graph_dataset, store};
use hpsparse_sim::{CostEngine, DeviceSpec, GpuSim, LaunchReport};
use hpsparse_sparse::{FormatError, Hybrid};
use serde_json::json;

/// Feature dimensions under test: the benchmark default plus an odd value
/// that defeats every alignment-based fast-path gate.
pub const CHECK_KS: [usize; 2] = [64, 33];

/// Edge cap for the sweep. The reference engine costs one host dispatch per
/// modelled sector, so the differential product uses tighter caps than the
/// shared [`Effort::max_edges`].
fn edge_cap(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 10_000,
        Effort::Full => 40_000,
    }
}

/// Outcome of the differential sweep for one kernel.
#[derive(Default)]
pub struct KernelDiff {
    /// Catalogue id.
    pub id: String,
    /// Cells checked (graphs × feature dimensions).
    pub cells: usize,
    /// Cells whose batched and reference full runs reported equally.
    pub matching: usize,
    /// Cells whose cost walk reported what the batched full run did.
    pub cost_matching: usize,
    /// Total modelled cycles (identical across engines when all match).
    pub cycles: u64,
    /// Descriptions of the first few mismatching cells.
    pub mismatches: Vec<String>,
}

impl KernelDiff {
    /// Reference ≡ batched ≡ cost-only on every cell?
    pub fn passed(&self) -> bool {
        self.matching == self.cells && self.cost_matching == self.cells
    }

    /// Books one cell: the two full runs' profiles and the cost walk's.
    fn fold(&mut self, graph: &str, k: usize, refr: &Launches, fast: &Launches, cost: &Launches) {
        let exec = |c: &Launches, f: fn(&LaunchReport) -> u64| c.exec.iter().map(f).sum::<u64>();
        self.cells += 1;
        self.cycles += exec(refr, |r| r.cycles);
        self.matching += usize::from(fast == refr);
        self.cost_matching += usize::from(cost == fast);
        let show = |c: &Launches| {
            format!(
                "{{cycles {}, pre {}, tx {}, l2_hits {}, dram {}}}",
                exec(c, |r| r.cycles),
                c.preprocess.as_ref().map_or(0, |p| p.cycles),
                exec(c, |r| r.totals.transactions),
                exec(c, |r| r.totals.l2_hit_sectors),
                exec(c, |r| r.totals.dram_sectors),
            )
        };
        for (what, got, against, want) in [
            ("batched", fast, "reference", refr),
            ("cost-only", cost, "batched", fast),
        ] {
            if got != want && self.mismatches.len() < 4 {
                self.mismatches.push(format!(
                    "{graph} K={k}: {what} {} vs {against} {}",
                    show(got),
                    show(want)
                ));
            }
        }
    }
}

/// A fresh cold-L2 simulator on `engine`.
fn sim_on(device: &DeviceSpec, engine: CostEngine) -> GpuSim {
    let mut sim = GpuSim::new(device.clone());
    sim.set_engine(engine);
    sim
}

/// Runs the differential sweep: every kernel × every registry graph × every
/// K in [`CHECK_KS`], one fresh simulator per run so all three see an
/// identically cold L2.
pub fn collect(device: &DeviceSpec, effort: Effort) -> Vec<KernelDiff> {
    let cap = edge_cap(effort);
    let graphs: Vec<(String, Hybrid)> = full_graph_dataset()
        .into_iter()
        .map(|spec| (spec.name.to_string(), store::graph(&spec, cap).to_hybrid()))
        .collect();

    type Entry<'a> = &'a dyn Fn(&mut GpuSim) -> Result<Launches, FormatError>;
    let diff_of = |row: &Row| {
        let mut diff = KernelDiff {
            id: row.id.to_string(),
            ..KernelDiff::default()
        };
        for (graph, s) in &graphs {
            for k in CHECK_KS {
                let kernel = row.auto(device, s, k);
                // The full run is the one place that needs operands, so it
                // is the one place that asks which operation this is.
                let (by_row, by_col) = (bench_features(s.rows(), k), bench_features(s.cols(), k));
                let full = |sim: &mut GpuSim| -> Result<Launches, FormatError> {
                    Ok(match &kernel {
                        Kernel::Spmm(kern) => kern.run_on(sim, s, &by_col)?.into_cost().into(),
                        Kernel::Sddmm(kern) => {
                            kern.run_on(sim, s, &by_row, &by_col)?.into_cost().into()
                        }
                        Kernel::FusedMha(kern) => {
                            let (q, kv) =
                                (vec![by_row.clone(); HEADS], vec![by_col.clone(); HEADS]);
                            let run = kern.run_on(sim, s, &q, &kv, &kv)?;
                            Launches {
                                preprocess: None,
                                exec: run.reports,
                            }
                        }
                    })
                };
                let cost = |sim: &mut GpuSim| kernel.cost_on(sim, s, k);
                // One cell: the kernel in full on both engines, then its
                // bare cost walk on the batched one, each from a cold
                // simulator.
                let on = |entry: Entry, engine: CostEngine| {
                    entry(&mut sim_on(device, engine)).unwrap_or_else(|e| {
                        panic!("{} on {graph} K={k} ({}): {e:?}", row.id, engine.label())
                    })
                };
                let refr = on(&full, CostEngine::Reference);
                let fast = on(&full, CostEngine::Batched);
                diff.fold(graph, k, &refr, &fast, &on(&cost, CostEngine::Batched));
            }
        }
        diff
    };
    KERNELS.iter().map(diff_of).collect()
}

/// Runs the sweep and renders the verdict table.
pub fn run(device: &DeviceSpec, effort: Effort) -> ExperimentOutput {
    let diffs = collect(device, effort);
    render(device, effort, &diffs)
}

/// Formats the differential report.
pub fn render(device: &DeviceSpec, effort: Effort, diffs: &[KernelDiff]) -> ExperimentOutput {
    let rows: Vec<Vec<String>> = diffs
        .iter()
        .map(|d| {
            vec![
                d.id.clone(),
                format!("{}", d.cells),
                format!("{}", d.matching),
                format!("{}", d.cost_matching),
                format!("{}", d.cycles),
                if d.passed() { "MATCH" } else { "MISMATCH" }.to_string(),
            ]
        })
        .collect();
    let header = [
        "Kernel",
        "Cells",
        "Batched",
        "Cost-only",
        "Cycles",
        "Verdict",
    ];

    let all_match = diffs.iter().all(|d| d.passed());
    let mut failures = String::new();
    for d in diffs.iter().filter(|d| !d.passed()) {
        failures.push_str(&format!("  {}:\n", d.id));
        for m in &d.mismatches {
            failures.push_str(&format!("    {m}\n"));
        }
    }

    let ks: Vec<String> = CHECK_KS.iter().map(|k| k.to_string()).collect();
    let text = format!(
        "fastcheck — reference ≡ batched ≡ cost-only, K ∈ {{{}}}, {} ({}, edge cap {})\n\n{}\n  \
         verdict: {}\n{}",
        ks.join(", "),
        device.name,
        effort.label(),
        edge_cap(effort),
        table::render(&header, &rows),
        if all_match {
            "every LaunchReport identical across both engines and the cost-only entry"
        } else {
            "DIVERGENCE:"
        },
        failures,
    );

    let json_kernels: Vec<serde_json::Value> = diffs
        .iter()
        .map(|d| {
            json!({
                "id": d.id.as_str(),
                "cells": d.cells,
                "matching": d.matching,
                "cost_matching": d.cost_matching,
                "cycles": d.cycles,
                "pass": d.passed(),
                "mismatches": d.mismatches,
            })
        })
        .collect();

    ExperimentOutput::new(
        text,
        json!({
            "device": device.name,
            "engines": json!(["reference", "batched"]),
            "ks": CHECK_KS.iter().map(|&k| json!(k)).collect::<Vec<_>>(),
            "effort": effort.label(),
            "edge_cap": edge_cap(effort),
            "all_match": all_match,
            "kernels": json_kernels,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_every_cell_matches() {
        let out = run(&DeviceSpec::v100(), Effort::Quick);
        assert_eq!(out.json["all_match"].as_bool(), Some(true), "{}", out.text);
        // The batched engine checked against the reference, and the cost
        // walk against the batched full run, on every cell: the sixteen
        // catalogue kernels, each on 19 graphs × 2 feature dimensions —
        // 608 cells in total.
        let kernels = out.json["kernels"].as_array().unwrap();
        assert_eq!(kernels.len(), KERNELS.len());
        assert_eq!(out.json["engines"], json!(["reference", "batched"]));
        let mut cells = 0;
        for k in kernels {
            assert_eq!(k["cells"].as_u64(), Some(38), "{}", k["id"]);
            assert_eq!(k["cells"], k["matching"], "{}", k["id"]);
            assert_eq!(k["cells"], k["cost_matching"], "{}", k["id"]);
            assert!(k["cycles"].as_u64().unwrap() > 0, "{}", k["id"]);
            cells += k["cells"].as_u64().unwrap();
        }
        assert_eq!(cells, 608);
    }
}
