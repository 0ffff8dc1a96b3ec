//! Fig. 11 — ablation of DTP, HVMA and GCR on AM, DDI, Yelp and PPA
//! (Tesla V100).
//!
//! Variants, following the paper's bars:
//! * `base`       — hybrid-parallel only (`NnzPerWarp = NNZ/M`, scalar),
//! * `+DTP`       — wave-constrained `NnzPerWarp`, scalar,
//! * `+HVMA`      — candidate-snapped `NnzPerWarp`, vectorized,
//! * `+DTP+HVMA`  — the full selection rule,
//! * `+GCR`       — Louvain-reordered graph, base configuration,
//! * `+all`       — reordered graph with the full selection rule.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{measure, registry_graph, Record};
use crate::table;
use hpsparse_core::catalog::Kernel;
use hpsparse_core::hp::{HpConfig, HpSpmm};
use hpsparse_reorder::gcr_reorder;
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::Hybrid;
use serde_json::json;

const GRAPHS: [&str; 4] = ["AM", "ddi", "Yelp", "ppa"];

/// Candidate `alpha` values for the wave-constraint sweep.
const ALPHAS: [f64; 6] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0];

/// HP-SpMM's cold walk at `cfg` on input `graph` (`s`), scoped by
/// `variant`.
fn hp_at(
    cfg: HpConfig,
    variant: String,
    graph: &str,
    device: &DeviceSpec,
    s: &Hybrid,
    k: usize,
) -> Record {
    let kernel = Kernel::Spmm(Box::new(HpSpmm::new(cfg)));
    measure(graph, &kernel, device, s, k).with_variant(variant)
}

/// Runs all six variants on the four ablation graphs.
pub fn run(effort: Effort, k: usize) -> ExperimentOutput {
    let device = DeviceSpec::v100();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut records = Vec::new();
    for name in GRAPHS {
        let (g, s) = registry_graph(name, effort);
        let (nnz, m) = (s.nnz(), s.rows());

        let base_cfg = HpConfig::base(nnz, m);
        let dtp_cfg = HpConfig::with_dtp(&device, nnz, m, k);
        let hvma_cfg = HpConfig::with_hvma(nnz, m, k);
        let full_cfg = HpConfig::auto(&device, nnz, m, k);

        let reordered = gcr_reorder(&g).graph.to_hybrid();
        let walks = [
            ("base", base_cfg, &s),
            ("+DTP", dtp_cfg, &s),
            ("+HVMA", hvma_cfg, &s),
            ("+DTP+HVMA", full_cfg, &s),
            ("+GCR", base_cfg, &reordered),
            ("+all", full_cfg, &reordered),
        ]
        .map(|(variant, cfg, input)| hp_at(cfg, variant.into(), name, &device, input, k));
        let [base, dtp, hvma, both, gcr_only, all] = walks.each_ref().map(Record::exec_ms);
        records.extend(walks);

        let rel = |ms: f64| table::speedup(base / ms);
        rows.push(vec![
            name.to_string(),
            table::ms(base),
            rel(dtp),
            rel(hvma),
            rel(both),
            rel(gcr_only),
            rel(all),
        ]);
        json_rows.push(json!({
            "graph": name,
            "base_ms": base,
            "dtp": base / dtp,
            "hvma": base / hvma,
            "dtp_hvma": base / both,
            "gcr": base / gcr_only,
            "all": base / all,
        }));
    }
    let text = format!(
        "Fig. 11 — ablation on {} (K = {k}; entries are speedup over the \
         hybrid-parallel base configuration)\n\n{}",
        device.name,
        table::render(
            &[
                "Graph",
                "base ms",
                "+DTP",
                "+HVMA",
                "+DTP+HVMA",
                "+GCR",
                "+all"
            ],
            &rows
        )
    );
    ExperimentOutput::new(
        text,
        json!({ "device": device.name, "k": k, "graphs": json_rows }),
    )
    .with_records(records)
}

/// Design-choice ablation: sensitivity of HP-SpMM to Ineq. 5's `alpha`
/// (the paper leaves the scale factor unspecified; DESIGN.md fixes it at
/// 4 — this sweep justifies that choice).
pub fn alpha_sweep(effort: Effort, k: usize) -> ExperimentOutput {
    let device = DeviceSpec::v100();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut records = Vec::new();
    for name in ["ddi", "Flickr", "Yelp"] {
        let (_, s) = registry_graph(name, effort);
        let (nnz, m) = (s.nnz(), s.rows());
        let mut row = vec![name.to_string()];
        let mut entry = serde_json::Map::new();
        for &alpha in &ALPHAS {
            let cfg = HpConfig::auto_with_alpha(&device, nnz, m, k, alpha);
            let record = hp_at(cfg, format!("alpha={alpha}"), name, &device, &s, k);
            let ms = record.exec_ms();
            records.push(record);
            row.push(format!("{} (npw {})", table::ms(ms), cfg.nnz_per_warp));
            entry.insert(
                format!("alpha_{alpha}"),
                json!({
                    "ms": ms,
                    "nnz_per_warp": cfg.nnz_per_warp,
                }),
            );
        }
        entry.insert("graph".into(), json!(name));
        rows.push(row);
        json_rows.push(serde_json::Value::Object(entry));
    }
    let header: Vec<String> = std::iter::once("Graph".to_string())
        .chain(ALPHAS.iter().map(|a| format!("alpha={a} ms (npw)")))
        .collect();
    let text = format!(
        "Design ablation — DTP wave factor alpha (K = {k}, {})\n\n{}",
        device.name,
        table::render(
            &header.iter().map(String::as_str).collect::<Vec<_>>(),
            &rows
        )
    );
    ExperimentOutput::new(
        text,
        json!({ "device": device.name, "k": k, "graphs": json_rows }),
    )
    .with_records(records)
}
