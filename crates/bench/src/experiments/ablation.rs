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
use crate::runner::{bench_features, registry_graph};
use crate::table;
use hpsparse_core::hp::{HpConfig, HpSpmm};
use hpsparse_core::traits::SpmmKernel;
use hpsparse_reorder::gcr_reorder;
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::Graph;
use serde_json::json;

const GRAPHS: [&str; 4] = ["AM", "ddi", "Yelp", "ppa"];

/// Candidate `alpha` values for the wave-constraint sweep.
const ALPHAS: [f64; 6] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0];

fn run_variant(device: &DeviceSpec, g: &Graph, k: usize, cfg: HpConfig) -> f64 {
    let s = g.to_hybrid();
    let a = bench_features(s.cols(), k);
    HpSpmm::new(cfg)
        .run(device, &s, &a)
        .expect("valid shapes")
        .exec_ms()
}

/// Runs all six variants on the four ablation graphs.
pub fn run(effort: Effort, k: usize) -> ExperimentOutput {
    let device = DeviceSpec::v100();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for name in GRAPHS {
        let (g, s_shape) = registry_graph(name, effort);
        let (nnz, m) = (s_shape.nnz(), s_shape.rows());

        let base_cfg = HpConfig::base(nnz, m);
        let dtp_cfg = HpConfig::with_dtp(&device, nnz, m, k);
        let hvma_cfg = HpConfig::with_hvma(nnz, m, k);
        let full_cfg = HpConfig::auto(&device, nnz, m, k);

        let base = run_variant(&device, &g, k, base_cfg);
        let dtp = run_variant(&device, &g, k, dtp_cfg);
        let hvma = run_variant(&device, &g, k, hvma_cfg);
        let both = run_variant(&device, &g, k, full_cfg);
        let reordered = gcr_reorder(&g);
        let gcr_only = run_variant(&device, &reordered.graph, k, base_cfg);
        let all = run_variant(&device, &reordered.graph, k, full_cfg);

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
}

/// Design-choice ablation: sensitivity of HP-SpMM to Ineq. 5's `alpha`
/// (the paper leaves the scale factor unspecified; DESIGN.md fixes it at
/// 4 — this sweep justifies that choice).
pub fn alpha_sweep(effort: Effort, k: usize) -> ExperimentOutput {
    let device = DeviceSpec::v100();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for name in ["ddi", "Flickr", "Yelp"] {
        let (g, s) = registry_graph(name, effort);
        let (nnz, m) = (s.nnz(), s.rows());
        let mut row = vec![name.to_string()];
        let mut entry = serde_json::Map::new();
        for &alpha in &ALPHAS {
            let cfg = HpConfig::auto_with_alpha(&device, nnz, m, k, alpha);
            let ms = run_variant(&device, &g, k, cfg);
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
}
