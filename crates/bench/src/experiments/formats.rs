//! §II's storage comparison: CSR vs COO vs hybrid CSR/COO element counts
//! and the feature-matrix masking argument (observation 2 of §II).

use crate::experiments::{Effort, ExperimentOutput};
use crate::table;
use hpsparse_datasets::full_graph_dataset;
use hpsparse_sparse::MemoryFootprint;
use serde_json::json;

/// Tabulates per-dataset storage for each format, plus the hybrid format's
/// overhead relative to CSR and to the whole training footprint (taking a
/// K = 64 feature matrix into account).
pub fn run(effort: Effort, k: usize) -> ExperimentOutput {
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in full_graph_dataset() {
        let (nodes, edges) = spec.scaled_shape(effort.max_edges());
        let f = MemoryFootprint::of(nodes, edges);
        let feature_elems = nodes * k;
        let with_features_csr = f.csr + feature_elems;
        let with_features_hybrid = f.hybrid + feature_elems;
        let masked_overhead = with_features_hybrid as f64 / with_features_csr as f64;
        rows.push(vec![
            spec.name.to_string(),
            format!("{}", f.csr),
            format!("{}", f.coo),
            format!("{}", f.hybrid),
            format!("{:.2}x", f.hybrid_overhead()),
            format!("{:.2}x", masked_overhead),
        ]);
        json_rows.push(json!({
            "graph": spec.name,
            "csr_elems": f.csr,
            "coo_elems": f.coo,
            "hybrid_elems": f.hybrid,
            "hybrid_over_csr": f.hybrid_overhead(),
            "hybrid_over_csr_with_features": masked_overhead,
        }));
    }
    let text = format!(
        "§II — format storage (stored scalar elements; K = {k} feature \
         matrix included in the last column)\n\n{}",
        table::render(
            &[
                "Graph",
                "CSR",
                "COO",
                "Hybrid",
                "Hybrid/CSR",
                "Hybrid/CSR incl. features",
            ],
            &rows
        )
    );
    ExperimentOutput::new(text, json!({ "k": k, "graphs": json_rows }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix_masks_hybrid_overhead() {
        let out = run(Effort::Quick, 64);
        for g in out.json["graphs"].as_array().unwrap() {
            let raw = g["hybrid_over_csr"].as_f64().unwrap();
            let masked = g["hybrid_over_csr_with_features"].as_f64().unwrap();
            assert!(raw >= 1.0);
            assert!(
                masked < raw,
                "features should mask the overhead: {raw} -> {masked}"
            );
        }
    }
}
