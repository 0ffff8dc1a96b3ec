//! `repro datasets` — Table II reproduction check: paper-reported sizes
//! next to what the synthetic generators actually produce, including the
//! scale factor and the degree statistics that drive kernel behaviour.

use crate::experiments::{Effort, ExperimentOutput};
use crate::table;
use hpsparse_datasets::full_graph_dataset;
use hpsparse_datasets::store;
use hpsparse_sparse::DegreeStats;
use serde_json::json;

/// Tabulates paper vs generated shapes for all 19 graphs.
pub fn run(effort: Effort) -> ExperimentOutput {
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in full_graph_dataset() {
        let g = store::graph(&spec, effort.max_edges());
        let stats = DegreeStats::of(g.adjacency());
        let scale = spec.scale_factor(effort.max_edges());
        rows.push(vec![
            spec.name.to_string(),
            format!("{}", spec.paper_nodes),
            format!("{}", spec.paper_edges),
            format!("{:.3}", scale),
            format!("{}", g.num_nodes()),
            format!("{}", g.num_edges()),
            format!("{:.1}", stats.mean),
            format!("{:.1}", stats.std_dev),
            format!("{}", stats.max),
        ]);
        json_rows.push(json!({
            "graph": spec.name,
            "paper_nodes": spec.paper_nodes,
            "paper_edges": spec.paper_edges,
            "scale_factor": scale,
            "gen_nodes": g.num_nodes(),
            "gen_edges": g.num_edges(),
            "avg_degree": stats.mean,
            "std_degree": stats.std_dev,
            "max_degree": stats.max,
        }));
    }
    let text = format!(
        "Table II stand-ins — paper sizes vs generated synthetic graphs\n\n{}",
        table::render(
            &[
                "Graph",
                "paper nodes",
                "paper edges",
                "scale",
                "gen nodes",
                "gen edges",
                "avg deg",
                "std deg",
                "max deg",
            ],
            &rows
        )
    );
    ExperimentOutput::new(text, json!({ "graphs": json_rows }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscaled_graphs_match_paper_sizes_closely() {
        let out = run(Effort::Quick);
        for g in out.json["graphs"].as_array().unwrap() {
            if g["scale_factor"].as_f64().unwrap() == 1.0 {
                let paper = g["paper_edges"].as_u64().unwrap() as f64;
                let generated = g["gen_edges"].as_u64().unwrap() as f64;
                assert!(
                    generated >= paper * 0.9 && generated <= paper,
                    "{}: paper {paper} vs generated {generated}",
                    g["graph"]
                );
            }
        }
    }
}
