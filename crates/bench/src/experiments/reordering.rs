//! §IV-D — reordering-technique efficiency: GCR (Louvain) vs GNNAdvisor's
//! relabelling vs Huang's LSH/Jaccard pair merging, on the `proteins`
//! dataset (the paper reports 4.6 s / 15.56 s / >120 min respectively).
//!
//! These are real wall-clock measurements of the three implementations in
//! `hpsparse-reorder`, plus the locality each achieves (average neighbour
//! index distance) and the L2 hit rate HP-SpMM sees after each reordering.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::measure_id;
use crate::table;
use hpsparse_datasets::registry::by_name;
use hpsparse_datasets::store;
use hpsparse_reorder::{
    advisor_reorder, avg_neighbor_distance, gcr_reorder, lsh_pair_merge_reorder,
};
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::Graph;
use serde_json::json;

/// Runs the three reorderers on `proteins` and reports runtime + quality.
pub fn run(effort: Effort, k: usize) -> ExperimentOutput {
    let spec = by_name("proteins").expect("proteins in registry");
    let g = store::graph(&spec, effort.max_edges());
    let device = DeviceSpec::v100();

    let baseline_locality = avg_neighbor_distance(&g);
    let baseline_kernel = kernel_hit_rate(&device, &g, k);

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    // LSH pair merging is quadratic per bucket; at Full effort it is the
    // slowest by far (the paper aborted it after 120 minutes).
    let runs: Vec<(&str, hpsparse_reorder::Reordered)> = vec![
        ("GCR (Louvain)", gcr_reorder(&g)),
        ("GNNAdvisor-style", advisor_reorder(&g)),
        ("Huang LSH+merge", lsh_pair_merge_reorder(&g, 4096)),
    ];
    for (name, r) in runs {
        let locality = avg_neighbor_distance(&r.graph);
        let hit = kernel_hit_rate(&device, &r.graph, k);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", r.seconds),
            format!("{:.0}", locality),
            format!("{:.1}%", hit * 100.0),
        ]);
        json_rows.push(json!({
            "method": name,
            "seconds": r.seconds,
            "avg_neighbor_distance": locality,
            "hp_spmm_l2_hit_rate": hit,
        }));
    }

    let text = format!(
        "§IV-D — reordering efficiency on proteins ({} nodes, {} edges, K = {k})\n\
         original layout: neighbour distance {:.0}, HP-SpMM L2 hit rate {:.1}%\n\n{}\n\
         (paper, full-scale proteins: GCR 4.6 s, GNNAdvisor 15.56 s, Huang > 120 min)\n",
        g.num_nodes(),
        g.num_edges(),
        baseline_locality,
        baseline_kernel * 100.0,
        table::render(
            &["Method", "Runtime s", "Nbr distance", "HP-SpMM L2 hits"],
            &rows
        )
    );
    let _ = effort;
    ExperimentOutput::new(
        text,
        json!({
            "graph": "proteins",
            "nodes": g.num_nodes(),
            "edges": g.num_edges(),
            "baseline_distance": baseline_locality,
            "baseline_hit_rate": baseline_kernel,
            "methods": json_rows,
        }),
    )
}

fn kernel_hit_rate(device: &DeviceSpec, g: &Graph, k: usize) -> f64 {
    measure_id("proteins", "hp-spmm", device, &g.to_hybrid(), k).l2_hit_rate()
}
