//! §IV-D — reordering-technique efficiency: GCR (Louvain) vs GNNAdvisor's
//! relabelling vs Huang's LSH/Jaccard pair merging, on the `proteins`
//! dataset (the paper's runtimes are the scorecard's §IV-D row in
//! `claims::CLAIMS`).
//!
//! These are real wall-clock measurements of the three implementations in
//! `hpsparse-reorder`, plus the locality each achieves (average neighbour
//! index distance) and the L2 hit rate HP-SpMM sees after each reordering.
//! The runtimes are host time, so this experiment, not the scorecard,
//! judges the row's order.

use crate::claims;
use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{measure_id, Record};
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
    let mut records = vec![hp_walk(&device, &g, "original", k)];
    let baseline_kernel = records[0].l2_hit_rate();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut seconds = Vec::new();
    // LSH pair merging is quadratic per bucket; the 4096 cap bounds the
    // bucket, and so its runtime.
    let runs: Vec<(&str, hpsparse_reorder::Reordered)> = vec![
        ("GCR (Louvain)", gcr_reorder(&g)),
        ("GNNAdvisor-style", advisor_reorder(&g)),
        ("Huang LSH+merge", lsh_pair_merge_reorder(&g, 4096)),
    ];
    for (name, r) in runs {
        let locality = avg_neighbor_distance(&r.graph);
        records.push(hp_walk(&device, &r.graph, name, k));
        let hit = records.last().map_or(0.0, Record::l2_hit_rate);
        seconds.push(r.seconds);
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

    let paper = claims::only("reorder");
    let verdict = if paper.holds(&seconds) {
        "✓ holds".to_string()
    } else {
        format!("✗ does not hold: {}", paper.cause)
    };
    let text = format!(
        "§IV-D — reordering efficiency on proteins ({} nodes, {} edges, K = {k})\n\
         original layout: neighbour distance {:.0}, HP-SpMM L2 hit rate {:.1}%\n\n{}\n\
         (paper, {})\n\
         {}: measured {} — {verdict}\n",
        g.num_nodes(),
        g.num_edges(),
        baseline_locality,
        baseline_kernel * 100.0,
        table::render(
            &["Method", "Runtime s", "Nbr distance", "HP-SpMM L2 hits"],
            &rows
        ),
        paper.detail,
        paper.claim,
        paper.measured_text(&seconds),
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
    .with_records(records)
}

/// HP-SpMM's cold walk on `g`, the `proteins` graph in `layout`.
fn hp_walk(device: &DeviceSpec, g: &Graph, layout: &str, k: usize) -> Record {
    measure_id("proteins", "hp-spmm", device, &g.to_hybrid(), k).with_variant(layout)
}
