//! `bell` — an extension beyond the paper's evaluation: Blocked-ELL versus
//! hybrid CSR/COO as graph structure moves from block-dense to power-law
//! (why §II's third cuSPARSE format is absent from GNN frameworks).

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{measure_id, Record};
use crate::table;
use hpsparse_datasets::generators::{GeneratorConfig, Topology};
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::BlockedEllShape;
use serde_json::json;

/// Blocked-ELL vs HP-SpMM across block-density regimes.
pub fn run_bell(effort: Effort) -> ExperimentOutput {
    let device = DeviceSpec::v100();
    let nodes = match effort {
        Effort::Quick => 4_000,
        Effort::Full => 20_000,
    };
    let k = 64;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut records = Vec::new();
    // Block-diagonal graph with dense 16-node blocks: Blocked-ELL's sweet
    // spot (fill ratio ≈ 1).
    let block_dense = {
        let mut edges = Vec::new();
        for blk in 0..(nodes / 16) as u32 {
            for i in 0..16u32 {
                for j in 0..16u32 {
                    if i != j {
                        edges.push((blk * 16 + i, blk * 16 + j));
                    }
                }
            }
        }
        hpsparse_sparse::Graph::from_edges(nodes, &edges)
    };
    // Community graph *after GCR*: contiguous communities, but nodes
    // within a block still connect across block boundaries.
    let community = {
        let g = GeneratorConfig {
            nodes,
            edges: nodes * 16,
            topology: Topology::Community {
                communities: nodes / 500,
                p_in: 0.7,
                alpha: 2.2,
            },
            seed: 0xbe11,
        }
        .generate();
        hpsparse_reorder::gcr_reorder(&g).graph
    };
    let power_law = GeneratorConfig {
        nodes,
        edges: nodes * 16,
        topology: Topology::PowerLaw { alpha: 2.0 },
        seed: 0xbe11,
    }
    .generate();
    for (label, g) in [
        ("block-dense", &block_dense),
        ("community+GCR", &community),
        ("power-law", &power_law),
    ] {
        let s = g.to_hybrid();
        let fill = BlockedEllShape::of(&s.to_csr(), 16).unwrap().fill_ratio();
        let walks =
            ["hp-spmm", "cusparse-blocked-ell"].map(|id| measure_id(label, id, &device, &s, k));
        let [hp, bell] = walks.each_ref().map(Record::exec_ms);
        records.extend(walks);
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", fill),
            table::ms(hp),
            table::ms(bell),
            table::speedup(bell / hp),
        ]);
        json_rows.push(json!({
            "structure": label,
            "fill_ratio": fill,
            "hp_ms": hp,
            "bell_ms": bell,
            "hp_speedup": bell / hp,
        }));
    }
    let text = format!(
        "Extension — Blocked-ELL (§II's third cuSPARSE format) vs HP-SpMM, \
         {} (K = {k})\n\n{}\n(low fill ratio = padding waste on \
         irregular graphs, the reason GNN frameworks stay on CSR/COO)\n",
        device.name,
        table::render(
            &[
                "Structure",
                "Block fill",
                "HP ms",
                "Blocked-ELL ms",
                "HP speedup"
            ],
            &rows
        )
    );
    ExperimentOutput::new(
        text,
        json!({ "device": device.name, "k": k, "rows": json_rows }),
    )
    .with_records(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_fill_ratio_orders_structures() {
        let out = run_bell(Effort::Quick);
        let rows = out.json["rows"].as_array().unwrap();
        let fill: Vec<f64> = rows
            .iter()
            .map(|r| r["fill_ratio"].as_f64().unwrap())
            .collect();
        assert!(
            fill[0] > fill[2],
            "block-dense should fill better than power-law: {fill:?}"
        );
    }
}
