//! Table IV — preprocessing vs execution time of preprocess-based kernels
//! (ASpT, Sputnik, Merge-path, Huang's method) against HP-SpMM on Tesla
//! A30; plus the §IV-C TC-GNN comparison on the RTX 3090.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{registry_graph, time_id};
use crate::table;
use hpsparse_sim::DeviceSpec;
use serde_json::json;

/// Table IV: three graphs of increasing scale on the A30.
pub fn run_table4(effort: Effort, k: usize) -> ExperimentOutput {
    let device = DeviceSpec::a30();
    let graphs = ["CoraFull", "AM", "Amazon"];
    let kernels = ["aspt", "sputnik", "merge-path", "huang"];
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for name in graphs {
        let (_, s) = registry_graph(name, effort);
        let mut row = vec![name.to_string()];
        let mut entry = serde_json::Map::new();
        for id in kernels {
            let t = time_id(id, &device, &s, k);
            row.push(table::ms(t.preprocess_ms));
            row.push(table::ms(t.exec_ms));
            entry.insert(
                t.kernel,
                json!({ "pre_ms": t.preprocess_ms, "exec_ms": t.exec_ms }),
            );
        }
        let hp = time_id("hp-spmm", &device, &s, k);
        row.push(table::ms(hp.exec_ms));
        entry.insert("HP-SpMM".into(), json!({ "exec_ms": hp.exec_ms }));
        entry.insert("graph".into(), json!(name));
        entry.insert("nnz".into(), json!(s.nnz()));
        rows.push(row);
        json_rows.push(serde_json::Value::Object(entry));
    }
    let text = format!(
        "Table IV — preprocessing (Pre.) vs execution (Exe.) on {} (ms, K = {k})\n\n{}",
        device.name,
        table::render(
            &[
                "Graph",
                "ASpT Pre.",
                "ASpT Exe.",
                "Sputnik Pre.",
                "Sputnik Exe.",
                "Merge-path Pre.",
                "Merge-path Exe.",
                "Huang Pre.",
                "Huang Exe.",
                "Ours Exe.",
            ],
            &rows
        )
    );
    ExperimentOutput::new(
        text,
        json!({ "device": device.name, "k": k, "graphs": json_rows }),
    )
}

/// §IV-C: HP-SpMM vs TC-GNN (TF32 Tensor Cores) on Yelp, RTX 3090.
pub fn run_tcgnn(effort: Effort, k: usize) -> ExperimentOutput {
    let device = DeviceSpec::rtx3090();
    let (_, s) = registry_graph("Yelp", effort);
    let hp = time_id("hp-spmm", &device, &s, k);
    let tc = time_id("tcgnn", &device, &s, k);
    let text = format!(
        "§IV-C — low-precision Tensor-Core comparison on {} (Yelp, K = {k})\n\n\
         HP-SpMM : {} ms\n\
         TC-GNN  : {} ms ({} vs HP)\n\
         (paper reports 8.28 ms vs 17.40 ms at full Yelp scale — 2.10x)\n",
        device.name,
        table::ms(hp.exec_ms),
        table::ms(tc.exec_ms),
        table::speedup(tc.exec_ms / hp.exec_ms),
    );
    ExperimentOutput::new(
        text,
        json!({
            "device": device.name,
            "k": k,
            "hp_ms": hp.exec_ms,
            "tcgnn_ms": tc.exec_ms,
            "ratio": tc.exec_ms / hp.exec_ms,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcgnn_comparison_reports_both_kernels() {
        let out = run_tcgnn(Effort::Quick, 32);
        assert!(out.json["hp_ms"].as_f64().unwrap() > 0.0);
        assert!(out.json["tcgnn_ms"].as_f64().unwrap() > 0.0);
        assert!(out.text.contains("TC-GNN"));
    }
}
