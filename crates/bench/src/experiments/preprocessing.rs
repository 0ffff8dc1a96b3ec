//! Table IV — preprocessing vs execution time of preprocess-based kernels
//! (ASpT, Sputnik, Merge-path, Huang's method) against HP-SpMM on Tesla
//! A30; plus the §IV-C TC-GNN comparison on the RTX 3090.

use crate::claims;
use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{measure_id, registry_graph, Record};
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
    let mut records = Vec::new();
    for name in graphs {
        let (_, s) = registry_graph(name, effort);
        let mut row = vec![name.to_string()];
        let mut entry = serde_json::Map::new();
        for id in kernels {
            let r = measure_id(name, id, &device, &s, k);
            let (pre_ms, exec_ms) = (r.preprocess_ms(), r.exec_ms());
            row.push(table::ms(pre_ms));
            row.push(table::ms(exec_ms));
            entry.insert(
                r.kernel.to_string(),
                json!({ "pre_ms": pre_ms, "exec_ms": exec_ms }),
            );
            records.push(r);
        }
        let hp = measure_id(name, "hp-spmm", &device, &s, k);
        row.push(table::ms(hp.exec_ms()));
        entry.insert(hp.kernel.into(), json!({ "exec_ms": hp.exec_ms() }));
        entry.insert("graph".into(), json!(name));
        entry.insert("nnz".into(), json!(s.nnz()));
        records.push(hp);
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
    .with_records(records)
}

/// §IV-C: HP-SpMM vs TC-GNN (TF32 Tensor Cores) on Yelp, RTX 3090.
pub fn run_tcgnn(effort: Effort, k: usize) -> ExperimentOutput {
    let device = DeviceSpec::rtx3090();
    let (_, s) = registry_graph("Yelp", effort);
    let walks = ["hp-spmm", "tcgnn"].map(|id| measure_id("Yelp", id, &device, &s, k));
    let [hp, tc] = walks.each_ref().map(Record::exec_ms);
    let paper = claims::only("tcgnn");
    let text = format!(
        "§IV-C — low-precision Tensor-Core comparison on {} (Yelp, K = {k})\n\n\
         HP-SpMM : {} ms\n\
         TC-GNN  : {} ms ({} vs HP)\n\
         (paper reports {} — {})\n",
        device.name,
        table::ms(hp),
        table::ms(tc),
        table::speedup(tc / hp),
        paper.detail,
        table::speedup(paper.figure().expect("§IV-C compares a figure")),
    );
    ExperimentOutput::new(
        text,
        json!({
            "device": device.name,
            "k": k,
            "hp_ms": hp,
            "tcgnn_ms": tc,
            "ratio": tc / hp,
        }),
    )
    .with_records(walks.into())
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
