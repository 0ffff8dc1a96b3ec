//! Fig. 9 — kernel performance on the full-graph dataset (19 graphs,
//! K = 64, Tesla V100).

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{by_input, speedups, sweep, Inputs, Record};
use crate::table;
use hpsparse_core::catalog::Op;
use hpsparse_datasets::registry;
use hpsparse_sim::DeviceSpec;
use serde_json::json;

/// Renders Fig. 9 from the full-graph sweep.
pub fn run(device: &DeviceSpec, effort: Effort, k: usize) -> ExperimentOutput {
    let records = sweep(Inputs::FullGraph, device, effort, k);
    render(device, effort, k, &records).with_shared_records(vec![records])
}

/// One input's records of `op`: HP's, then the contenders'.
fn of_op(input: &[Record], op: Op) -> (&Record, Vec<&Record>) {
    let records: Vec<&Record> = input.iter().filter(|r| r.op == op).collect();
    (records[0], records[1..].to_vec())
}

/// One op's per-graph table: HP's time, then each baseline's time and
/// HP's speedup over it (the SpMM table also carries the graph's NNZ).
fn op_table(records: &[Record], op: Op) -> String {
    let mut header = vec!["Graph".to_string()];
    if op == Op::Spmm {
        header.push("NNZ".to_string());
    }
    if let Some(first) = by_input(records).next() {
        let (hp, baselines) = of_op(first, op);
        header.push(format!("{} ms", hp.kernel));
        for r in baselines {
            header.push(format!("{} ms (speedup)", r.kernel));
        }
    }
    let rows: Vec<Vec<String>> = by_input(records)
        .map(|input| {
            let (hp, baselines) = of_op(input, op);
            let mut row = vec![hp.graph.clone()];
            if op == Op::Spmm {
                row.push(hp.nnz.to_string());
            }
            row.push(table::ms(hp.exec_ms()));
            row.extend(baselines.iter().map(|r| {
                let ms = r.exec_ms();
                format!("{} ({})", table::ms(ms), table::speedup(ms / hp.exec_ms()))
            }));
            row
        })
        .collect();
    table::render(
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
        &rows,
    )
}

/// Formats a full-graph sweep's records into the Fig. 9 tables.
pub fn render(
    device: &DeviceSpec,
    effort: Effort,
    k: usize,
    records: &[Record],
) -> ExperimentOutput {
    let mut summary = String::new();
    for st in speedups(records) {
        summary.push_str(&format!(
            "  {} geomean speedup vs {}: {:.2}x\n",
            st.op(),
            st.kernel,
            st.average()
        ));
    }
    let times =
        |rs: Vec<&Record>| -> Vec<_> { rs.iter().map(|r| (r.kernel, r.exec_ms())).collect() };
    let json_graphs: Vec<_> = by_input(records)
        .map(|input| {
            let (hp_spmm, spmm) = of_op(input, Op::Spmm);
            let (hp_sddmm, sddmm) = of_op(input, Op::Sddmm);
            let spec =
                registry::by_name(&hp_spmm.graph).expect("a full-graph input is in the registry");
            json!({
                "graph": hp_spmm.graph,
                "nnz": hp_spmm.nnz,
                "scale_factor": spec.scale_factor(effort.max_edges()),
                "hp_spmm_ms": hp_spmm.exec_ms(),
                "spmm_baselines": times(spmm),
                "hp_sddmm_ms": hp_sddmm.exec_ms(),
                "sddmm_baselines": times(sddmm),
            })
        })
        .collect();

    let text = format!(
        "Fig. 9 — full-graph dataset, K = {k}, {}\n\nSpMM:\n{}\nSDDMM:\n{}\n{}",
        device.name,
        op_table(records, Op::Spmm),
        op_table(records, Op::Sddmm),
        summary
    );
    ExperimentOutput::new(
        text,
        json!({ "device": device.name, "k": k, "graphs": json_graphs }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn quick_run_produces_all_19_graphs_from_one_sweep() {
        let v100 = DeviceSpec::v100();
        let out = run(&v100, Effort::Quick, 32);
        assert_eq!(out.json["graphs"].as_array().unwrap().len(), 19);
        assert!(out.text.contains("Reddit"));
        assert!(out.text.contains("geomean speedup"));
        // `run` swept this key; asking again is a lookup.
        let again = sweep(Inputs::FullGraph, &v100, Effort::Quick, 32);
        assert!(Arc::ptr_eq(
            &again,
            &sweep(Inputs::FullGraph, &v100, Effort::Quick, 32)
        ));
        assert_eq!(by_input(&again).count(), 19);
    }
}
