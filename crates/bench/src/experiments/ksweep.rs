//! Fig. 13 — sensitivity to the feature dimension K on Flickr (Tesla
//! V100): throughput of HP-SpMM, cuSPARSE(CSR,ALG2) and GE-SpMM as K
//! grows, and the corresponding decline in relative speedup.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{registry_graph, time_id};
use crate::table;
use hpsparse_sim::DeviceSpec;
use serde_json::json;

/// K values swept (the paper's x-axis).
pub const K_VALUES: [usize; 5] = [16, 32, 64, 128, 256];

/// Runs the sweep.
pub fn run(effort: Effort) -> ExperimentOutput {
    let device = DeviceSpec::v100();
    let (_, s) = registry_graph("Flickr", effort);

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for &k in &K_VALUES {
        let hp = time_id("hp-spmm", &device, &s, k);
        let alg2 = time_id("cusparse-csr-alg2", &device, &s, k);
        let ge = time_id("gespmm", &device, &s, k);
        rows.push(vec![
            k.to_string(),
            format!("{:.1}", hp.gflops),
            format!("{:.1}", alg2.gflops),
            format!("{:.1}", ge.gflops),
            table::speedup(alg2.exec_ms / hp.exec_ms),
            table::speedup(ge.exec_ms / hp.exec_ms),
        ]);
        json_rows.push(json!({
            "k": k,
            "hp_gflops": hp.gflops,
            "alg2_gflops": alg2.gflops,
            "gespmm_gflops": ge.gflops,
            "speedup_vs_alg2": alg2.exec_ms / hp.exec_ms,
            "speedup_vs_gespmm": ge.exec_ms / hp.exec_ms,
        }));
    }
    let text = format!(
        "Fig. 13 — sensitivity to K on Flickr ({} edges), {}\n\n{}",
        s.nnz(),
        device.name,
        table::render(
            &[
                "K",
                "HP GFLOP/s",
                "ALG2 GFLOP/s",
                "GE-SpMM GFLOP/s",
                "speedup vs ALG2",
                "speedup vs GE-SpMM",
            ],
            &rows
        )
    );
    ExperimentOutput::new(text, json!({ "device": device.name, "points": json_rows }))
}
