//! Fig. 13 — sensitivity to the feature dimension K on Flickr (Tesla
//! V100): throughput of HP-SpMM, cuSPARSE(CSR,ALG2) and GE-SpMM as K
//! grows, and the corresponding decline in relative speedup.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{measure_id, registry_graph, Record};
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
    let mut records = Vec::new();
    for &k in &K_VALUES {
        let [hp, alg2, ge] = ["hp-spmm", "cusparse-csr-alg2", "gespmm"]
            .map(|id| measure_id("Flickr", id, &device, &s, k));
        let vs_hp = |r: &Record| r.exec_ms() / hp.exec_ms();
        rows.push(vec![
            k.to_string(),
            format!("{:.1}", hp.gflops(k)),
            format!("{:.1}", alg2.gflops(k)),
            format!("{:.1}", ge.gflops(k)),
            table::speedup(vs_hp(&alg2)),
            table::speedup(vs_hp(&ge)),
        ]);
        json_rows.push(json!({
            "k": k,
            "hp_gflops": hp.gflops(k),
            "alg2_gflops": alg2.gflops(k),
            "gespmm_gflops": ge.gflops(k),
            "speedup_vs_alg2": vs_hp(&alg2),
            "speedup_vs_gespmm": vs_hp(&ge),
        }));
        records.extend([hp, alg2, ge]);
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
        .with_records(records)
}
