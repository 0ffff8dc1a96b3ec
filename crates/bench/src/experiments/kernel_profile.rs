//! `repro profile` — Nsight-style profiles of the main kernels on one
//! graph, for studying *why* the comparisons come out the way they do.
//!
//! This is the harness's observability showcase: when a trace session is
//! installed (`repro --trace/--metrics`), every launch below runs on a
//! tracer-attached simulator, so the exported timeline carries one lane
//! per SM with blocks placed by the wave schedule, and the metrics
//! registry fills with the NCU-style counters `render_metrics` prints.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{measure_on, registry_graph};
use hpsparse_core::catalog;
use hpsparse_sim::{profile, DeviceSpec, GpuSim};
use serde_json::{json, ToJson};

/// A fresh cold-cache simulator with the globally installed trace session
/// (if any) attached, so `repro --trace` sees every profiled launch.
fn profiled_sim(device: &DeviceSpec) -> GpuSim {
    let mut sim = GpuSim::new(device.clone());
    if let Some(session) = hpsparse_trace::current() {
        sim.attach_tracer(session);
    }
    sim
}

/// The profiled kernels: ours and representative baselines of each op.
const PROFILED: [&str; 5] = [
    "hp-spmm",
    "cusparse-csr-alg2",
    "gespmm",
    "hp-sddmm",
    "dgl-sddmm",
];

/// Profiles HP and representative baselines on Flickr. A profile reads the
/// launch report (and the tracer the launch itself), so each kernel is its
/// bare cost walk.
pub fn run(effort: Effort, k: usize) -> ExperimentOutput {
    let device = DeviceSpec::v100();
    let (_, s) = registry_graph("Flickr", effort);

    let mut text = format!(
        "Kernel profiles on Flickr ({} nodes, {} edges, K = {k}, {})\n\n",
        s.rows(),
        s.nnz(),
        device.name
    );
    let mut json_rows = Vec::new();
    let mut records = Vec::new();
    for id in PROFILED {
        let kernel = catalog::by_id(id)
            .expect("profiled ids are catalogue ids")
            .auto(&device, &s, k);
        let record = measure_on(&mut profiled_sim(&device), "Flickr", &kernel, &s, k)
            .expect("benchmark shapes are valid");
        for report in &record.launches.exec {
            text.push_str(&profile::render(record.kernel, report, &device));
            text.push_str(&profile::render_metrics(report));
            text.push('\n');
            json_rows.push(json!({
                "kernel": record.kernel,
                "cycles": report.cycles,
                "report": report.to_json(),
            }));
        }
        records.push(record);
    }

    ExperimentOutput::new(
        text,
        json!({ "device": device.name, "k": k, "kernels": json_rows }),
    )
    .with_records(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_all_five_kernels() {
        let out = run(Effort::Quick, 32);
        assert_eq!(out.json["kernels"].as_array().unwrap().len(), 5);
        assert!(out.text.contains("HP-SpMM"));
        assert!(out.text.contains("bound by"));
        // The NCU-style metric block rides along with every profile.
        assert!(out.text.contains(hpsparse_trace::names::GPU_CYCLES));
        assert!(out.text.contains(hpsparse_trace::names::L2_HIT_RATE_PCT));
        // Each kernel row embeds the full serialised report.
        for row in out.json["kernels"].as_array().unwrap() {
            let report = &row["report"];
            assert!(report["cycles"].as_u64().is_some(), "{row:?}");
            assert!(report["derived"]["imbalance"].as_f64().is_some());
        }
    }
}
