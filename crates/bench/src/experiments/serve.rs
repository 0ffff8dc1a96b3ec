//! `serve` — multi-GPU sharded inference serving under synthetic load.
//!
//! Shards a registry graph across simulated devices with `hpsparse-serve`,
//! replays an open-loop request stream (the "million users" scenario at
//! full effort scales the arrival rate so the cluster runs near
//! saturation), and reports throughput, latency percentiles, halo traffic,
//! and the per-device breakdown. Before reporting numbers, the run proves
//! the sharding is **lossless**: every request's outputs are compared
//! bit-for-bit against a single-device execution of the same shard plan.
//!
//! The full-effort JSON view is committed as `results/full/serve.json`.

use crate::experiments::{Effort, ExperimentOutput};
use crate::table;
use hpsparse_datasets::{registry, store};
use hpsparse_serve::{serve, BatcherConfig, Cluster, ShardPlan, WorkloadConfig};
use hpsparse_sim::{DeviceSpec, LinkSpec};
use hpsparse_sparse::Dense;
use serde_json::json;

/// Scenario knobs per effort level.
struct Scenario {
    dataset: &'static str,
    max_edges: usize,
    num_shards: usize,
    num_devices: usize,
    feature_dim: usize,
    requests: usize,
    mean_interarrival_cycles: u64,
}

fn scenario(effort: Effort) -> Scenario {
    match effort {
        // CI smoke: 2 devices, small graph, sub-second.
        Effort::Quick => Scenario {
            dataset: "Flickr",
            max_edges: 20_000,
            num_shards: 4,
            num_devices: 2,
            feature_dim: 16,
            requests: 96,
            mean_interarrival_cycles: 150_000,
        },
        // The EXPERIMENTS.md scale: 4 devices, an open-loop stream dense
        // enough to keep every device busy (a synthetic stand-in for a
        // million-user serving tier).
        Effort::Full => Scenario {
            dataset: "Flickr",
            max_edges: 120_000,
            num_shards: 8,
            num_devices: 4,
            feature_dim: 32,
            requests: 1024,
            mean_interarrival_cycles: 60_000,
        },
    }
}

/// Runs the serving experiment.
pub fn run(effort: Effort) -> ExperimentOutput {
    let sc = scenario(effort);
    let spec = registry::by_name(sc.dataset).expect("registry dataset");
    let g = store::graph(&spec, sc.max_edges);
    let features = Dense::from_fn(g.num_nodes(), sc.feature_dim, |i, j| {
        ((i * 31 + j * 7) as f32 * 0.01).sin()
    });

    let plan = ShardPlan::new(&g, sc.num_shards);
    let mut cluster = Cluster::from_plan(
        plan.clone(),
        &features,
        sc.num_devices,
        DeviceSpec::v100(),
        LinkSpec::nvlink(),
    );
    let mut reference =
        Cluster::from_plan(plan, &features, 1, DeviceSpec::v100(), LinkSpec::nvlink());

    let workload = hpsparse_serve::synthetic_workload(
        &g,
        &WorkloadConfig {
            num_requests: sc.requests,
            mean_interarrival_cycles: sc.mean_interarrival_cycles,
            subgraph_fraction: 0.3,
            walk_depth: 4,
            seed: 0x5e12_e5e1,
        },
    );
    // With `repro --trace`, the sharded run renders into the global
    // session: per-launch SM lanes under each device's lane group plus the
    // batch/halo slices `serve` emits. The single-device reference stays
    // untraced — it exists only for the bit-exactness check.
    let session = hpsparse_trace::current();
    if let Some(s) = &session {
        for d in 0..cluster.num_devices() {
            cluster.device_sim_mut(d).attach_tracer(s.clone());
        }
    }
    let batcher = BatcherConfig::default();
    let outcome = serve(&mut cluster, &workload, &batcher, session.as_ref());
    let single = serve(&mut reference, &workload, &batcher, None);
    let lossless = outcome.outputs == single.outputs;
    let rep = &outcome.report;

    let mut text = String::new();
    text.push_str(&format!(
        "serve: sharded GNN inference on {} ({} nodes, {} edges), \
         {} shards on {} simulated V100s over {}\n",
        sc.dataset,
        g.num_nodes(),
        g.adjacency().col_indices().len(),
        sc.num_shards,
        sc.num_devices,
        LinkSpec::nvlink().name,
    ));
    text.push_str(&format!(
        "load: {} requests (open loop, mean gap {} cycles), K = {}\n\n",
        sc.requests, sc.mean_interarrival_cycles, sc.feature_dim
    ));
    text.push_str(&table::render(
        &["metric", "value"],
        &[
            vec!["requests".into(), rep.num_requests.to_string()],
            vec!["target rows".into(), rep.num_rows.to_string()],
            vec!["batches".into(), rep.num_batches.to_string()],
            vec![
                "throughput".into(),
                format!("{:.0} req/s", rep.throughput_rps),
            ],
            vec![
                "latency p50".into(),
                format!("{} ms", table::ms(rep.cycles_to_ms(rep.p50_cycles))),
            ],
            vec![
                "latency p95".into(),
                format!("{} ms", table::ms(rep.cycles_to_ms(rep.p95_cycles))),
            ],
            vec![
                "latency p99".into(),
                format!("{} ms", table::ms(rep.cycles_to_ms(rep.p99_cycles))),
            ],
            vec![
                "latency max".into(),
                format!("{} ms", table::ms(rep.cycles_to_ms(rep.max_cycles))),
            ],
            vec![
                "makespan".into(),
                format!("{} ms", table::ms(rep.cycles_to_ms(rep.makespan_cycles))),
            ],
            vec!["halo bytes".into(), rep.halo_bytes.to_string()],
            vec!["halo transfers".into(), rep.halo_transfers.to_string()],
        ],
    ));
    text.push('\n');
    text.push_str(&table::render(
        &[
            "device",
            "batches",
            "kernel cycles",
            "halo bytes in",
            "halo stall cycles",
        ],
        &rep.per_device
            .iter()
            .enumerate()
            .map(|(d, s)| {
                vec![
                    format!("GPU {d}"),
                    s.batches.to_string(),
                    s.kernel_cycles.to_string(),
                    s.halo_bytes.to_string(),
                    s.halo_stall_cycles.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    text.push_str(&format!(
        "\nlossless vs single-device reference (same shard plan, bit-exact): {}\n",
        if lossless { "PASS" } else { "FAIL" }
    ));
    assert!(
        lossless,
        "sharded serving outputs diverged from the single-device reference"
    );

    let json = json!({
        "experiment": "serve",
        "effort": effort.label(),
        "dataset": sc.dataset,
        "nodes": g.num_nodes() as u64,
        "edges": g.adjacency().col_indices().len() as u64,
        "shards": sc.num_shards as u64,
        "devices": sc.num_devices as u64,
        "feature_dim": sc.feature_dim as u64,
        "link": LinkSpec::nvlink().name,
        "lossless": lossless,
        "report": rep.to_json(),
    });
    ExperimentOutput::new(text, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_run_serves_every_request_in_percentile_order() {
        // `run` itself asserts the lossless check.
        let json = run(Effort::Full).json;
        assert!(json["devices"].as_u64().unwrap() >= 2, "{json}");
        let rep = &json["report"];
        assert!(rep["requests"].as_u64().unwrap() > 0, "{rep}");
        assert!(rep["batches"].as_u64().unwrap() > 0, "{rep}");
        assert!(rep["throughput_rps"].as_f64().unwrap() > 0.0, "{rep}");
        let ms = |p: &str| rep["latency_ms"][p].as_f64().unwrap();
        assert!(ms("p50") <= ms("p95"), "{rep}");
        assert!(ms("p95") <= ms("p99"), "{rep}");
        assert!(ms("p99") <= ms("max"), "{rep}");
    }
}
