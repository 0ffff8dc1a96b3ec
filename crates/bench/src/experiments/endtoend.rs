//! Table V — end-to-end GNN training speedups from swapping the
//! framework's sparse kernels for the HP kernels.
//!
//! The paper trains four model/dataset/mode combinations inside DGL and
//! PyG; here both "frameworks" are the `hpsparse-gnn` substrate (the
//! framework code is identical by construction — only the sparse backend
//! differs, which is also true of the paper's modified DGL/PyG builds).

use crate::experiments::{Effort, ExperimentOutput};
use crate::table;
use hpsparse_datasets::features::{planted_labels, random_features};
use hpsparse_datasets::registry::by_name;
use hpsparse_datasets::store;
use hpsparse_gnn::{
    train_full_graph, train_graph_sampling, BaselineBackend, GcnConfig, HpBackend, SparseBackend,
    TrainConfig,
};
use hpsparse_sim::DeviceSpec;
use serde_json::json;

/// One Table V row configuration.
struct Workload {
    framework: &'static str,
    model: &'static str,
    dataset: &'static str,
    layers: usize,
    sampling: bool,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        framework: "DGL",
        model: "GCN",
        dataset: "arxiv",
        layers: 8,
        sampling: false,
    },
    Workload {
        framework: "DGL",
        model: "GraphSAINT",
        dataset: "Amazon",
        layers: 4,
        sampling: true,
    },
    Workload {
        framework: "PyG",
        model: "GCN",
        dataset: "Flickr",
        layers: 4,
        sampling: false,
    },
    Workload {
        framework: "PyG",
        model: "GraphSAINT",
        dataset: "Yelp",
        layers: 3,
        sampling: true,
    },
];

/// Hidden sizes swept per workload.
pub const HIDDEN_SIZES: [usize; 3] = [32, 128, 256];

/// Runs the Table V comparison.
pub fn run(effort: Effort) -> ExperimentOutput {
    let device = DeviceSpec::v100();
    let (epochs, in_dim, classes) = match effort {
        Effort::Quick => (1, 32, 8),
        Effort::Full => (2, 64, 16),
    };
    // Training the 8-layer arxiv model at 1.5M edges for several hidden
    // sizes is the dominant cost; cap the graph scale at Full effort too.
    let max_edges = match effort {
        Effort::Quick => 60_000,
        Effort::Full => 400_000,
    };

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for w in &WORKLOADS {
        let spec = by_name(w.dataset).expect("Table V dataset in registry");
        let g = store::graph(&spec, max_edges);
        let features = random_features(g.num_nodes(), in_dim, 0x7ab1e5);
        let labels = planted_labels(&features, classes, 0x7ab1e5);
        for &hidden in &HIDDEN_SIZES {
            let model_cfg = GcnConfig {
                in_dim,
                hidden,
                layers: w.layers,
                classes,
                seed: 1,
            };
            let train_cfg = TrainConfig {
                epochs,
                lr: 0.01,
                sample_nodes: (g.num_nodes() / 8).clamp(256, 4096),
                seed: 3,
            };
            let trainer = if w.sampling {
                train_graph_sampling
            } else {
                train_full_graph
            };
            let run_on = |backend: &mut dyn SparseBackend| {
                trainer(backend, &g, &features, &labels, model_cfg, train_cfg).1
            };
            let base = run_on(&mut BaselineBackend::new(device.clone()));
            let hp = run_on(&mut HpBackend::new(device.clone()));
            let speedup = base.total_ms / hp.total_ms;
            rows.push(vec![
                w.framework.to_string(),
                format!(
                    "{}/{}/{}",
                    w.model,
                    w.dataset,
                    if w.sampling {
                        "graph-sampling"
                    } else {
                        "full-graph"
                    }
                ),
                hidden.to_string(),
                table::ms(base.total_ms),
                table::ms(hp.total_ms),
                table::speedup(speedup),
                format!("{:.2}", hp.activation_bytes as f64 / (1 << 20) as f64),
            ]);
            json_rows.push(json!({
                "framework": w.framework,
                "model": w.model,
                "dataset": w.dataset,
                "mode": if w.sampling { "graph-sampling" } else { "full-graph" },
                "hidden": hidden,
                "baseline_ms": base.total_ms,
                "hp_ms": hp.total_ms,
                "baseline_sparse_ms": base.sparse_ms,
                "hp_sparse_ms": hp.sparse_ms,
                "speedup": speedup,
                "activation_bytes": hp.activation_bytes,
            }));
        }
    }
    let text = format!(
        "Table V — end-to-end training time (simulated {}, ms of GPU \
         compute; {} epochs/iterations)\n\n{}",
        device.name,
        epochs,
        table::render(
            &[
                "Framework",
                "Model/Dataset/Mode",
                "Hidden",
                "w/o HP (ms)",
                "w/ HP (ms)",
                "Speedup",
                "Acts kept (MiB)",
            ],
            &rows
        )
    );
    ExperimentOutput::new(text, json!({ "device": device.name, "rows": json_rows }))
}
