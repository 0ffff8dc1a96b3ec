//! Training GraphSAGE with the mean aggregator — one of the models whose
//! sampled subgraphs populate the paper's graph-sampling dataset.
//!
//! Shows the second GNN architecture in the workspace end-to-end: the
//! mean-normalised operator, the two-branch (self + neighbour) layers, and
//! the same pluggable sparse backends as GCN.
//!
//! ```sh
//! cargo run --release --example graphsage
//! ```

use hpsparse::datasets::features::{planted_labels, random_features};
use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::gnn::linalg;
use hpsparse::gnn::{mean_operator, HpBackend, Sage, SageAdam, SageConfig, SparseBackend};
use hpsparse::sim::DeviceSpec;

fn main() {
    let graph = GeneratorConfig {
        nodes: 10_000,
        edges: 120_000,
        topology: Topology::Community {
            communities: 25,
            p_in: 0.8,
            alpha: 2.3,
        },
        seed: 17,
    }
    .generate();
    let features = random_features(graph.num_nodes(), 32, 17);
    let labels = planted_labels(&features, 6, 17);

    let (s_mean, s_mean_t) = mean_operator(&graph).expect("square adjacency");
    let mut model = Sage::new(SageConfig {
        in_dim: 32,
        hidden: 48,
        layers: 2,
        classes: 6,
        seed: 3,
    });
    let mut opt = SageAdam::new(&model, 0.02);
    let mut backend = HpBackend::new(DeviceSpec::v100());

    println!(
        "GraphSAGE (mean) on {} nodes / {} edges, 2 layers, hidden 48\n",
        graph.num_nodes(),
        graph.num_edges()
    );
    for epoch in 0..15 {
        let (logits, cache) = model.forward(&mut backend, &s_mean, &features);
        let (loss, grad) = linalg::softmax_cross_entropy(&logits, &labels);
        let grads = model.backward(&mut backend, &s_mean_t, cache, grad);
        opt.step(&mut model, &grads);
        if epoch % 5 == 0 || epoch == 14 {
            let acc = linalg::accuracy(&logits, &labels);
            println!(
                "epoch {epoch:>2}: loss {loss:.4}, accuracy {:.1}%",
                acc * 100.0
            );
        }
    }
    println!(
        "\nmodelled GPU time: {:.2} ms ({:.2} ms in HP sparse kernels)",
        backend.total_ms(),
        backend.device().cycles_to_ms(backend.sparse_cycles())
    );
}
