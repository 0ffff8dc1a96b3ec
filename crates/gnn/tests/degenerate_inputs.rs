//! Degenerate inputs through both trainers and the graph transformer, on
//! the CPU, HP and autotuned backends: an empty graph, an all-isolated
//! graph, an empty sample budget, zero-wide features and a zero-wide
//! hidden layer. Each returns shaped results and finite losses, never a
//! panic — and so pins that the GEMM tile handles `m = 0`, `k = 0` and
//! `n = 0` operands wherever a trainer can produce them.

use hpsparse_gnn::{
    linalg, train_full_graph, train_graph_sampling, AutoBackend, CpuBackend, Gcn, GcnConfig,
    GraphTransformer, HpBackend, Model, SparseBackend, TrainConfig, TrainStats, TransformerConfig,
};
use hpsparse_sim::DeviceSpec;
use hpsparse_sparse::{Dense, Graph};

const CLASSES: usize = 3;
const EPOCHS: usize = 2;

type Trainer =
    fn(&mut dyn SparseBackend, &Graph, &Dense, &[u32], GcnConfig, TrainConfig) -> (Gcn, TrainStats);

fn backends() -> [Box<dyn SparseBackend>; 3] {
    [
        Box::new(CpuBackend::new()),
        Box::new(HpBackend::new(DeviceSpec::v100())),
        Box::new(AutoBackend::new(DeviceSpec::v100())),
    ]
}

/// `n` nodes, no edges.
fn isolated(n: usize) -> Graph {
    Graph::from_edges(n, &[])
}

/// A 6-node ring, both directions.
fn ring() -> Graph {
    let edges: Vec<(u32, u32)> = (0..6u32)
        .flat_map(|v| [(v, (v + 1) % 6), ((v + 1) % 6, v)])
        .collect();
    Graph::from_edges(6, &edges)
}

fn features(rows: usize, cols: usize) -> Dense {
    Dense::from_fn(rows, cols, |i, j| ((i * 7 + j * 3) as f32 * 0.3).sin())
}

fn labels(rows: usize) -> Vec<u32> {
    (0..rows as u32).map(|i| i % CLASSES as u32).collect()
}

fn all_finite<'a>(tensors: impl IntoIterator<Item = &'a [f32]>) -> bool {
    tensors.into_iter().flatten().all(|v| v.is_finite())
}

/// One trainer on one degenerate input, on every backend.
fn check_trainer(
    name: &str,
    train: Trainer,
    g: &Graph,
    in_dim: usize,
    hidden: usize,
    sample: usize,
) {
    let n = g.num_nodes();
    let (x, y) = (features(n, in_dim), labels(n));
    let model_cfg = GcnConfig {
        in_dim,
        hidden,
        layers: 3,
        classes: CLASSES,
        seed: 1,
    };
    let cfg = TrainConfig {
        epochs: EPOCHS,
        sample_nodes: sample,
        seed: 4,
        ..TrainConfig::default()
    };
    for mut backend in backends() {
        let case = format!("{name} on {}", backend.name());
        let (model, stats) = train(backend.as_mut(), g, &x, &y, model_cfg, cfg);
        assert_eq!(stats.losses.len(), EPOCHS, "{case}");
        assert!(all_finite([stats.losses.as_slice()]), "{case}: {stats:?}");
        assert!((0.0..=1.0).contains(&stats.final_accuracy), "{case}");
        let shapes: Vec<_> = model.weights.iter().map(|w| (w.rows(), w.cols())).collect();
        assert_eq!(
            shapes,
            [(in_dim, hidden), (hidden, hidden), (hidden, CLASSES)],
            "{case}"
        );
        let bias_lens: Vec<_> = model.biases.iter().map(Vec::len).collect();
        assert_eq!(bias_lens, [hidden, hidden, CLASSES], "{case}");
        assert!(all_finite(model.params()), "{case}");
    }
}

#[test]
fn trainers_take_degenerate_inputs_on_every_backend() {
    let trainers: [(&str, Trainer); 2] = [
        ("full-graph", train_full_graph),
        ("graph-sampling", train_graph_sampling),
    ];
    // (input, graph, in_dim, hidden)
    let inputs = [
        ("0 nodes", isolated(0), 4, 8),
        ("5 isolated nodes", isolated(5), 4, 8),
        ("in_dim 0", ring(), 0, 8),
        ("hidden 0", ring(), 4, 0),
    ];
    let budget = TrainConfig::default().sample_nodes;
    for (trainer, train) in trainers {
        for (input, g, in_dim, hidden) in &inputs {
            let name = format!("{trainer}, {input}");
            check_trainer(&name, train, g, *in_dim, *hidden, budget);
        }
    }
    let name = "graph-sampling, sample_nodes 0";
    check_trainer(name, train_graph_sampling, &ring(), 4, 8, 0);
}

#[test]
fn the_graph_transformer_takes_empty_and_isolated_graphs_on_every_backend() {
    let model = GraphTransformer::new(TransformerConfig {
        in_dim: 4,
        head_dim: 2,
        heads: 2,
        ffn_dim: 8,
        classes: CLASSES,
        seed: 3,
    });
    for (name, g) in [("0 nodes", isolated(0)), ("5 isolated nodes", isolated(5))] {
        let n = g.num_nodes();
        let (s, x, y) = (g.to_hybrid(), features(n, 4), labels(n));
        for mut backend in backends() {
            let case = format!("{name} on {}", backend.name());
            let (logits, cache) = model.forward(backend.as_mut(), &s, &x);
            assert_eq!((logits.rows(), logits.cols()), (n, CLASSES), "{case}");
            assert!(all_finite([logits.data()]), "{case}");
            let (loss, grad) = linalg::softmax_cross_entropy(&logits, &y);
            assert!(loss.is_finite(), "{case}: loss {loss}");
            let grads = model.backward(backend.as_mut(), &s, &cache, &grad);
            let lens = |m: &GraphTransformer| m.params().map(<[f32]>::len).collect::<Vec<_>>();
            assert_eq!(lens(&grads), lens(&model), "{case}");
            assert!(all_finite(grads.params()), "{case}");
        }
    }
}
