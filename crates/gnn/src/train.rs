//! Training: full-graph and GraphSAINT graph-sampling — the two modes of
//! Table V — over one loop that differs only in where a step's batch comes
//! from.

use crate::backend::SparseBackend;
use crate::gcn::{Gcn, GcnConfig};
use crate::linalg;
use crate::params::Adam;
use hpsparse_sparse::{Dense, Graph, Hybrid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::{Borrow, Cow};
use std::collections::HashSet;

/// Training-run parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Epochs (full-graph) or iterations (graph-sampling).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// GraphSAINT node budget per sampled subgraph (sampling mode only).
    pub sample_nodes: usize,
    /// RNG seed for sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            lr: 0.01,
            sample_nodes: 2048,
            seed: 0,
        }
    }
}

/// What a training run reports.
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Loss after each epoch/iteration.
    pub losses: Vec<f32>,
    /// Final training accuracy.
    pub final_accuracy: f64,
    /// Simulated GPU time attributable to sparse kernels (ms).
    pub sparse_ms: f64,
    /// Simulated GPU time attributable to dense ops (ms).
    pub dense_ms: f64,
    /// Total simulated GPU time (ms) — the Table V quantity.
    pub total_ms: f64,
    /// The most bytes of activations one step's forward kept for backward.
    pub activation_bytes: usize,
}

/// Prepares the self-looped, GCN-normalised operator pair `(S, Sᵀ)`.
fn prepare_operator(g: &Graph) -> (Hybrid, Hybrid) {
    let norm = g.with_self_loops().gcn_normalized();
    let s = norm.to_hybrid();
    let st = norm.adjacency().transpose().to_hybrid();
    (s, st)
}

/// What one training step runs on: the operator pair and the node
/// features and labels it covers.
struct Batch<'a> {
    s: Hybrid,
    st: Hybrid,
    features: Cow<'a, Dense>,
    labels: Cow<'a, [u32]>,
}

/// The training loop: `cfg.epochs` forward/loss/backward/Adam steps, each
/// on the batch `next_batch` hands out — by reference when every step
/// shares one, by value when each step gets its own.
fn train<'a, B: Borrow<Batch<'a>>>(
    backend: &mut dyn SparseBackend,
    model_cfg: GcnConfig,
    cfg: TrainConfig,
    mut next_batch: impl FnMut() -> B,
) -> (Gcn, TrainStats) {
    let mut model = Gcn::new(model_cfg);
    let mut opt = Adam::new(&model, cfg.lr);
    backend.reset_counters();
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut final_accuracy = 0.0;
    let mut activation_bytes = 0;
    for epoch in 0..cfg.epochs {
        let batch = next_batch();
        let batch = batch.borrow();
        let (logits, cache) = model.forward(backend, &batch.s, &batch.features);
        activation_bytes = cache.bytes().max(activation_bytes);
        let (loss, grad) = linalg::softmax_cross_entropy(&logits, &batch.labels);
        let grads = model.backward(backend, &batch.st, cache, grad);
        opt.step(&mut model, &grads);
        losses.push(loss);
        if epoch + 1 == cfg.epochs {
            final_accuracy = linalg::accuracy(&logits, &batch.labels);
        }
    }
    let device = backend.device();
    let stats = TrainStats {
        losses,
        final_accuracy,
        sparse_ms: device.cycles_to_ms(backend.sparse_cycles()),
        dense_ms: device.cycles_to_ms(backend.dense_cycles()),
        total_ms: backend.total_ms(),
        activation_bytes,
    };
    (model, stats)
}

/// Full-graph training: the whole adjacency every iteration (GCN mode of
/// Table V).
pub fn train_full_graph(
    backend: &mut dyn SparseBackend,
    g: &Graph,
    features: &Dense,
    labels: &[u32],
    model_cfg: GcnConfig,
    cfg: TrainConfig,
) -> (Gcn, TrainStats) {
    assert_eq!(features.rows(), g.num_nodes());
    assert_eq!(labels.len(), g.num_nodes());
    let (s, st) = prepare_operator(g);
    let batch = Batch {
        s,
        st,
        features: Cow::Borrowed(features),
        labels: Cow::Borrowed(labels),
    };
    train(backend, model_cfg, cfg, || &batch)
}

/// GraphSAINT-style graph-sampling training: a fresh node-sampled subgraph
/// per iteration (the mode where preprocessing-free kernels matter most —
/// §II and Table V).
pub fn train_graph_sampling(
    backend: &mut dyn SparseBackend,
    g: &Graph,
    features: &Dense,
    labels: &[u32],
    model_cfg: GcnConfig,
    cfg: TrainConfig,
) -> (Gcn, TrainStats) {
    assert_eq!(features.rows(), g.num_nodes());
    assert_eq!(labels.len(), g.num_nodes());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cumulative = cumulative_degrees(g);
    train(backend, model_cfg, cfg, || {
        // Sample node ids first so features/labels can be gathered; the
        // induced subgraph preserves sampled order for unique nodes.
        let nodes = sample_node_ids(&cumulative, cfg.sample_nodes, &mut rng);
        let (s, st) = prepare_operator(&g.induced_subgraph(&nodes));
        Batch {
            s,
            st,
            features: Cow::Owned(gather_rows(features, &nodes)),
            labels: Cow::Owned(nodes.iter().map(|&v| labels[v as usize]).collect()),
        }
    })
}

/// Running sum of `degree + 1` over the nodes: the table GraphSAINT's node
/// sampler inverts to draw a node with probability proportional to degree
/// (importance sampling). That keeps the induced subgraph densely
/// connected; uniform sampling of a sparse graph would return a near-empty
/// edge set.
fn cumulative_degrees(g: &Graph) -> Vec<u64> {
    let mut acc = 0u64;
    (0..g.num_nodes())
        .map(|v| {
            acc += g.degree(v) as u64 + 1;
            acc
        })
        .collect()
}

/// Up to `budget` distinct nodes, each draw proportional to degree.
fn sample_node_ids(cumulative: &[u64], budget: usize, rng: &mut StdRng) -> Vec<u32> {
    let budget = budget.min(cumulative.len());
    let total = cumulative.last().copied().unwrap_or(0).max(1);
    let mut chosen = HashSet::with_capacity(budget * 2);
    let mut nodes = Vec::with_capacity(budget);
    let mut guard = 0usize;
    while nodes.len() < budget && guard < budget * 20 {
        guard += 1;
        let x = rng.random_range(0..total);
        let v = cumulative.partition_point(|&c| c <= x) as u32;
        if chosen.insert(v) {
            nodes.push(v);
        }
    }
    nodes
}

fn gather_rows(x: &Dense, rows: &[u32]) -> Dense {
    let k = x.cols();
    let mut out = Dense::zeros(rows.len(), k);
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(x.row(r as usize));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BaselineBackend, CpuBackend, HpBackend};
    use hpsparse_datasets::features::{planted_labels, random_features};
    use hpsparse_datasets::generators::{GeneratorConfig, Topology};
    use hpsparse_sim::DeviceSpec;

    fn toy_problem() -> (Graph, Dense, Vec<u32>) {
        let g = GeneratorConfig {
            nodes: 200,
            edges: 1200,
            topology: Topology::Community {
                communities: 4,
                p_in: 0.9,
                alpha: 2.5,
            },
            seed: 5,
        }
        .generate();
        let features = random_features(200, 12, 5);
        let labels = planted_labels(&features, 3, 5);
        (g, features, labels)
    }

    #[test]
    fn full_graph_training_learns() {
        let (g, x, y) = toy_problem();
        let mut backend = CpuBackend::new();
        let (_, stats) = train_full_graph(
            &mut backend,
            &g,
            &x,
            &y,
            GcnConfig {
                in_dim: 12,
                hidden: 16,
                layers: 2,
                classes: 3,
                seed: 1,
            },
            TrainConfig {
                epochs: 80,
                lr: 0.05,
                ..Default::default()
            },
        );
        assert!(
            stats.losses.last().unwrap() < &(stats.losses[0] * 0.8),
            "loss {:?}",
            (stats.losses.first(), stats.losses.last())
        );
        assert!(stats.final_accuracy > 0.5, "acc {}", stats.final_accuracy);
    }

    /// A GCN step keeps `Z_l` (`n × fan_in(l)`) for every layer and the
    /// post-activation `H_l` (`n × hidden`) for every hidden layer — no
    /// pre-activations, no copy of the input, no logits.
    #[test]
    fn gcn_keeps_each_activation_once() {
        let (g, x, y) = toy_problem();
        let (n, in_dim, hidden, layers) = (g.num_nodes(), 12, 16, 3);
        let (_, stats) = train_full_graph(
            &mut CpuBackend::new(),
            &g,
            &x,
            &y,
            GcnConfig {
                in_dim,
                hidden,
                layers,
                classes: 3,
                seed: 1,
            },
            TrainConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let fan_in_sum = in_dim + (layers - 1) * hidden;
        assert_eq!(
            stats.activation_bytes,
            4 * n * (fan_in_sum + (layers - 1) * hidden)
        );
    }

    #[test]
    fn sampling_training_runs_and_learns_roughly() {
        let (g, x, y) = toy_problem();
        let mut backend = CpuBackend::new();
        let (_, stats) = train_graph_sampling(
            &mut backend,
            &g,
            &x,
            &y,
            GcnConfig {
                in_dim: 12,
                hidden: 16,
                layers: 2,
                classes: 3,
                seed: 1,
            },
            TrainConfig {
                epochs: 25,
                lr: 0.05,
                sample_nodes: 80,
                seed: 9,
            },
        );
        assert_eq!(stats.losses.len(), 25);
        assert!(stats.losses.last().unwrap() < &stats.losses[0]);
    }

    #[test]
    fn hp_backend_is_faster_than_baseline_end_to_end() {
        // The Table V effect in miniature: identical training, different
        // sparse kernels, HP's modelled time must be lower. The graph must
        // be large enough that kernels clear the simulator's launch-floor
        // (~2k cycles), or every kernel costs the same.
        let g = GeneratorConfig {
            nodes: 4_000,
            edges: 60_000,
            topology: Topology::PowerLaw { alpha: 2.0 },
            seed: 6,
        }
        .generate();
        let x = random_features(4_000, 12, 5);
        let y = planted_labels(&x, 3, 5);
        let model_cfg = GcnConfig {
            in_dim: 12,
            hidden: 32,
            layers: 3,
            classes: 3,
            seed: 2,
        };
        let cfg = TrainConfig {
            epochs: 2,
            lr: 0.01,
            ..Default::default()
        };
        let mut hp = HpBackend::new(DeviceSpec::v100());
        let (_, hp_stats) = train_full_graph(&mut hp, &g, &x, &y, model_cfg, cfg);
        let mut base = BaselineBackend::new(DeviceSpec::v100());
        let (_, base_stats) = train_full_graph(&mut base, &g, &x, &y, model_cfg, cfg);
        assert!(hp_stats.sparse_ms > 0.0);
        assert!(
            hp_stats.sparse_ms < base_stats.sparse_ms,
            "hp sparse {} vs baseline sparse {}",
            hp_stats.sparse_ms,
            base_stats.sparse_ms
        );
        // Dense time is backend-independent.
        assert!((hp_stats.dense_ms - base_stats.dense_ms).abs() < 1e-9);
        // And the losses are identical up to float noise (same numerics).
        for (a, b) in hp_stats.losses.iter().zip(&base_stats.losses) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn operator_preparation_normalises() {
        let (g, _, _) = toy_problem();
        let (s, st) = prepare_operator(&g);
        assert_eq!(s.nnz(), st.nnz());
        // All values in (0, 1].
        assert!(s.values().iter().all(|&v| v > 0.0 && v <= 1.0));
    }
}
