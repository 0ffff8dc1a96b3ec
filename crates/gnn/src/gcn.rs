//! Graph Convolutional Network with manual reverse-mode backpropagation.
//!
//! Each layer computes `H_out = σ(S · H_in · W + b)` — the SpMM-then-FC
//! structure the paper names as how GNN frameworks implement GCN (§I).
//! Forward and backward both run one SpMM per layer (`S` forward, `Sᵀ`
//! backward), so kernel quality shows up twice per layer per iteration,
//! exactly as in DGL/PyG training.

use crate::backend::{account_elementwise, account_gemm, SparseBackend};
use crate::linalg;
use crate::params::{Model, Xorshift64Star};
use hpsparse_sparse::{Dense, Hybrid};

/// Model shape.
#[derive(Debug, Clone, Copy)]
pub struct GcnConfig {
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden width (the paper sweeps 32 / 128 / 256 in Table V).
    pub hidden: usize,
    /// Number of GCN layers (Table V: 3–8).
    pub layers: usize,
    /// Output classes.
    pub classes: usize,
    /// Weight-init seed.
    pub seed: u64,
}

/// The model: per-layer weights and biases.
pub struct Gcn {
    /// Layer weight matrices.
    pub weights: Vec<Dense>,
    /// Layer bias vectors.
    pub biases: Vec<Vec<f32>>,
}

/// Forward activations kept for the backward pass — each tensor once, and
/// only those backward reads. [`Gcn::backward`] consumes the cache and
/// frees each tensor after its last read.
pub struct Cache {
    /// Aggregated features `Z_l = S · H_{l-1}`, length `layers`.
    aggregated: Vec<Dense>,
    /// Post-activations `H_l = relu(Y_l)` of the hidden layers, length
    /// `layers − 1`: layer `l + 1`'s input and the ReLU mask of `dY_l`.
    activations: Vec<Dense>,
}

impl Cache {
    /// Bytes of activations held for backward.
    pub fn bytes(&self) -> usize {
        let tensors = self.aggregated.iter().chain(&self.activations);
        tensors.map(|t| size_of_val(t.data())).sum()
    }
}

/// Parameter gradients, shaped like the model.
pub type Grads = Gcn;

/// `(fan_in, fan_out)` of each layer of an `in_dim → hidden → … → classes`
/// stack.
fn layer_dims(
    in_dim: usize,
    hidden: usize,
    classes: usize,
    layers: usize,
) -> impl Iterator<Item = (usize, usize)> {
    (0..layers).map(move |l| {
        let fan_in = if l == 0 { in_dim } else { hidden };
        let fan_out = if l == layers - 1 { classes } else { hidden };
        (fan_in, fan_out)
    })
}

impl Gcn {
    /// Glorot-uniform initialisation.
    pub fn new(config: GcnConfig) -> Self {
        assert!(config.layers >= 1);
        let dims = layer_dims(config.in_dim, config.hidden, config.classes, config.layers);
        let mut rng = Xorshift64Star::new(config.seed);
        let mut weights = Vec::with_capacity(config.layers);
        let mut biases = Vec::with_capacity(config.layers);
        for (fan_in, fan_out) in dims {
            let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
            weights.push(Dense::from_fn(fan_in, fan_out, |_, _| {
                ((rng.unit() * 2.0 - 1.0) * limit) as f32
            }));
            biases.push(vec![0f32; fan_out]);
        }
        Self { weights, biases }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Forward pass: returns logits and the cache for backward.
    pub fn forward(
        &self,
        backend: &mut dyn SparseBackend,
        s: &Hybrid,
        x: &Dense,
    ) -> (Dense, Cache) {
        let layers = self.num_layers();
        let mut aggregated = Vec::with_capacity(layers);
        let mut activations = Vec::with_capacity(layers);
        for l in 0..layers {
            let z = backend.spmm(s, activations.last().unwrap_or(x));
            let w = &self.weights[l];
            account_gemm(backend, z.rows(), z.cols(), w.cols());
            let mut y = linalg::matmul(&z, w);
            linalg::add_bias(&mut y, &self.biases[l]);
            aggregated.push(z);
            if l + 1 < layers {
                account_elementwise(backend, y.rows() * y.cols());
                linalg::relu(&mut y);
            }
            activations.push(y);
        }
        let logits = activations.pop().expect("at least one layer");
        (
            logits,
            Cache {
                aggregated,
                activations,
            },
        )
    }

    /// Backward pass from the logits gradient. `s_t` is the transposed
    /// adjacency in hybrid form (precomputed once per graph). Consumes the
    /// cache: `Z_l` is freed after the weight gradient reads it, `H_{l-1}`
    /// after the ReLU mask does.
    pub fn backward(
        &self,
        backend: &mut dyn SparseBackend,
        s_t: &Hybrid,
        mut cache: Cache,
        grad_logits: Dense,
    ) -> Grads {
        let mut grads = Grads {
            weights: Vec::with_capacity(self.num_layers()),
            biases: Vec::with_capacity(self.num_layers()),
        };
        let mut d_y = grad_logits;
        for l in (0..self.num_layers()).rev() {
            let z = cache.aggregated.pop().expect("one aggregate per layer");
            let w = &self.weights[l];
            account_gemm(backend, w.rows(), z.rows(), w.cols());
            grads.weights.push(linalg::matmul_transpose_a(&z, &d_y));
            drop(z);
            grads.biases.push(linalg::column_sums(&d_y));
            let Some(h) = cache.activations.pop() else {
                break;
            };
            account_gemm(backend, d_y.rows(), d_y.cols(), w.rows());
            let d_z = linalg::matmul_transpose_b(&d_y, w);
            let mut d_h = backend.spmm(s_t, &d_z);
            account_elementwise(backend, d_h.rows() * d_h.cols());
            linalg::relu_backward(&mut d_h, &h);
            d_y = d_h;
        }
        // Pushed last layer first.
        grads.weights.reverse();
        grads.biases.reverse();
        grads
    }
}

impl Model for Gcn {
    type Grads = Gcn;

    fn params(&self) -> impl Iterator<Item = &[f32]> {
        let biases = self.biases.iter().map(Vec::as_slice);
        self.weights.iter().map(Dense::data).chain(biases)
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        let biases = self.biases.iter_mut().map(Vec::as_mut_slice);
        self.weights.iter_mut().map(Dense::data_mut).chain(biases)
    }

    fn grads(grads: &Gcn) -> impl Iterator<Item = &[f32]> {
        grads.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CpuBackend;
    use crate::params::Adam;
    use hpsparse_sparse::Graph;

    fn line_graph_hybrid(n: usize) -> (Hybrid, Hybrid) {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1)
            .flat_map(|i| [(i, i + 1), (i + 1, i)])
            .collect();
        let g = Graph::from_edges(n, &edges)
            .with_self_loops()
            .gcn_normalized();
        let s = g.to_hybrid();
        let st = g.adjacency().transpose().to_hybrid();
        (s, st)
    }

    #[test]
    fn forward_shapes_are_correct() {
        let (s, _) = line_graph_hybrid(10);
        let model = Gcn::new(GcnConfig {
            in_dim: 8,
            hidden: 16,
            layers: 3,
            classes: 4,
            seed: 1,
        });
        let x = Dense::from_fn(10, 8, |i, j| ((i + j) as f32 * 0.1).sin());
        let mut backend = CpuBackend::new();
        let (logits, cache) = model.forward(&mut backend, &s, &x);
        assert_eq!(logits.rows(), 10);
        assert_eq!(logits.cols(), 4);
        assert_eq!(cache.aggregated.len(), 3);
    }

    #[test]
    fn gradient_check_single_layer() {
        // Numerical gradient check on a tiny 1-layer GCN.
        let (s, st) = line_graph_hybrid(5);
        let x = Dense::from_fn(5, 3, |i, j| ((i * 3 + j) as f32 * 0.2).cos());
        let labels = [0u32, 1, 0, 1, 0];
        let mut model = Gcn::new(GcnConfig {
            in_dim: 3,
            hidden: 1,
            layers: 1,
            classes: 2,
            seed: 7,
        });
        let mut backend = CpuBackend::new();
        let (logits, cache) = model.forward(&mut backend, &s, &x);
        let (_, grad_logits) = linalg::softmax_cross_entropy(&logits, &labels);
        let grads = model.backward(&mut backend, &st, cache, grad_logits);

        let eps = 1e-3f32;
        for idx in 0..model.weights[0].data().len() {
            let orig = model.weights[0].data()[idx];
            model.weights[0].data_mut()[idx] = orig + eps;
            let (lp, _) = {
                let (lg, _) = model.forward(&mut backend, &s, &x);
                linalg::softmax_cross_entropy(&lg, &labels)
            };
            model.weights[0].data_mut()[idx] = orig - eps;
            let (lm, _) = {
                let (lg, _) = model.forward(&mut backend, &s, &x);
                linalg::softmax_cross_entropy(&lg, &labels)
            };
            model.weights[0].data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.weights[0].data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "weight {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_check_two_layers_through_spmm_and_relu() {
        let (s, st) = line_graph_hybrid(6);
        let x = Dense::from_fn(6, 4, |i, j| ((i * 4 + j) as f32 * 0.3).sin());
        let labels = [0u32, 1, 2, 0, 1, 2];
        let mut model = Gcn::new(GcnConfig {
            in_dim: 4,
            hidden: 5,
            layers: 2,
            classes: 3,
            seed: 3,
        });
        let mut backend = CpuBackend::new();
        let (logits, cache) = model.forward(&mut backend, &s, &x);
        let (_, grad_logits) = linalg::softmax_cross_entropy(&logits, &labels);
        let grads = model.backward(&mut backend, &st, cache, grad_logits);
        let eps = 1e-2f32;
        // Spot-check a handful of first-layer weights (through ReLU+SpMM).
        for idx in [0usize, 3, 7, 11, 19] {
            let orig = model.weights[0].data()[idx];
            model.weights[0].data_mut()[idx] = orig + eps;
            let (lg, _) = model.forward(&mut backend, &s, &x);
            let (lp, _) = linalg::softmax_cross_entropy(&lg, &labels);
            model.weights[0].data_mut()[idx] = orig - eps;
            let (lg, _) = model.forward(&mut backend, &s, &x);
            let (lm, _) = linalg::softmax_cross_entropy(&lg, &labels);
            model.weights[0].data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.weights[0].data()[idx];
            assert!(
                (numeric - analytic).abs() < 5e-2,
                "weight {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn adam_reduces_loss_on_tiny_problem() {
        let (s, st) = line_graph_hybrid(8);
        let x = Dense::from_fn(8, 6, |i, j| ((i * 6 + j) as f32 * 0.37).sin());
        // Labels split by graph position: friendly to a smoothing GCN
        // (alternating labels would fight the aggregation).
        let labels: Vec<u32> = (0..8).map(|i| u32::from(i >= 4)).collect();
        let mut model = Gcn::new(GcnConfig {
            in_dim: 6,
            hidden: 8,
            layers: 2,
            classes: 2,
            seed: 11,
        });
        let mut opt = Adam::new(&model, 0.05);
        let mut backend = CpuBackend::new();
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..80 {
            let (logits, cache) = model.forward(&mut backend, &s, &x);
            let (loss, grad) = linalg::softmax_cross_entropy(&logits, &labels);
            let grads = model.backward(&mut backend, &st, cache, grad);
            opt.step(&mut model, &grads);
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss did not halve: {} -> {}",
            first_loss.unwrap(),
            last_loss
        );
    }

    #[test]
    fn glorot_init_is_bounded_and_deterministic() {
        let cfg = GcnConfig {
            in_dim: 10,
            hidden: 20,
            layers: 2,
            classes: 5,
            seed: 42,
        };
        let a = Gcn::new(cfg);
        let b = Gcn::new(cfg);
        assert_eq!(a.weights[0], b.weights[0]);
        let limit = (6.0f64 / 30.0).sqrt() as f32;
        assert!(a.weights[0].data().iter().all(|w| w.abs() <= limit));
        // Not all zero.
        assert!(a.weights[0].data().iter().any(|&w| w.abs() > 1e-4));
    }
}
