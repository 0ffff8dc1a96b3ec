//! GraphSAGE (Hamilton et al., NeurIPS'17) with the mean aggregator — one
//! of the "ten representative GNN models" whose sampled subgraphs form the
//! paper's graph-sampling dataset.
//!
//! Each layer computes `H' = σ(H·W_self + (S̄·H)·W_nbr + b)` where `S̄` is
//! the row-mean-normalised adjacency: one SpMM forward and one transposed
//! SpMM backward per layer, exactly like GCN, plus a second (dense) branch
//! for the self features.

use crate::backend::{account_elementwise, account_gemm, SparseBackend};
use crate::gcn::{layer_dims, GcnConfig};
use crate::linalg;
use crate::params::{Adam, Model, Xorshift64Star};
use hpsparse_sparse::{Csr, Dense, FormatError, Graph, Hybrid};

/// Model shape: the same five numbers as a GCN's.
pub type SageConfig = GcnConfig;

/// GraphSAGE with mean aggregation.
pub struct Sage {
    /// Self-feature weights per layer.
    pub w_self: Vec<Dense>,
    /// Neighbour-aggregate weights per layer.
    pub w_nbr: Vec<Dense>,
    /// Biases per layer.
    pub biases: Vec<Vec<f32>>,
}

/// Forward activations for backprop — each tensor once, and only those
/// backward reads. [`Sage::backward`] consumes the cache and frees each
/// tensor after its last read.
pub struct SageCache<'x> {
    /// The model input: layer 0's self branch, borrowed.
    x: &'x Dense,
    /// Post-activations `H_l = relu(Y_l)` of the hidden layers, length
    /// `layers − 1`: layer `l + 1`'s self-branch input and the ReLU mask
    /// of `dY_l`.
    activations: Vec<Dense>,
    /// Aggregated features `Z_l = S̄ · H_{l-1}`, length `layers`.
    aggregated: Vec<Dense>,
}

/// Parameter gradients, shaped like the model.
pub type SageGrads = Sage;

/// Builds the mean-normalised operator pair `(S̄, S̄ᵀ)`: each row of the
/// adjacency divided by its degree (no self loops — GraphSAGE keeps the
/// self branch separate).
pub fn mean_operator(g: &Graph) -> Result<(Hybrid, Hybrid), FormatError> {
    let adj = g.adjacency();
    let triplets: Vec<(u32, u32, f32)> = adj
        .iter()
        .map(|(r, c, v)| (r, c, v / adj.row_len(r as usize).max(1) as f32))
        .collect();
    let norm = Csr::from_triplets(adj.rows(), adj.cols(), &triplets)?;
    Ok((norm.to_hybrid(), norm.transpose().to_hybrid()))
}

impl Sage {
    /// Glorot-style deterministic initialisation.
    pub fn new(config: SageConfig) -> Self {
        assert!(config.layers >= 1);
        let mut rng = Xorshift64Star::new(config.seed);
        let mut w_self = Vec::new();
        let mut w_nbr = Vec::new();
        let mut biases = Vec::new();
        for (fan_in, fan_out) in
            layer_dims(config.in_dim, config.hidden, config.classes, config.layers)
        {
            let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
            let mut init = |_: usize, _: usize| ((rng.unit() * 2.0 - 1.0) * limit) as f32;
            w_self.push(Dense::from_fn(fan_in, fan_out, &mut init));
            w_nbr.push(Dense::from_fn(fan_in, fan_out, &mut init));
            biases.push(vec![0f32; fan_out]);
        }
        Self {
            w_self,
            w_nbr,
            biases,
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.w_self.len()
    }

    /// Forward pass over the mean-normalised operator.
    pub fn forward<'x>(
        &self,
        backend: &mut dyn SparseBackend,
        s_mean: &Hybrid,
        x: &'x Dense,
    ) -> (Dense, SageCache<'x>) {
        let layers = self.num_layers();
        let mut activations = Vec::with_capacity(layers);
        let mut aggregated = Vec::with_capacity(layers);
        for l in 0..layers {
            let h = activations.last().unwrap_or(x);
            let z = backend.spmm(s_mean, h);
            for w in [&self.w_self[l], &self.w_nbr[l]] {
                account_gemm(backend, h.rows(), h.cols(), w.cols());
            }
            let mut y = linalg::matmul(h, &self.w_self[l]);
            let y_nbr = linalg::matmul(&z, &self.w_nbr[l]);
            for (a, b) in y.data_mut().iter_mut().zip(y_nbr.data()) {
                *a += b;
            }
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
            SageCache {
                x,
                activations,
                aggregated,
            },
        )
    }

    /// Backward pass (mirrors the forward's two branches). Consumes the
    /// cache: `Z_l` is freed after the neighbour-weight gradient reads it,
    /// `H_{l-1}` after the self-weight gradient and the ReLU mask do.
    pub fn backward(
        &self,
        backend: &mut dyn SparseBackend,
        s_mean_t: &Hybrid,
        mut cache: SageCache,
        grad_logits: Dense,
    ) -> SageGrads {
        let layers = self.num_layers();
        let mut grads = SageGrads {
            w_self: Vec::with_capacity(layers),
            w_nbr: Vec::with_capacity(layers),
            biases: Vec::with_capacity(layers),
        };
        let mut d_y = grad_logits;
        for l in (0..layers).rev() {
            let h = cache.activations.pop();
            let z = cache.aggregated.pop().expect("one aggregate per layer");
            let input = h.as_ref().unwrap_or(cache.x);
            account_gemm(backend, input.cols(), input.rows(), d_y.cols());
            grads.w_self.push(linalg::matmul_transpose_a(input, &d_y));
            grads.w_nbr.push(linalg::matmul_transpose_a(&z, &d_y));
            drop(z);
            grads.biases.push(linalg::column_sums(&d_y));
            let Some(h) = h else {
                break;
            };
            // dH = dY·W_selfᵀ + S̄ᵀ·(dY·W_nbrᵀ)
            account_gemm(backend, d_y.rows(), d_y.cols(), self.w_self[l].rows());
            let mut d_h = linalg::matmul_transpose_b(&d_y, &self.w_self[l]);
            let d_z = linalg::matmul_transpose_b(&d_y, &self.w_nbr[l]);
            let d_agg = backend.spmm(s_mean_t, &d_z);
            for (a, b) in d_h.data_mut().iter_mut().zip(d_agg.data()) {
                *a += b;
            }
            linalg::relu_backward(&mut d_h, &h);
            d_y = d_h;
        }
        // Pushed last layer first.
        grads.w_self.reverse();
        grads.w_nbr.reverse();
        grads.biases.reverse();
        grads
    }
}

impl Model for Sage {
    type Grads = Sage;

    fn params(&self) -> impl Iterator<Item = &[f32]> {
        let weights = self.w_self.iter().chain(&self.w_nbr).map(Dense::data);
        weights.chain(self.biases.iter().map(Vec::as_slice))
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        let weights = self.w_self.iter_mut().chain(&mut self.w_nbr);
        let biases = self.biases.iter_mut().map(Vec::as_mut_slice);
        weights.map(Dense::data_mut).chain(biases)
    }

    fn grads(grads: &Sage) -> impl Iterator<Item = &[f32]> {
        grads.params()
    }
}

/// Adam over a GraphSAGE model.
pub type SageAdam = Adam<Sage>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CpuBackend;
    use hpsparse_sparse::Graph;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| {
                let nxt = (i + 1) % n as u32;
                [(i, nxt), (nxt, i)]
            })
            .collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn mean_operator_rows_sum_to_one() {
        let g = ring(8);
        let (s, st) = mean_operator(&g).unwrap();
        let mut sums = [0f32; 8];
        for (r, _c, v) in s.iter() {
            sums[r as usize] += v;
        }
        for (r, &sum) in sums.iter().enumerate() {
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums {sum}");
        }
        assert_eq!(s.nnz(), st.nnz());
    }

    #[test]
    fn forward_shapes() {
        let g = ring(10);
        let (s, _) = mean_operator(&g).unwrap();
        let model = Sage::new(SageConfig {
            in_dim: 6,
            hidden: 12,
            layers: 2,
            classes: 3,
            seed: 1,
        });
        let x = Dense::from_fn(10, 6, |i, j| ((i + j) as f32 * 0.1).sin());
        let mut backend = CpuBackend::new();
        let (logits, cache) = model.forward(&mut backend, &s, &x);
        assert_eq!(logits.rows(), 10);
        assert_eq!(logits.cols(), 3);
        assert_eq!(cache.aggregated.len(), 2);
    }

    #[test]
    fn gradient_check_both_branches() {
        let g = ring(6);
        let (s, st) = mean_operator(&g).unwrap();
        let x = Dense::from_fn(6, 4, |i, j| ((i * 4 + j) as f32 * 0.3).cos());
        let labels = [0u32, 1, 0, 1, 0, 1];
        let mut model = Sage::new(SageConfig {
            in_dim: 4,
            hidden: 5,
            layers: 2,
            classes: 2,
            seed: 9,
        });
        let mut backend = CpuBackend::new();
        let (logits, cache) = model.forward(&mut backend, &s, &x);
        let (_, grad_logits) = linalg::softmax_cross_entropy(&logits, &labels);
        let grads = model.backward(&mut backend, &st, cache, grad_logits);
        let eps = 1e-2f32;
        // Spot check a few parameters in each branch of layer 0.
        for idx in [0usize, 5, 11] {
            for branch in 0..2 {
                let orig = if branch == 0 {
                    model.w_self[0].data()[idx]
                } else {
                    model.w_nbr[0].data()[idx]
                };
                let set = |m: &mut Sage, v: f32| {
                    if branch == 0 {
                        m.w_self[0].data_mut()[idx] = v;
                    } else {
                        m.w_nbr[0].data_mut()[idx] = v;
                    }
                };
                set(&mut model, orig + eps);
                let (lg, _) = model.forward(&mut backend, &s, &x);
                let (lp, _) = linalg::softmax_cross_entropy(&lg, &labels);
                set(&mut model, orig - eps);
                let (lg, _) = model.forward(&mut backend, &s, &x);
                let (lm, _) = linalg::softmax_cross_entropy(&lg, &labels);
                set(&mut model, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = if branch == 0 {
                    grads.w_self[0].data()[idx]
                } else {
                    grads.w_nbr[0].data()[idx]
                };
                assert!(
                    (numeric - analytic).abs() < 5e-2,
                    "branch {branch} idx {idx}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn adam_reduces_loss() {
        let g = ring(12);
        let (s, st) = mean_operator(&g).unwrap();
        let x = Dense::from_fn(12, 6, |i, j| ((i * 6 + j) as f32 * 0.27).sin());
        let labels: Vec<u32> = (0..12).map(|i| u32::from(i >= 6)).collect();
        let mut model = Sage::new(SageConfig {
            in_dim: 6,
            hidden: 10,
            layers: 2,
            classes: 2,
            seed: 4,
        });
        let mut opt = SageAdam::new(&model, 0.05);
        let mut backend = CpuBackend::new();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let (logits, cache) = model.forward(&mut backend, &s, &x);
            let (loss, grad) = linalg::softmax_cross_entropy(&logits, &labels);
            let grads = model.backward(&mut backend, &st, cache, grad);
            opt.step(&mut model, &grads);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.6,
            "loss {:?} -> {last}",
            first.unwrap()
        );
    }
}
