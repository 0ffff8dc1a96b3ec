//! Batched sparse multi-head attention and a graph-transformer model —
//! the crate's one attention model.
//!
//! [`SparseMha`] projects Q/K/V for every head and hands all heads to
//! *one* [`SparseBackend::mha`] call. A backend that can fuse runs the
//! whole SDDMM → edge-softmax → SpMM pipeline as a single launch (scores
//! live in shared memory, never touching DRAM); the others run the three
//! launches per head ([`crate::backend::unfused_mha`]) — on
//! `BaselineBackend` that is the per-head pipeline a framework without the
//! paper's kernels executes. The numerics are identical either way, and the
//! backward pass runs per head from the cached activations. One-head
//! attention is `SparseMha::new(in_dim, head_dim, 1, seed)`.

use crate::backend::{account_gemm, SparseBackend};
use crate::gat::{unit_mask, GatCache, GatGrads, GatLayer, Pattern};
use crate::linalg;
use crate::params::{Adam, Model, Xorshift64Star};
use hpsparse_sparse::{Dense, Hybrid};

/// Multi-head sparse attention over a shared graph: H projection triples
/// (one [`GatLayer`] per head) feeding one batched attention call.
pub struct SparseMha {
    /// Per-head projections.
    pub heads: Vec<GatLayer>,
}

/// Forward cache for [`SparseMha::backward`]: one [`GatCache`] per head,
/// assembled from the batched call's activations, all borrowing one input.
pub type MhaCache<'x> = Vec<GatCache<'x>>;

impl SparseMha {
    /// Deterministic initialisation; head `h` uses seed `seed + h·7919`.
    pub fn new(in_dim: usize, head_dim: usize, heads: usize, seed: u64) -> Self {
        Self {
            heads: (0..heads)
                .map(|h| GatLayer::new(in_dim, head_dim, seed.wrapping_add(h as u64 * 7919)))
                .collect(),
        }
    }

    /// Head dimension (columns of each value projection); 0 with no heads.
    pub fn head_dim(&self) -> usize {
        self.heads.first().map_or(0, |h| h.wv.cols())
    }

    /// Forward pass: projects Q/K/V for every head, runs one batched
    /// attention call, and concatenates the head outputs into an
    /// `n × (H·head_dim)` matrix. With no heads there is nothing to attend
    /// with: no call, and an `n × 0` result.
    pub fn forward_cached<'x>(
        &self,
        backend: &mut dyn SparseBackend,
        s: &Hybrid,
        x: &'x Dense,
    ) -> (Dense, MhaCache<'x>) {
        let n = x.rows();
        if self.heads.is_empty() {
            return (Dense::zeros(n, 0), Vec::new());
        }
        let d = self.head_dim();
        let mut qs = Vec::with_capacity(self.heads.len());
        let mut ks = Vec::with_capacity(self.heads.len());
        let mut vs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let [q, k, v] = head.project(backend, x);
            qs.push(q);
            ks.push(k);
            vs.push(v);
        }

        // Unit-valued mask: the attention score is the pure scaled dot
        // product.
        let (outs, attn) = backend.mha(&unit_mask(s), &qs, &ks, &vs);

        let mut concat = Dense::zeros(n, self.heads.len() * d);
        let mut head_caches = Vec::with_capacity(self.heads.len());
        let projections = qs.into_iter().zip(ks).zip(vs);
        let heads = outs.into_iter().zip(attn).zip(projections);
        for (h, ((out, weights), ((q, k), v))) in heads.enumerate() {
            for i in 0..n {
                concat.row_mut(i)[h * d..(h + 1) * d].copy_from_slice(out.row(i));
            }
            head_caches.push(GatCache {
                q,
                k,
                v,
                weights,
                x,
            });
        }
        (concat, head_caches)
    }

    /// Backward pass from the gradient w.r.t. the concatenated output: each
    /// head's projection gradients, from that head's cached activations.
    /// The block's input gradient is not formed: no model reads it.
    pub fn backward(
        &self,
        backend: &mut dyn SparseBackend,
        s: &Hybrid,
        cache: &MhaCache,
        d_concat: &Dense,
    ) -> Vec<GatGrads> {
        let n = d_concat.rows();
        let d = self.head_dim();
        let mut pattern = Pattern::of(s);
        let mut grads = Vec::with_capacity(self.heads.len());
        for (h, (head, head_cache)) in self.heads.iter().zip(cache).enumerate() {
            let d_head = Dense::from_fn(n, d, |i, j| d_concat.get(i, h * d + j));
            let (g, _) = head.projection_backward(backend, &mut pattern, head_cache, &d_head);
            grads.push(g);
        }
        grads
    }
}

/// Graph-transformer shape.
#[derive(Debug, Clone, Copy)]
pub struct TransformerConfig {
    /// Input feature dimension.
    pub in_dim: usize,
    /// Dimension of each attention head.
    pub head_dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Hidden width of the feed-forward block.
    pub ffn_dim: usize,
    /// Output classes.
    pub classes: usize,
    /// Weight-init seed.
    pub seed: u64,
}

/// A single-block graph transformer: batched sparse multi-head attention,
/// a ReLU feed-forward layer over the concatenated heads, and a linear
/// classifier. Every training step drives the fused attention kernel
/// forward and the SDDMM/SpMM pair backward.
pub struct GraphTransformer {
    /// The batched attention block.
    pub attn: SparseMha,
    /// Feed-forward weights (`heads·head_dim × ffn_dim`).
    pub w_ff: Dense,
    /// Classifier weights (`ffn_dim × classes`).
    pub w_out: Dense,
}

/// Forward cache for [`GraphTransformer::backward`], which borrows it.
pub struct TransformerCache<'x> {
    attn: MhaCache<'x>,
    concat: Dense,
    /// The feed-forward post-activation: the classifier's input and the
    /// ReLU mask of its gradient.
    ffn: Dense,
}

/// Parameter gradients, shaped like the model.
pub type TransformerGrads = GraphTransformer;

fn xavier_init(rows: usize, cols: usize, seed: u64) -> Dense {
    let limit = (6.0 / (rows + cols) as f64).sqrt() as f32;
    let mut rng = Xorshift64Star::new(seed);
    Dense::from_fn(rows, cols, |_, _| (rng.unit() * 2.0 - 1.0) as f32 * limit)
}

impl GraphTransformer {
    /// Deterministic initialisation.
    pub fn new(config: TransformerConfig) -> Self {
        let width = config.heads * config.head_dim;
        Self {
            attn: SparseMha::new(config.in_dim, config.head_dim, config.heads, config.seed),
            w_ff: xavier_init(width, config.ffn_dim, config.seed.wrapping_add(104_729)),
            w_out: xavier_init(
                config.ffn_dim,
                config.classes,
                config.seed.wrapping_add(1_299_709),
            ),
        }
    }

    /// Forward pass to logits.
    pub fn forward<'x>(
        &self,
        backend: &mut dyn SparseBackend,
        s: &Hybrid,
        x: &'x Dense,
    ) -> (Dense, TransformerCache<'x>) {
        let n = x.rows();
        let (concat, attn_cache) = self.attn.forward_cached(backend, s, x);
        account_gemm(backend, n, concat.cols(), self.w_ff.cols());
        account_gemm(backend, n, self.w_ff.cols(), self.w_out.cols());
        let mut ffn = linalg::matmul(&concat, &self.w_ff);
        linalg::relu(&mut ffn);
        let logits = linalg::matmul(&ffn, &self.w_out);
        (
            logits,
            TransformerCache {
                attn: attn_cache,
                concat,
                ffn,
            },
        )
    }

    /// Backward pass from the logits gradient.
    pub fn backward(
        &self,
        backend: &mut dyn SparseBackend,
        s: &Hybrid,
        cache: &TransformerCache,
        grad_logits: &Dense,
    ) -> TransformerGrads {
        let w_out_grad = linalg::matmul_transpose_a(&cache.ffn, grad_logits);
        let mut d_ffn = linalg::matmul_transpose_b(grad_logits, &self.w_out);
        linalg::relu_backward(&mut d_ffn, &cache.ffn);
        let w_ff_grad = linalg::matmul_transpose_a(&cache.concat, &d_ffn);
        let d_concat = linalg::matmul_transpose_b(&d_ffn, &self.w_ff);
        let heads = self.attn.backward(backend, s, &cache.attn, &d_concat);
        TransformerGrads {
            attn: SparseMha { heads },
            w_ff: w_ff_grad,
            w_out: w_out_grad,
        }
    }
}

impl Model for GraphTransformer {
    type Grads = GraphTransformer;

    fn params(&self) -> impl Iterator<Item = &[f32]> {
        let heads = self.attn.heads.iter();
        heads
            .flat_map(|h| [&h.wq, &h.wk, &h.wv])
            .chain([&self.w_ff, &self.w_out])
            .map(Dense::data)
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        let heads = self.attn.heads.iter_mut();
        heads
            .flat_map(|h| [&mut h.wq, &mut h.wk, &mut h.wv])
            .chain([&mut self.w_ff, &mut self.w_out])
            .map(Dense::data_mut)
    }

    fn grads(grads: &GraphTransformer) -> impl Iterator<Item = &[f32]> {
        grads.params()
    }
}

/// Adam over the transformer's parameters.
pub type TransformerAdam = Adam<GraphTransformer>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BaselineBackend, CpuBackend, HpBackend};
    use hpsparse_core::numerics::attention;
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::Graph;

    fn two_cluster_graph() -> (Hybrid, Dense, Vec<u32>) {
        let mut edges = Vec::new();
        for base in [0u32, 12] {
            for i in 0..12u32 {
                for j in 0..12u32 {
                    if i != j && (i + j) % 3 == 0 {
                        edges.push((base + i, base + j));
                    }
                }
            }
        }
        let g = Graph::from_edges(24, &edges).with_self_loops();
        let s = g.to_hybrid();
        let x = Dense::from_fn(24, 8, |i, j| {
            let cluster = if i < 12 { 1.0 } else { -1.0 };
            cluster * ((j + 1) as f32 * 0.2) + ((i * 8 + j) as f32 * 0.01).sin()
        });
        let y: Vec<u32> = (0..24).map(|i| u32::from(i >= 12)).collect();
        (s, x, y)
    }

    /// The batched call must compute exactly what the per-head reference
    /// attention (`numerics::attention`, one head at a time) computes — on
    /// the fused HP backend, the unfused baseline, and the CPU alike.
    #[test]
    fn batched_heads_match_per_head_reference_on_every_backend() {
        let (s, x, _) = two_cluster_graph();
        let mha = SparseMha::new(8, 6, 2, 5);

        let d = mha.head_dim();
        let mut expected = Dense::zeros(24, mha.heads.len() * d);
        for (h, head) in mha.heads.iter().enumerate() {
            let [q, k, v] = [&head.wq, &head.wk, &head.wv].map(|w| linalg::matmul(&x, w));
            let (out, _) = attention(&unit_mask(&s), &[q], &[k], &[v]).unwrap();
            for i in 0..24 {
                expected.row_mut(i)[h * d..(h + 1) * d].copy_from_slice(out[0].row(i));
            }
        }

        let mut hp = HpBackend::new(DeviceSpec::v100());
        let mut base = BaselineBackend::new(DeviceSpec::v100());
        let mut cpu = CpuBackend::new();
        for b in [&mut hp as &mut dyn SparseBackend, &mut base, &mut cpu] {
            let (concat, _) = mha.forward_cached(b, &s, &x);
            assert!(
                concat.approx_eq(&expected, 1e-4, 1e-5),
                "{} batched output drifts from the per-head reference",
                b.name()
            );
        }
        assert!(hp.sparse_cycles() > 0, "fused path must be accounted");
    }

    /// The fused path's cached activations feed the same backward pass:
    /// gradients from the batched layer must match each head's gradients
    /// as a one-head layer with the same weights computes them.
    #[test]
    fn batched_backward_matches_per_head_backward() {
        let (s, x, _) = two_cluster_graph();
        let mha = SparseMha::new(8, 4, 2, 7);
        let d = mha.head_dim();

        let mut hp = HpBackend::new(DeviceSpec::v100());
        let (concat, cache) = mha.forward_cached(&mut hp, &s, &x);
        let d_concat = Dense::from_fn(concat.rows(), concat.cols(), |i, j| {
            ((i * 3 + j) as f32 * 0.07).cos()
        });
        let grads = mha.backward(&mut hp, &s, &cache, &d_concat);
        assert_eq!(grads.len(), mha.heads.len());

        let mut cpu = CpuBackend::new();
        for (h, head) in mha.heads.iter().enumerate() {
            let one = SparseMha {
                heads: vec![GatLayer {
                    wq: head.wq.clone(),
                    wk: head.wk.clone(),
                    wv: head.wv.clone(),
                }],
            };
            let (_, head_cache) = one.forward_cached(&mut cpu, &s, &x);
            let mut d_head = Dense::zeros(concat.rows(), d);
            for i in 0..concat.rows() {
                d_head
                    .row_mut(i)
                    .copy_from_slice(&d_concat.row(i)[h * d..(h + 1) * d]);
            }
            let hg = &one.backward(&mut cpu, &s, &head_cache, &d_head)[0];
            assert!(grads[h].wq.approx_eq(&hg.wq, 1e-3, 1e-4), "head {h} wq");
            assert!(grads[h].wk.approx_eq(&hg.wk, 1e-3, 1e-4), "head {h} wk");
            assert!(grads[h].wv.approx_eq(&hg.wv, 1e-3, 1e-4), "head {h} wv");
        }
    }

    /// With no heads the attention block is an `n × 0` matrix: no sparse
    /// call in either direction, and the rest of the model still trains.
    #[test]
    fn a_transformer_without_heads_attends_to_nothing() {
        let (s, x, y) = two_cluster_graph();
        let mut hp = HpBackend::new(DeviceSpec::v100());
        let mut cpu = CpuBackend::new();
        for backend in [&mut hp as &mut dyn SparseBackend, &mut cpu] {
            let mut model = GraphTransformer::new(TransformerConfig {
                in_dim: 8,
                head_dim: 4,
                heads: 0,
                ffn_dim: 8,
                classes: 2,
                seed: 1,
            });
            let mut opt = TransformerAdam::new(&model, 0.03);
            for _ in 0..2 {
                let (logits, cache) = model.forward(backend, &s, &x);
                assert_eq!((cache.concat.rows(), cache.concat.cols()), (24, 0));
                let (loss, grad) = linalg::softmax_cross_entropy(&logits, &y);
                assert!(loss.is_finite(), "{} loss {loss}", backend.name());
                let grads = model.backward(backend, &s, &cache, &grad);
                assert!(grads.attn.heads.is_empty());
                opt.step(&mut model, &grads);
            }
            assert_eq!(backend.sparse_cycles(), 0, "{}", backend.name());
        }
        assert!(hp.dense_cycles() > 0, "the dense layers are still charged");
    }

    #[test]
    fn transformer_training_reduces_loss_and_classifies_clusters() {
        let (s, x, y) = two_cluster_graph();
        let mut model = GraphTransformer::new(TransformerConfig {
            in_dim: 8,
            head_dim: 6,
            heads: 2,
            ffn_dim: 16,
            classes: 2,
            seed: 5,
        });
        let mut opt = TransformerAdam::new(&model, 0.03);
        let mut backend = CpuBackend::new();
        let mut first = None;
        let mut last = 0.0;
        let mut final_acc = 0.0;
        for _ in 0..60 {
            let (logits, cache) = model.forward(&mut backend, &s, &x);
            let (loss, grad) = linalg::softmax_cross_entropy(&logits, &y);
            let grads = model.backward(&mut backend, &s, &cache, &grad);
            opt.step(&mut model, &grads);
            first.get_or_insert(loss);
            last = loss;
            final_acc = linalg::accuracy(&logits, &y);
        }
        assert!(
            last < first.unwrap() * 0.5,
            "loss {} -> {last}",
            first.unwrap()
        );
        assert!(final_acc > 0.9, "accuracy {final_acc}");
    }

    #[test]
    fn transformer_gradient_check_classifier_and_ffn() {
        let (s, x, y) = two_cluster_graph();
        let mut model = GraphTransformer::new(TransformerConfig {
            in_dim: 8,
            head_dim: 4,
            heads: 1,
            ffn_dim: 8,
            classes: 2,
            seed: 3,
        });
        let mut backend = CpuBackend::new();
        let (logits, cache) = model.forward(&mut backend, &s, &x);
        let (_, grad) = linalg::softmax_cross_entropy(&logits, &y);
        let grads = model.backward(&mut backend, &s, &cache, &grad);
        let eps = 1e-2f32;
        for idx in [0usize, 3, 7] {
            for which in 0..2 {
                let get = |m: &GraphTransformer| match which {
                    0 => m.w_out.data()[idx],
                    _ => m.w_ff.data()[idx],
                };
                let set = |m: &mut GraphTransformer, v: f32| match which {
                    0 => m.w_out.data_mut()[idx] = v,
                    _ => m.w_ff.data_mut()[idx] = v,
                };
                let orig = get(&model);
                set(&mut model, orig + eps);
                let (lg, _) = model.forward(&mut backend, &s, &x);
                let (lp, _) = linalg::softmax_cross_entropy(&lg, &y);
                set(&mut model, orig - eps);
                let (lg, _) = model.forward(&mut backend, &s, &x);
                let (lm, _) = linalg::softmax_cross_entropy(&lg, &y);
                set(&mut model, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = match which {
                    0 => grads.w_out.data()[idx],
                    _ => grads.w_ff.data()[idx],
                };
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "which {which} idx {idx}: {numeric} vs {analytic}"
                );
            }
        }
    }

    /// Training runs both of the paper's kernels in both directions. The
    /// unfused pipeline is where that shows launch by launch: forward is one
    /// SDDMM + one SpMM per head, backward one SDDMM + three SpMMs.
    #[test]
    fn unfused_backend_accounts_sddmm_in_both_directions() {
        let (s, x, y) = two_cluster_graph();
        let model = GraphTransformer::new(TransformerConfig {
            in_dim: 8,
            head_dim: 4,
            heads: 2,
            ffn_dim: 8,
            classes: 2,
            seed: 1,
        });
        let mut backend = BaselineBackend::new(DeviceSpec::v100());
        let (logits, cache) = model.forward(&mut backend, &s, &x);
        let fwd_cycles = backend.sparse_cycles();
        assert!(fwd_cycles > 0);
        let (_, grad) = linalg::softmax_cross_entropy(&logits, &y);
        let _ = model.backward(&mut backend, &s, &cache, &grad);
        assert!(backend.sparse_cycles() > 2 * fwd_cycles);
    }

    #[test]
    fn transformer_trains_on_the_fused_backend_too() {
        let (s, x, y) = two_cluster_graph();
        let mut model = GraphTransformer::new(TransformerConfig {
            in_dim: 8,
            head_dim: 4,
            heads: 2,
            ffn_dim: 8,
            classes: 2,
            seed: 11,
        });
        let mut opt = TransformerAdam::new(&model, 0.03);
        let mut backend = HpBackend::new(DeviceSpec::v100());
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..15 {
            let (logits, cache) = model.forward(&mut backend, &s, &x);
            let (loss, grad) = linalg::softmax_cross_entropy(&logits, &y);
            let grads = model.backward(&mut backend, &s, &cache, &grad);
            opt.step(&mut model, &grads);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap(), "loss {} -> {last}", first.unwrap());
        assert!(backend.sparse_cycles() > 0);
        assert!(backend.dense_cycles() > 0);
    }
}
