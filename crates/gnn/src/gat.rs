//! One attention head's parameters and their gradients — the per-head
//! projections of [`SparseMha`](crate::mha::SparseMha), the crate's one
//! attention model.
//!
//! A head projects its input to `(Q, K, V)` (`GatLayer::project`); the
//! batched attention call scores every edge with an SDDMM
//! (`e = (Q · Kᵀ) ⊙ S`), normalises with an edge softmax and aggregates
//! with an SpMM over the attention-weighted adjacency. Backward
//! (`GatLayer::projection_backward`) runs the paper's two kernels again:
//! a transposed SpMM for `dV`, an SDDMM for the edge-weight gradient, and
//! two SpMMs for `dQ` and `dK`.

use crate::backend::{dense_gemm_cycles, SparseBackend};
use crate::linalg;
use crate::params::Xorshift64Star;
use hpsparse_core::numerics::{segments, Cut};
use hpsparse_sparse::{Dense, Hybrid};

/// One attention head: projections `Wq`, `Wk`, `Wv`.
pub struct GatLayer {
    /// Query projection (`in_dim × head_dim`).
    pub wq: Dense,
    /// Key projection (`in_dim × head_dim`).
    pub wk: Dense,
    /// Value projection (`in_dim × head_dim`).
    pub wv: Dense,
}

impl GatLayer {
    /// Deterministic small-weight initialisation.
    pub fn new(in_dim: usize, head_dim: usize, seed: u64) -> Self {
        let mut rng = Xorshift64Star::new(seed);
        let mut next = move || (rng.unit() * 2.0 - 1.0) as f32 * 0.2;
        Self {
            wq: Dense::from_fn(in_dim, head_dim, |_, _| next()),
            wk: Dense::from_fn(in_dim, head_dim, |_, _| next()),
            wv: Dense::from_fn(in_dim, head_dim, |_, _| next()),
        }
    }

    /// The projections `(Q, K, V) = (X·Wq, X·Wk, X·Wv)`, accounted as three
    /// dense GEMMs.
    pub(crate) fn project(&self, backend: &mut dyn SparseBackend, x: &Dense) -> [Dense; 3] {
        [&self.wq, &self.wk, &self.wv].map(|w| {
            let cycles = dense_gemm_cycles(backend.device(), x.rows(), x.cols(), w.cols());
            backend.account_dense(cycles);
            linalg::matmul(x, w)
        })
    }

    /// Backward from `d_out` (gradient w.r.t. this head's attended output)
    /// to the projections: the parameter gradients and `[dQ, dK, dV]`,
    /// over `s`'s [`Pattern`]. This is where the paper's *two* kernels
    /// meet in one training step:
    ///
    /// * `dV = Attnᵀ · dOut` — a transposed **SpMM**,
    /// * `dAttn = SDDMM(pattern, dOut, Vᵀ)` — the gradient of the
    ///   aggregation w.r.t. each edge weight is sampled at the sparsity
    ///   pattern, which is exactly an **SDDMM**,
    /// * after the edge-softmax Jacobian, `dQ` and `dK` are two more SpMMs
    ///   over the score-gradient matrix.
    ///
    /// The input gradient `dX = Σ d*·W*ᵀ` is not formed: no model reads it.
    pub(crate) fn projection_backward(
        &self,
        backend: &mut dyn SparseBackend,
        pattern: &mut Pattern,
        cache: &GatCache,
        d_out: &Dense,
    ) -> (GatGrads, [Dense; 3]) {
        let device = backend.device().clone();
        let head_dim = self.wq.cols();
        let scale = 1.0 / (head_dim as f32).sqrt();

        // dV = Attnᵀ · dOut (SpMM over the transposed attention matrix).
        let d_v = backend.spmm(pattern.transposed(&cache.weights), d_out);

        // dAttn (per edge) = dOut[r] · V[c] — an SDDMM with unit mask.
        let d_attn = backend.sddmm(&pattern.unit, d_out, &cache.v);

        // Edge-softmax backward: for each destination row,
        // d_score_e = w_e (d_attn_e − Σ_f w_f d_attn_f).
        let d_scores = edge_softmax_backward(pattern.unit.row_indices(), &cache.weights, &d_attn);
        // Undo the 1/sqrt(d) scaling applied to the raw scores.
        let d_scores: Vec<f32> = d_scores.iter().map(|g| g * scale).collect();

        // dQ = dScores · K, dK = dScoresᵀ · Q (two SpMMs over the
        // score-gradient matrix).
        let dscore_mat = with_values(&pattern.unit, d_scores);
        let d_q = backend.spmm(&dscore_mat, &cache.k);
        let d_k = backend.spmm(pattern.transposed(dscore_mat.values()), &cache.q);

        // Projection gradients: dW* = Xᵀ · d*.
        let x = cache.x;
        for _ in 0..3 {
            backend.account_dense(dense_gemm_cycles(&device, x.cols(), x.rows(), head_dim));
        }
        let grads = GatGrads {
            wq: linalg::matmul_transpose_a(x, &d_q),
            wk: linalg::matmul_transpose_a(x, &d_k),
            wv: linalg::matmul_transpose_a(x, &d_v),
        };
        (grads, [d_q, d_k, d_v])
    }
}

/// One head's cached forward activations, which its backward pass reads.
/// [`SparseMha`](crate::mha::SparseMha) fills one per head from its single
/// batched attention call.
pub struct GatCache<'x> {
    pub(crate) q: Dense,
    pub(crate) k: Dense,
    pub(crate) v: Dense,
    pub(crate) weights: Vec<f32>,
    /// The layer's input, borrowed: every head of a batched call shares it.
    pub(crate) x: &'x Dense,
}

impl GatCache<'_> {
    /// The head's attention weights, element-aligned with `s`: each
    /// destination row's weights form a distribution.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }
}

/// What attention backward needs of `s` besides its values, built once per
/// call and shared by its heads: the unit mask, and `sᵀ` with the element
/// of `s` that each of its elements holds (`source`).
pub(crate) struct Pattern {
    unit: Hybrid,
    transposed: Hybrid,
    source: Vec<usize>,
}

impl Pattern {
    pub(crate) fn of(s: &Hybrid) -> Self {
        let unit = unit_mask(s);
        let transposed = unit.to_csr().transpose().to_hybrid();
        // `Csr::transpose` orders elements by a stable sort on the column.
        let mut source: Vec<usize> = (0..s.nnz()).collect();
        source.sort_by_key(|&e| s.col_indices()[e]);
        Self {
            unit,
            transposed,
            source,
        }
    }

    /// `sᵀ` holding `values`, given in `s`'s element order: equal to
    /// `with_values(s, values).to_csr().transpose().to_hybrid()`.
    fn transposed(&mut self, values: &[f32]) -> &Hybrid {
        for (slot, &e) in self.transposed.values_mut().iter_mut().zip(&self.source) {
            *slot = values[e];
        }
        &self.transposed
    }
}

/// The structure of `s` holding `values`.
fn with_values(s: &Hybrid, values: Vec<f32>) -> Hybrid {
    let mut out = s.clone();
    out.set_values(values);
    out
}

/// `s` with every value 1: under it an SDDMM is the pure dot product.
pub(crate) fn unit_mask(s: &Hybrid) -> Hybrid {
    with_values(s, vec![1.0; s.nnz()])
}

/// Gradients of the three projection matrices, shaped like the layer.
pub type GatGrads = GatLayer;

/// Backward of [`edge_softmax`](hpsparse_core::numerics::edge_softmax)
/// over contiguous row groups: `d_score_e = w_e (d_w_e − Σ_f w_f d_w_f)`
/// within each row.
fn edge_softmax_backward(row_indices: &[u32], weights: &[f32], d_weights: &[f32]) -> Vec<f32> {
    assert_eq!(row_indices.len(), weights.len());
    assert_eq!(row_indices.len(), d_weights.len());
    let mut out = vec![0f32; weights.len()];
    for row in segments(row_indices, Cut::PerRow(usize::MAX)) {
        let dot: f32 = row.clone().map(|i| weights[i] * d_weights[i]).sum();
        for i in row {
            out[i] = weights[i] * (d_weights[i] - dot);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuBackend, HpBackend};
    use crate::mha::SparseMha;
    use hpsparse_core::numerics::edge_softmax;
    use hpsparse_sim::DeviceSpec;

    fn path_hybrid() -> Hybrid {
        Hybrid::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 1.0),
                (3, 3, 1.0),
            ],
        )
        .unwrap()
    }

    fn graph_hybrid() -> Hybrid {
        Hybrid::from_triplets(
            5,
            5,
            &[
                (0, 0, 1.0),
                (0, 1, 1.0),
                (1, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (2, 2, 1.0),
                (3, 3, 1.0),
                (3, 4, 1.0),
                (4, 4, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn edge_softmax_rows_sum_to_one() {
        let s = path_hybrid();
        let scores: Vec<f32> = (0..s.nnz()).map(|i| i as f32 * 0.5).collect();
        let w = edge_softmax(s.row_indices(), &scores);
        // Row sums.
        let mut sums = [0f32; 4];
        for (i, &r) in s.row_indices().iter().enumerate() {
            sums[r as usize] += w[i];
        }
        for (r, &sum) in sums.iter().enumerate() {
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn edge_softmax_is_shift_invariant() {
        let rows = [0u32, 0, 0, 1, 1];
        let a = edge_softmax(&rows, &[1.0, 2.0, 3.0, 0.0, 1.0]);
        let b = edge_softmax(&rows, &[101.0, 102.0, 103.0, 50.0, 51.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn forward_produces_weighted_average_of_values() {
        let s = path_hybrid();
        let x = Dense::from_fn(4, 6, |i, j| ((i * 6 + j) as f32 * 0.2).sin());
        let mha = SparseMha::new(6, 8, 1, 3);
        let mut backend = CpuBackend::new();
        let (out, cache) = mha.forward_cached(&mut backend, &s, &x);
        let weights = cache[0].weights();
        assert_eq!(out.rows(), 4);
        assert_eq!(out.cols(), 8);
        assert_eq!(weights.len(), s.nnz());
        // Attention weights are a valid distribution.
        assert!(weights.iter().all(|&w| (0.0..=1.0).contains(&w)));
        // Node 3 attends only to itself: its output is exactly V[3].
        let v = linalg::matmul(&x, &mha.heads[0].wv);
        for j in 0..8 {
            assert!((out.get(3, j) - v.get(3, j)).abs() < 1e-5);
        }
    }

    /// Backward builds `sᵀ` once per call and rewrites its values per use:
    /// each use must equal what `to_csr().transpose().to_hybrid()` builds.
    #[test]
    fn pattern_transposes_like_the_csr_round_trip() {
        let rectangular = Hybrid::from_triplets(
            3,
            5,
            &[
                (0, 4, 1.0),
                (0, 1, 1.0),
                (2, 1, 1.0),
                (2, 0, 1.0),
                (2, 4, 1.0),
            ],
        )
        .unwrap();
        let empty = Hybrid::from_triplets(2, 3, &[]).unwrap();
        for s in [path_hybrid(), rectangular, empty] {
            let mut pattern = Pattern::of(&s);
            assert_eq!(pattern.unit, unit_mask(&s));
            for phase in [0.0f32, 1.3] {
                let values: Vec<f32> = (0..s.nnz()).map(|i| (i as f32 + phase).sin()).collect();
                let expected = with_values(&s, values.clone())
                    .to_csr()
                    .transpose()
                    .to_hybrid();
                assert_eq!(pattern.transposed(&values), &expected);
            }
        }
    }

    /// Deterministic, distinct projections; a one-head [`SparseMha`]'s
    /// head is the layer built from the same seed.
    #[test]
    fn deterministic_init() {
        let a = GatLayer::new(4, 4, 9);
        let b = GatLayer::new(4, 4, 9);
        assert_eq!(a.wq, b.wq);
        assert_ne!(a.wq, a.wk);
        let head = &SparseMha::new(4, 4, 1, 9).heads[0];
        assert_eq!((&head.wq, &head.wk, &head.wv), (&a.wq, &a.wk, &a.wv));
    }

    /// Scalar loss: sum of all outputs (gradient = all-ones), checked by
    /// finite differences through the whole one-head attention pipeline.
    #[test]
    fn gradient_check_through_attention() {
        let s = graph_hybrid();
        let x = Dense::from_fn(5, 4, |i, j| ((i * 4 + j) as f32 * 0.23).sin());
        let mut mha = SparseMha::new(4, 3, 1, 11);
        let mut backend = CpuBackend::new();
        let (out, cache) = mha.forward_cached(&mut backend, &s, &x);
        let d_out = Dense::from_fn(out.rows(), out.cols(), |_, _| 1.0);
        let mut grads = mha.backward(&mut backend, &s, &cache, &d_out).remove(0);

        let loss = |mha: &SparseMha| -> f32 {
            let (o, _) = mha.forward_cached(&mut CpuBackend::new(), &s, &x);
            o.data().iter().sum()
        };
        fn proj(head: &mut GatLayer, which: usize) -> &mut [f32] {
            [&mut head.wq, &mut head.wk, &mut head.wv][which].data_mut()
        }
        let eps = 1e-2f32;

        // Check a handful of entries in each projection.
        for idx in [0usize, 4, 9] {
            for which in 0..3 {
                let orig = proj(&mut mha.heads[0], which)[idx];
                proj(&mut mha.heads[0], which)[idx] = orig + eps;
                let lp = loss(&mha);
                proj(&mut mha.heads[0], which)[idx] = orig - eps;
                let lm = loss(&mha);
                proj(&mut mha.heads[0], which)[idx] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = proj(&mut grads, which)[idx];
                assert!(
                    (numeric - analytic).abs() < 0.05 * numeric.abs().max(1.0),
                    "proj {which} idx {idx}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn edge_softmax_backward_rows_are_zero_sum_weighted() {
        // For softmax, sum_e w_e * d_score_e / w_e ... property: the
        // gradient within a row is orthogonal to the all-ones direction
        // under the softmax measure: sum_e d_score_e = 0 when all
        // d_weights are equal.
        let rows = [0u32, 0, 0, 1, 1];
        let w = edge_softmax(&rows, &[0.3, -0.1, 0.8, 0.0, 1.0]);
        let d = edge_softmax_backward(&rows, &w, &[1.0; 5]);
        let row0: f32 = d[..3].iter().sum();
        let row1: f32 = d[3..].iter().sum();
        assert!(row0.abs() < 1e-6);
        assert!(row1.abs() < 1e-6);
    }

    #[test]
    fn backward_uses_sddmm_on_the_accounting_backend() {
        let s = graph_hybrid();
        let x = Dense::from_fn(5, 4, |i, j| (i + j) as f32 * 0.1);
        let mha = SparseMha::new(4, 3, 1, 2);
        let mut backend = HpBackend::new(DeviceSpec::v100());
        let (out, cache) = mha.forward_cached(&mut backend, &s, &x);
        let before = backend.sparse_cycles();
        let d_out = Dense::from_fn(out.rows(), out.cols(), |_, _| 0.5);
        let _ = mha.backward(&mut backend, &s, &cache, &d_out);
        assert!(
            backend.sparse_cycles() > before,
            "backward must run sparse kernels"
        );
    }
}
