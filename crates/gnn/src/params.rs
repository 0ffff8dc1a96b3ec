//! What every model does with its parameters: draw them
//! (`Xorshift64Star`), list them ([`Model`]) and update them ([`Adam`]).

use std::marker::PhantomData;

/// The xorshift64* generator behind every weight initialiser in the crate:
/// deterministic, dependency-free, one stream per seed.
///
/// It hands out unit draws only. Scaling a draw to a weight stays at the
/// call site, because the two conventions in use round differently and
/// every recorded loss depends on which one a model uses:
/// `gcn` scales in `f64` and rounds once,
/// `((u·2−1)·limit) as f32`; `gat`/`mha` round the draw first and scale in
/// `f32`, `(u·2−1) as f32 · limit`.
pub(crate) struct Xorshift64Star(u64);

impl Xorshift64Star {
    /// The stream for `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    /// The next draw, uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A model [`Adam`] can train: its parameter tensors as flat slices, and
/// the gradient tensors of a [`Model::Grads`] in the same order. The order
/// itself is free — the update is elementwise — but the three lists must
/// agree on it.
pub trait Model {
    /// What the model's backward pass returns.
    type Grads;
    /// Every parameter tensor.
    fn params(&self) -> impl Iterator<Item = &[f32]>;
    /// Every parameter tensor, mutably.
    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f32]>;
    /// The gradient of every parameter tensor.
    fn grads(grads: &Self::Grads) -> impl Iterator<Item = &[f32]>;
}

const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// The Adam optimiser (β₁ = 0.9, β₂ = 0.999, ε = 1e-8) over any [`Model`].
pub struct Adam<M> {
    lr: f32,
    t: i32,
    /// First and second moments, one pair per parameter tensor.
    moments: Vec<(Vec<f32>, Vec<f32>)>,
    model: PhantomData<fn(&mut M)>,
}

impl<M: Model> Adam<M> {
    /// Builds optimiser state shaped after `model`.
    pub fn new(model: &M, lr: f32) -> Self {
        Self {
            lr,
            t: 0,
            moments: model
                .params()
                .map(|p| (vec![0.0; p.len()], vec![0.0; p.len()]))
                .collect(),
            model: PhantomData,
        }
    }

    /// Applies one update.
    pub fn step(&mut self, model: &mut M, grads: &M::Grads) {
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t);
        let bc2 = 1.0 - BETA2.powi(self.t);
        let tensors = model.params_mut().zip(M::grads(grads));
        for ((param, grad), (m, v)) in tensors.zip(&mut self.moments) {
            assert_eq!(param.len(), grad.len(), "gradient shaped after its tensor");
            for i in 0..param.len() {
                m[i] = BETA1 * m[i] + (1.0 - BETA1) * grad[i];
                v[i] = BETA2 * v[i] + (1.0 - BETA2) * grad[i] * grad[i];
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                param[i] -= self.lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
    }
}
