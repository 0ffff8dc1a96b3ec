//! Dense linear algebra on rayon: exactly the operations a GCN training
//! step needs.
//!
//! # The GEMM core and its bit contract
//!
//! [`matmul`], [`matmul_transpose_a`] and [`matmul_transpose_b`] share one
//! multiply-accumulate kernel, `tile`: an `MR × NR` block of `C` held in a
//! fixed-size array (registers, once vectorised) across a panel of `KP`
//! reduction rows, `A` addressed as `a[i·rs + kk·cs]` so the same body reads
//! `A` or `Aᵀ`, `B` row-major. The drivers only choose strides and split the
//! work: [`matmul`] fans `MB`-row blocks of `C` over the pool,
//! [`matmul_transpose_b`] transposes the (small) right operand once and
//! calls [`matmul`], and [`matmul_transpose_a`] splits the long reduction
//! into 16 fixed chunks whose partial products merge in chunk order. A
//! width that is not a whole number of tiles is zero-padded once per call
//! and the extra columns dropped, so the kernel never runs a narrow tile.
//!
//! The arrangement changes which element is computed when, never how:
//! every `c[i][j]` accumulates `a·b` from `+0.0` in ascending `kk` with a
//! separately rounded multiply and add — no `mul_add`, no reassociation
//! (for `Aᵀ·B`: per chunk, then the chunks in order). Block, panel and
//! chunk sizes are constants, never derived from the thread count, so for
//! finite operands the result equals the scalar triple loop at
//! `f32::to_bits` at any `RAYON_NUM_THREADS`. No zero operand is skipped:
//! `0 · NaN` and `0 · Inf` are NaN and propagate, as IEEE 754 says.
//!
//! The tile is safe Rust with one code path — no `unsafe`, no
//! `target_feature`, no runtime dispatch. The repository builds for
//! x86-64-v3 (`.cargo/config.toml`), and the sizes fill its 16 YMM
//! registers: 12 accumulators, 2 `B` vectors and a broadcast. FMA
//! instructions exist there, but Rust never contracts `a * b + c`, so an
//! x86-64 baseline build (`RUSTFLAGS="-C target-cpu=x86-64"`) computes the
//! same bits, only slower.

use hpsparse_sparse::Dense;
use rayon::prelude::*;
use std::borrow::Cow;

/// Rows of `C` in one register tile.
const MR: usize = 6;
/// Columns of `C` in one register tile (two 8-lane vectors).
const NR: usize = 16;
/// Reduction rows a tile stays in registers for; bounds the `A`/`B` panel a
/// block re-reads to what a cache level holds.
const KP: usize = 128;
/// Rows of `C` per [`matmul`] task: whole tiles, so only the matrix's last
/// block can end in a short one.
const MB: usize = 10 * MR;
/// Fixed reduction split of [`matmul_transpose_a`].
const TRANSPOSE_A_CHUNKS: usize = 16;
/// Elements per task of the element-wise passes.
const ELEMENTWISE_CHUNK: usize = 4096;

/// The one multiply-accumulate kernel: returns `acc` with `acc[r][j] +=
/// a[a_rows[r] + kk·cs] · b_panel[kk − k0][j0 + j]` for `kk` ascending from
/// `k0` over the rows of `b_panel` (`ldb` floats each).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile(
    mut acc: [[f32; NR]; MR],
    a: &[f32],
    a_rows: [usize; MR],
    cs: usize,
    k0: usize,
    b_panel: &[f32],
    ldb: usize,
    j0: usize,
) -> [[f32; NR]; MR] {
    for (kk, b_row) in (k0..).zip(b_panel.chunks_exact(ldb)) {
        let bv: &[f32; NR] = b_row[j0..j0 + NR].try_into().expect("NR-wide slice");
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows) {
            let av = a[a_row + kk * cs];
            for (c, &b) in acc_row.iter_mut().zip(bv) {
                *c += av * b;
            }
        }
    }
    acc
}

/// `c += op(A)[i0.., k] · B[k, ..]`: `c` holds rows `i0..` of the product,
/// `n` wide; `op(A)[i][kk] = a[i·rs + kk·cs]`; `b` is row-major, `n` wide.
/// `n` is a whole number of tiles (see [`pad_to_tiles`]); a short last row
/// tile repeats its last row, and the repeats are not stored.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    c: &mut [f32],
    n: usize,
    a: &[f32],
    rs: usize,
    cs: usize,
    i0: usize,
    b: &[f32],
    k: std::ops::Range<usize>,
) {
    let rows = c.len() / n;
    for p0 in k.clone().step_by(KP) {
        let b_panel = &b[p0 * n..(p0 + KP).min(k.end) * n];
        for j0 in (0..n).step_by(NR) {
            for (c_rows, r0) in c.chunks_mut(MR * n).zip((0..rows).step_by(MR)) {
                let last = rows - 1 - r0;
                let a_rows = std::array::from_fn(|r| (i0 + r0 + r.min(last)) * rs);
                let mut acc = [[0f32; NR]; MR];
                for (acc_row, c_row) in acc.iter_mut().zip(c_rows.chunks_exact(n)) {
                    acc_row.copy_from_slice(&c_row[j0..j0 + NR]);
                }
                let acc = tile(acc, a, a_rows, cs, p0, b_panel, n, j0);
                for (acc_row, c_row) in acc.iter().zip(c_rows.chunks_exact_mut(n)) {
                    c_row[j0..j0 + NR].copy_from_slice(acc_row);
                }
            }
        }
    }
}

/// `b`'s data with zero columns appended up to a whole number of `NR`-wide
/// tiles, and that width; borrowed as is when `b` already is one. The extra
/// columns of the product are dropped again by [`strip_padding`], so no
/// tile is ever narrower than the kernel.
fn pad_to_tiles(b: &Dense) -> (Cow<'_, [f32]>, usize) {
    let n = b.cols();
    let ldb = n.next_multiple_of(NR);
    if ldb == n {
        return (Cow::Borrowed(b.data()), n);
    }
    let mut padded = vec![0f32; b.rows() * ldb];
    for (dst, src) in padded.chunks_exact_mut(ldb).zip(b.data().chunks_exact(n)) {
        dst[..n].copy_from_slice(src);
    }
    (Cow::Owned(padded), ldb)
}

/// The first `n` of every `ldc` columns of `c`, as an `m × n` matrix.
fn strip_padding(c: Vec<f32>, m: usize, ldc: usize, n: usize) -> Dense {
    if ldc == n {
        return Dense::from_vec(m, n, c).expect("m × n buffer");
    }
    let mut out = Dense::zeros(m, n);
    for (dst, src) in out.data_mut().chunks_exact_mut(n).zip(c.chunks_exact(ldc)) {
        dst.copy_from_slice(&src[..n]);
    }
    out
}

/// `C = A · B` (`m×k` times `k×n`).
pub fn matmul(a: &Dense, b: &Dense) -> Dense {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimensions");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if n == 0 {
        return Dense::zeros(m, 0);
    }
    let (b, ldc) = pad_to_tiles(b);
    let mut c = vec![0f32; m * ldc];
    c.par_chunks_mut(MB * ldc)
        .enumerate()
        .for_each(|(block, c_rows)| {
            gemm_block(c_rows, ldc, a.data(), k, 1, block * MB, &b, 0..k);
        });
    strip_padding(c, m, ldc, n)
}

/// `C = Aᵀ · B` (`k×m`ᵀ times `k×n`): used for weight gradients
/// `dW = Zᵀ·dY` without materialising the transpose.
pub fn matmul_transpose_a(a: &Dense, b: &Dense) -> Dense {
    assert_eq!(a.rows(), b.rows(), "matmul_transpose_a outer dimensions");
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    if n == 0 {
        return Dense::zeros(m, 0);
    }
    // The output is small and the reduction long, so the parallel axis is
    // the reduction: chunk-local accumulators, merged in chunk order. The
    // chunk count is fixed (never derived from the thread count) so the
    // merge order — and hence the float result, bit for bit — is identical
    // at any RAYON_NUM_THREADS.
    let num_chunks = TRANSPOSE_A_CHUNKS.min(k.max(1));
    let chunk = k.div_ceil(num_chunks);
    let (b, ldc) = pad_to_tiles(b);
    let partials: Vec<Vec<f32>> = (0..num_chunks)
        .into_par_iter()
        .map(|ci| {
            let lo = ci * chunk;
            let hi = ((ci + 1) * chunk).min(k);
            let mut acc = vec![0f32; m * ldc];
            gemm_block(&mut acc, ldc, a.data(), 1, m, 0, &b, lo..hi);
            acc
        })
        .collect();
    let mut c = vec![0f32; m * ldc];
    for p in partials {
        for (dst, src) in c.iter_mut().zip(&p) {
            *dst += src;
        }
    }
    strip_padding(c, m, ldc, n)
}

/// `C = A · Bᵀ` (`m×k` times `n×k`ᵀ): used for input gradients `dY·Wᵀ`.
/// `B` (a weight matrix) is transposed once and the product is [`matmul`]'s.
pub fn matmul_transpose_b(a: &Dense, b: &Dense) -> Dense {
    assert_eq!(a.cols(), b.cols(), "matmul_transpose_b inner dimensions");
    matmul(a, &b.transpose())
}

/// Adds a row-vector bias to every row, in place.
pub fn add_bias(x: &mut Dense, bias: &[f32]) {
    assert_eq!(x.cols(), bias.len());
    let n = x.cols();
    if n == 0 {
        return;
    }
    x.data_mut().par_chunks_mut(n).for_each(|row| {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    });
}

/// ReLU forward, in place. A select, not a conditional store: the sign of
/// an activation is a coin flip to the branch predictor.
pub fn relu(x: &mut Dense) {
    x.data_mut()
        .par_chunks_mut(ELEMENTWISE_CHUNK)
        .for_each(|chunk| {
            for v in chunk {
                *v = if *v < 0.0 { 0.0 } else { *v };
            }
        });
}

/// ReLU backward: zeroes gradient entries where `activation` is
/// non-positive. `activation` may be the forward input `y` or its output
/// `relu(y)` — `relu(y) ≤ 0` exactly when `y ≤ 0`, ±0 and NaN included — so
/// a trainer keeps only the output, which the next layer reads anyway.
/// `grad` and `activation` must have the same shape.
pub fn relu_backward(grad: &mut Dense, activation: &Dense) {
    assert_eq!(grad.rows(), activation.rows());
    assert_eq!(grad.cols(), activation.cols());
    grad.data_mut()
        .par_chunks_mut(ELEMENTWISE_CHUNK)
        .zip(activation.data().par_chunks(ELEMENTWISE_CHUNK))
        .for_each(|(g_chunk, z_chunk)| {
            for (g, &z) in g_chunk.iter_mut().zip(z_chunk) {
                *g = if z <= 0.0 { 0.0 } else { *g };
            }
        });
}

/// Column sums (bias gradient).
pub fn column_sums(x: &Dense) -> Vec<f32> {
    let n = x.cols();
    let mut sums = vec![0f32; n];
    for i in 0..x.rows() {
        for (s, v) in sums.iter_mut().zip(x.row(i)) {
            *s += v;
        }
    }
    sums
}

/// Softmax cross-entropy over rows. Returns `(mean loss, gradient)` where
/// the gradient is `(softmax(x) − onehot(label)) / rows` — ready to feed
/// into backprop.
///
/// # Panics
///
/// If a label is not a class of `logits` (`label ≥ logits.cols()`), naming
/// the row, the label and the class count.
pub fn softmax_cross_entropy(logits: &Dense, labels: &[u32]) -> (f32, Dense) {
    assert_eq!(logits.rows(), labels.len());
    let n = logits.cols();
    let rows = logits.rows().max(1);
    let mut grad = Dense::zeros(logits.rows(), n);
    if n == 0 {
        return (0.0, grad);
    }
    // Checked here, on the caller's thread: the rows below index
    // `row[label]` inside the pool.
    if let Some(row) = labels.iter().position(|&label| label as usize >= n) {
        panic!(
            "softmax_cross_entropy: row {row} has label {}, but the logits have {n} classes",
            labels[row]
        );
    }
    let loss: f32 = grad
        .data_mut()
        .par_chunks_mut(n)
        .enumerate()
        .map(|(i, g_row)| {
            let row = logits.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0f32;
            for &v in row {
                denom += (v - max).exp();
            }
            let label = labels[i] as usize;
            for (j, g) in g_row.iter_mut().enumerate() {
                let p = (row[j] - max).exp() / denom;
                *g = (p - if j == label { 1.0 } else { 0.0 }) / rows as f32;
            }
            -((row[label] - max).exp() / denom).max(1e-12).ln()
        })
        .sum();
    (loss / rows as f32, grad)
}

/// Classification accuracy of row-wise argmax against labels. A label that
/// is not a class of `logits` matches nothing.
pub fn accuracy(logits: &Dense, labels: &[u32]) -> f64 {
    assert_eq!(logits.rows(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let correct = (0..logits.rows())
        .filter(|&i| {
            // A zero-width row has no arg-max and matches no label.
            logits
                .row(i)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .is_some_and(|(j, _)| j == labels[i] as usize)
        })
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_small_known_answer() {
        let a = Dense::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Dense::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The contract's reference for `A · B`: one scalar accumulator per
    /// output, from `+0.0`, ascending `kk` over `reduction`, a separately
    /// rounded multiply and add.
    fn scalar_product(a: &Dense, b: &Dense, reduction: std::ops::Range<usize>) -> Dense {
        Dense::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = 0f32;
            for kk in reduction.clone() {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            acc
        })
    }

    /// [`matmul_transpose_a`]'s order: the same loop per fixed reduction
    /// chunk, the chunks added in order.
    fn scalar_product_chunked(a: &Dense, b: &Dense) -> Dense {
        let k = a.cols();
        let chunk = k.div_ceil(TRANSPOSE_A_CHUNKS.min(k.max(1))).max(1);
        let mut c = Dense::zeros(a.rows(), b.cols());
        for lo in (0..k).step_by(chunk) {
            let partial = scalar_product(a, b, lo..(lo + chunk).min(k));
            for (dst, src) in c.data_mut().iter_mut().zip(partial.data()) {
                *dst += src;
            }
        }
        c
    }

    /// All three variants of the product `A · B` (`m×k` times `k×n`), each
    /// checked against its scalar oracle under `same`, and returned.
    fn checked_variants(a: &Dense, b: &Dense, same: impl Fn(&Dense, &Dense) -> bool) -> [Dense; 3] {
        let shape = (a.rows(), a.cols(), b.cols());
        let want = scalar_product(a, b, 0..a.cols());
        let want_chunked = scalar_product_chunked(a, b);
        let got = [
            ("matmul", matmul(a, b), &want),
            (
                "matmul_transpose_b",
                matmul_transpose_b(a, &b.transpose()),
                &want,
            ),
            (
                "matmul_transpose_a",
                matmul_transpose_a(&a.transpose(), b),
                &want_chunked,
            ),
        ];
        got.map(|(name, got, want)| {
            assert_eq!(
                (got.rows(), got.cols()),
                (shape.0, shape.2),
                "{name} {shape:?}"
            );
            assert!(same(&got, want), "{name} {shape:?}");
            got
        })
    }

    /// Sizes on both sides of every edge the blocking has: empty and unit
    /// operands, the `MR`/`NR` tile, the `MB` row block, the `KP` panel, and
    /// for the reduction the fixed chunk count of `matmul_transpose_a` with
    /// a panel edge inside a chunk.
    fn operands() -> impl Strategy<Value = (Dense, Dense)> {
        const C: usize = TRANSPOSE_A_CHUNKS;
        const M: &[usize] = &[0, 1, MR - 1, MR, MR + 1, 2 * MR + 1, MB - 1, MB, MB + 1];
        const N: &[usize] = &[0, 1, NR - 1, NR, NR + 1, 2 * NR, 2 * NR + 3];
        const K: &[usize] = &[
            0,
            1,
            C - 1,
            C,
            C + 1,
            KP - 1,
            KP,
            KP + 1,
            C * KP - 1,
            C * KP + 1,
            C * (KP + 1) + 1,
        ];
        // Full-mantissa values in (-1, 1) so every reordering would round
        // differently, with a quarter of them zero (of either sign).
        let value = proptest::num::i32::ANY.prop_map(|v| match v.rem_euclid(8) {
            0 => 0.0,
            1 => -0.0,
            _ => v as f32 / i32::MAX as f32,
        });
        (0..M.len(), 0..K.len(), 0..N.len()).prop_flat_map(move |(mi, ki, ni)| {
            let (m, k, n) = (M[mi], K[ki], N[ni]);
            let matrix = |rows: usize, cols: usize| {
                proptest::collection::vec(value, rows * cols..rows * cols + 1)
                    .prop_map(move |data| Dense::from_vec(rows, cols, data).unwrap())
            };
            (matrix(m, k), matrix(k, n))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn gemm_variants_are_bit_identical_to_the_scalar_oracle((a, b) in operands()) {
            checked_variants(&a, &b, |got, want| bits(got) == bits(want));
        }
    }

    #[test]
    fn non_finite_operands_propagate_through_every_variant() {
        // NaN/Inf on either side, next to zeros a zero-skip would wrongly
        // swallow: 0·NaN and 0·Inf are NaN.
        let (m, k, n) = (3, 33, 40);
        let mut a = Dense::from_fn(m, k, |i, kk| if kk % 3 == i { 0.0 } else { 1.5 });
        a.row_mut(1)[4] = f32::NAN;
        let mut b = Dense::from_fn(k, n, |kk, j| ((j * k + kk) as f32 * 0.37).sin() - 0.2);
        b.row_mut(0)[2] = f32::INFINITY;
        b.row_mut(1)[5] = f32::NEG_INFINITY;
        b.row_mut(2)[9] = f32::NAN;
        // Which payload survives NaN + NaN is the instruction's operand
        // order, not arithmetic: only NaN-ness is pinned there.
        let variants = checked_variants(&a, &b, |got, want| {
            got.data()
                .iter()
                .zip(want.data())
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
        });
        for got in variants {
            assert!(got.get(0, 2).is_nan(), "0 · Inf must stay NaN");
            assert!(got.get(1, 5).is_nan(), "0 · -Inf must stay NaN");
            assert!(got.get(2, 9).is_nan(), "0 · NaN must stay NaN");
            assert!(
                got.row(1).iter().all(|v| v.is_nan()),
                "NaN in A poisons its row"
            );
            assert!(got.get(0, 0).is_finite());
        }
    }

    #[test]
    fn zero_and_unit_width_operands_give_shaped_results_not_panics() {
        for (m, k, n) in (0..8).map(|s| (s & 1, (s >> 1) & 1, s >> 2)) {
            let a = Dense::from_fn(m, k, |_, _| 3.0);
            let b = Dense::from_fn(k, n, |_, _| -0.5);
            checked_variants(&a, &b, |got, want| bits(got) == bits(want));

            let mut x = Dense::zeros(m, n);
            add_bias(&mut x, &vec![2.0; n]);
            assert!(x.data().iter().all(|&v| v == 2.0));
            relu(&mut x);
            relu_backward(&mut x, &Dense::zeros(m, n));
            assert_eq!(column_sums(&x), vec![0.0; n]);

            // One class is always right and costs nothing; none is never right.
            let labels = vec![0u32; m];
            let (loss, grad) = softmax_cross_entropy(&x, &labels);
            assert_eq!(loss, 0.0);
            assert_eq!((grad.rows(), grad.cols()), (m, n));
            assert!(grad.data().iter().all(|&g| g == 0.0));
            assert_eq!(accuracy(&x, &labels), (m * n) as f64);
        }
    }

    #[test]
    fn relu_and_backward() {
        let mut x = Dense::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let pre = x.clone();
        relu(&mut x);
        assert_eq!(x.data(), &[0.0, 0.0, 2.0, 0.0]);
        let mut g = Dense::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        relu_backward(&mut g, &pre);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    /// The trainers take the ReLU mask from the post-activation they keep:
    /// the gradient must be the pre-activation mask's at `to_bits` for
    /// every `f32`, special or not, across several element-wise chunks.
    #[test]
    fn relu_backward_masks_the_same_from_the_post_activation() {
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0x0000_0001), // smallest subnormal
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff), // largest subnormal
            f32::from_bits(0x807f_ffff),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut random_bits = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            f32::from_bits((state >> 32) as u32)
        };
        // Every special activation meets every special gradient first, then
        // random bit patterns of both.
        let n = specials.len();
        let len = 3 * ELEMENTWISE_CHUNK + 17;
        let (y, g): (Vec<f32>, Vec<f32>) = (0..len)
            .map(|i| {
                if i < n * n {
                    (specials[i % n], specials[i / n])
                } else {
                    (random_bits(), random_bits())
                }
            })
            .unzip();
        let y = Dense::from_vec(1, len, y).unwrap();
        let mut h = y.clone();
        relu(&mut h);
        let mut from_pre = Dense::from_vec(1, len, g).unwrap();
        let mut from_post = from_pre.clone();
        relu_backward(&mut from_pre, &y);
        relu_backward(&mut from_post, &h);
        assert_eq!(bits(&from_pre), bits(&from_post));
    }

    #[test]
    fn bias_and_column_sums() {
        let mut x = Dense::zeros(3, 2);
        add_bias(&mut x, &[1.0, -2.0]);
        assert_eq!(x.row(2), &[1.0, -2.0]);
        let sums = column_sums(&x);
        assert_eq!(sums, vec![3.0, -6.0]);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Dense::from_vec(2, 3, vec![10.0, 0.0, 0.0, 0.0, 10.0, 0.0]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3, "loss {loss}");
        // Gradient is tiny everywhere.
        assert!(grad.data().iter().all(|g| g.abs() < 0.1));
    }

    #[test]
    fn cross_entropy_gradient_points_away_from_wrong_class() {
        let logits = Dense::from_vec(1, 2, vec![0.0, 0.0]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!((loss - (2f32).ln()).abs() < 1e-5);
        // d/dlogit0 = p0 - 1 = -0.5; d/dlogit1 = 0.5.
        assert!((grad.get(0, 0) + 0.5).abs() < 1e-5);
        assert!((grad.get(0, 1) - 0.5).abs() < 1e-5);
    }

    #[test]
    fn gradient_check_cross_entropy() {
        // Finite differences on a tiny logit matrix.
        let base = vec![0.3f32, -0.2, 0.5, 0.1, 0.0, -0.4];
        let labels = [2u32, 0];
        let eps = 1e-3f32;
        let logits = Dense::from_vec(2, 3, base.clone()).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        for idx in 0..base.len() {
            let mut plus = base.clone();
            plus[idx] += eps;
            let mut minus = base.clone();
            minus[idx] -= eps;
            let (lp, _) = softmax_cross_entropy(&Dense::from_vec(2, 3, plus).unwrap(), &labels);
            let (lm, _) = softmax_cross_entropy(&Dense::from_vec(2, 3, minus).unwrap(), &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad.data()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "index {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Dense::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(accuracy(&Dense::zeros(0, 2), &[]), 0.0);
        // A label outside the classes is wrong, not a panic.
        assert!((accuracy(&logits, &[0, 1, 2]) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(accuracy(&logits, &[2, u32::MAX, 7]), 0.0);
    }

    #[test]
    #[should_panic(expected = "row 1 has label 3, but the logits have 3 classes")]
    fn cross_entropy_names_a_label_outside_the_classes() {
        let logits = Dense::from_fn(2, 3, |i, j| (i + j) as f32);
        softmax_cross_entropy(&logits, &[2, 3]);
    }
}
