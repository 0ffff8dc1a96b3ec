//! The f32 side of every simulated kernel: three accumulation orders and
//! the attention routine composed from two of them.
//!
//! A kernel is a cost walk plus an accumulation order ([`crate::traits`]).
//! The cost walk describes traffic to the simulator and never touches a
//! float; the routines here compute the floats, once per run, K-wide,
//! outside the launch — in exactly the order the modelled warps would have
//! added them, so every output bit is a function of the kernel's
//! partitioning and not of how the host loops over it.
//!
//! | Routine | Order | Kernels |
//! |---|---|---|
//! | [`segment_sums`] | per segment a partial sum from `+0.0` in element order, added to the output row in segment order | HP-SpMM and Merge-path ([`Cut::Every`]); ALG2, GE-SpMM, Row-split, Sputnik, Huang, ASpT ([`Cut::PerRow`]) |
//! | [`element_order`] | `O[r] += v·A[c]` per stored element | ALG3, COO-ALG4, TC-GNN |
//! | [`masked_dots`] | per element `(Σₖ A1[r][k]·A2ᵀ[c][k]) · v`, the sum a sequential fold | HP-SDDMM, DGL-SDDMM, cuSPARSE CSR SDDMM |
//! | [`attention`] | per head [`masked_dots`] `× 1/√d` → [`edge_softmax`] per row → [`element_order`] over the reweighted structure | HP-Fused-MHA |
//!
//! K-slices never appear: they partition columns, a column's sum never
//! crosses a slice, and slices run chunk-fastest, so merging them is
//! bit-identical. Nothing here skips a zero: `±0.0`, NaN and Inf in either
//! operand propagate as IEEE-754 says they do.

use crate::traits::{check_mha_dims, check_sddmm_dims, check_spmm_dims};
use hpsparse_sparse::{Dense, FormatError, Hybrid};
use std::ops::Range;

/// f32 lanes [`axpy`] is tiled to: eight 4-byte lanes fill a 256-bit
/// register.
const LANES: usize = 8;

/// `acc[i] += v * x[i]` tiled to `LANES`-wide chunks. Every element is
/// independent, so this is bit-identical to the scalar loop — the fixed-width
/// `chunks_exact` bodies only expose that independence to the vectorizer.
#[inline]
fn axpy(acc: &mut [f32], v: f32, x: &[f32]) {
    debug_assert_eq!(acc.len(), x.len());
    let mut a_it = acc.chunks_exact_mut(LANES);
    let mut x_it = x.chunks_exact(LANES);
    for (a8, x8) in a_it.by_ref().zip(x_it.by_ref()) {
        for l in 0..LANES {
            a8[l] += v * x8[l];
        }
    }
    for (a, xv) in a_it.into_remainder().iter_mut().zip(x_it.remainder()) {
        *a += v * *xv;
    }
}

/// Where a segment-sum kernel cuts the element range, besides at every row
/// switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// At every multiple of `n` elements counted from element 0: the
    /// hybrid-parallel chunks of Algorithm 3 (`n` = `NnzPerWarp`), whose
    /// row-switch procedure flushes one partial sum per same-row run.
    Every(usize),
    /// Every `n` elements counted from the row's first element: the
    /// `RowTask`s of the row-per-warp skeleton (`usize::MAX` = whole rows).
    PerRow(usize),
}

/// The segments `cut` makes of a sorted row-index array, in element order:
/// maximal same-row runs that cross no cut.
pub fn segments(row_ind: &[u32], cut: Cut) -> impl Iterator<Item = Range<usize>> + '_ {
    let nnz = row_ind.len();
    let mut start = 0;
    std::iter::from_fn(move || {
        if start >= nnz {
            return None;
        }
        // A `PerRow` segment begins at its row's first element or at that
        // row's previous cut, so the next cut is always `n` further on.
        let limit = match cut {
            Cut::Every(n) => (start / n.max(1) + 1).saturating_mul(n.max(1)),
            Cut::PerRow(n) => start.saturating_add(n.max(1)),
        }
        .min(nnz);
        let row = row_ind[start];
        let len = row_ind[start..limit]
            .iter()
            .take_while(|&&r| r == row)
            .count();
        let seg = start..start + len;
        start += len;
        Some(seg)
    })
}

/// `O = S·A` by segment sums: for each segment of `cut`, a K-wide partial
/// sum starting from `+0.0` takes `v·A[c]` per element in element order and
/// is then added to the segment's output row.
pub fn segment_sums(s: &Hybrid, a: &Dense, cut: Cut) -> Result<Dense, FormatError> {
    check_spmm_dims(s, a)?;
    let mut out = Dense::zeros(s.rows(), a.cols());
    let mut partial = vec![0f32; a.cols()];
    let (row_ind, col_ind, values) = (s.row_indices(), s.col_indices(), s.values());
    for seg in segments(row_ind, cut) {
        let row = row_ind[seg.start] as usize;
        partial.fill(0.0);
        for j in seg {
            axpy(&mut partial, values[j], a.row(col_ind[j] as usize));
        }
        for (o, p) in out.row_mut(row).iter_mut().zip(&partial) {
            *o += *p;
        }
    }
    Ok(out)
}

/// `O = S·A` in element order: `O[r] += v·A[c]` for each stored element,
/// straight into the output row.
pub fn element_order(s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
    check_spmm_dims(s, a)?;
    let mut out = Dense::zeros(s.rows(), a.cols());
    for (r, c, v) in s.iter() {
        axpy(out.row_mut(r as usize), v, a.row(c as usize));
    }
    Ok(out)
}

/// `S_O = (A1·A2) ⊙ S` with `a2t` transposed: per stored element the dot of
/// `A1[r]` and `A2ᵀ[c]`, folded sequentially over K by `Iterator::sum`,
/// times the element's value.
pub fn masked_dots(s: &Hybrid, a1: &Dense, a2t: &Dense) -> Result<Vec<f32>, FormatError> {
    check_sddmm_dims(s, a1, a2t)?;
    Ok(s.iter()
        .map(|(r, c, v)| {
            let (x, y) = (a1.row(r as usize), a2t.row(c as usize));
            x.iter().zip(y).map(|(x, y)| x * y).sum::<f32>() * v
        })
        .collect())
}

/// Numerically-stable softmax over the contiguous equal-row groups of
/// `scores`: per row the running max, then `exp(score − max)` accumulated
/// into the denominator in element order, then the division.
pub fn edge_softmax(row_indices: &[u32], scores: &[f32]) -> Vec<f32> {
    assert_eq!(row_indices.len(), scores.len());
    let mut out = vec![0f32; scores.len()];
    for row in segments(row_indices, Cut::PerRow(usize::MAX)) {
        let max = scores[row.clone()]
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0f32;
        for i in row.clone() {
            out[i] = (scores[i] - max).exp();
            denom += out[i];
        }
        for o in &mut out[row] {
            *o /= denom;
        }
    }
    out
}

/// Multi-head masked attention, per head `h`
/// `O_h = softmax_row((Q_h·K_hᵀ) ⊙ S / √d) · V_h`: [`masked_dots`], each
/// score times `1/√d`, [`edge_softmax`], then [`element_order`] over `S`
/// carrying the attention weights as its values. Returns the per-head
/// outputs and the per-head weights (element-aligned with `s`). However a
/// kernel tiles the rows, each row's scores are produced and reduced in
/// element order by one warp, so this is the order of every partitioning.
pub fn attention(
    s: &Hybrid,
    q: &[Dense],
    k: &[Dense],
    v: &[Dense],
) -> Result<(Vec<Dense>, Vec<Vec<f32>>), FormatError> {
    check_mha_dims(s, q, k, v)?;
    let scale = 1.0 / (q[0].cols() as f32).sqrt();
    // One copy of the structure; each head overwrites its values.
    let mut weighted = s.clone();
    let mut outputs = Vec::with_capacity(q.len());
    let mut attn = Vec::with_capacity(q.len());
    for h in 0..q.len() {
        let mut scores = masked_dots(s, &q[h], &k[h])?;
        for e in &mut scores {
            *e *= scale;
        }
        let weights = edge_softmax(s.row_indices(), &scores);
        weighted.values_mut().copy_from_slice(&weights);
        outputs.push(element_order(&weighted, &v[h])?);
        attn.push(weights);
    }
    Ok((outputs, attn))
}

#[cfg(test)]
mod tests {
    use super::axpy;

    #[test]
    fn axpy_is_bit_identical_to_scalar_loop() {
        // Tiling must not change results: every length, including ragged
        // tails shorter than a lane block.
        for n in [0, 1, 7, 8, 9, 16, 33, 64] {
            let x: Vec<f32> = (0..n)
                .map(|i| ((i * 37 + 11) as f32 * 1e-2).sin())
                .collect();
            let mut tiled: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos()).collect();
            let mut scalar = tiled.clone();
            let v = 0.731f32;
            axpy(&mut tiled, v, &x);
            for (a, xv) in scalar.iter_mut().zip(&x) {
                *a += v * *xv;
            }
            assert_eq!(tiled, scalar, "n = {n}");
        }
    }
}
