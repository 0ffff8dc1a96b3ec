//! The f32 side of every simulated kernel: three accumulation orders.
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
//! | [`segment_sums`] | per segment a partial sum from `+0.0` in element order, added to the output row in segment order | HP-SpMM, its register-lean variant and Merge-path ([`Cut::Every`]); ALG2, GE-SpMM, Row-split, Sputnik, Huang, ASpT ([`Cut::PerRow`]) |
//! | [`element_order`] | `O[r] += v·A[c]` per stored element | ALG3, COO-ALG4, TC-GNN |
//! | [`masked_dots`] | per element `(Σₖ A1[r][k]·A2ᵀ[c][k]) · v`, the sum a sequential fold | HP-SDDMM, DGL-SDDMM, cuSPARSE CSR SDDMM |
//!
//! K-slices never appear: they partition columns, a column's sum never
//! crosses a slice, and slices run chunk-fastest, so merging them is
//! bit-identical. Nothing here skips a zero: `±0.0`, NaN and Inf in either
//! operand propagate as IEEE-754 says they do.

use crate::cpu::axpy;
use crate::traits::{check_sddmm_dims, check_spmm_dims};
use hpsparse_sparse::{Dense, FormatError, Hybrid};
use std::ops::Range;

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
