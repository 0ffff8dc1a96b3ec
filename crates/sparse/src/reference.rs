//! Sequential reference kernels — Algorithms 1 and 2 of the paper.
//!
//! These are the semantic ground truth: every parallel / simulated kernel in
//! `hpsparse-core` must produce output approximately equal (up to
//! floating-point reassociation) to these loops.

use crate::dense::Dense;
use crate::error::FormatError;
use crate::hybrid::Hybrid;

/// Sequential SpMM over the hybrid CSR/COO format (Algorithm 1):
/// `O = S · A` where `S` is `M × N` sparse and `A` is `N × K` dense.
pub fn spmm(s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
    if s.cols() != a.rows() {
        return Err(FormatError::DimensionMismatch {
            context: "spmm: S.cols != A.rows",
        });
    }
    let k = a.cols();
    let mut o = Dense::zeros(s.rows(), k);
    for i in 0..s.nnz() {
        let r = s.row_indices()[i] as usize;
        let c = s.col_indices()[i] as usize;
        let v = s.values()[i];
        let a_row = a.row(c);
        let o_row = o.row_mut(r);
        for kk in 0..k {
            o_row[kk] += v * a_row[kk];
        }
    }
    Ok(o)
}

/// Sequential SDDMM over the hybrid CSR/COO format (Algorithm 2):
/// `S_O = (A1 · A2) ⊙ S` where `A1` is `M × K`, `A2` is `K × N` and `S` is
/// `M × N` sparse. Returns the output values in element order of `s`.
pub fn sddmm(s: &Hybrid, a1: &Dense, a2: &Dense) -> Result<Vec<f32>, FormatError> {
    if a1.rows() != s.rows() {
        return Err(FormatError::DimensionMismatch {
            context: "sddmm: A1.rows != S.rows",
        });
    }
    if a2.cols() != s.cols() {
        return Err(FormatError::DimensionMismatch {
            context: "sddmm: A2.cols != S.cols",
        });
    }
    if a1.cols() != a2.rows() {
        return Err(FormatError::DimensionMismatch {
            context: "sddmm: A1.cols != A2.rows",
        });
    }
    let k = a1.cols();
    let mut out = vec![0f32; s.nnz()];
    for (i, slot) in out.iter_mut().enumerate() {
        let r = s.row_indices()[i] as usize;
        let c = s.col_indices()[i] as usize;
        let mut acc = 0f32;
        for kk in 0..k {
            acc += a1.get(r, kk) * a2.get(kk, c);
        }
        *slot = acc * s.values()[i];
    }
    Ok(out)
}

/// SDDMM taking `A2` pre-transposed (`N × K` row-major), the layout the
/// paper's HP-SDDMM kernel actually reads (Algorithm 4 loads rows of
/// `A2^T`). Numerically identical to [`sddmm`].
pub fn sddmm_transposed(s: &Hybrid, a1: &Dense, a2t: &Dense) -> Result<Vec<f32>, FormatError> {
    if a1.rows() != s.rows() {
        return Err(FormatError::DimensionMismatch {
            context: "sddmm: A1.rows != S.rows",
        });
    }
    if a2t.rows() != s.cols() {
        return Err(FormatError::DimensionMismatch {
            context: "sddmm: A2T.rows != S.cols",
        });
    }
    if a1.cols() != a2t.cols() {
        return Err(FormatError::DimensionMismatch {
            context: "sddmm: A1.cols != A2T.cols",
        });
    }
    let mut out = vec![0f32; s.nnz()];
    for (i, slot) in out.iter_mut().enumerate() {
        let r = s.row_indices()[i] as usize;
        let c = s.col_indices()[i] as usize;
        let acc: f32 = a1.row(r).iter().zip(a2t.row(c)).map(|(x, y)| x * y).sum();
        *slot = acc * s.values()[i];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference `O = S_dense · A` used to validate [`spmm`] itself on
    /// small matrices: materialises `S` densely and multiplies.
    fn spmm_via_dense(s: &Hybrid, a: &Dense) -> Dense {
        let mut sd = Dense::zeros(s.rows(), s.cols());
        for (r, c, v) in s.iter() {
            let cur = sd.get(r as usize, c as usize);
            sd.set(r as usize, c as usize, cur + v);
        }
        let k = a.cols();
        let mut o = Dense::zeros(s.rows(), k);
        for i in 0..s.rows() {
            for j in 0..s.cols() {
                let v = sd.get(i, j);
                if v != 0.0 {
                    for kk in 0..k {
                        let cur = o.get(i, kk);
                        o.set(i, kk, cur + v * a.get(j, kk));
                    }
                }
            }
        }
        o
    }

    fn fig2_hybrid() -> Hybrid {
        Hybrid::from_sorted_parts(
            4,
            4,
            vec![0, 0, 1, 2, 2, 2, 3],
            vec![0, 2, 1, 0, 2, 3, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        )
        .unwrap()
    }

    #[test]
    fn spmm_small_known_answer() {
        let s = fig2_hybrid();
        // A = identity-ish: A[i][0] = i+1, K = 1.
        let a = Dense::from_fn(4, 1, |i, _| (i + 1) as f32);
        let o = spmm(&s, &a).unwrap();
        // row0: 1*1 + 2*3 = 7; row1: 3*2 = 6; row2: 4*1+5*3+6*4 = 43; row3: 7*4 = 28
        assert_eq!(o.data(), &[7.0, 6.0, 43.0, 28.0]);
    }

    #[test]
    fn spmm_matches_dense_reference() {
        let s = fig2_hybrid();
        let a = Dense::from_fn(4, 5, |i, j| ((i * 5 + j) as f32).sin());
        let o = spmm(&s, &a).unwrap();
        let d = spmm_via_dense(&s, &a);
        assert!(o.approx_eq(&d, 1e-5, 1e-6));
    }

    #[test]
    fn spmm_rejects_dimension_mismatch() {
        let s = fig2_hybrid();
        let a = Dense::zeros(5, 3);
        assert!(spmm(&s, &a).is_err());
    }

    #[test]
    fn sddmm_small_known_answer() {
        let s = fig2_hybrid();
        let a1 = Dense::from_fn(4, 2, |i, j| (i + j) as f32); // M x K
        let a2 = Dense::from_fn(2, 4, |i, j| (i * 4 + j) as f32); // K x N
        let out = sddmm(&s, &a1, &a2).unwrap();
        // Element 0: (r=0,c=0,v=1): dot(A1[0]=[0,1], A2[:,0]=[0,4]) = 4; *1 = 4
        assert_eq!(out[0], 4.0);
        // Element 2: (r=1,c=1,v=3): dot([1,2],[1,5]) = 11; *3 = 33
        assert_eq!(out[2], 33.0);
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn sddmm_transposed_matches_sddmm() {
        let s = fig2_hybrid();
        let a1 = Dense::from_fn(4, 3, |i, j| ((i * 3 + j) as f32).cos());
        let a2 = Dense::from_fn(3, 4, |i, j| ((i * 4 + j) as f32).sin());
        let plain = sddmm(&s, &a1, &a2).unwrap();
        let trans = sddmm_transposed(&s, &a1, &a2.transpose()).unwrap();
        for (x, y) in plain.iter().zip(&trans) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn sddmm_rejects_dimension_mismatch() {
        let s = fig2_hybrid();
        assert!(sddmm(&s, &Dense::zeros(3, 2), &Dense::zeros(2, 4)).is_err());
        assert!(sddmm(&s, &Dense::zeros(4, 2), &Dense::zeros(2, 3)).is_err());
        assert!(sddmm(&s, &Dense::zeros(4, 2), &Dense::zeros(3, 4)).is_err());
        assert!(sddmm_transposed(&s, &Dense::zeros(4, 2), &Dense::zeros(4, 3)).is_err());
    }

    #[test]
    fn sddmm_zero_value_masks_output() {
        let mut s = fig2_hybrid();
        s.set_values(vec![0.0; 7]);
        let a1 = Dense::from_fn(4, 2, |_, _| 1.0);
        let a2 = Dense::from_fn(2, 4, |_, _| 1.0);
        let out = sddmm(&s, &a1, &a2).unwrap();
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn spmm_with_empty_matrix() {
        let s = Hybrid::from_triplets(3, 3, &[]).unwrap();
        let a = Dense::from_fn(3, 2, |_, _| 1.0);
        let o = spmm(&s, &a).unwrap();
        assert!(o.data().iter().all(|&v| v == 0.0));
    }
}
