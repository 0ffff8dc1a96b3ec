//! Row-major dense `f32` matrices — the feature matrices `A`, `A1`, `A2`
//! and output matrix `O` of the paper's SpMM / SDDMM notation (Table I).

use crate::error::FormatError;

/// A row-major dense matrix of `f32` values.
///
/// Feature matrices in GNN workloads are tall and skinny: `rows` is the
/// number of nodes and `cols` is the feature dimension `K` (typically
/// 32–512). Row-major layout matches how GNN frameworks store features and
/// is what the paper's memory-access analysis (HVMA, §III-B2) assumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Dense {
    /// Creates a matrix from row-major data.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, FormatError> {
        if data.len() != rows * cols {
            return Err(FormatError::DenseLengthMismatch {
                expected: rows * cols,
                found: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix where entry `(i, j)` is produced by `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the feature dimension `K` for feature matrices).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The `i`-th row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The `i`-th row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Value at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Sets the value at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Transposes the matrix (used to derive `A2^T` for SDDMM, whose
    /// reference formulation indexes `A2` column-wise).
    pub fn transpose(&self) -> Dense {
        let mut out = Dense::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Checks element-wise approximate equality with tolerance scaled to the
    /// magnitude of the values involved (sparse reductions reassociate
    /// floating-point sums, so bit equality is not expected).
    pub fn approx_eq(&self, other: &Dense, rel_tol: f32, abs_tol: f32) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        self.data.iter().zip(&other.data).all(|(a, b)| {
            let diff = (a - b).abs();
            diff <= abs_tol || diff <= rel_tol * a.abs().max(b.abs())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Dense::from_vec(2, 3, vec![0.0; 6]).is_ok());
        assert_eq!(
            Dense::from_vec(2, 3, vec![0.0; 5]).unwrap_err(),
            FormatError::DenseLengthMismatch {
                expected: 6,
                found: 5
            }
        );
    }

    #[test]
    fn indexing_roundtrip() {
        let mut m = Dense::zeros(3, 4);
        m.set(2, 3, 7.5);
        m.set(0, 0, -1.0);
        assert_eq!(m.get(2, 3), 7.5);
        assert_eq!(m.get(0, 0), -1.0);
        assert_eq!(m.row(2)[3], 7.5);
    }

    #[test]
    fn from_fn_fills_row_major() {
        let m = Dense::from_fn(2, 3, |i, j| (i * 10 + j) as f32);
        assert_eq!(m.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn transpose_swaps_indices() {
        let m = Dense::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = Dense::from_fn(4, 5, |i, j| (i as f32).mul_add(0.5, j as f32));
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn approx_eq_tolerates_reassociation_noise() {
        let a = Dense::from_vec(1, 2, vec![1.0, 1000.0]).unwrap();
        let b = Dense::from_vec(1, 2, vec![1.0 + 1e-7, 1000.0 + 1e-3]).unwrap();
        assert!(a.approx_eq(&b, 1e-5, 1e-6));
        let c = Dense::from_vec(1, 2, vec![1.1, 1000.0]).unwrap();
        assert!(!a.approx_eq(&c, 1e-5, 1e-6));
    }

    #[test]
    fn approx_eq_rejects_shape_mismatch() {
        let a = Dense::zeros(2, 2);
        let b = Dense::zeros(2, 3);
        assert!(!a.approx_eq(&b, 1e-5, 1e-6));
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Dense::zeros(2, 2);
        m.row_mut(1).copy_from_slice(&[3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
    }
}
