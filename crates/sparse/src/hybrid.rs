//! The hybrid CSR/COO format (Fig. 2(d)) on which HP-SpMM / HP-SDDMM run.
//!
//! The hybrid format is a COO whose elements are stored in CSR order — i.e.
//! the CSR layout with the compressed `RowOffset` array decoded into a full
//! per-element `RowInd` array. GNN frameworks store sampled subgraphs in
//! this format directly (§II), which is why the paper's kernels need no
//! preprocessing or format conversion at run time.

use crate::csr::Csr;
use crate::error::{check_shape, FormatError};

/// A sparse matrix in hybrid CSR/COO form.
///
/// Invariant: the `(row, col)` pairs are sorted row-major (rows
/// non-decreasing; columns non-decreasing within a row). This lets a kernel
/// read any contiguous chunk of elements and know that equal row indices are
/// adjacent, which is what makes the row-switch procedure of Algorithms 3
/// and 4 work.
#[derive(Debug, Clone, PartialEq)]
pub struct Hybrid {
    rows: usize,
    cols: usize,
    row_indices: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl Hybrid {
    /// Builds a hybrid matrix from parts already in CSR element order.
    ///
    /// Returns [`FormatError::NotSorted`] when the order invariant is
    /// violated; [`Hybrid::from_triplets`] is the constructor for input in
    /// any order.
    pub fn from_sorted_parts(
        rows: usize,
        cols: usize,
        row_indices: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, FormatError> {
        let hybrid = Self {
            rows,
            cols,
            row_indices,
            col_indices,
            values,
        };
        hybrid.validate()?;
        Ok(hybrid)
    }

    /// Re-checks every structural invariant: a shape within the `u32` id
    /// space, parallel arrays of equal lengths, every index in range, and
    /// elements in CSR order (rows non-decreasing, columns non-decreasing
    /// within a row).
    pub fn validate(&self) -> Result<(), FormatError> {
        check_shape(self.rows, self.cols)?;
        if self.row_indices.len() != self.col_indices.len() {
            return Err(FormatError::ArrayLengthMismatch {
                indices: self.row_indices.len(),
                values: self.col_indices.len(),
            });
        }
        if self.row_indices.len() != self.values.len() {
            return Err(FormatError::ArrayLengthMismatch {
                indices: self.row_indices.len(),
                values: self.values.len(),
            });
        }
        for (i, (&r, &c)) in self.row_indices.iter().zip(&self.col_indices).enumerate() {
            if r as usize >= self.rows {
                return Err(FormatError::RowOutOfBounds {
                    index: i,
                    row: r,
                    rows: self.rows,
                });
            }
            if c as usize >= self.cols {
                return Err(FormatError::ColumnOutOfBounds {
                    index: i,
                    col: c,
                    cols: self.cols,
                });
            }
        }
        if let Some(idx) = self
            .row_indices
            .windows(2)
            .zip(self.col_indices.windows(2))
            .position(|(r, c)| !(r[0] < r[1] || (r[0] == r[1] && c[0] <= c[1])))
        {
            return Err(FormatError::NotSorted { index: idx + 1 });
        }
        Ok(())
    }

    /// Builds a hybrid matrix from `(row, col, value)` triplets in any
    /// order — the one constructor for unsorted input (a sampler's edge
    /// list, say). Elements are sorted into CSR order; duplicates are kept
    /// as separate entries, as [`Csr::from_triplets`] keeps them.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(u32, u32, f32)],
    ) -> Result<Self, FormatError> {
        Ok(Csr::from_triplets(rows, cols, triplets)?.to_hybrid())
    }

    /// Number of rows `M` (destination nodes).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `N` (source nodes).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored elements `NNZ` (edges).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Decoded per-element row indices (`RowInd`).
    #[inline]
    pub fn row_indices(&self) -> &[u32] {
        &self.row_indices
    }

    /// Per-element column indices (`ColInd`).
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Stored element values (`Value`).
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable view of the stored values (SDDMM writes its output here).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Replaces all stored values, keeping the sparsity pattern.
    ///
    /// # Panics
    /// Panics when `values.len() != self.nnz()`.
    pub fn set_values(&mut self, values: Vec<f32>) {
        assert_eq!(
            values.len(),
            self.nnz(),
            "value array length must match nnz"
        );
        self.values = values;
    }

    /// Re-encodes the row indices into a compressed CSR offset array.
    pub fn to_csr(&self) -> Csr {
        let mut offsets = vec![0u32; self.rows + 1];
        for &r in &self.row_indices {
            offsets[r as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        Csr::new(
            self.rows,
            self.cols,
            offsets,
            self.col_indices.clone(),
            self.values.clone(),
        )
        .expect("hybrid invariants guarantee valid CSR")
    }

    /// Iterator over `(row, col, value)` triplets in CSR element order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        self.row_indices
            .iter()
            .zip(&self.col_indices)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Splits the element range `[0, nnz)` into chunks of `chunk` elements —
    /// the task assignment of the hybrid-parallel strategy, where each warp
    /// receives exactly `NnzPerWarp` elements regardless of row boundaries.
    pub fn chunks(&self, chunk: usize) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let nnz = self.nnz();
        (0..nnz.div_ceil(chunk.max(1))).map(move |i| i * chunk..((i + 1) * chunk).min(nnz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sorted_parts_accepts_fig2d() {
        let h = fig2_hybrid();
        assert_eq!(h.nnz(), 7);
        assert_eq!(h.rows(), 4);
    }

    #[test]
    fn validate_rechecks_invariants_after_construction() {
        let h = fig2_hybrid();
        assert!(h.validate().is_ok());
        let mut bad = h.clone();
        bad.row_indices.swap(0, 6);
        assert!(matches!(
            bad.validate().unwrap_err(),
            FormatError::NotSorted { .. }
        ));
        let mut bad = h;
        bad.col_indices[2] = 42;
        assert!(matches!(
            bad.validate().unwrap_err(),
            FormatError::ColumnOutOfBounds { .. }
        ));
    }

    #[test]
    fn sorted_parts_rejects_unsorted_rows() {
        let err =
            Hybrid::from_sorted_parts(2, 2, vec![1, 0], vec![0, 0], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, FormatError::NotSorted { index: 1 }));
    }

    #[test]
    fn sorted_parts_rejects_unsorted_cols_within_row() {
        let err =
            Hybrid::from_sorted_parts(2, 3, vec![0, 0], vec![2, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, FormatError::NotSorted { .. }));
    }

    #[test]
    fn csr_roundtrip() {
        let h = fig2_hybrid();
        let csr = h.to_csr();
        assert_eq!(csr.row_offsets(), &[0, 2, 3, 6, 7]);
        assert_eq!(csr.to_hybrid(), h);
    }

    #[test]
    fn from_triplets_sorts() {
        let h = Hybrid::from_triplets(3, 3, &[(2, 0, 3.0), (0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        assert_eq!(h.row_indices(), &[0, 1, 2]);
        assert_eq!(h.values(), &[1.0, 2.0, 3.0]);
    }

    /// A dimension past the `u32` id space is a typed error, so `to_csr`
    /// never sizes an offset array by it.
    #[test]
    fn huge_shapes_are_typed_errors() {
        let too_large = |e: FormatError| matches!(e, FormatError::ShapeTooLarge { .. });
        for (rows, cols) in [(usize::MAX, 1), (1, usize::MAX)] {
            let parts = Hybrid::from_sorted_parts(rows, cols, vec![], vec![], vec![]);
            assert!(too_large(parts.unwrap_err()));
            assert!(too_large(
                Hybrid::from_triplets(rows, cols, &[]).unwrap_err()
            ));
        }
    }

    #[test]
    fn chunks_cover_all_elements_without_overlap() {
        let h = fig2_hybrid();
        let ranges: Vec<_> = h.chunks(3).collect();
        assert_eq!(ranges, vec![0..3, 3..6, 6..7]);
        let ranges: Vec<_> = h.chunks(7).collect();
        assert_eq!(ranges, vec![0..7]);
        let ranges: Vec<_> = h.chunks(100).collect();
        assert_eq!(ranges, vec![0..7]);
    }

    #[test]
    fn set_values_keeps_pattern() {
        let mut h = fig2_hybrid();
        h.set_values(vec![0.0; 7]);
        assert_eq!(h.values(), &[0.0; 7]);
        assert_eq!(h.col_indices()[1], 2);
    }

    #[test]
    #[should_panic(expected = "value array length")]
    fn set_values_rejects_wrong_length() {
        let mut h = fig2_hybrid();
        h.set_values(vec![0.0; 3]);
    }
}
