//! Compressed Sparse Row format (Fig. 2(b) of the paper).

use crate::error::{check_shape, FormatError};
use crate::hybrid::Hybrid;

/// A sparse matrix in CSR form: `row_offsets` (length `rows + 1`),
/// `col_indices` and `values` (length `nnz`).
///
/// CSR needs `M + 1 + 2·NNZ` stored elements versus the `3·NNZ` of COO /
/// hybrid CSR/COO (§II of the paper); [`MemoryFootprint`](crate::stats)
/// reports both so the trade-off the paper discusses is measurable.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_offsets: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix, validating the invariants of the format.
    pub fn new(
        rows: usize,
        cols: usize,
        row_offsets: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, FormatError> {
        let csr = Self {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
        };
        csr.validate()?;
        Ok(csr)
    }

    /// Re-checks every structural invariant of the format: a shape within
    /// the `u32` id space, offset-array length, monotone row offsets,
    /// offset/NNZ consistency, matching array lengths, and in-range column
    /// indices.
    ///
    /// [`Csr::new`] establishes these at construction; `validate` lets a
    /// holder re-assert them later — e.g. the dataset store checks every
    /// generated graph before memoising it.
    pub fn validate(&self) -> Result<(), FormatError> {
        check_shape(self.rows, self.cols)?;
        if self.row_offsets.len() != self.rows + 1 {
            return Err(FormatError::OffsetLength {
                expected: self.rows + 1,
                found: self.row_offsets.len(),
            });
        }
        for i in 1..self.row_offsets.len() {
            if self.row_offsets[i] < self.row_offsets[i - 1] {
                return Err(FormatError::OffsetsNotMonotonic { index: i });
            }
        }
        if self.row_offsets[self.rows] as usize != self.col_indices.len() {
            return Err(FormatError::OffsetNnzMismatch {
                expected: self.col_indices.len(),
                found: self.row_offsets[self.rows] as usize,
            });
        }
        if self.col_indices.len() != self.values.len() {
            return Err(FormatError::ArrayLengthMismatch {
                indices: self.col_indices.len(),
                values: self.values.len(),
            });
        }
        for (i, &c) in self.col_indices.iter().enumerate() {
            if c as usize >= self.cols {
                return Err(FormatError::ColumnOutOfBounds {
                    index: i,
                    col: c,
                    cols: self.cols,
                });
            }
        }
        Ok(())
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets in any order.
    ///
    /// Duplicate coordinates are kept as separate entries (their
    /// contributions add during SpMM, which matches multigraph semantics).
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(u32, u32, f32)],
    ) -> Result<Self, FormatError> {
        check_shape(rows, cols)?;
        let mut counts = vec![0u32; rows + 1];
        for (i, &(r, c, _)) in triplets.iter().enumerate() {
            if r as usize >= rows {
                return Err(FormatError::RowOutOfBounds {
                    index: i,
                    row: r,
                    rows,
                });
            }
            if c as usize >= cols {
                return Err(FormatError::ColumnOutOfBounds {
                    index: i,
                    col: c,
                    cols,
                });
            }
            counts[r as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let row_offsets = counts.clone();
        let nnz = triplets.len();
        let mut col_indices = vec![0u32; nnz];
        let mut values = vec![0f32; nnz];
        let mut cursor = row_offsets.clone();
        for &(r, c, v) in triplets {
            let slot = cursor[r as usize] as usize;
            col_indices[slot] = c;
            values[slot] = v;
            cursor[r as usize] += 1;
        }
        // Sort each row's segment by column for canonical order.
        let mut csr = Self {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
        };
        csr.sort_rows_by_column();
        Ok(csr)
    }

    /// Builds a matrix from parts that already satisfy every invariant
    /// [`Csr::validate`] checks — for the graph constructors that build
    /// them directly — re-checked in debug builds only.
    pub(crate) fn from_valid_parts(
        rows: usize,
        cols: usize,
        row_offsets: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        let csr = Self {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
        };
        debug_assert_eq!(csr.validate(), Ok(()));
        csr
    }

    /// Stable-sorts each row's entries by column, so duplicates keep their
    /// input order. A row already in order is skipped — a stable sort of a
    /// sorted row is the identity — and the others go through one reused
    /// buffer.
    fn sort_rows_by_column(&mut self) {
        let mut pairs: Vec<(u32, f32)> = Vec::new();
        for r in 0..self.rows {
            let range = self.row_range(r);
            let cols = &mut self.col_indices[range.clone()];
            if cols.is_sorted() {
                continue;
            }
            let vals = &mut self.values[range];
            pairs.clear();
            pairs.extend(cols.iter().copied().zip(vals.iter().copied()));
            pairs.sort_by_key(|&(c, _)| c);
            for ((c, v), &(pc, pv)) in cols.iter_mut().zip(vals.iter_mut()).zip(&pairs) {
                *c = pc;
                *v = pv;
            }
        }
    }

    /// Number of rows `M`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `N`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) elements `NNZ`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_indices.len()
    }

    /// The compressed row-offset array (length `rows + 1`).
    #[inline]
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// Column indices of stored elements, grouped by row.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Stored element values, grouped by row.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The half-open element range of row `r`.
    #[inline]
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize
    }

    /// Length (degree) of row `r`.
    #[inline]
    pub fn row_len(&self, r: usize) -> usize {
        (self.row_offsets[r + 1] - self.row_offsets[r]) as usize
    }

    /// Decodes into the hybrid CSR/COO format (Fig. 2(d)): the compressed
    /// row-offset array is expanded into one row index per element.
    pub fn to_hybrid(&self) -> Hybrid {
        let mut row_indices = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            row_indices.extend(std::iter::repeat_n(r as u32, self.row_len(r)));
        }
        Hybrid::from_sorted_parts(
            self.rows,
            self.cols,
            row_indices,
            self.col_indices.clone(),
            self.values.clone(),
        )
        .expect("CSR invariants guarantee valid hybrid form")
    }

    /// Transposes the matrix (CSC of the original viewed as CSR).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0u32; self.cols + 1];
        for &c in &self.col_indices {
            counts[c as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let row_offsets = counts.clone();
        let mut col_indices = vec![0u32; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            for e in self.row_range(r) {
                let c = self.col_indices[e] as usize;
                let slot = cursor[c] as usize;
                col_indices[slot] = r as u32;
                values[slot] = self.values[e];
                cursor[c] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            row_offsets,
            col_indices,
            values,
        }
    }

    /// Iterator over `(row, col, value)` triplets in CSR order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.row_range(r)
                .map(move |e| (r as u32, self.col_indices[e], self.values[e]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MAX_DIM;
    use proptest::prelude::*;

    /// The example matrix of Fig. 2(a): 4x4 with 7 non-zeros a..g.
    pub(crate) fn fig2_matrix() -> Csr {
        // row 0: a@0, b@2 ; row 1: c@1 ; row 2: d@0, e@2, f@3 ; row 3: g@3
        Csr::new(
            4,
            4,
            vec![0, 2, 3, 6, 7],
            vec![0, 2, 1, 0, 2, 3, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_offsets() {
        let err = Csr::new(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, FormatError::OffsetLength { .. }));
        let err = Csr::new(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, FormatError::OffsetsNotMonotonic { .. }));
        let err = Csr::new(2, 2, vec![0, 1, 3], vec![0, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, FormatError::OffsetNnzMismatch { .. }));
        let err = Csr::new(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, FormatError::ColumnOutOfBounds { .. }));
        let err = Csr::new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0]).unwrap_err();
        assert!(matches!(err, FormatError::ArrayLengthMismatch { .. }));
    }

    #[test]
    fn validate_rechecks_invariants_after_construction() {
        let m = fig2_matrix();
        assert!(m.validate().is_ok());
        // Corrupt each invariant in turn (fields are module-visible).
        let mut bad = m.clone();
        bad.row_offsets[2] = 0;
        assert!(matches!(
            bad.validate().unwrap_err(),
            FormatError::OffsetsNotMonotonic { .. }
        ));
        let mut bad = m.clone();
        bad.col_indices[3] = 99;
        assert!(matches!(
            bad.validate().unwrap_err(),
            FormatError::ColumnOutOfBounds { .. }
        ));
        let mut bad = m;
        bad.values.pop();
        assert!(matches!(
            bad.validate().unwrap_err(),
            FormatError::ArrayLengthMismatch { .. }
        ));
    }

    #[test]
    fn transpose_output_validates() {
        assert!(fig2_matrix().transpose().validate().is_ok());
    }

    #[test]
    fn fig2_shape() {
        let m = fig2_matrix();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.row_len(0), 2);
        assert_eq!(m.row_len(1), 1);
        assert_eq!(m.row_len(2), 3);
        assert_eq!(m.row_len(3), 1);
    }

    #[test]
    fn from_triplets_sorts_and_groups() {
        let m = Csr::from_triplets(
            3,
            3,
            &[
                (2, 1, 5.0),
                (0, 2, 2.0),
                (0, 0, 1.0),
                (2, 0, 4.0),
                (1, 1, 3.0),
            ],
        )
        .unwrap();
        assert_eq!(m.row_offsets(), &[0, 2, 3, 5]);
        assert_eq!(m.col_indices(), &[0, 2, 1, 0, 1]);
        assert_eq!(m.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        assert!(matches!(
            Csr::from_triplets(2, 2, &[(2, 0, 1.0)]).unwrap_err(),
            FormatError::RowOutOfBounds { .. }
        ));
        assert!(matches!(
            Csr::from_triplets(2, 2, &[(0, 2, 1.0)]).unwrap_err(),
            FormatError::ColumnOutOfBounds { .. }
        ));
    }

    /// A dimension past the `u32` id space is a typed error, checked
    /// before anything is sized by it.
    #[test]
    fn huge_shapes_are_typed_errors() {
        let too_large = |e: FormatError| matches!(e, FormatError::ShapeTooLarge { .. });
        for (rows, cols) in [(usize::MAX, 1), (1, usize::MAX), (MAX_DIM + 1, 0)] {
            assert!(too_large(
                Csr::new(rows, cols, vec![], vec![], vec![]).unwrap_err()
            ));
            assert!(too_large(Csr::from_triplets(rows, cols, &[]).unwrap_err()));
        }
    }

    #[test]
    fn hybrid_decodes_row_indices_like_fig2d() {
        let h = fig2_matrix().to_hybrid();
        assert_eq!(h.row_indices(), &[0, 0, 1, 2, 2, 2, 3]);
        assert_eq!(h.col_indices(), &[0, 2, 1, 0, 2, 3, 3]);
    }

    #[test]
    fn transpose_preserves_triplets() {
        let m = fig2_matrix();
        let t = m.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.nnz(), m.nnz());
        let mut orig: Vec<_> = m.iter().map(|(r, c, v)| (c, r, v.to_bits())).collect();
        let mut trans: Vec<_> = t.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        orig.sort_unstable();
        trans.sort_unstable();
        assert_eq!(orig, trans);
    }

    #[test]
    fn empty_rows_are_allowed() {
        let m = Csr::new(3, 3, vec![0, 0, 0, 1], vec![2], vec![9.0]).unwrap();
        assert_eq!(m.row_len(0), 0);
        assert_eq!(m.row_len(1), 0);
        assert_eq!(m.row_len(2), 1);
        let h = m.to_hybrid();
        assert_eq!(h.row_indices(), &[2]);
    }

    #[test]
    fn iter_yields_csr_order() {
        let m = fig2_matrix();
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(triplets[0], (0, 0, 1.0));
        assert_eq!(triplets[6], (3, 3, 7.0));
        assert_eq!(triplets.len(), 7);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// `from_triplets` is a stable sort of its input by (row, column):
        /// duplicates keep their input order, whether or not a row arrives
        /// already sorted.
        #[test]
        fn from_triplets_is_a_stable_sort_by_row_then_column(
            rows in 1usize..12,
            cols in 1usize..12,
            raw in proptest::collection::vec((0u32..100, 0u32..100), 0..120),
            presorted in 0u8..2,
        ) {
            let mut triplets: Vec<(u32, u32, f32)> = raw
                .iter()
                .enumerate()
                .map(|(i, &(r, c))| (r % rows as u32, c % cols as u32, i as f32))
                .collect();
            if presorted == 1 {
                triplets.sort_by_key(|&(r, c, _)| (r, c));
            }
            let m = Csr::from_triplets(rows, cols, &triplets).unwrap();
            let mut want = triplets.clone();
            want.sort_by_key(|&(r, c, _)| (r, c));
            let got: Vec<(u32, u32, f32)> = m.iter().collect();
            prop_assert_eq!(got, want);
        }
    }
}
