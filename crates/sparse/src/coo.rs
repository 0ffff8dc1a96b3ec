//! Coordinate (COO) format (Fig. 2(c) of the paper).

use crate::csr::Csr;
use crate::error::FormatError;

/// A sparse matrix in COO form: parallel `row_indices`, `col_indices` and
/// `values` arrays, in no particular order.
///
/// COO is the simplest format and is what graph samplers naturally emit;
/// sorting it into CSR element order produces the paper's hybrid CSR/COO
/// format ([`Hybrid`](crate::Hybrid)).
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    rows: usize,
    cols: usize,
    row_indices: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<f32>,
}

impl Coo {
    /// Builds a COO matrix, validating bounds and array lengths.
    pub fn new(
        rows: usize,
        cols: usize,
        row_indices: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, FormatError> {
        let coo = Self {
            rows,
            cols,
            row_indices,
            col_indices,
            values,
        };
        coo.validate()?;
        Ok(coo)
    }

    /// Re-checks the format's structural invariants: the three parallel
    /// arrays must have equal lengths and every index must be in range.
    pub fn validate(&self) -> Result<(), FormatError> {
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
        for (i, &r) in self.row_indices.iter().enumerate() {
            if r as usize >= self.rows {
                return Err(FormatError::RowOutOfBounds {
                    index: i,
                    row: r,
                    rows: self.rows,
                });
            }
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

    /// Number of stored elements `NNZ`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row index of each stored element.
    #[inline]
    pub fn row_indices(&self) -> &[u32] {
        &self.row_indices
    }

    /// Column index of each stored element.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Stored element values.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Converts into CSR, sorting elements as needed.
    pub fn to_csr(&self) -> Csr {
        let triplets: Vec<(u32, u32, f32)> = self
            .row_indices
            .iter()
            .zip(&self.col_indices)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r, c, v))
            .collect();
        Csr::from_triplets(self.rows, self.cols, &triplets)
            .expect("COO invariants guarantee valid CSR")
    }

    /// Iterator over `(row, col, value)` triplets in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        self.row_indices
            .iter()
            .zip(&self.col_indices)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r, c, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_everything() {
        assert!(matches!(
            Coo::new(2, 2, vec![0, 1], vec![0], vec![1.0, 2.0]).unwrap_err(),
            FormatError::ArrayLengthMismatch { .. }
        ));
        assert!(matches!(
            Coo::new(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).unwrap_err(),
            FormatError::RowOutOfBounds { .. }
        ));
        assert!(matches!(
            Coo::new(2, 2, vec![0, 1], vec![0, 2], vec![1.0, 2.0]).unwrap_err(),
            FormatError::ColumnOutOfBounds { .. }
        ));
    }

    #[test]
    fn validate_rechecks_invariants_after_construction() {
        let coo = Coo::new(2, 2, vec![0, 1], vec![0, 1], vec![1.0, 2.0]).unwrap();
        assert!(coo.validate().is_ok());
        let mut bad = coo;
        bad.row_indices[1] = 7;
        assert!(matches!(
            bad.validate().unwrap_err(),
            FormatError::RowOutOfBounds { .. }
        ));
    }

    #[test]
    fn csr_roundtrip_preserves_triplets() {
        let coo = Coo::new(
            3,
            4,
            vec![2, 0, 1, 2],
            vec![3, 1, 0, 0],
            vec![4.0, 1.0, 2.0, 3.0],
        )
        .unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 4);
        let back = csr.to_coo();
        let mut a: Vec<_> = coo.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        let mut b: Vec<_> = back.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_matrix_is_valid() {
        let coo = Coo::new(0, 0, vec![], vec![], vec![]).unwrap();
        assert_eq!(coo.nnz(), 0);
        assert_eq!(coo.to_csr().nnz(), 0);
    }
}
