//! Validation errors for sparse-matrix construction.

use std::fmt;

/// An error produced while validating a sparse-matrix representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// `row_offsets` must have exactly `rows + 1` entries.
    OffsetLength { expected: usize, found: usize },
    /// `row_offsets` must be non-decreasing.
    OffsetsNotMonotonic { index: usize },
    /// `row_offsets[rows]` must equal `col_indices.len()`.
    OffsetNnzMismatch { expected: usize, found: usize },
    /// Index arrays and the value array must have equal lengths.
    ArrayLengthMismatch { indices: usize, values: usize },
    /// A column index is out of bounds.
    ColumnOutOfBounds { index: usize, col: u32, cols: usize },
    /// A row index is out of bounds.
    RowOutOfBounds { index: usize, row: u32, rows: usize },
    /// A dimension does not fit the `u32` index space row and column ids
    /// live in.
    ShapeTooLarge { rows: usize, cols: usize },
    /// Hybrid entries must be sorted by (row, col), i.e. in CSR order.
    NotSorted { index: usize },
    /// Dense-matrix data length must equal `rows * cols`.
    DenseLengthMismatch { expected: usize, found: usize },
    /// Dimension mismatch between operands of a kernel.
    DimensionMismatch { context: &'static str },
    /// A kernel was built with launch parameters it cannot launch with.
    InvalidConfig { context: &'static str },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::OffsetLength { expected, found } => write!(
                f,
                "row_offsets must have rows+1 = {expected} entries, found {found}"
            ),
            FormatError::OffsetsNotMonotonic { index } => {
                write!(f, "row_offsets decreases at index {index}")
            }
            FormatError::OffsetNnzMismatch { expected, found } => {
                write!(f, "last row offset {found} does not match nnz {expected}")
            }
            FormatError::ArrayLengthMismatch { indices, values } => write!(
                f,
                "index arrays ({indices}) and value array ({values}) differ in length"
            ),
            FormatError::ColumnOutOfBounds { index, col, cols } => write!(
                f,
                "column index {col} at position {index} out of bounds (cols = {cols})"
            ),
            FormatError::RowOutOfBounds { index, row, rows } => write!(
                f,
                "row index {row} at position {index} out of bounds (rows = {rows})"
            ),
            FormatError::ShapeTooLarge { rows, cols } => write!(
                f,
                "shape {rows}x{cols} exceeds the u32 index space (max {MAX_DIM})"
            ),
            FormatError::NotSorted { index } => {
                write!(f, "entries are not in CSR order at position {index}")
            }
            FormatError::DenseLengthMismatch { expected, found } => write!(
                f,
                "dense data length {found} does not match rows*cols = {expected}"
            ),
            FormatError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch in {context}")
            }
            FormatError::InvalidConfig { context } => {
                write!(f, "unlaunchable configuration in {context}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// The largest row or column count a sparse format holds: row and column
/// ids are `u32`, and so is every dimension.
pub(crate) const MAX_DIM: usize = u32::MAX as usize;

/// [`FormatError::ShapeTooLarge`] unless both dimensions are at most
/// [`MAX_DIM`]. Constructors check this before they size anything by
/// `rows + 1`.
pub(crate) fn check_shape(rows: usize, cols: usize) -> Result<(), FormatError> {
    if rows > MAX_DIM || cols > MAX_DIM {
        return Err(FormatError::ShapeTooLarge { rows, cols });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = FormatError::OffsetLength {
            expected: 5,
            found: 4,
        };
        assert!(e.to_string().contains('5'));
        let e = FormatError::ColumnOutOfBounds {
            index: 3,
            col: 9,
            cols: 4,
        };
        assert!(e.to_string().contains("column index 9"));
        let e = FormatError::DimensionMismatch { context: "spmm" };
        assert!(e.to_string().contains("spmm"));
    }
}
