//! Blocked-Ellpack storage — the third SpMM format cuSPARSE supports
//! (§II of the paper lists CSR, COO and Blocked-Ellpack).
//!
//! The matrix is cut into `block × block` tiles; each block-row stores a
//! fixed number of *column blocks* (`max_blocks_per_row`, the ELL width),
//! padding with empty blocks when a block-row has fewer. Dense blocks make
//! the format efficient for structured sparsity; on power-law graphs the
//! padding overhead is what keeps GNN frameworks on CSR/COO — measurable
//! here via [`BlockedEll::fill_ratio`].

use crate::csr::Csr;
use crate::dense::Dense;
use crate::error::FormatError;

/// A sparse matrix in Blocked-ELL form.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedEll {
    rows: usize,
    cols: usize,
    block: usize,
    /// ELL width: column blocks stored per block-row.
    width: usize,
    /// `width` column-block indices per block-row; `u32::MAX` = padding.
    block_cols: Vec<u32>,
    /// Dense `block × block` payloads, row-major within the block,
    /// aligned with `block_cols`.
    values: Vec<f32>,
    /// Real (unpadded) non-zero count.
    nnz: usize,
}

impl BlockedEll {
    /// Converts from CSR with the given block size.
    pub fn from_csr(csr: &Csr, block: usize) -> Result<Self, FormatError> {
        if block == 0 {
            return Err(FormatError::DimensionMismatch {
                context: "blocked-ell block size must be positive",
            });
        }
        let rows = csr.rows();
        let cols = csr.cols();
        let block_rows = rows.div_ceil(block);
        // Collect the distinct column blocks of each block-row: push, then
        // sort + dedup (a membership scan per non-zero is quadratic in the
        // block-row's width, which hub rows make thousands). Skipping a
        // repeat of the last push keeps the scratch near the final size,
        // since a CSR row visits each of its blocks in one run.
        let mut per_row_blocks: Vec<Vec<u32>> = vec![Vec::new(); block_rows];
        for (r, c, _v) in csr.iter() {
            let blocks = &mut per_row_blocks[r as usize / block];
            let bc = (c as usize / block) as u32;
            if blocks.last() != Some(&bc) {
                blocks.push(bc);
            }
        }
        for blocks in &mut per_row_blocks {
            blocks.sort_unstable();
            blocks.dedup();
        }
        let width = per_row_blocks.iter().map(Vec::len).max().unwrap_or(0);
        let mut block_cols = vec![u32::MAX; block_rows * width];
        let mut values = vec![0f32; block_rows * width * block * block];
        for (br, blocks) in per_row_blocks.iter().enumerate() {
            for (slot, &bc) in blocks.iter().enumerate() {
                block_cols[br * width + slot] = bc;
            }
        }
        // Fill payloads.
        for (r, c, v) in csr.iter() {
            let br = r as usize / block;
            let bc = (c as usize / block) as u32;
            let slot = per_row_blocks[br]
                .binary_search(&bc)
                .expect("block registered above");
            let base = (br * width + slot) * block * block;
            let local = (r as usize % block) * block + (c as usize % block);
            values[base + local] += v;
        }
        Ok(Self {
            rows,
            cols,
            block,
            width,
            block_cols,
            values,
            nnz: csr.nnz(),
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block edge length.
    pub fn block(&self) -> usize {
        self.block
    }

    /// ELL width (column blocks per block-row, padding included).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Real non-zeros over stored slots — the padding diagnostic: 1.0 means
    /// perfectly dense blocks, values near 0 mean the format is mostly
    /// storing zeros (the power-law failure mode).
    pub fn fill_ratio(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.nnz as f64 / self.values.len() as f64
    }

    /// Stored scalar elements (payload + block-column indices).
    pub fn stored_elements(&self) -> usize {
        self.values.len() + self.block_cols.len()
    }

    /// Dense SpMM over the blocked layout: `O = S · A`.
    pub fn spmm(&self, a: &Dense) -> Result<Dense, FormatError> {
        if self.cols != a.rows() {
            return Err(FormatError::DimensionMismatch {
                context: "blocked-ell spmm: S.cols != A.rows",
            });
        }
        let k = a.cols();
        let mut out = Dense::zeros(self.rows, k);
        let b = self.block;
        let block_rows = self.rows.div_ceil(b);
        for br in 0..block_rows {
            for slot in 0..self.width {
                let bc = self.block_cols[br * self.width + slot];
                if bc == u32::MAX {
                    continue;
                }
                let base = (br * self.width + slot) * b * b;
                for lr in 0..b {
                    let r = br * b + lr;
                    if r >= self.rows {
                        break;
                    }
                    for lc in 0..b {
                        let c = bc as usize * b + lc;
                        if c >= self.cols {
                            break;
                        }
                        let v = self.values[base + lr * b + lc];
                        if v != 0.0 {
                            let a_row = a.row(c);
                            let o_row = out.row_mut(r);
                            for kk in 0..k {
                                o_row[kk] += v * a_row[kk];
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn sample_csr() -> Csr {
        Csr::from_triplets(
            5,
            6,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 3.0),
                (2, 4, 4.0),
                (3, 5, 5.0),
                (4, 2, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn conversion_preserves_nnz_and_blocks() {
        let csr = sample_csr();
        let bell = BlockedEll::from_csr(&csr, 2).unwrap();
        assert_eq!(bell.rows(), 5);
        assert_eq!(bell.cols(), 6);
        assert_eq!(bell.block(), 2);
        assert!(bell.width() >= 1);
        assert!(bell.fill_ratio() > 0.0 && bell.fill_ratio() <= 1.0);
    }

    #[test]
    fn spmm_matches_reference() {
        let csr = sample_csr();
        let hybrid = csr.to_hybrid();
        let a = Dense::from_fn(6, 9, |i, j| ((i * 9 + j) as f32 * 0.1).sin());
        let expected = reference::spmm(&hybrid, &a).unwrap();
        for block in [1usize, 2, 3, 4] {
            let bell = BlockedEll::from_csr(&csr, block).unwrap();
            let got = bell.spmm(&a).unwrap();
            assert!(got.approx_eq(&expected, 1e-5, 1e-6), "block {block}");
        }
    }

    #[test]
    fn diagonal_blocks_are_fully_dense_at_block_1() {
        let csr = Csr::from_triplets(4, 4, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)])
            .unwrap();
        let bell = BlockedEll::from_csr(&csr, 1).unwrap();
        assert_eq!(bell.fill_ratio(), 1.0);
        assert_eq!(bell.width(), 1);
    }

    #[test]
    fn power_law_rows_pad_heavily() {
        // One dense row forces a wide ELL; everything else pads.
        let mut triplets: Vec<(u32, u32, f32)> = (0..32u32).map(|c| (0, c, 1.0)).collect();
        triplets.push((7, 0, 1.0));
        let csr = Csr::from_triplets(8, 32, &triplets).unwrap();
        let bell = BlockedEll::from_csr(&csr, 4).unwrap();
        assert!(
            bell.fill_ratio() < 0.3,
            "expected heavy padding, fill = {}",
            bell.fill_ratio()
        );
        // And it still computes correctly.
        let a = Dense::from_fn(32, 4, |i, _| i as f32);
        let expected = reference::spmm(&csr.to_hybrid(), &a).unwrap();
        assert!(bell.spmm(&a).unwrap().approx_eq(&expected, 1e-5, 1e-6));
    }

    #[test]
    fn hub_block_row_registers_each_column_block_once_in_order() {
        // Block-row 0 is a hub whose rows reach the same column blocks in
        // different orders (row 1 revisits block 0 after row 0 left it, and
        // reaches block 3 before row 0's block 5 sorts in); block-row 1
        // holds one block, so it pads to the hub's width.
        let mut triplets: Vec<(u32, u32, f32)> = Vec::new();
        for c in [0u32, 1, 10, 11, 4] {
            triplets.push((0, c, 1.0 + c as f32));
        }
        for c in [1u32, 6, 7, 12, 13] {
            triplets.push((1, c, 100.0 + c as f32));
        }
        triplets.push((2, 5, -1.0));
        let csr = Csr::from_triplets(4, 14, &triplets).unwrap();
        let bell = BlockedEll::from_csr(&csr, 2).unwrap();
        assert_eq!(bell.width, 5);
        const PAD: u32 = u32::MAX;
        assert_eq!(bell.block_cols, [0, 2, 3, 5, 6, 2, PAD, PAD, PAD, PAD]);
        let mut values = vec![0f32; 2 * 5 * 4];
        for &(r, c, v) in &triplets {
            let (br, bc) = (r as usize / 2, c / 2);
            let slot = bell.block_cols[br * 5..][..5]
                .iter()
                .position(|&b| b == bc)
                .unwrap();
            values[(br * 5 + slot) * 4 + (r as usize % 2) * 2 + c as usize % 2] = v;
        }
        assert_eq!(bell.values, values);
    }

    #[test]
    fn rejects_zero_block_and_bad_dims() {
        let csr = sample_csr();
        assert!(BlockedEll::from_csr(&csr, 0).is_err());
        let bell = BlockedEll::from_csr(&csr, 2).unwrap();
        assert!(bell.spmm(&Dense::zeros(5, 3)).is_err());
    }

    #[test]
    fn empty_matrix_works() {
        let csr = Csr::new(3, 3, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        let bell = BlockedEll::from_csr(&csr, 2).unwrap();
        assert_eq!(bell.width(), 0);
        assert_eq!(bell.fill_ratio(), 0.0);
        let a = Dense::from_fn(3, 2, |_, _| 1.0);
        assert!(bell.spmm(&a).unwrap().data().iter().all(|&v| v == 0.0));
    }
}
