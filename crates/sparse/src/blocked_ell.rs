//! Blocked-Ellpack storage — the third SpMM format cuSPARSE supports
//! (§II of the paper lists CSR, COO and Blocked-Ellpack).
//!
//! The matrix is cut into `block × block` tiles; each block-row stores a
//! fixed number of *column blocks* (`max_blocks_per_row`, the ELL width),
//! padding with empty blocks when a block-row has fewer. Dense blocks make
//! the format efficient for structured sparsity; on power-law graphs the
//! padding overhead is what keeps GNN frameworks on CSR/COO — measurable
//! here via [`BlockedEll::fill_ratio`].
//!
//! The padding is *accounted, not stored*. A device would hold
//! `block_rows × width` column-block indices and as many dense payloads;
//! [`BlockedEllShape`] reports those logical sizes, and is all a cost model
//! reads. The host keeps O(nnz + block-rows): each block-row's real column
//! blocks and the payload's non-zero entries in payload order. One hub row
//! makes the padded arrays gigabytes on a matrix of a few thousand
//! non-zeros, and [`BlockedEll::spmm`] skips every zero anyway.

use crate::csr::Csr;
use crate::dense::Dense;
use crate::error::FormatError;

/// The logical (padded) shape of a matrix in Blocked-ELL form: the sizes a
/// device would allocate, without allocating them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedEllShape {
    rows: usize,
    cols: usize,
    block: usize,
    /// ELL width: column blocks stored per block-row.
    width: usize,
    /// Real (unpadded) non-zero count.
    nnz: usize,
}

impl BlockedEllShape {
    /// The shape `csr` takes at the given block size, in one block-row of
    /// scratch.
    pub fn of(csr: &Csr, block: usize) -> Result<Self, FormatError> {
        check_block(block)?;
        let mut width = 0;
        for_each_block_row(csr, block, |blocks| width = width.max(blocks.len()));
        Self::checked(csr, block, width)
    }

    /// Rejects a shape whose padded sizes do not fit `usize`, so the size
    /// accessors cannot wrap.
    fn checked(csr: &Csr, block: usize, width: usize) -> Result<Self, FormatError> {
        csr.rows()
            .div_ceil(block)
            .checked_mul(width)
            .and_then(|slots| slots.checked_mul(block.checked_mul(block)?))
            .ok_or(FormatError::DimensionMismatch {
                context: "blocked-ell padded size overflows usize",
            })?;
        Ok(Self {
            rows: csr.rows(),
            cols: csr.cols(),
            block,
            width,
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

    /// Number of block-rows.
    pub fn block_rows(&self) -> usize {
        self.rows.div_ceil(self.block)
    }

    /// Column-block slots, padding included: `block_rows × width`.
    pub fn slots(&self) -> usize {
        self.block_rows() * self.width
    }

    /// Payload scalars, padding included: `slots × block²`.
    pub fn payload_len(&self) -> usize {
        self.slots() * self.block * self.block
    }

    /// Real non-zeros over stored slots — the padding diagnostic: 1.0 means
    /// perfectly dense blocks, values near 0 mean the format is mostly
    /// storing zeros (the power-law failure mode).
    pub fn fill_ratio(&self) -> f64 {
        if self.payload_len() == 0 {
            return 0.0;
        }
        self.nnz as f64 / self.payload_len() as f64
    }

    /// Stored scalar elements (payload + block-column indices).
    pub fn stored_elements(&self) -> usize {
        self.payload_len() + self.slots()
    }
}

fn check_block(block: usize) -> Result<(), FormatError> {
    if block == 0 {
        return Err(FormatError::DimensionMismatch {
            context: "blocked-ell block size must be positive",
        });
    }
    Ok(())
}

/// Calls `visit` once per block-row, top to bottom, with the block-row's
/// distinct column blocks in ascending order.
fn for_each_block_row(csr: &Csr, block: usize, mut visit: impl FnMut(&[u32])) {
    let offsets = csr.row_offsets();
    // Push, then sort + dedup (a membership scan per non-zero is quadratic
    // in the block-row's width, which hub rows make thousands). Skipping a
    // repeat of the last push keeps the scratch near the final size, since
    // a CSR row visits each of its blocks in one run.
    let mut blocks: Vec<u32> = Vec::new();
    for br in 0..csr.rows().div_ceil(block) {
        let first = br * block;
        let end = first.saturating_add(block).min(csr.rows());
        blocks.clear();
        for &c in &csr.col_indices()[offsets[first] as usize..offsets[end] as usize] {
            let bc = (c as usize / block) as u32;
            if blocks.last() != Some(&bc) {
                blocks.push(bc);
            }
        }
        blocks.sort_unstable();
        blocks.dedup();
        visit(&blocks);
    }
}

/// A sparse matrix in Blocked-ELL form.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedEll {
    shape: BlockedEllShape,
    /// Block-row `br`'s real column blocks are
    /// `block_cols[block_ptr[br]..block_ptr[br + 1]]`, ascending; the
    /// `width - len` padding slots behind them exist only in `shape`.
    block_ptr: Vec<usize>,
    block_cols: Vec<u32>,
    /// The payload's non-zero scalars as `(row, col, value)` in payload
    /// order: block-row, slot, local row, local column.
    entries: Vec<(u32, u32, f32)>,
}

impl BlockedEll {
    /// Converts from CSR with the given block size.
    pub fn from_csr(csr: &Csr, block: usize) -> Result<Self, FormatError> {
        check_block(block)?;
        let mut block_ptr = vec![0usize];
        let mut block_cols = Vec::new();
        let mut width = 0;
        for_each_block_row(csr, block, |blocks| {
            width = width.max(blocks.len());
            block_cols.extend_from_slice(blocks);
            block_ptr.push(block_cols.len());
        });
        let shape = BlockedEllShape::checked(csr, block, width)?;

        // A block-row's slots ascend with their column block, so payload
        // order is this key; the sort is stable, so entries that share a
        // payload scalar stay in CSR order and sum as they always did —
        // onto the scalar's initial 0.0.
        let mut sorted: Vec<(u32, u32, f32)> = csr.iter().collect();
        sorted.sort_by_cached_key(|&(r, c, _)| {
            let (r, c) = (r as usize, c as usize);
            (r / block, c / block, r % block, c % block)
        });
        let mut entries: Vec<(u32, u32, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match entries.last_mut() {
                Some(last) if (last.0, last.1) == (r, c) => last.2 += v,
                _ => entries.push((r, c, 0.0 + v)),
            }
        }
        entries.retain(|&(_, _, v)| v != 0.0);
        Ok(Self {
            shape,
            block_ptr,
            block_cols,
            entries,
        })
    }

    /// The logical (padded) shape.
    pub fn shape(&self) -> BlockedEllShape {
        self.shape
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.shape.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.shape.cols
    }

    /// Block edge length.
    pub fn block(&self) -> usize {
        self.shape.block
    }

    /// ELL width (column blocks per block-row, padding included).
    pub fn width(&self) -> usize {
        self.shape.width
    }

    /// See [`BlockedEllShape::fill_ratio`].
    pub fn fill_ratio(&self) -> f64 {
        self.shape.fill_ratio()
    }

    /// See [`BlockedEllShape::stored_elements`].
    pub fn stored_elements(&self) -> usize {
        self.shape.stored_elements()
    }

    /// The real column blocks of block-row `br`, ascending; the block-row's
    /// remaining `width - len` slots are padding.
    pub fn block_cols(&self, br: usize) -> &[u32] {
        &self.block_cols[self.block_ptr[br]..self.block_ptr[br + 1]]
    }

    /// The payload's non-zero scalars as `(row, col, value)`, in payload
    /// order.
    pub fn entries(&self) -> &[(u32, u32, f32)] {
        &self.entries
    }

    /// Dense SpMM over the blocked layout: `O = S · A`. Walks the payload
    /// in order and skips its zeros, so each output row accumulates by
    /// ascending column.
    pub fn spmm(&self, a: &Dense) -> Result<Dense, FormatError> {
        if self.cols() != a.rows() {
            return Err(FormatError::DimensionMismatch {
                context: "blocked-ell spmm: S.cols != A.rows",
            });
        }
        let mut out = Dense::zeros(self.rows(), a.cols());
        for &(r, c, v) in &self.entries {
            let a_row = a.row(c as usize);
            for (o, &x) in out.row_mut(r as usize).iter_mut().zip(a_row) {
                *o += v * x;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;

    /// The format with its padding materialised, as it was stored before:
    /// `width` column-block indices per block-row (`PAD` = padding) and one
    /// dense row-major `block × block` payload per slot.
    struct Oracle {
        rows: usize,
        cols: usize,
        block: usize,
        width: usize,
        block_cols: Vec<u32>,
        values: Vec<f32>,
        nnz: usize,
    }

    const PAD: u32 = u32::MAX;

    impl Oracle {
        fn from_csr(csr: &Csr, block: usize) -> Self {
            let block_rows = csr.rows().div_ceil(block);
            let mut per_row_blocks: Vec<Vec<u32>> = vec![Vec::new(); block_rows];
            for (r, c, _v) in csr.iter() {
                let blocks = &mut per_row_blocks[r as usize / block];
                let bc = (c as usize / block) as u32;
                if !blocks.contains(&bc) {
                    blocks.push(bc);
                }
            }
            for blocks in &mut per_row_blocks {
                blocks.sort_unstable();
            }
            let width = per_row_blocks.iter().map(Vec::len).max().unwrap_or(0);
            let mut block_cols = vec![PAD; block_rows * width];
            let mut values = vec![0f32; block_rows * width * block * block];
            for (br, blocks) in per_row_blocks.iter().enumerate() {
                block_cols[br * width..][..blocks.len()].copy_from_slice(blocks);
            }
            for (r, c, v) in csr.iter() {
                let br = r as usize / block;
                let bc = (c as usize / block) as u32;
                let slot = per_row_blocks[br].binary_search(&bc).unwrap();
                let base = (br * width + slot) * block * block;
                let local = (r as usize % block) * block + (c as usize % block);
                values[base + local] += v;
            }
            Self {
                rows: csr.rows(),
                cols: csr.cols(),
                block,
                width,
                block_cols,
                values,
                nnz: csr.nnz(),
            }
        }

        fn fill_ratio(&self) -> f64 {
            if self.values.is_empty() {
                return 0.0;
            }
            self.nnz as f64 / self.values.len() as f64
        }

        fn spmm(&self, a: &Dense) -> Dense {
            let k = a.cols();
            let mut out = Dense::zeros(self.rows, k);
            let b = self.block;
            for br in 0..self.rows.div_ceil(b) {
                for slot in 0..self.width {
                    let bc = self.block_cols[br * self.width + slot];
                    if bc == PAD {
                        continue;
                    }
                    let base = (br * self.width + slot) * b * b;
                    for lr in 0..b.min(self.rows - br * b) {
                        for lc in 0..b.min(self.cols - bc as usize * b) {
                            let v = self.values[base + lr * b + lc];
                            if v != 0.0 {
                                let a_row = a.row(bc as usize * b + lc);
                                let o_row = out.row_mut(br * b + lr);
                                for kk in 0..k {
                                    o_row[kk] += v * a_row[kk];
                                }
                            }
                        }
                    }
                }
            }
            out
        }

        /// Asserts `bell` describes exactly this padded format: same
        /// logical sizes, same real column blocks per block-row, and the
        /// payload's non-zeros bit for bit in payload order.
        fn assert_describes(&self, bell: &BlockedEll) {
            assert_eq!(bell.width(), self.width);
            assert_eq!(
                bell.stored_elements(),
                self.values.len() + self.block_cols.len()
            );
            assert_eq!(bell.fill_ratio().to_bits(), self.fill_ratio().to_bits());
            for (br, slots) in self.block_cols.chunks(self.width.max(1)).enumerate() {
                let real: Vec<u32> = slots.iter().copied().filter(|&bc| bc != PAD).collect();
                assert_eq!(bell.block_cols(br), real, "block-row {br}");
            }
            let b = self.block;
            let non_zeros: Vec<(u32, u32, u32)> = self
                .values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(i, &v)| {
                    let (slot, local) = (i / (b * b), i % (b * b));
                    let (br, bc) = (slot / self.width, self.block_cols[slot] as usize);
                    let (r, c) = (br * b + local / b, bc * b + local % b);
                    (r as u32, c as u32, bits(v))
                })
                .collect();
            let entries: Vec<(u32, u32, u32)> = bell
                .entries()
                .iter()
                .map(|&(r, c, v)| (r, c, bits(v)))
                .collect();
            assert_eq!(entries, non_zeros);
        }
    }

    /// `to_bits`, with every NaN as one pattern: which operand's sign and
    /// payload a NaN sum inherits is the compiler's choice (it may commute
    /// an `fadd`), so that is not a property either format has.
    fn bits(v: f32) -> u32 {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    fn dense_bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|&v| bits(v)).collect()
    }

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
        assert_eq!(BlockedEllShape::of(&csr, 2).unwrap(), bell.shape());
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
        assert_eq!(bell.width(), 5);
        assert_eq!(bell.block_cols(0), [0, 2, 3, 5, 6]);
        assert_eq!(bell.block_cols(1), [2]);
        // 2 block-rows × 5 slots, each a 2 × 2 payload plus its index.
        assert_eq!(bell.stored_elements(), 2 * 5 * 4 + 2 * 5);
        // Payload order: slot by slot, and row-major inside a slot — so
        // (1, 1) of block 0 follows (0, 1) and precedes block 2's (0, 4).
        let cells: Vec<(u32, u32)> = bell.entries().iter().map(|&(r, c, _)| (r, c)).collect();
        let expected = [
            (0, 0),
            (0, 1),
            (1, 1),
            (0, 4),
            (1, 6),
            (1, 7),
            (0, 10),
            (0, 11),
            (1, 12),
            (1, 13),
            (2, 5),
        ];
        assert_eq!(cells, expected);
        for &(r, c, v) in bell.entries() {
            assert!(triplets.contains(&(r, c, v)), "({r}, {c}) holds {v}");
        }
    }

    #[test]
    fn one_hub_row_costs_its_non_zeros_not_its_padding() {
        // Row 0 reaches all 4 096 column blocks, so every one of the 4 096
        // block-rows is 4 096 slots wide: a 16 GiB payload and a 64 MiB
        // index, described here by the matrix's 69 631 entries.
        let n = 1usize << 16;
        let hub = (0..n as u32).step_by(16).skip(1).map(|c| (0, c, 2.0));
        let triplets: Vec<(u32, u32, f32)> =
            (0..n as u32).map(|i| (i, i, 1.0)).chain(hub).collect();
        let csr = Csr::from_triplets(n, n, &triplets).unwrap();
        let bell = BlockedEll::from_csr(&csr, 16).unwrap();
        assert_eq!(bell.width(), n / 16);
        assert_eq!(bell.shape().payload_len(), 1 << 32);
        assert_eq!(bell.stored_elements(), (1 << 32) + (1 << 24));
        assert_eq!(
            bell.fill_ratio(),
            triplets.len() as f64 / (1u64 << 32) as f64
        );
        assert_eq!(bell.block_cols(0).len(), n / 16);
        assert_eq!(bell.block_cols(1), [1]);
        assert_eq!(bell.entries().len(), triplets.len());
        let a = Dense::from_fn(n, 2, |i, j| (i % 7) as f32 - j as f32);
        let expected = reference::spmm(&csr.to_hybrid(), &a).unwrap();
        assert_eq!(dense_bits(&bell.spmm(&a).unwrap()), dense_bits(&expected));
    }

    #[test]
    fn padded_sizes_that_overflow_are_errors() {
        let csr = Csr::from_triplets(1, 1, &[(0, 0, 1.0)]).unwrap();
        for block in [1usize << 32, usize::MAX] {
            let overflow = Err(FormatError::DimensionMismatch {
                context: "blocked-ell padded size overflows usize",
            });
            assert_eq!(BlockedEllShape::of(&csr, block), overflow);
            assert_eq!(
                BlockedEll::from_csr(&csr, block).map(|b| b.shape()),
                overflow
            );
        }
        // One below the limit: a single 2³¹ × 2³¹ block, one entry.
        let bell = BlockedEll::from_csr(&csr, 1 << 31).unwrap();
        assert_eq!(bell.shape().payload_len(), 1 << 62);
        assert_eq!(bell.entries(), [(0, 0, 1.0)]);
    }

    #[test]
    fn rejects_zero_block_and_bad_dims() {
        let csr = sample_csr();
        assert!(BlockedEll::from_csr(&csr, 0).is_err());
        assert!(BlockedEllShape::of(&csr, 0).is_err());
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

    /// Values that stress the merge and the zero skip: both zeros, both
    /// infinities, NaN, a pair that cancels, and ordinary magnitudes.
    const VALUES: [f32; 10] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.5,
        -1.5,
        1e-30,
        3.0e38,
        -7.25,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random matrices — 0 × 0 and entry-free ones, duplicates (drawn
        /// from few cells, so they collide), a hub row reaching every
        /// column, explicit ±0, NaN and ±Inf values, NaN operands — at
        /// blocks 1, 2, 3 (ragged edges) and 16 (one block): the shape,
        /// every block-row's column blocks, every payload non-zero and
        /// every output bit equal the padded format's.
        #[test]
        fn from_csr_and_spmm_match_the_padded_format(
            (rows, cols, block_sel, hub) in (0usize..12, 0usize..20, 0usize..4, 0usize..3),
            draws in proptest::collection::vec((0usize..1000, 0usize..1000, 0usize..20), 0..60),
            k in 0usize..4,
        ) {
            let block = [1usize, 2, 3, 16][block_sel];
            let mut triplets: Vec<(u32, u32, f32)> = Vec::new();
            if rows > 0 && cols > 0 {
                for &(r, c, v) in &draws {
                    // Half the draws land in a 3 × 4 corner, so they repeat.
                    let (r, c) = if v % 2 == 0 { (r % 3, c % 4) } else { (r, c) };
                    triplets.push(((r % rows) as u32, (c % cols) as u32, VALUES[v % 10]));
                }
                if hub == 0 {
                    let row = (draws.len() % rows) as u32;
                    triplets.extend((0..cols as u32).map(|c| (row, c, 0.5 + c as f32)));
                }
            }
            let csr = Csr::from_triplets(rows, cols, &triplets).unwrap();
            let oracle = Oracle::from_csr(&csr, block);
            let bell = BlockedEll::from_csr(&csr, block).unwrap();
            oracle.assert_describes(&bell);
            prop_assert_eq!(BlockedEllShape::of(&csr, block).unwrap(), bell.shape());
            let a = Dense::from_fn(cols, k, |i, j| match (i + 2 * j) % 11 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => 0.0,
                n => n as f32 - 6.5,
            });
            prop_assert_eq!(dense_bits(&bell.spmm(&a).unwrap()), dense_bits(&oracle.spmm(&a)));
        }
    }

    #[test]
    fn unsorted_csr_rows_merge_in_csr_order() {
        // `Csr::new` accepts rows whose columns are not ascending, so
        // entries of one payload scalar can arrive apart; they still sum in
        // arrival order (1e30 + 1 − 1e30 is 0, 1e30 − 1e30 + 1 is 1).
        let csr = Csr::new(
            2,
            4,
            vec![0, 5, 6],
            vec![3, 0, 3, 1, 3, 2],
            vec![1e30, 2.0, 1.0, 4.0, -1e30, 8.0],
        )
        .unwrap();
        for block in [1usize, 2, 3] {
            let oracle = Oracle::from_csr(&csr, block);
            let bell = BlockedEll::from_csr(&csr, block).unwrap();
            oracle.assert_describes(&bell);
            let a = Dense::from_fn(4, 3, |i, j| (i * 3 + j) as f32);
            assert_eq!(
                dense_bits(&bell.spmm(&a).unwrap()),
                dense_bits(&oracle.spmm(&a))
            );
        }
    }
}
