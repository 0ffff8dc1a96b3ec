//! cuSPARSE Blocked-ELL SpMM — the third format §II says cuSPARSE offers.
//!
//! One warp per (block-row, column-block) pair: the dense `block × block`
//! payload streams in coalesced, each of the block's columns contributes a
//! feature-row read, and the block-row's output tile is accumulated with
//! atomics across slots. On structured matrices the dense payloads make
//! this fast; on power-law graphs the padding (measured by
//! [`BlockedEll::fill_ratio`]) is pure wasted bandwidth — which is why GNN
//! frameworks don't adopt the format and the paper's kernels stay on
//! hybrid CSR/COO.
//!
//! The padding is accounted, not stored: the cost walk charges the padded
//! device buffers from a [`BlockedEllShape`] alone, and the host-side
//! [`BlockedEll`] behind `accumulate` holds only the payload's non-zeros.

use crate::traits::{check_spmm_dims, KernelCost, SpmmKernel, SpmmRun};
use hpsparse_sim::{GpuSim, KernelResources, LaunchConfig, LaunchReport};
use hpsparse_sparse::{BlockedEll, BlockedEllShape, Dense, FormatError, Hybrid};

/// Blocked-ELL SpMM with a configurable block size.
#[derive(Debug, Clone, Copy)]
pub struct CusparseBlockedEll {
    /// Edge length of the dense blocks (cuSPARSE requires powers of two;
    /// 16 and 32 are typical).
    pub block: usize,
}

impl Default for CusparseBlockedEll {
    fn default() -> Self {
        Self { block: 16 }
    }
}

impl CusparseBlockedEll {
    fn format_of(&self, s: &Hybrid) -> Result<BlockedEll, FormatError> {
        BlockedEll::from_csr(&s.to_csr(), self.block.max(1))
    }

    /// The cost walk over the format's padded shape at feature width `k`.
    fn walk(&self, sim: &mut GpuSim, shape: BlockedEllShape, k: usize) -> LaunchReport {
        let (m, n, b) = (shape.rows(), shape.cols(), shape.block());
        let width = shape.width();
        let block_rows = shape.block_rows();

        let payload_buf = sim.alloc_input(shape.payload_len(), "ell_payload");
        let colidx_buf = sim.alloc_input(shape.slots(), "ell_colidx");
        let a_buf = sim.alloc_input(n * k, "A");
        let o_buf = sim.alloc_output(m * k, "O");

        let slots = (block_rows * width.max(1)) as u64;
        let launch = LaunchConfig {
            num_warps: slots.max(1),
            resources: KernelResources {
                warps_per_block: 8,
                registers_per_thread: 48,
                shared_mem_per_block: (b * b * 4) as u32 * 8,
            },
        };
        sim.launch_named(self.name(), launch, |warp_id, tally| {
            if width == 0 || warp_id >= slots {
                return;
            }
            let br = (warp_id / width as u64) as usize;
            let slot = (warp_id % width as u64) as usize;
            // Column-block index read.
            tally.global_read(colidx_buf.elem_addr((br * width + slot) as u64, 4), 4, 1);
            // Dense payload: b*b floats, padding included — the format's
            // fundamental bandwidth tax on sparse blocks.
            tally.global_read(
                payload_buf.elem_addr(((br * width + slot) * b * b) as u64, 4),
                (b * b) as u64 * 4,
                4,
            );
            tally.shared_op((b * b) as u64 / 32 + 1);
            // One feature-row read per block column (clamped: edge blocks
            // of a matrix narrower than `b` have fewer real columns), one
            // output-tile accumulation per block row.
            for lc in 0..b.min(n) {
                tally.global_read(a_buf.elem_addr((lc * k) as u64, 4), k as u64 * 4, 2);
                tally.compute((k as u64).div_ceil(32) * b as u64 / 8 + 1);
            }
            for lr in 0..b {
                let r = br * b + lr;
                if r >= m {
                    break;
                }
                tally.global_atomic(o_buf.elem_addr((r * k) as u64, 4), k as u64 * 4);
            }
        })
    }
}

impl SpmmKernel for CusparseBlockedEll {
    fn name(&self) -> &'static str {
        "cuSPARSE(Blocked-ELL)"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let shape = BlockedEllShape::of(&s.to_csr(), self.block.max(1))?;
        Ok(KernelCost {
            report: self.walk(sim, shape, k),
            preprocess: None,
        })
    }

    /// The format's own SpMM (verified against the reference in
    /// `hpsparse-sparse`).
    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        self.format_of(s)?.spmm(a)
    }

    /// Cost walk and accumulation both need the format: build it once.
    fn run_on(&self, sim: &mut GpuSim, s: &Hybrid, a: &Dense) -> Result<SpmmRun, FormatError> {
        check_spmm_dims(s, a)?;
        let bell = self.format_of(s)?;
        Ok(SpmmRun {
            report: self.walk(sim, bell.shape(), a.cols()),
            output: bell.spmm(a)?,
            preprocess: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hp::HpSpmm;
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::reference;

    #[test]
    fn matches_reference() {
        let triplets: Vec<(u32, u32, f32)> = (0..2000u32)
            .map(|i| ((i * 3) % 200, (i * 11) % 200, ((i % 5) as f32) - 2.0))
            .collect();
        let s = Hybrid::from_triplets(200, 200, &triplets).unwrap();
        let a = Dense::from_fn(200, 32, |i, j| ((i + j) as f32 * 1e-2).sin());
        let expected = reference::spmm(&s, &a).unwrap();
        let run = CusparseBlockedEll::default()
            .run(&DeviceSpec::v100(), &s, &a)
            .unwrap();
        assert!(run.output.approx_eq(&expected, 1e-4, 1e-5));
        assert!(run.report.cycles > 0);
    }

    #[test]
    fn loses_to_hp_on_power_law_graphs() {
        // Scatter-y graph: blocks are nearly empty, padding dominates.
        let triplets: Vec<(u32, u32, f32)> = (0..4000u32)
            .map(|i| (i.wrapping_mul(2654435761) % 2000, (i * 40503) % 2000, 1.0))
            .collect();
        let s = Hybrid::from_triplets(2000, 2000, &triplets).unwrap();
        let a = Dense::from_fn(2000, 64, |i, j| (i + j) as f32);
        let v100 = DeviceSpec::v100();
        let bell = CusparseBlockedEll::default().run(&v100, &s, &a).unwrap();
        let hp = HpSpmm::auto(&v100, &s, 64).run(&v100, &s, &a).unwrap();
        assert!(
            bell.report.cycles > 2 * hp.report.cycles,
            "blocked-ell {} vs hp {}",
            bell.report.cycles,
            hp.report.cycles
        );
    }

    #[test]
    fn handles_block_dense_structure_well() {
        // Block-diagonal matrix with dense 16x16 blocks: the format's
        // sweet spot — fill ratio 1.0, no padding.
        let mut triplets = Vec::new();
        for blk in 0..8u32 {
            for i in 0..16u32 {
                for j in 0..16u32 {
                    triplets.push((blk * 16 + i, blk * 16 + j, 0.5));
                }
            }
        }
        let s = Hybrid::from_triplets(128, 128, &triplets).unwrap();
        let a = Dense::from_fn(128, 32, |i, j| ((i * 32 + j) as f32 * 1e-3).cos());
        let expected = reference::spmm(&s, &a).unwrap();
        let run = CusparseBlockedEll::default()
            .run(&DeviceSpec::v100(), &s, &a)
            .unwrap();
        assert!(run.output.approx_eq(&expected, 1e-4, 1e-4));
    }
}
