//! DGL's SDDMM — pure edge-parallelism (§IV-A2 names it a competitive
//! baseline).
//!
//! One warp per edge: load `A1[r]` and `A2ᵀ[c]`, lane-multiply,
//! warp-reduce, store. Perfectly balanced, but with zero reuse of `A1`
//! across edges that share a destination — exactly the traffic HP-SDDMM's
//! row-switch procedure eliminates — and a warp count equal to `NNZ`,
//! which over-subscribes the scheduler on big graphs.

use crate::traits::{KernelCost, SddmmKernel};
use hpsparse_sim::{GpuSim, KernelResources, LaunchConfig};
use hpsparse_sparse::{FormatError, Hybrid};

/// DGL-SDDMM: edge-parallel SDDMM.
#[derive(Debug, Clone, Copy, Default)]
pub struct DglSddmm;

impl SddmmKernel for DglSddmm {
    fn name(&self) -> &'static str {
        "DGL-SDDMM"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let nnz = s.nnz();

        let row_buf = sim.alloc_input(nnz, "row_ind");
        let col_buf = sim.alloc_input(nnz, "col_ind");
        let val_buf = sim.alloc_input(nnz, "values");
        let a1_buf = sim.alloc_input(s.rows() * k, "A1");
        let a2_buf = sim.alloc_input(s.cols() * k, "A2T");
        let so_buf = sim.alloc_output(nnz, "S_O");

        let row_ind = s.row_indices();
        let col_ind = s.col_indices();

        let launch = LaunchConfig {
            num_warps: nnz as u64,
            resources: KernelResources {
                warps_per_block: 8,
                registers_per_thread: 26,
                shared_mem_per_block: 0,
            },
        };
        let report = sim.launch_named(self.name(), launch, |warp_id, tally| {
            let j = warp_id as usize;
            if j >= nnz {
                return;
            }
            // Kernel prologue — amortised over a single edge here, which
            // is the per-warp overhead tax of pure edge-parallelism.
            tally.compute(12);
            // Per-edge index loads (each warp touches 12 bytes of sparse
            // metadata — uncoalesced across warps only at tile edges).
            for buf in [&row_buf, &col_buf, &val_buf] {
                tally.global_read(buf.elem_addr(j as u64, 4), 4, 1);
            }
            let r = row_ind[j] as usize;
            let c = col_ind[j] as usize;
            tally.global_read(a1_buf.elem_addr((r * k) as u64, 4), k as u64 * 4, 1);
            tally.global_read(a2_buf.elem_addr((c * k) as u64, 4), k as u64 * 4, 1);
            tally.compute((k as u64).div_ceil(32).max(1));
            tally.shuffle_reduce(32);
            tally.global_write(so_buf.elem_addr(j as u64, 4), 4, 1);
        });
        Ok(KernelCost {
            report,
            preprocess: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hp::sddmm::HpSddmm;
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::{reference, Dense};

    #[test]
    fn matches_reference() {
        let s = Hybrid::from_triplets(
            5,
            6,
            &[
                (0, 0, 1.0),
                (0, 5, 2.0),
                (2, 3, -1.0),
                (3, 3, 0.5),
                (4, 1, 3.0),
            ],
        )
        .unwrap();
        let a1 = Dense::from_fn(5, 16, |i, j| ((i * 16 + j) as f32 * 0.1).sin());
        let a2t = Dense::from_fn(6, 16, |i, j| ((i * 16 + j) as f32 * 0.1).cos());
        let expected = reference::sddmm_transposed(&s, &a1, &a2t).unwrap();
        let run = DglSddmm.run(&DeviceSpec::v100(), &s, &a1, &a2t).unwrap();
        for (x, y) in run.output_values.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn reads_more_a1_bytes_than_hp_on_clustered_rows() {
        // 64 edges all in one row: DGL loads A1[0] 64 times; HP once per
        // warp.
        let triplets: Vec<(u32, u32, f32)> = (0..64u32).map(|c| (0, c, 1.0)).collect();
        let s = Hybrid::from_triplets(64, 64, &triplets).unwrap();
        let a1 = Dense::from_fn(64, 64, |i, j| (i + j) as f32);
        let a2t = Dense::from_fn(64, 64, |i, j| (i * 2 + j) as f32);
        let v100 = DeviceSpec::v100();
        let dgl = DglSddmm.run(&v100, &s, &a1, &a2t).unwrap();
        let hp = HpSddmm::auto(&v100, &s, 64)
            .run(&v100, &s, &a1, &a2t)
            .unwrap();
        assert!(
            dgl.report.totals.global_bytes > hp.report.totals.global_bytes,
            "dgl {} vs hp {}",
            dgl.report.totals.global_bytes,
            hp.report.totals.global_bytes
        );
        assert!(dgl.report.warps > hp.report.warps);
    }
}
