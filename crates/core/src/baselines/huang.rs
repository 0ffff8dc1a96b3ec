//! Huang's method (Huang, Zhai, Zheng, Yi, Shen — PPoPP'21): neighbour
//! grouping.
//!
//! Long rows are split into bounded *neighbour groups* during a
//! preprocessing pass, which also materialises a group→row mapping array.
//! Execution over the groups is well balanced; the cost is the grouping
//! pass itself — the slowest preprocessing in the paper's Table IV
//! (73 ms on AM, 28× its own execution time).

use crate::baselines::common::{host_pass_report, row_warp_cost, split_row_tasks, RowWarpSpec};
use crate::numerics::{segment_sums, Cut};
use crate::traits::{KernelCost, SpmmKernel};
use hpsparse_sim::GpuSim;
use hpsparse_sparse::{Dense, FormatError, Hybrid};

/// Huang's neighbour-grouping SpMM.
#[derive(Debug, Clone, Copy)]
pub struct Huang {
    /// Maximum elements per neighbour group.
    pub group_size: usize,
}

impl Default for Huang {
    fn default() -> Self {
        Self { group_size: 32 }
    }
}

impl Huang {
    fn spec() -> RowWarpSpec {
        RowWarpSpec {
            vector_width: 1,
            shared_tile: true,
            registers_per_thread: 30,
            shared_mem_per_block: 2 * 32 * 4 * 8,
            ..Default::default()
        }
    }
}

impl SpmmKernel for Huang {
    fn name(&self) -> &'static str {
        "Huang's method"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let csr = s.to_csr();
        // Preprocessing: the grouping pass walks every element to emit the
        // regrouped arrays — a host-side pass in the original
        // implementation.
        let preprocess = host_pass_report(sim.device(), s.nnz() as u64, 14.0);
        let tasks = split_row_tasks(&csr, self.group_size);
        Ok(KernelCost {
            report: row_warp_cost(self.name(), sim, &csr, k, &tasks, &Self::spec()),
            preprocess: Some(preprocess),
        })
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        segment_sums(s, a, Cut::PerRow(self.group_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::reference;

    #[test]
    fn matches_reference_with_grouped_rows() {
        // One huge row so grouping definitely kicks in.
        let mut triplets: Vec<(u32, u32, f32)> = (0..500u32).map(|c| (0, c, 1.0)).collect();
        triplets.extend((1..100u32).map(|r| (r, r, 2.0)));
        let s = Hybrid::from_triplets(100, 500, &triplets).unwrap();
        let a = Dense::from_fn(500, 16, |i, j| ((i + j) as f32 * 0.01).cos());
        let expected = reference::spmm(&s, &a).unwrap();
        let run = Huang::default().run(&DeviceSpec::v100(), &s, &a).unwrap();
        assert!(run.output.approx_eq(&expected, 1e-4, 1e-5));
    }

    #[test]
    fn grouping_balances_better_than_node_parallel() {
        let mut triplets: Vec<(u32, u32, f32)> = (0..2000u32).map(|c| (0, c % 2000, 1.0)).collect();
        triplets.extend((1..512u32).map(|r| (r, r % 2000, 1.0)));
        let s = Hybrid::from_triplets(512, 2000, &triplets).unwrap();
        let a = Dense::from_fn(2000, 64, |i, j| (i + j) as f32);
        let v100 = DeviceSpec::v100();
        let huang = Huang::default().run(&v100, &s, &a).unwrap();
        let ge = super::super::gespmm::GeSpmm.run(&v100, &s, &a).unwrap();
        assert!(huang.report.imbalance() < ge.report.imbalance());
        assert!(huang.report.cycles < ge.report.cycles);
    }

    #[test]
    fn preprocessing_dwarfs_execution_on_big_inputs() {
        // Table IV's qualitative claim: Huang's preprocessing is many
        // times its execution.
        let triplets: Vec<(u32, u32, f32)> = (0..60_000u32)
            .map(|i| (i % 2000, (i * 31) % 2000, 1.0))
            .collect();
        let s = Hybrid::from_triplets(2000, 2000, &triplets).unwrap();
        let a = Dense::from_fn(2000, 64, |i, j| ((i + j) as f32).sin());
        let run = Huang::default().run(&DeviceSpec::a30(), &s, &a).unwrap();
        let pre = run.preprocess.unwrap();
        assert!(
            pre.cycles > run.report.cycles,
            "pre {} vs exec {}",
            pre.cycles,
            run.report.cycles
        );
    }
}
