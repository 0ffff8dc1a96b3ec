//! GE-SpMM (Huang et al., SC'20) — the node-parallel state of the art the
//! paper measures itself against most closely.
//!
//! Strategy: one warp per row (node-parallelism), with *coalesced row
//! caching*: the warp stages its row's `ColInd`/`Value` tiles in shared
//! memory so all lanes re-read them cheaply. Load imbalance is inherited
//! directly from the degree distribution, which is why the paper's Fig. 12
//! correlates HP-SpMM's speedup over GE-SpMM with degree variance.

use crate::baselines::common::{row_warp_cost, whole_row_tasks, RowWarpSpec};
use crate::numerics::{segment_sums, Cut};
use crate::traits::{KernelCost, SpmmKernel};
use hpsparse_sim::GpuSim;
use hpsparse_sparse::{Dense, FormatError, Hybrid};

/// GE-SpMM: node-parallel SpMM with shared-memory sparse-data reuse.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeSpmm;

impl GeSpmm {
    fn spec() -> RowWarpSpec {
        RowWarpSpec {
            vector_width: 1,
            shared_tile: true,
            // GE-SpMM's coarsening: each thread keeps two accumulators and
            // the warp covers 64 feature columns — fewer, heavier warps
            // (its data-reuse scheme, discussed in §IV-F).
            k_coarsen: 2,
            // GE-SpMM is lean on registers (the paper notes it uses fewer
            // than HP-SpMM, §IV-F).
            registers_per_thread: 24,
            shared_mem_per_block: 2 * 32 * 4 * 8,
            ..Default::default()
        }
    }
}

impl SpmmKernel for GeSpmm {
    fn name(&self) -> &'static str {
        "GE-SpMM"
    }

    fn cost_on(&self, sim: &mut GpuSim, s: &Hybrid, k: usize) -> Result<KernelCost, FormatError> {
        let csr = s.to_csr();
        let tasks = whole_row_tasks(&csr, None);
        Ok(KernelCost {
            report: row_warp_cost(self.name(), sim, &csr, k, &tasks, &Self::spec()),
            preprocess: None,
        })
    }

    fn accumulate(&self, s: &Hybrid, a: &Dense) -> Result<Dense, FormatError> {
        segment_sums(s, a, Cut::PerRow(usize::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hp::spmm::HpSpmm;
    use crate::traits::SpmmKernel;
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::reference;

    #[test]
    fn matches_reference() {
        let s = Hybrid::from_triplets(
            5,
            5,
            &[
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 0, 3.0),
                (2, 2, 4.0),
                (4, 0, 5.0),
                (4, 4, 6.0),
            ],
        )
        .unwrap();
        let a = Dense::from_fn(5, 40, |i, j| ((i * 40 + j) as f32 * 0.02).cos());
        let expected = reference::spmm(&s, &a).unwrap();
        let run = GeSpmm.run(&DeviceSpec::v100(), &s, &a).unwrap();
        assert!(run.output.approx_eq(&expected, 1e-5, 1e-6));
    }

    #[test]
    fn suffers_from_skew_more_than_hp() {
        // One hub row with 4096 nnz, 1023 singleton rows.
        let mut triplets: Vec<(u32, u32, f32)> = Vec::new();
        for c in 0..4096u32 {
            triplets.push((0, c % 4096, 1.0));
        }
        for r in 1..1024u32 {
            triplets.push((r, r % 4096, 1.0));
        }
        let s = Hybrid::from_triplets(1024, 4096, &triplets).unwrap();
        let a = Dense::from_fn(4096, 64, |i, j| ((i + j) as f32 * 1e-3).sin());
        let v100 = DeviceSpec::v100();
        let ge = GeSpmm.run(&v100, &s, &a).unwrap();
        let hp = HpSpmm::auto(&v100, &s, 64).run(&v100, &s, &a).unwrap();
        // GE-SpMM's slowest warp carries the whole hub row.
        assert!(
            ge.report.imbalance() > 4.0 * hp.report.imbalance(),
            "ge imbalance {} vs hp {}",
            ge.report.imbalance(),
            hp.report.imbalance()
        );
        assert!(
            ge.report.cycles > hp.report.cycles,
            "ge {} vs hp {}",
            ge.report.cycles,
            hp.report.cycles
        );
        // Numerics still agree.
        let expected = reference::spmm(&s, &a).unwrap();
        assert!(ge.output.approx_eq(&expected, 1e-4, 1e-5));
        assert!(hp.output.approx_eq(&expected, 1e-4, 1e-5));
    }
}
