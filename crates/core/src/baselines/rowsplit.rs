//! Row-split SpMM (Yang, Buluç, Owens — Euro-Par'18, via GraphBLAST).
//!
//! The classic row-oriented design the paper reports the largest speedups
//! over (10.85× average on V100). Rows map to warps with no splitting, no
//! shared-memory staging and — the decisive weakness on feature matrices —
//! per-lane scattered feature reads rather than warp-coalesced row loads.

use crate::baselines::common::{
    row_warp_cost, row_warp_symbolic_plan, whole_row_tasks, RowTaskKind, RowWarpSpec,
};
use crate::numerics::{segment_sums, Cut};
use crate::traits::{KernelCost, SpmmKernel};
use hpsparse_sim::{GpuSim, SymbolicPlan};
use hpsparse_sparse::{Dense, FormatError, Hybrid};

/// Row-split: row-per-warp SpMM with uncoalesced feature access.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowSplit;

impl RowSplit {
    fn spec() -> RowWarpSpec {
        RowWarpSpec {
            vector_width: 1,
            shared_tile: false,
            gather_features: true,
            registers_per_thread: 28,
            ..Default::default()
        }
    }
}

impl SpmmKernel for RowSplit {
    fn name(&self) -> &'static str {
        "Row-split"
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

    fn symbolic_plans(&self) -> Vec<SymbolicPlan> {
        vec![row_warp_symbolic_plan(
            self.name(),
            &Self::spec(),
            RowTaskKind::Whole,
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::reference;

    #[test]
    fn matches_reference() {
        let s = Hybrid::from_triplets(
            6,
            6,
            &[
                (0, 0, 1.5),
                (1, 2, -2.0),
                (2, 1, 0.5),
                (2, 4, 3.0),
                (5, 5, 1.0),
            ],
        )
        .unwrap();
        let a = Dense::from_fn(6, 24, |i, j| (i as f32) - (j as f32) * 0.1);
        let expected = reference::spmm(&s, &a).unwrap();
        let run = RowSplit.run(&DeviceSpec::v100(), &s, &a).unwrap();
        assert!(run.output.approx_eq(&expected, 1e-5, 1e-6));
    }

    #[test]
    fn uncoalesced_gathers_cost_more_transactions_than_gespmm() {
        // Moderate power-law-ish matrix. Row-split's scattered per-lane
        // feature walk must generate far more memory transactions than
        // GE-SpMM's coalesced row reads (its wall-clock penalty then
        // depends on cache behaviour, which small test graphs mask).
        let triplets: Vec<(u32, u32, f32)> = (0..6000u32)
            .map(|i| ((i * i / 97) % 500, (i * 31) % 500, 1.0))
            .collect();
        let s = Hybrid::from_triplets(500, 500, &triplets).unwrap();
        let a = Dense::from_fn(500, 64, |i, j| ((i + j) as f32 * 1e-2).sin());
        let v100 = DeviceSpec::v100();
        let rs = RowSplit.run(&v100, &s, &a).unwrap();
        let ge = super::super::gespmm::GeSpmm.run(&v100, &s, &a).unwrap();
        assert!(
            rs.report.totals.transactions > ge.report.totals.transactions,
            "row-split {} vs ge-spmm {} transactions",
            rs.report.totals.transactions,
            ge.report.totals.transactions
        );
    }
}
